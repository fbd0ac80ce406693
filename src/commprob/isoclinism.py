"""Isoclinism of finite groups, decided by one walk over generator commutators.

Two groups G and H are isoclinic when there are isomorphisms phi of their
central quotients and psi of their derived subgroups with
psi([g1, g2]) = [h1, h2] whenever h1, h2 lie in the cosets phi gives g1, g2.
A section G/K of G (G/Z(G), say) is decided the same way, read in G's own
table.  Each candidate phi is tested by one walk over G'K/K: G' is the
normal closure of the commutators of G's generators, so by P. Hall's
identities [xy, z] = [x, z]^y [y, z] and [x, yz] = [x, z][x, y]^z, psi is
fixed by its values on those commutators and by commuting with conjugation
by the generators.  No table of all commutators is built.
"""

from __future__ import annotations

from typing import NamedTuple

from .perm import FiniteGroup, _extend_map
from .isomorphism import iter_isomorphisms
from .structure import (
    Subgroup,
    _cached,
    _central_mod,
    _coset_data,
    center,
    commutator,
    derived_subgroup,
    subgroup_generated,
)


class IsoclinismWitness(NamedTuple):
    quotient_iso: tuple[int, ...]
    derived_iso: tuple[int, ...]


def _section(G: FiniteGroup, K: Subgroup) -> tuple[Subgroup, tuple]:
    """The central quotient and derived subgroup of G/K, read in G's table and
    memoized per K.  The first is M, the preimage of Z(G/K), so that G/M is
    the central quotient of G/K: Z(G)'s rule read through K's coset ids
    (:func:`_central_mod`; for K = 1, :func:`center`'s memo).  The second is
    G'K/K as ``(of, reps)``: the cosets of K in G'K numbered by lowest member,
    ``reps[i]`` that member and ``of[g]`` g's number, -1 outside G'K (for
    K = 1, G' in member order)."""

    def compute():
        k_of, k_reps = _coset_data(G, K)
        M = center(G) if K.is_trivial() else _central_mod(G, k_of)
        ids = sorted({k_of[d] for d in derived_subgroup(G).member_indices})
        number = {k: i for i, k in enumerate(ids)}
        return M, (tuple(number.get(k, -1) for k in k_of), tuple(k_reps[k] for k in ids))

    return _cached(G, ("section", K.member_indices), compute)


def _edges(G: FiniteGroup, gens) -> list[tuple]:
    """The edges of the walk over a derived subgroup as (row a, column b),
    each sending x to a·x·b: right multiplication by [s, s'] for every two of
    the elements ``gens`` (a = 1), then conjugation by each s (a = s^-1, b = s)."""
    pairs = [(s, s2) for i, s in enumerate(gens) for s2 in gens[i + 1:]]
    edges = [(G.identity_index, commutator(G, s, s2)) for s, s2 in pairs]
    return [(G.row(a), G.column(b)) for a, b in edges + [(G.inv(s), s) for s in gens]]


def is_stem(G: FiniteGroup) -> bool:
    """True iff the center is contained in the derived subgroup."""
    derived = set(derived_subgroup(G).member_indices)
    return all(z in derived for z in center(G).member_indices)


def find_isoclinism(
    G: FiniteGroup, H: FiniteGroup, K: Subgroup | None = None
) -> IsoclinismWitness | None:
    """Search for an isoclinism of G/K (G by default) and H.

    Cheap order prechecks come first.  The isomorphisms phi: G/M -> H/Z(H)
    of the central quotients are then enumerated in canonical order, and
    the first one that extends wins.  For each generator s of G, t_s is the
    lowest member of the coset phi(sM); then psi(1) = 1 is extended by one
    :func:`~commprob.perm._extend_map` walk over G'K/K along the edges
    x -> x·[s, s'] (to psi(x)·[t_s, t_s']) and x -> x^s (to psi(x)^t_s).
    The orbit of (1, 1) under these edges is the derived subgroup of the
    group of pairs (g, h) with h in phi(gM), so phi extends exactly when the
    walk has no clash, reaches all of G'K/K and psi is injective.
    """
    K = K or subgroup_generated(G, ())
    mg, (of_a, reps_a) = _section(G, K)
    mh, (of_b, reps_b) = _section(H, subgroup_generated(H, ()))
    if G.order // mg.order != H.order // mh.order or len(reps_a) != len(reps_b):
        return None
    gens = G.generating_indices()
    of_m, reps_n = _coset_data(G, mg)[0], _coset_data(H, mh)[1]
    steps = [[of_a[col_b[row_a[r]]] for r in reps_a] for row_a, col_b in _edges(G, gens)]
    for phi in iter_isomorphisms(G, H, mg, mh):
        psi, clash = _extend_map(
            steps, len(reps_a), _edges(H, [reps_n[phi[of_m[s]]] for s in gens]),
            lambda y, edge: of_b[edge[1][edge[0][reps_b[y]]]], 0,
        )
        if clash is None and -1 not in psi and len(set(psi)) == len(psi):
            return IsoclinismWitness(tuple(phi), tuple(psi))
    return None


def are_isoclinic(G: FiniteGroup, H: FiniteGroup, K: Subgroup | None = None) -> bool:
    """Whether G/K (G by default) is isoclinic to H."""
    return find_isoclinism(G, H, K) is not None
