"""Isoclinism of finite groups via commutator pairing structures.

Two groups are isoclinic when there are isomorphisms between their central
quotients and between their derived subgroups that carry one commutator
pairing to the other.  The pairing of a group G is the well-defined map
(g1 Z, g2 Z) -> [g1, g2] from pairs of central cosets into the derived
subgroup; it is the full invariant and is checked directly here.  A section
G/K of G (G/Z(G), say) is decided the same way, read in G's own table.
"""

from __future__ import annotations

from typing import NamedTuple

from .perm import FiniteGroup, GroupError, _extend_map
from .isomorphism import _section_steps, iter_isomorphisms
from .structure import (
    Subgroup,
    _cached,
    _coset_data,
    center,
    derived_subgroup,
    subgroup_generated,
)


class PairingStructure(NamedTuple):
    """The isoclinism invariant of G/K, read in G's table (K = 1 for G).

    ``center`` is M = {g : [g, x] in K for every generator x of G}, so the
    central quotient of G/K is G/M, numbered by the right-coset ids of M
    (:func:`~commprob.structure._coset_data`).  ``derived`` is G'K/K as
    ``(of, reps)``: the cosets of K in G'K numbered by lowest member,
    ``reps[i]`` that member and ``of[g]`` g's number, -1 outside G'K (for
    K = 1, G' in member order).  ``pairing[q1][q2]`` is the number of the
    commutator of any representatives of the cosets q1 and q2 of M.
    """

    center: Subgroup
    derived: tuple[tuple[int, ...], tuple[int, ...]]
    pairing: tuple[tuple[int, ...], ...]


class IsoclinismWitness(NamedTuple):
    quotient_iso: tuple[int, ...]
    derived_iso: tuple[int, ...]


def _section(G: FiniteGroup, K: Subgroup) -> tuple[Subgroup, tuple]:
    """``center`` and ``derived`` of G/K's pairing structure, memoized per
    K; for K = 1, M is :func:`center`'s memo."""

    def compute():
        k_of, k_reps = _coset_data(G, K)
        if K.is_trivial():
            M = center(G)
        else:  # gK and xK commute iff Kgx = Kxg
            rows, gens = G.multiplication_table(), G.generating_indices()
            M = Subgroup(G, [g for g in range(G.order) if all(
                k_of[rows[g][x]] == k_of[rows[x][g]] for x in gens)])
        ids = sorted({k_of[d] for d in derived_subgroup(G).member_indices})
        number = {k: i for i, k in enumerate(ids)}
        return M, (tuple(number.get(k, -1) for k in k_of), tuple(k_reps[k] for k in ids))

    return _cached(G, ("section", K.member_indices), compute)


def commutator_pairing(G: FiniteGroup, K: Subgroup | None = None) -> PairingStructure:
    """The pairing structure of G/K (of G by default), verified well defined.

    For z, z' in M, [g1 z, g2 z'] = [g1, g2] mod K makes it so.  The row of
    [g1, r2] over the representatives r2 of M's cosets is taken for the
    lowest g1 of every coset of K, in index order: the first row met in a
    coset of M is its representative's, and every later one must equal it.
    The second argument needs no check, since [b, a] = [a, b]^-1: with r1,
    r2 the representatives of g1's and g2's cosets, [r1, g2] = [g2, r1]^-1,
    which the first check equates with [r2, r1]^-1 = [r1, r2].
    """
    K = K or subgroup_generated(G, ())

    def compute():
        M, derived = _section(G, K)
        (pi, reps), d_of = _coset_data(G, M), derived[0]
        rows = G.multiplication_table()
        reps_inv = [(r, G.inv(r)) for r in reps]
        pairing: list = [None] * len(reps)
        for a in _coset_data(G, K)[1]:  # [a, b] = a^-1 b^-1 a b
            row_a, row_a_inv = rows[a], rows[G.inv(a)]
            row = tuple([d_of[rows[row_a_inv[b_inv]][row_a[b]]] for b, b_inv in reps_inv])
            if pairing[pi[a]] is None:
                pairing[pi[a]] = row
            elif pairing[pi[a]] != row:
                raise GroupError("commutator pairing is not well defined")
        return PairingStructure(M, derived, tuple(pairing))

    return _cached(G, ("pairing", K.member_indices), compute)


def is_stem(G: FiniteGroup) -> bool:
    """True iff the center is contained in the derived subgroup."""
    derived = set(derived_subgroup(G).member_indices)
    return all(z in derived for z in center(G).member_indices)


def _induced_derived_map(
    G: FiniteGroup, H: FiniteGroup, a: PairingStructure, b: PairingStructure, phi: list[int]
) -> tuple[int, ...] | None:
    """Extend the map forced on pairing values by phi to an isomorphism of
    the derived groups, or return None if it is not functional or does not
    extend: one :func:`~commprob.perm._extend_map` walk in G's table."""
    forced: dict[int, int] = {}
    for q1, row_a in enumerate(a.pairing):
        row_b = b.pairing[phi[q1]]
        for q2, val in enumerate(row_a):
            target = row_b[phi[q2]]
            if forced.setdefault(val, target) != target:
                return None
    gens = sorted(forced)
    (of_a, reps_a), (of_b, reps_b) = a.derived, b.derived
    rows_h = H.multiplication_table()
    psi, clash = _extend_map(
        _section_steps(G.multiplication_table(), of_a, reps_a, gens), 0, gens,
        [forced[g] for g in gens], lambda x, y: of_b[rows_h[reps_b[x]][reps_b[y]]], 0,
    )
    if clash is not None or -1 in psi or len(set(psi)) != len(psi):
        return None
    return tuple(psi)


def find_isoclinism(
    G: FiniteGroup, H: FiniteGroup, K: Subgroup | None = None
) -> IsoclinismWitness | None:
    """Search for compatible isomorphisms of the pairing structures of G/K
    (G by default) and H.

    Cheap order prechecks run before any pairing is built; the quotient
    isomorphisms are then enumerated in canonical order and the first one
    whose induced map extends to the derived groups wins.
    """
    K = K or subgroup_generated(G, ())
    (mg, dg), (mh, dh) = _section(G, K), _section(H, subgroup_generated(H, ()))
    if G.order // mg.order != H.order // mh.order or len(dg[1]) != len(dh[1]):
        return None
    pg, ph = commutator_pairing(G, K), commutator_pairing(H)
    for phi in iter_isomorphisms(G, H, pg.center, ph.center):
        psi = _induced_derived_map(G, H, pg, ph, phi)
        if psi is not None:
            return IsoclinismWitness(tuple(phi), psi)
    return None


def are_isoclinic(G: FiniteGroup, H: FiniteGroup, K: Subgroup | None = None) -> bool:
    """Whether G/K (G by default) is isoclinic to H."""
    return find_isoclinism(G, H, K) is not None
