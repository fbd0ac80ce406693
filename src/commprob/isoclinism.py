"""Isoclinism of finite groups via commutator pairing structures.

Two groups are isoclinic when there are isomorphisms between their central
quotients and between their derived subgroups that carry one commutator
pairing to the other.  The pairing of a group G is the well-defined map
(g1 Z, g2 Z) -> [g1, g2] from pairs of central cosets into the derived
subgroup; it is the full invariant and is checked directly here.
"""

from __future__ import annotations

from typing import NamedTuple

from .perm import FiniteGroup, GroupError
from .isomorphism import extend_to_isomorphism, iter_isomorphisms
from .structure import (
    _cached,
    _coset_data,
    as_group_with_map,
    center,
    derived_subgroup,
    quotient,
)


class PairingStructure(NamedTuple):
    """The isoclinism invariant of a group.

    ``pairing[q1][q2]`` is the element index, inside the standalone
    realization of the derived subgroup, of the commutator of any
    representatives of the central cosets q1 and q2.
    """

    inner_quotient: FiniteGroup
    derived: FiniteGroup
    pairing: tuple[tuple[int, ...], ...]


class IsoclinismWitness(NamedTuple):
    quotient_iso: tuple[int, ...]
    derived_iso: tuple[int, ...]


def commutator_pairing(G: FiniteGroup) -> PairingStructure:
    """Build (G/Z(G), G', pairing) and verify the pairing is well defined.

    For central z, z' the theorem [g1 z, g2 z'] = [g1, g2] makes it so; the
    loop checks it in the first argument, [g1, r2] for every g1 against the
    representative r2 of each coset.  The second argument needs no loop of
    its own, since [b, a] = [a, b]^-1: for r1, r2 the representatives of
    the cosets of g1 and g2, [r1, g2] = [g2, r1]^-1, which the first check
    equates with [r2, r1]^-1 = [r1, r2].
    """

    def compute():
        Z = center(G)
        Q, (pi, reps) = quotient(G, Z), _coset_data(G, Z)  # reps: lowest member of each coset
        D, dmap = as_group_with_map(G, derived_subgroup(G))
        rows, inv = G.multiplication_table(), tuple(map(G.inv, range(G.order)))

        def comm(a: int, b: int) -> int:  # index in D of [a, b] = a^-1 b^-1 a b
            return dmap[rows[rows[inv[a]][inv[b]]][rows[a][b]]]

        pairing = [tuple(comm(r1, r2) for r2 in reps) for r1 in reps]
        for g1 in range(G.order):
            row = pairing[pi[g1]]
            for q2 in range(Q.order):
                if comm(g1, reps[q2]) != row[q2]:
                    raise GroupError("commutator pairing is not well defined")
        return PairingStructure(Q, D, tuple(pairing))

    return _cached(G, "pairing", compute)


def is_stem(G: FiniteGroup) -> bool:
    """True iff the center is contained in the derived subgroup."""
    derived = set(derived_subgroup(G).member_indices)
    return all(z in derived for z in center(G).member_indices)


def _induced_derived_map(
    a: PairingStructure, b: PairingStructure, phi: list[int]
) -> tuple[int, ...] | None:
    """Extend the map forced on pairing values by phi to an isomorphism of
    the derived groups, or return None if it is not functional or does not
    extend."""
    forced: dict[int, int] = {}
    n = a.inner_quotient.order
    for q1 in range(n):
        row_a = a.pairing[q1]
        row_b = b.pairing[phi[q1]]
        for q2 in range(n):
            val = row_a[q2]
            target = row_b[phi[q2]]
            if forced.setdefault(val, target) != target:
                return None
    gens = sorted(forced)
    images = [forced[g] for g in gens]
    psi = extend_to_isomorphism(a.derived, gens, b.derived, images)
    return None if psi is None else tuple(psi)


def find_isoclinism(G: FiniteGroup, H: FiniteGroup) -> IsoclinismWitness | None:
    """Search for compatible isomorphisms of the two pairing structures.

    Cheap order prechecks run before any pairing is built; the quotient
    isomorphisms are then enumerated in canonical order and the first one
    whose induced map extends to the derived groups wins.
    """
    zg, zh = center(G), center(H)
    if G.order // zg.order != H.order // zh.order:
        return None
    if derived_subgroup(G).order != derived_subgroup(H).order:
        return None
    pg = commutator_pairing(G)
    ph = commutator_pairing(H)
    for phi in iter_isomorphisms(pg.inner_quotient, ph.inner_quotient):
        psi = _induced_derived_map(pg, ph, phi)
        if psi is not None:
            return IsoclinismWitness(tuple(phi), psi)
    return None


def are_isoclinic(G: FiniteGroup, H: FiniteGroup) -> bool:
    return find_isoclinism(G, H) is not None
