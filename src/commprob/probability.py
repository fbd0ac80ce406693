"""Exact commuting probability, class counts, and counting inequalities.

All probabilities are :class:`fractions.Fraction` values: exact, in lowest
terms, with arbitrary-precision integers, so threshold comparisons such as
35/243 versus 11/75 are never blurred by rounding.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .perm import FiniteGroup, GroupError
from .structure import (
    Subgroup,
    _cached,
    _commuting,
    _quotient_classes,
    conjugacy_classes,
    derived_subgroup,
    is_normal,
    subgroup_class_count,
)

DEFAULT_ORACLE_CAP = 500


def class_count(G: FiniteGroup) -> int:
    """k(G), the number of conjugacy classes."""
    return len(conjugacy_classes(G))


def commuting_probability(G: FiniteGroup) -> Fraction:
    """d(G) = k(G) / |G|, the probability that a random ordered pair commutes."""
    return Fraction(class_count(G), G.order)


def commuting_pairs_oracle(G: FiniteGroup, max_order: int = DEFAULT_ORACLE_CAP) -> Fraction:
    """The defining count, evaluated literally: |{(x, y) : xy = yx}| / |G|^2.

    Kept independent of the class-based computation so the two can be
    cross-checked.  Refuses groups larger than ``max_order``.
    """
    n = G.order
    if n > max_order:
        raise GroupError(
            f"oracle cap exceeded: group order {n} > {max_order}"
        )
    rows = list(map(G.row, range(n)))
    count = sum(rows[x][y] == rows[y][x] for x in range(n) for y in range(n))
    return Fraction(count, n * n)


def average_class_size(G: FiniteGroup) -> Fraction:
    """acs(G) = |G| / k(G), the reciprocal of the commuting probability."""
    return Fraction(G.order, class_count(G))


def check_character_bound(G: FiniteGroup, c: int) -> bool:
    """True iff |G| >= [G:G'] + c * (k(G) - [G:G']).

    The factor c = 4 encodes that nonlinear irreducible characters have
    degree at least 2; c = 9 encodes degree at least 3, which is only a
    valid assumption for groups of odd order.
    """
    if c not in (4, 9):
        raise GroupError("the character degree factor must be 4 or 9")
    index = G.order // derived_subgroup(G).order
    k = class_count(G)
    return G.order >= index + c * (k - index)


class GallagherResult(NamedTuple):
    holds: bool
    equality: bool
    class_count_group: int
    class_count_quotient: int
    class_count_normal: int


def _centralizer_masks(G: FiniteGroup) -> list[tuple[int, int]]:
    """One (g, C_G(g)) pair per class of G, g its representative and C_G(g)
    an int with bit x set for each x commuting with g: all of G for a
    central g (a class of size 1), else read off row g against column g by
    C-level passes; memoized on G."""

    def compute():
        whole = (1 << G.order) - 1
        return [
            (c.representative, whole if c.size == 1 else _mask(_commuting(G, c.representative)))
            for c in conjugacy_classes(G)
        ]

    return _cached(G, "centralizer_masks", compute)


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _mask(flags: bytes) -> int:
    """The int with bit x set where ``flags[x]`` is 1 (each flag 0 or 1)."""
    return int(flags.translate(_DIGITS)[::-1], 2)


def gallagher_check(G: FiniteGroup, N: Subgroup) -> GallagherResult:
    """Check k(G) <= k(G/N) * k(N) for normal N, and report whether the
    centralizer of every coset gN in G/N is the image of the centralizer of g.
    That image always lies in C_{G/N}(gN) and has order |C_G(g)| / |C_N(g)|,
    so the two are equal iff |N| * |cl_{G/N}(gN)| == |cl_G(g)| * |C_N(g)|.
    G/N is read off N's cosets in G's table: cl_{G/N}(gN) is the set of
    cosets that cl_G(g) meets (:func:`~commprob.structure._quotient_classes`).
    One g per class of G is tested, with |C_N(g)| counted
    as the bits of C_G(g) & N, both int bit masks."""
    if not is_normal(G, N):
        raise GroupError("gallagher_check requires a normal subgroup")
    classes, images = conjugacy_classes(G), _quotient_classes(G, N)
    k_g, k_q, k_n = len(classes), len(set(images)), subgroup_class_count(G, N)
    n_mask = _mask(bytes(map(N.__contains__, range(G.order))))
    equality = all(
        N.order * len(image) == c.size * (c_mask & n_mask).bit_count()
        for c, image, (_, c_mask) in zip(classes, images, _centralizer_masks(G))
    )
    return GallagherResult(k_g <= k_q * k_n, equality, k_g, k_q, k_n)

