"""Subgroup-level structure of finite permutation groups.

Centers, conjugacy classes, derived and normal structure, quotients,
complements, and one chief series with the solvable / nilpotent /
supersolvable classifiers read off it.  Everything operates on element
indices of an immutable :class:`~commprob.perm.FiniteGroup`; results are
memoized on the group.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, isqrt
from operator import eq, itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .perm import (
    FiniteGroup, GroupError, _check_index, _generator_maps, _grow, _orbits, _powers, _section_steps,
)


class NotNormal(GroupError):
    """The given subgroup is not normal in its parent."""


class Subgroup:
    """A subset of a parent group's element indices closed under its
    multiplication.  Compared by parent and member indices, hashed by member
    indices."""

    __slots__ = ("parent", "member_indices", "_mset")

    def __init__(self, parent: FiniteGroup, member_indices: Iterable[int]):
        self.parent = parent
        self.member_indices: tuple[int, ...] = tuple(sorted(set(member_indices)))
        self._mset: frozenset | None = None

    @property
    def order(self) -> int:
        return len(self.member_indices)

    def __contains__(self, idx: int) -> bool:
        if self._mset is None:
            self._mset = frozenset(self.member_indices)
        return idx in self._mset

    def is_trivial(self) -> bool:
        return self.order == 1

    def is_whole(self) -> bool:
        return self.order == self.parent.order

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.member_indices == other.member_indices
        )

    def __hash__(self) -> int:
        return hash(self.member_indices)

    def __repr__(self) -> str:
        return f"<Subgroup order={self.order} of group order {self.parent.order}>"


class ConjugacyClass:
    """Conjugation orbit; the representative is the lowest member index."""

    __slots__ = ("representative", "members")

    def __init__(self, members: Iterable[int]):
        self.members: tuple[int, ...] = tuple(sorted(members))
        self.representative: int = self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"<ConjugacyClass rep={self.representative} size={self.size}>"


def _cached(G: FiniteGroup, key, compute):
    cache = G._cache
    if key not in cache:
        cache[key] = compute()
    return cache[key]


# -- subgroup generation -----------------------------------------------------


def _closure(G: FiniteGroup, seeds: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Members (ascending) and greedy generators of the subgroup generated by
    the seeds, in order; a seed inside the closure so far is skipped.  A new
    generator's coset of the members is grown (:func:`~commprob.perm._grow`)
    under every generator's column."""
    seen, gens, cols = bytearray(G.order), [], []
    members = _grow((G.identity_index,), cols, seen)
    for s in seeds:
        if not seen[s]:
            gens.append(s)
            cols.append(col_s := G.column(s))
            members += _grow(map(col_s.__getitem__, members), cols, seen)
    return tuple(sorted(members)), tuple(gens)


def subgroup_generated(G: FiniteGroup, seeds: Iterable[int]) -> Subgroup:
    """Smallest subgroup of G containing the seed element indices."""
    seeds = list(seeds)
    for s in seeds:
        _check_index(G, s)
    return Subgroup(G, _closure(G, seeds)[0])


def subgroup_gens(G: FiniteGroup, H: Subgroup) -> tuple[int, ...]:
    """Greedy minimal generating sequence of a subgroup, in index order: each
    member not in the subgroup generated by those before it.  Found in one
    closure over H's members in G's table and memoized on G."""
    return _cached(G, ("gens", H.member_indices), lambda: _closure(G, H.member_indices)[1])


# -- centers and classes -----------------------------------------------------


def _commuting(G: FiniteGroup, g: int) -> bytes:
    """Whether x commutes with g, as 1 or 0 at each x: row g against column
    g, in one C-level pass."""
    return bytes(map(eq, G.row(g), G.column(g)))


def _central_mod(G: FiniteGroup, of: Sequence[int]) -> Subgroup:
    """{g : [g, x] in K for every generator x}, K the normal subgroup whose
    right-coset ids are ``of``: the preimage of the center of G/K.  gK and
    xK commute iff Kgx = Kxg, so column x is compared with row x, both read
    through ``of``, in one C-level pass per generator but the identity (on
    C1 a one-index gather gives no tuple)."""
    gens = [x for x in G.generating_indices() if x != G.identity_index]
    flags = zip(*(map(eq, itemgetter(*G.column(x))(of), itemgetter(*G.row(x))(of)) for x in gens))
    return Subgroup(G, compress(range(G.order), map(all, flags)) if gens else range(G.order))


def center(G: FiniteGroup) -> Subgroup:
    """Elements commuting with everything: :func:`_central_mod` for K = 1."""
    return _cached(G, "center", lambda: _central_mod(G, range(G.order)))


def _commute(G: FiniteGroup, gens: Sequence[int]) -> bool:
    """Whether the elements commute, ab = ba read off columns b and a."""
    cols = list(zip(gens, map(G.column, gens)))
    return all(col_b[a] == col_a[b] for a, col_a in cols for b, col_b in cols)


def is_abelian(G: FiniteGroup) -> bool:
    return _cached(G, "abelian", lambda: _commute(G, G.generating_indices()))


def subgroup_is_abelian(G: FiniteGroup, H: Subgroup) -> bool:
    """Whether H is abelian: its generators commute, in G's table."""
    return _commute(G, subgroup_gens(G, H))


def _conjugations(G: FiniteGroup, conjugators: Sequence[int] | None = None) -> list:
    """The conjugation maps x -> g^-1 x g, column g gathered at row g^-1, for
    each conjugator g but the identity (on C1 a one-index gather gives no
    tuple); by default G's generators', memoized."""
    if conjugators is None:
        return _cached(G, "conjugations", lambda: _conjugations(G, G.generating_indices()))
    return [itemgetter(*G.row(G.inv(g)))(G.column(g)) for g in conjugators if g != G.identity_index]


def conjugacy_classes(G: FiniteGroup) -> list[ConjugacyClass]:
    """Partition of all indices into conjugation orbits, ordered by lowest
    representative.  Orbits are grown by conjugating with generators only."""

    def compute():
        return [ConjugacyClass(o) for o in _orbits(range(G.order), _conjugations(G), G.order)]

    return _cached(G, "classes", compute)


def subgroup_class_count(G: FiniteGroup, H: Subgroup) -> int:
    """k(H), the number of conjugacy classes of H: its orbits under
    conjugation by its own generators, in G's table.  Memoized on G."""
    if H.is_whole():
        return len(conjugacy_classes(G))
    key, gens = ("class_count", H.member_indices), subgroup_gens(G, H)
    return _cached(G, key, lambda: len(_orbits(H.member_indices, _conjugations(G, gens), G.order)))


# -- normality and the normal subgroup lattice --------------------------------


def is_normal(G: FiniteGroup, H: Subgroup) -> bool:
    """True iff gHg^-1 = H for all g (tested on generators of both sides); memoized."""
    if H.parent is not G:
        raise GroupError("subgroup does not belong to this group")

    def compute():
        return all(m[h] in H for h in subgroup_gens(G, H) for m in _conjugations(G))

    return _cached(G, ("normal", H.member_indices), compute)


def normal_closure(G: FiniteGroup, seeds: Iterable[int]) -> Subgroup:
    """Smallest normal subgroup of G containing the seeds: the orbit of the
    identity under the seeds' columns and the generators' conjugation maps
    (:func:`_conjugations`), one :func:`~commprob.perm._grow`.  The orbit
    lies in the normal closure and is closed under x -> x*s and x -> x^g, so
    under right multiplication by every conjugate s^h of a seed, as x*s^h =
    (x^(h^-1)*s)^h, and it holds the identity."""
    maps = [*map(G.column, set(seeds)), *_conjugations(G)]
    return Subgroup(G, _grow((G.identity_index,), maps, bytearray(G.order)))


def _atoms(G: FiniteGroup) -> dict[tuple[int, ...], int]:
    """{members: r} for the atoms, the normal closures <r^G> of one conjugacy
    class each (:func:`normal_closure`; for a central r, r's powers walked
    along column r, :func:`~commprob.perm._powers`), r the representative of
    the first class with that closure; memoized.  A normal subgroup contains
    the atom iff it contains r.  A generator x^k of <x> (k prime to the
    order of x) has the same atom as x, so after each atom the classes of
    r's generating powers are skipped: one walk per cyclic subgroup."""

    def compute():
        atoms, done = {}, bytearray(G.order)
        for c in conjugacy_classes(G):
            if not any(map(done.__getitem__, c.members)):
                r = c.representative
                powers = _powers(G, r)
                members = normal_closure(G, [r]).member_indices if c.size > 1 else sorted(powers)
                atoms.setdefault(tuple(members), r)
                for k, y in enumerate(powers, 1):
                    if gcd(k, len(powers)) == 1:
                        done[y] = 1
        return atoms

    return _cached(G, "atoms", compute)


def _joins(G: FiniteGroup, a: Sequence[int]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(r, AB) for each atom B (:func:`_atoms`, r its representative) not
    inside the normal subgroup A with members a.  The join of normal A and B
    is the product set AB, grown as a union of right cosets A y, one for
    each y in B not yet covered, read by :func:`_right_coset`."""
    inside, coset = set(a), _right_coset(G, a)
    for b, r in _atoms(G).items():
        if r not in inside:
            covered = set(inside)
            for y in b:
                if y not in covered:
                    covered.update(coset(y))
            yield r, tuple(sorted(covered))


def normal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """All normal subgroups, sorted by order then member set.  Each is a join
    of atoms, so they are walked from the trivial subgroup by joining one
    atom at a time (:func:`_joins`).
    No standalone group is built per N: :func:`subgroup_gens`,
    :func:`subgroup_class_count` and :func:`subgroup_is_abelian` work in G's table."""

    def compute():
        found = {(G.identity_index,)}
        walk = list(found)
        for a in walk:  # also visits what the loop appends
            for _, joined in _joins(G, a):
                if joined not in found:
                    found.add(joined)
                    walk.append(joined)
        return [Subgroup(G, m) for m in sorted(found, key=lambda m: (len(m), m))]

    return _cached(G, "normal_subgroups", compute)


# -- quotients read in G's table ----------------------------------------------


def _coset_data(G: FiniteGroup, N: Subgroup) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Right-coset ids of the normal subgroup N, numbered in order of their
    lowest members, and those members: G/N read in G's own table, memoized
    per N; each coset N i is read by :func:`_right_coset`.  Raises
    :class:`NotNormal` otherwise."""
    if not is_normal(G, N):
        raise NotNormal("quotients require a normal subgroup")

    def compute():
        coset, coset_of, reps = _right_coset(G, N.member_indices), [-1] * G.order, []
        for i in range(G.order):
            if coset_of[i] < 0:
                k = len(reps)
                for x in coset(i):
                    coset_of[x] = k
                reps.append(i)
        return tuple(coset_of), tuple(reps)

    return _cached(G, ("cosets", N.member_indices), compute)


def _right_coset(G: FiniteGroup, members: Sequence[int]) -> Callable[[int], Iterable[int]]:
    """The map y -> the members times y, for a subgroup's members: read off
    the members' rows when they are few (|members|^2 <= |G|), else off
    column y, so that at most about sqrt(|G|) rows are built, or one column
    per coset."""
    if len(members) ** 2 <= G.order:
        rows = [G.row(m) for m in members]
        return lambda y: map(itemgetter(y), rows)
    take = itemgetter(*members)  # two members or more, so a tuple
    return lambda y: take(G.column(y))


def _quotient_classes(G: FiniteGroup, N: Subgroup) -> list[frozenset[int]]:
    """The conjugacy classes of G/N, one per class of G, in order: the set of
    N's cosets (:func:`_coset_data`) that the class of G meets.  Two classes
    of G meet the same cosets or disjoint ones."""
    coset_of = _coset_data(G, N)[0]
    return [frozenset([coset_of[x] for x in c.members]) for c in conjugacy_classes(G)]


# -- commutator structure ------------------------------------------------------


def commutator(G: FiniteGroup, a: int, b: int) -> int:
    """Index of [a, b] = a^-1 b^-1 a b."""
    return G.mul(G.mul(G.inv(a), G.inv(b)), G.mul(a, b))


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    """Subgroup generated by all commutators: the normal closure of the
    commutators of G's generators."""

    def compute():
        gens = G.generating_indices()
        return normal_closure(G, {commutator(G, a, b) for a in gens for b in gens})

    return _cached(G, "derived", compute)


# -- the chief series and the classifiers ---------------------------------------


def _chief_factors(G: FiniteGroup) -> list[tuple[int, bool]]:
    """(order, central) for each factor M/C of one chief series of G, from
    the bottom; memoized.  From C = 1, the next term M is a join CB over an
    atom B (:func:`_joins`) minimal normal over C: the first of prime index
    over C, which leaves no room for a subgroup in between, or else the
    smallest, as every normal subgroup properly over C contains such a
    join.  M/C is generated by the image of B's representative r, so it is
    central in G/C iff [r, g] lies in C for each generator g.  By
    Jordan-Hoelder for operator groups, all chief series have the same
    factors."""

    def next_term(c: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        joins = []
        for r, m in _joins(G, c):
            if _prime_power(index := len(m) // len(c)) == index:
                return r, m
            joins.append((r, m))
        return min(joins, key=lambda join: len(join[1]))

    def compute():
        factors, c, gens = [], (G.identity_index,), G.generating_indices()
        while len(c) < G.order:
            r, m = next_term(c)
            inside = set(c)
            factors.append((len(m) // len(c), all(commutator(G, r, g) in inside for g in gens)))
            c = m
        return factors

    return _cached(G, "chief_factors", compute)


def _prime_power(n: int) -> int:
    """For n > 1: the prime p if n is a power of p, else 0."""
    p = next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)
    while n % p == 0:
        n //= p
    return p if n == 1 else 0


def is_solvable(G: FiniteGroup) -> bool:
    """Every chief factor is abelian, that is of prime-power order: a
    nonabelian one is a power of a nonabelian simple group, whose order has
    three prime divisors or more (Burnside's p^a q^b theorem)."""
    return all(_prime_power(order) for order, _ in _chief_factors(G))


def is_nilpotent(G: FiniteGroup) -> bool:
    """Every chief factor is central: then the chief series is a central
    series.  Conversely each factor M/C is minimal normal in G/C, and in a
    nilpotent group every minimal normal subgroup is central."""
    return all(central for _, central in _chief_factors(G))


def is_supersolvable(G: FiniteGroup) -> bool:
    """Every chief factor has prime order (Huppert, *Endliche Gruppen I*,
    VI.9)."""
    return all(_prime_power(order) == order for order, _ in _chief_factors(G))


# -- complements ---------------------------------------------------------------


def find_complement(G: FiniteGroup, N: Subgroup) -> Subgroup | None:
    """A subgroup H with H meet N = 1 and |H| * |N| = |G|, if one exists.

    It is the image of a homomorphic section s: G/N -> G, pi(s(q)) = q
    (Holt, Eick and O'Brien, *Handbook of Computational Group Theory*,
    2005): the first map of :func:`~commprob.perm._generator_maps`, the
    search that finds isomorphisms, from N's right cosets, walked along the
    lifted generators' columns as Nr * g = N(rg)
    (:func:`~commprob.perm._section_steps`), to their members in index
    order.  Only G's generators outside the span of N and those before them
    are lifted; the lift of any other is forced.  Memoized per N.
    """
    if not is_normal(G, N):
        raise NotNormal("complements are searched for normal subgroups only")
    if N.is_trivial() or N.is_whole():
        raise GroupError("find_complement requires a nontrivial proper subgroup")

    def compute():
        coset_of, reps = _coset_data(G, N)
        seeds = [*subgroup_gens(G, N), *G.generating_indices()]
        lifts = [g for g in _closure(G, seeds)[1] if g not in N]
        sections = _generator_maps(
            _section_steps(G, coset_of, reps, lifts), len(reps),
            [sorted([G.column(g)[m] for m in N.member_indices]) for g in lifts],
            G.mul, G.identity_index,
        )
        return next((Subgroup(G, section) for section in sections), None)

    return _cached(G, ("complement", N.member_indices), compute)
