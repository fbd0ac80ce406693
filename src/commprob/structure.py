"""Subgroup-level structure of finite permutation groups.

Centers, conjugacy classes, derived and normal structure,
quotients, complements, and the solvable / nilpotent / supersolvable
classifiers.  Everything operates on element indices of an immutable
:class:`~commprob.perm.FiniteGroup`; results are memoized on the group.
"""

from __future__ import annotations

from itertools import compress
from operator import eq, itemgetter
from typing import Callable, Iterable, Sequence

from .perm import FiniteGroup, GroupError, _generator_maps, _grow, _orbits, _section_steps


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


def _check_index(G: FiniteGroup, x: int) -> None:
    if not 0 <= x < G.order:
        raise IndexError(f"element index {x} out of range for group of order {G.order}")


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


def center(G: FiniteGroup) -> Subgroup:
    """Elements commuting with everything (it suffices to test generators)."""

    def compute():
        flags = [_commuting(G, g) for g in G.generating_indices()]
        members = compress(range(G.order), map(all, zip(*flags))) if flags else range(G.order)
        return Subgroup(G, members)

    return _cached(G, "center", compute)


def _commute(G: FiniteGroup, gens: Sequence[int]) -> bool:
    """Whether the elements commute, ab = ba read off columns b and a."""
    cols = list(zip(gens, map(G.column, gens)))
    return all(col_b[a] == col_a[b] for a, col_a in cols for b, col_b in cols)


def is_abelian(G: FiniteGroup) -> bool:
    return _cached(G, "abelian", lambda: _commute(G, G.generating_indices()))


def subgroup_is_abelian(G: FiniteGroup, H: Subgroup) -> bool:
    """Whether H is abelian: its generators commute, in G's table."""
    return _commute(G, subgroup_gens(G, H))


def _class_orbits(G: FiniteGroup, domain: Iterable[int], conjugators: Sequence[int]) -> list:
    """The orbits of ``domain`` under conjugation, x -> g^-1 x g: column g
    gathered at row g^-1 for each conjugator g but the identity (on C1 a
    one-index gather gives no tuple)."""
    maps = [itemgetter(*G.row(G.inv(g)))(G.column(g)) for g in conjugators if g != G.identity_index]
    return _orbits(domain, maps, G.order)


def conjugacy_classes(G: FiniteGroup) -> list[ConjugacyClass]:
    """Partition of all indices into conjugation orbits, ordered by lowest
    representative.  Orbits are grown by conjugating with generators only."""

    def compute():
        return [ConjugacyClass(o) for o in _class_orbits(G, range(G.order), G.generating_indices())]

    return _cached(G, "classes", compute)


def subgroup_class_count(G: FiniteGroup, H: Subgroup) -> int:
    """k(H), the number of conjugacy classes of H: its orbits under
    conjugation by its own generators, in G's table.  Memoized on G."""
    if H.is_whole():
        return len(conjugacy_classes(G))
    key = ("class_count", H.member_indices)
    return _cached(G, key, lambda: len(_class_orbits(G, H.member_indices, subgroup_gens(G, H))))


def class_size_map(G: FiniteGroup) -> tuple[int, ...]:
    """Size of the conjugacy class of each element, indexed by element."""

    def compute():
        sizes = [0] * G.order
        for c in conjugacy_classes(G):
            for m in c.members:
                sizes[m] = c.size
        return tuple(sizes)

    return _cached(G, "class_sizes", compute)


# -- normality and the normal subgroup lattice --------------------------------


def is_normal(G: FiniteGroup, H: Subgroup) -> bool:
    """True iff gHg^-1 = H for all g (tested on generators of both sides); memoized."""
    if H.parent is not G:
        raise GroupError("subgroup does not belong to this group")

    def compute():
        gens = G.generating_indices()
        return all(G.conjugate(h, g) in H for h in subgroup_gens(G, H) for g in gens)

    return _cached(G, ("normal", H.member_indices), compute)


def normal_closure(G: FiniteGroup, seeds: Iterable[int]) -> Subgroup:
    """Smallest normal subgroup of G containing the seeds: the subgroup
    generated by the seeds' orbits under conjugation by G's generators."""
    orbits = _class_orbits(G, seeds, G.generating_indices())
    return Subgroup(G, _closure(G, [x for o in orbits for x in o])[0])


def normal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """All normal subgroups, sorted by order then member set.  Each is a join
    of atoms (the subgroups generated by single conjugacy classes), and the
    join of normal A and B is the product set AB, so the atoms are closed
    under joining with one atom at a time.  AB is grown as a union of right
    cosets A y, one for each y in B not yet covered, read by
    :func:`_right_coset`.
    No standalone group is built per N: :func:`subgroup_gens`,
    :func:`subgroup_class_count` and :func:`subgroup_is_abelian` work in G's table."""

    def compute():
        atoms = {(G.identity_index,)}
        atoms.update(_closure(G, c.members)[0] for c in conjugacy_classes(G))
        atoms = [b for b in atoms if len(b) < G.order]
        found = set(atoms) | {tuple(range(G.order))}
        walk = list(atoms)
        for a in walk:  # also visits what the loop appends
            coset = _right_coset(G, a)
            for b in atoms:
                covered = set(a)
                for y in b:
                    if y not in covered:
                        covered.update(coset(y))
                if (joined := tuple(sorted(covered))) not in found:
                    found.add(joined)
                    if len(joined) < G.order:
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


def _commutator_closure(G: FiniteGroup, a_gens: Sequence[int], b_gens: Sequence[int]) -> Subgroup:
    """[A, B] for A, B normal in G with the given generators: the normal
    closure of the commutators [a, b] of their generators.  Every term of
    the derived and lower central series is normal in G, so each next term
    is found this way inside G (the derived subgroup H' of such a term H is
    normal in G and contains the normal closure, which contains H')."""
    return normal_closure(G, {commutator(G, a, b) for a in a_gens for b in b_gens})


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    """Subgroup generated by all commutators."""

    def compute():
        gens = G.generating_indices()
        return _commutator_closure(G, gens, gens)

    return _cached(G, "derived", compute)


def _series(G: FiniteGroup, step: Callable[[Subgroup], Subgroup]) -> list[Subgroup]:
    """G = S0 >= S1 >= ... with S(i+1) = step(Si), until a term is trivial
    or repeats the one before it."""
    series = [Subgroup(G, range(G.order))]
    while not series[-1].is_trivial():
        nxt = step(series[-1])
        if nxt.member_indices == series[-1].member_indices:
            break
        series.append(nxt)
    return series


def derived_series(G: FiniteGroup) -> list[Subgroup]:
    """G >= G' >= G'' >= ... until the series stabilizes; each term's derived
    subgroup is computed inside G, from that term's generators."""

    def step(H: Subgroup) -> Subgroup:
        if H.is_whole():
            return derived_subgroup(G)
        hg = subgroup_gens(G, H)
        return _commutator_closure(G, hg, hg)

    return _series(G, step)


def is_solvable(G: FiniteGroup) -> bool:
    return derived_series(G)[-1].is_trivial()


def lower_central_series(G: FiniteGroup) -> list[Subgroup]:
    """G >= [G,G] >= [G,[G,G]] >= ... until the series stabilizes."""
    gens = G.generating_indices()
    return _series(G, lambda K: _commutator_closure(G, gens, subgroup_gens(G, K)))


def is_nilpotent(G: FiniteGroup) -> bool:
    return lower_central_series(G)[-1].is_trivial()


# -- supersolvability ----------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def is_supersolvable(G: FiniteGroup) -> bool:
    """True iff some chain 1 = N0 < N1 < ... < Nk = G of normal subgroups of
    G has every index [N(i+1) : N(i)] prime (Huppert, *Endliche Gruppen I*,
    VI.9).  Every maximal such chain is a chief series, and by Jordan-Hoelder
    for operator groups all chief series have the same factors, so one chain
    decides: walking :func:`normal_subgroups` downwards from G, the first
    subgroup properly inside the current term is a largest normal subgroup
    under it and becomes the next term."""

    def compute():
        lattice = normal_subgroups(G)
        current = lattice[-1]
        for M in reversed(lattice):
            if M.order < current.order and all(x in current for x in M.member_indices):
                if not _is_prime(current.order // M.order):
                    return False
                current = M
        return True

    return _cached(G, "supersolvable", compute)


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
