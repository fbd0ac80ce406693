"""Permutation arithmetic and closure of generating sets into finite groups.

Elements are permutations of {0, ..., degree-1} in one-line image form.
Composition reads left to right: ``p * q`` applies ``p`` first, then ``q``.
A :class:`FiniteGroup` is a Cayley graph over element indices in
canonical order (image tuples sorted lexicographically, which for a group
given by rows is index order), its table's rows and columns built on
demand; element indices are deterministic across runs and can be used as
stable element names everywhere else.
"""

from __future__ import annotations

import math
from array import array
from operator import itemgetter
from struct import Struct
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

DEFAULT_ORDER_CAP = 5000
MAX_GROUP_ORDER = 65536  # element indices are stored as 16-bit table entries


class GroupError(ValueError):
    """Invalid group-theoretic input or construction."""


class OrderCapExceeded(GroupError):
    """A closure grew past the configured maximum group order."""


class Permutation:
    """A bijection of {0, ..., degree-1} stored as a tuple of images.

    ``p.images[i]`` is the image of point ``i``.  Instances are immutable
    by convention and hashable.
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        n = len(imgs)
        if n == 0:
            raise GroupError("a permutation needs at least one point")
        seen = [False] * n
        for v in imgs:
            if not isinstance(v, int) or not 0 <= v < n or seen[v]:
                raise GroupError(f"not a bijection of 0..{n - 1}: {imgs!r}")
            seen[v] = True
        self.images = imgs

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> "Permutation":
        """The permutation with these images, known to be a bijection."""
        p = cls.__new__(cls)
        p.images = images
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Apply self first, then other."""
        if self.degree != other.degree:
            raise GroupError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )
        return Permutation._unchecked(tuple(map(other.images.__getitem__, self.images)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)!r})"


class FiniteGroup:
    """A finite group as its Cayley graph, rows and columns built on demand,
    and a memo.

    Row i is ``row(i)[x] == mul(i, x)`` and column g is ``column(g)[x] ==
    mul(x, g)`` (apply the left factor first), each a 16-bit ``array('H')``;
    index 0 is the identity.  What the group keeps is its Cayley graph: the
    identity's row and the generators' rows, handed over by its constructor,
    and, from the first product asked for (:func:`_cayley_graph`), the
    generators' columns, the rows and columns of their inverses, and every
    element's inverse.  Any other row or column is built on first use and
    memoized, by one C-level gather from a neighbour along a breadth-first
    spanning tree of the graph, a Schreier vector (Holt, Eick and O'Brien,
    *Handbook of Computational Group Theory*, 2005, section 4.1): row(k*s) is
    row(k) at the entries of row(s), column(s*k) is column(k) at the entries
    of column(s), for s a generator or its inverse; or, when that takes two
    steps or more, by two gathers from the column (row) of its inverse if
    that is built (:func:`_gathered`).  Callers that read x*g for one g over
    many x take column g.  Orders above :data:`MAX_GROUP_ORDER` do not fit
    16-bit indices and are refused.

    ``FiniteGroup(...)`` is not public; every group is built one way, by
    handing :meth:`_over_table` the identity's and the generators' rows.
    :func:`generate_group` keeps the sorted permutations it closed as
    :attr:`elements`; in the constructors' cyclic, quaternion and semidirect
    groups, given by rows alone, element i is the right regular permutation
    ``a -> a * i`` of degree |G|, column i (:meth:`element`).

    Immutable after construction and safe to share read-only across threads:
    two threads that build a row, a column or the graph at once each build
    their own and publish equal ones, never a part of one.
    Invariants are memoized the same way.
    """

    __slots__ = (
        "degree", "identity_index", "_elements", "_gens",
        "_rows", "_cols", "_graph", "_cache",
    )

    @classmethod
    def _over_table(cls, rows: Sequence, gens: Sequence[int], elements=None) -> "FiniteGroup":
        """The group over ``rows``, unchecked: row 0 the identity's, the rows
        of ``gens`` filled, None where a row comes on first use (the rows are
        kept, the sequence copied); ``gens`` generate the group, or the graph
        is refused.  ``elements`` are the permutations the indices name; by
        default the right regular ones of degree |G|."""
        group = cls.__new__(cls)
        group.identity_index, group._gens = 0, tuple(gens)
        group._elements, group._graph, group._cache = elements, None, {}
        group._rows = list(rows)
        group._cols = [group._rows[0]] + [None] * (len(rows) - 1)  # column 0 is row 0
        group.degree = len(rows) if elements is None else elements[0].degree
        return group

    # -- basic queries ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._rows)

    @property
    def elements(self) -> tuple[Permutation, ...]:
        if self._elements is None:
            self._elements = tuple(map(self.element, range(self.order)))
        return self._elements

    def element(self, i: int) -> Permutation:
        """The permutation index i names, building no other: the closure's,
        or column i, ``a -> a * i``, for a group given by rows."""
        if self._elements is not None:
            return self._elements[i]
        return Permutation(self.column(i))

    def __repr__(self) -> str:
        return f"<FiniteGroup order={self.order} degree={self.degree}>"

    # -- index arithmetic ------------------------------------------------

    def row(self, i: int) -> array:
        """Row i, ``row(i)[x] == mul(i, x)``, built on first use."""
        row = self._rows[i]
        if row is None:
            graph = self._cayley()
            row = _gathered(self._rows, self._cols, i, graph, graph.row_tree)
        return row

    def column(self, g: int) -> array:
        """Column g, ``column(g)[x] == mul(x, g)``, built on first use."""
        col = self._cols[g]
        if col is None:
            graph = self._cayley()
            col = _gathered(self._cols, self._rows, g, graph, graph.col_tree)
        return col

    def mul(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j] (apply i first, then j): read
        off row i or column j if either is built, else walked cell by cell up
        i's branch of the row tree, (k*s)*j = k*(s*j), building nothing:
        searches that read a few cells of many columns, such as
        :func:`~commprob.structure.find_complement`'s, keep no column."""
        rows, cols = self._rows, self._cols
        if rows[i] is None and cols[j] is None:
            graph = self._cayley()
            (parent, via, _), step_rows = graph.row_tree, graph.step_rows
            while rows[i] is None and cols[j] is None:
                i, j = parent[i], step_rows[via[i]][j]
        row = rows[i]
        return row[j] if row is not None else cols[j][i]

    def inv(self, i: int) -> int:
        return self._cayley().inverses[i]

    def generating_indices(self) -> tuple[int, ...]:
        """The generators the group was built from, deterministic for a
        given group: the closure's, repeats dropped, or the constructor's."""
        return self._gens

    def _cayley(self) -> _CayleyGraph:
        """The graph, completed on first use (:func:`_cayley_graph`)."""
        graph = self._graph
        if graph is None:
            graph = self._graph = _cayley_graph(self._rows, self._cols, self._gens)
        return graph


class _Tree(NamedTuple):
    """A spanning tree of the Cayley graph, rooted at the identity:
    ``parent[x]`` and ``via[x]``, the step that leads from it to x, and per
    step the gather that takes the parent's row (or column) to x's."""

    parent: list[int]
    via: list[int]
    takes: list[Callable]


class _CayleyGraph(NamedTuple):
    """Every element's inverse and the gather at them, the trees that build
    rows and columns, the steps' rows, indexed as the trees' ``via``, and the
    packer of a gathered tuple."""

    inverses: tuple[int, ...]
    at_inverses: Callable
    row_tree: _Tree
    col_tree: _Tree
    step_rows: list[array]
    pack: Callable


def _cayley_graph(rows: list, cols: list, gens: Sequence[int]) -> _CayleyGraph:
    """Complete a group's Cayley graph from the identity's (index 0) and the
    generators' rows, over the steps s: the generators and their inverses,
    whose rows are the inverse permutations of the generators'.  One
    breadth-first walk from the identity along k -> t*k for the steps t
    spans the graph by a tree (generators it does not span are refused);
    each step's column is filled along it as (t*k)*s = t*(k*s), then the
    inverses as (t*k)^-1 = k^-1*t^-1, so the closure records rows alone.
    Rows and columns are written into ``rows`` and ``cols``.  Every edge is
    then checked at once, (x*s)^-1 == s^-1*x^-1 for all x and s: two words
    for one element with different inverses refute associativity.

    The column tree builds column(s*k) from column(k) along k -> s*k; the
    row tree is the same tree seen through inversion (x = k*s where x^-1 =
    s^-1*k^-1) and builds row(k*s) from row(k)."""
    n = len(rows)
    inverse_of: dict[int, int] = {}  # step -> its inverse, in order of the generators
    for g in dict.fromkeys(gens):
        if g != 0:
            row_inv = [0] * n
            for z, y in enumerate(rows[g]):
                row_inv[y] = z
            inverse_of[g], inverse_of[row_inv[0]] = row_inv[0], g  # g * row_inv[0] == 0
            if rows[row_inv[0]] is None:
                rows[row_inv[0]] = array("H", row_inv)
    steps = list(inverse_of)
    step_rows = [rows[s] for s in steps]
    parent, via, walk = [-1] * n, [0] * n, [0]
    parent[0] = 0
    step_cols = [[s] * n for s in steps]
    for k in walk:  # also visits what the loop appends
        for i, row in enumerate(step_rows):
            x = row[k]  # x = t*k for the step t
            if parent[x] < 0:
                parent[x], via[x] = k, i
                walk.append(x)
                for col in step_cols:  # (t*k)*s = t*(k*s)
                    col[x] = row[col[k]]
    if len(walk) < n:
        raise GroupError(f"the generators do not generate the group: {len(walk)} of {n}")
    inverse_step = [steps.index(inverse_of[s]) for s in steps]
    step_cols_inv, inverses = [step_cols[i] for i in inverse_step], [0] * n
    for x in walk[1:]:
        inverses[x] = step_cols_inv[via[x]][inverses[parent[x]]]
    at_ints = tuple(range(n)).__getitem__  # one int object per index, shared by the gathers
    at_inverses = itemgetter(*map(at_ints, inverses))
    for s, col, i in zip(steps, step_cols, inverse_step):
        if itemgetter(*col)(inverses) != at_inverses(step_rows[i]):
            raise GroupError("not a group table: inverses disagree along two words")
        cols[s] = array("H", col)
    row_parent = list(map(inverses.__getitem__, map(parent.__getitem__, inverses)))
    at_step = (inverse_step or [0]).__getitem__  # C1 has no steps, and via[0] is unread
    row_via = list(map(at_step, map(via.__getitem__, inverses)))
    return _CayleyGraph(
        tuple(inverses),
        at_inverses,
        _Tree(row_parent, row_via, [itemgetter(*map(at_ints, row)) for row in step_rows]),
        _Tree(parent, via, [itemgetter(*map(at_ints, cols[s])) for s in steps]),
        step_rows,
        Struct(f"{n}H").pack,  # native 16-bit, as array("H") stores
    )


def _gathered(memo: list, dual: list, i: int, graph: _CayleyGraph, tree: _Tree) -> array:
    """``memo[i]``, where ``memo`` holds the rows built so far, ``dual`` the
    columns and ``tree`` is the row tree of ``graph``, or the other way
    round.  Walked from i's nearest built ancestor in the tree, it takes one
    gather per step down and keeps each step.  When that is two steps or
    more and ``dual[i^-1]`` is built, two gathers from it give ``memo[i]``
    alone, as x*y = (y^-1*x^-1)^-1 and y*x = (x^-1*y^-1)^-1: no more
    gathers, and on deep trees, such as D5000's (about 1,250 steps), far
    fewer rows and columns kept.  The steps pass tuples, which gather about
    twice as fast as arrays; each is packed to bytes by one ``Struct``,
    several times cheaper than ``array`` converting a tuple."""
    parent, via, takes = tree
    path = [i]
    x = parent[i]
    while memo[x] is None:
        path.append(x)
        x = parent[x]
    other = dual[graph.inverses[i]]
    if len(path) > 1 and other is not None:
        cells = graph.at_inverses(itemgetter(*other)(graph.inverses))
        memo[i] = array("H", graph.pack(*cells))
        return memo[i]
    cells = memo[x]
    for x in reversed(path):
        cells = takes[via[x]](cells)
        memo[x] = array("H", graph.pack(*cells))
    return memo[i]


def _extend_map(
    cols: Sequence[Sequence[int]], size: int, images: Sequence, mul: Callable, start
) -> tuple[list | None, tuple[int, int] | None]:
    """Extend ``g_i -> images[i]`` to a map on 0..size-1 by one walk from the
    identity 0 along the generators' columns, ``cols[i][x] == x*g_i``:
    ``phi(0) = start``, ``phi(x*g_i) = mul(phi(x), images[i])``, e.g. a
    homomorphism or an action.  Checking every edge x -> x*g_i forces the
    rule on all of <g_i>.  Returns ``(phi, None)``, phi -1 where the walk does
    not reach, or ``(None, (x, i))`` at the first edge where two paths
    disagree (such as a generator listed twice with different images)."""
    phi: list = [-1] * size
    phi[0] = start
    steps = list(zip(range(len(cols)), cols, images))
    walk = [0]
    for x in walk:  # also visits what the loop appends
        phi_x = phi[x]
        for i, col, image in steps:
            y, phi_y = col[x], mul(phi_x, image)
            if phi[y] == -1:
                phi[y] = phi_y
                walk.append(y)
            elif phi[y] != phi_y:
                return None, (x, i)
    return phi, None


def _generator_maps(
    cols: Sequence[Sequence[int]], size: int, candidates: Sequence[Sequence[int]],
    mul: Callable[[int, int], int], dst_e: int,
) -> Iterator[list[int]]:
    """Each injective homomorphism from <g_i>, in a group on 0..size-1, into
    the group with product ``mul`` and identity ``dst_e``, with g_i, whose
    column is ``cols[i]``, sent into ``candidates[i]``, depth first in the
    given order: a prefix of images is extended by one :func:`_extend_map`
    walk and dropped on a clash or a repeated image; -1 outside <g_i>."""

    def search(images: list[int]) -> Iterator[list[int]]:
        phi, clash = _extend_map(cols[: len(images)], size, images, mul, dst_e)
        if clash is not None:
            return
        defined = [v for v in phi if v >= 0]
        if len(defined) != len(set(defined)):
            return
        if len(images) == len(cols):
            yield phi
            return
        for cand in candidates[len(images)]:
            yield from search([*images, cand])

    return search([])


def _section_steps(G: FiniteGroup, of: Sequence, reps: Sequence, elements) -> list[list[int]]:
    """The columns of the elements of G in a section of G, walk steps for
    :func:`_generator_maps`: element i of the section has the representative
    reps[i] and ``of[x]`` is the element that x lies in, so i times g is
    of[column(g)[reps[i]]]; for cosets, Mr*g = M(rg)."""
    return [[of[col[r]] for r in reps] for col in map(G.column, elements)]


def generate_group(
    degree: int,
    generators: Sequence[Permutation],
    max_order: int = DEFAULT_ORDER_CAP,
) -> FiniteGroup:
    """The group generated by the permutations (repeats dropped, order kept).

    A breadth-first closure from the identity by left multiplication, over
    image tuples: a :class:`Permutation` is made once per element,
    unchecked, since products of bijections are bijections.  The walk meets
    g * p for every generator g and every element p, so it records each
    generator's row of the Cayley table as it goes.  The image tuples are
    sorted once into canonical order (the identity first), and those rows
    are relabelled to it; every other row and column comes on first use.

    Raises :class:`OrderCapExceeded` (naming the cap) when the group is
    larger than ``max_order`` or :data:`MAX_GROUP_ORDER`: before any element
    is built if :func:`_order_divisor` exceeds the cap, else as soon as the
    closure grows past it.  Raises :class:`GroupError` on degree mismatch.
    """
    if degree < 1:
        raise GroupError("degree must be a positive integer")
    for g in generators:
        if g.degree != degree:
            raise GroupError(
                f"generator degree {g.degree} does not match group degree {degree}"
            )
    cap = min(max_order, MAX_GROUP_ORDER)
    gens = [g.images for g in dict.fromkeys(generators)]
    if _order_divisor(degree, gens) > cap:
        raise OrderCapExceeded(f"group closure exceeded the order cap of {cap}")
    walk = [tuple(range(degree))]
    pos = {walk[0]: 0}
    cols: list[list[int]] = [[] for _ in gens]  # cols[i][k]: position of gens[i] * walk[k]
    for p in walk:  # also visits what the loop appends
        take_p = p.__getitem__
        for g, col in zip(gens, cols):
            q = tuple(map(take_p, g))  # g first, then p
            k = pos.get(q)
            if k is None:
                if len(walk) >= cap:
                    raise OrderCapExceeded(f"group closure exceeded the order cap of {cap}")
                k = pos[q] = len(walk)
                walk.append(q)
            col.append(k)
    canonical = sorted(range(len(walk)), key=walk.__getitem__)  # index -> walk position
    rank = [0] * len(walk)  # walk position -> index
    for i, k in enumerate(canonical):
        rank[k] = i
    rows: list = [None] * len(walk)
    rows[0] = array("H", range(len(walk)))
    for g, col in zip(gens, cols):
        rows[rank[pos[g]]] = array("H", [rank[col[k]] for k in canonical])
    elements = tuple(Permutation._unchecked(walk[k]) for k in canonical)
    return FiniteGroup._over_table(rows, [rank[pos[g]] for g in gens], elements=elements)


def _order_divisor(degree: int, gens: Sequence[tuple[int, ...]]) -> int:
    """A divisor of the order of the group the image tuples generate, found
    without building it: the lcm of its orbit lengths on the points (each an
    index of a point stabilizer) and of the generators' orders (each the lcm
    of its cycle lengths, the orbit lengths of the generator alone)."""
    return math.lcm(*(
        len(orbit) for maps in (gens, *([g] for g in gens))
        for orbit in _orbits(range(degree), maps, degree)))


def _grow(points: Iterable[int], maps: Sequence[Sequence[int]], seen: bytearray) -> list[int]:
    """The orbit of the points not yet ``seen`` under the index maps (rows,
    columns, conjugation maps, image tuples), x -> m[x], grown breadth first
    and marked in ``seen`` (Holt, Eick and O'Brien, 2005, section 4.1)."""
    orbit = []
    for x in points:
        if not seen[x]:
            seen[x] = 1
            orbit.append(x)
    for x in orbit:  # also visits what the loop appends
        for m in maps:
            y = m[x]
            if not seen[y]:
                seen[y] = 1
                orbit.append(y)
    return orbit


def _orbits(domain: Iterable[int], maps: Sequence[Sequence[int]], size: int) -> list[list[int]]:
    """The orbits of the maps on 0..size-1 that meet ``domain``, each grown
    by :func:`_grow` from its first point in ``domain``, in that order."""
    seen = bytearray(size)
    return [_grow((x,), maps, seen) for x in domain if not seen[x]]


def _powers(G: FiniteGroup, x: int) -> list[int]:
    """x, x^2, ..., up to and including the identity, walked along column x;
    as many as the order of x."""
    col, powers = G.column(x), [x]
    while powers[-1] != G.identity_index:
        powers.append(col[powers[-1]])
    return powers


def _check_index(G: FiniteGroup, x: int) -> None:
    if not 0 <= x < G.order:
        raise IndexError(f"element index {x} out of range for group of order {G.order}")


def element_order(G: FiniteGroup, x: int) -> int:
    """Least m >= 1 with x^m equal to the identity (:func:`_powers`)."""
    _check_index(G, x)
    return len(_powers(G, x))
