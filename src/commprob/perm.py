"""Permutation arithmetic and closure of generating sets into finite groups.

Elements are permutations of {0, ..., degree-1} in one-line image form.
Composition reads left to right: ``p * q`` applies ``p`` first, then ``q``.
A :class:`FiniteGroup` is a Cayley table over element indices in
canonical order (image tuples sorted lexicographically, which for a group
given by rows is index order), so element indices are deterministic across
runs and can be used as stable element names everywhere else.
"""

from __future__ import annotations

import math
from array import array
from operator import itemgetter
from struct import Struct
from typing import Callable, Iterable, Iterator, Sequence

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
    """A finite group as rows, generators and a memo.

    The rows are its Cayley table, one 16-bit ``array('H')`` per element:
    ``rows[i][j]`` is the index of i times j (apply i first, then j), and
    index 0 is the identity.  That takes 2 * |G|^2 bytes, about 1 MB for S6
    and 50 MB at the default order cap of 5000; orders above
    :data:`MAX_GROUP_ORDER` do not fit 16-bit indices and are refused.

    ``FiniteGroup(...)`` is not public; every group is built one way, by
    handing :meth:`_over_table` the identity's and the generators' rows, and
    the table and inverses come on first use (:meth:`multiplication_table`).
    :func:`generate_group` keeps the sorted permutations it closed as
    :attr:`elements`; in the constructors' cyclic, quaternion and semidirect
    groups, given by rows alone, element i is the right regular permutation
    ``a -> a * i`` of degree |G|, column i of the table (:meth:`element`).

    Immutable after construction and safe to share read-only across threads:
    two threads that both use it first may each fill a copy of the rows, but
    they publish identical tables.  Invariants are memoized the same way.
    """

    __slots__ = (
        "degree", "identity_index", "_elements", "_index", "_gens", "_rows", "_table", "_cache",
    )

    @classmethod
    def _over_table(cls, rows: Sequence, gens: Sequence[int], elements=None) -> "FiniteGroup":
        """The group over ``rows`` uncopied and unchecked: row 0 the
        identity's, the rows of ``gens`` filled, None where a row comes on
        first use.  ``elements`` are the permutations the indices name; by
        default the right regular ones of degree |G|."""
        group = cls.__new__(cls)
        group.identity_index, group._index, group._gens = 0, None, tuple(gens)
        group._elements, group._rows, group._table, group._cache = elements, rows, None, {}
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
        or column i of the table, ``a -> a * i``, for a group given by rows."""
        if self._elements is not None:
            return self._elements[i]
        return Permutation(map(itemgetter(i), self.multiplication_table()))

    def index_of(self, p: Permutation) -> int:
        if self._index is None:
            self._index = {q.images: i for i, q in enumerate(self.elements)}
        try:
            return self._index[p.images]
        except KeyError:
            raise GroupError(f"{p!r} is not an element of this group") from None

    def __repr__(self) -> str:
        return f"<FiniteGroup order={self.order} degree={self.degree}>"

    # -- index arithmetic ------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j] (apply i first, then j)."""
        return (self._table or self.multiplication_table())[i][j]

    def inv(self, i: int) -> int:
        if self._table is None:
            self.multiplication_table()
        return self._cache["inv"][i]

    def conjugate(self, x: int, g: int) -> int:
        """Index of g^-1 * x * g."""
        return self.mul(self.mul(self.inv(g), x), g)

    def multiplication_table(self) -> tuple[array, ...]:
        """The Cayley table, ``table[i][j] == mul(i, j)``.  On the first call
        a copy of the given rows is filled by right multiplication
        (:func:`_fill_rows`) and published with the inverses read off it
        (:func:`_inverses`), never half-filled."""
        if self._table is None:
            rows = list(self._rows)
            _fill_rows(rows, self._gens, 0)
            self._cache["inv"] = _inverses(rows, self._gens, 0)
            self._table = tuple(rows)
        return self._table

    def generating_indices(self) -> tuple[int, ...]:
        """The generators the group was built from, deterministic for a
        given group: the closure's, repeats dropped, or the constructor's."""
        return self._gens


def _fill_rows(rows: list, gens: Sequence[int], e: int) -> int:
    """Fill the rows of every element the generators reach from the identity
    ``e`` by right multiplication, ``row[k*g][z] == row[k][row[g][z]]``: the
    row of k*g is row k gathered at the entries of row g, by one
    ``itemgetter`` per generator, packed to bytes by one ``Struct`` (several
    times cheaper than ``array`` converting the tuple).  Needs the rows of ``e``
    and of ``gens`` filled; rows already filled are kept.  The identity is
    skipped as a generator: it reaches nothing new, and on C1 its one-index
    ``itemgetter`` would return a scalar.  Returns how many elements are
    reached."""
    pack = Struct(f"{len(rows)}H").pack  # native 16-bit, as array("H") stores
    steps = [(g, itemgetter(*rows[g])) for g in dict.fromkeys(gens) if g != e]
    seen = bytearray(len(rows))
    seen[e] = 1
    walk = [e]
    for k in walk:  # also visits what the loop appends
        row_k = rows[k]
        for g, take_g in steps:
            kg = row_k[g]
            if not seen[kg]:
                seen[kg] = 1
                walk.append(kg)
                if rows[kg] is None:
                    rows[kg] = array("H", pack(*take_g(row_k)))
    return len(walk)


def _extend_map(
    rows: Sequence, e: int, gens: Sequence[int], images: Sequence, mul: Callable, start
) -> tuple[list | None, tuple[int, int] | None]:
    """Extend ``gens[i] -> images[i]`` by one walk from the identity ``e`` over
    the table ``rows``: ``phi(e) = start``, ``phi(x*g) = mul(phi(x), image of
    g)``, e.g. a homomorphism, an action or (``mul`` reversed) inversion.
    Checking every edge x -> x*g forces the rule on all of <gens>.  Returns
    ``(phi, None)``, phi -1 where the walk does not reach, or ``(None, (x, g))``
    at the first edge where two paths disagree (such as a generator listed
    twice with different images)."""
    phi: list = [-1] * len(rows)
    phi[e] = start
    steps = list(zip(gens, images))
    walk = [e]
    for x in walk:  # also visits what the loop appends
        row_x, phi_x = rows[x], phi[x]
        for g, image in steps:
            y, phi_y = row_x[g], mul(phi_x, image)
            if phi[y] == -1:
                phi[y] = phi_y
                walk.append(y)
            elif phi[y] != phi_y:
                return None, (x, g)
    return phi, None


def _generator_maps(
    rows: Sequence, e: int, gens: Sequence[int], candidates: Sequence[Sequence[int]],
    mul: Callable[[int, int], int], dst_e: int,
) -> Iterator[list[int]]:
    """Each injective homomorphism from <gens> into the group with product
    ``mul`` and identity ``dst_e``, with ``gens[i]`` sent into
    ``candidates[i]``, depth first in the given order: a prefix of images is
    extended by one :func:`_extend_map` walk and dropped on a clash or a
    repeated image; -1 outside <gens>."""

    def search(images: list[int]) -> Iterator[list[int]]:
        phi, clash = _extend_map(rows, e, gens[: len(images)], images, mul, dst_e)
        if clash is not None:
            return
        defined = [v for v in phi if v >= 0]
        if len(defined) != len(set(defined)):
            return
        if len(images) == len(gens):
            yield phi
            return
        for cand in candidates[len(images)]:
            yield from search([*images, cand])

    return search([])


def _inverses(rows: Sequence[array], gens: Sequence[int], e: int) -> tuple[int, ...]:
    """Inverses by one walk from the identity ``e`` over the generators, as
    (x g)^-1 = g^-1 x^-1; elements the generators do not reach get -1.  Two
    words for one element with different inverses refute associativity."""
    rows_g_inv = [rows[rows[g].index(e)] for g in gens]
    invs, clash = _extend_map(rows, e, gens, rows_g_inv, lambda inv_x, row: row[inv_x], e)
    if clash is not None:
        raise GroupError("not a group table: inverses disagree along two words")
    return tuple(invs)


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
    sorted once into canonical order (the identity first), those rows are
    relabelled to it, and the rest of the table is filled on first use.

    Raises :class:`OrderCapExceeded` (naming the cap) as soon as the closure
    grows past ``max_order`` or :data:`MAX_GROUP_ORDER` elements, and
    :class:`GroupError` on degree mismatch.
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


def element_order(G: FiniteGroup, x: int) -> int:
    """Least m >= 1 with x^m equal to the identity."""
    if not 0 <= x < G.order:
        raise IndexError(f"element index {x} out of range for group of order {G.order}")
    orders = G._cache.get("orders")
    if orders is None:  # one walk per cyclic subgroup: ord(y^k) = o / gcd(k, o)
        rows, orders = G.multiplication_table(), [0] * G.order
        for y in range(G.order):
            if not orders[y]:
                powers = [y]
                while powers[-1] != G.identity_index:
                    powers.append(rows[powers[-1]][y])
                o = len(powers)
                for k, z in enumerate(powers, 1):
                    orders[z] = o // math.gcd(k, o)
        G._cache["orders"] = orders = tuple(orders)
    return orders[x]
