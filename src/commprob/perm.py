"""Permutation arithmetic and closure of generating sets into finite groups.

Elements are permutations of {0, ..., degree-1} in one-line image form.
Composition reads left to right: ``p * q`` applies ``p`` first, then ``q``.
A :class:`FiniteGroup` is a fully enumerated element list sorted
lexicographically by image tuple, so element indices are deterministic
across runs and can be used as stable element names everywhere else.
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

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Apply self first, then other."""
        if self.degree != other.degree:
            raise GroupError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )
        return Permutation._unchecked(tuple(map(other.images.__getitem__, self.images)))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation._unchecked(tuple(inv))

    def __call__(self, point: int) -> int:
        return self.images[point]

    def order(self) -> int:
        """Least m >= 1 with p^m equal to the identity (lcm of cycle lengths)."""
        n = len(self.images)
        seen = [False] * n
        o = 1
        for i in range(n):
            if not seen[i]:
                length = 0
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = self.images[j]
                    length += 1
                o = math.lcm(o, length)
        return o

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)!r})"


class FiniteGroup:
    """A fully enumerated permutation group with canonical element order.

    Every product is a lookup in the Cayley table, which is built on first
    use (the first :meth:`mul` or :meth:`multiplication_table` call), not
    at construction.  It is stored as one 16-bit ``array('H')`` row per
    element, 2 * |G|^2 bytes in all: about 1 MB for S6, about 50 MB at the
    default order cap of 5000.  Only the generators' rows are composed from
    permutations; every other row is the row of a known element gathered
    at the entries of a generator's row (right multiplication), one C-level
    ``itemgetter`` per generator.  Element indices must fit in 16 bits, so
    groups of order above :data:`MAX_GROUP_ORDER` are refused.  An element
    set not closed under composition is refused when the table is built.

    Groups that are their own right regular representation are given by
    their Cayley table alone (see :meth:`from_table`, which also checks that
    the generators generate it): quotients and standalone subgroups, with
    tables read off the parent's (G/1 and G as its own subgroup share its
    rows and memo), and the cyclic, quaternion and semidirect catalog groups,
    with tables written by their constructors.  Their :attr:`elements`, the
    right regular permutations of degree |G|, are built on first read.

    The group is immutable after construction and safe to share read-only
    across threads: two threads that both use it first may each build the
    table, but they store identical rows.  Invariants are memoized the same
    way; inverses come from the checks made at construction.
    """

    __slots__ = (
        "degree", "identity_index", "_elements", "_index", "_gens", "_table", "_cache", "_hash",
    )

    def __init__(
        self,
        degree: int,
        elements: Iterable[Permutation],
        generator_perms: Sequence[Permutation] | None = None,
    ):
        els = sorted(set(elements), key=lambda p: p.images)
        if not els:
            raise GroupError("a group needs at least the identity element")
        if len(els) > MAX_GROUP_ORDER:
            raise GroupError(
                f"group order {len(els)} exceeds the limit of {MAX_GROUP_ORDER} "
                "(element indices are 16-bit)"
            )
        for p in els:
            if p.degree != degree:
                raise GroupError(
                    f"degree mismatch: expected {degree}, got {p.degree}"
                )
        self.degree = degree
        self._elements: tuple[Permutation, ...] | None = tuple(els)
        self._index = {p.images: i for i, p in enumerate(els)}
        ident = tuple(range(degree))
        if ident not in self._index:
            raise GroupError("element set does not contain the identity")
        self.identity_index = self._index[ident]
        invs = [self._index.get(p.inverse().images, -1) for p in els]  # kept for inv()
        if -1 in invs:
            raise GroupError(f"element set is missing the inverse of {els[invs.index(-1)]!r}")
        if generator_perms is None:
            self._gens = None
        elif any(g.images not in self._index for g in generator_perms):
            raise GroupError("a generator is not in the element set")
        else:
            self._gens = tuple(self._index[g.images] for g in generator_perms)
        self._table: tuple[array, ...] | None = None
        self._cache: dict = {"inv": tuple(invs)}
        self._hash: int | None = None

    @classmethod
    def from_table(cls, rows: Sequence[array], gens: Sequence[int]) -> "FiniteGroup":
        """The group with Cayley table ``rows`` (16-bit, row 0 the identity's)
        and generators ``gens``: element c is the right regular permutation
        ``a -> rows[a][c]``, which starts with c, so canonical order is index
        order.  Refuses a non-Latin square, and generators out of range or
        not generating the table's group; associativity is not tested."""
        n = len(rows)
        ident = list(range(n))
        if (
            not n
            or any(len(r) != n or len(set(r)) != n for r in rows)
            or max(map(max, rows)) >= n
            or rows[0].tolist() != ident
            or [r[0] for r in rows] != ident
            or any(len(set(c)) != n for c in zip(*rows))  # one column at a time
        ):
            raise GroupError("not a group table with identity 0 on 0..n-1")
        if any(not 0 <= g < n for g in gens) or -1 in (invs := _inverses(rows, gens, 0)):
            raise GroupError(f"not a group table generated by {list(gens)}")
        return cls._over_table(tuple(rows), gens, {"inv": invs})  # the walk serves inv()

    @classmethod
    def _over_table(
        cls, rows: tuple[array, ...], gens: Sequence[int], cache: dict | None = None
    ) -> "FiniteGroup":
        """The group over ``rows`` uncopied and unchecked: some group's own
        table.  Passing that group's ``_cache`` makes the two share it;
        ``inv`` reads the inverses from ``cache["inv"]``."""
        group = cls.__new__(cls)
        group.degree, group.identity_index, group._elements, group._index = len(rows), 0, None, None
        group._gens, group._table, group._hash = tuple(gens), rows, None
        group._cache = {} if cache is None else cache
        return group

    # -- basic queries ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._elements or self._table)

    @property
    def elements(self) -> tuple[Permutation, ...]:
        if self._elements is None:  # table-given: the right regular permutations
            self._elements = tuple(map(Permutation, zip(*self._table)))
        return self._elements

    def _positions(self) -> dict[tuple[int, ...], int]:
        if self._index is None:
            self._index = {p.images: i for i, p in enumerate(self.elements)}
        return self._index

    def index_of(self, p: Permutation) -> int:
        try:
            return self._positions()[p.images]
        except KeyError:
            raise GroupError(f"{p!r} is not an element of this group") from None

    def __contains__(self, p: Permutation) -> bool:
        return isinstance(p, Permutation) and p.images in self._positions()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteGroup)
            and self.degree == other.degree
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        if self._hash is None:  # not in _cache, which groups over one table may share
            self._hash = hash((self.degree, tuple(p.images for p in self.elements)))
        return self._hash

    def __repr__(self) -> str:
        return f"<FiniteGroup order={self.order} degree={self.degree}>"

    # -- index arithmetic ------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j] (apply i first, then j)."""
        return (self._table or self.multiplication_table())[i][j]

    def inv(self, i: int) -> int:
        return self._cache["inv"][i]

    def conjugate(self, x: int, g: int) -> int:
        """Index of g^-1 * x * g."""
        return self.mul(self.mul(self.inv(g), x), g)

    def multiplication_table(self) -> tuple[array, ...]:
        """The Cayley table, ``table[i][j] == mul(i, j)``: built on the first
        call, then returned as stored.

        Only generator rows are composed from permutations, |G| products
        each; every other row is filled by right multiplication from the
        identity (:func:`_fill_rows`): ``row[k*g][z] == row[k][row[g][z]]``,
        one gather per row through one ``itemgetter`` per generator.  A group
        built without generators gets the greedy ones (see
        :meth:`generating_indices`) as a by-product: each element outside the
        subgroup filled so far becomes a generator, in index order.
        """
        if self._table is not None:
            return self._table
        n = self.order
        rows: list = [None] * n
        rows[self.identity_index] = array("H", range(n))
        gens: list[int] = []
        reached = 1
        for g in self._gens or range(n):
            if reached == n:
                break
            if rows[g] is not None:  # already in the subgroup generated so far
                continue
            # g is not the identity, so degree >= 2 and take() returns a tuple
            take = itemgetter(*self.elements[g].images)
            try:
                rows[g] = array("H", [self._index[take(q.images)] for q in self.elements])
            except KeyError:
                raise GroupError("element set is not closed under composition") from None
            gens.append(g)
            reached = _fill_rows(rows, gens, self.identity_index)
        if reached != n:
            raise GroupError("generating set does not generate the group")
        if not self._gens:
            self._gens = tuple(gens)
        self._table = tuple(rows)
        return self._table

    def generating_indices(self) -> tuple[int, ...]:
        """A small generating sequence, deterministic for a given group.

        Returns the generators recorded at construction when available,
        otherwise a greedy minimal sequence in canonical element order.
        """
        if not self._gens:
            self.multiplication_table()
        return self._gens  # type: ignore[return-value]


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
    rows: Sequence[array], e: int, gens: Sequence[int], images: Sequence, mul: Callable, start
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
    rows: Sequence[array], e: int, gens: Sequence[int], candidates: Sequence[Sequence[int]],
    dst_rows: Sequence[array], dst_e: int,
) -> Iterator[list[int]]:
    """Each injective homomorphism from <gens> into the table ``dst_rows``
    with ``gens[i]`` sent into ``candidates[i]``, depth first in the given
    order: a prefix of images is extended by one :func:`_extend_map` walk
    and dropped on a clash or a repeated image; -1 outside <gens>."""

    def search(images: list[int]) -> Iterator[list[int]]:
        phi, clash = _extend_map(
            rows, e, gens[: len(images)], images, lambda px, g: dst_rows[px][g], dst_e
        )
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
    """Breadth-first closure of {identity} | generators under composition,
    walked over image tuples: a :class:`Permutation` is made once per
    element, unchecked, since products of bijections are bijections.

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
    gens = list(dict.fromkeys(generators))
    steps = [g.images.__getitem__ for g in gens]
    walk = [tuple(range(degree))]
    seen = set(walk)
    for p in walk:  # also visits what the loop appends
        for take_g in steps:
            q = tuple(map(take_g, p))  # p first, then g
            if q not in seen:
                if len(seen) >= cap:
                    raise OrderCapExceeded(f"group closure exceeded the order cap of {cap}")
                seen.add(q)
                walk.append(q)
    return FiniteGroup(degree, map(Permutation._unchecked, walk), generator_perms=gens)


def element_order(G: FiniteGroup, x: int) -> int:
    """Least m >= 1 with x^m equal to the identity."""
    if not 0 <= x < G.order:
        raise IndexError(f"element index {x} out of range for group of order {G.order}")
    orders = G._cache.get("orders")
    if orders is None:  # power each element in the table until it reaches the identity
        rows, orders = G.multiplication_table(), []
        for y in range(G.order):
            z, m = y, 1
            while z != G.identity_index:
                z, m = rows[z][y], m + 1
            orders.append(m)
        G._cache["orders"] = orders = tuple(orders)
    return orders[x]
