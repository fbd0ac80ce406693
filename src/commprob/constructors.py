"""Constructors for the built-in catalog: cyclic groups, direct and
semidirect products, and named groups.

Semidirect convention (fixed): the acting group H acts on N on the right,
h |-> (n |-> n^h), and the product multiplies as

    (a, h) * (a', h') = (a^h' * a', h * h')

so that inside the product the conjugate of an embedded N-element by an
embedded H-element agrees with the action.  The action map H -> Aut(N) is
a homomorphism with respect to left-to-right composition.  Cyclic groups,
Q8 and products N : H are their own right regular representations, given
by rows of their Cayley tables (``FiniteGroup._over_table``); (a, h) has
index a * |H| + h, so N and H embed as a -> a * |H| and h -> h.
"""

from __future__ import annotations

import functools
from array import array
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from .perm import (
    DEFAULT_ORDER_CAP,
    MAX_GROUP_ORDER,
    FiniteGroup,
    GroupError,
    OrderCapExceeded,
    Permutation,
    _extend_map,
    generate_group,
)


def cyclic(n: int) -> FiniteGroup:
    """The cyclic group of order n, given by the rows of 0 and of its
    generator 1 in the table (i + j) mod n: element i rotates n points by i."""
    if n < 1:
        raise GroupError("cyclic group order must be a positive integer")
    if n > DEFAULT_ORDER_CAP:
        raise OrderCapExceeded(f"group closure exceeded the order cap of {DEFAULT_ORDER_CAP}")
    first = array("H", range(n))
    rows = [first, first[1:] + first[:1]][:n] + [None] * (n - 2)
    return FiniteGroup._over_table(rows, (1,) if n > 1 else ())


def direct_product(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    """A x B acting on the disjoint union of the two point sets: the closure
    (:func:`generate_group`) of A's generators on the first block, then B's
    on the second, which are its generators.  Orders above the default cap
    (or :data:`MAX_GROUP_ORDER`) are refused before any element is built."""
    order = A.order * B.order
    cap = min(DEFAULT_ORDER_CAP, MAX_GROUP_ORDER)
    if order > cap:
        raise GroupError(f"product order {order} exceeds the order cap of {cap}")
    da = A.degree

    def pair(a: Permutation, b: Permutation) -> Permutation:
        return Permutation(a.images + tuple(v + da for v in b.images))

    ea, eb = A.element(A.identity_index), B.element(B.identity_index)
    gens = [pair(A.element(i), eb) for i in A.generating_indices()]
    gens += [pair(ea, B.element(j)) for j in B.generating_indices()]
    return generate_group(da + B.degree, gens)


def automorphism_from_generator_images(
    N: FiniteGroup, gens: Sequence[int], images: Sequence[int]
) -> tuple[int, ...]:
    """The unique automorphism of N sending gens to images, as a full
    permutation of element indices (one ``perm._extend_map`` walk along the
    columns of gens, phi(x) times an image read off the image's column).
    Raises unless it is a homomorphism on all of N and a bijection."""
    phi, clash = _extend_map(
        list(map(N.column, gens)), N.order, list(map(N.column, images)),
        lambda px, col: col[px], N.identity_index,
    )
    if clash is not None or -1 in phi or len(set(phi)) != N.order:
        raise GroupError(f"generator images {list(images)} do not define an automorphism")
    return tuple(phi)


class ActionSpec(NamedTuple):
    """An action of H on N given on generators of H.

    ``automorphism_images[i]`` is the permutation of N's element indices by
    which ``acting_generators[i]`` acts.  Whether the assignment extends to
    a homomorphism H -> Aut(N) is verified during product construction.
    """

    acting_generators: tuple[int, ...]
    automorphism_images: tuple[tuple[int, ...], ...]


def _validate_automorphism(N: FiniteGroup, img: tuple[int, ...], label: str) -> None:
    """Refuse ``img`` unless it is a bijection with img(a*b) = img(a)*img(b)
    for N's generators a and every b, off the rows of a and img(a): the a
    for which that holds are closed under products, so they are all of N."""
    if sorted(img) != list(range(N.order)):
        raise GroupError(f"action image for {label} is not a bijection of N's indices")
    take_img = itemgetter(*img)
    for a in N.generating_indices():
        row_a, row_img_a = N.row(a), N.row(img[a])
        if itemgetter(*row_a)(img) != take_img(row_img_a):  # img(a*b) vs img(a)*img(b), all b
            b = next(b for b in range(N.order) if img[row_a[b]] != row_img_a[img[b]])
            raise GroupError(
                f"action image for {label} is not an automorphism: "
                f"image of {a}*{b} disagrees with image({a})*image({b})"
            )


def _action_table(N: FiniteGroup, H: FiniteGroup, action: ActionSpec) -> list[tuple[int, ...]]:
    """Extend the generator action to every element of H by one walk of
    ``perm._extend_map`` along the acting generators' columns, psi(x*g)
    applying psi(x) first, then psi(g), and return one index permutation per
    H element.  Refuses an action that is not a homomorphism (a generator
    listed twice with different automorphisms included), naming the failing
    relation."""
    if len(action.acting_generators) != len(action.automorphism_images):
        raise GroupError("one automorphism image is required per acting generator")
    imgs = [tuple(img) for img in action.automorphism_images]
    for g, img in zip(action.acting_generators, imgs):
        if not 0 <= g < H.order:
            raise GroupError(f"acting generator index {g} out of range")
        _validate_automorphism(N, img, f"H-generator {g}")
    psi, clash = _extend_map(
        list(map(H.column, action.acting_generators)), H.order, imgs,
        lambda px, img: tuple(map(img.__getitem__, px)), tuple(range(N.order)),
    )
    if clash is not None:
        x, g = clash[0], action.acting_generators[clash[1]]
        raise GroupError(
            "action does not extend to a homomorphism: the relation "
            f"psi({x}*{g}) = psi({x})*psi({g}) fails in H"
        )
    if -1 in psi:
        raise GroupError("acting generators do not generate H")
    return psi


def semidirect_product(
    N: FiniteGroup,
    H: FiniteGroup,
    action: ActionSpec,
    max_order: int = DEFAULT_ORDER_CAP,
) -> FiniteGroup:
    """The semidirect product of N by H under the given action; contains a
    normal copy of N with a complement isomorphic to H.

    Only the rows of its generators, (a, 1) for a generating N and (1, h)
    for h generating H, are written, from the rows of a and h: (a, h) *
    (a', h') is (a^h' * a', h * h') at index a * |H| + h, and a^h' * a' =
    p(a * p^-1(a')) for p the action of h'.  Every other row comes on first
    use; the Cayley graph, built at once, refuses generators that do not
    generate.  Orders above ``max_order`` or :data:`MAX_GROUP_ORDER` are
    refused before anything is built.
    """
    order = N.order * H.order
    cap = min(max_order, MAX_GROUP_ORDER)
    if order > cap:
        raise GroupError(f"product order {order} exceeds the order cap of {cap}")
    psi, nh = _action_table(N, H, action), H.order

    def row(g: int) -> array:  # (a, h) * (a', h') = (a^h' * a', h * h')
        a, h = divmod(g, nh)
        row_a, h_row = N.row(a), H.row(h)
        conj = [[p[row_a[x]] for x in psi[H.inv(k)]] for k, p in enumerate(psi)]  # a^h' * a'
        return array("H", [conj[k][b] * nh + h_row[k] for b in range(N.order) for k in range(nh)])

    gens = [a * nh for a in N.generating_indices()] + list(H.generating_indices())
    rows: list = [None] * order
    rows[0] = array("H", range(order))
    for g in gens:
        rows[g] = row(g)
    G = FiniteGroup._over_table(rows, gens)
    G._cayley()  # the graph refuses generators that do not generate G
    return G


# -- named groups --------------------------------------------------------------


def _generated(*images: list[int]) -> FiniteGroup:
    """The group generated by permutations given as the images of 0..n-1."""
    return generate_group(len(images[0]), list(map(Permutation, images)))


def _symmetric(n: int) -> FiniteGroup:  # an n-cycle and a transposition
    return _generated([(i + 1) % n for i in range(n)], [1, 0, *range(2, n)])


def _dihedral(order: int) -> FiniteGroup:  # the rotation and a flip of an (order/2)-gon
    n = order // 2
    return _generated([(i + 1) % n for i in range(n)], [-i % n for i in range(n)])


_QUAT_AXIS = {
    (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
    (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
    (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
    (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
}


def _quaternion() -> FiniteGroup:
    """Q8 from the quaternion unit table, in its regular representation.

    The unit of sign s and axis a (axes 1, i, j, k) has index 4 * s + a, so
    i, j and k are 1, 2 and 3.
    """

    def mul(x: int, y: int) -> int:
        s, axis = _QUAT_AXIS[(x % 4, y % 4)]
        return 4 * ((x // 4 + y // 4 + s) % 2) + axis

    rows = [array("H", [mul(x, y) for y in range(8)]) for x in range(8)]
    return FiniteGroup._over_table(rows, (1, 2))


def _cyclic_extension(
    N: FiniteGroup, n: int, gens: Sequence[int], images: Sequence[int]
) -> FiniteGroup:
    """N : Cn, the generator 1 of Cn acting as the automorphism of N that
    sends gens to images."""
    act = automorphism_from_generator_images(N, gens, images)
    return semidirect_product(N, named(f"C{n}"), ActionSpec((1,), (act,)))


def _c2cube_c7() -> FiniteGroup:
    n = named("C2xC2xC2")
    e1, e2, e3 = n.generating_indices()  # one per factor, in order
    return _cyclic_extension(n, 7, [e1, e2, e3], [e2, e3, n.mul(e1, e2)])


def _c5c5_c3() -> FiniteGroup:
    """(C5 x C5) : C3 with a fixed-point-free order-3 action."""
    n55 = named("C5xC5")
    e1, e2 = n55.generating_indices()  # one per factor, in order
    return _cyclic_extension(n55, 3, [e1, e2], [e2, n55.inv(n55.mul(e1, e2))])


def _c5c5_c15() -> FiniteGroup:
    """The order-375 group named by extending C5 x C5 by an order-15 twist.

    Aut(C5 x C5) = GL(2, 5) has no element of order 15, so the order-5 and
    order-3 parts of the twist cannot commute and the group is built in two
    stages: first (C5 x C5) : C5 (the extraspecial group of order 125 and
    exponent 5), then an order-3 automorphism acting freely on its central
    quotient.  This is the unique order-375 group with 23 conjugacy classes.
    """
    n55 = named("C5xC5")
    e1, e2 = n55.generating_indices()  # one per factor, in order
    heis = _cyclic_extension(n55, 5, [e1, e2], [e1, n55.mul(e1, e2)])
    x, y = e2 * 5, 1  # the embedded e2 and generator of C5
    return _cyclic_extension(heis, 3, [x, y], [y, heis.inv(heis.mul(x, y))])


# key -> (order, builder), in canonical order: ascending order, then key.
# Products take their factors from named(), so each factor is built once.
_CATALOG: dict[str, tuple[int, Callable[[], FiniteGroup]]] = {
    "C1": (1, lambda: cyclic(1)),
    "C2": (2, lambda: cyclic(2)),
    "C3": (3, lambda: cyclic(3)),
    "C2xC2": (4, lambda: direct_product(named("C2"), named("C2"))),
    "C4": (4, lambda: cyclic(4)),
    "C5": (5, lambda: cyclic(5)),
    "C6": (6, lambda: cyclic(6)),
    "S3": (6, lambda: _symmetric(3)),
    "C7": (7, lambda: cyclic(7)),
    "C2xC2xC2": (8, lambda: direct_product(named("C2xC2"), named("C2"))),
    "C2xC4": (8, lambda: direct_product(named("C2"), named("C4"))),
    "C8": (8, lambda: cyclic(8)),
    "D8": (8, lambda: _dihedral(8)),
    "Q8": (8, _quaternion),
    "C3xC3": (9, lambda: direct_product(named("C3"), named("C3"))),
    "C9": (9, lambda: cyclic(9)),
    "C10": (10, lambda: cyclic(10)),
    "D10": (10, lambda: _dihedral(10)),
    "A4": (12, lambda: _generated([1, 2, 0, 3], [1, 0, 3, 2])),
    "C12": (12, lambda: cyclic(12)),
    "C2xC2xC3": (12, lambda: direct_product(named("C2xC2"), named("C3"))),
    "D12": (12, lambda: _dihedral(12)),
    "C15": (15, lambda: cyclic(15)),
    "C7:C3": (21, lambda: _cyclic_extension(named("C7"), 3, [1], [2])),
    "C2xA4": (24, lambda: direct_product(named("C2"), named("A4"))),
    "Q8:C3": (24, lambda: _cyclic_extension(named("Q8"), 3, [1, 2], [2, 3])),  # i -> j -> k
    "S4": (24, lambda: _symmetric(4)),
    "C5xC5": (25, lambda: direct_product(named("C5"), named("C5"))),
    "C2^3:C7": (56, _c2cube_c7),
    "A5": (60, lambda: _generated([1, 2, 3, 4, 0], [1, 2, 0, 3, 4])),
    "(C5xC5):C3": (75, _c5c5_c3),
    "(C5xC5):C15": (375, _c5c5_c15),
}


def catalog_keys() -> list[str]:
    """Stable catalog keys in canonical order (ascending order, then key)."""
    return list(_CATALOG)


def catalog_orders() -> dict[str, int]:
    return {name: order for name, (order, _) in _CATALOG.items()}


@functools.cache
def named(name: str) -> FiniteGroup:
    """The catalog group of this key, built on the first call and that same
    instance returned after, memos and all; the construction is
    deterministic, and ``named.__wrapped__`` builds a fresh copy."""
    try:
        _, builder = _CATALOG[name]
    except KeyError:
        raise GroupError(
            f"unknown catalog key {name!r}; available keys: "
            + ", ".join(catalog_keys())
        ) from None
    return builder()
