"""Group isomorphism testing by backtracking over generator images.

The search assigns images to a small generating sequence of the source
group, pruned by element order and conjugacy-class size, and extends each
partial assignment to a homomorphism by walking the Cayley graph.  The
exploration follows canonical index order, so witnesses are deterministic.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .perm import FiniteGroup, _extend_map, _generator_maps, element_order
from .structure import _cached, class_size_map


def extend_generator_map(
    src: FiniteGroup,
    gens: Sequence[int],
    dst: FiniteGroup,
    images: Sequence[int],
) -> list[int] | None:
    """Extend gens -> images to a homomorphism on <gens>, or return None.

    The returned list maps source indices to destination indices and holds
    -1 outside the subgroup generated by ``gens``.  It is one walk of
    :func:`~commprob.perm._extend_map` over src's table, products of images
    read in dst's; consistency is checked on every (element, generator)
    product, which forces the homomorphism property on the whole generated
    subgroup.
    """
    dst_rows = dst.multiplication_table()
    phi, clash = _extend_map(
        src.multiplication_table(), src.identity_index, gens, images,
        lambda px, mg: dst_rows[px][mg], dst.identity_index,
    )
    return None if clash is not None else phi


def extend_to_isomorphism(
    src: FiniteGroup, gens: Sequence[int], dst: FiniteGroup, images: Sequence[int]
) -> list[int] | None:
    """Extend gens -> images to an isomorphism src -> dst, or return None:
    the homomorphism of :func:`extend_generator_map`, if it is defined on
    all of src and is a bijection onto dst."""
    phi = extend_generator_map(src, gens, dst, images)
    if phi is None or len(phi) != dst.order or -1 in phi or len(set(phi)) != dst.order:
        return None
    return phi


def _element_profiles(G: FiniteGroup) -> tuple[tuple[int, int], ...]:
    def compute():
        sizes = class_size_map(G)
        return tuple((element_order(G, i), sizes[i]) for i in range(G.order))

    return _cached(G, "profiles", compute)


def _compatible(G: FiniteGroup, H: FiniteGroup) -> bool:
    if G.order != H.order:
        return False
    pg = _element_profiles(G)
    ph = _element_profiles(H)
    return sorted(pg) == sorted(ph)


def iter_isomorphisms(G: FiniteGroup, H: FiniteGroup) -> Iterator[list[int]]:
    """Yield every isomorphism G -> H as an index map, in canonical order:
    the maps of :func:`~commprob.perm._generator_maps` from G's generators
    to H's elements of the same order and class size.  Each is injective on
    all of G and |G| = |H|, so it is already an isomorphism."""
    if not _compatible(G, H):
        return
    gens = G.generating_indices()
    profiles_g, profiles_h = _element_profiles(G), _element_profiles(H)
    candidates = [[j for j in range(H.order) if profiles_h[j] == profiles_g[g]] for g in gens]
    yield from _generator_maps(
        G.multiplication_table(), G.identity_index, gens, candidates,
        H.multiplication_table(), H.identity_index,
    )
