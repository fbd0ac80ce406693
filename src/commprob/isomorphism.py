"""The isomorphism search, by backtracking over generator images.

The search assigns images to a small generating sequence of the source
group, or of a quotient G/M read in G's rows and columns, pruned by element
order and conjugacy-class size, and extends each partial assignment to a
homomorphism by walking the Cayley graph (``perm._generator_maps``).  The
exploration follows canonical index order, so witnesses are deterministic.
"""

from __future__ import annotations

from typing import Iterator

from .perm import FiniteGroup, _generator_maps, _section_steps
from .structure import Subgroup, _cached, _coset_data, _quotient_classes, subgroup_generated


def _profiles(G: FiniteGroup, M: Subgroup) -> tuple[tuple[int, int], ...]:
    """(element order, class size) in G/M of each coset of M, by id: per
    class of G/M (:func:`~commprob.structure._quotient_classes`), the number
    of cosets it meets, and the least m with r^m in M for the lowest member r
    of its first coset, walked along column r."""

    def compute():
        coset_of, reps = _coset_data(G, M)
        profiles = [None] * len(reps)
        for image in _quotient_classes(G, M):
            r = reps[min(image)]
            col, x, m = G.column(r), r, 1
            while coset_of[x]:  # coset 0 is M itself
                x, m = col[x], m + 1
            for q in image:
                profiles[q] = (m, len(image))
        return tuple(profiles)

    return _cached(G, ("profiles", M.member_indices), compute)


def iter_isomorphisms(
    G: FiniteGroup, H: FiniteGroup, M: Subgroup | None = None, N: Subgroup | None = None
) -> Iterator[list[int]]:
    """Yield every isomorphism G/M -> H/N (M, N normal, trivial by default)
    as a map of right-coset ids (:func:`~commprob.structure._coset_data`),
    in canonical order: the maps of :func:`~commprob.perm._generator_maps`
    from the cosets of G's generators, repeats dropped, to the cosets of H
    of the same element order and class size, in id order, walked along
    the columns of the generators' cosets' lowest members; images are
    multiplied by a candidate along its column, built when it is first
    tried.  Each is injective and |G/M| = |H/N|."""
    M, N = M or subgroup_generated(G, ()), N or subgroup_generated(H, ())
    profiles_g, profiles_h = _profiles(G, M), _profiles(H, N)
    if len(profiles_g) != len(profiles_h) or sorted(profiles_g) != sorted(profiles_h):
        return
    (of_g, reps_g), (of_h, reps_h) = _coset_data(G, M), _coset_data(H, N)
    gens = tuple(dict.fromkeys(of_g[g] for g in G.generating_indices())) or (0,)
    steps_h: list = [None] * len(reps_h)

    def mul(x: int, y: int) -> int:  # x*y in H/N, off the column of y
        if steps_h[y] is None:
            steps_h[y] = _section_steps(H, of_h, reps_h, [reps_h[y]])[0]
        return steps_h[y][x]

    yield from _generator_maps(
        _section_steps(G, of_g, reps_g, [reps_g[g] for g in gens]), len(reps_g),
        [[j for j, p in enumerate(profiles_h) if p == profiles_g[g]] for g in gens], mul, 0,
    )
