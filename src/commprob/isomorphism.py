"""The isomorphism search, by backtracking over generator images.

The search assigns images to a small generating sequence of the source
group, or of a quotient G/M read in G's table, pruned by element order and
conjugacy-class size, and extends each partial assignment to a homomorphism
by walking the Cayley graph (``perm._generator_maps``).  The exploration
follows canonical index order, so witnesses are deterministic.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .perm import FiniteGroup, _generator_maps
from .structure import Subgroup, _cached, _coset_data, _quotient_classes, subgroup_generated


def _section_steps(rows: Sequence, of: Sequence[int], reps: Sequence[int], gens) -> list[dict]:
    """Walk steps of a section read in the table ``rows``: element i has the
    representative reps[i], ``of[x]`` is the element that x lies in, so i
    times generator g is of[rows[reps[i]][reps[g]]]; for cosets, Mr*g = M(rg)."""
    return [{g: of[rows[r][reps[g]]] for g in gens} for r in reps]


def _profiles(G: FiniteGroup, M: Subgroup) -> tuple[tuple[int, int], ...]:
    """(element order, class size) in G/M of each coset of M, by id: the
    least m with r^m in M for its lowest member r, and how many cosets the
    class of r meets (:func:`~commprob.structure._quotient_classes`)."""

    def compute():
        rows, (coset_of, reps) = G.multiplication_table(), _coset_data(G, M)
        sizes = [0] * len(reps)
        for image in _quotient_classes(G, M):
            for q in image:
                sizes[q] = len(image)
        profiles = []
        for r, size in zip(reps, sizes):
            x, m = r, 1
            while coset_of[x]:  # coset 0 is M itself
                x, m = rows[x][r], m + 1
            profiles.append((m, size))
        return tuple(profiles)

    return _cached(G, ("profiles", M.member_indices), compute)


def iter_isomorphisms(
    G: FiniteGroup, H: FiniteGroup, M: Subgroup | None = None, N: Subgroup | None = None
) -> Iterator[list[int]]:
    """Yield every isomorphism G/M -> H/N (M, N normal, trivial by default)
    as a map of right-coset ids (:func:`~commprob.structure._coset_data`),
    in canonical order: the maps of :func:`~commprob.perm._generator_maps`
    from the cosets of G's generators, repeats dropped, to the cosets of H
    of the same element order and class size, in id order, walked over
    cosets in G's table.  Each is injective and |G/M| = |H/N|."""
    M, N = M or subgroup_generated(G, ()), N or subgroup_generated(H, ())
    profiles_g, profiles_h = _profiles(G, M), _profiles(H, N)
    if len(profiles_g) != len(profiles_h) or sorted(profiles_g) != sorted(profiles_h):
        return
    (of_g, reps_g), (of_h, reps_h) = _coset_data(G, M), _coset_data(H, N)
    gens = tuple(dict.fromkeys(of_g[g] for g in G.generating_indices())) or (0,)
    rows_h = H.multiplication_table()
    yield from _generator_maps(
        _section_steps(G.multiplication_table(), of_g, reps_g, gens), 0, gens,
        [[j for j, p in enumerate(profiles_h) if p == profiles_g[g]] for g in gens],
        lambda x, y: of_h[rows_h[reps_h[x]][reps_h[y]]], 0,
    )
