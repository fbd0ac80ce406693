"""The permutation closure against an independent implementation, sympy's
``PermutationGroup``: order, |Z(G)|, |G'|, k(G), solvable and nilpotent on
generator sets of degree at most 6."""

import pytest
from hypothesis import example, given, settings

from commprob.perm import Permutation, generate_group
from commprob.probability import class_count
from commprob.structure import center, derived_subgroup, is_nilpotent, is_solvable

from strategies import generator_sets

combinatorics = pytest.importorskip("sympy.combinatorics")


@given(generator_sets())
@example((1, []))
@example((4, []))
@example((3, [(0, 1, 2)]))  # the identity alone
@example((5, [(1, 0, 2, 3, 4), (1, 2, 0, 3, 4), (1, 0, 2, 3, 4)]))  # a repeat
@example((6, [(1, 0, 2, 3, 4, 5), (0, 1, 3, 4, 2, 5)]))  # C2 x C3 on {0, 1}, {2, 3, 4}
@example((6, [(0, 1, 2, 3, 4, 5), (1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 5, 3)]))  # C3 x C3
@example((6, [(1, 2, 3, 0, 4, 5), (0, 3, 2, 1, 4, 5), (0, 1, 2, 3, 5, 4)]))  # D8 x C2
@settings(deadline=None, max_examples=40)
def test_closure_invariants_match_sympy(spec):
    degree, gens = spec
    G = generate_group(degree, [Permutation(g) for g in gens])
    S = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g)) for g in gens]
        or [combinatorics.Permutation(list(range(degree)))]
    )
    assert G.order == S.order()
    assert center(G).order == S.center().order()
    assert derived_subgroup(G).order == S.derived_subgroup().order()
    assert class_count(G) == len(S.conjugacy_classes())
    assert is_solvable(G) == S.is_solvable
    assert is_nilpotent(G) == S.is_nilpotent
