from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commprob.perm import GroupError, Permutation, generate_group
from commprob.probability import (
    average_class_size,
    check_character_bound,
    class_count,
    commuting_pairs_oracle,
    commuting_probability,
    gallagher_check,
)
from commprob.structure import (
    center,
    is_abelian,
    is_nilpotent,
    normal_subgroups,
    subgroup_generated,
)
from commprob.theorems import analyze

from oracles import (
    oracle_commuting_pairs,
    oracle_conjugacy_classes,
    oracle_gallagher_equality,
    oracle_index_of,
    oracle_quotient,
    oracle_subgroup,
)
from strategies import generator_sets


def test_class_count_examples(cat):
    assert class_count(cat["C12"]) == 12
    assert class_count(cat["A4"]) == 4
    assert class_count(cat["(C5xC5):C3"]) == 11


def test_commuting_probability_examples(cat):
    assert commuting_probability(cat["A4"]) == Fraction(1, 3)
    assert commuting_probability(cat["C15"]) == 1
    assert commuting_probability(cat["Q8"]) == Fraction(5, 8)


def test_oracle_examples(cat):
    assert commuting_pairs_oracle(cat["C1"]) == 1
    assert commuting_pairs_oracle(cat["S3"]) == Fraction(1, 2)
    assert oracle_commuting_pairs(cat["S3"]) == 18
    assert commuting_pairs_oracle(cat["A4"]) == Fraction(1, 3)
    assert oracle_commuting_pairs(cat["A4"]) == 48


def test_oracle_cap():
    from commprob.constructors import named

    with pytest.raises(GroupError):
        commuting_pairs_oracle(named("A5"), max_order=50)


def test_gustafson_identity_catalog_wide(cat):
    for name, G in cat.items():
        assert commuting_probability(G) == commuting_pairs_oracle(G), name


@given(generator_sets())
@example((6, [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)]))  # S6
@settings(deadline=None, max_examples=30)
def test_gustafson_identity_beyond_the_catalog(spec):
    # d(G) = k(G)/|G| = |{(x, y) : xy = yx}|/|G|^2, both counted by brute force
    degree, gens = spec
    G = generate_group(degree, [Permutation(g) for g in gens])
    d = commuting_probability(G)
    assert d == Fraction(len(oracle_conjugacy_classes(G)), G.order)
    assert d == Fraction(oracle_commuting_pairs(G), G.order**2)


def test_average_class_size(cat):
    assert average_class_size(cat["C6"]) == 1
    assert average_class_size(cat["A4"]) == 3
    assert average_class_size(cat["Q8"]) == Fraction(8, 5)


def test_acs_times_d_is_one(cat):
    for name, G in cat.items():
        assert average_class_size(G) * commuting_probability(G) == 1, name


def test_character_bound_examples(cat):
    c6 = cat["C6"]
    assert check_character_bound(c6, 4)  # abelian: equality 6 >= 6
    a4 = cat["A4"]
    assert check_character_bound(a4, 4)  # 12 >= 3 + 4*1
    g75 = cat["(C5xC5):C3"]
    assert check_character_bound(g75, 9)  # 75 >= 3 + 9*8, equality
    with pytest.raises(GroupError):
        check_character_bound(a4, 5)


def test_character_bound_catalog_wide(cat):
    for name, G in cat.items():
        assert check_character_bound(G, 4), name
        if G.order % 2 == 1:
            assert check_character_bound(G, 9), name


def test_gallagher_trivial_equality(cat):
    a4 = cat["A4"]
    res = gallagher_check(a4, subgroup_generated(a4, []))
    assert res.holds and res.equality
    assert res.class_count_group == res.class_count_quotient


def test_gallagher_a4_klein(cat):
    a4 = cat["A4"]
    klein = next(n for n in normal_subgroups(a4) if n.order == 4)
    res = gallagher_check(a4, klein)
    assert res.holds
    assert res.class_count_group == 4
    assert res.class_count_quotient * res.class_count_normal == 12


def test_gallagher_central_c2_equality(cat):
    G = cat["C2xA4"]
    res = gallagher_check(G, center(G))
    assert res.holds and res.equality
    assert res.class_count_group == 8
    assert res.class_count_quotient == 4 and res.class_count_normal == 2
    # equality here comes with d(G) = d(G/N)
    assert commuting_probability(G) == commuting_probability(oracle_quotient(G, center(G)))


def test_gallagher_requires_normal(cat):
    a4 = cat["A4"]
    from commprob.perm import Permutation

    stab = subgroup_generated(a4, [oracle_index_of(a4, Permutation([1, 2, 0, 3]))])
    with pytest.raises(GroupError):
        gallagher_check(a4, stab)


def test_gallagher_equality_iff_class_count_product(cat):
    # the centralizer condition is equivalent to k(G) = k(G/N) k(N)
    unequal = 0
    for name, G in cat.items():
        if G.order > 100:
            continue
        for N in normal_subgroups(G):
            res = gallagher_check(G, N)
            assert res.holds, name
            product = res.class_count_quotient * res.class_count_normal
            assert res.equality == (res.class_count_group == product), name
            assert res.equality == oracle_gallagher_equality(G, N.member_indices), name
            assert res.class_count_quotient == class_count(oracle_quotient(G, N)), name
            unequal += not res.equality
    assert unequal > 0  # both outcomes occur, so neither check is vacuous


@st.composite
def small_groups(draw):
    degree = draw(st.integers(2, 5))
    k = draw(st.integers(1, 2))
    return generate_group(
        degree, [Permutation(draw(st.permutations(list(range(degree))))) for _ in range(k)]
    )


@given(small_groups())
@settings(deadline=None, max_examples=30)
def test_random_groups_gallagher_equality_matches_oracle(G):
    normals = normal_subgroups(G)
    assert normals[0].is_trivial() and normals[-1].is_whole()
    for N in normals:
        res = gallagher_check(G, N)
        assert res.equality == oracle_gallagher_equality(G, N.member_indices), N.order
        assert res.class_count_quotient == class_count(oracle_quotient(G, N)), N.order


def test_probability_submultiplicative_catalog_wide(cat):
    for name, G in cat.items():
        d = commuting_probability(G)
        for N in normal_subgroups(G):
            dq = commuting_probability(oracle_quotient(G, N))
            dn = commuting_probability(oracle_subgroup(G, N))
            assert d <= dq * dn, name


def test_abelian_and_nilpotent_thresholds(cat):
    for name, G in cat.items():
        d = commuting_probability(G)
        assert (d == 1) == is_abelian(G), name
        if d > Fraction(5, 8):
            assert is_abelian(G), name
        if d > Fraction(1, 2):
            assert is_nilpotent(G), name


def _derived_bounds(G):
    """analyze(G) with its two verdicts on |G'|: d > 5/16 implies |G'| < 12,
    and odd order with d > 35/243 implies |G'| < 27."""
    report = analyze(G)
    by_statement = {v.statement: v for v in report.theorem_verdicts}
    return report, by_statement["d>5/16=>|G'|<12"], by_statement["odd,d>35/243=>|G'|<27"]


def test_derived_bound_witness_examples(cat):
    a4, small, _ = _derived_bounds(cat["A4"])
    assert a4.d == Fraction(1, 3) and a4.derived_order == 4
    assert small.note == "satisfied" and small.applicable and small.holds
    s3, small, _ = _derived_bounds(cat["S3"])
    assert s3.d == Fraction(1, 2) and s3.derived_order == 3
    assert small.note == "satisfied" and small.applicable and small.holds
    a5, small, _ = _derived_bounds(cat["A5"])
    assert a5.d == Fraction(1, 12)
    assert small.note == "vacuous" and not small.applicable and small.holds


def test_derived_bound_never_violated(cat):
    for name, G in cat.items():
        _, small, odd = _derived_bounds(G)
        assert small.note != "violated" and not small.is_failure(), name
        assert odd.note != "violated" and not odd.is_failure(), name


def test_fraction_invariants(cat):
    import math

    for name, G in cat.items():
        d = commuting_probability(G)
        assert d.denominator >= 1
        assert math.gcd(abs(d.numerator), d.denominator) == 1, name


@given(st.fractions(), st.fractions())
def test_fraction_order_agrees_with_cross_multiplication(a, b):
    lhs = a.numerator * b.denominator
    rhs = b.numerator * a.denominator
    assert (a < b) == (lhs < rhs)
    assert (a == b) == (lhs == rhs)
