from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commprob import structure, theorems
from commprob.constructors import direct_product, named
from commprob.perm import FiniteGroup, Permutation, generate_group
from commprob.probability import commuting_probability
from commprob.structure import (
    center,
    conjugacy_classes,
    normal_subgroups,
    subgroup_generated,
)
from commprob.theorems import (
    Verdict,
    _smallest_class_in,
    analyze,
    run_catalog_verification,
    summarize,
    verify_class_size_theorem,
    verify_klein_fixed_point,
    verify_odd_35_243,
    verify_supersolvable_1_3,
    verify_supersolvable_5_16,
)

from oracles import oracle_conjugacy_classes


def normal_of_order(cat, name, order):
    return next(n for n in normal_subgroups(cat[name]) if n.order == order)


# -- threshold verifiers ---------------------------------------------------------


def check_smallest_class_in(G):
    # the smallest nontrivial class inside each normal N, read off G's
    # classes, against the least (class size, m) over N's members m but the
    # identity, their classes found by conjugating with all of G
    size = {x: len(c) for c in oracle_conjugacy_classes(G) for x in c}
    for N in normal_subgroups(G):
        expected = min(((size[m], m) for m in N.member_indices[1:]), default=None)
        assert _smallest_class_in(G, N) == expected


def test_smallest_class_in_matches_the_class_scan(cat):
    for G in cat.values():
        if G.order <= 100:
            check_smallest_class_in(G)


@given(st.integers(2, 5).flatmap(lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=2)))
@settings(deadline=None, max_examples=25)
def test_smallest_class_in_matches_the_class_scan_on_random_groups(gens):
    check_smallest_class_in(generate_group(len(gens[0]), [Permutation(g) for g in gens]))


def test_5_16_a4(cat):
    v = verify_supersolvable_5_16(cat["A4"])
    assert v.applicable and v.holds
    assert "isoclinic" in v.note


def test_5_16_s4_not_applicable(cat):
    v = verify_supersolvable_5_16(cat["S4"])
    assert not v.applicable and v.holds


def test_5_16_d8_supersolvable(cat):
    v = verify_supersolvable_5_16(cat["D8"])
    assert v.applicable and v.holds and v.note == "supersolvable"


def test_5_16_is_strict_at_the_boundary():
    # no catalog group has d exactly 5/16; D8 x S3 does (5/8 * 1/2), and
    # neither statement applies to it
    G = direct_product(named("D8"), named("S3"))
    assert (G.order, commuting_probability(G)) == (48, Fraction(5, 16))
    for verify in (verify_supersolvable_5_16, verify_supersolvable_1_3):
        v = verify(G)
        assert (v.state, v.note) == ("VACUOUS", "not applicable"), v


def test_5_16_central_quotient_branch(cat, monkeypatch):
    # no catalog group reaches the third branch, so G/Z(G) alone is made
    # isoclinic to A4
    calls = []

    def central_only(G, H, K=None):
        calls.append(K)
        return K is not None

    monkeypatch.setattr(theorems, "is_supersolvable", lambda G: False)
    monkeypatch.setattr(theorems, "are_isoclinic", central_only)
    a4 = cat["A4"]
    v = verify_supersolvable_5_16(a4)
    assert v == Verdict("d>5/16", True, True, note="central quotient isoclinic to A4")
    assert calls == [None, center(a4)]
    assert verify_supersolvable_1_3(a4).note == "no branch holds"


def test_5_16_decided_without_the_lattice(monkeypatch):
    # supersolvability is read off one chief series: C2^5 (374 normal
    # subgroups) gets its verdict without enumerating them
    def refuse(G):
        raise AssertionError("normal_subgroups called")

    monkeypatch.setattr(structure, "normal_subgroups", refuse)
    monkeypatch.setattr(theorems, "normal_subgroups", refuse)
    swaps = [Permutation([j ^ 1 if j // 2 == i else j for j in range(10)]) for i in range(5)]
    G = generate_group(10, swaps)  # the transpositions (2i 2i+1)
    assert verify_supersolvable_5_16(G) == Verdict("d>5/16", True, True, note="supersolvable")


def test_derived_bound_violated_is_a_failure(cat, monkeypatch):
    # the bound holds on every group; a derived subgroup of order |A4| = 12
    # is made up to reach the violated state
    a4 = cat["A4"]
    whole = subgroup_generated(a4, a4.generating_indices())
    monkeypatch.setattr(theorems, "derived_subgroup", lambda G: whole)
    v = next(v for v in analyze(a4).theorem_verdicts if v.statement == "d>5/16=>|G'|<12")
    assert v == Verdict("d>5/16=>|G'|<12", True, False, note="violated")
    assert v.is_failure()


def test_1_3_c2a4_via_isoclinism(cat):
    v = verify_supersolvable_1_3(cat["C2xA4"])
    assert v.applicable and v.holds and "isoclinic" in v.note


def test_1_3_a5_not_applicable(cat):
    v = verify_supersolvable_1_3(cat["A5"])
    assert not v.applicable and v.holds


def test_odd_threshold_arithmetic():
    # 11/75 > 35/243 but 23/375 < 35/243, by exact cross-multiplication
    assert Fraction(11, 75) > Fraction(35, 243)
    assert Fraction(23, 375) < Fraction(35, 243)
    assert 11 * 243 == 2673 and 75 * 35 == 2625
    assert 23 * 243 == 5589 and 375 * 35 == 13125


def test_odd_applicable_cases(cat):
    v = verify_odd_35_243(cat["(C5xC5):C3"])
    assert v.applicable and v.holds and "isoclinic" in v.note
    v = verify_odd_35_243(cat["C7:C3"])
    assert v.applicable and v.holds and v.note == "supersolvable"
    v = verify_odd_35_243(cat["(C5xC5):C15"])
    assert not v.applicable and v.holds
    v = verify_odd_35_243(cat["A4"])
    assert not v.applicable and "even" in v.note


# -- class-size statement ---------------------------------------------------------


def test_class_size_a4_klein_s4(cat):
    v = verify_class_size_theorem(cat["A4"], normal_of_order(cat, "A4", 4), 4)
    assert v.applicable and v.holds
    assert "size 3" in v.note


def test_class_size_c2a4_central(cat):
    G = cat["C2xA4"]
    v = verify_class_size_theorem(G, center(G), 4)
    assert v.applicable and v.holds
    assert "size 1" in v.note and "center" in v.note


def test_class_size_s3(cat):
    v = verify_class_size_theorem(cat["S3"], normal_of_order(cat, "S3", 3), 3)
    assert v.applicable and v.holds
    assert "size 2" in v.note


def test_class_size_monotone_in_s(cat):
    a4 = cat["A4"]
    klein = normal_of_order(cat, "A4", 4)
    sizes = []
    for s in (4, 5, 6):
        v = verify_class_size_theorem(a4, klein, s)
        assert v.applicable and v.holds
        sizes.append(int(v.note.split("size ")[1].split(" ")[0]))
    assert sizes == [3, 3, 3]  # one witness certifies every larger s


def test_class_size_precondition_states(cat):
    q8 = cat["Q8"]
    v = verify_class_size_theorem(q8, center(q8), 2)
    assert not v.precondition_ok and "split" in v.note
    assert not v.is_failure()

    a4 = cat["A4"]
    v = verify_class_size_theorem(a4, subgroup_generated(a4, []), 4)
    assert not v.precondition_ok and "trivial" in v.note

    s4 = cat["S4"]
    v = verify_class_size_theorem(s4, normal_of_order(cat, "S4", 12), 5)
    assert not v.precondition_ok and "abelian" in v.note

    with pytest.raises(ValueError):
        verify_class_size_theorem(a4, normal_of_order(cat, "A4", 4), 1)


def test_class_size_non_normal_subgroup_is_a_skip(cat):
    # S3 has no normal subgroup of order 2: the label is the bare order
    s3 = cat["S3"]
    transposition = next(c for c in conjugacy_classes(s3) if c.size == 3)
    N = subgroup_generated(s3, [transposition.representative])
    v = verify_class_size_theorem(s3, N, 4)
    assert v.statement == "d>1/4:class-in-N;N=order2"
    assert not v.precondition_ok and "not normal" in v.note


def test_class_size_not_applicable_below_threshold(cat):
    g56 = cat["C2^3:C7"]
    n8 = normal_of_order(cat, "C2^3:C7", 8)
    for s in (2, 3, 4, 5, 6):
        v = verify_class_size_theorem(g56, n8, s)  # d = 1/7 <= 1/s
        assert v.precondition_ok and not v.applicable and v.holds


# -- klein fixed point -------------------------------------------------------------


def test_klein_positive_case(cat):
    G = cat["C2xC2xC3"]
    klein = normal_of_order(cat, "C2xC2xC3", 4)
    v = verify_klein_fixed_point(G, klein)
    assert v.applicable and v.holds


def test_klein_strictness_at_one_third(cat):
    # d = 1/3 exactly: the strict threshold leaves the statement inapplicable
    a4 = cat["A4"]
    v = verify_klein_fixed_point(a4, normal_of_order(cat, "A4", 4))
    assert v.precondition_ok and not v.applicable and v.holds

    c2a4 = cat["C2xA4"]
    v = verify_klein_fixed_point(c2a4, normal_of_order(cat, "C2xA4", 4))
    assert v.precondition_ok and not v.applicable and v.holds


def test_klein_rejects_wrong_subgroup(cat):
    s3 = cat["S3"]
    v = verify_klein_fixed_point(s3, normal_of_order(cat, "S3", 3))
    assert not v.precondition_ok


# -- reports and the catalog run ----------------------------------------------------


def test_analyze_a4(cat):
    report = analyze(cat["A4"], name="A4")
    d = report.to_dict()
    assert d["order"] == 12 and d["class_count"] == 4
    assert d["d"] == "1/3" and d["acs"] == "3/1"
    assert d["supersolvable"] is False and d["isoclinic_to_A4"] is True
    assert not any(v["applicable"] and not v["holds"] for v in d["verdicts"])


def test_analyze_c6_abelian(cat):
    d = analyze(cat["C6"], name="C6").to_dict()
    assert d["d"] == "1/1" and d["abelian"] is True


def test_analyze_375(cat):
    d = analyze(cat["(C5xC5):C15"], name="(C5xC5):C15").to_dict()
    assert d["order"] == 375 and d["d"] == "23/375"
    assert d["supersolvable"] is False


def test_verdict_to_dict_is_asdict_in_field_order(cat):
    samples = [
        Verdict("d>5/16", True, True, note="supersolvable"),
        Verdict("klein", False, True, False, "precondition: N is not C2xC2"),
        Verdict("char-bound,c=4", True, False),
    ] + analyze(cat["A4"], name="A4").theorem_verdicts
    keys = ["statement", "applicable", "holds", "precondition_ok", "note"]
    for v in samples:
        d = v.to_dict()
        assert list(d) == keys
        assert d == {k: getattr(v, k) for k in keys}


def test_verdict_state_is_the_one_classification():
    # precondition first, then applicability, then truth
    cases = [
        (Verdict("s", True, False, False), "SKIP"),
        (Verdict("s", False, True, False), "SKIP"),
        (Verdict("s", False, True), "VACUOUS"),
        (Verdict("s", True, True), "HOLDS"),
        (Verdict("s", True, False), "FAIL"),
    ]
    for v, state in cases:
        assert v.state == state
        assert v.is_failure() == (state == "FAIL")
    report = analyze(named("C1"))._replace(theorem_verdicts=[v for v, _ in cases])
    assert summarize([report]) == {
        "groups": 1, "verdicts": 5, "applicable": 2, "holds": 1,
        "vacuous": 1, "precondition_skips": 2, "failures": 1,
    }


def test_analyze_deterministic(cat):
    a = analyze(named("S4"), name="S4").to_dict()
    b = analyze(named.__wrapped__("S4"), name="S4").to_dict()
    assert a == b


def test_analyze_builds_no_quotient_per_normal_subgroup(monkeypatch):
    # G/N, G/Z(G) and G' are read in G's own table: once the reference groups
    # exist, analyze constructs no group.  C2^4 as four disjoint transpositions.
    for key in ("A4", "(C5xC5):C3"):
        named(key)
    swaps = [[i ^ 1 if i // 2 == k else i for i in range(8)] for k in range(4)]
    groups = [
        named.__wrapped__("C2xA4"),
        generate_group(8, [Permutation(p) for p in swaps]),
        named.__wrapped__("S4"),
    ]
    built = []
    over_table = FiniteGroup.__dict__["_over_table"].__func__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return over_table(cls, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "_over_table", classmethod(counted))
    for G in groups:
        analyze(G)
        assert len(normal_subgroups(G)) > 2
    assert built == []


def test_run_catalog_verification_no_failures():
    reports, summary = run_catalog_verification()
    assert summary["failures"] == 0
    assert summary["groups"] >= 20
    assert summary["applicable"] == summary["holds"]
    assert summary["applicable"] > 0


def test_run_catalog_single_filter():
    reports = [analyze(named("A4"), name="A4")]
    summary = summarize(reports)
    assert summary["groups"] == 1
    assert reports[0].name == "A4"
    assert summary["failures"] == 0


def test_summary_counts_consistent():
    reports = [analyze(named(k), name=k) for k in ("A4", "Q8", "C6")]
    summary = summarize(reports)
    total = sum(len(r.theorem_verdicts) for r in reports)
    assert summary["verdicts"] == total
    assert (
        summary["applicable"] + summary["vacuous"] + summary["precondition_skips"]
        == total
    )
