"""Acceptance suite: every exit criterion, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import io
import itertools
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from commprob.cli import main as cli_main
from commprob.constructors import named
from commprob.isoclinism import are_isoclinic, find_isoclinism
from commprob.isomorphism import iter_isomorphisms
from commprob.perm import Permutation, generate_group
from commprob.probability import (
    commuting_pairs_oracle,
    commuting_probability,
)
from commprob.structure import (
    derived_subgroup,
    is_abelian,
    is_nilpotent,
    is_solvable,
    is_supersolvable,
    normal_subgroups,
)
from commprob.theorems import run_catalog_verification, verify_class_size_theorem

from oracles import are_isomorphic, oracle_subgroup, verify_isoclinism_witness


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def catalog_run():
    return run_catalog_verification()


@pytest.fixture(scope="module")
def verify_all_twice():
    codes, outputs = [], []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            codes.append(cli_main(["verify", "--all", "--format", "json"]))
        outputs.append(buf.getvalue())
    return codes, outputs


def test_criterion_1_exact_values():
    expected = {
        "A4": Fraction(1, 3),
        "(C5xC5):C15": Fraction(23, 375),
        "C2^3:C7": Fraction(1, 7),
    }
    ok = True
    details = []
    for name, value in expected.items():
        start = time.monotonic()
        d = commuting_probability(named.__wrapped__(name))
        elapsed = time.monotonic() - start
        ok &= d == value and elapsed < 1.0
        details.append(f"d({name})={d} in {elapsed:.2f}s")
    _report(1, ok, "; ".join(details))


def test_criterion_2_structural_facts():
    a4 = named("A4")
    klein = named("C2xC2")
    derived_ok = are_isomorphic(oracle_subgroup(a4, derived_subgroup(a4)), klein)
    # Aut(C2xC2): its automorphisms, as permutations of its indices, closed
    autos = [Permutation(phi) for phi in iter_isomorphisms(klein, klein)]
    aut_v4 = generate_group(klein.order, autos)
    aut_v4_ok = aut_v4.order == 6 and are_isomorphic(aut_v4, named("S3"))
    c3c3 = named("C3xC3")
    aut_33_ok = len(list(iter_isomorphisms(c3c3, c3c3))) == 48
    _report(
        2,
        derived_ok and aut_v4_ok and aut_33_ok,
        f"A4'~=C2xC2: {derived_ok}; |Aut(C2xC2)|=6~=S3: {aut_v4_ok}; "
        f"|Aut(C3xC3)|=48: {aut_33_ok}",
    )


def test_criterion_3_gustafson_equivalence(cat):
    start = time.monotonic()
    mismatches = [
        name
        for name, G in cat.items()
        if commuting_probability(G) != commuting_pairs_oracle(G)
    ]
    elapsed = time.monotonic() - start
    orders = [G.order for G in cat.values()]
    ok = (
        not mismatches
        and elapsed < 60.0
        and len(cat) >= 20
        and min(orders) == 1
        and max(orders) == 375
    )
    _report(
        3,
        ok,
        f"{len(cat)} groups, orders {min(orders)}..{max(orders)}, "
        f"exact equality, {elapsed:.1f}s",
    )


THRESHOLD_PREFIXES = (
    "d>5/16",
    "d>=1/3",
    "odd,d>35/243",
    "k(G)<=k(G/N)k(N)",
    "d(G)<=d(G/N)d(N)",
    "char-bound,c=4",
    "char-bound,c=9",
)


def test_criterion_4_threshold_theorems(catalog_run, verify_all_twice):
    reports, summary = catalog_run
    failures = [
        (r.name, v.statement)
        for r in reports
        for v in r.theorem_verdicts
        if v.statement.startswith(THRESHOLD_PREFIXES) and v.is_failure()
    ]
    codes, _ = verify_all_twice
    ok = not failures and codes[0] == 0
    _report(
        4,
        ok,
        f"threshold verdicts all hold over {summary['groups']} groups; "
        f"verify --all exit code {codes[0]}",
    )


def test_criterion_5_class_size_suite(catalog_run):
    reports, _ = catalog_run
    class_size = [
        (r.name, v)
        for r in reports
        for v in r.theorem_verdicts
        if v.statement.startswith("d>1/") and ":class-in-N" in v.statement
    ]
    applicable = [(n, v) for n, v in class_size if v.precondition_ok and v.applicable]
    failures = [(n, v.statement) for n, v in applicable if not v.holds]
    a4 = named("A4")
    klein = next(n for n in normal_subgroups(a4) if n.order == 4)
    witness = verify_class_size_theorem(a4, klein, 4)
    a4_ok = witness.holds and "class of size 3 " in witness.note
    ok = not failures and applicable and a4_ok
    _report(
        5,
        bool(ok),
        f"{len(applicable)} applicable (G, N, s) instantiations all hold; "
        f"A4/Klein/s=4 witness has size exactly 3: {a4_ok}",
    )


def test_criterion_6_isoclinism_suite(cat):
    w = find_isoclinism(cat["C2xA4"], cat["A4"])
    witness_ok = w is not None and verify_isoclinism_witness(
        cat["C2xA4"], cat["A4"], w
    )
    rejected = not are_isoclinic(cat["A4"], cat["S3"])
    agree = True
    pairs = 0
    for a, b in itertools.combinations(cat, 2):
        if are_isoclinic(cat[a], cat[b]):
            pairs += 1
            agree &= commuting_probability(cat[a]) == commuting_probability(cat[b])
            agree &= is_supersolvable(cat[a]) == is_supersolvable(cat[b])
    ok = witness_ok and rejected and agree and pairs > 0
    _report(
        6,
        ok,
        f"C2xA4~A4 witness verified: {witness_ok}; A4 vs S3 rejected: {rejected}; "
        f"d and supersolvability agree on all {pairs} isoclinic pairs",
    )


def test_criterion_7_classifier_sanity(cat):
    expect_true = ("S3", "D8", "D10", "Q8", "C6")
    expect_false = ("A4", "S4", "A5", "(C5xC5):C3")
    ss_ok = all(is_supersolvable(cat[n]) for n in expect_true) and not any(
        is_supersolvable(cat[n]) for n in expect_false
    )
    solvable_ok = all(
        is_solvable(G) == (name != "A5") for name, G in cat.items()
    )
    chain_ok = all(
        (not is_nilpotent(G) or is_supersolvable(G))
        and (not is_supersolvable(G) or is_solvable(G))
        for G in cat.values()
    )
    _report(
        7,
        ss_ok and solvable_ok and chain_ok,
        f"supersolvable flags: {ss_ok}; only A5 unsolvable: {solvable_ok}; "
        f"nilpotent=>supersolvable=>solvable: {chain_ok}",
    )


def test_criterion_8_boundary_strictness(cat, catalog_run):
    five_eighths = Fraction(5, 8)
    q8, d8 = cat["Q8"], cat["D8"]
    no_abelian_claim = (
        commuting_probability(q8) == five_eighths
        and commuting_probability(d8) == five_eighths
        and not is_abelian(q8)
        and not is_abelian(d8)
        and not (commuting_probability(q8) > five_eighths)
    )
    reports, _ = catalog_run
    strict_ok = True
    ge_ok = True
    for r in reports:
        if r.name in ("A4", "C2xA4"):  # both have d = 1/3 exactly
            for v in r.theorem_verdicts:
                if v.statement.startswith("klein-fixed-point") and v.precondition_ok:
                    strict_ok &= not v.applicable
                if v.statement == "d>=1/3":
                    ge_ok &= v.applicable and v.holds
    ok = no_abelian_claim and strict_ok and ge_ok
    _report(
        8,
        ok,
        f"d=5/8 triggers no abelian claim: {no_abelian_claim}; d=1/3 strict "
        f"klein statement inapplicable: {strict_ok}; d>=1/3 applicable: {ge_ok}",
    )


def test_criterion_9_determinism(verify_all_twice):
    codes, outputs = verify_all_twice
    identical = outputs[0] == outputs[1]
    ok = identical and codes == [0, 0]
    _report(
        9,
        ok,
        f"two verify --all --format json runs byte-identical: {identical} "
        f"({len(outputs[0])} bytes each), exit codes {codes}",
    )
