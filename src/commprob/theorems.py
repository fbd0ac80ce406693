"""Verification harness: per-group analysis reports and machine checks of
the commuting-probability threshold statements over concrete groups.

Each verifier returns a :class:`Verdict` rather than raising on hypothesis
failures, so a group that merely fails a precondition (for example a normal
subgroup with no complement) is reported distinctly and never counted as a
counterexample.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .perm import FiniteGroup, element_order
from .constructors import catalog_keys, named
from .isoclinism import are_isoclinic, is_stem
from .probability import (
    average_class_size,
    check_character_bound,
    class_count,
    commuting_probability,
    gallagher_check,
)
from .structure import (
    Subgroup,
    _cached,
    center,
    conjugacy_classes,
    derived_subgroup,
    find_complement,
    is_abelian,
    is_nilpotent,
    is_normal,
    is_solvable,
    is_supersolvable,
    normal_subgroups,
    subgroup_is_abelian,
)

S_RANGE = (2, 3, 4, 5, 6)


class Verdict(NamedTuple):
    """Outcome of one statement on one group.

    ``holds`` is True whenever the statement is not applicable (vacuous
    truth); ``precondition_ok`` is False when the inputs do not meet the
    statement's hypotheses, which is a distinct state from failure.
    """

    statement: str
    applicable: bool
    holds: bool
    precondition_ok: bool = True
    note: str = ""

    @property
    def state(self) -> str:
        """SKIP (hypotheses unmet), VACUOUS (not applicable), HOLDS or FAIL."""
        if not self.precondition_ok:
            return "SKIP"
        if not self.applicable:
            return "VACUOUS"
        return "HOLDS" if self.holds else "FAIL"

    def is_failure(self) -> bool:
        return self.state == "FAIL"

    def to_dict(self) -> dict:
        """The fields in declaration order."""
        return self._asdict()


class GroupReport(NamedTuple):
    name: str
    order: int
    class_count: int
    d: Fraction
    acs: Fraction
    parity: str
    center_order: int
    derived_order: int
    derived_index: int
    abelian: bool
    nilpotent: bool
    supersolvable: bool
    solvable: bool
    stem: bool
    isoclinic_to_A4: bool
    quotient_by_center_isoclinic_to_A4: bool
    isoclinic_to_C5C5C3: bool
    theorem_verdicts: list[Verdict]

    def to_dict(self) -> dict:
        """The fields in declaration order, ``d`` and ``acs`` as "p/q" and
        ``theorem_verdicts`` last, under the key ``verdicts``."""
        out = self._asdict()
        out["d"], out["acs"] = _frac(self.d), _frac(self.acs)
        out["verdicts"] = [v.to_dict() for v in out.pop("theorem_verdicts")]
        return out


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _normal_descriptor(G: FiniteGroup, N: Subgroup) -> str:
    """``N=order<k>``, plus ``#<i>``, its place in lattice order, when G has
    several normal subgroups of order k; a non-normal N gets the bare order.
    A trivial or whole N is the only normal subgroup of its order, so it is
    named without the lattice."""
    if N.is_trivial() or N.is_whole():
        return f"N=order{N.order}"

    def compute():
        by_order: dict[int, list[tuple[int, ...]]] = {}
        for m in normal_subgroups(G):
            by_order.setdefault(m.order, []).append(m.member_indices)
        return {
            members: f"N=order{len(members)}" + (f"#{i}" if len(same) > 1 else "")
            for same in by_order.values()
            for i, members in enumerate(same)
        }

    return _cached(G, "normal_descriptors", compute).get(
        N.member_indices, f"N=order{N.order}"
    )


# -- threshold verifiers -------------------------------------------------------


def _supersolvable_or_isoclinic(
    G: FiniteGroup, stmt: str, applies: bool, branches: tuple[tuple[str, bool], ...]
) -> Verdict:
    """The verdict on ``stmt``, not applicable unless ``applies``: G is
    supersolvable, or for some branch (key, central) G (G/Z(G) if central)
    is isoclinic to the catalog group key.  The note names the first that
    holds, the branches tried in order."""
    if not applies:
        return Verdict(stmt, False, True, note="not applicable")
    if is_supersolvable(G):
        return Verdict(stmt, True, True, note="supersolvable")
    for key, central in branches:
        if are_isoclinic(G, named(key), center(G) if central else None):
            note = ("central quotient " if central else "") + f"isoclinic to {key}"
            return Verdict(stmt, True, True, note=note)
    return Verdict(stmt, True, False, note="no branch holds")


def verify_supersolvable_5_16(G: FiniteGroup) -> Verdict:
    """d(G) > 5/16 forces: supersolvable, or isoclinic to A4, or central
    quotient isoclinic to A4."""
    applies = commuting_probability(G) > Fraction(5, 16)
    return _supersolvable_or_isoclinic(G, "d>5/16", applies, (("A4", False), ("A4", True)))


def verify_supersolvable_1_3(G: FiniteGroup) -> Verdict:
    """d(G) >= 1/3 forces: supersolvable or isoclinic to A4."""
    applies = commuting_probability(G) >= Fraction(1, 3)
    return _supersolvable_or_isoclinic(G, "d>=1/3", applies, (("A4", False),))


def verify_odd_35_243(G: FiniteGroup) -> Verdict:
    """For odd order, d(G) > 35/243 forces: supersolvable or isoclinic to
    (C5xC5):C3."""
    if G.order % 2 == 0:
        return Verdict("odd,d>35/243", False, True, note="not applicable: even order")
    applies = commuting_probability(G) > Fraction(35, 243)
    return _supersolvable_or_isoclinic(G, "odd,d>35/243", applies, (("(C5xC5):C3", False),))


def _is_klein(G: FiniteGroup, N: Subgroup) -> bool:
    return N.order == 4 and all(element_order(G, m) <= 2 for m in N.member_indices)


def _smallest_class_in(G: FiniteGroup, N: Subgroup) -> tuple[int, int] | None:
    """(size, representative) of the smallest nontrivial class of G inside
    N, the lowest representative among equals; None if N is trivial.  N must
    be normal (both callers check it first), so a union of classes: a class
    lies in N iff its representative, its lowest member, does.  Size 1 means
    a central element."""
    classes = conjugacy_classes(G)[1:]  # the identity's class {0} comes first
    return min(((c.size, c.representative) for c in classes if c.representative in N), default=None)


def verify_class_size_theorem(G: FiniteGroup, N: Subgroup, s: int) -> Verdict:
    """If d(G) > 1/s and G splits over the abelian normal nontrivial N,
    some nontrivial class of G inside N has size at most s - 1.

    The smallest such class is reported, so one witness certifies every
    larger s as well; the note also records the consequent disjunction
    (nontrivial center, or a proper subgroup of small index obtained as the
    centralizer of a witness element).
    """
    return _class_size_verdicts(G, N, (s,))[0]


def _class_size_verdicts(G: FiniteGroup, N: Subgroup, s_values: tuple[int, ...]) -> list[Verdict]:
    """:func:`verify_class_size_theorem` for each s, from one derivation of
    what depends only on N; each verdict is then a comparison with s."""
    if any(s < 2 for s in s_values):
        raise ValueError("the class-size statement needs an integer s >= 2")
    desc = _normal_descriptor(G, N)
    stmts = [f"d>1/{s}:class-in-N;{desc}" for s in s_values]
    if not is_normal(G, N):
        skip = "N is not normal"
    elif N.is_trivial():
        skip = "N is trivial"
    elif not subgroup_is_abelian(G, N):
        skip = "N is not abelian"
    elif N.is_whole():
        skip = "N is the whole group"
    elif find_complement(G, N) is None:
        skip = "G does not split over N"
    else:
        d, (size, rep) = commuting_probability(G), _smallest_class_in(G, N)  # N is nontrivial
        if size == 1:
            consequent = "center is nontrivial"
        else:
            consequent = f"centralizer of element {rep} is a proper subgroup of index {size}"
        note = f"class of size {size} at representative {rep}; " + consequent
        return [
            Verdict(stmt, False, True, note="not applicable") if not d > Fraction(1, s)
            else Verdict(stmt, True, False, note="no class small enough") if size > s - 1
            else Verdict(stmt, True, True, note=note)
            for s, stmt in zip(s_values, stmts)
        ]
    return [Verdict(stmt, False, True, False, "precondition: " + skip) for stmt in stmts]


def verify_klein_fixed_point(G: FiniteGroup, N: Subgroup) -> Verdict:
    """If G = (C2 x C2) : H and d(G) > 1/3, some nontrivial element of the
    Klein subgroup is fixed by conjugation, i.e. lies in the center."""
    stmt = f"klein-fixed-point;{_normal_descriptor(G, N)}"
    if not is_normal(G, N):
        return Verdict(stmt, False, True, False, "precondition: N is not normal")
    if not _is_klein(G, N):
        return Verdict(stmt, False, True, False, "precondition: N is not C2xC2")
    if not N.is_whole() and find_complement(G, N) is None:  # 1 complements N = G
        return Verdict(stmt, False, True, False, "precondition: G does not split over N")
    d = commuting_probability(G)
    if not d > Fraction(1, 3):
        return Verdict(stmt, False, True, note="not applicable")
    size, rep = _smallest_class_in(G, N)  # N is C2xC2, so nontrivial
    if size == 1:
        return Verdict(stmt, True, True, note=f"central element {rep} in N")
    return Verdict(stmt, True, False, note="no nontrivial fixed element")


# -- per-group aggregation -----------------------------------------------------


def analyze(G: FiniteGroup, name: str = "") -> GroupReport:
    """Full report for one group: exact invariants, classifier flags, and
    every verdict the harness knows how to state about G."""
    d = commuting_probability(G)
    z = center(G)
    derived = derived_subgroup(G)
    a4 = named("A4")
    report = GroupReport(
        name=name,
        order=G.order,
        class_count=class_count(G),
        d=d,
        acs=average_class_size(G),
        parity="odd" if G.order % 2 else "even",
        center_order=z.order,
        derived_order=derived.order,
        derived_index=G.order // derived.order,
        abelian=is_abelian(G),
        nilpotent=is_nilpotent(G),
        supersolvable=is_supersolvable(G),
        solvable=is_solvable(G),
        stem=is_stem(G),
        isoclinic_to_A4=are_isoclinic(G, a4),
        quotient_by_center_isoclinic_to_A4=are_isoclinic(G, a4, z),
        isoclinic_to_C5C5C3=are_isoclinic(G, named("(C5xC5):C3")),
        theorem_verdicts=[],
    )
    verdicts = report.theorem_verdicts
    verdicts.append(verify_supersolvable_5_16(G))
    verdicts.append(verify_supersolvable_1_3(G))
    verdicts.append(verify_odd_35_243(G))
    verdicts.append(
        Verdict("char-bound,c=4", True, check_character_bound(G, 4))
    )
    odd = G.order % 2 == 1
    verdicts.append(
        Verdict(
            "char-bound,c=9",
            odd,
            check_character_bound(G, 9) if odd else True,
            note="" if odd else "not applicable: even order",
        )
    )
    for stmt, applies, bound in (
        ("d>5/16=>|G'|<12", d > Fraction(5, 16), 12),
        ("odd,d>35/243=>|G'|<27", odd and d > Fraction(35, 243), 27),
    ):
        if applies:
            holds = derived.order < bound
            verdicts.append(Verdict(stmt, True, holds, note="satisfied" if holds else "violated"))
        else:
            verdicts.append(Verdict(stmt, False, True, note="vacuous"))
    for N in normal_subgroups(G):
        ndesc = _normal_descriptor(G, N)
        res = gallagher_check(G, N)
        verdicts.append(
            Verdict(
                f"k(G)<=k(G/N)k(N);{ndesc}",
                True,
                res.holds,
                note="equality" if res.equality else "strict or centralizers differ",
            )
        )
        dq = Fraction(res.class_count_quotient, G.order // N.order)
        dn = Fraction(res.class_count_normal, N.order)
        verdicts.append(Verdict(f"d(G)<=d(G/N)d(N);{ndesc}", True, d <= dq * dn))
    for N in normal_subgroups(G):
        if N.is_trivial() or N.is_whole():
            continue
        if not subgroup_is_abelian(G, N):
            continue
        verdicts.extend(_class_size_verdicts(G, N, S_RANGE))
    for N in normal_subgroups(G):
        if _is_klein(G, N):
            verdicts.append(verify_klein_fixed_point(G, N))
    return report


# -- catalog-wide run ----------------------------------------------------------


def summarize(reports: list[GroupReport]) -> dict:
    states = Counter(v.state for report in reports for v in report.theorem_verdicts)
    return {
        "groups": len(reports),
        "verdicts": sum(states.values()),
        "applicable": states["HOLDS"] + states["FAIL"],
        "holds": states["HOLDS"],
        "vacuous": states["VACUOUS"],
        "precondition_skips": states["SKIP"],
        "failures": states["FAIL"],
    }


def run_catalog_verification() -> tuple[list[GroupReport], dict]:
    """Analyze every catalog group, in canonical order, and summarize all
    verdicts."""
    reports = [analyze(named(k), name=k) for k in catalog_keys()]
    return reports, summarize(reports)
