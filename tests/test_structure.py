import hashlib
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commprob import structure
from commprob.constructors import _dihedral, cyclic, direct_product, named
from commprob.perm import GroupError, OrderCapExceeded, Permutation, generate_group
from commprob.isomorphism import iter_isomorphisms
from commprob.structure import (
    NotNormal,
    Subgroup,
    _central_mod,
    _chief_factors,
    _coset_data,
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
    subgroup_class_count,
    subgroup_generated,
    subgroup_gens,
    subgroup_is_abelian,
)
from commprob.probability import _centralizer_masks, class_count
from commprob.theorems import analyze

from oracles import (
    are_isomorphic,
    oracle_center,
    oracle_central_mod,
    oracle_centralizer,
    oracle_chief_factor_orders,
    oracle_conjugacy_classes,
    oracle_coset_action,
    oracle_derived_members,
    oracle_all_subgroups,
    oracle_greedy_generators,
    oracle_has_complement,
    oracle_index_of,
    oracle_is_supersolvable,
    oracle_lower_central_series,
    oracle_normal_subgroups,
    oracle_quotient,
    oracle_subgroup,
)
from strategies import generator_sets


def klein_subgroup(a4):
    return next(n for n in normal_subgroups(a4) if n.order == 4)


# -- subgroup generation -------------------------------------------------------


def test_subgroup_generated_empty(cat):
    a4 = cat["A4"]
    assert subgroup_generated(a4, []).member_indices == (a4.identity_index,)


def test_subgroup_generated_cyclic(cat):
    a4 = cat["A4"]
    x = oracle_index_of(a4, Permutation([1, 2, 0, 3]))
    assert subgroup_generated(a4, [x]).order == 3


def test_subgroup_generated_klein(cat):
    a4 = cat["A4"]
    a = oracle_index_of(a4, Permutation([1, 0, 3, 2]))
    b = oracle_index_of(a4, Permutation([2, 3, 0, 1]))
    assert subgroup_generated(a4, [a, b]).order == 4


def test_lagrange_for_generated_subgroups(cat):
    for name in ("S4", "A4", "Q8", "D12"):
        G = cat[name]
        for x in range(G.order):
            assert G.order % subgroup_generated(G, [x]).order == 0


# -- center and centralizers ---------------------------------------------------


def test_center_examples(cat):
    assert center(cat["C12"]).order == 12
    assert center(cat["A4"]).order == 1
    assert center(cat["Q8"]).order == 2


def test_center_matches_oracle(cat):
    for name in ("S3", "A4", "D8", "Q8", "C2xA4", "D12"):
        assert center(cat[name]).member_indices == oracle_center(cat[name]), name


def test_center_is_intersection_of_centralizers(cat):
    G = cat["D8"]
    expected = set(range(G.order))
    for x in range(G.order):
        expected &= set(oracle_centralizer(G, x))
    assert set(center(G).member_indices) == expected


def check_central_mod(G):
    # the preimage of Z(G/K) for every normal K, by one pass per generator
    # through K's coset ids, against the definition over every x in G
    for K in normal_subgroups(G):
        assert _central_mod(G, _coset_data(G, K)[0]).member_indices == oracle_central_mod(G, K)


def test_central_mod_matches_oracle(cat):
    for G in cat.values():
        if G.order <= 100:
            check_central_mod(G)


@given(generator_sets())
@settings(deadline=None, max_examples=25)
def test_central_mod_matches_oracle_beyond_the_catalog(spec):
    degree, gens = spec
    check_central_mod(generate_group(degree, [Permutation(g) for g in gens]))


def test_centralizer_examples(cat):
    a4 = cat["A4"]
    assert len(oracle_centralizer(a4, a4.identity_index)) == 12
    assert len(oracle_centralizer(a4, oracle_index_of(a4, Permutation([1, 2, 0, 3])))) == 3
    assert len(oracle_centralizer(a4, oracle_index_of(a4, Permutation([1, 0, 3, 2])))) == 4


def test_centralizer_matches_oracle(cat):
    # the centralizer bit masks Gallagher's equality test reads, one per class
    G = cat["S4"]
    masks = _centralizer_masks(G)
    assert [g for g, _ in masks] == [c.representative for c in conjugacy_classes(G)]
    for g, mask in masks:
        assert mask == sum(1 << x for x in oracle_centralizer(G, g))


def test_class_size_equals_centralizer_index(cat):
    for name, G in cat.items():
        if G.order > 200:
            continue
        sizes = {}
        for c in conjugacy_classes(G):
            for m in c.members:
                sizes[m] = c.size
        for x in range(G.order):
            assert sizes[x] == G.order // len(oracle_centralizer(G, x)), name


# -- conjugacy classes ---------------------------------------------------------


def test_classes_abelian_singletons(cat):
    assert [c.size for c in conjugacy_classes(cat["C12"])] == [1] * 12


def test_classes_a4_and_s3(cat):
    assert sorted(c.size for c in conjugacy_classes(cat["A4"])) == [1, 3, 4, 4]
    assert sorted(c.size for c in conjugacy_classes(cat["S3"])) == [1, 2, 3]


def test_classes_match_oracle(cat):
    for name in ("S3", "D8", "Q8", "A4", "S4", "C7:C3", "C2xA4", "D12"):
        G = cat[name]
        got = sorted(c.members for c in conjugacy_classes(G))
        assert got == sorted(oracle_conjugacy_classes(G)), name


def test_classes_partition_group(cat):
    for name, G in cat.items():
        classes = conjugacy_classes(G)
        assert sum(c.size for c in classes) == G.order, name
        assert all(G.order % c.size == 0 for c in classes), name
        all_members = sorted(m for c in classes for m in c.members)
        assert all_members == list(range(G.order)), name


def test_classes_ordered_by_representative(cat):
    reps = [c.representative for c in conjugacy_classes(cat["S4"])]
    assert reps == sorted(reps)


def classes_inside(G, N):
    return [c for c in conjugacy_classes(G) if c.representative in N]


def test_classes_inside_examples(cat):
    a4 = cat["A4"]
    trivial = subgroup_generated(a4, [])
    inside = classes_inside(a4, trivial)
    assert [c.size for c in inside] == [1]

    sizes = sorted(c.size for c in classes_inside(a4, klein_subgroup(a4)))
    assert sizes == [1, 3]

    g75 = cat["(C5xC5):C3"]
    n25 = next(n for n in normal_subgroups(g75) if n.order == 25)
    sizes = sorted(c.size for c in classes_inside(g75, n25))
    assert sizes == [1] + [3] * 8


def test_normal_class_containment(cat):
    # every G-class is inside or disjoint from a normal subgroup
    for name in ("A4", "S4", "C2xA4", "Q8:C3"):
        G = cat[name]
        for N in normal_subgroups(G):
            members = set(N.member_indices)
            for c in conjugacy_classes(G):
                hit = members & set(c.members)
                assert not hit or set(c.members) <= members, name


# -- derived and normal structure ----------------------------------------------


def test_derived_examples(cat):
    assert derived_subgroup(cat["C12"]).is_trivial()
    a4d = derived_subgroup(cat["A4"])
    assert a4d.order == 4
    assert are_isomorphic(oracle_subgroup(cat["A4"], a4d), cat["C2xC2"])
    assert derived_subgroup(cat["S3"]).order == 3


def test_derived_matches_bruteforce(cat):
    for name in ("S3", "D8", "Q8", "A4", "S4", "C2xA4", "D12", "C7:C3", "A5"):
        G = cat[name]
        assert derived_subgroup(G).member_indices == oracle_derived_members(G), name


def test_is_normal_examples(cat):
    a4 = cat["A4"]
    assert is_normal(a4, derived_subgroup(a4))
    assert is_normal(a4, Subgroup(a4, range(a4.order)))
    stab = subgroup_generated(a4, [oracle_index_of(a4, Permutation([1, 2, 0, 3]))])
    assert not is_normal(a4, stab)
    # is_normal is memoized: S4's normal Klein subgroup first, then two
    # subgroups of the same order that are not normal
    s4 = cat["S4"]
    for images, normal in (
        ([[1, 0, 3, 2], [2, 3, 0, 1]], True),
        ([[1, 0, 2, 3], [0, 1, 3, 2]], False),
        ([[1, 2, 3, 0]], False),
    ):
        H = subgroup_generated(s4, [oracle_index_of(s4, Permutation(p)) for p in images])
        assert H.order == 4 and is_normal(s4, H) == normal


def test_normal_subgroups_examples(cat):
    assert [n.order for n in normal_subgroups(cat["C6"])] == [1, 2, 3, 6]
    assert [n.order for n in normal_subgroups(cat["A4"])] == [1, 4, 12]
    assert [n.order for n in normal_subgroups(cat["S3"])] == [1, 3, 6]


def test_normal_subgroups_match_oracle(cat):
    for name, G in cat.items():
        if G.order <= 24:
            got = [n.member_indices for n in normal_subgroups(G)]
            assert sorted(got) == sorted(oracle_normal_subgroups(G)), name


@pytest.mark.parametrize("n, subspaces", [(4, 67), (5, 374)])
def test_normal_subgroups_of_elementary_abelian(n, subspaces):
    # every subgroup of C2^n is normal, one per subspace of F_2^n
    swaps = []
    for i in range(n):
        images = list(range(2 * n))
        images[2 * i], images[2 * i + 1] = images[2 * i + 1], images[2 * i]
        swaps.append(Permutation(images))
    G = generate_group(2 * n, swaps)
    assert len(normal_subgroups(G)) == subspaces
    assert is_supersolvable(G)


def test_one_atom_closure_per_cyclic_subgroup(monkeypatch):
    # C60 has 60 classes but 12 cyclic subgroups, one per divisor of 60; the
    # classes of x^k with k prime to the order of x are not walked again
    walks = []

    def counted(G, x):
        walks.append(x)
        return powers(G, x)

    powers = structure._powers
    monkeypatch.setattr(structure, "_powers", counted)
    G = generate_group(60, [Permutation([(i + 1) % 60 for i in range(60)])])
    assert len(normal_subgroups(G)) == 12
    assert len(walks) == 12


def check_atoms(G):
    # each class's atom is the smallest normal subgroup holding the class, and
    # the atoms are exactly those subgroups
    normals = [set(n) for n in oracle_normal_subgroups(G)]
    atom_of = {}
    for c in oracle_conjugacy_classes(G):
        smallest = min((n for n in normals if n.issuperset(c)), key=len)
        atom_of.update(dict.fromkeys(c, tuple(sorted(smallest))))
    atoms = structure._atoms(G)
    assert all(atom_of[r] == members for members, r in atoms.items())
    assert set(atoms) == set(atom_of.values())


def test_atoms_match_oracle(cat):
    for name, G in cat.items():
        if G.order <= 100:
            check_atoms(G)


@given(generator_sets())
@settings(deadline=None, max_examples=25)
def test_atoms_match_oracle_beyond_the_catalog(spec):
    degree, gens = spec
    check_atoms(generate_group(degree, [Permutation(g) for g in gens]))


def test_analyze_s6_columns_built():
    # a normal closure, each atom and G' included, is walked along its seeds'
    # columns and the generators' conjugation maps, so no other column is
    # built for it; closing them under greedy generators built 143
    G = generate_group(6, [Permutation([1, 2, 3, 4, 5, 0]), Permutation([1, 0, 2, 3, 4, 5])])
    analyze(G)
    assert sum(c is not None for c in G._cols) == 55


# -- quotients read in G's table ------------------------------------------------


def test_quotient_by_whole_is_trivial(cat):
    a4 = cat["A4"]
    assert list(iter_isomorphisms(a4, cat["C1"], Subgroup(a4, range(a4.order)))) == [[0]]


def test_quotient_a4_by_klein(cat):
    # A4/V4 is C3, with its two automorphisms
    a4 = cat["A4"]
    assert len(list(iter_isomorphisms(a4, cat["C3"], klein_subgroup(a4)))) == 2


def test_quotient_c2a4_by_center(cat):
    G = cat["C2xA4"]
    assert next(iter_isomorphisms(G, cat["A4"], center(G)), None) is not None
    assert are_isomorphic(oracle_quotient(G, center(G)), cat["A4"])


def test_quotient_by_trivial_isomorphic(cat):
    # G/1 is read as G: its coset ids are element indices
    G = cat["S3"]
    trivial = subgroup_generated(G, [])
    maps = list(iter_isomorphisms(G, G, trivial, trivial))
    assert len(maps) == 6
    for phi in maps:
        assert all(phi[G.mul(x, y)] == G.mul(phi[x], phi[y]) for x in range(6) for y in range(6))


def test_quotient_requires_normal(cat):
    a4 = cat["A4"]
    stab = subgroup_generated(a4, [oracle_index_of(a4, Permutation([1, 2, 0, 3]))])
    with pytest.raises(NotNormal):
        next(iter_isomorphisms(a4, cat["C2xC2"], stab))


def test_quotient_orders(cat):
    # G/N read in G's table is isomorphic, both ways, to G/N as a group of its own
    for name in ("S4", "C2xA4", "D12"):
        G = cat[name]
        for N in normal_subgroups(G):
            Q = oracle_quotient(G, N)
            assert Q.order * N.order == G.order, name
            assert next(iter_isomorphisms(G, Q, N), None) is not None, name
            assert next(iter_isomorphisms(Q, G, None, N), None) is not None, name


def test_coset_ids_match_oracle_coset_action(cat):
    # isoclinism witnesses name cosets by these ids: lowest member first, and
    # g moves Nr to N(rg)
    for name, G in cat.items():
        if G.order > 60:
            continue
        for N in normal_subgroups(G):
            coset_of, reps = _coset_data(G, N)
            for g in range(G.order):
                action = oracle_coset_action(G, N.member_indices, g)
                assert [coset_of[G.mul(r, g)] for r in reps] == list(action.images), name


# -- series and classifiers ----------------------------------------------------


def test_chief_factors_a4(cat):
    # the Klein subgroup, not central, then A4/V4 of order 3, central there
    assert _chief_factors(cat["A4"]) == [(4, False), (3, True)]


def test_chief_factors_match_jordan_hoelder(cat):
    for name, G in cat.items():
        if G.order <= 24:
            orders = [order for order, _ in _chief_factors(G)]
            assert prod(orders) == G.order, name
            assert sorted(orders) == sorted(oracle_chief_factor_orders(G)), name


def test_chief_series_takes_the_first_prime_index_join(monkeypatch):
    # in C2^6 every join over C has index 2, so each of the 6 steps takes its
    # first join; the smallest of all would read 63 + 62 + 60 + 56 + 48 + 32
    consumed = []

    def counted(G, a):
        for join in joins(G, a):
            consumed.append(join)
            yield join

    joins = structure._joins
    monkeypatch.setattr(structure, "_joins", counted)
    G = generate_group(12, [Permutation([j ^ 1 if j // 2 == i else j for j in range(12)])
                            for i in range(6)])
    assert _chief_factors(G) == [(2, True)] * 6
    assert len(consumed) == 6


def check_series(G):
    """is_solvable against the derived series iterated with the oracle, each
    term as its own group, until it is trivial or its own derived subgroup;
    is_nilpotent against the oracle's lower central series."""
    members = tuple(range(G.order))
    while True:
        H = Subgroup(G, members)
        derived = tuple(members[i] for i in oracle_derived_members(oracle_subgroup(G, H)))
        if derived == members:
            break
        members = derived
    assert is_solvable(G) == (len(members) == 1)
    assert is_nilpotent(G) == (len(oracle_lower_central_series(G)[-1]) == 1)


def test_series_match_oracles(cat):
    for G in cat.values():
        check_series(G)


def test_solvability(cat):
    assert is_solvable(cat["C12"])
    assert is_solvable(cat["A4"])
    assert not is_solvable(cat["A5"])
    # A5 is perfect
    assert derived_subgroup(cat["A5"]).order == 60


def test_nilpotency(cat):
    assert is_nilpotent(cat["Q8"])
    assert not is_nilpotent(cat["A4"])
    assert is_nilpotent(cat["C12"])
    assert not is_nilpotent(cat["D12"])


def test_supersolvability(cat):
    assert is_supersolvable(cat["S3"])
    assert not is_supersolvable(cat["A4"])
    assert not is_supersolvable(cat["(C5xC5):C3"])
    assert is_supersolvable(cat["C1"])
    assert not is_supersolvable(cat["Q8:C3"])


def test_supersolvable_matches_huppert_criterion(cat):
    for name, G in cat.items():
        if G.order <= 24:
            assert is_supersolvable(G) == oracle_is_supersolvable(G), name


def test_classifier_chain(cat):
    for name, G in cat.items():
        nil, sup, sol = is_nilpotent(G), is_supersolvable(G), is_solvable(G)
        assert (not nil or sup) and (not sup or sol), name
        if is_abelian(G):
            assert nil, name


# -- complements ---------------------------------------------------------------


def test_complement_a4_klein(cat):
    a4 = cat["A4"]
    H = find_complement(a4, klein_subgroup(a4))
    assert H is not None and H.order == 3


def test_complement_q8_center_none(cat):
    q8 = cat["Q8"]
    assert find_complement(q8, center(q8)) is None


def test_complement_c6_over_c3(cat):
    c6 = cat["C6"]
    n3 = next(n for n in normal_subgroups(c6) if n.order == 3)
    H = find_complement(c6, n3)
    assert H is not None and H.order == 2


def test_complement_preconditions(cat):
    a4 = cat["A4"]
    with pytest.raises(GroupError):
        find_complement(a4, subgroup_generated(a4, []))
    with pytest.raises(GroupError):
        find_complement(a4, Subgroup(a4, range(a4.order)))
    stab = subgroup_generated(a4, [oracle_index_of(a4, Permutation([1, 2, 0, 3]))])
    with pytest.raises(NotNormal):
        find_complement(a4, stab)


def test_complements_reverify(cat):
    # whenever a complement is found, H meet N = 1 and |H| |N| = |G|
    for name, G in cat.items():
        if G.order > 100:
            continue
        for N in normal_subgroups(G):
            if N.is_trivial() or N.is_whole():
                continue
            H = find_complement(G, N)
            if H is None:
                continue
            inter = set(H.member_indices) & set(N.member_indices)
            assert inter == {G.identity_index}, name
            assert H.order * N.order == G.order, name
            assert subgroup_generated(
                G, set(H.member_indices) | set(N.member_indices)
            ).order == G.order, name


def test_complement_existence_matches_brute_force(cat):
    # a complement exists iff some subgroup meets N trivially with |H| |N| = |G|
    groups = {name: G for name, G in cat.items() if G.order <= 24}
    for n in range(3, 13):
        groups.setdefault(f"D{2 * n}", _dihedral(2 * n))
    groups["C4xC4"] = direct_product(cyclic(4), cyclic(4))
    groups["C2xC8"] = direct_product(cyclic(2), cyclic(8))
    pairs = non_split = 0
    for name, G in groups.items():
        subgroups = oracle_all_subgroups(G)
        for N in normal_subgroups(G):
            if N.is_trivial() or N.is_whole():
                continue
            H = find_complement(G, N)
            assert (H is not None) == oracle_has_complement(G, N.member_indices, subgroups), (
                name, N.member_indices,
            )
            pairs += 1
            if H is None:
                non_split += 1
                continue
            assert set(H.member_indices) & set(N.member_indices) == {G.identity_index}, name
            assert H.order * N.order == G.order, name
    assert (pairs, non_split) == (118, 31)


def test_catalog_complements_pinned(cat):
    # which complement the section search returns, over every catalog (G, N)
    # with N abelian, nontrivial and proper, is pinned by one hash
    digest, pairs = hashlib.sha256(), 0
    for key, G in cat.items():
        for N in normal_subgroups(G):
            if N.is_trivial() or N.is_whole() or not subgroup_is_abelian(G, N):
                continue
            H = find_complement(G, N)
            found = None if H is None else H.member_indices
            digest.update(repr((key, N.member_indices, found)).encode())
            pairs += 1
    assert pairs == 78
    assert digest.hexdigest() == "3f0de5a228d705bf6fb6c670189b74aa665b512b8096a2fa212324a24b71f671"


def test_complement_deterministic(cat):
    a4 = cat["A4"]
    h1 = find_complement(a4, klein_subgroup(a4))
    h2 = find_complement(a4, klein_subgroup(a4))
    assert h1.member_indices == h2.member_indices


# -- subgroups read in G's table -------------------------------------------------


def check_in_table_invariants(G):
    """k(N), "N abelian" and N's greedy generators, read in G's table, against
    N as its own group and the oracles on it."""
    for N in normal_subgroups(G):
        H = oracle_subgroup(G, N)
        k = subgroup_class_count(G, N)
        assert k == class_count(H) == len(oracle_conjugacy_classes(H))
        abelian = subgroup_is_abelian(G, N)
        assert abelian == is_abelian(H) == (len(oracle_center(H)) == H.order)
        oracle_gens = oracle_greedy_generators(H)
        assert subgroup_gens(G, N) == tuple(N.member_indices[i] for i in oracle_gens)


def test_in_table_subgroup_invariants_match_oracles(cat):
    for name, G in cat.items():
        if G.order <= 100:
            check_in_table_invariants(G)


def test_identity_maps_share_the_parent_memo(cat):
    for name in ("C1", "S3", "A5"):
        G = named(name)
        # G/1 is read in G's table with coset ids the element indices, and
        # G as its own subgroup has G's classes
        assert _coset_data(G, subgroup_generated(G, [])) == (tuple(range(G.order)),) * 2, name
        assert subgroup_class_count(G, Subgroup(G, range(G.order))) == class_count(G), name


def test_subgroup_of_another_group_object_is_refused(cat):
    # a subgroup belongs to one group object; a fresh build of the same
    # group is another parent
    a4, fresh = cat["A4"], named.__wrapped__("A4")
    klein = klein_subgroup(a4)
    copy = Subgroup(fresh, klein.member_indices)
    assert copy != klein and copy == klein_subgroup(fresh)
    with pytest.raises(GroupError, match="does not belong"):
        is_normal(a4, copy)
    with pytest.raises(GroupError, match="does not belong"):  # not A4 itself
        _coset_data(a4, Subgroup(cat["S4"], range(24)))


# -- property tests -------------------------------------------------------------


@st.composite
def small_groups(draw):
    degree = draw(st.integers(3, 5))
    k = draw(st.integers(1, 2))
    gens = [Permutation(draw(st.permutations(list(range(degree))))) for _ in range(k)]
    return generate_group(degree, gens)


@given(small_groups())
@settings(deadline=None, max_examples=25)
def test_random_groups_class_equation(G):
    classes = conjugacy_classes(G)
    assert sum(c.size for c in classes) == G.order
    z = center(G)
    assert sum(1 for c in classes if c.size == 1) == z.order


@given(small_groups())
@settings(deadline=None, max_examples=25)
def test_random_groups_center_normal_abelian(G):
    z = center(G)
    assert is_normal(G, z)
    assert all(
        G.mul(a, b) == G.mul(b, a)
        for a in z.member_indices
        for b in z.member_indices
    )


@st.composite
def groups_up_to_24(draw):
    degree = draw(st.integers(2, 5))
    k = draw(st.integers(1, 2))
    gens = [Permutation(draw(st.permutations(list(range(degree))))) for _ in range(k)]
    try:
        return generate_group(degree, gens, max_order=24)
    except OrderCapExceeded:
        assume(False)


@given(groups_up_to_24())
@settings(deadline=None, max_examples=40)
def test_random_groups_supersolvable_and_lattice_match_oracles(G):
    assert is_supersolvable(G) == oracle_is_supersolvable(G)
    assert sorted(o for o, _ in _chief_factors(G)) == sorted(oracle_chief_factor_orders(G))
    got = [n.member_indices for n in normal_subgroups(G)]
    assert sorted(got) == oracle_normal_subgroups(G)
    subgroups = oracle_all_subgroups(G)
    for N in got[1:-1]:
        has = find_complement(G, Subgroup(G, N)) is not None
        assert has == oracle_has_complement(G, N, subgroups), N


@st.composite
def groups_of_degree_2_to_5(draw):
    degree = draw(st.integers(2, 5))
    k = draw(st.integers(1, 3))
    gens = [Permutation(draw(st.permutations(list(range(degree))))) for _ in range(k)]
    return generate_group(degree, gens)


@given(groups_of_degree_2_to_5())
@settings(deadline=None, max_examples=30)
def test_random_groups_in_table_invariants_match_oracles(G):
    check_in_table_invariants(G)
    # G' against the oracle, and the classifiers read off the chief series
    # against both oracle series
    assert derived_subgroup(G).member_indices == oracle_derived_members(G)
    check_series(G)
