import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commprob import isoclinism
from commprob.cli import parse_group_file
from commprob.constructors import (
    _dihedral,
    automorphism_from_generator_images,
    cyclic,
    direct_product,
    named,
)
from commprob.isoclinism import _section, are_isoclinic, find_isoclinism, is_stem
from commprob.isomorphism import iter_isomorphisms
from commprob.perm import GroupError, Permutation, _extend_map, generate_group
from commprob.probability import commuting_probability
from commprob.structure import center, is_supersolvable, normal_subgroups, subgroup_generated
from commprob.theorems import analyze, verify_supersolvable_1_3, verify_supersolvable_5_16

from oracles import (
    are_isomorphic,
    cayley_table,
    find_isomorphism,
    oracle_center,
    oracle_central_mod,
    oracle_commutator_pairing,
    oracle_find_isoclinism,
    oracle_quotient,
    verify_isoclinism_witness,
)
from strategies import generator_sets


# -- isomorphism ---------------------------------------------------------------


def test_isomorphic_to_itself(cat):
    g = cat["S4"]
    assert are_isomorphic(g, g)


def test_c4_vs_klein(cat):
    assert not are_isomorphic(cat["C4"], cat["C2xC2"])


def test_a4_closure_vs_constructed(cat):
    closure = generate_group(4, [Permutation([1, 2, 0, 3]), Permutation([1, 0, 3, 2])])
    assert are_isomorphic(closure, cat["A4"])


def test_isomorphism_witness_is_bijective_homomorphism(cat):
    G, H = cat["D12"], cat["D12"]
    phi = find_isomorphism(G, H)
    assert phi is not None
    assert sorted(phi) == list(range(H.order))
    for x in range(G.order):
        for y in range(G.order):
            assert phi[G.mul(x, y)] == H.mul(phi[x], phi[y])


def test_all_automorphisms_of_klein(cat):
    v4 = cat["C2xC2"]
    autos = list(iter_isomorphisms(v4, v4))
    assert len(autos) == 6


def test_automorphisms_of_q8_in_canonical_order(cat):
    # images of Q8's generators (1, 2) in index order: the search order is fixed
    q8 = cat["Q8"]
    assert list(iter_isomorphisms(q8, q8)) == [
        [0, 1, 2, 3, 4, 5, 6, 7], [0, 1, 3, 6, 4, 5, 7, 2], [0, 1, 6, 7, 4, 5, 2, 3],
        [0, 1, 7, 2, 4, 5, 3, 6], [0, 2, 1, 7, 4, 6, 5, 3], [0, 2, 3, 1, 4, 6, 7, 5],
        [0, 2, 5, 3, 4, 6, 1, 7], [0, 2, 7, 5, 4, 6, 3, 1], [0, 3, 1, 2, 4, 7, 5, 6],
        [0, 3, 2, 5, 4, 7, 6, 1], [0, 3, 5, 6, 4, 7, 1, 2], [0, 3, 6, 1, 4, 7, 2, 5],
        [0, 5, 2, 7, 4, 1, 6, 3], [0, 5, 3, 2, 4, 1, 7, 6], [0, 5, 6, 3, 4, 1, 2, 7],
        [0, 5, 7, 6, 4, 1, 3, 2], [0, 6, 1, 3, 4, 2, 5, 7], [0, 6, 3, 5, 4, 2, 7, 1],
        [0, 6, 5, 7, 4, 2, 1, 3], [0, 6, 7, 1, 4, 2, 3, 5], [0, 7, 1, 6, 4, 3, 5, 2],
        [0, 7, 2, 1, 4, 3, 6, 5], [0, 7, 5, 2, 4, 3, 1, 6], [0, 7, 6, 5, 4, 3, 2, 1],
    ]


def test_fresh_copies_are_isomorphic(cat):
    for name in ("S3", "Q8", "A4", "C7:C3"):
        assert are_isomorphic(cat[name], named.__wrapped__(name)), name


@st.composite
def generator_maps(draw):
    """A group G of degree 2-5, some of its elements and images for them in
    a group H: random images, or the elements conjugated in G (H = G)."""

    def group():
        degree = draw(st.integers(2, 5))
        count = draw(st.integers(1, 2))
        return generate_group(
            degree, [Permutation(draw(st.permutations(range(degree)))) for _ in range(count)]
        )

    G = group()
    gens = draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=3))
    if draw(st.booleans()):
        c = draw(st.integers(0, G.order - 1))
        return G, gens, G, [G.mul(G.mul(G.inv(c), g), c) for g in gens]
    H = G if draw(st.booleans()) else group()
    return G, gens, H, [draw(st.integers(0, H.order - 1)) for _ in gens]


def brute_force_generator_map(G, gens, H, images):
    """The homomorphism on <gens> sending gens to images, or None: a
    candidate built by left multiplication, phi(g x) = image(g) phi(x),
    kept only if phi(g) = image(g) and phi(xy) = phi(x) phi(y) for all x, y."""
    phi = {G.identity_index: H.identity_index}
    reached = [G.identity_index]
    for x in reached:
        for g, m in zip(gens, images):
            if G.mul(g, x) not in phi:
                phi[G.mul(g, x)] = H.mul(m, phi[x])
                reached.append(G.mul(g, x))
    if any(phi[g] != m for g, m in zip(gens, images)):
        return None
    if any(phi[G.mul(x, y)] != H.mul(phi[x], phi[y]) for x in phi for y in phi):
        return None
    return [phi.get(x, -1) for x in range(G.order)]


@given(generator_maps())
@settings(deadline=None, max_examples=60)
def test_extend_generator_map_matches_brute_force(spec):
    G, gens, H, images = spec
    expected = brute_force_generator_map(G, gens, H, images)
    rows_h = cayley_table(H)
    phi, clash = _extend_map(
        [G.column(g) for g in gens], G.order, images,
        lambda px, mg: rows_h[px][mg], H.identity_index,
    )
    assert (phi if clash is None else None) == expected
    if H is G:  # an automorphism exactly when the map is a bijection of G
        if expected is not None and sorted(expected) == list(range(G.order)):
            assert automorphism_from_generator_images(G, gens, images) == tuple(expected)
        else:
            with pytest.raises(GroupError, match="do not define an automorphism"):
                automorphism_from_generator_images(G, gens, images)


def test_same_order_different_groups(cat):
    assert not are_isomorphic(cat["D8"], cat["Q8"])
    assert not are_isomorphic(cat["A4"], cat["D12"])
    assert not are_isomorphic(cat["S4"], cat["C2xA4"])


# -- pairing structures ---------------------------------------------------------


def test_pairing_abelian(cat):
    G = cat["C12"]
    M, derived, pairing = oracle_commutator_pairing(G)
    assert M.order == G.order
    assert derived[1] == (G.identity_index,)
    assert pairing == ((0,),)


def test_pairing_a4(cat):
    M, derived, _ = oracle_commutator_pairing(cat["A4"])
    assert M.order == 1
    assert len(derived[1]) == 4


def test_pairing_invariants(cat):
    for name in ("S3", "D8", "Q8", "A4", "C2xA4"):
        G = cat[name]
        M, (of, reps), pairing = oracle_commutator_pairing(G)
        n = G.order // M.order
        for q in range(n):
            assert pairing[q][q] == 0, name
        for q1 in range(n):
            for q2 in range(n):
                assert pairing[q1][q2] == of[G.inv(reps[pairing[q2][q1]])], name


# -- isoclinism ----------------------------------------------------------------


def test_abelian_pairs_isoclinic(cat):
    assert are_isoclinic(cat["C1"], cat["C12"])
    assert are_isoclinic(cat["C2xC2"], cat["C15"])


def test_c2a4_isoclinic_to_a4(cat):
    w = find_isoclinism(cat["C2xA4"], cat["A4"])
    assert w is not None
    assert verify_isoclinism_witness(cat["C2xA4"], cat["A4"], w)


def test_a4_not_isoclinic_to_s3(cat):
    assert not are_isoclinic(cat["A4"], cat["S3"])


def test_d8_isoclinic_to_q8(cat):
    assert are_isoclinic(cat["D8"], cat["Q8"])


def test_d12_isoclinic_to_s3(cat):
    assert are_isoclinic(cat["D12"], cat["S3"])


def test_isoclinic_reflexive_and_symmetric(cat):
    names = list(cat)
    for name in names:
        assert are_isoclinic(cat[name], cat[name]), name
    for a, b in itertools.combinations(names, 2):
        assert are_isoclinic(cat[a], cat[b]) == are_isoclinic(cat[b], cat[a]), (a, b)


def test_isomorphic_implies_isoclinic(cat):
    for name in ("S3", "A4", "Q8", "(C5xC5):C3"):
        assert are_isoclinic(cat[name], named.__wrapped__(name)), name


def test_isoclinism_invariance_of_d_and_supersolvability(cat):
    names = list(cat)
    for a, b in itertools.combinations(names, 2):
        if are_isoclinic(cat[a], cat[b]):
            assert commuting_probability(cat[a]) == commuting_probability(cat[b]), (a, b)
            assert is_supersolvable(cat[a]) == is_supersolvable(cat[b]), (a, b)


def test_witnesses_reverify(cat):
    pairs = [("C2xA4", "A4"), ("D8", "Q8"), ("D12", "S3"), ("A4", "A4")]
    for a, b in pairs:
        w = find_isoclinism(cat[a], cat[b])
        assert w is not None, (a, b)
        assert verify_isoclinism_witness(cat[a], cat[b], w), (a, b)


def test_direct_factor_c2_or_c3_changes_nothing(cat):
    # G x A is isoclinic to G for abelian A: d is unchanged, a witness
    # reverifies, and both supersolvability statements give the same verdict
    for name, G in cat.items():
        for A in (named("C2"), named("C3")):
            if G.order * A.order > 5000:
                continue
            GA = direct_product(G, A)
            assert commuting_probability(GA) == commuting_probability(G), (name, A.order)
            witness = find_isoclinism(G, GA)
            assert witness is not None and verify_isoclinism_witness(G, GA, witness), name
            for verify in (verify_supersolvable_5_16, verify_supersolvable_1_3):
                assert verify(GA) == verify(G), (name, A.order)


def test_witness_deterministic(cat):
    w1 = find_isoclinism(cat["C2xA4"], cat["A4"])
    w2 = find_isoclinism(named.__wrapped__("C2xA4"), named.__wrapped__("A4"))
    assert w1 == w2


# -- stem groups ---------------------------------------------------------------


def test_stem_examples(cat):
    assert is_stem(cat["A4"])
    assert not is_stem(cat["C2xA4"])
    assert is_stem(cat["Q8"])
    assert is_stem(cat["C1"])
    assert not is_stem(cat["C6"])


# -- commutator pairing ---------------------------------------------------------


def test_pairing_over_a_non_central_subgroup_is_refused(monkeypatch):
    # A4's Klein subgroup is normal but not central: commutators are not
    # constant on its cosets, and the well-definedness loop still checks.  A
    # fresh A4: the shared one would keep the patched center's sections
    a4 = named.__wrapped__("A4")
    klein = next(n for n in normal_subgroups(a4) if n.order == 4)
    monkeypatch.setattr(isoclinism, "center", lambda G: klein)
    with pytest.raises(GroupError, match="not well defined"):
        oracle_commutator_pairing(a4)


def test_pairing_of_g_mod_1_shares_the_memo_of_g():
    # S3 has a trivial center, so the section S3/Z(S3) is S3/1, read as S3
    s3 = named.__wrapped__("S3")
    assert _section(s3, center(s3)) is _section(s3, subgroup_generated(s3, ()))
    assert oracle_commutator_pairing(s3, center(s3)) == oracle_commutator_pairing(s3)
    assert are_isoclinic(s3, named("S3"), center(s3))


def test_sections_match_the_oracle_quotient(cat):
    # G/K read in G's table against G/K as a group of its own, for every
    # normal K; G/K's own center is often nontrivial (abelian G/K included)
    targets = [named(key) for key in ("C2", "S3", "D8", "A4")]
    found = 0
    for name, G in cat.items():
        if G.order <= 75:
            for K in normal_subgroups(G):
                Q = oracle_quotient(G, K)
                for H in targets:
                    expected = are_isoclinic(Q, H)
                    assert are_isoclinic(G, H, K) == expected, (name, K.order)
                    found += expected
    assert found > 100


@pytest.mark.parametrize("text", ["1\n0\n", "3\n1 2 0\n1 0 2\n0 1 2\n"])
def test_center_and_sections_skip_an_identity_generator(text):
    # C1 given by the identity alone, and S3 with the identity added to its
    # generators: the centre of G and of each G/K are read past the identity
    G = generate_group(*parse_group_file(text))
    assert G.identity_index in G.generating_indices()
    assert center(G).member_indices == oracle_center(G)
    for K in normal_subgroups(G):
        assert _section(G, K)[0].member_indices == oracle_central_mod(G, K)


def test_section_with_a_nontrivial_center():
    # D16/Z(D16) is D8: its central quotient is D16 mod a subgroup of order 4
    d16 = _dihedral(16)
    z = center(d16)
    assert _section(d16, z)[0].order == 4
    assert are_isoclinic(d16, named("Q8"), z) and not are_isoclinic(d16, named("A4"), z)


@given(generator_sets())
@example((4, [(1, 2, 0, 3), (1, 0, 3, 2)]))  # A4
@example((6, [(1, 2, 0, 3, 4, 5), (1, 0, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)]))  # A4 x C2
@example((6, [(1, 2, 3, 0, 4, 5), (1, 0, 2, 3, 4, 5)]))  # S4
@settings(deadline=None, max_examples=20)
def test_isoclinism_beyond_the_catalog(spec):
    # G x C2 is isoclinic to G, so d(G x C2) = d(G) (Lescot)
    degree, gens = spec
    G = generate_group(degree, [Permutation(g) for g in gens])
    GC = direct_product(G, cyclic(2))
    witness = find_isoclinism(G, GC)
    assert witness is not None and verify_isoclinism_witness(G, GC, witness)
    assert commuting_probability(G) == commuting_probability(GC)
    expected = are_isoclinic(oracle_quotient(G, center(G)), named("A4"))
    assert analyze(G).quotient_by_center_isoclinic_to_A4 == expected


@given(generator_sets())
@example((4, [(1, 2, 0, 3), (1, 0, 3, 2)]))  # A4
@example((6, [(1, 2, 3, 0, 4, 5), (0, 3, 2, 1, 4, 5), (0, 1, 2, 3, 5, 4)]))  # D8 x C2
@example((6, [(1, 2, 3, 0, 4, 5), (1, 0, 2, 3, 4, 5)]))  # S4
@settings(deadline=None, max_examples=20)
def test_walk_matches_the_oracle_pairing(spec):
    # the generator-commutator walk finds the same witness, or none, as a
    # decision on the full pairings, for every section G/K against small
    # targets and against G itself
    degree, gens = spec
    G = generate_group(degree, [Permutation(g) for g in gens])
    for H in [named(key) for key in ("A4", "S3", "D8", "Q8")] + [G]:
        for K in normal_subgroups(G):
            witness = find_isoclinism(G, H, K)
            assert witness == oracle_find_isoclinism(G, H, K), (H.order, K.order)
            if witness is not None and K.is_trivial():
                assert verify_isoclinism_witness(G, H, witness)
    assert find_isoclinism(G, G) is not None
