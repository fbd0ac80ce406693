import functools
import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commprob.constructors import (
    ActionSpec,
    automorphism_from_generator_images,
    catalog_keys,
    catalog_orders,
    cyclic,
    direct_product,
    named,
    semidirect_product,
)
from commprob.isomorphism import iter_isomorphisms
from commprob import constructors, perm
from commprob.perm import GroupError, OrderCapExceeded, Permutation, generate_group
from commprob.probability import class_count, commuting_probability
from commprob.structure import (
    Subgroup,
    find_complement,
    is_normal,
)

from oracles import (
    are_isomorphic,
    cayley_table,
    gl_order,
    oracle_index_of,
    oracle_is_group_table,
    oracle_perm_order,
    oracle_semidirect_table,
)

# every catalog key's degree, element images, generators and last table row
CATALOG_SHA256 = "7a4b4f8d2445dffaff4640fa0151a56367835dd2879a42d8298b02799f3754c1"


def trivial_action(N, H):
    gens = H.generating_indices()
    return ActionSpec(gens, (tuple(range(N.order)),) * len(gens))


def test_cyclic_small():
    assert cyclic(1).order == 1
    assert cyclic(2).order == 2
    with pytest.raises(GroupError):
        cyclic(0)


def test_cyclic_above_order_cap_refused():
    with pytest.raises(OrderCapExceeded, match="exceeded the order cap of 5000"):
        cyclic(5001)


def test_cyclic_15_element_orders():
    orders = sorted(map(oracle_perm_order, cyclic(15).elements))
    assert orders == [1] + [3] * 2 + [5] * 4 + [15] * 8


def test_direct_product_with_trivial(cat):
    G = direct_product(cat["A4"], cyclic(1))
    assert G.order == 12
    assert are_isomorphic(G, cat["A4"])


def test_klein_has_exponent_two(cat):
    assert all(oracle_perm_order(p) <= 2 for p in cat["C2xC2"].elements)


def test_c2_a4_product(cat):
    G = cat["C2xA4"]
    assert G.order == 24
    assert class_count(G) == 8
    assert commuting_probability(G) == Fraction(1, 3)


def test_direct_product_projections(cat):
    A, B = cat["S3"], cat["C4"]
    G = direct_product(A, B)
    # restricting each element to the two point blocks recovers A and B
    left = {p.images[: A.degree] for p in G.elements}
    right = {tuple(v - A.degree for v in p.images[A.degree :]) for p in G.elements}
    assert left == {a.images for a in A.elements}
    assert right == {b.images for b in B.elements}


def automorphism_count(A):
    return len(list(iter_isomorphisms(A, A)))


def test_automorphism_groups_small(cat):
    v4 = cat["C2xC2"]
    aut_v4 = generate_group(v4.order, [Permutation(phi) for phi in iter_isomorphisms(v4, v4)])
    assert aut_v4.order == 6
    assert are_isomorphic(aut_v4, cat["S3"])
    assert automorphism_count(cyclic(2)) == 1
    assert automorphism_count(cat["C3xC3"]) == 48


def test_automorphism_group_elementary_abelian_orders(cat):
    cases = {
        (2, 2): cat["C2xC2"],
        (3, 2): cat["C3xC3"],
        (2, 3): cat["C2xC2xC2"],
        (5, 2): cat["C5xC5"],
    }
    for (p, k), G in cases.items():
        assert automorphism_count(G) == gl_order(p, k), (p, k)


def test_trivial_action_gives_direct_product(cat):
    for A, B in ((cyclic(3), cyclic(4)), (cat["C2xC2"], cyclic(3))):
        sd = semidirect_product(A, B, trivial_action(A, B))
        dp = direct_product(A, B)
        assert sd.order == dp.order
        assert are_isomorphic(sd, dp)


def test_semidirect_klein_c3_is_a4(cat):
    v4 = cat["C2xC2"]
    act = automorphism_from_generator_images(v4, [1, 2], [2, 3])
    G = semidirect_product(v4, cyclic(3), ActionSpec((1,), (act,)))
    assert G.order == 12
    assert are_isomorphic(G, cat["A4"])


def test_semidirect_embeds_normal_factor(cat):
    v4 = cat["C2xC2"]
    act = automorphism_from_generator_images(v4, [1, 2], [2, 3])
    G = semidirect_product(v4, cyclic(3), ActionSpec((1,), (act,)))
    # (a, h) has index a * |H| + h
    n_embed = [a * 3 for a in range(v4.order)]
    h_embed = list(range(3))
    N = Subgroup(G, n_embed)
    assert is_normal(G, N)
    H = find_complement(G, N)
    assert H is not None and H.order == 3
    assert sorted(h_embed) == sorted(H.member_indices)


def test_semidirect_rejects_non_automorphism(cat):
    v4 = cat["C2xC2"]
    broken = (1, 0, 2, 3)  # a bijection that moves the identity
    with pytest.raises(GroupError) as err:
        semidirect_product(v4, cyclic(2), ActionSpec((1,), (broken,)))
    assert "automorphism" in str(err.value)


def test_semidirect_checks_the_action_on_every_generator_of_n(cat):
    # a bijection of C2xC4 that respects products with N's first generator
    # but not with its second: every generator's row is checked
    n = cat["C2xC4"]
    assert n.generating_indices() == (4, 1)
    broken = (0, 1, 2, 5, 6, 7, 4, 3)
    with pytest.raises(GroupError, match="is not an automorphism: image of 1"):
        semidirect_product(n, cyclic(2), ActionSpec((1,), (broken,)))


def test_semidirect_rejects_wrong_order_action(cat):
    # an order-2 automorphism assigned to a generator of C3 cannot extend
    v4 = cat["C2xC2"]
    swap = automorphism_from_generator_images(v4, [1, 2], [2, 1])
    with pytest.raises(GroupError) as err:
        semidirect_product(v4, cyclic(3), ActionSpec((1,), (swap,)))
    assert "homomorphism" in str(err.value)


def test_semidirect_rejects_a_generator_acting_two_ways(cat):
    # C3's generator listed twice, acting by two different automorphisms
    # (inverse to each other): each alone is a homomorphism, together none
    v4 = cat["C2xC2"]
    act = automorphism_from_generator_images(v4, [1, 2], [2, 3])
    inverse = tuple(act.index(a) for a in range(4))
    with pytest.raises(GroupError, match="homomorphism") as err:
        semidirect_product(v4, cyclic(3), ActionSpec((1, 1), (act, inverse)))
    assert "psi(0*1)" in str(err.value)


def test_semidirect_names_the_acting_generator_that_clashes(cat):
    # C4 acted on by 2 (trivially) and 1 (by an automorphism of order 3): the
    # walk meets 2 first as 1*1, then the relation at generator 1 clashes,
    # and the message names generator 1, not the first listed
    rotate = automorphism_from_generator_images(cat["C2xC2"], [1, 2], [2, 3])
    action = ActionSpec((2, 1), (tuple(range(4)), rotate))
    with pytest.raises(GroupError, match=r"relation psi\(1\*1\) = psi\(1\)\*psi\(1\) fails"):
        semidirect_product(cat["C2xC2"], cyclic(4), action)


def test_semidirect_rejects_non_generating_set(cat):
    v4 = cat["C2xC2"]
    c4 = cyclic(4)
    ident = tuple(range(4))
    with pytest.raises(GroupError) as err:
        semidirect_product(v4, c4, ActionSpec((2,), (ident,)))
    assert "generate" in str(err.value)


def test_semidirect_unfilled_row_is_a_group_error():
    # N's recorded generator 2 generates only {0, 2} of C4, so right
    # multiplication from the generator rows leaves rows of the product empty
    N = perm.FiniteGroup._over_table(cayley_table(cyclic(4)), (2,))
    H = cyclic(2)
    with pytest.raises(GroupError, match="do not generate"):
        semidirect_product(N, H, trivial_action(N, H))


@pytest.fixture
def fresh_named(monkeypatch):
    """A memo of named() local to the test: every catalog group it builds,
    factors included, is new, and the shared instances are left untouched."""
    fresh = functools.cache(named.__wrapped__)
    monkeypatch.setattr(constructors, "named", fresh)
    return fresh


def test_semidirect_product_holds_only_its_graph_rows():
    # built from its generators' rows, which the graph inverts; every other
    # row of (C5xC5):C15 waits for first use
    G = named.__wrapped__("(C5xC5):C15")
    gens = G.generating_indices()
    built = {i for i, row in enumerate(G._rows) if row is not None}
    assert built <= {0, *gens, *map(G.inv, gens)}
    assert len(cayley_table(G)) == 375


def test_semidirect_product_reads_rows_of_few_elements(monkeypatch, fresh_named):
    # C2^3 : C7 is built, its action checked and its generators' rows written
    # from the rows and columns of generators of N and H: fewer than |N| rows
    # of N and fewer than |H| of H are ever built
    built = []
    original = constructors.semidirect_product
    monkeypatch.setattr(constructors, "semidirect_product", lambda N, H, action, **kwargs: (
        built.append((N, H)) or original(N, H, action, **kwargs)))
    G = fresh_named("C2^3:C7")
    ((N, H),) = built
    assert (G.order, N.order, H.order) == (56, 8, 7)
    for group in (N, H):
        assert sum(row is not None for row in group._rows) < group.order


def table_lists(G):
    return [row.tolist() for row in cayley_table(G)]


def test_catalog_semidirect_products_match_oracle_table(monkeypatch, fresh_named):
    built = []
    original = constructors.semidirect_product

    def recording(N, H, action, **kwargs):
        G = original(N, H, action, **kwargs)
        built.append((N, H, action, G))
        return G

    monkeypatch.setattr(constructors, "semidirect_product", recording)
    for key in catalog_keys():
        fresh_named(key)
    assert len(built) == 6  # C7:C3, Q8:C3, C2^3:C7, (C5xC5):C3, and two for (C5xC5):C15
    for N, H, action, G in built:
        images = dict(zip(action.acting_generators, action.automorphism_images))
        assert table_lists(G) == oracle_semidirect_table(N, H, images)


SMALL_NORMAL = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C2xC2", "C3xC3", "C2xC4", "Q8")


@st.composite
def cyclic_actions(draw):
    """A small N, an automorphism of it, and a cyclic H whose generator acts
    by it: |H| is a multiple of the automorphism's order."""
    N = named(draw(st.sampled_from(SMALL_NORMAL)))
    auts = list(iter_isomorphisms(N, N))
    phi = tuple(draw(st.sampled_from(auts)))
    order = oracle_perm_order(Permutation(phi))
    return N, cyclic(order * draw(st.integers(1, 3))), phi


@given(cyclic_actions())
@settings(deadline=None, max_examples=25)
def test_semidirect_table_matches_oracle_on_cyclic_actions(spec):
    N, H, phi = spec
    gens = (1,) if H.order > 1 else ()
    G = semidirect_product(N, H, ActionSpec(gens, (phi,) * len(gens)))
    assert table_lists(G) == oracle_semidirect_table(N, H, dict.fromkeys(gens, phi))


def test_named_examples():
    a4 = named("A4")
    assert a4.order == 12
    assert commuting_probability(a4) == Fraction(1, 3)
    g56 = named("C2^3:C7")
    assert g56.order == 56
    assert commuting_probability(g56) == Fraction(1, 7)
    g75 = named("(C5xC5):C3")
    assert g75.order == 75
    assert class_count(g75) == 11
    assert commuting_probability(g75) == Fraction(11, 75)


def test_named_order_375():
    G = named("(C5xC5):C15")
    assert G.order == 375
    assert commuting_probability(G) == Fraction(23, 375)


def test_named_returns_one_instance_per_key():
    for key in catalog_keys():
        assert named(key) is named(key), key
    assert named.__wrapped__("A4") is not named("A4")


# counts the groups (FiniteGroup._over_table) and Cayley graphs
# (perm._cayley_graph) built by the work named in argv[1]
_COUNT_BUILDS = """
import sys
from commprob import perm
from commprob.constructors import catalog_keys, named
from commprob.theorems import run_catalog_verification

counts = [0, 0]
over_table, cayley_graph = perm.FiniteGroup._over_table.__func__, perm._cayley_graph

def group(cls, *args, **kwargs):
    counts[0] += 1
    return over_table(cls, *args, **kwargs)

def graph(*args):
    counts[1] += 1
    return cayley_graph(*args)

perm.FiniteGroup._over_table, perm._cayley_graph = classmethod(group), graph
if sys.argv[1] == "verify":
    run_catalog_verification()
else:
    [named(key) for key in catalog_keys()]
print(*counts)
"""


@pytest.mark.parametrize("work, built", [("verify", "33 32"), ("named", "33 14")])
def test_catalog_builds_each_group_once_per_process(work, built):
    # in a fresh process: the 32 catalog groups and the order-125 stage of
    # (C5xC5):C15, each product's factors taken from named(); the catalog
    # run builds no group of its own and one graph per group it analyzes
    env = {**os.environ, "PYTHONPATH": str(Path(constructors.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_BUILDS, work],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout.strip()) == (0, built), proc.stderr


def test_named_unknown_lists_keys():
    with pytest.raises(GroupError) as err:
        named("M11")
    assert "A4" in str(err.value)


def test_catalog_orders_match(cat):
    orders = catalog_orders()
    for name, G in cat.items():
        assert G.order == orders[name], name


def test_catalog_canonical_order():
    keys = catalog_keys()
    orders = catalog_orders()
    assert keys == sorted(keys, key=lambda k: (orders[k], k))
    assert len(keys) >= 20
    assert orders[keys[0]] == 1 and orders[keys[-1]] == 375


def test_catalog_regeneration_deterministic(cat):
    for name in catalog_keys():
        fresh = named.__wrapped__(name)
        assert [p.images for p in fresh.elements] == [
            p.images for p in cat[name].elements
        ], name


def test_catalog_golden_dump(cat):
    digest = hashlib.sha256()
    for name in catalog_keys():
        G = cat[name]
        images = [p.images for p in G.elements]
        last_row = cayley_table(G)[-1].tolist()
        digest.update(repr((name, G.degree, images, G.generating_indices(), last_row)).encode())
    assert digest.hexdigest() == CATALOG_SHA256


def test_catalog_tables_are_group_tables(cat):
    # no constructor checks the rows it hands over; these are its tables
    for name, G in cat.items():
        if G.order <= 75:
            assert oracle_is_group_table(cayley_table(G)), name


@pytest.mark.parametrize(
    "rows",
    [
        [],  # no identity
        [[1, 0], [0, 1]],  # row 0 is not the identity's
        [[0, 1], [1, 5]],  # an entry outside 0..n-1
        [[0, 1, 2], [1, 1, 0], [2, 0, 1]],  # a row that is not a permutation
        [[0, 1, 2], [1, 0, 2], [2, 1, 0]],  # rows permute, columns 1 and 2 do not
        # a Latin square with identity 0 whose product is not associative
        [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]],
    ],
)
def test_oracle_refuses_non_group_tables(rows):
    assert not oracle_is_group_table(rows)


def test_quaternion_element_orders(cat):
    orders = sorted(map(oracle_perm_order, cat["Q8"].elements))
    assert orders == [1, 2] + [4] * 6


def test_sl23_shape(cat):
    G = cat["Q8:C3"]
    assert G.order == 24
    assert class_count(G) == 7
    assert commuting_probability(G) == Fraction(7, 24)


def test_fixed_point_free_c3_actions_agree(cat):
    # conjugate the order-3 action by the swap of the two C5 factors; the
    # resulting group must be isoclinic (in fact isomorphic) to the original
    from commprob.isoclinism import are_isoclinic

    n55 = direct_product(cyclic(5), cyclic(5))
    e1 = oracle_index_of(n55, Permutation([1, 2, 3, 4, 0, 5, 6, 7, 8, 9]))
    e2 = oracle_index_of(n55, Permutation([0, 1, 2, 3, 4, 6, 7, 8, 9, 5]))
    inv12 = n55.inv(n55.mul(e1, e2))
    act = automorphism_from_generator_images(n55, [e1, e2], [e2, inv12])
    swap = automorphism_from_generator_images(n55, [e1, e2], [e2, e1])
    conj = tuple(swap[act[swap[i]]] for i in range(n55.order))
    g_a = semidirect_product(n55, cyclic(3), ActionSpec((1,), (act,)))
    g_b = semidirect_product(n55, cyclic(3), ActionSpec((1,), (conj,)))
    assert are_isomorphic(g_a, g_b)
    assert are_isoclinic(g_a, cat["(C5xC5):C3"])


def test_order_cap_on_products():
    with pytest.raises(GroupError):
        direct_product(cyclic(100), cyclic(100))
    with pytest.raises(GroupError, match="order cap of 5000"):
        semidirect_product(cyclic(100), cyclic(100), trivial_action(cyclic(100), cyclic(100)))


def test_semidirect_above_16_bit_limit_refused_whatever_max_order():
    # 257 * 256 = 65792 > 65536: refused before any row is built
    N, H = cyclic(257), cyclic(256)
    with pytest.raises(GroupError, match="order cap of 65536"):
        semidirect_product(N, H, trivial_action(N, H), max_order=10**6)


def test_products_above_16_bit_limit_refused_before_building(monkeypatch):
    # with the index limit lowered to 20, C11 x C10 (order 110) is refused
    # before it has built as many permutations as it has elements
    monkeypatch.setattr(perm, "MAX_GROUP_ORDER", 20)
    monkeypatch.setattr(constructors, "MAX_GROUP_ORDER", 20)
    a, b = cyclic(11), cyclic(10)
    ga, gb = a.elements[1], b.elements[1]  # build these before counting
    c11 = Permutation(ga.images + tuple(range(11, 21)))
    c10 = Permutation(tuple(range(11)) + tuple(v + 11 for v in gb.images))
    built = [0]
    init = Permutation.__init__

    def counting_init(self, images):
        built[0] += 1
        init(self, images)

    monkeypatch.setattr(Permutation, "__init__", counting_init)
    with pytest.raises(GroupError, match="order cap of 20"):
        direct_product(a, b)
    assert built[0] == 0
    with pytest.raises(OrderCapExceeded, match="order cap of 20"):
        generate_group(21, [c11, c10], max_order=10**6)
    assert built[0] < 110
