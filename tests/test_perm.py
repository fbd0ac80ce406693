import random
import sys
import threading
import time
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commprob.constructors import cyclic, named
from commprob.perm import (
    MAX_GROUP_ORDER,
    FiniteGroup,
    GroupError,
    OrderCapExceeded,
    Permutation,
    _order_divisor,
    _orbits,
    element_order,
    generate_group,
)

from oracles import (
    cayley_table, oracle_index_of, oracle_orbit, oracle_perm_order, oracle_semidirect_table,
)
from strategies import generator_sets as shared_generator_sets

THREE_CYCLE = Permutation([1, 2, 0])
A4_GENS = [Permutation([1, 2, 0, 3]), Permutation([1, 0, 3, 2])]


def test_compose_identity():
    p = Permutation([2, 0, 1])
    assert Permutation(range(3)) * p == p
    assert p * Permutation(range(3)) == p


def test_compose_three_cycle_squared():
    # pointwise: i -> p[p[i]] with p = [1,2,0]
    assert (THREE_CYCLE * THREE_CYCLE).images == (2, 0, 1)


def test_compose_order_convention():
    # p * q applies p first: (p*q)(i) == q(p(i))
    p = Permutation([1, 0, 2])
    q = Permutation([0, 2, 1])
    pq = p * q
    for i in range(3):
        assert pq.images[i] == q.images[p.images[i]]


def test_inverse_law():
    # the group's inverse of an element, composed with it either way round
    p = Permutation([3, 1, 0, 2])
    G = generate_group(4, [p])
    p_inv = G.elements[G.inv(oracle_index_of(G, p))]
    assert (p * p_inv).images == (p_inv * p).images == (0, 1, 2, 3)


def test_compose_degree_mismatch():
    with pytest.raises(GroupError):
        Permutation([1, 0]) * Permutation([1, 2, 0])


@pytest.mark.parametrize("bad", [[0, 0, 1], [0, 3, 1], [1, 2], []])
def test_invalid_permutation(bad):
    with pytest.raises(GroupError):
        Permutation(bad)


def test_generate_cyclic():
    G = generate_group(3, [THREE_CYCLE])
    assert G.order == 3


def test_generate_a4():
    G = generate_group(4, A4_GENS)
    assert G.order == 12


def test_generate_trivial():
    G = generate_group(5, [])
    assert G.order == 1
    assert G.identity_index == 0


def test_generate_degree_mismatch():
    with pytest.raises(GroupError):
        generate_group(3, [Permutation([1, 0])])


def test_order_cap_named_in_error():
    with pytest.raises(OrderCapExceeded) as err:
        generate_group(4, [Permutation([1, 2, 3, 0]), Permutation([1, 0, 2, 3])], max_order=10)
    assert "10" in str(err.value)


def test_element_order_examples():
    G = generate_group(4, A4_GENS)
    assert element_order(G, G.identity_index) == 1
    three_cycle = oracle_index_of(G, Permutation([1, 2, 0, 3]))
    double = oracle_index_of(G, Permutation([1, 0, 3, 2]))
    assert element_order(G, three_cycle) == 3
    assert element_order(G, double) == 2
    with pytest.raises(IndexError):
        element_order(G, 99)


def test_canonical_sort_and_identity_first():
    G = generate_group(4, A4_GENS)
    imgs = [p.images for p in G.elements]
    assert imgs == sorted(imgs)
    assert G.elements[G.identity_index].images == (0, 1, 2, 3)


def test_regenerate_idempotent():
    G = generate_group(4, A4_GENS)
    H = generate_group(4, list(G.elements))
    assert [p.images for p in G.elements] == [p.images for p in H.elements]


def test_deterministic_indices_across_runs():
    G1 = generate_group(4, A4_GENS)
    G2 = generate_group(4, [Permutation(p.images) for p in A4_GENS])
    assert [p.images for p in G1.elements] == [p.images for p in G2.elements]
    assert G1.generating_indices() == G2.generating_indices()


def test_closure_exhaustive_small_catalog(cat):
    for name, G in cat.items():
        if G.order > 200:
            continue
        table = cayley_table(G)
        n = G.order
        assert all(0 <= table[i][j] < n for i in range(n) for j in range(n)), name


def test_mul_table_matches_direct_composition(cat):
    for name in ("S3", "A4", "Q8", "C7:C3"):
        G = cat[name]
        table = cayley_table(G)
        for i in range(G.order):
            for j in range(G.order):
                expected = oracle_index_of(G, G.elements[i] * G.elements[j])
                assert table[i][j] == expected, name


def test_inverse_table(cat):
    G = cat["S4"]
    for i in range(G.order):
        assert G.mul(i, G.inv(i)) == G.identity_index


def test_order_above_16_bit_limit_refused():
    # S9 has order 362880: a max_order above 65536 does not lift the limit,
    # the closure stops as it passes it
    cycle, swap = Permutation([*range(1, 9), 0]), Permutation([1, 0, *range(2, 9)])
    with pytest.raises(GroupError, match=str(MAX_GROUP_ORDER)):
        generate_group(9, [cycle, swap], max_order=400_000)


def test_closure_checks_no_product(monkeypatch):
    # the generators are checked once when made; the closure walks image
    # tuples, and neither it nor FiniteGroup checks a product again
    checked = []
    original = Permutation.__init__

    def recording(self, images):
        checked.append(images)
        original(self, images)

    monkeypatch.setattr(Permutation, "__init__", recording)
    G = generate_group(4, A4_GENS)
    assert G.order == 12 and checked == []


def test_non_associative_table_refused():
    # a Latin square with identity 0 that is no group table (the product is
    # not associative), handed to the kernel with the rows of its generators
    # alone or whole: on first use, two words for one element have different
    # inverses
    rows = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    for given in ({0, 1, 2}, set(range(5))):
        G = FiniteGroup._over_table(
            [array("H", r) if i in given else None for i, r in enumerate(rows)], (1, 2)
        )
        with pytest.raises(GroupError, match="inverses disagree"):
            G.inv(0)


@st.composite
def generator_sets(draw):
    degree = draw(st.integers(1, 6))
    count = draw(st.integers(0, 3))
    return degree, [Permutation(draw(st.permutations(range(degree)))) for _ in range(count)]


@given(generator_sets())
@settings(deadline=None, max_examples=20)
def test_kernel_matches_permutation_products(spec):
    degree, gens = spec
    G = generate_group(degree, gens)
    els = G.elements
    for i in range(G.order):
        assert oracle_index_of(G, els[i] * els[G.inv(i)]) == G.identity_index
        for j in range(G.order):
            assert G.mul(i, j) == oracle_index_of(G, els[i] * els[j])
    # inverses and orders, read off the table, for G and for the group its
    # table gives (whose elements are G's right regular permutations)
    table_given = FiniteGroup._over_table(cayley_table(G), G.generating_indices())
    for group in (G, table_given):
        for i in range(group.order):
            p = group.elements[i]
            assert (p * group.elements[group.inv(i)]).images == tuple(range(group.degree))
            assert element_order(group, i) == oracle_perm_order(p)


def test_element_is_the_kept_permutation_or_a_column():
    # for a closure the kept permutation; for a group given by rows, column i
    # of its table, a -> a * i, read before the full tuple is built
    S4 = generate_group(4, [Permutation([1, 2, 3, 0]), Permutation([1, 0, 2, 3])])
    assert [S4.element(i) for i in range(24)] == list(S4.elements)
    for name in ("Q8", "C7:C3"):
        G = named.__wrapped__(name)
        rows = cayley_table(G)
        columns = [G.element(i) for i in range(G.order)]
        assert [p.images for p in columns] == [tuple(r[i] for r in rows) for i in range(G.order)]
        assert columns == list(G.elements), name


def composed_table(G):
    return [[oracle_index_of(G, p * q) for q in G.elements] for p in G.elements]


@pytest.mark.parametrize("degree", [1, 2])
def test_kernel_on_the_smallest_groups(degree):
    # C1 and C2, the identity listed as a generator: on C1 its one-index
    # itemgetter would return a scalar, and it never reaches a new row
    ident = Permutation(range(degree))
    G = generate_group(degree, [ident, Permutation(reversed(range(degree)))])
    assert [row.tolist() for row in cayley_table(G)] == composed_table(G)


def test_kernel_skips_identity_generators():
    # the identity listed among the generators, first and again later
    ident = Permutation(range(4))
    G = generate_group(4, [ident, *A4_GENS, ident])
    assert G.generating_indices()[0] == G.identity_index
    assert [row.tolist() for row in cayley_table(G)] == composed_table(G)
    bare = generate_group(4, [ident, A4_GENS[0], ident, A4_GENS[1]])
    assert cayley_table(bare) == cayley_table(G)


def test_first_use_from_several_threads_sees_a_whole_table():
    # threads racing to build the same rows and columns on first use (each in
    # its own order), then the whole table: every thread must read whole,
    # equal arrays and inverses, also when it arrives while another is still
    # building (staggered starts)
    s5_gens = [Permutation([1, 2, 3, 4, 0]), Permutation([1, 0, 2, 3, 4])]
    reference = generate_group(5, s5_gens)
    table = cayley_table(reference)
    columns = [array("H", [row[g] for row in table]) for g in range(120)]
    expected = (list(table), columns, [reference.inv(i) for i in range(120)], table)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            G = generate_group(5, s5_gens)
            seen, start = [], threading.Barrier(8)

            def use(k):
                order = random.Random(k).sample(range(G.order), G.order)
                start.wait(timeout=30)
                time.sleep(k / 2000)
                rows = {i: G.row(i) for i in order}
                cols = {g: G.column(g) for g in reversed(order)}
                seen.append((
                    [rows[i] for i in range(G.order)], [cols[g] for g in range(G.order)],
                    [G.inv(i) for i in range(G.order)], cayley_table(G),
                ))

            threads = [threading.Thread(target=use, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert seen == [expected] * 8
    finally:
        sys.setswitchinterval(interval)


def _given_by_rows():
    """Groups given by rows, each with the table its construction defines:
    cyclic groups, Q8 (the right regular permutations of a fresh copy's
    table, composed) and semidirect products (the oracle's formula)."""
    groups = [(cyclic(n), [[(i + j) % n for j in range(n)] for i in range(n)]) for n in (1, 2, 6)]
    q8 = cayley_table(named.__wrapped__("Q8"))
    regular = [Permutation([row[i] for row in q8]) for i in range(8)]
    index = {p.images: i for i, p in enumerate(regular)}
    products = [[index[(p * q).images] for q in regular] for p in regular]
    groups.append((named.__wrapped__("Q8"), products))
    c7, c3 = cyclic(7), cyclic(3)
    squaring = tuple(2 * r % 7 for r in range(7))
    groups.append((named.__wrapped__("C7:C3"), oracle_semidirect_table(c7, c3, {1: squaring})))
    return groups


@given(
    st.one_of(shared_generator_sets(), st.integers(0, 4)),
    st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), max_size=40),
)
@settings(deadline=None, max_examples=60)
def test_lazy_rows_and_columns_match_the_oracle(spec, requests):
    # rows and columns built on first use, in any order, are the products the
    # oracle gives; the table taken after some of them equals a fresh one's
    if isinstance(spec, int):
        G, products = _given_by_rows()[spec]
        fresh = _given_by_rows()[spec][0]
    else:
        degree, gens = spec
        G, fresh = (generate_group(degree, [Permutation(g) for g in gens]) for _ in range(2))
        els = G.elements
        index = {p.images: i for i, p in enumerate(els)}
        products = [[index[(p * q).images] for q in els] for p in els]
    n = G.order
    for is_row, k in requests:
        x = k % n
        if is_row:
            assert G.row(x).tolist() == products[x]
        else:
            assert G.column(x).tolist() == [products[y][x] for y in range(n)]
        assert products[x][G.inv(x)] == 0
    assert cayley_table(G) == cayley_table(fresh)
    assert [row.tolist() for row in cayley_table(G)] == products


def test_deep_rows_and_columns_keep_only_what_they_need():
    # C_40 closed from a 40-cycle (index k is its k-th power, so products
    # add indices): its tree over 1 and -1 is a path, 20 steps deep.  A
    # product read before its row or column is built walks up the tree and
    # builds nothing; a column walked down the tree keeps each step; a row
    # whose inverse's column is built is two gathers from it and keeps no
    # other row; a row whose inverse's column is not built is walked as well
    G = generate_group(40, [Permutation([*range(1, 40), 0])])

    def built():
        return sum(r is not None for r in G._rows), sum(c is not None for c in G._cols)

    G.inv(0)
    rows, cols = built()
    assert G.mul(20, 19) == 39 and built() == (rows, cols)
    assert G.column(21).tolist() == [(x + 21) % 40 for x in range(40)]
    assert built()[1] > cols + 1
    rows, cols = built()
    assert G.row(19).tolist() == [(19 + x) % 40 for x in range(40)]
    assert built() == (rows + 1, cols)
    assert G.row(25).tolist() == [(25 + x) % 40 for x in range(40)]
    assert built()[0] > rows + 2


@given(shared_generator_sets(), st.integers(1, 800))
@settings(deadline=None, max_examples=60)
def test_order_cap_refused_exactly_when_exceeded(spec, cap):
    # the refusal before the closure (orbit lengths and generator orders) and
    # the one during it together refuse exactly the groups above the cap
    degree, gens = spec
    perms = [Permutation(g) for g in gens]
    order = generate_group(degree, perms).order
    if order > cap:
        with pytest.raises(OrderCapExceeded, match=f"order cap of {cap}$"):
            generate_group(degree, perms, max_order=cap)
    else:
        assert generate_group(degree, perms, max_order=cap).order == order
    assert order % _order_divisor(degree, gens) == 0


def test_large_degree_refused_before_the_closure():
    # S_10000's generators: the orbit of point 0 alone has 10000 points, so
    # the closure is never started (it would hold 5000 tuples of 10000 points)
    n = 10_000
    cycle, swap = Permutation([*range(1, n), 0]), Permutation([1, 0, *range(2, n)])
    assert _order_divisor(n, [cycle.images, swap.images]) >= n
    started = time.perf_counter()
    with pytest.raises(OrderCapExceeded, match="order cap of 5000$"):
        generate_group(n, [cycle, swap])
    assert time.perf_counter() - started < 0.5


@st.composite
def index_maps(draw):
    """Permutations of 0..n-1 as index maps, the identity map among them at
    times, and a domain: some points of 0..n-1 in any order, repeats allowed."""
    n = draw(st.integers(1, 12))
    maps = draw(st.lists(st.permutations(range(n)), max_size=3))
    if draw(st.booleans()):
        maps.insert(draw(st.integers(0, len(maps))), list(range(n)))
    domain = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    return n, [tuple(m) for m in maps], domain


@given(index_maps())
def test_orbits_match_the_set_oracle(spec):
    # the orbits partition the points they reach from the domain, each is
    # closed under the maps, and each starts at its first point in the
    # domain, in the domain's order
    n, maps, domain = spec
    orbits = _orbits(domain, maps, n)
    points = [x for orbit in orbits for x in orbit]
    assert len(points) == len(set(points)) and set(domain) <= set(points)
    for orbit in orbits:
        assert frozenset(orbit) == oracle_orbit(orbit[0], maps)
        assert orbit[0] == next(x for x in domain if x in orbit)
    starts = [orbit[0] for orbit in orbits]
    assert starts == sorted(starts, key=domain.index)


def test_rows_whose_generators_do_not_generate_are_refused_on_first_use():
    # S3's rows with one transposition as the only generator: its walk
    # reaches 2 of 6 elements, so the graph is refused instead of giving
    # wrong inverses and rows
    S3 = generate_group(3, [THREE_CYCLE, Permutation([1, 0, 2])])
    full = cayley_table(S3)
    t = oracle_index_of(S3, Permutation([1, 0, 2]))
    rows = [None] * 6
    rows[0], rows[t] = full[0], full[t]
    G = FiniteGroup._over_table(rows, [t])
    for first_use in (lambda: G.inv(2), lambda: G.row(5), lambda: cayley_table(G)):
        with pytest.raises(GroupError, match="do not generate"):
            first_use()


perm_strategy = st.integers(2, 6).flatmap(
    lambda n: st.permutations(list(range(n)))
)


@given(st.integers(2, 6).flatmap(lambda n: st.tuples(*[st.permutations(list(range(n)))] * 3)))
def test_associativity(triple):
    p, q, r = (Permutation(t) for t in triple)
    assert ((p * q) * r).images == (p * (q * r)).images


@given(perm_strategy)
def test_inverse_roundtrip(images):
    p = Permutation(images)
    G = generate_group(p.degree, [p])
    x = oracle_index_of(G, p)
    assert G.inv(G.inv(x)) == x
    assert (p * G.elements[G.inv(x)]).images == tuple(range(p.degree))


@given(perm_strategy)
@settings(deadline=None)
def test_element_order_divides_group_order(images):
    p = Permutation(images)
    G = generate_group(p.degree, [p])
    assert G.order % oracle_perm_order(p) == 0
    assert G.order == oracle_perm_order(p)
