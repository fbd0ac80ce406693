"""Independent brute-force oracles for cross-checking the library.

Everything here follows the defining formula directly, with no shortcuts
shared with the implementation under test: conjugation runs over every
group element, commutator subgroups close over the full commutator set,
and the subgroup lattice is enumerated from generating seeds.  Quotients
and subgroups as groups of their own are closures of permutations.  Two
helpers are thin wrappers instead: :func:`find_isomorphism` and
:func:`are_isomorphic` take the first map of the library's isomorphism search.
The commutator pairing and the isoclinism decision built on it number
sections as the library does (``isoclinism._section``), so that their
witnesses can be compared with the library's, but evaluate every
commutator of the section.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import combinations

from commprob.isoclinism import IsoclinismWitness, _section
from commprob.isomorphism import iter_isomorphisms
from commprob.perm import FiniteGroup, GroupError, Permutation, generate_group
from commprob.structure import Subgroup, _coset_data, subgroup_generated


def cayley_table(G: FiniteGroup) -> tuple:
    """The whole Cayley table, ``table[i][j] == G.mul(i, j)``: every row,
    each read through ``G.row``."""
    return tuple(map(G.row, range(G.order)))


def oracle_index_of(G: FiniteGroup, p: Permutation) -> int:
    """The index of the permutation p in G, found by bisection: G's elements
    are in canonical order, their image tuples ascending."""
    i = bisect_left(G.elements, p.images, key=lambda q: q.images)
    if i == G.order or G.elements[i] != p:
        raise GroupError(f"{p!r} is not an element of this group")
    return i


def oracle_conjugacy_classes(G: FiniteGroup) -> list[tuple[int, ...]]:
    """Orbit of every element under conjugation by all of G."""
    classes = []
    seen = set()
    for x in range(G.order):
        if x in seen:
            continue
        orbit = {G.mul(G.mul(G.inv(g), x), g) for g in range(G.order)}
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return classes


def oracle_orbit(x: int, maps) -> frozenset:
    """Every point reached from x by applying the index maps, as sets: the
    reached set is grown by all images at once until it stops changing."""
    orbit = {x}
    while (grown := orbit | {m[y] for y in orbit for m in maps}) != orbit:
        orbit = grown
    return frozenset(orbit)


def oracle_center(G: FiniteGroup) -> tuple[int, ...]:
    """Every x with x * g = g * x for all g: row x of the table against its
    column x."""
    rows = cayley_table(G)
    return tuple(x for x in range(G.order) if rows[x].tolist() == [row[x] for row in rows])


def oracle_central_mod(G: FiniteGroup, K: Subgroup) -> tuple[int, ...]:
    """Every g whose coset gK commutes with the coset xK of every x in G:
    gx and xg lie in one right coset of K, each coset the set of products
    k * y over K's members k, numbered as first met."""
    rows, number = cayley_table(G), {}
    coset = [
        number.setdefault(frozenset(rows[k][y] for k in K.member_indices), len(number))
        for y in range(G.order)
    ]
    return tuple(
        g for g in range(G.order)
        if all(coset[rows[g][x]] == coset[rows[x][g]] for x in range(G.order))
    )


def oracle_centralizer(G: FiniteGroup, x: int) -> tuple[int, ...]:
    return tuple(g for g in range(G.order) if G.mul(g, x) == G.mul(x, g))


def _perm_closure(gens: list[Permutation], identity: Permutation) -> set:
    """Every product of the generator permutations, by composition."""
    seen = {identity}
    frontier = {identity}
    while frontier:
        frontier = {p * g for p in frontier for g in gens} - seen
        seen |= frontier
    return seen


def _greedy(perms: list[Permutation], identity: Permutation) -> list[Permutation]:
    """Each permutation not in the closure of those chosen before it."""
    chosen: list[Permutation] = []
    closed = {identity}
    for p in perms:
        if p not in closed:
            chosen.append(p)
            closed = _perm_closure(chosen, identity)
    return chosen


def oracle_greedy_generators(G: FiniteGroup) -> tuple[int, ...]:
    """Greedy generating sequence in canonical order: every element not in
    the subgroup generated by those chosen before it.  Subgroups are closed
    by composing permutations."""
    greedy = _greedy(list(G.elements), Permutation(range(G.degree)))
    return tuple(oracle_index_of(G, p) for p in greedy)


def oracle_coset_action(G: FiniteGroup, N: tuple[int, ...], g: int) -> Permutation:
    """How g permutes the right cosets Nx, numbered by their lowest element
    index, with cosets formed by composing permutations."""
    normal = [G.elements[m] for m in N]
    coset_id: dict[Permutation, int] = {}
    reps = []
    for x in G.elements:
        if x not in coset_id:
            reps.append(x)
            coset_id.update((n * x, len(reps) - 1) for n in normal)
    return Permutation(coset_id[r * G.elements[g]] for r in reps)


def oracle_gallagher_equality(G: FiniteGroup, N: tuple[int, ...]) -> bool:
    """Whether every coset gN has centralizer in G/N equal to the image of
    C_G(g): the cosets cN of every c commuting with g against the cosets hN
    with [g, h] in N, cosets and commutators formed in G."""
    nset = set(N)
    coset = [frozenset(G.mul(x, n) for n in N) for x in range(G.order)]
    for g in range(G.order):
        image = {coset[c] for c in range(G.order) if G.mul(g, c) == G.mul(c, g)}
        commuting_mod_n = {
            coset[h]
            for h in range(G.order)
            if G.mul(G.mul(G.inv(g), G.inv(h)), G.mul(g, h)) in nset
        }
        if image != commuting_mod_n:
            return False
    return True


def oracle_quotient(G: FiniteGroup, N: Subgroup) -> FiniteGroup:
    """G/N as a permutation group of its own: the closure of how G's
    generators permute the right cosets of N (:func:`oracle_coset_action`)."""
    actions = [oracle_coset_action(G, N.member_indices, g) for g in G.generating_indices()]
    return generate_group(G.order // N.order, actions)


def oracle_subgroup(G: FiniteGroup, H: Subgroup) -> FiniteGroup:
    """H as a permutation group of its own: the closure of its members'
    permutations, greedily chosen.  Both orders are lexicographic on images,
    so element i is H's i-th member."""
    perms = [G.elements[m] for m in H.member_indices]
    return generate_group(G.degree, _greedy(perms, Permutation(range(G.degree))))


def _closure(G: FiniteGroup, seeds) -> frozenset:
    seen = {G.identity_index} | set(seeds)
    frontier = list(seen)
    gens = sorted(set(seeds))
    while frontier:
        nxt = []
        for a in frontier:
            for b in gens:
                c = G.mul(a, b)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return frozenset(seen)


def oracle_derived_members(G: FiniteGroup) -> tuple[int, ...]:
    """Closure of the set of all commutators [g, h] over all pairs."""
    comms = {
        G.mul(G.mul(G.inv(g), G.inv(h)), G.mul(g, h))
        for g in range(G.order)
        for h in range(G.order)
    }
    return tuple(sorted(_closure(G, comms)))


def oracle_lower_central_series(G: FiniteGroup) -> list[tuple[int, ...]]:
    """G = L1 >= L2 >= ..., L(i+1) the closure of every commutator [g, h]
    with g in G and h in Li, until a term is trivial or repeats."""
    series = [tuple(range(G.order))]
    while len(series[-1]) > 1:
        comms = {
            G.mul(G.mul(G.inv(g), G.inv(h)), G.mul(g, h))
            for g in range(G.order)
            for h in series[-1]
        }
        nxt = tuple(sorted(_closure(G, comms)))
        if nxt == series[-1]:
            break
        series.append(nxt)
    return series


def oracle_all_subgroups(G: FiniteGroup) -> list[tuple[int, ...]]:
    """Every subgroup, from closures of small seed sets.

    Seeds of size up to three are enough for every group of order <= 24
    (no such group has a 4-generated subgroup).
    """
    assert G.order <= 24
    non_id = [i for i in range(G.order) if i != G.identity_index]
    found = {frozenset({G.identity_index})}
    for size in (1, 2, 3):
        for seed in combinations(non_id, size):
            found.add(_closure(G, seed))
    return sorted(tuple(sorted(s)) for s in found)


def oracle_has_complement(
    G: FiniteGroup, N: tuple[int, ...], subgroups: list[tuple[int, ...]]
) -> bool:
    """Whether one of ``subgroups`` (all of G's, from
    :func:`oracle_all_subgroups`) meets N trivially and has |H| |N| = |G|."""
    return any(
        len(H) * len(N) == G.order and set(H) & set(N) == {G.identity_index}
        for H in subgroups
    )


def oracle_normal_subgroups(G: FiniteGroup) -> list[tuple[int, ...]]:
    """Every normal subgroup, sorted.  Each is generated by the conjugacy
    classes it holds (:func:`oracle_conjugacy_classes`), and a subgroup
    generated by classes is normal; so all are reached from the trivial one
    by adding one class at a time and closing, any group order."""
    classes = oracle_conjugacy_classes(G)
    found = {frozenset([G.identity_index])}
    walk = list(found)
    for members in walk:  # also visits what the loop appends
        for c in classes:
            if c[0] not in members:
                joined = _greedy_closure(G, [*c, *sorted(members)])
                if joined not in found:
                    found.add(joined)
                    walk.append(joined)
    return sorted(tuple(sorted(m)) for m in found)


def _greedy_closure(G: FiniteGroup, seeds) -> frozenset:
    """The subgroup the seeds generate: :func:`_closure` of those seeds that
    lie outside the closure of the ones before them, closed anew after each."""
    closed, chosen = frozenset([G.identity_index]), []
    for s in seeds:
        if s not in closed:
            chosen.append(s)
            closed = _closure(G, chosen)
    return closed


def oracle_chief_factor_orders(G: FiniteGroup) -> list[int]:
    """The factor orders of a chief series read greedily off
    :func:`oracle_normal_subgroups`: from 1, each next term is a smallest
    normal subgroup properly containing the current one."""
    normals = [set(n) for n in oracle_normal_subgroups(G)]
    current, orders = {G.identity_index}, []
    while len(current) < G.order:
        nxt = min((n for n in normals if current < n), key=len)
        orders.append(len(nxt) // len(current))
        current = nxt
    return orders


def oracle_is_supersolvable(G: FiniteGroup) -> bool:
    """Huppert's criterion: every maximal subgroup has prime index (for
    order <= 24, where :func:`oracle_all_subgroups` is complete)."""
    proper = [set(s) for s in oracle_all_subgroups(G) if len(s) < G.order]
    maximal = [h for h in proper if not any(h < k for k in proper)]
    indices = [G.order // len(h) for h in maximal]
    return all(all(i % d for d in range(2, i)) for i in indices)


def oracle_element_order(G: FiniteGroup, x: int) -> int:
    y = x
    m = 1
    while y != G.identity_index:
        y = G.mul(y, x)
        m += 1
    return m


def gl_order(p: int, k: int) -> int:
    """|GL(k, p)| by the product formula."""
    total = 1
    for i in range(k):
        total *= p**k - p**i
    return total


def oracle_commuting_pairs(G: FiniteGroup) -> int:
    return sum(
        1
        for x in range(G.order)
        for y in range(G.order)
        if G.mul(x, y) == G.mul(y, x)
    )


def oracle_is_group_table(rows) -> bool:
    """Whether ``rows`` is the Cayley table of a group with identity 0: a
    Latin square on 0..n-1 whose row 0 and column 0 are the identity's, with
    (ab)c = a(bc) for every triple."""
    n, ident = len(rows), list(range(len(rows)))
    table = [list(r) for r in rows]
    if not n or table[0] != ident or [r[0] for r in table] != ident:
        return False
    if any(sorted(r) != ident for r in table) or any(sorted(c) != ident for c in zip(*table)):
        return False
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n) for b in range(n) for c in range(n)
    )


def oracle_semidirect_table(N: FiniteGroup, H: FiniteGroup, gen_images) -> list[list[int]]:
    """The full table of N : H, every entry from (a, h) * (a', h') =
    (a^h' * a', h * h') at index a * |H| + h.  ``gen_images`` maps each acting
    generator of H to the permutation of N's indices it acts by; the action
    of every h composes them along a breadth-first word for h."""
    act = {H.identity_index: tuple(range(N.order))}
    frontier = [H.identity_index]
    while frontier:
        nxt = []
        for x in frontier:
            for g, img in gen_images.items():
                y = H.mul(x, g)
                if y not in act:
                    act[y] = tuple(img[v] for v in act[x])  # act by x first, then g
                    nxt.append(y)
        frontier = nxt
    nh = H.order
    return [
        [N.mul(act[k][a], b) * nh + H.mul(h, k) for b in range(N.order) for k in range(nh)]
        for a in range(N.order)
        for h in range(nh)
    ]


def oracle_perm_order(p: Permutation) -> int:
    """Least m >= 1 with p^m the identity: the lcm of p's cycle lengths."""
    seen, order = set(), 1
    for start in range(p.degree):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = p.images[i]
            length += 1
        if length:
            order = math.lcm(order, length)
    return order


def find_isomorphism(G: FiniteGroup, H: FiniteGroup) -> list[int] | None:
    """First isomorphism of the library's search in canonical order, else None."""
    return next(iter_isomorphisms(G, H), None)


def are_isomorphic(G: FiniteGroup, H: FiniteGroup) -> bool:
    return find_isomorphism(G, H) is not None


def _central_quotient_and_derived(G: FiniteGroup):
    """G/Z(G) and G' numbered as an isoclinism witness numbers them, formed
    here in G's table: each element's right coset of the center, the cosets
    numbered by lowest member, with those members; the commutators of every
    two of them; and the commutator subgroup in index order, with each
    member's position.  G' is the closure of those commutators, which are
    all of G's."""
    rows, inv = cayley_table(G), [G.inv(x) for x in range(G.order)]
    z, coset, reps = oracle_center(G), {}, []
    for x in range(G.order):
        if x not in coset:
            coset.update((rows[c][x], len(reps)) for c in z)
            reps.append(x)
    comm = [[rows[rows[inv[a]][inv[b]]][rows[a][b]] for b in reps] for a in reps]
    derived = sorted(_closure(G, {c for row in comm for c in row}))
    return coset, reps, comm, {d: i for i, d in enumerate(derived)}, derived


def verify_isoclinism_witness(
    G: FiniteGroup, H: FiniteGroup, witness: IsoclinismWitness
) -> bool:
    """Re-check a witness from scratch, with G/Z(G) and G' formed here: both
    maps must be bijective homomorphisms and the compatibility square must
    commute on all pairs."""
    coset_g, reps_g, comm_g, pos_g, der_g = _central_quotient_and_derived(G)
    coset_h, reps_h, comm_h, pos_h, der_h = _central_quotient_and_derived(H)
    rows_g, rows_h = cayley_table(G), cayley_table(H)
    phi, psi = witness.quotient_iso, witness.derived_iso
    if sorted(phi) != list(range(len(reps_h))) or sorted(psi) != list(range(len(der_h))):
        return False
    for x, rx in enumerate(reps_g):
        for y, ry in enumerate(reps_g):
            px, py = phi[x], phi[y]
            if phi[coset_g[rows_g[rx][ry]]] != coset_h[rows_h[reps_h[px]][reps_h[py]]]:
                return False
            if psi[pos_g[comm_g[x][y]]] != pos_h[comm_h[px][py]]:
                return False
    for x, dx in enumerate(der_g):
        for y, dy in enumerate(der_g):
            if psi[pos_g[rows_g[dx][dy]]] != pos_h[rows_h[der_h[psi[x]]][der_h[psi[y]]]]:
                return False
    return True


def oracle_commutator_pairing(G: FiniteGroup, K: Subgroup | None = None):
    """The commutator pairing of G/K (of G by default), verified well defined,
    as ``(M, (of, reps), pairing)``: M and G'K/K's numbering are those of
    ``isoclinism._section``, and ``pairing[q1][q2]`` is the number of the
    commutator of any representatives of the cosets q1 and q2 of M.

    For z, z' in M, [g1 z, g2 z'] = [g1, g2] mod K makes it so.  The row of
    [g1, r2] over the representatives r2 of M's cosets is taken for the
    lowest g1 of every coset of K, in index order: the first row met in a
    coset of M is its representative's, and every later one must equal it.
    The second argument needs no check, since [b, a] = [a, b]^-1: with r1,
    r2 the representatives of g1's and g2's cosets, [r1, g2] = [g2, r1]^-1,
    which the first check equates with [r2, r1]^-1 = [r1, r2].
    """
    K = K or subgroup_generated(G, ())
    M, derived = _section(G, K)
    (pi, reps), d_of = _coset_data(G, M), derived[0]
    rows = cayley_table(G)
    reps_inv = [(r, G.inv(r)) for r in reps]
    pairing: list = [None] * len(reps)
    for a in _coset_data(G, K)[1]:  # [a, b] = a^-1 b^-1 a b
        row_a, row_a_inv = rows[a], rows[G.inv(a)]
        row = tuple([d_of[rows[row_a_inv[b_inv]][row_a[b]]] for b, b_inv in reps_inv])
        if pairing[pi[a]] is None:
            pairing[pi[a]] = row
        elif pairing[pi[a]] != row:
            raise GroupError("commutator pairing is not well defined")
    return M, derived, tuple(pairing)


def oracle_find_isoclinism(
    G: FiniteGroup, H: FiniteGroup, K: Subgroup | None = None
) -> IsoclinismWitness | None:
    """The first isoclinism of G/K (G by default) and H over the library's
    quotient isomorphisms phi, decided on the full pairings: phi forces
    psi(pairing of q1, q2) = pairing of phi(q1), phi(q2); psi is grown from
    psi(1) = 1 by products of forced values, and kept only if it is a
    bijective homomorphism, checked on every pair, that agrees with every
    forced value."""
    K = K or subgroup_generated(G, ())
    mg, (of_a, reps_a), pg = oracle_commutator_pairing(G, K)
    mh, (of_b, reps_b), ph = oracle_commutator_pairing(H)
    if len(pg) != len(ph) or len(reps_a) != len(reps_b):
        return None
    rows_g, rows_h = cayley_table(G), cayley_table(H)

    def mul_a(x: int, y: int) -> int:
        return of_a[rows_g[reps_a[x]][reps_a[y]]]

    def mul_b(x: int, y: int) -> int:
        return of_b[rows_h[reps_b[x]][reps_b[y]]]

    for phi in iter_isomorphisms(G, H, mg, mh):
        forced: dict[int, int] = {}
        functional = True
        for q1, row in enumerate(pg):
            for q2, value in enumerate(row):
                target = ph[phi[q1]][phi[q2]]
                functional = functional and forced.setdefault(value, target) == target
        if not functional:
            continue
        psi, reached = {0: 0}, [0]
        for x in reached:
            for g, image in forced.items():
                if mul_a(x, g) not in psi:
                    psi[mul_a(x, g)] = mul_b(psi[x], image)
                    reached.append(mul_a(x, g))
        if (
            sorted(psi) == sorted(psi.values()) == list(range(len(reps_a)))
            and all(psi[g] == image for g, image in forced.items())
            and all(psi[mul_a(x, y)] == mul_b(psi[x], psi[y]) for x in psi for y in psi)
        ):
            return IsoclinismWitness(tuple(phi), tuple(psi[x] for x in range(len(reps_a))))
    return None
