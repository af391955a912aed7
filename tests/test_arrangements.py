"""Arrangement combinatorics: staircases, southwest closure, lattices."""

import itertools
import math
import random

import pytest

from coinvarr.arrangements import (
    Arrangement,
    braid_arrangement,
    characteristic_polynomial,
    char_poly_eval,
    column_counts,
    delete,
    diagram,
    enumerate_southwest,
    format_arrangement,
    forms_product,
    full_arrangement,
    is_chordal,
    is_essential,
    is_southwest,
    linear_form,
    linear_forms,
    max_coordinate,
    parse_arrangement,
    point_count,
    restrict_coordinate,
    roots_poly,
    skip_arrangement,
    skip_forms_product,
    smallest_prime_above,
    staircase,
    staircase_monomials,
    subsets,
)
from coinvarr import arrangements, cli
from coinvarr.polynomials import Polynomial, vandermonde, variables

# the worked n=5 example used throughout: x1, x2, x1-x2, x1-x3, x2-x3,
# x1-x4, x2-x4, x3-x4, x2-x5
EXAMPLE5 = Arrangement(
    5,
    [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (2, 5)],
)


def test_staircase_fixtures():
    assert staircase((2, 4), 5) == (1, 1, 2, 2, 3)
    assert staircase((), 4) == (1, 2, 3, 4)
    assert staircase(range(1, 5), 4) == (0, 0, 0, 0)
    assert staircase((1,), 3) == (0, 1, 2)
    with pytest.raises(ValueError):
        staircase((0,), 3)


def test_staircase_step_property_random():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(1, 6)
        skips = frozenset(j for j in range(1, n + 1) if rng.random() < 0.4)
        st = staircase(skips, n)
        prev = 0
        for i, v in enumerate(st, start=1):
            step = v - prev
            assert step in (0, 1)
            assert (step == 0) == (i in skips)
            prev = v


def test_staircase_monomials_worked_example():
    got = staircase_monomials((2, 4), 5)
    expected = [
        (0, 0, 1, 1, 2),
        (0, 0, 1, 1, 1),
        (0, 0, 1, 1, 0),
        (0, 0, 1, 0, 2),
        (0, 0, 1, 0, 1),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 1, 2),
        (0, 0, 0, 1, 1),
        (0, 0, 0, 1, 0),
        (0, 0, 0, 0, 2),
        (0, 0, 0, 0, 1),
        (0, 0, 0, 0, 0),
    ]
    assert got == expected
    assert len(got) == 12


def test_staircase_monomials_counts():
    for n in range(1, 5):
        for r in range(0, n + 1):
            for skips in itertools.combinations(range(1, n + 1), r):
                mons = staircase_monomials(skips, n)
                expect = math.prod(staircase(skips, n))
                assert len(mons) == expect
                if 1 in skips:
                    assert mons == []


def test_arrangement_basics():
    A = full_arrangement(3)
    assert len(A) == 6
    assert (0, 1) in A
    with pytest.raises(ValueError):
        Arrangement(3, [(1, 1)])
    with pytest.raises(ValueError):
        Arrangement(3, [(0, 4)])
    with pytest.raises(ValueError):
        Arrangement(-1, [])
    assert len(Arrangement(0, [])) == 0
    assert braid_arrangement(3).pairs == frozenset([(1, 2), (1, 3), (2, 3)])


def test_linear_forms():
    x1, x2, x3 = variables(3)
    assert linear_form((0, 2), 3) == x2
    assert linear_form((1, 3), 3) == x1 - x3
    y1, y2 = variables(2)
    assert linear_forms(braid_arrangement(2)) == [y1 - y2]
    assert linear_forms(full_arrangement(2)) == [y1, y2, y1 - y2]
    assert linear_forms(Arrangement(2, [])) == []


def test_shared_linear_forms_survive_a_full_run(tmp_path, monkeypatch):
    # linear_form hands every caller one shared polynomial per (pair, n);
    # after every suite has used them, each cached form still equals, hashes
    # and leads like one built afresh, so no caller has changed one.  The run
    # keeps its memos, which a suite's end would otherwise empty.
    monkeypatch.setattr(cli, "clear_suite_caches", lambda: None)
    out = tmp_path / "report.json"
    assert cli.main(["verify", "all", "--n", "3", "--out", str(out)]) == 0
    before = linear_form.cache_info()
    assert before.currsize
    keys = [
        (pair, n)
        for n in range(1, 11)
        for pair in itertools.combinations(range(n + 1), 2)
    ]
    forms = [linear_form(*key) for key in keys]
    # one hit per cached entry: every cached form is among those checked
    assert linear_form.cache_info().hits - before.hits == before.currsize
    for ((i, j), n), form in zip(keys, forms):
        unit = [tuple(int(k == m) for k in range(1, n + 1)) for m in range(n + 1)]
        fresh = Polynomial(n, {unit[j]: 1} if i == 0 else {unit[i]: 1, unit[j]: -1})
        assert form == fresh and form is linear_form((i, j), n), (i, j, n)
        assert hash(form) == hash(fresh) and form.leading() == fresh.leading()


def test_southwest_predicate_and_example():
    assert is_southwest(EXAMPLE5)
    assert column_counts(EXAMPLE5) == (1, 2, 2, 3, 1)
    # x2 alone wants x1 to its southwest
    assert not is_southwest(Arrangement(2, [(0, 2)]))
    assert is_southwest(Arrangement(2, [(0, 1), (0, 2)]))
    # difference rows are prefix intervals
    assert not is_southwest(Arrangement(3, [(1, 3)]))
    assert is_southwest(Arrangement(3, [(1, 2), (1, 3)]))
    for n in range(1, 5):
        assert is_southwest(full_arrangement(n))
        assert is_southwest(braid_arrangement(n))
        assert is_southwest(Arrangement(n, []))


def test_southwest_enumeration_matches_brute_force():
    for n in range(1, 4):
        ambient = sorted(full_arrangement(n).pairs)
        brute = set()
        for r in range(len(ambient) + 1):
            for sub in itertools.combinations(ambient, r):
                A = Arrangement(n, sub)
                if is_southwest(A):
                    brute.add(A)
        listed = enumerate_southwest(n)
        assert len(listed) == len(set(listed)) == math.factorial(n + 1)
        assert set(listed) == brute
        essential = enumerate_southwest(n, essential_only=True)
        assert set(essential) == {A for A in brute if is_essential(A)}


def test_southwest_enumeration_at_n6():
    # the n = 6 sweep: (n+1)! distinct southwest arrangements, and the
    # essential filter keeps exactly those with every column count positive
    listed = enumerate_southwest(6)
    assert len(listed) == len(set(listed)) == 5040
    assert all(is_southwest(A) for A in listed)
    essential = enumerate_southwest(6, essential_only=True)
    assert len(essential) == len(set(essential)) == 3447
    assert essential == [A for A in listed if is_essential(A)]


def test_skip_arrangement_structure():
    A = skip_arrangement((2, 4), 5)
    assert (0, 1) in A and (1, 5) in A and (0, 3) in A and (3, 4) in A
    assert (0, 2) not in A and (2, 3) not in A and (4, 5) not in A
    # keeping every row gives the full arrangement
    assert skip_arrangement((), 4) == full_arrangement(4)
    # skipping everything gives the empty arrangement
    assert skip_arrangement(range(1, 5), 4) == Arrangement(4, [])
    # generally not southwest: row 0 keeps a non-prefix set of coordinates
    assert not is_southwest(A)


def test_skip_products_match_complement():
    for n in range(1, 5):
        xs = variables(n)
        for r in range(0, n + 1):
            for skips in itertools.combinations(range(1, n + 1), r):
                A = skip_arrangement(skips, n)
                missing = Arrangement(n, full_arrangement(n).pairs - A.pairs)
                product = math.prod(linear_forms(missing), start=Polynomial.one(n))
                assert product == skip_forms_product(skips, n)
                # the closed form, one factor at a time
                closed = Polynomial.one(n)
                for j in skips:
                    closed = closed * xs[j - 1]
                    for i in range(j + 1, n + 1):
                        closed = closed * (xs[j - 1] - xs[i - 1])
                assert product == closed


def test_forms_product_of_braid_pairs_is_vandermonde():
    for n in range(0, 6):
        assert forms_product((), n) == Polynomial.one(n)
        assert forms_product(braid_arrangement(n).pairs, n) == vandermonde(n)
    with pytest.raises(ValueError):
        forms_product([(2, 1)], 2)


def test_delete_and_column_counts():
    got = delete(EXAMPLE5, (0, 2))
    assert column_counts(got) == (1, 1, 2, 3, 1)
    with pytest.raises(ValueError):
        delete(got, (0, 2))


def test_restriction_worked_example():
    assert max_coordinate(EXAMPLE5) == 2
    R = restrict_coordinate(EXAMPLE5, 2)
    assert R.n == 4
    assert column_counts(R) == (1, 2, 3, 1)
    assert is_southwest(R)
    assert R.pairs == frozenset(
        [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (0, 4)]
    )
    with pytest.raises(ValueError):
        restrict_coordinate(braid_arrangement(3), 1)


def test_restriction_drops_max_column_for_southwest():
    # deleting the top coordinate form decrements its column; restricting
    # there deletes the column outright
    for n in range(2, 5):
        for A in enumerate_southwest(n):
            p = max_coordinate(A)
            if p is None:
                continue
            h = column_counts(A)
            hd = column_counts(delete(A, (0, p)))
            assert hd == h[: p - 1] + (h[p - 1] - 1,) + h[p:]
            R = restrict_coordinate(A, p)
            assert is_southwest(R)
            assert column_counts(R) == h[: p - 1] + h[p:]


def test_essential_predicate():
    for n in range(1, 5):
        assert is_essential(full_arrangement(n))
        assert not is_essential(braid_arrangement(n))  # vertex 0 isolated
        assert not is_essential(Arrangement(n, []))
    assert is_essential(EXAMPLE5)
    # southwest essentiality is exactly positivity of all column counts
    for n in range(1, 5):
        for A in enumerate_southwest(n):
            assert is_essential(A) == all(c > 0 for c in column_counts(A))


def _adjacency_sets(A):
    adj = {v: set() for v in range(A.n + 1)}
    for i, j in A.pairs:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def _connected_sub(sub, adj):
    sub = set(sub)
    start = next(iter(sub))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w in sub and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == sub


def _chordal_oracle(A):
    # chordal iff no induced chordless cycle of length >= 4: an induced
    # subgraph that is connected and 2-regular is exactly such a cycle
    adj = _adjacency_sets(A)
    for size in range(4, A.n + 2):
        for sub in itertools.combinations(range(A.n + 1), size):
            if all(len(adj[v] & set(sub)) == 2 for v in sub) and _connected_sub(
                sub, adj
            ):
                return False
    return True


def test_chordal_against_induced_cycle_oracle():
    ambient3 = sorted(full_arrangement(3).pairs)
    for r in range(len(ambient3) + 1):
        for sub in itertools.combinations(ambient3, r):
            A = Arrangement(3, sub)
            assert is_chordal(A) == _chordal_oracle(A), sub
    rng = random.Random(81)
    ambient4 = sorted(full_arrangement(4).pairs)
    for _ in range(120):
        sub = [p for p in ambient4 if rng.random() < 0.5]
        A = Arrangement(4, sub)
        assert is_chordal(A) == _chordal_oracle(A), sub


def test_southwest_graphs_are_chordal():
    for n in range(1, 5):
        for A in enumerate_southwest(n):
            assert is_chordal(A)


def _set_partitions(items):
    items = list(items)

    def rec(i, blocks):
        if i == len(items):
            yield tuple(tuple(b) for b in blocks)
            return
        x = items[i]
        for b in blocks:
            b.append(x)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([x])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def _intersection_flats(A):
    # oracle: the flats as the partitions of {0..n} into connected blocks,
    # each block ascending, blocks sorted by their smallest vertex
    adj = _adjacency_sets(A)
    return [
        tuple(sorted(tuple(sorted(b)) for b in part))
        for part in _set_partitions(range(A.n + 1))
        if all(_connected_sub(b, adj) for b in part)
    ]


def _char_poly_refinement(A):
    # oracle: the Moebius function by scanning every pair of flats for
    # refinement, a flat with b blocks adding to the t^(b-1) coefficient
    flats = _intersection_flats(A)
    flats.sort(key=len, reverse=True)  # rank-ascending: many blocks first
    mu = {}
    for idx, X in enumerate(flats):
        owner = {v: k for k, b in enumerate(X) for v in b}
        total = 0
        for Y in flats[:idx]:
            if len(Y) > len(X) and all(len({owner[v] for v in b}) == 1 for b in Y):
                total += mu[Y]
        mu[X] = 1 if idx == 0 else -total
    coeffs = [0] * (A.n + 1)
    for X, m in mu.items():
        coeffs[len(X) - 1] += m
    return tuple(coeffs)


def _point_count_inclusion_exclusion(A, p):
    # oracle: a set S of hyperplanes cuts out a subspace of dimension
    # n - rank(S), read off a union-find on the graph on {0..n}
    edges = A.sorted_pairs()
    total = 0
    for r in range(len(edges) + 1):
        for chosen in itertools.combinations(edges, r):
            parent = list(range(A.n + 1))

            def find(v):
                while parent[v] != v:
                    v = parent[v]
                return v

            rank = 0
            for i, j in chosen:
                a, b = find(i), find(j)
                if a != b:
                    parent[a] = b
                    rank += 1
            total += (-1) ** r * p ** (A.n - rank)
    return total


def _all_graphs(n):
    ambient = sorted(full_arrangement(n).pairs)
    for r in range(len(ambient) + 1):
        for sub in itertools.combinations(ambient, r):
            yield Arrangement(n, sub)


def _random_graphs(n, count, seed):
    rng = random.Random(seed)
    ambient = sorted(full_arrangement(n).pairs)
    return [
        Arrangement(n, [p for p in ambient if rng.random() < 0.5])
        for _ in range(count)
    ]


def test_intersection_flats_small():
    A = full_arrangement(2)
    flats = _intersection_flats(A)
    # bond lattice of the triangle on {0,1,2}: 5 partitions qualify
    assert len(flats) == 5
    singles = tuple(((0,), (1,), (2,)))
    assert singles in flats
    empty_flats = _intersection_flats(Arrangement(2, []))
    assert empty_flats == [singles]
    # disconnected blocks are rejected
    B = Arrangement(2, [(0, 1)])
    assert all(
        not any(set(b) == {0, 2} for b in flat) for flat in _intersection_flats(B)
    )
    # the full graph keeps every partition: Bell numbers
    assert [len(_intersection_flats(full_arrangement(n))) for n in range(5)] == [
        1, 2, 5, 15, 52,
    ]


def test_characteristic_polynomial_fixtures():
    # braid on three coordinates: t(t-1)(t-2), living in degree-3 ambient
    assert characteristic_polynomial(braid_arrangement(3)) == (0, 2, -3, 1)
    # empty arrangement: t^n
    assert characteristic_polynomial(Arrangement(3, [])) == (0, 0, 0, 1)
    # full arrangement factors over the staircase of the empty skip set
    for n in range(1, 4):
        assert characteristic_polynomial(full_arrangement(n)) == roots_poly(
            staircase((), n)
        )
    assert characteristic_polynomial(Arrangement(0, [])) == (1,)
    with pytest.raises(ValueError):
        characteristic_polynomial(Arrangement(11, []))


def test_characteristic_polynomial_matches_refinement_oracle():
    for n in range(5):
        for A in _all_graphs(n):
            assert characteristic_polynomial(A) == _char_poly_refinement(A), A
    for A in _random_graphs(5, 12, 121):
        assert characteristic_polynomial(A) == _char_poly_refinement(A), A


def test_disconnected_block_mutant_is_caught(monkeypatch):
    # a route that lets a disconnected block carry a nonzero Moebius value
    # must disagree with the oracle on some small graph
    monkeypatch.setattr(arrangements, "_connected", lambda S, adj: True)
    assert any(
        characteristic_polynomial(A) != _char_poly_refinement(A)
        for n in range(4)
        for A in _all_graphs(n)
    )


def test_characteristic_polynomial_skip_arrangements_small():
    for n in range(1, 7):
        for r in range(0, n + 1):
            for skips in itertools.combinations(range(1, n + 1), r):
                A = skip_arrangement(skips, n)
                assert characteristic_polynomial(A) == roots_poly(
                    staircase(skips, n)
                ), (n, skips)


def test_deletion_restriction_recurrence():
    # chi_A = chi_{A minus H} - chi_{A restricted to H} at coordinate forms
    for n in (2, 3):
        ambient = sorted(full_arrangement(n).pairs)
        for sub in itertools.combinations(ambient, 3):
            A = Arrangement(n, sub)
            p = max_coordinate(A)
            if p is None:
                continue
            lhs = characteristic_polynomial(A)
            del_part = characteristic_polynomial(delete(A, (0, p)))
            res_part = characteristic_polynomial(restrict_coordinate(A, p))
            assert lhs == tuple(
                a - b for a, b in zip(del_part, res_part + (0,))
            ), sub


def _point_count_literal(A, p):
    # reference: test every point of (Z/p)^n against every form
    pairs = A.sorted_pairs()
    count = 0
    for point in itertools.product(range(p), repeat=A.n):
        vals = (0,) + point
        if all(vals[i] != vals[j] for i, j in pairs):
            count += 1
    return count


def test_point_count_routes_agree():
    # every char-poly instance whose point space has at most 300000 points
    small = 0
    for n in range(1, 6):
        for skips in subsets(range(1, n + 1)):
            A = skip_arrangement(skips, n)
            p = smallest_prime_above(n * len(A))
            if p**n <= 300_000:
                small += 1
                assert point_count(A, p) == _point_count_literal(A, p), (n, skips)
    assert small == 26
    rng = random.Random(91)
    for n in (2, 3):
        ambient = sorted(full_arrangement(n).pairs)
        for _ in range(12):
            sub = [p for p in ambient if rng.random() < 0.5]
            A = Arrangement(n, sub)
            p = smallest_prime_above(n * max(1, len(A)))
            assert point_count(A, p) == _point_count_literal(A, p), (n, sub, p)


def test_point_count_matches_oracles():
    # every prime up to n + 1 included: below the chromatic number the
    # count is 0, and (p)_k vanishes for k > p
    for n in range(4):
        for A in _all_graphs(n):
            for p in (2, 3, 5):
                got = point_count(A, p)
                assert got == _point_count_inclusion_exclusion(A, p), (A, p)
                assert got == _point_count_literal(A, p), (A, p)
    for A in _random_graphs(4, 20, 131):
        for p in (2, 3, 5, 7):
            got = point_count(A, p)
            assert got == _point_count_inclusion_exclusion(A, p), (A, p)
            assert got == _point_count_literal(A, p), (A, p)
    assert point_count(full_arrangement(4), 3) == 0
    assert point_count(Arrangement(0, []), 2) == 1


def test_point_count_matches_characteristic_polynomial():
    for n in (2, 3):
        ambient = sorted(full_arrangement(n).pairs)
        for r in range(len(ambient) + 1):
            for sub in itertools.combinations(ambient, r):
                A = Arrangement(n, sub)
                p = smallest_prime_above(n * max(1, len(A)))
                chi = characteristic_polynomial(A)
                assert char_poly_eval(chi, p) == point_count(A, p), (n, sub)


def test_smallest_prime_above():
    assert smallest_prime_above(1) == 2
    assert smallest_prime_above(2) == 3
    assert smallest_prime_above(40) == 41
    assert smallest_prime_above(75) == 79


def test_format_parse_round_trip():
    s = format_arrangement(EXAMPLE5)
    assert s == "n=5;H:0-1,0-2,1-2,1-3,1-4,2-3,2-4,2-5,3-4"
    assert parse_arrangement(s) == EXAMPLE5
    assert parse_arrangement("n=3;H:") == Arrangement(3, [])
    assert format_arrangement(Arrangement(3, [])) == "n=3;H:"
    with pytest.raises(ValueError):
        parse_arrangement("m=3;H:0-1")
    rng = random.Random(93)
    ambient = sorted(full_arrangement(4).pairs)
    for _ in range(20):
        A = Arrangement(4, [p for p in ambient if rng.random() < 0.5])
        assert parse_arrangement(format_arrangement(A)) == A


def test_diagram_golden():
    got = diagram(EXAMPLE5)
    expected = "\n".join(
        [
            "        ○",
            "      ○   ○",
            "    ○   ●   ●",
            "  ●   ●   ●   ○",
            "●   ●   ●   ●   ○",
            "members: x1, x2, x1-x2, x1-x3, x1-x4, x2-x3, x2-x4, x2-x5, x3-x4",
        ]
    )
    assert got == expected
    # filled-dot count equals the arrangement size for a few randoms
    rng = random.Random(95)
    ambient = sorted(full_arrangement(4).pairs)
    for _ in range(10):
        A = Arrangement(4, [p for p in ambient if rng.random() < 0.5])
        assert diagram(A).count("●") == len(A)
        assert diagram(A).count("○") == len(full_arrangement(4)) - len(A)
