import math
import random
import time
import tracemalloc
from itertools import combinations, product

import pytest

import stablebetti as sb
from reference import canonical_order, conjugate_generators
from stablebetti import cli, enumeration
from stablebetti.betti import betti_from_counts, extremal_corners
from stablebetti.enumeration import (
    SearchOutcome,
    _chains,
    _count,
    _filters,
    _generators,
    _walk_layers,
    count_strongly_stable,
    enumerate_strongly_stable,
    random_strongly_stable,
    search_extremal_profile,
    search_matrix,
)
from stablebetti.ideals import GeneratorMatrix, MonomialIdeal, new_generator_row
from stablebetti.monomials import DEGREE_CAP, enumerate_degree, max_index, swap_variable


def test_two_variable_degree_two_list():
    got = {I.gens for I in enumerate_strongly_stable(2, 2)}
    expected = {
        ((1, 0),),
        ((1, 0), (0, 1)),
        ((2, 0),),
        ((2, 0), (1, 1)),
        ((2, 0), (1, 1), (0, 2)),
        ((1, 0), (0, 2)),
    }
    assert {frozenset(g) for g in got} == {frozenset(g) for g in expected}


def test_one_variable_principal_powers():
    got = list(enumerate_strongly_stable(1, 4))
    assert [I.gens for I in got] == [((1,),), ((2,),), ((3,),), ((4,),)]


def brute_force(n, dmax):
    pool = [m for d in range(1, dmax + 1) for m in enumerate_degree(n, d)]
    seen = set()
    for r in range(1, len(pool) + 1):
        for sub in combinations(pool, r):
            I = sb.minimalize(n, sub)
            seen.add(I.gens)
    return {g for g in seen if sb.is_strongly_stable(MonomialIdeal(n, g))}


def test_matches_brute_force():
    for n, dmax in ((2, 3), (3, 2)):
        assert {I.gens for I in enumerate_strongly_stable(n, dmax)} == brute_force(n, dmax)


def test_all_enumerated_are_strongly_stable(corpus_n3):
    for I in corpus_n3:
        assert sb.is_strongly_stable(I)
        assert I.max_gen_degree() <= 4


def test_canonical_order_and_determinism():
    first = list(enumerate_strongly_stable(3, 3))
    second = list(enumerate_strongly_stable(3, 3))
    assert first == second
    degrees = [I.max_gen_degree() for I in first]
    assert degrees == sorted(degrees)


def test_enumeration_order_pinned():
    # maximal degree, then the generators by ascending degree and, within
    # a degree, by descending deglex
    def key(gens):
        ordered = sorted(gens, key=lambda g: (sum(g), tuple(-e for e in g)))
        return (max(sum(g) for g in gens), [(sum(g), g) for g in ordered])

    keys = [key(I.gens) for I in enumerate_strongly_stable(3, 4)]
    assert len(keys) == count_strongly_stable(3, 4)
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_bucketed_order_is_the_full_sort():
    # enumeration walks one maximal-degree bucket at a time and sorts
    # nothing but its lower parts; the order is the one sort of every
    # chain of the bound by the full canonical key
    for n, dmax in ((1, 6), (2, 6), (3, 4), (4, 3), (5, 2), (2, 10), (3, 5), (4, 4), (5, 3)):
        layers = _walk_layers(n, dmax)
        chains = _chains(layers, [None] * dmax)
        lists = [_generators(layers, masks) for masks in chains if any(masks)]
        expected = canonical_order(lists)
        got = [I.gens for I in enumerate_strongly_stable(n, dmax, budget=10**5)]
        assert len(got) == len(expected), (n, dmax)
        assert [frozenset(g) for g in got] == [frozenset(g) for g in expected], (n, dmax)


def test_first_ideal_comes_promptly():
    # the first bucket, maximal degree 1, is yielded as it is walked; a
    # sort of the whole bound took about 18 s on a 2-vCPU machine
    start = time.perf_counter()
    assert next(enumerate_strongly_stable(4, 5)).gens == ((1, 0, 0, 0),)
    assert time.perf_counter() - start < 0.5
    # the budget is still judged on the whole bound before any ideal
    ideals = enumerate_strongly_stable(4, 5, budget=1000)
    with pytest.raises(sb.BudgetExceededError) as err:
        next(ideals)
    assert (str(err.value), err.value.partial_count) == (
        "enumeration exceeded the budget of 1000 ideals", 1000
    )


def test_full_pass_holds_no_bucket():
    # a full pass holds the lower parts of its top bucket, not the bucket:
    # sorting (4, 4)'s top bucket of 8,952 generator lists peaked at
    # 9.3 MiB under tracemalloc, the walk at about 0.4 MiB
    _walk_layers(4, 4)  # cached layers belong to the process, not the pass
    tracemalloc.start()
    try:
        count = sum(1 for _ in enumerate_strongly_stable(4, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 9302
    assert peak < 2 * 2**20, peak


def test_budget_and_default_caps():
    with pytest.raises(sb.BudgetExceededError) as err:
        list(enumerate_strongly_stable(2, 2, budget=3))
    assert err.value.partial_count == 3
    with pytest.raises(sb.BudgetExceededError) as err:
        count_strongly_stable(3, 3, budget=10)
    assert err.value.partial_count == 10
    with pytest.raises(sb.BudgetExceededError):
        list(enumerate_strongly_stable(5, 2))
    assert count_strongly_stable(5, 2, budget=10**6) > 0


def test_small_budget_stops_a_deep_walk_at_once():
    # the walk is lazy: a budget stops it at the first chain past the
    # budget, before the many exchange-closed sets of degrees up to 12
    start = time.perf_counter()
    with pytest.raises(sb.BudgetExceededError) as err:
        count_strongly_stable(4, 12, budget=0)
    assert err.value.partial_count == 0
    with pytest.raises(sb.BudgetExceededError) as err:
        list(enumerate_strongly_stable(4, 12, budget=1))
    assert err.value.partial_count == 1
    assert time.perf_counter() - start < 2.0
    # counting checks the budget after each position of each degree's
    # pass, so it stops there too
    for budget in (1, 1000):
        start = time.perf_counter()
        with pytest.raises(sb.BudgetExceededError) as err:
            count_strongly_stable(4, 12, budget=budget)
        assert err.value.partial_count == budget
        assert time.perf_counter() - start < 2.0


def test_a_search_miss_skips_dead_shadows():
    # the pins depend on the degree alone, so a (degree, shadow) pair that
    # yielded no chain is not walked again; without that, this miss in two
    # variables takes time exponential in the corner degree
    prof = sb.ExtremalProfile(2, ((1, 24, 26),))
    start = time.perf_counter()
    out = search_extremal_profile(prof)
    assert time.perf_counter() - start < 1.0
    assert out.found is None and out.note == PROFILE_MISS


def test_a_pin_above_its_class_size_misses_at_once():
    # degree 12 has 78 monomials of class 3, so neither corner value fits;
    # the walk alone takes seconds to learn that
    for b in (100, 79):
        start = time.perf_counter()
        out = search_extremal_profile(sb.ExtremalProfile(3, ((2, 12, b),)))
        assert time.perf_counter() - start < 0.5, b
        assert out.found is None and out.note == PROFILE_MISS
    assert search_extremal_profile(sb.ExtremalProfile(3, ((2, 12, 78),))).ok


def test_walks_reach_the_degree_cap(monkeypatch):
    # the walk recurses once per degree, up to the cap
    got = [I.gens for I in enumerate_strongly_stable(1, DEGREE_CAP, budget=DEGREE_CAP)]
    assert got == [((d,),) for d in range(1, DEGREE_CAP + 1)]
    out = search_extremal_profile(sb.ExtremalProfile(2, ((1, DEGREE_CAP, 1),)))
    assert out.found == MonomialIdeal(2, [(DEGREE_CAP, 0), (DEGREE_CAP - 1, 1)])
    # a search past the cap is refused before it builds a layer, naming
    # the degree asked for; it used to build 64 layers and then name 65
    built = _record_builds(monkeypatch)
    for search in (
        lambda: search_extremal_profile(sb.ExtremalProfile(2, ((1, 70, 1),))),
        lambda: search_matrix(GeneratorMatrix(2, 70, ((1, 1),))),
    ):
        with pytest.raises(sb.DomainError, match="^search degree must be an integer in 1..64, got 70$"):
            search()
    assert built == []


def test_small_budget_stops_a_wide_top_layer_at_once():
    # no degree lists its sets, and the count stops as soon as the chain
    # prefixes it carries pass the budget
    for n, dmax, budget in ((6, 5, 1000), (7, 4, 10**5)):
        start = time.perf_counter()
        with pytest.raises(sb.BudgetExceededError) as err:
            count_strongly_stable(n, dmax, budget=budget)
        assert err.value.partial_count == budget
        assert str(err.value) == f"enumeration exceeded the budget of {budget} ideals"
        assert time.perf_counter() - start < 0.5, (n, dmax)


def _record_builds(monkeypatch):
    """The (n, d) of each layer built from here on, none cached; a layer
    above degree 5 or of more than 5,000 monomials fails the test at once
    instead of being built."""
    built = []

    class RecordedLayer(enumeration._Layer):
        __slots__ = ()

        def __init__(self, n, d):
            if d > 5 or math.comb(n + d - 1, d) > 5000:
                raise AssertionError(f"built layer ({n}, {d})")
            built.append((n, d))
            super().__init__(n, d)

    monkeypatch.setattr(enumeration, "_Layer", RecordedLayer)
    monkeypatch.setattr(enumeration, "_layers", {})
    return built


def test_budget_zero_builds_no_layers(monkeypatch):
    # each monomial of degree 1..dmax generates its own ideal, so a budget
    # below their number, binom(n + dmax, dmax) - 1, stops before the walk
    # builds a layer; (11, 9) has 92,378 monomials of degree 9
    built = _record_builds(monkeypatch)
    start = time.perf_counter()
    for budget in (0, 1, math.comb(20, 9) - 2):
        with pytest.raises(sb.BudgetExceededError) as err:
            count_strongly_stable(11, 9, budget=budget)
        assert err.value.partial_count == budget
        assert str(err.value) == f"enumeration exceeded the budget of {budget} ideals"
        with pytest.raises(sb.BudgetExceededError) as err:
            next(enumerate_strongly_stable(11, 9, budget=budget))
        assert err.value.partial_count == budget
    assert built == []
    assert time.perf_counter() - start < 1.0


def test_refused_count_builds_no_layer_above_its_stop(monkeypatch):
    # (10, 10) passes the monomial gate at 200,000 and its count stops
    # inside degree 3, whose pass reads the up masks of degree 4; building
    # all ten layers first took about 8 s and 2.8 GiB at a budget of 10**6
    # on a 2-vCPU machine
    for run in (
        lambda: count_strongly_stable(10, 10, budget=200_000),
        lambda: next(enumerate_strongly_stable(10, 10, budget=200_000)),
    ):
        built = _record_builds(monkeypatch)
        with pytest.raises(sb.BudgetExceededError) as err:
            run()
        assert (str(err.value), err.value.partial_count) == (
            "enumeration exceeded the budget of 200000 ideals", 200_000
        )
        assert built == [(10, d) for d in range(1, 5)]


def test_wide_bounds_are_refused_at_once(monkeypatch):
    # with min(n, dmax) >= 2 a bound holds at least the 2^(max+1) - 2
    # ideals of (2, max): (400, 2) passes the monomial gate at 80,600,
    # and counting it built the 80,200 monomials of degree 2 (1.5 GiB);
    # (4 * 10**5, 4 * 10**5) spent seconds on its binomial before refusing
    built = _record_builds(monkeypatch)
    for run in (
        lambda: count_strongly_stable(400, 2, budget=10**6),
        lambda: next(enumerate_strongly_stable(2, 400, budget=10**6)),
    ):
        with pytest.raises(sb.BudgetExceededError) as err:
            run()
        assert (str(err.value), err.value.partial_count) == (
            "enumeration exceeded the budget of 1000000 ideals", 10**6
        )
    assert built == []
    start = time.perf_counter()
    with pytest.raises(sb.BudgetExceededError) as err:
        count_strongly_stable(4 * 10**5, 4 * 10**5, budget=10)
    assert err.value.partial_count == 10
    assert time.perf_counter() - start < 0.1


def test_search_miss_builds_no_layer_above_its_stop(monkeypatch):
    # no set of degree 1 holds x_1 and x_3 without x_2, so the search
    # misses on row 1 and builds no layer of the 23 rows above it, the
    # last of which reaches the 118,755 monomials of degree 24
    rows = [(1, 0, 1, 0, 0, 0)]
    while len(rows) < 24:
        sums = [sum(rows[-1][:i + 1]) for i in range(6)]
        rows.append(tuple(sums[:-1]) + (sums[-1] + 1,))
    assert rows[-1] == (1, 23, 277, 2323, 15226, 83053)
    built = _record_builds(monkeypatch)
    out = search_matrix(GeneratorMatrix(6, 1, tuple(rows)))
    assert (out.found, out.note) == (None, MATRIX_MISS)
    assert built == [(6, 1)]


def test_search_builds_only_the_pinned_variables(monkeypatch, capsys):
    # classes 3..12 are pinned to zero at every degree, so the search walks
    # x_1, x_2 alone; walking all twelve variables filled a 2 GiB address
    # space at degree 9 and ended in MemoryError
    built = _record_builds(monkeypatch)
    assert cli.main(["search", "profile", "--n", "12", "--profile", "1,5,1"]) == 0
    zeros = " 0" * 10
    assert capsys.readouterr().out == f"n=12\n5 0{zeros}\n4 1{zeros}\n"
    assert built == [(2, d) for d in range(1, 6)]


def test_narrowed_search_matches_the_raw_walk():
    # the searches walk the classes up to the last one a pin leaves open;
    # the raw walk over all n variables meets the same first chain, on the
    # hits and the misses of every profile and of the matrices (each one
    # also with an entry raised) of every ideal in a few small bounds
    cases = []
    for n in (2, 3, 4):
        for k in (1, 2):
            for cols in combinations(range(1, n), k):
                for rows in combinations(range(4, 0, -1), k):
                    for vals in product(range(1, 4), repeat=k):
                        profile = sb.ExtremalProfile(n, tuple(zip(cols, rows, vals)))
                        cases.append((n, enumeration._profile_specs(profile), PROFILE_MISS))
    for n, dmax in ((2, 4), (3, 3), (4, 2)):
        for I in enumerate_strongly_stable(n, dmax):
            M = sb.generator_matrix(I).canonical()
            for last in (M.rows[-1], M.rows[-1][:-1] + (M.rows[-1][-1] + 1,)):
                rows = GeneratorMatrix(n, M.jmin, M.rows[:-1] + (last,)).canonical()
                specs = [new_generator_row(rows, d) for d in range(1, rows.jmax + 1)]
                cases.append((n, specs, MATRIX_MISS))
    hits = 0
    for n, specs, miss in cases:
        narrowed = enumeration._search(n, specs, miss)
        layers = [enumeration._layer(n, 1)]
        masks = next(_chains(layers, specs), None)
        raw = None if masks is None else MonomialIdeal(n, _generators(layers, masks))
        assert narrowed == SearchOutcome(raw, miss if raw is None else ""), (n, specs)
        hits += narrowed.ok
    assert 0 < hits < len(cases)


def test_walk_bounds_must_be_positive():
    rng = random.Random(0)
    for n, dmax in ((0, 2), (2, 0)):
        for run in (
            lambda: count_strongly_stable(n, dmax),
            lambda: next(enumerate_strongly_stable(n, dmax)),
            lambda: random_strongly_stable(n, dmax, rng),
        ):
            with pytest.raises(sb.DomainError, match=r"^(n|dmax) must be an integer >= 1, got 0$"):
                run()


def test_count_matches_enumeration():
    for n, dmax in ((2, 3), (3, 3), (3, 4)):
        assert count_strongly_stable(n, dmax) == len(list(enumerate_strongly_stable(n, dmax)))


def _outcome(count, n, dmax, budget):
    try:
        return count(n, dmax, budget)
    except sb.BudgetExceededError as err:
        return (type(err), str(err), err.partial_count)


def _walked_count(n, dmax, budget):
    # reference: visit the nonempty chains one by one under the budget.
    # The default covers n <= 4, dmax <= 5, and each monomial of degree
    # 1..dmax generates its own ideal, so a cap below their number fails
    # as the walk would, without the walk
    if budget is None and (n > 4 or dmax > 5):
        raise sb.BudgetExceededError(
            "default budget covers n <= 4, dmax <= 5; pass an explicit budget to enumerate further",
            partial_count=0,
        )
    cap = 2 * 10**6 if budget is None else budget
    message = f"enumeration exceeded the budget of {cap} ideals"
    if math.comb(n + dmax, dmax) - 1 > cap:
        raise sb.BudgetExceededError(message, partial_count=cap)
    layers = _walk_layers(n, dmax)
    seen = 0
    for masks in _chains(layers, [None] * len(layers)):
        if any(masks):
            if seen >= cap:
                raise sb.BudgetExceededError(message, partial_count=seen)
            seen += 1
    return seen


def _enumerated_count(n, dmax, budget):
    return sum(1 for _ in enumerate_strongly_stable(n, dmax, budget))


def test_count_matches_the_chain_walk_under_every_budget():
    bounds = [(n, dmax) for n in range(1, 6) for dmax in range(1, 4)] + [(2, 6), (3, 4), (6, 2)]
    for n, dmax in bounds:
        total = _walked_count(n, dmax, 10**6)
        for budget in (None, 0, 1, 2, 3, 5, 17, total - 1, total, total + 1):
            expected = _outcome(_walked_count, n, dmax, budget)
            for route in (count_strongly_stable, _enumerated_count):
                assert _outcome(route, n, dmax, budget) == expected, (route, n, dmax, budget)


def test_large_counts_pinned():
    budget = 2**32
    for d in range(1, 31):
        assert count_strongly_stable(1, d, budget=budget) == d
        assert count_strongly_stable(2, d, budget=budget) == 2 ** (d + 1) - 2
    for n, dmax, total in (
        (4, 5, 683462), (5, 4, 683462), (3, 7, 252584), (3, 8, 3803646),
        (6, 3, 21758), (3, 9, 74327143), (4, 6, 161960218), (5, 5, 2725285449),
    ):
        assert count_strongly_stable(n, dmax, budget=budget) == total


def test_count_is_symmetric_in_n_and_dmax():
    # _count at (n, d) and at (d, n) agree on every pair below, which
    # sets wide top layers against chain-shaped ones; conjugation
    # (test_conjugation_transposes_the_bound) is the bijection behind it.
    # count_strongly_stable walks only one of the two
    pairs = [(n, d) for n in range(1, 25) for d in range(n + 1, 25) if n * d <= 24]
    for n, d in pairs:
        assert _count(n, d, 10**9) == _count(d, n, 10**9), (n, d)


def test_count_keeps_the_caps_of_the_bound_as_given():
    # a bound whose fewer-variable orientation passes the degree cap is
    # counted on the other one, whichever way it is given
    assert count_strongly_stable(65, 1, budget=65) == 65
    assert count_strongly_stable(65, 2, budget=2**70) == 2**66 - 2
    assert count_strongly_stable(2, 65, budget=2**70) == 2**66 - 2
    assert count_strongly_stable(1, 100, budget=100) == 100
    # the default caps read n and dmax as given
    with pytest.raises(sb.BudgetExceededError) as err:
        count_strongly_stable(5, 3)
    assert err.value.partial_count == 0
    assert str(err.value).startswith("default budget covers n <= 4, dmax <= 5")
    assert count_strongly_stable(3, 5) == 2429


def test_count_walks_no_more_variables_than_degrees(monkeypatch):
    # the top layer of (3, 5) has 21 monomials, that of (5, 3) 35
    walked = []
    layer = enumeration._layer

    def recorded(n, d):
        walked.append((n, d))
        return layer(n, d)

    monkeypatch.setattr(enumeration, "_layer", recorded)
    assert count_strongly_stable(5, 3, budget=10**4) == 2429
    assert count_strongly_stable(2, 10, budget=10**4) == 2046
    assert walked == [(3, d) for d in range(1, 6)] + [(2, d) for d in range(1, 11)]
    # enumeration's up-front count follows the same rule, then lists the
    # ideals on the bound as given
    walked.clear()
    next(enumerate_strongly_stable(5, 3, budget=10**4))
    assert walked == [(3, d) for d in range(1, 6)] + [(5, d) for d in range(1, 4)]


def test_conjugation_transposes_the_bound():
    # a second route to the counts: conjugation sends the ideals of (n, d)
    # one to one onto those of (d, n)
    listed = {
        bound: list(enumerate_strongly_stable(*bound, budget=10**5))
        for bound in ((2, 3), (3, 2), (3, 3), (2, 5), (5, 2), (3, 4), (4, 3), (4, 4))
    }
    for n, d in ((2, 3), (3, 2), (3, 3), (2, 5), (3, 4), (4, 3), (4, 4)):
        image = {conjugate_generators(I, d) for I in listed[(n, d)]}
        assert len(image) == len(listed[(n, d)]), (n, d)
        assert image == {frozenset(I.gens) for I in listed[(d, n)]}, (n, d)


def test_count_matches_the_chain_listing():
    # the forward pass against the nonempty chains the walk lists, on
    # bounds with wide top layers (n = 5) and a deep one (2, 10); one
    # below the listed number it stops with the budget error
    for n, d in [(n, d) for n in range(1, 6) for d in range(1, 5)] + [(2, 10)]:
        layers = _walk_layers(n, d)
        listed = sum(1 for masks in _chains(layers, [None] * d) if any(masks))
        assert _count(n, d, listed) == listed, (n, d)
        with pytest.raises(sb.BudgetExceededError) as err:
            _count(n, d, listed - 1)
        message = f"enumeration exceeded the budget of {listed - 1} ideals"
        assert (str(err.value), err.value.partial_count) == (message, listed - 1), (n, d)


def test_search_matrix_obstructions():
    A = GeneratorMatrix(4, 2, ((1, 2, 0, 0), (1, 3, 3, 4)))
    B = GeneratorMatrix(4, 5, ((1, 3, 2, 2), (1, 4, 6, 9)))
    for M in (A, B):
        assert sb.check_matrix_necessary(M).ok
        out = search_matrix(M)
        assert out.found is None
        assert out.note == "no strongly stable ideal has this matrix of generators"
    # the first family reduces to an infeasible total count vector
    new_rows = [new_generator_row(A, j) for j in range(A.jmin, A.jmax + 1)]
    assert [sum(column) for column in zip(*new_rows)] == [1, 2, 0, 1]


def test_search_matrix_self(corpus_n3):
    rng = random.Random(3)
    for I in rng.sample(corpus_n3, 25):
        M = sb.generator_matrix(I)
        out = search_matrix(M)
        assert out.found is not None
        assert sb.generator_matrix(out.found) == M


def test_search_matrix_bounded_note():
    # trailing implied rows collapse: this is the matrix of (x_1)
    M = GeneratorMatrix(2, 1, ((1, 0), (1, 1), (1, 2)))
    assert M.canonical().rows == ((1, 0),)
    out = search_matrix(M)
    assert out.found == MonomialIdeal(2, [(1, 0)])
    assert (out.examined, out.note) == (1, "")
    # a genuinely two-row matrix: the search walks through its last row
    M2 = GeneratorMatrix(2, 1, ((1, 0), (1, 2)))
    out = search_matrix(M2)
    assert out.found == MonomialIdeal(2, [(1, 0), (0, 2)])
    assert (out.examined, out.note) == (1, "")


def test_search_matrix_negative_target():
    # row 3 falls below the prefix sums (1, 3, 5) of row 2 in class 3, so
    # degree 3 asks for -1 new generators there and admits no set
    M = GeneratorMatrix(3, 2, ((1, 2, 2), (1, 3, 4)))
    out = search_matrix(M)
    assert (out.found, out.examined) == (None, 0)
    assert out.note == "no strongly stable ideal has this matrix of generators"


def test_search_depth_is_not_a_parameter():
    # each search walks to the depth its input fixes, and takes no budget:
    # a stale positional depth or budget is refused
    M = GeneratorMatrix(2, 1, ((1, 1),))
    prof = sb.ExtremalProfile(4, ((2, 4, 1), (3, 2, 1)))
    with pytest.raises(TypeError):
        search_matrix(M, 2)
    with pytest.raises(TypeError):
        search_matrix(M, dmax=2)
    with pytest.raises(TypeError):
        search_extremal_profile(prof, 4)
    with pytest.raises(TypeError):
        search_matrix(M, budget=0)
    with pytest.raises(TypeError):
        search_extremal_profile(prof, budget=0)


def test_search_profile_positive_and_negative():
    prof = sb.ExtremalProfile(4, ((2, 4, 1), (3, 2, 1)))
    out = search_extremal_profile(prof)
    assert out.found is not None
    assert extremal_corners(sb.ek_betti(out.found)) == list(prof.triples)

    bad = sb.ExtremalProfile(4, ((2, 4, 5), (3, 2, 1)))
    assert not sb.check_profile(bad).ok
    out = search_extremal_profile(bad)
    assert out.found is None and out.note.startswith("no strongly stable ideal")


def _chain_counts(layers, masks):
    """The nonzero (class, degree) counts of a chain's new generators."""
    return {
        (i, d): count
        for d, (layer, mask) in enumerate(zip(layers, masks), 1)
        for i, cmask in enumerate(layer.class_masks, 1)
        if (count := (mask & cmask).bit_count())
    }


def _coarse_profile_hit(profile):
    """An independent reading of the profile search: pin only the cells at
    or above a corner (zero, or the corner's value), walk the chains and
    take the first whose corners, computed from its (class, degree)
    counts, are the profile."""
    n = profile.n
    j1 = profile.triples[0][1]
    specs = [[None] * n for _ in range(j1)]
    for ip, jp, bp in profile.triples:
        for d in range(jp, j1 + 1):
            for i in range(ip + 1, n + 1):
                specs[d - 1][i - 1] = bp if (i - 1, d) == (ip, jp) else 0
    layers = _walk_layers(n, j1)
    for masks in _chains(layers, specs):
        if tuple(extremal_corners(betti_from_counts(_chain_counts(layers, masks), n))) == profile.triples:
            return MonomialIdeal(n, _generators(layers, masks))
    return None


def test_profile_pins_are_exact():
    # a chain meets a profile's pins exactly when its corners are the
    # profile, over every chain of a few small bounds and every profile
    # those chains realize (a corner in column 0 is no profile's)
    for n, dmax in ((2, 5), (3, 4), (4, 3)):
        layers = _walk_layers(n, dmax)
        chains = []
        for masks in _chains(layers, [None] * dmax):
            counts = _chain_counts(layers, masks)
            chains.append((counts, tuple(extremal_corners(betti_from_counts(counts, n)))))
        profiles = {corners for _, corners in chains if corners and corners[0][0] > 0}
        assert len(profiles) > 10
        for triples in profiles:
            specs = enumeration._profile_specs(sb.ExtremalProfile(n, triples))
            for counts, corners in chains:
                meets = all(d <= len(specs) for _, d in counts) and all(
                    pin is None or pin == counts.get((c + 1, d), 0)
                    for d, row in enumerate(specs, 1)
                    for c, pin in enumerate(row)
                )
                assert meets == (corners == triples), (n, triples, counts)


def test_profile_pins_match_the_decision():
    # every profile with n <= 4, corner degrees <= 5, at most 3 corners
    # and values <= 4: the pins alone decide, as check_profile does, and
    # the hit is the first chain the corner test picks from coarser pins
    profiles = hits = 0
    for n in (2, 3, 4):
        for k in (1, 2, 3):
            for cols in combinations(range(1, n), k):
                for rows in combinations(range(5, 0, -1), k):
                    for vals in product(range(1, 5), repeat=k):
                        prof = sb.ExtremalProfile(n, tuple(zip(cols, rows, vals)))
                        out = search_extremal_profile(prof)
                        profiles += 1
                        hits += out.ok
                        assert out.ok == sb.check_profile(prof).ok, prof
                        assert out.examined == int(out.ok)
                        assert out.found == _coarse_profile_hit(prof), prof
                        if out.ok:
                            assert sb.verify_profile(out.found, prof)
                            assert sb.is_strongly_stable(out.found)
    assert (profiles, hits) == (1400, 217)


def test_random_generator_properties():
    rng = random.Random(42)
    ideals = [random_strongly_stable(4, 5, rng) for _ in range(50)]
    for I in ideals:
        assert I.gens
        assert I.n == 4
        assert I.max_gen_degree() <= 5
        assert sb.is_strongly_stable(I)
    again = [random_strongly_stable(4, 5, random.Random(42)) for _ in range(50)]
    assert [I.gens for I in (random_strongly_stable(4, 5, random.Random(42)),)] == [again[0].gens]


def test_three_variable_sufficiency_samples(corpus_n3):
    # matrices passing the necessary conditions in 3 variables are realized
    rng = random.Random(8)
    sample = [I for I in corpus_n3 if I.n == 3]
    for I in rng.sample(sample, 20):
        M = sb.generator_matrix(I)
        assert search_matrix(M).found is not None
        result = sb.realize_matrix_greedy(M)
        assert result.ok
        assert sb.generator_matrix(result.ideal) == M


def _closed_sets(n, d):
    """Every set of degree-d monomials closed under all the moves
    x_j -> x_i with i < j, not only the adjacent ones."""
    mons = enumerate_degree(n, d)
    out = []
    for r in range(len(mons) + 1):
        for sub in map(frozenset, combinations(mons, r)):
            if all(swap_variable(u, j, i) in sub
                   for u in sub for j in range(2, n + 1) if u[j - 1] for i in range(1, j)):
                out.append(sub)
    return out


def _random_spec(rng, free_counts):
    spec = []
    for f in free_counts:
        r = rng.random()
        spec.append(None if r < 0.4 else 0 if r < 0.55 else -1 if r < 0.6
                    else rng.randint(1, f + 1))
    return spec


def test_filters_match_brute_force():
    # every exchange-closed superset of a shadow whose new elements match
    # the spec, listed from the monomials alone, against the kernel, and
    # in the order enumeration yields them
    rng = random.Random(11)
    nonempty = 0
    for n, d in ((2, 1), (2, 5), (3, 1), (3, 2), (3, 3), (4, 2)):
        layer = _walk_layers(n, d)[-1]
        closed = _closed_sets(n, d)
        # the bases are the shadows of closed sets one degree down
        below = _closed_sets(n, d - 1) if d > 1 else [()]
        for _ in range(40):
            shadow = {
                tuple(e + (t == s) for t, e in enumerate(u))
                for u in rng.choice(below)
                for s in range(n)
            }
            spec = None
            if rng.random() < 0.8:
                free_counts = [sum(max_index(u) == i for u in layer.mons if u not in shadow)
                               for i in range(1, n + 1)]
                spec = _random_spec(rng, free_counts)
            expected = set()
            for full in closed:
                counts = [sum(max_index(u) == i for u in full - shadow) for i in range(1, n + 1)]
                if shadow <= full and (spec is None or all(
                    tgt is None or tgt == c for tgt, c in zip(spec, counts)
                )):
                    expected.add(full)
            base = sum(1 << layer.mons.index(u) for u in shadow)
            got = [
                frozenset(u for t, u in enumerate(layer.mons) if mask >> t & 1)
                for mask in _filters(layer, base, spec)
            ]
            assert len(got) == len(set(got))
            assert set(got) == expected, (n, d, sorted(shadow), spec)
            # exclusion first is the canonical order: the new elements as
            # a list in descending deglex, a list before its extensions
            assert got == sorted(got, key=lambda S: sorted(S - shadow, reverse=True))
            nonempty += bool(expected)
    assert nonempty >= 80


def test_oversized_layers_are_not_cached():
    # the degree-5..8 layers of nine variables (1,287 to 12,870 monomials)
    # that the raw walk of this search builds must not outlive it (the
    # search itself walks only x_1, x_2)
    specs = enumeration._profile_specs(sb.ExtremalProfile(9, ((1, 8, 1),)))
    assert next(_chains([enumeration._layer(9, 1)], specs), None) is not None
    sizes = {key: len(layer.mons) for key, layer in enumeration._layers.items()}
    assert all(size <= enumeration._CACHED_LAYER_SIZE for size in sizes.values())
    assert (9, 4) in sizes and (9, 5) not in sizes


# Recorded outcomes of seeded searches: the input, the hit's generators
# as exponent digits (or None for a miss) and examined.
PROFILE_PINS = [
    ((3, ((1, 5, 1), (2, 4, 1))), "230 400 310 301", 1),
    ((5, ((1, 3, 4), (2, 2, 1))), None, 0),
    ((3, ((1, 4, 1), (2, 3, 1))), "130 300 210 201", 1),
    ((3, ((1, 4, 3), (2, 3, 1))), None, 0),
    ((3, ((1, 4, 1), (2, 2, 1))), "040 200 110 101", 1),
    ((4, ((2, 4, 1), (3, 3, 2))), "0400 0310 3000 2100 2010 2001 1200 1110 1101", 1),
    ((4, ((2, 3, 1), (3, 2, 1))), "0300 0210 2000 1100 1010 1001", 1),
    ((4, ((2, 4, 3), (3, 3, 1))), "1300 1210 1120 0400 0310 3000 2100 2010 2001", 1),
    ((3, ((2, 2, 1),)), "200 110 101", 1),
    ((3, ((2, 2, 2),)), "200 110 101 020 011", 1),
    ((4, ((1, 1, 1),)), "1000 0100", 1),
    ((4, ((1, 3, 4),)), None, 0),
    ((5, ((1, 2, 1),)), "20000 11000", 1),
    ((5, ((2, 2, 3),)), "20000 11000 10100 02000 01100 00200", 1),
    ((3, ((2, 1, 1),)), "100 010 001", 1),
    ((4, ((3, 3, 3),)), "3000 2100 2010 2001 1200 1110 1101 0300 0210 0201", 1),
    ((3, ((1, 2, 2),)), "200 110 020", 1),
    ((2, ((1, 2, 4),)), None, 0),
    ((2, ((1, 2, 2),)), "20 11 02", 1),
    ((5, ((3, 2, 3),)), "20000 11000 10100 10010 02000 01100 01010 00200 00110", 1),
]
MATRIX_PINS = [
    ((2, 1, ((1, 1),)), "10 01", 1),
    ((2, 1, ((0, 1),)), None, 0),
    ((4, 1, ((1, 1, 0, 0), (1, 2, 3, 2), (1, 3, 6, 10))), "0012 0003 0020 1000 0100", 1),
    ((2, 2, ((2, 2),)), None, 0),
    ((4, 3, ((1, 0, 0, 0),)), "3000", 1),
    ((5, 1, ((1, 0, 0, 0, 0), (1, 2, 3, 3, 2), (1, 3, 6, 10, 13))), "00102 00030 00021 02000 01100 01010 01001 00200 00110 10000", 1),
    ((3, 1, ((1, 1, 0), (1, 2, 3))), "002 100 010", 1),
    ((2, 3, ((1, 0), (1, 2))), "22 30", 1),
    ((3, 1, ((1, 1, 1),)), "100 010 001", 1),
    ((4, 1, ((1, 0, 1, 0), (1, 2, 3, 4))), None, 0),
    ((5, 2, ((1, 0, 0, 0, 0), (1, 3, 2, 1, 1))), "12000 11100 03000 20000", 1),
    ((5, 1, ((1, 0, 0, 0, 0), (1, 2, 2, 1, 1), (1, 3, 5, 7, 6))), None, 0),
    ((5, 2, ((1, 1, 1, 0, 0), (1, 3, 3, 4, 3))), "10020 03000 20000 11000 10100", 1),
    ((5, 1, ((1, 0, 0, 0, 0), (1, 2, 1, 1, 0))), None, 0),
    ((4, 1, ((1, 1, 1, 0), (1, 2, 3, 3), (1, 3, 6, 10))), "0003 1000 0100 0010", 1),
    ((4, 1, ((0, 0, 0, 0), (1, 1, 1, 1), (1, 3, 3, 4), (1, 4, 8, 11))), "0220 0300 2000 1100 1010 1001", 1),
    ((4, 1, ((1, 0, 0, 0),)), "1000", 1),
    ((4, 2, ((1, 2, 0, 0), (1, 3, 6, 3))), "1020 0120 0030 2000 1100 0200", 1),
    ((4, 1, ((1, 1, 0, 0),)), "1000 0100", 1),
    ((4, 1, ((1, 2, 0, 0),)), None, 0),
]


PROFILE_MISS = (
    "no strongly stable ideal (hence, in characteristic 0, no homogeneous "
    "ideal) has exactly these extremal corners"
)
MATRIX_MISS = "no strongly stable ideal has this matrix of generators"


def _search_record(search, target):
    out = search(target)
    found = out.found and " ".join("".join(map(str, g)) for g in out.found.gens)
    return found, out.examined, out.note


def test_search_outcomes_pinned():
    # a pruning change that keeps every hit but alters what the walk
    # yields changes a hit or examined here
    for search, make, miss, pins in (
        (search_extremal_profile, lambda a: sb.ExtremalProfile(*a), PROFILE_MISS, PROFILE_PINS),
        (search_matrix, lambda a: GeneratorMatrix(*a), MATRIX_MISS, MATRIX_PINS),
    ):
        for arg, found, examined in pins:
            full = (found, examined, "" if found else miss)
            assert _search_record(search, make(arg)) == full, arg
