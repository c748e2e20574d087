import random
import time
from itertools import combinations

import pytest

import stablebetti as sb
from stablebetti.enumeration import (
    count_strongly_stable,
    enumerate_strongly_stable,
    random_strongly_stable,
    search_extremal_profile,
    search_matrix,
)
from stablebetti.ideals import GeneratorMatrix, MonomialIdeal
from stablebetti.monomials import enumerate_degree


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
    with pytest.raises(sb.BudgetExceededError) as err:
        search_extremal_profile(sb.ExtremalProfile(4, ((2, 12, 2),)), budget=0)
    assert err.value.partial_count == 0
    assert time.perf_counter() - start < 2.0


def test_budget_zero_builds_no_layers():
    # every bound holds the chain (x_1), so budget 0 stops before the
    # walk builds a layer; (11, 9) has 92,378 monomials of degree 9
    start = time.perf_counter()
    with pytest.raises(sb.BudgetExceededError) as err:
        count_strongly_stable(11, 9, budget=0)
    assert err.value.partial_count == 0
    assert str(err.value) == "enumeration exceeded the budget of 0 ideals"
    with pytest.raises(sb.BudgetExceededError) as err:
        next(enumerate_strongly_stable(11, 9, budget=0))
    assert err.value.partial_count == 0
    assert time.perf_counter() - start < 1.0


def test_count_matches_enumeration():
    for n, dmax in ((2, 3), (3, 3), (3, 4)):
        assert count_strongly_stable(n, dmax) == len(list(enumerate_strongly_stable(n, dmax)))


def test_search_matrix_obstructions():
    A = GeneratorMatrix(4, 2, ((1, 2, 0, 0), (1, 3, 3, 4)))
    B = GeneratorMatrix(4, 5, ((1, 3, 2, 2), (1, 4, 6, 9)))
    for M in (A, B):
        assert sb.check_matrix_necessary(M).ok
        out = search_matrix(M)
        assert out.found is None
        assert out.note == "no strongly stable ideal has this matrix of generators"
    # the first family reduces to an infeasible total count vector
    counts = sb.matrix_to_counts(A)
    totals = [0] * 4
    for (i, _), c in counts.items():
        totals[i - 1] += c
    assert totals == [1, 2, 0, 1]


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
    # each search walks to the depth its input fixes; a stale positional
    # depth is refused rather than taken as the budget
    M = GeneratorMatrix(2, 1, ((1, 1),))
    prof = sb.ExtremalProfile(4, ((2, 4, 1), (3, 2, 1)))
    with pytest.raises(TypeError):
        search_matrix(M, 2)
    with pytest.raises(TypeError):
        search_matrix(M, dmax=2)
    with pytest.raises(TypeError):
        search_extremal_profile(prof, 4)


def test_search_profile_positive_and_negative():
    prof = sb.ExtremalProfile(4, ((2, 4, 1), (3, 2, 1)))
    out = search_extremal_profile(prof)
    assert out.found is not None
    assert sb.extremal_from_stable(out.found) == list(prof.triples)

    bad = sb.ExtremalProfile(4, ((2, 4, 5), (3, 2, 1)))
    assert not sb.check_profile(bad).ok
    out = search_extremal_profile(bad)
    assert out.found is None and out.note.startswith("no strongly stable ideal")


def test_search_budget():
    prof = sb.ExtremalProfile(4, ((2, 4, 1), (3, 2, 1)))
    with pytest.raises(sb.BudgetExceededError):
        search_extremal_profile(prof, budget=0)


def test_random_generator_properties():
    rng = random.Random(42)
    ideals = [random_strongly_stable(4, 5, rng) for _ in range(50)]
    for I in ideals:
        assert not I.is_zero
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
