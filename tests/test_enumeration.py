import math
import random
import time
from itertools import combinations, product

import pytest

import stablebetti as sb
from stablebetti import enumeration
from stablebetti.betti import corners_from_counts
from stablebetti.enumeration import (
    _budgeted,
    _chains,
    _count_filters,
    _filters,
    _generators,
    _linked_layers,
    _shadow,
    count_strongly_stable,
    enumerate_strongly_stable,
    random_strongly_stable,
    search_extremal_profile,
    search_matrix,
)
from stablebetti.ideals import GeneratorMatrix, MonomialIdeal
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
    # counting adds a memoised count at once, and still stops at the budget
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


def test_walks_reach_the_degree_cap():
    # the walk recurses once per degree, up to the cap
    got = [I.gens for I in enumerate_strongly_stable(1, DEGREE_CAP, budget=DEGREE_CAP)]
    assert got == [((d,),) for d in range(1, DEGREE_CAP + 1)]
    out = search_extremal_profile(sb.ExtremalProfile(2, ((1, DEGREE_CAP, 1),)))
    assert out.found == MonomialIdeal(2, [(DEGREE_CAP, 0), (DEGREE_CAP - 1, 1)])


def test_small_budget_stops_a_wide_top_layer_at_once():
    # the top degree is counted without listing its sets, and the count
    # stops as soon as it passes the room the budget leaves
    for n, dmax, budget in ((6, 5, 1000), (7, 4, 10**5)):
        start = time.perf_counter()
        with pytest.raises(sb.BudgetExceededError) as err:
            count_strongly_stable(n, dmax, budget=budget)
        assert err.value.partial_count == budget
        assert str(err.value) == f"enumeration exceeded the budget of {budget} ideals"
        assert time.perf_counter() - start < 0.5, (n, dmax)


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


def _outcome(count, n, dmax, budget):
    try:
        return count(n, dmax, budget)
    except sb.BudgetExceededError as err:
        return (type(err), str(err), err.partial_count)


def _walked_count(n, dmax, budget):
    # reference: visit the nonempty chains one by one under the budget
    layers, cap, message = enumeration._walk_setup(n, dmax, budget)
    return sum(1 for _ in _budgeted(_chains(layers, lambda d: None), cap, message))


def test_count_matches_the_chain_walk_under_every_budget():
    bounds = [(n, dmax) for n in range(1, 6) for dmax in range(1, 4)] + [(2, 6), (3, 4), (6, 2)]
    for n, dmax in bounds:
        total = _walked_count(n, dmax, 10**6)
        for budget in (None, -1, 0, 1, 2, 3, 5, 17, total - 1, total, total + 1):
            expected = _outcome(_walked_count, n, dmax, budget)
            assert _outcome(count_strongly_stable, n, dmax, budget) == expected, (n, dmax, budget)


def test_large_counts_pinned():
    budget = 2**31
    for d in range(1, 31):
        assert count_strongly_stable(1, d, budget=budget) == d
        assert count_strongly_stable(2, d, budget=budget) == 2 ** (d + 1) - 2
    for n, dmax, total in (
        (4, 5, 683462), (5, 4, 683462), (3, 7, 252584), (3, 8, 3803646),
        (6, 3, 21758), (3, 9, 74327143),
    ):
        assert count_strongly_stable(n, dmax, budget=budget) == total


def test_count_is_symmetric_in_n_and_dmax():
    # observed, not proved: the count at (n, d) equals the count at (d, n)
    # on every pair below, which sets wide top layers against chain-shaped
    # ones; (4, 6) = (6, 4) = 161,960,218 takes seconds and is left out
    pairs = [(n, d) for n in range(1, 25) for d in range(n + 1, 25) if n * d <= 24]
    for n, d in pairs:
        if (n, d) != (4, 6):
            assert count_strongly_stable(n, d, budget=10**9) == count_strongly_stable(
                d, n, budget=10**9
            ), (n, d)


def test_count_filters_matches_the_listing():
    # per layer, against _filters over every base the count meets: 0 and
    # the shadow of each closed set one degree down
    for n, d in [(n, d) for n in range(1, 6) for d in range(1, 5)] + [(2, 10)]:
        layers = _linked_layers(n, d)
        bases = {0}
        if d > 1:
            bases |= {_shadow(layers[-2], mask) for mask in _filters(layers[-2], 0, None)}
        for base in bases:
            listed = sum(1 for _ in _filters(layers[-1], base, None))
            assert _count_filters(layers[-1], base, math.inf) == listed, (n, d, base)
            assert _count_filters(layers[-1], base, listed - 1) > listed - 1, (n, d, base)


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
    specs = {d: [None] * n for d in range(1, j1 + 1)}
    for ip, jp, bp in profile.triples:
        for d in range(jp, j1 + 1):
            for i in range(ip + 1, n + 1):
                specs[d][i - 1] = bp if (i - 1, d) == (ip, jp) else 0
    layers = _linked_layers(n, j1)
    for masks in _chains(layers, specs.__getitem__):
        if tuple(corners_from_counts(_chain_counts(layers, masks))) == profile.triples:
            return MonomialIdeal(n, _generators(layers, masks))
    return None


def test_profile_pins_are_exact():
    # a chain meets a profile's pins exactly when its corners are the
    # profile, over every chain of a few small bounds and every profile
    # those chains realize (a corner in column 0 is no profile's)
    for n, dmax in ((2, 5), (3, 4), (4, 3)):
        layers = _linked_layers(n, dmax)
        chains = []
        for masks in _chains(layers, lambda d: None):
            counts = _chain_counts(layers, masks)
            chains.append((counts, tuple(corners_from_counts(counts))))
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
    # the spec, listed from the monomials alone, against the kernel
    rng = random.Random(11)
    nonempty = 0
    for n, d in ((2, 1), (2, 5), (3, 1), (3, 2), (3, 3), (4, 2)):
        layer = _linked_layers(n, d)[-1]
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
            base = sum(1 << layer.index[u] for u in shadow)
            got = [
                frozenset(u for t, u in enumerate(layer.mons) if mask >> t & 1)
                for mask in _filters(layer, base, spec)
            ]
            assert len(got) == len(set(got))
            assert set(got) == expected, (n, d, sorted(shadow), spec)
            nonempty += bool(expected)
    assert nonempty >= 80


def test_oversized_layers_are_not_cached():
    # a budget-0 search still builds its layers; the degree-5..8 layers of
    # nine variables (1,287 to 12,870 monomials) must not outlive it
    with pytest.raises(sb.BudgetExceededError):
        search_extremal_profile(sb.ExtremalProfile(9, ((1, 8, 1),)), budget=0)
    sizes = {key: len(layer.mons) for key, layer in enumeration._layers.items()}
    assert all(size <= enumeration._CACHED_LAYER_SIZE for size in sizes.values())
    assert (9, 4) in sizes and (9, 5) not in sizes


# Recorded outcomes of seeded searches: the input, the hit's generators
# as exponent digits (or None for a miss), examined, and the
# partial_count raised at budgets 0, 1 and 3 (None where the budget
# held and the search gave its full outcome).
PROFILE_PINS = [
    ((3, ((1, 5, 1), (2, 4, 1))), "230 400 310 301", 1, (0, None, None)),
    ((5, ((1, 3, 4), (2, 2, 1))), None, 0, (None, None, None)),
    ((3, ((1, 4, 1), (2, 3, 1))), "130 300 210 201", 1, (0, None, None)),
    ((3, ((1, 4, 3), (2, 3, 1))), None, 0, (None, None, None)),
    ((3, ((1, 4, 1), (2, 2, 1))), "040 200 110 101", 1, (0, None, None)),
    ((4, ((2, 4, 1), (3, 3, 2))), "0400 0310 3000 2100 2010 2001 1200 1110 1101", 1, (0, None, None)),
    ((4, ((2, 3, 1), (3, 2, 1))), "0300 0210 2000 1100 1010 1001", 1, (0, None, None)),
    ((4, ((2, 4, 3), (3, 3, 1))), "1300 1210 1120 0400 0310 3000 2100 2010 2001", 1, (0, None, None)),
    ((3, ((2, 2, 1),)), "200 110 101", 1, (0, None, None)),
    ((3, ((2, 2, 2),)), "200 110 101 020 011", 1, (0, None, None)),
    ((4, ((1, 1, 1),)), "1000 0100", 1, (0, None, None)),
    ((4, ((1, 3, 4),)), None, 0, (None, None, None)),
    ((5, ((1, 2, 1),)), "20000 11000", 1, (0, None, None)),
    ((5, ((2, 2, 3),)), "20000 11000 10100 02000 01100 00200", 1, (0, None, None)),
    ((3, ((2, 1, 1),)), "100 010 001", 1, (0, None, None)),
    ((4, ((3, 3, 3),)), "3000 2100 2010 2001 1200 1110 1101 0300 0210 0201", 1, (0, None, None)),
    ((3, ((1, 2, 2),)), "200 110 020", 1, (0, None, None)),
    ((2, ((1, 2, 4),)), None, 0, (None, None, None)),
    ((2, ((1, 2, 2),)), "20 11 02", 1, (0, None, None)),
    ((5, ((3, 2, 3),)), "20000 11000 10100 10010 02000 01100 01010 00200 00110", 1, (0, None, None)),
]
MATRIX_PINS = [
    ((2, 1, ((1, 1),)), "10 01", 1, (0, None, None)),
    ((2, 1, ((0, 1),)), None, 0, (None, None, None)),
    ((4, 1, ((1, 1, 0, 0), (1, 2, 3, 2), (1, 3, 6, 10))), "0012 0003 0020 1000 0100", 1, (0, None, None)),
    ((2, 2, ((2, 2),)), None, 0, (None, None, None)),
    ((4, 3, ((1, 0, 0, 0),)), "3000", 1, (0, None, None)),
    ((5, 1, ((1, 0, 0, 0, 0), (1, 2, 3, 3, 2), (1, 3, 6, 10, 13))), "00102 00030 00021 02000 01100 01010 01001 00200 00110 10000", 1, (0, None, None)),
    ((3, 1, ((1, 1, 0), (1, 2, 3))), "002 100 010", 1, (0, None, None)),
    ((2, 3, ((1, 0), (1, 2))), "22 30", 1, (0, None, None)),
    ((3, 1, ((1, 1, 1),)), "100 010 001", 1, (0, None, None)),
    ((4, 1, ((1, 0, 1, 0), (1, 2, 3, 4))), None, 0, (None, None, None)),
    ((5, 2, ((1, 0, 0, 0, 0), (1, 3, 2, 1, 1))), "12000 11100 03000 20000", 1, (0, None, None)),
    ((5, 1, ((1, 0, 0, 0, 0), (1, 2, 2, 1, 1), (1, 3, 5, 7, 6))), None, 0, (None, None, None)),
    ((5, 2, ((1, 1, 1, 0, 0), (1, 3, 3, 4, 3))), "10020 03000 20000 11000 10100", 1, (0, None, None)),
    ((5, 1, ((1, 0, 0, 0, 0), (1, 2, 1, 1, 0))), None, 0, (None, None, None)),
    ((4, 1, ((1, 1, 1, 0), (1, 2, 3, 3), (1, 3, 6, 10))), "0003 1000 0100 0010", 1, (0, None, None)),
    ((4, 1, ((0, 0, 0, 0), (1, 1, 1, 1), (1, 3, 3, 4), (1, 4, 8, 11))), "0220 0300 2000 1100 1010 1001", 1, (0, None, None)),
    ((4, 1, ((1, 0, 0, 0),)), "1000", 1, (0, None, None)),
    ((4, 2, ((1, 2, 0, 0), (1, 3, 6, 3))), "1020 0120 0030 2000 1100 0200", 1, (0, None, None)),
    ((4, 1, ((1, 1, 0, 0),)), "1000 0100", 1, (0, None, None)),
    ((4, 1, ((1, 2, 0, 0),)), None, 0, (None, None, None)),
]


PROFILE_MISS = (
    "no strongly stable ideal (hence, in characteristic 0, no homogeneous "
    "ideal) has exactly these extremal corners"
)
MATRIX_MISS = "no strongly stable ideal has this matrix of generators"


def _search_record(search, target, budget):
    try:
        out = search(target) if budget is None else search(target, budget=budget)
    except sb.BudgetExceededError as err:
        return str(err), err.partial_count
    found = out.found and " ".join("".join(map(str, g)) for g in out.found.gens)
    return found, out.examined, out.note


def test_search_outcomes_pinned():
    # a pruning change that keeps every hit but alters what the walk
    # yields changes a hit, examined or a budget outcome here
    for search, make, kind, miss, pins in (
        (search_extremal_profile, lambda a: sb.ExtremalProfile(*a), "profile", PROFILE_MISS,
         PROFILE_PINS),
        (search_matrix, lambda a: GeneratorMatrix(*a), "matrix", MATRIX_MISS, MATRIX_PINS),
    ):
        for arg, found, examined, partials in pins:
            target = make(arg)
            full = (found, examined, "" if found else miss)
            assert _search_record(search, target, None) == full, arg
            for budget, partial in zip((0, 1, 3), partials):
                expected = full if partial is None else (
                    f"{kind} search exceeded the budget of {budget} candidates", partial)
                assert _search_record(search, target, budget) == expected, (arg, budget)
