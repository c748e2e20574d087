from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stablebetti as sb
from stablebetti.macaulay import (
    binom,
    cumsum,
    is_o_sequence,
    macaulay_rep,
    macaulay_shift,
    min_shift_preimage,
)
from stablebetti.monomials import enumerate_degree


def reps_by_search(amax, d):
    """Oracle: for each a < amax, all strictly decreasing tuples
    (k_d > ... > k_1 >= 0) whose binomial sum is a, from one pass over
    the tuples with k_d < amax + d (a larger k_d alone gives
    binom(k_d, d) > a)."""
    hits = {a: [] for a in range(amax)}
    for ks in combinations(range(amax + d - 1, -1, -1), d):
        a = sum(binom(k, i) for k, i in zip(ks, range(d, 0, -1)))
        if a in hits:
            hits[a].append(ks)
    return hits


def test_binom_conventions():
    assert binom(4, 2) == 6
    assert binom(-1, -1) == 0
    assert binom(0, 0) == 1
    assert binom(3, 5) == 0
    assert binom(5, 0) == 1
    assert binom(-2, 0) == 0
    assert binom(0, -1) == 0


def test_rep_examples():
    assert macaulay_rep(0, 3).ks == (2, 1, 0)
    assert macaulay_rep(3, 2).ks == (3, 0)
    assert macaulay_rep(5, 2).ks == (3, 2)


def test_rep_unique_against_search():
    for d in (1, 2, 3):
        for a, hits in reps_by_search(40, d).items():
            assert len(hits) == 1, (a, d, hits)
            assert macaulay_rep(a, d).ks == hits[0]


def test_rep_reconstitutes_exhaustive():
    for d in range(1, 9):
        for a in range(0, 10_001, 7):
            rep = macaulay_rep(a, d)
            assert sum(binom(k, i) for k, i in rep.terms()) == a
            assert all(x > y for x, y in zip(rep.ks, rep.ks[1:]))
            assert rep.ks[-1] >= 0


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=8))
def test_rep_reconstitutes_random(a, d):
    rep = macaulay_rep(a, d)
    assert sum(binom(k, i) for k, i in rep.terms()) == a
    assert all(x > y for x, y in zip(rep.ks, rep.ks[1:]))


def test_rep_reconstitutes_huge():
    # coefficients near 10^10 and 10^15: out of reach of a one-step scan
    for a, d in ((10**20, 2), (10**100, 7)):
        rep = macaulay_rep(a, d)
        assert sum(binom(k, i) for k, i in rep.terms()) == a
        assert all(x > y for x, y in zip(rep.ks, rep.ks[1:]))
        assert rep.ks[-1] >= 0


def test_rep_rejects_bad_input():
    with pytest.raises(sb.DomainError):
        macaulay_rep(3, 0)
    with pytest.raises(sb.DomainError):
        macaulay_rep(-1, 2)


def test_shift_spot_values():
    assert macaulay_shift(3, 2, 1) == 4
    assert macaulay_shift(2, 3, -1) == 2
    assert macaulay_shift(2, 3, -2) == 2
    assert macaulay_shift(2, 3, -3) == 1
    for j in (-5, -1, 0, 1, 4):
        assert macaulay_shift(0, 4, j) == 0


def test_shift_identity_and_upper():
    for d in range(1, 7):
        for a in range(0, 2000, 11):
            assert macaulay_shift(a, d, 0) == a
    # independent route for the upper shift: search-based representation
    for d in range(1, 5):
        for a, (ks,) in reps_by_search(60, d).items():
            expected = sum(binom(k + 1, i + 1) for k, i in zip(ks, range(d, 0, -1)))
            assert macaulay_shift(a, d, 1) == expected


def preimage_by_scan(k, i, ell):
    a = 1
    while macaulay_shift(a, i - 1, ell - i) < k:
        a += 1
    return a


def test_min_shift_preimage_examples():
    assert min_shift_preimage(2, 3, 4) == 2
    assert min_shift_preimage(1, 2, 5) == 1
    assert min_shift_preimage(7, 3, 4) == macaulay_shift(7, 3, -1) == 5


def test_min_shift_preimage_against_scan_and_closed_form():
    for ell in range(3, 7):
        for i in range(2, ell):
            for k in range(1, 61):
                got = min_shift_preimage(k, i, ell)
                assert got == preimage_by_scan(k, i, ell)
                assert got == macaulay_shift(k, ell - 1, i - ell)


def test_min_shift_preimage_closed_form_wide():
    for ell in range(3, 7):
        for i in range(2, ell):
            for k in range(1, 501):
                assert min_shift_preimage(k, i, ell) == macaulay_shift(k, ell - 1, i - ell)


def test_o_sequence_examples():
    assert is_o_sequence((1, 3, 2, 2))
    assert not is_o_sequence((1, 0, 1))
    assert not is_o_sequence((2, 1))
    assert is_o_sequence((1,))
    assert not is_o_sequence((0, 1))
    with pytest.raises(sb.DomainError):
        is_o_sequence(())


def test_cumsum_examples():
    assert cumsum((1, 2, 2)) == (1, 3, 5)
    assert cumsum((1, 1, 1)) == (1, 2, 3)
    assert cumsum((7,)) == (7,)


def test_iterated_cumsum_matches_generator_counting():
    # independent oracle for the adjudicated value: top-index growth of the
    # smallest strongly stable ideal with 2 top-class degree-2 generators
    U = sb.subring_lexsegment_ideal(4, 2, 2, 4)
    assert sb.count_vector(U) == (1, 2, 2, 2)
    grown = sb.times_maximal(U, 2)
    class3 = sum(1 for g in grown.gens if sb.max_index(g) == 3)
    assert class3 == 9 == sb.GeneratorMatrix(3, 1, ((1, 2, 2),)).row(3)[-1]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6),
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=5),
)
def test_iterated_cumsum_monotone(v, bumps, q):
    bumps = (bumps * len(v))[: len(v)]
    w = tuple(a + b for a, b in zip(v, bumps))
    assert sb.GeneratorMatrix(len(v), 1, (tuple(v),)).row(1 + q)[-1] <= sb.GeneratorMatrix(len(w), 1, (w,)).row(1 + q)[-1]


def lex_space_is_ideal(h, n):
    """Oracle for the classical equivalence: the degreewise complements of
    h form shadow-closed top segments."""
    for d in range(len(h) - 1):
        size = binom(n + d - 1, d) - h[d]
        if size < 0 or binom(n + d, d + 1) - h[d + 1] < 0:
            return False
        seg = enumerate_degree(n, d)[:size]
        nxt = set(enumerate_degree(n, d + 1)[: binom(n + d, d + 1) - h[d + 1]])
        for u in seg:
            for t in range(n):
                w = list(u)
                w[t] += 1
                if tuple(w) not in nxt:
                    return False
    return True


def test_o_sequence_matches_lexsegment_ideal_property():
    for n in (1, 2, 3):
        bounds = [binom(n + d - 1, d) for d in range(5)]
        for h1 in range(0, n + 1):
            for h2 in range(0, bounds[2] + 1):
                for h3 in range(0, bounds[3] + 1):
                    h = (1, h1, h2, h3)
                    assert is_o_sequence(h) == lex_space_is_ideal(h, n), (n, h)
