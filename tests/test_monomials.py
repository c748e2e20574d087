import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stablebetti as sb
from stablebetti.macaulay import binom
from stablebetti.monomials import (
    class_size,
    deglex_compare,
    deglex_key,
    enumerate_degree,
    max_index,
    monomials_with_max_index,
)

from reference import kth_biggest_with_max_index


def test_max_index():
    assert max_index((4, 0, 0)) == 1
    assert max_index((2, 0, 1, 0)) == 3
    assert max_index((0, 0, 0)) == 0


def test_deglex_examples():
    assert deglex_compare((0, 2, 0), (0, 1, 1)) == 1  # x2^2 > x2 x3
    assert deglex_compare((1, 2, 2), (1, 2, 2)) == 0
    assert deglex_compare((1, 0), (0, 2)) == -1  # degree dominates
    with pytest.raises(sb.DomainError):
        deglex_compare((1, 0), (1, 0, 0))


def test_enumerate_degree_small():
    assert enumerate_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert enumerate_degree(3, 0) == [(0, 0, 0)]
    deg2 = enumerate_degree(4, 2)
    assert len(deg2) == 10
    assert [u for u in deg2 if max_index(u) == 4] == [
        (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 2)
    ]


def test_enumerate_degree_order_and_count():
    for n in (1, 2, 3, 4):
        for d in range(0, 6):
            mons = enumerate_degree(n, d)
            assert len(mons) == binom(n + d - 1, d)
            assert all(deglex_compare(a, b) == 1 for a, b in zip(mons, mons[1:]))


def test_degree_cap():
    with pytest.raises(sb.DomainError):
        enumerate_degree(2, 65)


def test_class_sizes_match_enumeration():
    for n in (1, 2, 3, 4):
        for d in range(1, 6):
            for ell in range(1, n + 1):
                filtered = [u for u in enumerate_degree(n, d) if max_index(u) == ell]
                assert len(filtered) == class_size(ell, d) == binom(ell + d - 2, d - 1)
                assert monomials_with_max_index(ell, d, n) == filtered


def test_kth_biggest_examples():
    assert kth_biggest_with_max_index(4, 2, 2, 4) == (0, 1, 0, 1)  # x2 x4
    assert kth_biggest_with_max_index(1, 1, 5, 3) == (5, 0, 0)
    assert kth_biggest_with_max_index(3, 7, 4, 4) == (0, 3, 1, 0)  # x2^3 x3


def test_kth_biggest_bound_error_names_bound():
    with pytest.raises(sb.DomainError) as err:
        kth_biggest_with_max_index(3, 11, 4, 4)
    assert "binom(5,2) = 10" in str(err.value)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_kth_biggest_matches_filter(n, d, data):
    ell = data.draw(st.integers(min_value=1, max_value=n))
    k = data.draw(st.integers(min_value=1, max_value=class_size(ell, d)))
    u = kth_biggest_with_max_index(ell, k, d, n)
    assert max_index(u) == ell
    filtered = [v for v in enumerate_degree(n, d) if max_index(v) == ell]
    assert filtered[k - 1] == u


def test_kth_biggest_matches_enumeration_exhaustively():
    for n in range(1, 7):
        for d in range(1, 7):
            mons = enumerate_degree(n, d)
            for ell in range(1, n + 1):
                filtered = [v for v in mons if max_index(v) == ell]
                got = [kth_biggest_with_max_index(ell, k, d, n)
                       for k in range(1, class_size(ell, d) + 1)]
                assert got == filtered


def test_kth_biggest_at_huge_degree():
    # unranked without enumerating the class, so no degree cap applies
    d = 10**6
    start = time.perf_counter()
    assert kth_biggest_with_max_index(3, 1, d, 4) == (d - 1, 0, 1, 0)
    last = kth_biggest_with_max_index(3, class_size(3, d), d, 4)
    assert last == (0, 0, d, 0)
    u = kth_biggest_with_max_index(4, 10**15, d, 5)
    assert sum(u) == d and max_index(u) == 4
    assert time.perf_counter() - start < 0.5


def test_deglex_key_sorts_like_compare():
    mons = [u for d in range(0, 4) for u in enumerate_degree(3, d)]
    by_key = sorted(mons, key=deglex_key)
    for a, b in zip(by_key, by_key[1:]):
        assert deglex_compare(a, b) == -1
