"""Binomial coefficients, Macaulay representations, shift operators and
cumulative-sum operators.

Everything here is exact integer arithmetic.  The binomial convention is
the one needed by the shift operators: binom(p, q) = 0 whenever p or q is
negative or q > p, and binom(0, 0) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import comb

from .errors import DomainError, _checked_int, _checked_ints


def binom(p: int, q: int) -> int:
    """Binomial coefficient under the extended convention.

    Standard value for 0 <= q <= p, and 0 as soon as q > p or either
    argument is negative.  binom(0, 0) = 1.
    """
    if p < 0 or q < 0 or q > p:
        return 0
    return comb(p, q)


@dataclass(frozen=True)
class MacaulayRep:
    """The d-th Macaulay representation of a nonnegative integer.

    a = sum_{i=1}^{d} binom(ks[d-i], i) where ks = (k(d), ..., k(1)) is
    strictly decreasing with k(1) >= 0.  For a = 0 the canonical choice
    is k(i) = i - 1, which makes every term vanish.
    """

    a: int
    d: int
    ks: tuple[int, ...]

    def terms(self):
        """Pairs (k(i), i) from i = d down to 1."""
        return tuple(zip(self.ks, range(self.d, 0, -1)))

    def value(self) -> int:
        return sum(binom(k, i) for k, i in self.terms())


def greedy_arg(rem, i):
    """Largest k >= i - 1 with binom(k, i) <= rem (k = i - 1 encodes a
    zero term), in O(log k) binomials."""
    # double the step above the last k that fits, then halve it
    lo, step = i - 1, 1
    while binom(lo + step, i) <= rem:
        lo, step = lo + step, 2 * step
    while step > 1:
        step //= 2
        if binom(lo + step, i) <= rem:
            lo += step
    return lo


# typed: 5.0 == 5, so an untyped cache would answer a float from the entry of an int
@lru_cache(maxsize=65536, typed=True)
def macaulay_rep(a: int, d: int) -> MacaulayRep:
    """The unique d-th Macaulay representation of a (greedy-maximal)."""
    _checked_int("d", d, 1)
    _checked_int("a", a)
    # the remainder after term i stays below binom(k(i), i - 1), so each
    # greedy k(i - 1) is smaller than k(i) and the ks fall strictly
    ks = []
    rem = a
    for i in range(d, 0, -1):
        k = greedy_arg(rem, i)
        ks.append(k)
        rem -= binom(k, i)
    # nothing is left: the last step takes k = rem, as binom(rem, 1) = rem
    return MacaulayRep(a, d, tuple(ks))


def macaulay_shift(a: int, d: int, j: int) -> int:
    """Re-evaluate the d-th Macaulay representation of a with both binomial
    arguments shifted by j: sum of binom(k(i) + j, i + j).

    j = 0 returns a, j = 1 is the classical upper shift, and negative j is
    allowed (terms vanish once an argument turns negative).
    """
    rep = macaulay_rep(a, d)
    _checked_int("j", j, None)
    return sum(binom(k + j, i + j) for k, i in rep.terms())


def min_shift_preimage(k: int, i: int, ell: int) -> int:
    """Minimum a >= 1 with k <= macaulay_shift(a, i - 1, ell - i).

    Requires 2 <= i < ell and k >= 1.  The shift is monotone in a, so a
    binary search on [1, k] suffices (a = k always satisfies the bound
    because ell - i >= 1 shifts upward).
    """
    _checked_int("i", i, 2, _checked_int("ell", ell, 3) - 1)
    _checked_int("k", k, 1)
    lo, hi = 1, k
    while lo < hi:
        mid = (lo + hi) // 2
        if k <= macaulay_shift(mid, i - 1, ell - i):
            hi = mid
        else:
            lo = mid + 1
    return lo


def is_o_sequence(m) -> bool:
    """O-sequence test in vector form: m_1 = 1 and m_{i+1} <= m_i^<i-1>
    for every i >= 2.  No constraint ties m_2 to m_1; callers needing the
    degree bound m_2 <= d enforce it themselves.  Read from 0 as a
    Hilbert function, the same test is h_0 = 1 and h_{d+1} <= h_d^<d>
    for d >= 1.
    """
    m = _checked_ints("m", m)
    if m[0] != 1:
        return False
    for t in range(2, len(m)):
        # m[t] is m_{t+1}; the bound is m_t shifted at index t - 1
        if m[t] > macaulay_shift(m[t - 1], t - 1, 1):
            return False
    return True


def cumsum(v) -> tuple:
    """Prefix sums, same length as the input."""
    v = tuple(v)
    if not v:
        raise DomainError("empty vector")
    return tuple(accumulate(v))


def iterated_cumsum_last(v, q: int) -> int:
    """Last entry after q applications of cumsum; q = 0 reads the last
    entry directly.  For the count vector of a stable ideal generated in
    one degree this equals the count of top-index generators after
    multiplying q times by the maximal ideal.
    """
    _checked_int("q", q)
    w = tuple(_checked_int("vector entry", x, None) for x in v)
    if not w:
        raise DomainError("empty vector")
    for _ in range(q):
        w = cumsum(w)
    return w[-1]
