"""Monomials as dense exponent tuples, in a fixed degree-lexicographic
order with x_1 > x_2 > ... > x_n."""

from __future__ import annotations

from .errors import DomainError
from .macaulay import binom

# A monomial in n variables is a tuple of n nonnegative exponents.
Monomial = tuple

# Guard against accidental enumeration blowups; this is a desk-scale tool.
DEGREE_CAP = 64


def max_index(u) -> int:
    """Largest 1-based variable index dividing u; 0 for the monomial 1."""
    for t in range(len(u) - 1, -1, -1):
        if u[t]:
            return t + 1
    return 0


def deglex_key(u):
    """Sort key: ascending by this key is ascending deglex."""
    return (sum(u), u)


def deglex_compare(u, v) -> int:
    """-1, 0 or 1 as u <, =, > v in degree-lexicographic order."""
    if len(u) != len(v):
        raise DomainError("monomials live in different rings")
    a, b = deglex_key(u), deglex_key(v)
    return (a > b) - (a < b)


def divides(g, u) -> bool:
    return all(ge <= ue for ge, ue in zip(g, u))


def mul(u, v):
    return tuple(a + b for a, b in zip(u, v))


def swap_variable(u, j, i):
    """(u / x_j) * x_i for 1-based indices; requires x_j | u."""
    w = list(u)
    w[j - 1] -= 1
    w[i - 1] += 1
    return tuple(w)


def iter_degree(n: int, d: int):
    """Yield the degree-d monomials in n >= 1 variables one at a time,
    deglex descending, with no degree cap: each next one moves a unit
    from the last nonzero exponent before x_n one place right and
    gathers the x_n exponent onto it."""
    u = [d] + [0] * (n - 1)
    while True:
        yield tuple(u)
        t = n - 2
        while t >= 0 and not u[t]:
            t -= 1
        if t < 0:
            return
        u[t] -= 1
        rest = u[-1] + 1
        u[-1] = 0
        u[t + 1] = rest


def enumerate_degree(n: int, d: int) -> list:
    """All binom(n+d-1, d) monomials of degree d, deglex descending."""
    if n < 1:
        raise DomainError("need at least one variable")
    if d < 0:
        raise DomainError("degree must be nonnegative")
    if d > DEGREE_CAP:
        raise DomainError(f"degree {d} exceeds the enumeration cap {DEGREE_CAP}")
    return list(iter_degree(n, d))


def class_size(ell: int, d: int) -> int:
    """Number of degree-d monomials with max index exactly ell (d >= 1)."""
    return binom(ell + d - 2, d - 1)


def monomials_with_max_index(ell: int, d: int, n: int) -> list:
    """Degree-d monomials with max index ell, deglex descending.

    These are x_ell times the degree-(d-1) monomials in the first ell
    variables, and that bijection preserves the order.
    """
    if not 1 <= ell <= n:
        raise DomainError("max index out of range")
    if d < 1:
        raise DomainError("degree must be positive")
    pad = (0,) * (n - ell)
    out = []
    for v in enumerate_degree(ell, d - 1):
        w = list(v)
        w[ell - 1] += 1
        out.append(tuple(w) + pad)
    return out
