"""Betti tables: the closed formula for stable ideals, extremal corner
detection, and rendering."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotStableError, _checked_int
from .ideals import MonomialIdeal, class_degree_counts, is_stable
from .macaulay import binom


@dataclass(frozen=True)
class BettiTable:
    """Finitely supported map (i, j) -> beta_{i,j} with positive values;
    i is the homological index, j the internal degree."""

    n: int
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (i, j), b in self.entries.items():
            # a zero entry is dropped, its position unread
            if _checked_int("Betti number", b):
                clean[(_checked_int("homological index i", i), _checked_int("degree j", j, None))] = b
        object.__setattr__(self, "entries", clean)

    def beta(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    @property
    def is_empty(self):
        return not self.entries

    def max_row_degree(self):
        """Largest d = j - i with a nonzero entry."""
        return max((j - i for (i, j) in self.entries), default=None)

    def __hash__(self):
        return hash((self.n, frozenset(self.entries.items())))


def ek_betti(I: MonomialIdeal) -> BettiTable:
    """Graded Betti numbers of a stable ideal via the Eliahou-Kervaire
    formula: beta_{i,i+d} = sum_k binom(k-1, i) * m_{k,d}."""
    if not is_stable(I):
        raise NotStableError(
            "the closed formula needs a stable ideal; use oracle_betti for arbitrary input"
        )
    return betti_from_counts(class_degree_counts(I.gens), I.n)


def betti_from_counts(counts: dict, n: int) -> BettiTable:
    """Table with beta_{i,i+d} = sum_{k=i}^{n+1} binom(k-1, i) m_{k,d}.
    Raises if a resulting entry would be negative (inconsistent counts)."""
    entries = {}
    for (k, d), c in counts.items():
        _checked_int("class index k", k, 1, n + 1)
        for i in range(0, k):
            key = (i, i + d)
            entries[key] = entries.get(key, 0) + binom(k - 1, i) * c
    return BettiTable(n, entries)


def extremal_corners(T: BettiTable) -> list:
    """Extremal entries as triples (i, d, beta_{i,i+d}): the nonzero top
    left corners of all-zero blocks, sorted by increasing i (so with
    strictly decreasing d)."""
    positions = [(i, j - i) for (i, j) in T.entries]
    return sorted(
        (i, d, T.beta(i, i + d))
        for (i, d) in positions
        if not any((p, q) != (i, d) and p >= i and q >= d for (p, q) in positions)
    )


def _grid(entries, columns, dmin, dmax):
    rows = []
    for d in range(dmin, dmax + 1):
        rows.append([entries.get((i, i + d), 0) for i in range(columns)])
    width = max(len(str(x)) for row in rows for x in row)
    return "\n".join(" ".join(str(x).rjust(width) for x in row) for row in rows)


def render(T: BettiTable, quotient: bool = False) -> str:
    """Text grid of the significant rows: columns i = 0..n-1, rows from
    the minimal to the maximal nonzero d = j - i, zeros printed as 0.
    With quotient=True the table is shifted to the quotient convention
    beta_{i,j}(S/I) = beta_{i-1,j}(I) plus the unit in position (0,0),
    columns 0..n and rows from d = 0."""
    if T.is_empty:
        return "(empty Betti table)"
    if not quotient:
        dmin = min(j - i for (i, j) in T.entries)
        return _grid(T.entries, T.n, dmin, T.max_row_degree())
    shifted = {(i + 1, j): b for (i, j), b in T.entries.items()}
    shifted[(0, 0)] = 1
    dmax = max(j - i for (i, j) in shifted)
    return _grid(shifted, T.n + 1, 0, dmax)


def table_to_json(T: BettiTable) -> dict:
    return {
        "n": T.n,
        "entries": [[i, j, b] for (i, j), b in sorted(T.entries.items())],
    }
