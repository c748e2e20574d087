"""Monomial ideals, graded pieces, structural predicates and the counting
invariants that drive everything else.

Count conventions: m_{i,d}(I) is the number of minimal generators of
degree d with max index i; mu_{i,j}(I) counts ALL degree-j monomials of I
with max index i (the generators of the degree-j component ideal).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .errors import DomainError, NotStableError, UnitIdealError, _checked_int, _checked_ints
from .monomials import (
    DEGREE_CAP,
    deglex_key,
    divides,
    enumerate_degree,
    max_index,
    monomials_with_max_index,
    mul,
    swap_variable,
)
from .macaulay import cumsum


def _checked_generators(n, gens) -> tuple:
    """The distinct generators as tuples, deglex descending; refuses
    n < 1, an empty set, and a generator that is not n nonnegative
    integers or is the monomial 1."""
    _checked_int("n", n, 1)
    gens = {_checked_ints("generator", g, n) for g in gens}
    if not gens:
        raise DomainError("empty generating set: the zero ideal is not constructible here")
    if (0,) * n in gens:
        raise UnitIdealError("the monomial 1 generates the unit ideal")
    return tuple(sorted(gens, key=deglex_key, reverse=True))


class MonomialIdeal:
    """A monomial ideal given by its minimal generating set.

    Generators are stored deglex descending, and there is at least one:
    the zero ideal is not a MonomialIdeal.
    """

    __slots__ = ("n", "gens")

    def __init__(self, n, gens):
        gens = _checked_generators(n, gens)
        # a proper divisor has lower degree, so it sorts after its multiple
        for t, b in enumerate(gens):
            for a in gens[t + 1:]:
                if divides(a, b):
                    raise DomainError("generating set is not minimal; use minimalize()")
        self.n = n
        self.gens = gens

    def contains(self, u):
        if len(u) != self.n:
            raise DomainError("monomial lives in a different ring")
        return any(divides(g, u) for g in self.gens)

    def max_gen_degree(self):
        return max(sum(g) for g in self.gens)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.n == other.n
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.n, self.gens))

    def __repr__(self):
        return f"MonomialIdeal(n={self.n}, gens={list(self.gens)})"


def minimalize(n, raw) -> MonomialIdeal:
    """Inclusion-minimal generating set of the ideal generated by raw."""
    kept = []
    # ascending degree, so every divisor of g is kept before g
    for g in reversed(_checked_generators(n, raw)):
        if not any(divides(h, g) for h in kept):
            kept.append(g)
    return MonomialIdeal(n, kept)


def graded_component(I: MonomialIdeal, d: int) -> list:
    """All degree-d monomials of I, deglex descending."""
    return [u for u in enumerate_degree(I.n, d) if I.contains(u)]


def times_maximal(I: MonomialIdeal, q: int) -> MonomialIdeal:
    """Multiply by the q-th power of the maximal ideal (x_1, ..., x_n)."""
    if _checked_int("q", q) == 0:
        return I
    shifts = enumerate_degree(I.n, q)
    return minimalize(I.n, [mul(g, s) for g in I.gens for s in shifts])


def is_stable(I: MonomialIdeal) -> bool:
    """Each generator u admits every exchange (u / x_{m(u)}) x_i, i < m(u),
    inside the ideal."""
    for g in I.gens:
        e = max_index(g)
        for i in range(1, e):
            if not I.contains(swap_variable(g, e, i)):
                return False
    return True


def unstable_generator(gens, inside):
    """First of the given generators u with an adjacent exchange
    (u / x_j) x_{j-1}, x_j | u, that inside rejects; None when there is
    none.  is_strongly_stable passes I.gens and I.contains.

    Adjacent exchanges decide strong stability.  If every generator's
    adjacent exchanges stay in I, so do every monomial's: for v = u w
    with x_j | v, (v / x_j) x_{j-1} is ((u / x_j) x_{j-1}) w when x_j | u
    and u ((w / x_j) x_{j-1}) otherwise.  Composing j -> j-1 -> ... -> i
    then gives every exchange (v / x_j) x_i, i < j.  The chain walk in
    enumeration moves by the same rule."""
    for g in gens:
        for j in range(2, len(g) + 1):
            if g[j - 1] and not inside(swap_variable(g, j, j - 1)):
                return g
    return None


def is_strongly_stable(I: MonomialIdeal) -> bool:
    """Each monomial u of I admits every exchange (u / x_j) x_i for
    x_j | u and i < j inside the ideal; decided on the generators'
    adjacent exchanges (see unstable_generator)."""
    return unstable_generator(I.gens, I.contains) is None


def is_lexsegment(I: MonomialIdeal) -> bool:
    """Every graded component is a top segment in deglex, checked through
    the maximal generator degree plus one stabilization degree, which
    the degree cap bounds."""
    top = _checked_int("top generator degree", I.max_gen_degree(), 0, DEGREE_CAP - 1)
    for d in range(0, top + 2):
        comp = graded_component(I, d)
        if comp != enumerate_degree(I.n, d)[: len(comp)]:
            return False
    return True


def is_piecewise_lex_up_to(I: MonomialIdeal, ell: int) -> bool:
    """For an ideal generated in one degree d: within every max-index
    class i <= ell, the generators are the biggest count-many degree-d
    monomials of that class."""
    _checked_int("ell", ell, 1, I.n)
    degs = {sum(g) for g in I.gens}
    if len(degs) != 1:
        raise DomainError("ideal must be generated in a single degree")
    d = degs.pop()
    for i in range(1, ell + 1):
        mine = {g for g in I.gens if max_index(g) == i}
        if mine != set(islice(monomials_with_max_index(i, d, I.n), len(mine))):
            return False
    return True


def class_degree_counts(gens) -> dict:
    """Map (i, d) -> number of the given monomials of degree d with max
    index i."""
    counts = {}
    for g in gens:
        key = (max_index(g), sum(g))
        counts[key] = counts.get(key, 0) + 1
    return counts


def count_vector(I: MonomialIdeal) -> tuple:
    """Totals (m_1, ..., m_n): generators counted by max index."""
    m = [0] * I.n
    for g in I.gens:
        m[max_index(g) - 1] += 1
    return tuple(m)


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Rows j = jmin, jmin+1, ... of the matrix (mu_{i,j}); each row has n
    entries.  Rows below jmin are zero and rows beyond the stored range
    follow the stabilization rule mu_{i,j} = sum_{q<=i} mu_{q,j-1}."""

    n: int
    jmin: int
    rows: tuple

    def __post_init__(self):
        _checked_int("n", self.n, 1)
        if self.rows:
            _checked_int("jmin", self.jmin, 1)
        for row in self.rows:
            _checked_ints("row", row, self.n)

    @property
    def jmax(self):
        return self.jmin + len(self.rows) - 1

    def row(self, j: int) -> tuple:
        """mu row at degree j, extending by zeros below and by the
        stabilization rule above the stored range."""
        if not self.rows or j < self.jmin:
            return (0,) * self.n
        if j <= self.jmax:
            return tuple(self.rows[j - self.jmin])
        cur = tuple(self.rows[-1])
        for _ in range(j - self.jmax):
            cur = cumsum(cur)
        return cur

    def canonical(self) -> "GeneratorMatrix":
        """Strip leading zero rows and trailing rows implied by the
        stabilization rule."""
        rows = [tuple(r) for r in self.rows]
        jmin = self.jmin
        while rows and not any(rows[0]):
            rows.pop(0)
            jmin += 1
        while len(rows) >= 2 and rows[-1] == cumsum(rows[-2]):
            rows.pop()
        if not rows:
            return GeneratorMatrix(self.n, 1, ())
        return GeneratorMatrix(self.n, jmin, tuple(rows))

    def __eq__(self, other):
        if not isinstance(other, GeneratorMatrix):
            return NotImplemented
        a, b = self.canonical(), other.canonical()
        return (a.n, a.jmin, a.rows) == (b.n, b.jmin, b.rows)

    def __hash__(self):
        c = self.canonical()
        return hash((c.n, c.jmin, c.rows))


def generator_matrix(I: MonomialIdeal) -> GeneratorMatrix:
    """Matrix of generators of a strongly stable ideal: row j counts the
    degree-j monomials of I by max index, from the initial degree through
    the maximal generator degree.  For a stable ideal these rows follow
    from the generator counts by mu_{i,j} = m_{i,j} + sum_{q<=i}
    mu_{q,j-1} (Eliahou-Kervaire)."""
    if not is_strongly_stable(I):
        raise NotStableError("matrix of generators requires a strongly stable ideal")
    return counts_to_matrix(class_degree_counts(I.gens), I.n)


def new_generator_row(M: GeneratorMatrix, j: int) -> tuple:
    """The new-generator counts m_{i,j} = mu_{i,j} - sum_{q<=i} mu_{q,j-1}
    of row j, by max index i; an entry is negative where row j fails the
    cumulative inequality."""
    return tuple(mu - acc for mu, acc in zip(M.row(j), cumsum(M.row(j - 1))))


def counts_to_matrix(counts: dict, n: int) -> GeneratorMatrix:
    """Generator matrix of the new-generator counts m_{i,j}, built degree
    by degree."""
    for (i, j), c in counts.items():
        _checked_int("max index i", i, 1, n)
        _checked_int("degree j", j, 1)
        _checked_int("count", c)
    if not counts or all(c == 0 for c in counts.values()):
        return GeneratorMatrix(n, 1, ())
    degs = [j for (_, j), c in counts.items() if c]
    jmin, jmax = min(degs), max(degs)
    rows = []
    row = (0,) * n
    for j in range(jmin, jmax + 1):
        row = tuple(counts.get((i, j), 0) + acc for i, acc in enumerate(cumsum(row), 1))
        rows.append(row)
    return GeneratorMatrix(n, jmin, tuple(rows))


def hilbert_function(I: MonomialIdeal, d: int) -> int:
    """Number of degree-d monomials outside I (the Hilbert function of
    the quotient)."""
    return sum(not I.contains(u) for u in enumerate_degree(I.n, d))
