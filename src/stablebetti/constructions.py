"""Ideal constructions: piecewise lexsegments, prescribed-count strongly
stable ideals, lexsegments (full and in a leading subring), the closed
form for lexsegment count vectors, generator-matrix checkers and the
greedy matrix realizer."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .errors import DomainError, _checked_int, _checked_ints
from .ideals import (
    GeneratorMatrix,
    MonomialIdeal,
    is_strongly_stable,
    new_generator_row,
    unstable_generator,
)
from .macaulay import binom, is_o_sequence, macaulay_rep
from .monomials import (
    class_size,
    deglex_key,
    divides,
    iter_degree,
    max_index,
    monomials_with_max_index,
)


def piecewise_lexsegment(d: int, counts) -> tuple:
    """Ideal generated, in degree d, by the biggest counts[i-1] monomials
    of every max-index class i.  Built unconditionally; returns the pair
    (ideal, strongly_stable) since the construction is strongly stable
    exactly when counts is an O-sequence with second entry at most d."""
    _checked_int("d", d, 1)
    counts = _checked_ints("counts", counts)
    n = len(counts)
    if not any(counts):
        raise DomainError("at least one count must be positive")
    gens = []
    for i, c in enumerate(counts, 1):
        _checked_int(f"count of class {i} in degree {d}", c, 0, class_size(i, d))
        gens.extend(islice(monomials_with_max_index(i, d, n), c))
    ideal = MonomialIdeal(n, gens)
    return ideal, is_strongly_stable(ideal)


def strongly_stable_with_counts(counts) -> MonomialIdeal:
    """Strongly stable ideal whose generators, counted by max index, are
    exactly the prescribed totals.  Feasible iff counts[0] = 1 and zeros
    propagate (a zero count is never followed by a positive one).

    With k the last index with a positive count, m_{k+1} and x_0 read as
    1 and empty products equal to 1, one rule gives the generators of every
    class j <= k:

        prod_{i<=j-2} x_i^(m_{i+1} - 1) * x_{j-1}^(m_j - 1 - t) * x_j^(m_{j+1} + t)

    for t < m_j.
    """
    counts = _checked_ints("counts", counts)
    n = len(counts)
    if counts[0] != 1:
        raise DomainError("infeasible counts: the first entry must be 1")
    for t in range(n - 1):
        if counts[t] == 0 and counts[t + 1] > 0:
            raise DomainError(
                "infeasible counts: a zero entry cannot be followed by a positive one"
            )
    k = max(i + 1 for i in range(n) if counts[i])
    m = counts[:k] + (1,)  # m[i] is m_{i+1}
    gens = []
    for j in range(1, k + 1):
        for t in range(m[j - 1]):
            # x_1 .. x_{j-1}, of which class 1 has none
            head = [c - 1 for c in m[1:j - 1]] + [m[j - 1] - 1 - t] * (j > 1)
            gens.append(tuple(head + [m[j] + t] + [0] * (n - j)))
    return MonomialIdeal(n, gens)


def subring_lexsegment_ideal(ell: int, k: int, d: int, n: int) -> MonomialIdeal:
    """Smallest strongly stable ideal containing the k biggest degree-d
    monomials with max index ell: the extension of the lexsegment of the
    first ell variables ending at the k-th such monomial."""
    return MonomialIdeal(n, subring_lexsegment(ell, k, d, n))


def subring_lexsegment(ell: int, k: int, d: int, n: int) -> list:
    """The minimal generators of subring_lexsegment_ideal(ell, k, d, n),
    deglex descending as the ideal stores them, without building it."""
    _checked_int("ell", ell, 1, _checked_int("n", n, 1))
    _checked_int("d", d, 1)
    _checked_int("k", k, 1, class_size(ell, d))
    pad = (0,) * (n - ell)
    gens = []
    for v in iter_degree(ell, d):
        gens.append(v + pad)
        if v[-1]:  # x_ell divides v, so v is one of the k
            k -= 1
            if not k:
                break
    return gens


def _lexsegment_bound(n: int, d: int, mu: int) -> int:
    """binom(n+d-1, d), once n, d and mu are checked to name a lexsegment."""
    _checked_int("n", n, 1)
    _checked_int("d", d, 1)
    bound = binom(n + d - 1, d)
    _checked_int("mu", mu, 1, bound)
    return bound


def lexsegment_ideal(n: int, d: int, mu: int) -> MonomialIdeal:
    """Ideal generated by the mu biggest monomials of degree d."""
    _lexsegment_bound(n, d, mu)
    return MonomialIdeal(n, islice(iter_degree(n, d), mu))


def lexsegment_count_vector(n: int, d: int, mu: int) -> tuple:
    """Count vector of lexsegment_ideal(n, d, mu), computed arithmetically:
    with L = binom(n+d-1, d) - mu written in its d-th Macaulay
    representation sum binom(k(t), t), entry i is

        binom(i+d-2, d-1) - sum_t binom(k(t) - n + i - 1, t - 1).
    """
    rep = macaulay_rep(_lexsegment_bound(n, d, mu) - mu, d)
    out = []
    for i in range(1, n + 1):
        m = class_size(i, d) - sum(binom(k - n + i - 1, t - 1) for k, t in rep.terms())
        out.append(m)
    return tuple(out)


def is_lexsegment_count_vector(m, d: int) -> bool:
    """Whether some lexsegment ideal generated in degree d has count
    vector m."""
    m = _checked_ints("m", m)
    _checked_int("d", d, 1)
    mu = sum(m)
    if mu == 0 or mu > binom(len(m) + d - 1, d):
        return False
    return m == lexsegment_count_vector(len(m), d, mu)


@dataclass(frozen=True)
class MatrixCheckItem:
    j: int
    condition: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class MatrixCheck:
    ok: bool
    items: tuple

    def failures(self):
        return [it for it in self.items if not it.ok]


def _check_rows(M: GeneratorMatrix, row_item) -> MatrixCheck:
    """One pass over the rows of M: row_item(j, row) judges each nonzero
    row (zero rows are skipped), and every row gets a cumulative item,
    listed after all the row items."""
    items, cumulative = [], []
    for j in range(M.jmin, M.jmin + len(M.rows)):
        row = M.row(j)
        if any(row):
            items.append(row_item(j, row))
        else:
            items.append(MatrixCheckItem(j, "row", True, "zero row skipped"))
        for i, (mu, m) in enumerate(zip(row, new_generator_row(M, j)), 1):
            if m < 0:
                cumulative.append(
                    MatrixCheckItem(
                        j,
                        "cumulative",
                        False,
                        f"mu_{{{i},{j}}} = {mu} < {mu - m} = sum of previous row up to {i}",
                    )
                )
                break
        else:
            cumulative.append(MatrixCheckItem(j, "cumulative", True, "row dominates previous-row prefix sums"))
    items.extend(cumulative)
    return MatrixCheck(all(it.ok for it in items), tuple(items))


def _o_sequence_item(j, row):
    if not is_o_sequence(row):
        return MatrixCheckItem(j, "row", False, f"{row} is not an O-sequence")
    if len(row) >= 2 and row[1] > j:
        return MatrixCheckItem(j, "row", False, f"second entry {row[1]} exceeds the degree {j}")
    return MatrixCheckItem(j, "row", True, "O-sequence with bounded second entry")


def _lexsegment_item(j, row):
    if is_lexsegment_count_vector(row, j):
        return MatrixCheckItem(j, "row", True, f"degree-{j} lexsegment count vector")
    return MatrixCheckItem(j, "row", False, f"{row} is not a degree-{j} lexsegment count vector")


def check_matrix_necessary(M: GeneratorMatrix) -> MatrixCheck:
    """Necessary conditions on a matrix of generators: every nonzero row
    is an O-sequence with second entry at most the row degree, and every
    row entrywise dominates the prefix sums of the previous row."""
    return _check_rows(M, _o_sequence_item)


def check_matrix_lexsegment(M: GeneratorMatrix) -> MatrixCheck:
    """Exact characterization of matrices of generators of lexsegment
    ideals: every nonzero row j is the count vector of a degree-j
    lexsegment, plus the cumulative inequality."""
    return _check_rows(M, _lexsegment_item)


@dataclass(frozen=True)
class GreedyResult:
    ideal: object  # MonomialIdeal on success, else None
    fail_degree: int = None
    fail_index: int = None
    reason: str = ""

    @property
    def ok(self):
        return self.ideal is not None


def realize_matrix_greedy(M: GeneratorMatrix) -> GreedyResult:
    """Try to build a strongly stable ideal with matrix of generators M,
    degree by degree: at each degree add the biggest still-missing
    monomials of every max-index class, count prescribed by the new rows
    (at the first degree this is the piecewise lexsegment of the first
    row).

    Success guarantees the matrix is realized.  Failure reports the first
    degree and class where strong stability breaks; for three or fewer
    variables it cannot occur.  No class runs out of monomials: each
    nonzero row is an O-sequence with mu_1 = 1 and mu_2 <= j, and the
    Macaulay shift is monotone, so mu_{i,j} <= binom(i+j-2, j-1), the
    size of class i; the strongly stable ideal below degree j already
    holds cumsum(row j-1) of that class, so the new ones always fit.
    """
    check = check_matrix_necessary(M)
    if not check.ok:
        first = check.failures()[0]
        raise DomainError(f"matrix fails the necessary conditions at degree {first.j}: {first.detail}")
    canon = M.canonical()
    if not canon.rows:
        raise DomainError("zero matrix: no nonzero ideal to realize")
    n = canon.n
    gens = []

    def inside(u):
        return any(divides(g, u) for g in gens)

    for j in range(canon.jmin, canon.jmax + 1):
        new_gens = []
        # nonnegative: check_matrix_necessary passed the cumulative inequality
        for i, need in enumerate(new_generator_row(canon, j), 1):
            missing = (u for u in monomials_with_max_index(i, j, n) if not inside(u))
            new_gens.extend(islice(missing, need))
        # outside the ideal and above its degrees, so still minimal
        gens.extend(new_gens)
        # lower degrees passed at their own step and the ideal only grew,
        # so only this degree's generators need the test
        witness = unstable_generator(sorted(new_gens, key=deglex_key, reverse=True), inside)
        if witness is not None:
            bad = max_index(witness)
            return GreedyResult(
                None, j, bad,
                f"greedy extension breaks strong stability at degree {j} (class {bad})",
            )
    return GreedyResult(MonomialIdeal(n, gens))
