"""Ideal constructions: piecewise lexsegments, prescribed-count strongly
stable ideals, lexsegments (full and in a leading subring), the closed
form for lexsegment count vectors, generator-matrix checkers and the
greedy matrix realizer."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
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
    enumerate_degree,
    max_index,
    monomials_with_max_index,
)


def piecewise_lexsegment(d: int, counts) -> tuple:
    """Ideal generated, in degree d, by the biggest counts[i-1] monomials
    of every max-index class i.  Built unconditionally; returns the pair
    (ideal, strongly_stable) since the construction is strongly stable
    exactly when counts is an O-sequence with second entry at most d."""
    counts = tuple(counts)
    n = len(counts)
    if d < 1:
        raise DomainError("degree must be positive")
    if not counts or any(c < 0 for c in counts):
        raise DomainError("counts must be nonnegative")
    if not any(counts):
        raise DomainError("at least one count must be positive")
    gens = []
    for i in range(1, n + 1):
        c = counts[i - 1]
        if c == 0:
            continue
        avail = class_size(i, d)
        if c > avail:
            raise DomainError(
                f"class {i} has only {avail} monomials of degree {d}, requested {c}"
            )
        gens.extend(monomials_with_max_index(i, d, n)[:c])
    ideal = MonomialIdeal(n, gens)
    return ideal, is_strongly_stable(ideal)


def strongly_stable_with_counts(counts) -> MonomialIdeal:
    """Strongly stable ideal whose generators, counted by max index, are
    exactly the prescribed totals.  Feasible iff counts[0] = 1 and zeros
    propagate (a zero count is never followed by a positive one).

    With k the last index with a positive count and empty products equal
    to 1, the generators with max index j are

        prefix(j) * x_{j-1}^(m_j - 1 - t) * x_j^(m_{j+1} + t),  t < m_j

    for j < k, where prefix(j) = prod_{i<=j-2} x_i^(m_{i+1} - 1), and

        prefix(k) * x_{k-1}^(m_k - t) * x_k^t,  1 <= t <= m_k

    for j = k.
    """
    counts = tuple(counts)
    n = len(counts)
    if not counts:
        raise DomainError("empty count vector")
    if any(c < 0 for c in counts):
        raise DomainError("counts must be nonnegative")
    if counts[0] != 1:
        raise DomainError("infeasible counts: the first entry must be 1")
    for t in range(n - 1):
        if counts[t] == 0 and counts[t + 1] > 0:
            raise DomainError(
                "infeasible counts: a zero entry cannot be followed by a positive one"
            )
    k = max(i + 1 for i in range(n) if counts[i])

    def prefix(j):
        exps = [0] * n
        for i in range(1, j - 1):  # i = 1 .. j-2
            exps[i - 1] = counts[i] - 1  # m_{i+1} - 1
        return exps

    gens = []
    for j in range(1, k):
        base = prefix(j)
        mj, mj1 = counts[j - 1], counts[j]
        for t in range(mj):
            g = list(base)
            if j >= 2:
                g[j - 2] += mj - 1 - t
            g[j - 1] += mj1 + t
            gens.append(tuple(g))
    base = prefix(k)
    mk = counts[k - 1]
    for t in range(1, mk + 1):
        g = list(base)
        if k >= 2:
            g[k - 2] += mk - t
        g[k - 1] += t
        gens.append(tuple(g))
    return MonomialIdeal(n, gens)


def subring_lexsegment_ideal(ell: int, k: int, d: int, n: int) -> MonomialIdeal:
    """Smallest strongly stable ideal containing the k biggest degree-d
    monomials with max index ell: the extension of the lexsegment of the
    first ell variables ending at the k-th such monomial."""
    if not 1 <= ell <= n:
        raise DomainError("ell out of range")
    bound = class_size(ell, d)
    if not 1 <= k <= bound:
        raise DomainError(
            f"k={k} out of range: binom({ell + d - 2},{ell - 1}) = {bound}"
        )
    pad = (0,) * (n - ell)
    gens = []
    for v in enumerate_degree(ell, d):
        gens.append(v + pad)
        if v[-1]:  # x_ell divides v, so v is one of the k
            k -= 1
            if not k:
                break
    return MonomialIdeal(n, gens)


def lexsegment_ideal(n: int, d: int, mu: int) -> MonomialIdeal:
    """Ideal generated by the mu biggest monomials of degree d."""
    bound = binom(n + d - 1, d)
    if not 1 <= mu <= bound:
        raise DomainError(f"mu={mu} out of range 1..{bound}")
    return MonomialIdeal(n, enumerate_degree(n, d)[:mu])


@dataclass(frozen=True)
class Block:
    """One block of the decomposition of the monomials strictly below a
    fixed degree-d monomial: the set [x_start, ..., x_n]_r * prefix.
    start may exceed n, in which case the block is empty."""

    prefix: tuple
    start: int
    r: int


def lower_segment_blocks(u) -> list:
    """Partition of { v of the same degree : v < u } into blocks, one per
    position of u = x_{j(1)} ... x_{j(d)} with j(1) <= ... <= j(d):
    block i is [x_{j(i)+1}, ..., x_n]_{d-i+1} * x_{j(1)} ... x_{j(i-1)}."""
    n = len(u)
    d = sum(u)
    if d == 0:
        raise DomainError("the monomial 1 has no lower segment")
    js = [t + 1 for t in range(n) for _ in range(u[t])]
    blocks = []
    for i in range(1, d + 1):
        pref = [0] * n
        for v in js[: i - 1]:
            pref[v - 1] += 1
        blocks.append(Block(tuple(pref), js[i - 1] + 1, d - i + 1))
    return blocks


def block_monomials(block: Block, n: int) -> list:
    """The monomials a block stands for, deglex descending (they share the
    prefix, and enumerate_degree yields the tails in that order); empty
    when the bracket starts past the last variable."""
    if block.start > n:
        return []
    width = n - block.start + 1
    out = []
    for tail in enumerate_degree(width, block.r):
        w = list(block.prefix)
        for t, e in enumerate(tail):
            w[block.start - 1 + t] += e
        out.append(tuple(w))
    return out


def lexsegment_count_vector(n: int, d: int, mu: int) -> tuple:
    """Count vector of lexsegment_ideal(n, d, mu), computed arithmetically:
    with L = binom(n+d-1, d) - mu written in its d-th Macaulay
    representation sum binom(k(t), t), entry i is

        binom(i+d-2, d-1) - sum_t binom(k(t) - n + i - 1, t - 1).
    """
    bound = binom(n + d - 1, d)
    if not 1 <= mu <= bound:
        raise DomainError(f"mu={mu} out of range 1..{bound}")
    rep = macaulay_rep(bound - mu, d)
    out = []
    for i in range(1, n + 1):
        m = class_size(i, d) - sum(binom(k - n + i - 1, t - 1) for k, t in rep.terms())
        out.append(m)
    return tuple(out)


def is_lexsegment_count_vector(m, d: int) -> bool:
    """Whether some lexsegment ideal generated in degree d has count
    vector m."""
    m = tuple(m)
    if not m or any(x < 0 for x in m):
        raise DomainError("counts must be nonnegative")
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
    degree by degree from the zero ideal: at each degree add the biggest
    still-missing monomials of every max-index class, count prescribed by
    the new rows (at the first degree this is the piecewise lexsegment of
    the first row).

    Success guarantees the matrix is realized.  Failure reports the first
    degree and class where strong stability breaks or the class runs out
    of monomials; for three or fewer variables failure cannot occur when
    the necessary conditions hold.
    """
    check = check_matrix_necessary(M)
    if not check.ok:
        first = check.failures()[0]
        raise DomainError(f"matrix fails the necessary conditions at degree {first.j}: {first.detail}")
    canon = M.canonical()
    if not canon.rows:
        raise DomainError("zero matrix: no nonzero ideal to realize")
    n = canon.n
    ideal = MonomialIdeal.zero(n)
    for j in range(canon.jmin, canon.jmax + 1):
        new_gens = []
        # nonnegative: check_matrix_necessary passed the cumulative inequality
        for i, need in enumerate(new_generator_row(canon, j), 1):
            if need == 0:
                continue
            picked = []
            for u in monomials_with_max_index(i, j, n):
                if not ideal.contains(u):
                    picked.append(u)
                    if len(picked) == need:
                        break
            if len(picked) < need:
                return GreedyResult(
                    None, j, i,
                    f"class {i} exhausted at degree {j}: needed {need} new monomials, "
                    f"found {len(picked)}",
                )
            new_gens.extend(picked)
        if new_gens:
            # outside the ideal and above its degrees, so still minimal
            ideal = MonomialIdeal(n, ideal.gens + tuple(new_gens))
        witness = unstable_generator(ideal)
        if witness is not None:
            bad = max_index(witness)
            return GreedyResult(
                None, j, bad,
                f"greedy extension breaks strong stability at degree {j} (class {bad})",
            )
    return GreedyResult(ideal)
