"""Independent references that only the tests call.

Each one is written against the library's public surface, never its
internals, so that a test comparing it with the library checks two
routes: upper Koszul complexes with their reduced homology over the
rationals (against the table oracle), the ideal of a graded component,
the restriction to a leading subring, the k-th biggest monomial of a
max-index class by unranking (against enumeration), the conjugation
that sends the strongly stable ideals of one bound onto those of the
transposed bound (against counting), the canonical order of
enumeration as one sort of a whole bound (against its streamed walk),
and the signed generator counts read back off a Betti table (against
the closed formula's betti_from_counts).
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from stablebetti import DomainError, MonomialIdeal, graded_component
from stablebetti.macaulay import binom, greedy_arg
from stablebetti.monomials import class_size, max_index


@dataclass(frozen=True)
class SimplicialComplexSmall:
    """Tiny simplicial complex: a downward-closed set of vertex subsets.
    The empty face is present exactly when the complex is nonempty."""

    vertices: tuple
    faces: frozenset

    def __post_init__(self):
        for f in self.faces:
            for v in f:
                if v not in self.vertices:
                    raise DomainError("face uses an unknown vertex")
                if f - {v} not in self.faces:
                    raise DomainError("face set is not downward closed")


def upper_koszul(I: MonomialIdeal, b) -> SimplicialComplexSmall:
    """Faces are the squarefree subsets tau of the support of b with
    x^b / x^tau still in the ideal."""
    if len(b) != I.n:
        raise DomainError("multidegree lives in a different ring")
    supp = tuple(t + 1 for t, e in enumerate(b) if e > 0)
    faces = set()
    for r in range(len(supp) + 1):
        for tau in combinations(supp, r):
            m = list(b)
            for v in tau:
                m[v - 1] -= 1
            if I.contains(tuple(m)):
                faces.add(frozenset(tau))
    return SimplicialComplexSmall(supp, frozenset(faces))


def rank_over_rationals(rows) -> int:
    """Rank of a matrix by Gauss-Jordan elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    rank = 0
    rr, cc = len(m), len(m[0])
    r = 0
    for c in range(cc):
        piv = next((k for k in range(r, rr) if m[k][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for k in range(rr):
            if k != r and m[k][c]:
                f = m[k][c] / m[r][c]
                m[k] = [a - f * b for a, b in zip(m[k], m[r])]
        r += 1
        rank += 1
    return rank


def reduced_homology_ranks(C: SimplicialComplexSmall) -> dict:
    """Ranks of reduced rational homology, keyed by dimension from -1 up
    to the dimension of the complex.  The void complex has no entries."""
    if not C.faces:
        return {}
    by_dim = {}
    for f in C.faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))

    def boundary_rank(k):
        # rank of the boundary map C_k -> C_{k-1}; dimension -1 holds the empty face
        top, bottom = by_dim.get(k, []), by_dim.get(k - 1, [])
        if not top or not bottom:
            return 0
        index = {f: t for t, f in enumerate(bottom)}
        rows = []
        for f in top:
            row = [0] * len(bottom)
            for pos in range(len(f)):
                row[index[f[:pos] + f[pos + 1:]]] = (-1) ** pos
            rows.append(row)
        return rank_over_rationals(rows)

    dim = max(by_dim)
    boundary = [boundary_rank(k) for k in range(dim + 2)]
    return {
        k: len(by_dim.get(k, [])) - (boundary[k] if k >= 0 else 0) - boundary[k + 1]
        for k in range(-1, dim + 1)
    }


def counts_from_betti(T) -> dict:
    """Signed counts m_{i,d} = sum_k (-1)^(k-i+1) binom(k, i-1)
    beta_{k,k+d}, for i = 1..n+1, inverting betti_from_counts.  Negative
    values are legitimate away from stable ideals, so they are returned
    rather than rejected."""
    degrees = {j - i for (i, j) in T.entries}
    counts = {}
    for d in degrees:
        for i in range(1, T.n + 2):
            m = 0
            # binom(k, i - 1) vanishes below k = i - 1, and from there the
            # sign's exponent is nonnegative, so the sum stays in integers
            for k in range(i - 1, T.n + 1):
                b = T.beta(k, k + d)
                if b:
                    m += (-1) ** (k - i + 1) * binom(k, i - 1) * b
            if m:
                counts[(i, d)] = m
    return counts


def component_ideal(I: MonomialIdeal, d: int):
    """Ideal generated by the degree-d part of I; None when that part is
    empty."""
    comp = graded_component(I, d)
    return MonomialIdeal(I.n, comp) if comp else None


def restrict_to_subring(I: MonomialIdeal, ell: int):
    """I intersected with the subring on the first ell variables, as an
    ideal there; None when the intersection is zero."""
    if not 1 <= ell <= I.n:
        raise DomainError("subring index out of range")
    gens = [g[:ell] for g in I.gens if max_index(g) <= ell]
    return MonomialIdeal(ell, gens) if gens else None


def kth_biggest_with_max_index(ell: int, k: int, d: int, n: int):
    """The k-th biggest degree-d monomial with max index ell (k is 1-based)."""
    bound = class_size(ell, d)
    if not 1 <= k <= bound:
        raise DomainError(
            f"k={k} out of range: the class has binom({ell + d - 2},{ell - 1}) = {bound} monomials"
        )
    if not 1 <= ell <= n:
        raise DomainError("max index out of range")
    # Unrank x_ell's cofactor, the monomial of rank k - 1 among those of
    # degree d - 1 in the first ell variables, deglex descending.  Of the
    # degree-e monomials in m variables, binom(m - 2 + s, m - 1) have first
    # exponent above e - s, so the first exponent is e - s for the largest
    # s whose count is at most the rank.
    w = [0] * n
    rank, e = k - 1, d - 1
    for t in range(ell - 1):
        m = ell - t
        top = greedy_arg(rank, m - 1)
        rank -= binom(top, m - 1)
        s = top - (m - 2)
        w[t] = e - s
        e = s
    w[ell - 1] = e + 1
    return tuple(w)


def conjugate_generators(I: MonomialIdeal, d: int) -> frozenset:
    """The minimal generators of the conjugate of I, an ideal in d
    variables, where I has its generators in degrees <= d.

    A monomial u of degree 1..d is the partition with one part n + 1 - j
    per factor x_j, padded to d parts; conjugating it gives at most n
    parts, each at most d, whose nonzero parts are the nonzero prefix
    sums u_1 + ... + u_j, and a part q is the factor x_{d+1-q}.  Both
    multiplying by a variable and an exchange x_j -> x_{j-1} grow the
    partition, and conjugation keeps containment, so the monomials of I
    of degree <= d go to those of a strongly stable ideal of degree <= n.
    """

    def conjugate(u):
        w = [0] * d
        total = 0
        for e in u:
            total += e
            if total:
                w[d - total] += 1
        return tuple(w)

    level, image = set(), set()
    for e in range(1, d + 1):
        level = {u[:i] + (u[i] + 1,) + u[i + 1:] for u in level for i in range(I.n)}
        level |= {g for g in I.gens if sum(g) == e}
        image |= {conjugate(u) for u in level}
    return frozenset(
        w for w in image
        if not any(w[i] and w[:i] + (w[i] - 1,) + w[i + 1:] in image for i in range(d))
    )


def canonical_order(gen_lists) -> list:
    """The generator lists in enumeration's canonical order, by one sort
    of them all: by maximal generator degree, then lexicographically on
    the lists read by ascending degree and, within a degree, by
    descending deglex, comparing monomials by degree and then exponent
    vector.  Each list comes back in that reading order."""

    def read(gens):
        return sorted(gens, key=lambda g: (sum(g), tuple(-e for e in g)))

    return sorted(
        (read(gens) for gens in gen_lists),
        key=lambda gens: (max(sum(g) for g in gens), [(sum(g), tuple(g)) for g in gens]),
    )
