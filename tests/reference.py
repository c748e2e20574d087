"""Independent references that only the tests call.

Each one is written against the library's public surface, never its
internals, so that a test comparing it with the library checks two
routes: upper Koszul complexes with their reduced homology over the
rationals (against the table oracle), the ideal of a graded component,
the restriction to a leading subring, and the k-th biggest monomial of
a max-index class by unranking (against enumeration).
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


def component_ideal(I: MonomialIdeal, d: int) -> MonomialIdeal:
    """Ideal generated by the degree-d part of I (possibly zero)."""
    comp = graded_component(I, d)
    return MonomialIdeal(I.n, comp) if comp else MonomialIdeal.zero(I.n)


def restrict_to_subring(I: MonomialIdeal, ell: int) -> MonomialIdeal:
    """I intersected with the subring on the first ell variables, as an
    ideal there.  May be zero."""
    if not 1 <= ell <= I.n:
        raise DomainError("subring index out of range")
    gens = [g[:ell] for g in I.gens if max_index(g) <= ell]
    return MonomialIdeal(ell, gens) if gens else MonomialIdeal.zero(ell)


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
