"""Brute-force graded Betti numbers for arbitrary monomial ideals.

The rank of the degree-b strand of the minimal free resolution equals the
reduced homology rank, in dimension i - 1, of the upper Koszul complex of
the ideal at the multidegree b: the squarefree subsets tau of the support
of b with x^b / x^tau in the ideal.  A generator g divides x^b / x^tau
exactly when g divides x^b and tau lies in {t : g_t < b_t}, so these sets,
over the generators dividing x^b, are the facets of the complex; no
membership test is made, and each face is an int bitmask over the
variables.  Summing over the multidegrees dividing the lcm of the
generators (all Betti multidegrees do) gives the graded table.  Homology
is computed over the rationals via exact fraction-free integer
elimination, realizing the characteristic-0 convention; only the map
from the vertices onto the empty face needs none, having rank 1.
"""

from __future__ import annotations

from itertools import product
from operator import le

from .betti import BettiTable
from .errors import DEFAULT_BUDGET, BudgetExceededError, _checked_int
from .ideals import MonomialIdeal


def _koszul_faces(gens, b):
    """Faces of the upper Koszul complex at b, as bitmasks over the
    variables (bit t for x_{t+1}): every submask of a facet
    {t : g_t < b_t} of a generator g dividing x^b.  None when the complex
    has no homology to read: no generator divides x^b (void), or some
    facet is the whole support of b (a full simplex, which is
    contractible)."""
    dividing = [g for g in gens if all(map(le, g, b))]
    if not dividing:
        return None
    supp = sum(1 << t for t, f in enumerate(b) if f)
    facets = {sum(1 << t for t, (e, f) in enumerate(zip(g, b)) if e < f) for g in dividing}
    if supp in facets:
        return None
    faces = {0}
    for facet in facets:
        s = facet
        while s:
            faces.add(s)
            s = (s - 1) & facet
    return faces


def integer_matrix_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(ncols):
        piv = None
        for rr in range(r, nrows):
            if m[rr][c]:
                piv = rr
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for rr in range(r + 1, nrows):
            for cc in range(c + 1, ncols):
                m[rr][cc] = (m[r][c] * m[rr][cc] - m[rr][c] * m[r][cc]) // prev
            m[rr][c] = 0
        prev = m[r][c]
        r += 1
        rank += 1
        if r == nrows:
            break
    return rank


def _boundary_rank(faces_by_dim, k):
    # rank of the boundary map C_k -> C_{k-1}; the sign of dropping a
    # vertex alternates over the face's set bits from the lowest
    top = faces_by_dim.get(k, [])
    bottom = faces_by_dim.get(k - 1, [])
    if not top or not bottom:
        return 0
    index = {f: t for t, f in enumerate(bottom)}
    rows = []
    for face in top:
        row = [0] * len(bottom)
        sign = 1
        rest = face
        while rest:
            low = rest & -rest
            row[index[face ^ low]] = sign
            sign = -sign
            rest ^= low
        rows.append(row)
    return integer_matrix_rank(rows)


def _ranks_from_faces(faces):
    faces_by_dim = {}
    for f in faces:
        faces_by_dim.setdefault(f.bit_count() - 1, []).append(f)
    top = max(faces_by_dim)
    # dimension -1 holds the empty face, onto which every vertex maps with
    # sign 1, so that map has rank 1 exactly when there is a vertex
    boundary = {0: int(0 in faces_by_dim)}
    boundary.update((k, _boundary_rank(faces_by_dim, k)) for k in range(1, top + 2))
    ranks = {}
    for k in range(-1, top + 1):
        nk = len(faces_by_dim.get(k, []))
        ranks[k] = nk - boundary.get(k, 0) - boundary.get(k + 1, 0)
    return ranks


def oracle_betti(I: MonomialIdeal, budget: int = DEFAULT_BUDGET) -> BettiTable:
    """Exact characteristic-0 Betti table of an arbitrary monomial ideal.

    Scans the multidegrees dividing the lcm of the generators; raises
    BudgetExceededError when there are more than `budget` of them.
    """
    _checked_int("budget", budget)
    lcm_exp = [max(col) for col in zip(*I.gens)]
    ndiv = 1
    for e in lcm_exp:
        ndiv *= e + 1
    if ndiv > budget:
        raise BudgetExceededError(
            f"{ndiv} multidegrees exceed the budget {budget}; "
            "use the stable-ideal formula or a smaller input",
            partial_count=0,
        )
    entries = {}
    for b in product(*(range(e + 1) for e in lcm_exp)):
        faces = _koszul_faces(I.gens, b)
        if faces is None:
            continue
        j = sum(b)
        for dim, rank in _ranks_from_faces(faces).items():
            if rank:
                key = (dim + 1, j)
                entries[key] = entries.get(key, 0) + rank
    return BettiTable(I.n, entries)
