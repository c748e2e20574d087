"""Brute-force graded Betti numbers for arbitrary monomial ideals.

The rank of the degree-b strand of the minimal free resolution equals the
reduced homology rank, in dimension i - 1, of the upper Koszul complex of
the ideal at the multidegree b.  Summing over the multidegrees dividing
the lcm of the generators (all Betti multidegrees do) gives the graded
table.  Homology is computed over the rationals via exact fraction-free
integer elimination, realizing the characteristic-0 convention.
"""

from __future__ import annotations

from itertools import combinations, product

from .betti import BettiTable
from .errors import DEFAULT_BUDGET, BudgetExceededError
from .ideals import MonomialIdeal


def _koszul_faces(b, inside) -> list:
    """Squarefree subsets tau of the support of b, as sets of 1-based
    variable indices, with inside(x^b / x^tau) true."""
    supp = [t for t, e in enumerate(b) if e]
    faces = []
    for r in range(len(supp) + 1):
        for tau in combinations(supp, r):
            m = list(b)
            for t in tau:
                m[t] -= 1
            if inside(tuple(m)):
                faces.append(frozenset(t + 1 for t in tau))
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
    # rank of the boundary map C_k -> C_{k-1}; dimension -1 holds the empty face
    top = faces_by_dim.get(k, [])
    bottom = faces_by_dim.get(k - 1, [])
    if not top or not bottom:
        return 0
    index = {f: t for t, f in enumerate(bottom)}
    rows = []
    for face in top:
        row = [0] * len(bottom)
        verts = sorted(face)
        for pos, v in enumerate(verts):
            row[index[frozenset(face - {v})]] = (-1) ** pos
        rows.append(row)
    return integer_matrix_rank(rows)


def _ranks_from_faces(faces):
    faces_by_dim = {}
    for f in faces:
        faces_by_dim.setdefault(len(f) - 1, []).append(f)
    top = max(faces_by_dim)
    boundary = {k: _boundary_rank(faces_by_dim, k) for k in range(0, top + 2)}
    ranks = {}
    for k in range(-1, top + 1):
        nk = len(faces_by_dim.get(k, []))
        ranks[k] = nk - boundary.get(k, 0) - boundary.get(k + 1, 0)
    return ranks


def _membership_table(I: MonomialIdeal, lcm_exp):
    # b in I for every divisor b of the lcm, in one pass over product order:
    # b is in I iff b is a generator or some coordinate decrement stays in I.
    gen_set = set(I.gens)
    table = {}
    ranges = [range(e + 1) for e in lcm_exp]
    for b in product(*ranges):
        if b in gen_set:
            table[b] = True
            continue
        hit = False
        for t in range(len(b)):
            if b[t] and table[b[:t] + (b[t] - 1,) + b[t + 1:]]:
                hit = True
                break
        table[b] = hit
    return table


def oracle_betti(I: MonomialIdeal, budget: int = DEFAULT_BUDGET) -> BettiTable:
    """Exact characteristic-0 Betti table of an arbitrary monomial ideal.

    Scans the multidegrees dividing the lcm of the generators; raises
    BudgetExceededError when there are more than `budget` of them.
    """
    if I.is_zero:
        return BettiTable(I.n, {})
    lcm_exp = [0] * I.n
    for g in I.gens:
        for t, e in enumerate(g):
            if e > lcm_exp[t]:
                lcm_exp[t] = e
    ndiv = 1
    for e in lcm_exp:
        ndiv *= e + 1
    if ndiv > budget:
        raise BudgetExceededError(
            f"{ndiv} multidegrees exceed the budget {budget}; "
            "use the stable-ideal formula or a smaller input",
            partial_count=0,
        )
    member = _membership_table(I, lcm_exp)
    entries = {}
    for b, inside in member.items():
        if not inside:
            continue
        faces = _koszul_faces(b, member.__getitem__)
        if len(faces) == 2 ** sum(1 for e in b if e):
            continue  # a full simplex is contractible
        j = sum(b)
        for dim, rank in _ranks_from_faces(faces).items():
            if rank:
                key = (dim + 1, j)
                entries[key] = entries.get(key, 0) + rank
    return BettiTable(I.n, entries)
