import random
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stablebetti as sb
from stablebetti.ideals import MonomialIdeal, class_degree_counts
from stablebetti.macaulay import binom
from stablebetti.oracle import _koszul_faces, _ranks_from_faces, integer_matrix_rank, oracle_betti

from reference import (
    SimplicialComplexSmall,
    counts_from_betti,
    rank_over_rationals,
    reduced_homology_ranks,
    upper_koszul,
)


def test_upper_koszul_examples():
    I = MonomialIdeal(2, [(1, 0)])
    C = upper_koszul(I, (1, 0))
    assert C.faces == frozenset({frozenset()})

    I2 = MonomialIdeal(2, [(1, 0), (0, 1)])
    C2 = upper_koszul(I2, (1, 1))
    assert C2.faces == frozenset({frozenset(), frozenset({1}), frozenset({2})})

    outside = upper_koszul(I, (0, 3))
    assert outside.faces == frozenset()


def test_complex_validation():
    with pytest.raises(sb.DomainError):
        SimplicialComplexSmall((1, 2), frozenset({frozenset({1, 2})}))


def test_homology_examples():
    two_points = SimplicialComplexSmall(
        (1, 2), frozenset({frozenset(), frozenset({1}), frozenset({2})})
    )
    assert reduced_homology_ranks(two_points) == {-1: 0, 0: 1}

    full = SimplicialComplexSmall(
        (1, 2, 3),
        frozenset(
            frozenset(s)
            for s in [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
        ),
    )
    assert all(r == 0 for r in reduced_homology_ranks(full).values())

    hollow = SimplicialComplexSmall(
        (1, 2, 3),
        frozenset(frozenset(s) for s in [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]),
    )
    ranks = reduced_homology_ranks(hollow)
    assert ranks[1] == 1 and ranks[0] == 0 and ranks[-1] == 0

    point = SimplicialComplexSmall((), frozenset({frozenset()}))
    assert reduced_homology_ranks(point) == {-1: 1}


def test_integer_rank_known():
    assert integer_matrix_rank([[1, 2], [2, 4]]) == 1
    assert integer_matrix_rank([[0, 0], [0, 0]]) == 0
    assert integer_matrix_rank([[1, 0, 0], [0, 5, 0], [0, 0, 7]]) == 3
    assert integer_matrix_rank([]) == 0
    assert integer_matrix_rank([[10**12, 1], [1, 10**12]]) == 2


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    )
)
def test_integer_rank_matches_rational_elimination(rows):
    width = len(rows[0])
    rows = [r[:width] + [0] * (width - len(r)) for r in rows]
    assert integer_matrix_rank(rows) == rank_over_rationals(rows)


def test_oracle_small_ideals():
    assert oracle_betti(MonomialIdeal(2, [(1, 1)])).entries == {(0, 2): 1}
    koszul = oracle_betti(MonomialIdeal(2, [(1, 0), (0, 1)]))
    assert koszul.entries == {(0, 1): 2, (1, 2): 1}


def test_oracle_budget():
    I = MonomialIdeal(3, [(3, 0, 0), (0, 3, 0), (0, 0, 3)])
    with pytest.raises(sb.BudgetExceededError):
        oracle_betti(I, budget=10)
    # a budget follows the integer rule: None is no default here
    with pytest.raises(sb.DomainError, match=r"^budget must be an integer >= 0, got None$"):
        oracle_betti(I, budget=None)


def test_oracle_matches_formula_small_corpus(corpus_n3):
    for I in corpus_n3[::3]:
        assert oracle_betti(I) == sb.ek_betti(I)


def test_koszul_faces_match_reference(corpus_n3):
    # the faces read off the generators are the reference complex, and None
    # stands exactly for the void complex and the full simplex on supp b
    rng = random.Random(27)
    non_stable = [MonomialIdeal(3, [(0, 2, 0), (1, 0, 1)])]
    while len(non_stable) < 6:
        n = rng.randint(2, 4)
        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(2, 5))]
        gens = [g for g in gens if any(g)]
        if gens and not sb.is_stable(I := sb.minimalize(n, gens)):
            non_stable.append(I)
    for I in corpus_n3 + non_stable:
        lcm = [max(col) for col in zip(*I.gens)]
        for b in product(*(range(e + 1) for e in lcm)):
            ref = upper_koszul(I, b).faces
            got = _koszul_faces(I.gens, b)
            if got is not None:
                # bit t of a mask stands for the 1-based index t + 1
                got = {frozenset(t + 1 for t in range(I.n) if f >> t & 1) for f in got}
            if not ref or len(ref) == 2 ** sum(1 for e in b if e):
                assert got is None, (I, b)
            else:
                assert got == ref, (I, b)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=63), max_size=6))
@example([])  # the complex {empty face}
@example([0b100])  # a lone vertex
def test_mask_ranks_match_reference_homology(facets):
    # the faces are every submask of the facets on six vertices (bit t is
    # vertex t + 1), plus the empty face
    faces = {0}
    for facet in facets:
        faces.update(s for s in range(facet + 1) if s & facet == s)
    ref = SimplicialComplexSmall(
        tuple(range(1, 7)),
        frozenset(frozenset(t + 1 for t in range(6) if f >> t & 1) for f in faces),
    )
    assert _ranks_from_faces(faces) == reduced_homology_ranks(ref)


def test_rp2_table_is_characteristic_zero():
    # the Stanley-Reisner ideal of the 6-vertex real projective plane: its
    # ten triangles hold every edge twice, and the ten other triangles are
    # the minimal non-faces.  Over GF(2) the plane has homology in
    # dimensions 1 and 2, which adds (2, 6): 1 and (3, 6): 1 to the table,
    # so a modular rank anywhere in the oracle fails here
    triangles = {
        frozenset(t) for t in ((1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
                               (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6))
    }
    gens = [
        tuple(int(v in t) for v in range(1, 7))
        for t in combinations(range(1, 7), 3) if frozenset(t) not in triangles
    ]
    I = MonomialIdeal(6, gens)
    expected = {(0, 3): 10, (1, 4): 15, (2, 5): 6}
    assert oracle_betti(I).entries == expected
    entries = {}
    for b in product(range(2), repeat=6):
        for dim, rank in reduced_homology_ranks(upper_koszul(I, b)).items():
            if rank:
                key = (dim + 1, sum(b))
                entries[key] = entries.get(key, 0) + rank
    assert entries == expected


def test_oracle_budget_boundary():
    # the budget counts every divisor of the lcm: 4 * 4 * 4 here
    I = MonomialIdeal(3, [(3, 0, 0), (0, 3, 0), (0, 0, 3)])
    assert oracle_betti(I, budget=64) == oracle_betti(I)
    with pytest.raises(sb.BudgetExceededError) as info:
        oracle_betti(I, budget=63)
    assert info.value.partial_count == 0
    assert str(info.value).startswith("64 multidegrees exceed the budget")


def test_oracle_holds_no_per_divisor_table():
    # 30 ** 3 = 27,000 divisors of the lcm; a table over them peaked at
    # about 3 MiB, the faces of one multidegree at a time take kilobytes
    I = MonomialIdeal(3, [(29, 0, 0), (0, 29, 0), (0, 0, 29), (1, 1, 1)])
    tracemalloc.start()
    try:
        T = oracle_betti(I)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19, peak
    assert T.entries == {(0, 3): 1, (0, 29): 3, (1, 31): 3, (1, 58): 3, (2, 59): 3}


def test_upper_koszul_homology_sums_to_oracle(corpus_n3):
    for I in corpus_n3:
        lcm = [max(col) for col in zip(*I.gens)]
        entries = {}
        for b in product(*(range(e + 1) for e in lcm)):
            for dim, rank in reduced_homology_ranks(upper_koszul(I, b)).items():
                key = (dim + 1, sum(b))
                entries[key] = entries.get(key, 0) + rank
        assert sb.BettiTable(I.n, entries) == oracle_betti(I), I


def test_oracle_shape_and_counts_nonnegative(corpus_n3):
    for I in corpus_n3[::11]:
        T = oracle_betti(I)
        for (i, j) in T.entries:
            assert 0 <= i <= I.n - 1 and j > i
        counts = counts_from_betti(T)
        assert all(c >= 0 for c in counts.values())
        assert counts == class_degree_counts(I.gens)


def hilbert_from_table(I, T, top):
    """Series of the quotient out of the table via the additive recurrence,
    as a coefficient list up to degree top."""
    c = {}
    for (i, j), b in T.entries.items():
        c[j] = c.get(j, 0) + (-1) ** i * b
    # (1 - sum c_j t^j) expanded against the full series of the ring
    h = []
    for d in range(top + 1):
        total = binom(I.n + d - 1, d)
        for j, cj in c.items():
            if j <= d:
                total -= cj * binom(I.n + (d - j) - 1, d - j)
        h.append(total)
    return h


def test_oracle_alternating_sums_match_hilbert(corpus_n3):
    rng = random.Random(5)
    for I in rng.sample(corpus_n3, 30):
        T = oracle_betti(I)
        top = I.max_gen_degree() + 2
        expected = [sb.hilbert_function(I, d) for d in range(top + 1)]
        assert hilbert_from_table(I, T, top) == expected


def test_oracle_on_nonstable_mixed():
    # a non-stable ideal where the formula route is unavailable
    J = MonomialIdeal(3, [(0, 2, 0), (1, 0, 1)])
    T = oracle_betti(J)
    assert T.beta(0, 2) == 2
    top = 4
    assert hilbert_from_table(J, T, top) == [sb.hilbert_function(J, d) for d in range(top + 1)]
