import random
from itertools import product

import pytest

import stablebetti as sb
from stablebetti import constructions
from stablebetti.constructions import (
    Block,
    block_monomials,
    check_matrix_lexsegment,
    check_matrix_necessary,
    is_lexsegment_count_vector,
    lexsegment_count_vector,
    lexsegment_ideal,
    lower_segment_blocks,
    piecewise_lexsegment,
    realize_matrix_greedy,
    strongly_stable_with_counts,
    subring_lexsegment_ideal,
)
from stablebetti.ideals import GeneratorMatrix, MonomialIdeal
from stablebetti.macaulay import binom
from stablebetti.monomials import (
    class_size,
    deglex_key,
    enumerate_degree,
    max_index,
)

from reference import kth_biggest_with_max_index, restrict_to_subring


def test_piecewise_lexsegment_examples():
    I, ss = piecewise_lexsegment(5, (1, 3, 2, 2))
    assert ss
    assert set(I.gens) == {
        (5, 0, 0, 0), (4, 1, 0, 0), (3, 2, 0, 0), (2, 3, 0, 0),
        (4, 0, 1, 0), (3, 1, 1, 0), (4, 0, 0, 1), (3, 1, 0, 1),
    }
    I, ss = piecewise_lexsegment(3, (1, 0, 0))
    assert ss and I.gens == ((3, 0, 0),)
    I, ss = piecewise_lexsegment(2, (1, 2, 3))
    assert ss and set(I.gens) == set(enumerate_degree(3, 2))


def test_piecewise_lexsegment_errors():
    with pytest.raises(sb.DomainError):
        piecewise_lexsegment(2, (1, 5, 0))  # class 2 has only 2 monomials
    with pytest.raises(sb.DomainError):
        piecewise_lexsegment(2, (0, 0))


def test_piecewise_verdict_matches_numeric_criterion():
    for n in (2, 3, 4):
        for d in (1, 2, 3, 4, 5):
            for counts in product(range(4), repeat=n):
                if not any(counts):
                    continue
                if any(counts[i] > class_size(i + 1, d) for i in range(n)):
                    continue
                _, ss = piecewise_lexsegment(d, counts)
                numeric = sb.is_o_sequence(counts) and (n < 2 or counts[1] <= d)
                assert ss == numeric, (n, d, counts)


def test_counts_construction_examples():
    assert set(strongly_stable_with_counts((1, 2)).gens) == {(2, 0), (1, 1), (0, 2)}
    assert set(strongly_stable_with_counts((1, 2, 2)).gens) == {
        (2, 0, 0), (1, 2, 0), (0, 3, 0), (1, 1, 1), (1, 0, 2)
    }
    assert strongly_stable_with_counts((1, 0, 0)).gens == ((1, 0, 0),)


def test_counts_construction_grid():
    for n in (1, 2, 3, 4):
        for counts in product(range(4), repeat=n):
            feasible = (
                counts and counts[0] == 1
                and all(not (counts[i] == 0 and counts[i + 1] > 0) for i in range(n - 1))
            )
            if not feasible:
                with pytest.raises(sb.DomainError):
                    strongly_stable_with_counts(counts)
                continue
            I = strongly_stable_with_counts(counts)
            assert sb.is_strongly_stable(I)
            assert sb.count_vector(I) == counts


def test_subring_lexsegment_examples():
    U = subring_lexsegment_ideal(4, 2, 2, 4)
    assert set(U.gens) == {
        (2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
        (0, 2, 0, 0), (0, 1, 1, 0), (0, 1, 0, 1),
    }
    assert sb.count_vector(U) == (1, 2, 2, 2)
    assert subring_lexsegment_ideal(1, 1, 4, 3).gens == ((4, 0, 0),)
    big = subring_lexsegment_ideal(3, 7, 4, 4)
    assert len(big.gens) == 12
    assert all(max_index(g) <= 3 for g in big.gens)
    assert min(big.gens, key=deglex_key) == (0, 3, 1, 0)


def test_subring_lexsegment_matches_kth_biggest_route():
    # reference: the segment of the first ell variables down to the k-th
    # biggest monomial of the class
    for n in range(1, 6):
        for d in range(1, 6):
            for ell in range(1, n + 1):
                segment = [v + (0,) * (n - ell) for v in enumerate_degree(ell, d)]
                for k in range(1, class_size(ell, d) + 1):
                    u = kth_biggest_with_max_index(ell, k, d, n)
                    expected = MonomialIdeal(n, segment[: segment.index(u) + 1])
                    assert subring_lexsegment_ideal(ell, k, d, n) == expected


def test_subring_lexsegment_is_smallest_strongly_stable(corpus_n3):
    from stablebetti.monomials import monomials_with_max_index

    for n in (2, 3):
        for d in (1, 2, 3):
            for ell in range(1, n + 1):
                for k in range(1, class_size(ell, d) + 1):
                    U = subring_lexsegment_ideal(ell, k, d, n)
                    top = monomials_with_max_index(ell, d, n)[:k]
                    assert all(U.contains(u) for u in top)
                    assert sb.is_strongly_stable(U)
                    # any strongly stable ideal containing the top-k class
                    # monomials contains U
                    for C in sb.enumerate_strongly_stable(n, d):
                        if all(C.contains(u) for u in top):
                            assert all(C.contains(g) for g in U.gens), (n, d, ell, k)


def test_subring_lexsegment_count_identity():
    # ell = 1 is the trivial case (k must be 1, single principal generator)
    for d in (1, 2, 3):
        assert sb.count_vector(subring_lexsegment_ideal(1, 1, d, 3)) == (1, 0, 0)
    for ell in (2, 3, 4):
        for d in (1, 2, 3):
            for k in range(1, class_size(ell, d) + 1):
                U = subring_lexsegment_ideal(ell, k, d, ell)
                mv = sb.count_vector(U)
                for i in range(1, ell + 1):
                    assert mv[i - 1] == sb.macaulay_shift(k, ell - 1, i - ell)


def test_shadow_of_subring_lexsegment_stays_piecewise():
    for q in (1, 2, 3):
        for (ell, k, d) in ((4, 2, 2), (3, 3, 2), (4, 5, 3)):
            U = subring_lexsegment_ideal(ell, k, d, 4)
            grown = sb.times_maximal(U, q)
            assert sb.is_piecewise_lex_up_to(grown, ell)
            top = sb.count_vector(grown)[ell - 1]
            expected = subring_lexsegment_ideal(ell, top, d + q, 4)
            assert restrict_to_subring(grown, ell) == restrict_to_subring(expected, ell)


def test_lexsegment_ideal_examples():
    assert set(lexsegment_ideal(3, 2, 4).gens) == {
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0)
    }
    full = lexsegment_ideal(3, 2, 6)
    assert set(full.gens) == set(enumerate_degree(3, 2))
    assert lexsegment_ideal(2, 3, 1).gens == ((3, 0),)
    with pytest.raises(sb.DomainError):
        lexsegment_ideal(2, 2, 4)
    # n and d are checked before mu, for the ideal and its count vector
    for n, d, message in ((0, 2, "need at least one variable"), (2, 0, "degree must be positive"),
                          (2, -1, "degree must be positive")):
        for build in (lexsegment_ideal, lexsegment_count_vector):
            with pytest.raises(sb.DomainError, match=message):
                build(n, d, 1)


def test_lower_segment_blocks_examples():
    blocks = lower_segment_blocks((0, 2, 0))
    assert blocks == [Block((0, 0, 0), 3, 2), Block((0, 1, 0), 3, 1)]
    mons = [set(block_monomials(b, 3)) for b in blocks]
    assert mons == [{(0, 0, 2)}, {(0, 1, 1)}]

    smallest = lower_segment_blocks((0, 0, 3))
    assert all(block_monomials(b, 3) == [] for b in smallest)

    with pytest.raises(sb.DomainError):
        lower_segment_blocks((0, 0, 0))


def test_lower_segment_blocks_partition():
    for n in (2, 3, 4):
        for d in (1, 2, 3, 4):
            for u in enumerate_degree(n, d):
                if sum(u) == 0:
                    continue
                blocks = lower_segment_blocks(u)
                union = []
                for b in blocks:
                    mons = block_monomials(b, n)
                    assert mons == sorted(mons, key=deglex_key, reverse=True)
                    union.extend(mons)
                assert len(union) == len(set(union))
                below = [v for v in enumerate_degree(n, d) if deglex_key(v) < deglex_key(u)]
                assert set(union) == set(below)
                js = [t + 1 for t in range(n) for _ in range(u[t])]
                size = sum(binom(n - js[p - 1] + d - p, d - p + 1) for p in range(1, d + 1))
                assert size == len(below)


def test_lexsegment_count_vector_examples():
    assert lexsegment_count_vector(3, 2, 4) == (1, 2, 1)
    assert sb.count_vector(lexsegment_ideal(3, 2, 4)) == (1, 2, 1)
    for n, d in ((3, 2), (4, 3)):
        full = binom(n + d - 1, d)
        assert lexsegment_count_vector(n, d, full) == tuple(
            class_size(i, d) for i in range(1, n + 1)
        )
    assert lexsegment_count_vector(4, 3, 1) == (1, 0, 0, 0)


def test_lexsegment_count_vector_matches_construction():
    for n in (1, 2, 3, 4):
        for d in (1, 2, 3):
            for mu in range(1, binom(n + d - 1, d) + 1):
                assert lexsegment_count_vector(n, d, mu) == sb.count_vector(
                    lexsegment_ideal(n, d, mu)
                )


def test_is_lexsegment_count_vector():
    assert is_lexsegment_count_vector((1, 2, 1), 2)
    assert is_lexsegment_count_vector((1, 0, 0), 1)
    # the top-7 degree-2 segment in 4 variables has counts (1,2,2,2)
    assert is_lexsegment_count_vector((1, 2, 2, 2), 2)
    assert sb.count_vector(lexsegment_ideal(4, 2, 7)) == (1, 2, 2, 2)
    assert not is_lexsegment_count_vector((1, 2, 3, 1), 2)
    assert not is_lexsegment_count_vector((0, 0), 2)


def test_check_matrix_necessary_examples():
    A = GeneratorMatrix(4, 2, ((1, 2, 0, 0), (1, 3, 3, 4)))
    B = GeneratorMatrix(4, 5, ((1, 3, 2, 2), (1, 4, 6, 9)))
    assert check_matrix_necessary(A).ok
    assert check_matrix_necessary(B).ok
    bad = GeneratorMatrix(4, 5, ((1, 3, 2, 2), (1, 3, 6, 9)))
    chk = check_matrix_necessary(bad)
    assert not chk.ok
    assert any(it.j == 6 and it.condition == "cumulative" for it in chk.failures())


def test_checker_items_pinned():
    # a leading zero row, a row failing each checker and a cumulative failure
    M = GeneratorMatrix(3, 1, ((0, 0, 0), (1, 3, 0), (1, 3, 4)))
    cumulative = (
        (1, "cumulative", True, "row dominates previous-row prefix sums"),
        (2, "cumulative", True, "row dominates previous-row prefix sums"),
        (3, "cumulative", False, "mu_{2,3} = 3 < 4 = sum of previous row up to 2"),
    )
    necessary = (
        (1, "row", True, "zero row skipped"),
        (2, "row", False, "second entry 3 exceeds the degree 2"),
        (3, "row", True, "O-sequence with bounded second entry"),
    ) + cumulative
    lexsegment = (
        (1, "row", True, "zero row skipped"),
        (2, "row", False, "(1, 3, 0) is not a degree-2 lexsegment count vector"),
        (3, "row", True, "degree-3 lexsegment count vector"),
    ) + cumulative
    for check, expected in ((check_matrix_necessary, necessary), (check_matrix_lexsegment, lexsegment)):
        chk = check(M)
        assert not chk.ok
        assert tuple((it.j, it.condition, it.ok, it.detail) for it in chk.items) == expected


def test_check_matrix_necessary_universal(corpus_n3):
    for I in corpus_n3:
        assert check_matrix_necessary(sb.generator_matrix(I)).ok


def test_check_matrix_lexsegment():
    L = lexsegment_ideal(3, 2, 4)
    assert check_matrix_lexsegment(sb.generator_matrix(L)).ok
    bad = GeneratorMatrix(4, 2, ((1, 2, 3, 1),))
    assert not check_matrix_lexsegment(bad).ok
    prefix_zero = GeneratorMatrix(2, 1, ((0, 0), (1, 1)))
    assert check_matrix_lexsegment(prefix_zero).ok


def test_check_matrix_lexsegment_characterizes(corpus_n3):
    # passing matrices are exactly those of lexsegment ideals
    for I in corpus_n3:
        if I.n != 3:
            continue
        M = sb.generator_matrix(I)
        verdict = check_matrix_lexsegment(M).ok
        if sb.is_lexsegment(I):
            assert verdict
        if verdict:
            # rebuild a lexsegment ideal with those component sizes
            parts = [
                lexsegment_ideal(3, j, sum(M.row(j)))
                for j in range(M.jmin, M.jmin + len(M.rows))
                if any(M.row(j))
            ]
            rebuilt = sb.minimalize(3, [g for part in parts for g in part.gens])
            assert sb.is_lexsegment(rebuilt)
            assert sb.generator_matrix(rebuilt) == M


def test_realize_greedy_success_trace():
    M = GeneratorMatrix(3, 2, ((1, 2, 2), (1, 3, 6)))
    result = realize_matrix_greedy(M)
    assert result.ok
    assert (0, 0, 3) in result.ideal.gens
    assert sb.generator_matrix(result.ideal) == M


def test_realize_greedy_failure_on_obstruction():
    for M, degree, index in (
        (GeneratorMatrix(4, 5, ((1, 3, 2, 2), (1, 4, 6, 9))), 6, 4),
        # class 4 of 5 variables breaks, not the last class
        (GeneratorMatrix(5, 3, ((1, 0, 0, 0, 0), (1, 3, 1, 1, 1), (1, 5, 5, 7, 7))), 5, 4),
        (GeneratorMatrix(5, 2, ((1, 2, 0, 0, 0), (1, 3, 3, 4, 3))), 3, 4),
    ):
        result = realize_matrix_greedy(M)
        assert not result.ok
        assert result.fail_degree == degree
        assert result.fail_index == index
        assert "strong stability" in result.reason


def test_realize_greedy_tests_each_generator_once(monkeypatch):
    # lower degrees passed at their own step, so the stability test sees
    # each generator once: the degree's new ones
    scanned = []
    real = constructions.unstable_generator

    def counting(gens, inside):
        scanned.append(len(gens))
        return real(gens, inside)

    monkeypatch.setattr(constructions, "unstable_generator", counting)
    rng = random.Random(5)
    realized = 0
    for _ in range(40):
        M = sb.generator_matrix(sb.random_strongly_stable(5, 5, rng))
        scanned.clear()
        result = realize_matrix_greedy(M)
        if result.ok:
            assert sum(scanned) == len(result.ideal.gens)
            realized += 1
    assert realized > 20


def test_realize_greedy_single_row_is_piecewise():
    M = GeneratorMatrix(3, 3, ((1, 3, 4),))
    result = realize_matrix_greedy(M)
    assert result.ok
    expected, ss = piecewise_lexsegment(3, (1, 3, 4))
    assert ss and result.ideal == expected


def test_realize_greedy_rejects_bad_matrix():
    bad = GeneratorMatrix(3, 2, ((1, 3, 0),))  # second entry exceeds degree
    with pytest.raises(sb.DomainError):
        realize_matrix_greedy(bad)
    with pytest.raises(sb.DomainError):
        realize_matrix_greedy(GeneratorMatrix(3, 1, ((0, 0, 0),)))
