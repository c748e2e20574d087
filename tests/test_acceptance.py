"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible with pytest -s) carrying the
measured runtime; every assertion is exact, no tolerances.
"""

import random
import time
from itertools import product

import stablebetti as sb
from stablebetti.ideals import GeneratorMatrix, MonomialIdeal

from reference import counts_from_betti

EX_I = MonomialIdeal(3, [
    (4, 0, 0), (3, 1, 0), (2, 2, 0), (1, 3, 0), (0, 4, 0),
    (3, 0, 1), (2, 1, 2), (2, 0, 3), (1, 2, 2),
])
EX_J = MonomialIdeal(3, [
    (4, 0, 0), (3, 1, 0), (2, 2, 0), (3, 0, 1), (1, 2, 1),
    (1, 1, 2), (1, 4, 0), (2, 0, 3), (0, 4, 1),
])


class Timer:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.limit, f"runtime {self.elapsed:.1f}s over {self.limit}s"
        return False


def report(num, timer, detail):
    print(f"[criterion {num:2}] PASS ({timer.elapsed:6.2f}s / {timer.limit}s): {detail}")


def test_criterion_01_twin_tables():
    with Timer(10) as t:
        expected = sb.BettiTable(3, {
            (0, 4): 6, (1, 5): 6, (2, 6): 1,
            (0, 5): 3, (1, 6): 6, (2, 7): 3,
        })
        table_formula = sb.ek_betti(EX_I)
        table_oracle = sb.oracle_betti(EX_J)
        assert table_formula == expected
        assert table_oracle == expected
    report(1, t, "twin ideals share the exact table (6,6,1)/(3,6,3)")


def test_criterion_02_formula_oracle_equivalence():
    with Timer(120) as t:
        checked = 0
        for n in (1, 2, 3):
            for I in sb.enumerate_strongly_stable(n, 4):
                assert sb.oracle_betti(I) == sb.ek_betti(I), I
                checked += 1
        rng = random.Random(1234)
        for _ in range(200):
            I = sb.random_strongly_stable(4, 5, rng)
            assert sb.oracle_betti(I) == sb.ek_betti(I), I
            checked += 1
    report(2, t, f"closed formula equals homology oracle on {checked} ideals")


def test_criterion_03_obstruction_certificates():
    with Timer(120) as t:
        A = GeneratorMatrix(4, 2, ((1, 2, 0, 0), (1, 3, 3, 4)))
        B = GeneratorMatrix(4, 5, ((1, 3, 2, 2), (1, 4, 6, 9)))
        for M in (A, B):
            assert sb.check_matrix_necessary(M).ok
            outcome = sb.search_matrix(M)
            assert outcome.found is None
            assert outcome.note == "no strongly stable ideal has this matrix of generators"
    report(3, t, "both obstruction matrices pass the checks yet are certified unrealizable")


def test_criterion_04_worked_example_low_value_one():
    with Timer(10) as t:
        assert sb.iterated_cumsum_last((1, 1, 1), 2) == 6
        admissible = []
        for b in range(1, 11):
            profile = sb.ExtremalProfile(4, ((2, 4, b), (3, 2, 1)))
            verdict = sb.check_profile(profile)
            side = next(c for c in verdict.checks if c.p == 1)
            assert side.rhs == 10 and side.lhs == 6 + b
            if verdict.ok:
                admissible.append(b)
                ideal = sb.nested_lex_ideal(profile)
                corners = sb.extremal_corners(sb.ek_betti(ideal))
                assert corners == [(2, 4, b), (3, 2, 1)]
        assert admissible == [1, 2, 3, 4]
    report(4, t, "admissible top-corner values are exactly 1..4 and each is realized")


def test_criterion_05_adjudicated_branch():
    with Timer(300) as t:
        published_value = 8
        from_definition = sb.iterated_cumsum_last((1, 2, 2), 2)
        witness = sb.subring_lexsegment_ideal(4, 2, 2, 4)
        grown = sb.times_maximal(witness, 2)
        from_counting = sum(1 for g in grown.gens if sb.max_index(g) == 3)
        profile = sb.ExtremalProfile(4, ((2, 4, 2), (3, 2, 2)))
        verdict = sb.check_profile(profile)
        outcome = sb.search_extremal_profile(profile)
        # the three routes must agree with each other
        assert from_definition == from_counting
        assert verdict.ok == (outcome.found is not None)
        assert outcome.note.startswith("no strongly stable ideal")
        # recorded comparison: the computed value versus the published one
        assert from_definition == 9
        assert from_definition != published_value
        assert not verdict.ok and outcome.found is None
    report(
        5, t,
        "forced count is 9 by definition and by generator counting "
        "(published value 8); profile certified unrealizable, all routes consistent",
    )


def test_criterion_06_shift_identities():
    with Timer(60) as t:
        cases = 0
        for ell in (2, 3, 4):
            for d in range(1, 6):
                for k in range(1, sb.binom(ell + d - 2, ell - 1) + 1):
                    U = sb.subring_lexsegment_ideal(ell, k, d, ell)
                    mv = sb.count_vector(U)
                    for i in range(1, ell + 1):
                        assert mv[i - 1] == sb.macaulay_shift(k, ell - 1, i - ell)
                    for i in range(2, ell):
                        assert sb.min_shift_preimage(k, i, ell) == sb.macaulay_shift(
                            k, ell - 1, i - ell
                        )
                    cases += 1
        for d in range(1, 6):
            assert sb.count_vector(sb.subring_lexsegment_ideal(1, 1, d, 1)) == (1,)
    report(6, t, f"count vectors and minimum preimages match the closed form on {cases} cases")


def test_criterion_07_lexsegment_closed_form():
    with Timer(60) as t:
        cases = 0
        for n in range(1, 6):
            for d in range(1, 6):
                for mu in range(1, sb.binom(n + d - 1, d) + 1):
                    assert sb.lexsegment_count_vector(n, d, mu) == sb.count_vector(
                        sb.lexsegment_ideal(n, d, mu)
                    )
                    cases += 1
    report(7, t, f"arithmetic count vectors equal constructed ones on {cases} segments")


def _nonzero_rows(j, cap=6):
    # rows satisfying condition (1) with entries bounded by the cap
    rows = []
    for m2 in range(0, min(j, cap) + 1):
        m3_bound = min(sb.macaulay_shift(m2, 1, 1) if m2 else 0, cap)
        for m3 in range(0, m3_bound + 1):
            rows.append((1, m2, m3))
    return rows


def test_criterion_08_three_variable_sufficiency():
    with Timer(300) as t:
        seen = set()
        realized = 0
        for jmin in range(1, 5):
            for jmax in range(jmin, 5):
                for stack in product(*[_nonzero_rows(j) for j in range(jmin, jmax + 1)]):
                    M = GeneratorMatrix(3, jmin, stack)
                    if not sb.check_matrix_necessary(M).ok:
                        continue
                    M = M.canonical()
                    if M in seen:
                        continue
                    seen.add(M)
                    result = sb.realize_matrix_greedy(M)
                    assert result.ok, M
                    assert sb.generator_matrix(result.ideal) == M
                    realized += 1
    report(8, t, f"every admissible three-variable matrix realized greedily ({realized} matrices)")


def test_criterion_09_roundtrips_and_universality(corpus_n3):
    with Timer(60) as t:
        rng = random.Random(2024)
        for _ in range(500):
            n = rng.randint(1, 6)
            entries = {}
            for _ in range(rng.randint(1, 8)):
                i = rng.randint(0, n - 1)
                d = rng.randint(1, 6)
                entries[(i, i + d)] = rng.randint(1, 20)
            T = sb.BettiTable(n, entries)
            assert sb.betti_from_counts(counts_from_betti(T), n) == T
        for I in corpus_n3:
            assert sb.check_matrix_necessary(sb.generator_matrix(I)).ok
    report(9, t, f"500 table roundtrips exact; all {len(corpus_n3)} matrices pass the conditions")


def test_criterion_10_count_realizations_and_verdicts():
    with Timer(60) as t:
        realized = 0
        for n in (1, 2, 3, 4):
            for counts in product(range(4), repeat=n):
                valid = (
                    any(counts)
                    and counts[0] == 1
                    and all(not (counts[i] == 0 and counts[i + 1] > 0) for i in range(n - 1))
                )
                if not valid:
                    continue
                I = sb.strongly_stable_with_counts(counts)
                assert sb.is_strongly_stable(I)
                assert sb.count_vector(I) == counts
                realized += 1
        verdicts = 0
        for n in (1, 2, 3, 4):
            for d in (1, 2, 3, 4, 5):
                for counts in product(range(4), repeat=n):
                    if not any(counts):
                        continue
                    if any(counts[i] > sb.binom(i + d - 1, d - 1) for i in range(n)):
                        continue
                    _, ss = sb.piecewise_lexsegment(d, counts)
                    expected = sb.is_o_sequence(counts) and (n < 2 or counts[1] <= d)
                    assert ss == expected
                    verdicts += 1
    report(10, t, f"{realized} count vectors realized; {verdicts} piecewise verdicts match the criterion")
