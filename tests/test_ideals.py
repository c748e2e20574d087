import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stablebetti as sb
from stablebetti.ideals import GeneratorMatrix, MonomialIdeal, class_degree_counts, new_generator_row
from stablebetti.monomials import enumerate_degree, max_index, swap_variable

from reference import component_ideal

EX_I = MonomialIdeal(3, [
    (4, 0, 0), (3, 1, 0), (2, 2, 0), (1, 3, 0), (0, 4, 0),
    (3, 0, 1), (2, 1, 2), (2, 0, 3), (1, 2, 2),
])
EX_J = MonomialIdeal(3, [
    (4, 0, 0), (3, 1, 0), (2, 2, 0), (3, 0, 1), (1, 2, 1),
    (1, 1, 2), (1, 4, 0), (2, 0, 3), (0, 4, 1),
])


def test_minimalize_examples():
    assert sb.minimalize(2, [(2, 0), (2, 1)]).gens == ((2, 0),)
    assert set(sb.minimalize(3, EX_I.gens).gens) == set(EX_I.gens)
    assert set(sb.minimalize(3, [(1, 1, 0), (0, 1, 1), (1, 1, 1)]).gens) == {
        (1, 1, 0), (0, 1, 1)
    }


def test_equal_ideals_hash_equal():
    gens = [(2, 0, 0), (1, 1, 0), (0, 2, 1)]
    I = MonomialIdeal(3, gens)
    J = MonomialIdeal(3, gens[::-1] + gens[:1])
    assert I == J and hash(I) == hash(J)
    assert len({I, J}) == 1 and J in {I}
    assert MonomialIdeal(3, gens[:2]) not in {I}
    assert MonomialIdeal(4, [g + (0,) for g in gens]) not in {I}


def test_unit_ideal_rejected():
    with pytest.raises(sb.UnitIdealError):
        sb.minimalize(2, [(0, 0), (1, 0)])
    with pytest.raises(sb.DomainError):
        sb.minimalize(2, [])


def test_minimalize_checks_every_generator_first():
    # the wrong-length generator is refused in either order, though
    # (1, 0) divides it
    for raw in ([(1, 0), (1, 0, 5)], [(1, 0, 5), (1, 0)]):
        with pytest.raises(sb.DomainError, match=r"generator \(1, 0, 5\) has 3 entries, not 2"):
            sb.minimalize(2, raw)


def test_non_integer_values_refused():
    with pytest.raises(sb.DomainError, match=r"generator \(0\.5, 0\) has a non-integer entry"):
        MonomialIdeal(2, [(0.5, 0), (0, 1)])
    with pytest.raises(sb.DomainError, match="non-integer"):
        sb.minimalize(2, [(2, 0), (1, 1.0)])
    with pytest.raises(sb.DomainError, match=r"row \(1, 0\.5\) has a non-integer entry"):
        GeneratorMatrix(2, 1, ((1, 0.5),))


def test_nonminimal_constructor_rejected():
    with pytest.raises(sb.DomainError):
        MonomialIdeal(2, [(2, 0), (2, 1)])


def test_contains():
    I = MonomialIdeal(3, [(2, 0, 0)])
    assert I.contains((2, 0, 1))
    assert not I.contains((1, 1, 0))
    with pytest.raises(sb.DomainError, match="different ring"):
        I.contains((2, 0))
    J, _ = sb.piecewise_lexsegment(5, (1, 3, 2, 2))
    mJ = sb.times_maximal(J, 1)
    assert mJ.contains((2, 3, 1, 0))       # x1^2 x2^3 x3
    assert not mJ.contains((3, 0, 3, 0))   # x1^3 x3^3


def test_graded_component():
    assert sb.graded_component(MonomialIdeal(2, [(1, 0), (0, 1)]), 2) == [
        (2, 0), (1, 1), (0, 2)
    ]
    assert sb.graded_component(MonomialIdeal(2, [(2, 0)]), 3) == [(3, 0), (2, 1)]
    U = sb.subring_lexsegment_ideal(4, 2, 2, 4)
    assert len(sb.graded_component(U, 2)) == 7


def test_component_ideal():
    comp4 = component_ideal(EX_J, 4)
    assert set(comp4.gens) == {
        (4, 0, 0), (3, 1, 0), (2, 2, 0), (3, 0, 1), (1, 2, 1), (1, 1, 2)
    }
    single = MonomialIdeal(2, [(2, 0), (1, 1)])
    assert component_ideal(single, 2) == single
    assert component_ideal(single, 1) is None


def test_times_maximal():
    I = MonomialIdeal(2, [(1, 0)])
    assert set(sb.times_maximal(I, 1).gens) == {(2, 0), (1, 1)}
    assert sb.times_maximal(I, 0) is I
    U = sb.subring_lexsegment_ideal(4, 2, 2, 4)
    grown = sb.times_maximal(U, 2)
    assert sum(1 for g in grown.gens if max_index(g) == 3) == 9


def test_predicates_on_named_ideals():
    assert sb.is_strongly_stable(EX_I)
    assert sb.is_stable(EX_I)
    assert not sb.is_strongly_stable(EX_J)
    assert not sb.is_stable(EX_J)
    assert not sb.is_stable(MonomialIdeal(2, [(0, 1)]))


def test_lexsegment_predicate():
    assert sb.is_lexsegment(sb.lexsegment_ideal(3, 2, 4))
    assert not sb.is_lexsegment(MonomialIdeal(2, [(0, 2)]))
    # powers of the maximal ideal are lexsegment
    m2 = sb.lexsegment_ideal(3, 2, 6)
    assert sb.is_lexsegment(m2)
    # the check reads one degree past the top generator, so that degree
    # stays within the cap, and the refusal names the generator degree
    assert sb.is_lexsegment(MonomialIdeal(1, [(63,)]))
    with pytest.raises(sb.DomainError, match="^top generator degree must be an integer in 0..63, got 64$"):
        sb.is_lexsegment(MonomialIdeal(1, [(64,)]))


def test_lexsegment_closed_under_shadow():
    for n in (2, 3):
        for d in (1, 2, 3):
            for mu in range(1, len(enumerate_degree(n, d)) + 1):
                L = sb.lexsegment_ideal(n, d, mu)
                assert sb.is_lexsegment(L)
                assert sb.is_lexsegment(sb.times_maximal(L, 1))
                assert sb.is_strongly_stable(L)


def full_space_strongly_stable(I, extra=2):
    """Oracle: exchange closure of every monomial of I up to a degree
    margin, not just the generators."""
    for d in range(1, I.max_gen_degree() + 1 + extra):
        for u in sb.graded_component(I, d):
            for j in range(2, I.n + 1):
                if u[j - 1] == 0:
                    continue
                for i in range(1, j):
                    if not I.contains(swap_variable(u, j, i)):
                        return False
    return True


def test_generator_criterion_matches_full_space(corpus_n3):
    sample = [I for I in corpus_n3 if I.n == 3][::7]
    for I in sample:
        assert sb.is_strongly_stable(I) == full_space_strongly_stable(I)


def all_pairs_strongly_stable(I):
    """Reference: every exchange (u / x_j) x_i, i < j, of every generator."""
    return all(
        I.contains(swap_variable(g, j, i))
        for g in I.gens
        for j in range(2, I.n + 1)
        if g[j - 1]
        for i in range(1, j)
    )


def test_adjacent_exchanges_match_all_pairs():
    rng = random.Random(11)
    verdicts = []
    for n in range(1, 6):
        for _ in range(150):
            raw = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 6))]
            raw = [g for g in raw if any(g)] or [(1,) + (0,) * (n - 1)]
            stable = sb.random_strongly_stable(n, rng.randint(1, 4), rng)
            # dropping a generator of a strongly stable ideal often breaks it
            gens = list(stable.gens)
            gens.pop(rng.randrange(len(gens)))
            for I in (sb.minimalize(n, raw), stable, MonomialIdeal(n, gens) if gens else stable):
                verdict = sb.is_strongly_stable(I)
                assert verdict == all_pairs_strongly_stable(I), I
                verdicts.append(verdict)
    assert verdicts.count(True) > 500 and verdicts.count(False) > 500


def test_piecewise_up_to():
    J, _ = sb.piecewise_lexsegment(5, (1, 3, 2, 2))
    assert sb.is_piecewise_lex_up_to(J, 4)
    mJ = sb.times_maximal(J, 1)
    assert not sb.is_piecewise_lex_up_to(mJ, 3)
    for q in (1, 2):
        grown = sb.times_maximal(sb.subring_lexsegment_ideal(4, 2, 2, 4), q)
        assert sb.is_piecewise_lex_up_to(grown, 4)
    with pytest.raises(sb.DomainError):
        sb.is_piecewise_lex_up_to(EX_I, 2)  # mixed generator degrees


def test_generator_counts():
    assert class_degree_counts(EX_I.gens) == {(1, 4): 1, (2, 4): 4, (3, 4): 1, (3, 5): 3}
    assert class_degree_counts(MonomialIdeal(1, [(3,)]).gens) == {(1, 3): 1}
    m2 = component_ideal(sb.times_maximal(MonomialIdeal(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]), 1), 2)
    assert class_degree_counts(m2.gens) == {(1, 2): 1, (2, 2): 2, (3, 2): 3}
    assert sum(class_degree_counts(EX_J.gens).values()) == 9


def test_generator_matrix_examples():
    J, _ = sb.piecewise_lexsegment(5, (1, 3, 2, 2))
    M = sb.generator_matrix(J)
    assert M.jmin == 5 and M.rows[0] == (1, 3, 2, 2)

    x1 = MonomialIdeal(3, [(1, 0, 0)])
    M = sb.generator_matrix(x1)
    assert M.jmin == 1 and M.rows == ((1, 0, 0),)
    assert M.row(2) == (1, 1, 1)
    assert M.row(0) == (0, 0, 0)

    m2 = sb.lexsegment_ideal(3, 2, 6)
    assert sb.generator_matrix(m2).rows == ((1, 2, 3),)

    with pytest.raises(sb.NotStableError):
        sb.generator_matrix(EX_J)
    # the unit ideal is refused when built, before any matrix is read
    with pytest.raises(sb.UnitIdealError):
        sb.generator_matrix(MonomialIdeal(3, [(0, 0, 0)]))


def test_generator_matrix_matches_definition(corpus_n3, corpus_random_n4):
    # row j counts graded_component(I, j) by max index
    for I in corpus_n3 + corpus_random_n4:
        jmin = min(sum(g) for g in I.gens)
        rows = []
        for j in range(jmin, I.max_gen_degree() + 1):
            row = [0] * I.n
            for u in sb.graded_component(I, j):
                row[max_index(u) - 1] += 1
            rows.append(tuple(row))
        M = sb.generator_matrix(I)
        assert (M.n, M.jmin, M.rows) == (I.n, jmin, tuple(rows))


def test_matrix_counts_roundtrip_on_example():
    M = sb.generator_matrix(EX_I)
    assert M.jmin == 4
    assert M.rows == ((1, 4, 1), (1, 5, 9))
    assert [new_generator_row(M, j) for j in (4, 5)] == [(1, 4, 1), (0, 0, 3)]
    counts = {(1, 4): 1, (2, 4): 4, (3, 4): 1, (3, 5): 3}
    assert sb.counts_to_matrix(counts, 3) == M


def test_matrix_counts_violation():
    M = GeneratorMatrix(4, 5, ((1, 3, 2, 2), (1, 3, 6, 9)))
    assert new_generator_row(M, 6) == (0, -1, 0, 1)
    assert [(it.j, it.condition) for it in sb.check_matrix_necessary(M).failures()] == [(6, "cumulative")]


def test_matrix_canonical_and_eq():
    M = GeneratorMatrix(3, 1, ((0, 0, 0), (1, 0, 0), (1, 1, 1)))
    c = M.canonical()
    assert c.jmin == 2 and c.rows == ((1, 0, 0),)
    assert M == GeneratorMatrix(3, 2, ((1, 0, 0),))
    assert GeneratorMatrix(3, 1, ()).canonical().rows == ()
    assert GeneratorMatrix(3, 4, ((0, 0, 0),)).canonical().rows == ()


def test_matrix_is_never_equal_to_another_type():
    M = GeneratorMatrix(2, 1, ((1, 1),))
    assert (M == object()) is False and M != object()


def test_zero_ideal_behavior():
    with pytest.raises(sb.DomainError):
        MonomialIdeal(3, [])


def test_hilbert_function():
    m = MonomialIdeal(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    m2 = component_ideal(sb.times_maximal(m, 1), 2)
    assert [sb.hilbert_function(m2, d) for d in range(4)] == [1, 3, 0, 0]
    I = MonomialIdeal(2, [(2, 0), (1, 1)])
    assert [sb.hilbert_function(I, d) for d in range(6)] == [1, 2, 1, 1, 1, 1]


def test_closure_properties_random_corpus(corpus_random_n4):
    rng = random.Random(7)
    sample = rng.sample(corpus_random_n4, 40)
    for I in sample:
        assert sb.is_strongly_stable(I)
        assert sb.is_strongly_stable(sb.times_maximal(I, 1))
        for d in range(min(sum(g) for g in I.gens), I.max_gen_degree() + 1):
            assert sb.is_strongly_stable(component_ideal(I, d))


def test_shadow_count_identity(corpus_n3, corpus_random_n4):
    # top-index counts of the shadow are prefix sums of the original counts
    sample = corpus_n3[::5] + corpus_random_n4[::20]
    for J in sample:
        mJ = sb.times_maximal(J, 1)
        mv, mv_shadow = sb.count_vector(J), sb.count_vector(mJ)
        acc = 0
        for i in range(J.n):
            acc += mv[i]
            assert mv_shadow[i] == acc


def test_strongly_stable_implies_stable(corpus_n3, corpus_random_n4):
    for I in corpus_n3[::3] + corpus_random_n4[::10]:
        assert sb.is_stable(I)


def test_single_degree_growth_counts(corpus_random_n4):
    # for a stable ideal generated in one degree, multiplying by the
    # maximal ideal q times turns the count vector prefix sums q-fold
    rng = random.Random(13)
    for I in rng.sample(corpus_random_n4, 20):
        J = component_ideal(I, min(sum(g) for g in I.gens))
        mv = sb.count_vector(J)
        for q in (0, 1, 2, 3):
            grown = sb.times_maximal(J, q)
            gv = sb.count_vector(grown)
            for i in range(1, J.n + 1):
                assert gv[i - 1] == sb.GeneratorMatrix(i, 1, (mv[:i],)).row(1 + q)[-1]


def test_matrix_rows_pass_necessary_conditions(corpus_n3):
    for I in corpus_n3:
        M = sb.generator_matrix(I)
        assert sb.check_matrix_necessary(M).ok
        # rows are O-sequences with bounded second entry
        for j in range(M.jmin, M.jmin + len(M.rows)):
            row = M.row(j)
            if any(row):
                assert sb.is_o_sequence(row)
                if I.n >= 2:
                    assert row[1] <= j


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_minimalize_preserves_membership(n, raw):
    raw = [g[:n] for g in raw if any(g[:n])]
    if not raw:
        return
    I = sb.minimalize(n, raw)
    for a in I.gens:
        for b in I.gens:
            if a != b:
                assert not all(x <= y for x, y in zip(a, b))
    for u in enumerate_degree(n, 4):
        direct = any(all(ge <= ue for ge, ue in zip(g, u)) for g in raw)
        assert I.contains(u) == direct
