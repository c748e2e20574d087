import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stablebetti as sb
from stablebetti.betti import (
    BettiTable,
    betti_from_counts,
    corners_from_counts,
    ek_betti,
    extremal_corners,
    render,
    table_to_json,
)
from stablebetti.ideals import MonomialIdeal, class_degree_counts

from reference import counts_from_betti

EX_I = MonomialIdeal(3, [
    (4, 0, 0), (3, 1, 0), (2, 2, 0), (1, 3, 0), (0, 4, 0),
    (3, 0, 1), (2, 1, 2), (2, 0, 3), (1, 2, 2),
])

EX_TABLE = BettiTable(3, {
    (0, 4): 6, (1, 5): 6, (2, 6): 1,
    (0, 5): 3, (1, 6): 6, (2, 7): 3,
})


def test_equal_tables_hash_equal():
    items = list(EX_TABLE.entries.items())
    T = BettiTable(3, dict(items[::-1] + [((1, 9), 0)]))
    assert T == EX_TABLE and hash(T) == hash(EX_TABLE)
    assert len({T, EX_TABLE}) == 1
    assert BettiTable(4, dict(items)) not in {EX_TABLE}


def test_ek_on_example():
    assert ek_betti(EX_I) == EX_TABLE


def test_ek_principal_and_small():
    assert ek_betti(MonomialIdeal(1, [(3,)])).entries == {(0, 3): 1}
    m2 = sb.lexsegment_ideal(2, 2, 3)
    T = ek_betti(m2)
    assert T.entries == {(0, 2): 3, (1, 3): 2}
    assert sb.oracle_betti(m2) == T


def test_ek_demands_stability():
    J = MonomialIdeal(2, [(0, 2)])
    with pytest.raises(sb.NotStableError) as err:
        ek_betti(J)
    assert "oracle" in str(err.value)


def test_counts_from_betti_is_exact():
    # past 2**53, where a float sum drops the low digits
    T = BettiTable(3, {(0, 3): 10**17 + 1, (1, 4): 10**17 + 3})
    counts = counts_from_betti(T)
    assert counts == {(1, 3): -2, (2, 3): 10**17 + 3}
    assert all(type(c) is int for c in counts.values())
    assert betti_from_counts(counts, 3) == T


def test_counts_from_betti_example():
    counts = counts_from_betti(EX_TABLE)
    assert counts == {(1, 4): 1, (2, 4): 4, (3, 4): 1, (3, 5): 3}
    assert counts_from_betti(BettiTable(3, {})) == {}


def test_counts_match_generators_on_stable(corpus_n3):
    for I in corpus_n3[::4]:
        assert counts_from_betti(ek_betti(I)) == class_degree_counts(I.gens)


def test_betti_from_counts_single_strand():
    for k, d in ((1, 2), (3, 4), (4, 1)):
        T = betti_from_counts({(k, d): 1}, 4)
        assert T.entries == {(i, i + d): sb.binom(k - 1, i) for i in range(k)}


def test_betti_from_counts_rejects_inconsistency():
    with pytest.raises(sb.DomainError):
        betti_from_counts({(1, 3): 1, (2, 3): -1}, 3)


def random_table(rng, n):
    entries = {}
    for _ in range(rng.randint(1, 8)):
        i = rng.randint(0, n - 1)
        d = rng.randint(1, 6)
        entries[(i, i + d)] = rng.randint(1, 20)
    return BettiTable(n, entries)


def test_conversion_roundtrips_random():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 6)
        T = random_table(rng, n)
        assert betti_from_counts(counts_from_betti(T), n) == T
    for _ in range(200):
        n = rng.randint(1, 5)
        counts = {}
        for _ in range(rng.randint(1, 6)):
            counts[(rng.randint(1, n + 1), rng.randint(1, 6))] = rng.randint(0, 9)
        counts = {k: v for k, v in counts.items() if v}
        assert counts_from_betti(betti_from_counts(counts, n)) == counts


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.dictionaries(
        st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=6)),
        st.integers(min_value=1, max_value=20),
        min_size=1,
        max_size=8,
    ),
)
def test_conversion_roundtrip_hypothesis(n, raw):
    entries = {(i, i + d): b for (i, d), b in raw.items() if i < n}
    if not entries:
        return
    T = BettiTable(n, entries)
    assert betti_from_counts(counts_from_betti(T), n) == T


def test_extremal_corners_examples():
    assert extremal_corners(EX_TABLE) == [(2, 5, 3)]
    assert extremal_corners(BettiTable(2, {(0, 3): 1})) == [(0, 3, 1)]
    assert extremal_corners(BettiTable(3, {})) == []


def test_extremal_from_stable_examples():
    # a stable ideal's corners read straight off its generator counts
    U = sb.subring_lexsegment_ideal(4, 2, 2, 4)
    for I, corners in (
        (EX_I, [(2, 5, 3)]),
        (U, [(3, 2, 2)]),
        (MonomialIdeal(1, [(4,)]), [(0, 4, 1)]),
    ):
        assert corners_from_counts(class_degree_counts(I.gens)) == corners


def test_extremal_routes_agree(corpus_n3, corpus_random_n4):
    for I in corpus_n3 + corpus_random_n4:
        assert corners_from_counts(class_degree_counts(I.gens)) == extremal_corners(ek_betti(I))


def test_render_example():
    assert render(EX_TABLE) == "6 6 1\n3 6 3"
    assert render(BettiTable(3, {})) == "(empty Betti table)"
    assert render(BettiTable(2, {(0, 2): 3, (1, 3): 2})) == "3 2"
    gap = BettiTable(2, {(0, 2): 1, (0, 4): 1})
    assert render(gap) == "1 0\n0 0\n1 0"


def test_render_quotient():
    out = render(BettiTable(2, {(0, 2): 3, (1, 3): 2}), quotient=True)
    assert out.splitlines()[0].split() == ["1", "0", "0"]
    assert out.splitlines()[1].split() == ["0", "3", "2"]


def test_json_roundtrip():
    obj = table_to_json(EX_TABLE)
    assert obj["n"] == 3
    assert obj["entries"] == sorted(obj["entries"])


def test_table_shape_invariants(corpus_n3):
    for I in corpus_n3[::3]:
        T = ek_betti(I)
        for (i, j) in T.entries:
            assert 0 <= i <= I.n - 1
            assert j > i
