import random

import pytest

import stablebetti as sb
from stablebetti.betti import betti_from_counts, ek_betti, extremal_corners
from stablebetti.constructions import subring_lexsegment_ideal
from stablebetti.extremal import (
    ExtremalProfile,
    check_profile,
    forced_counts,
    nested_lex_ideal,
    verify_profile,
)
from stablebetti.ideals import MonomialIdeal, class_degree_counts
from stablebetti.macaulay import binom
from stablebetti.monomials import max_index

from reference import component_ideal, restrict_to_subring


def test_profile_validation():
    with pytest.raises(sb.DomainError):
        ExtremalProfile(4, ((2, 4, 1), (2, 2, 1)))  # columns not increasing
    with pytest.raises(sb.DomainError):
        ExtremalProfile(4, ((2, 2, 1), (3, 4, 1)))  # degrees not decreasing
    with pytest.raises(sb.DomainError):
        ExtremalProfile(4, ((2, 4, 1), (3, 0, 1)))  # zero corner degree
    with pytest.raises(sb.DomainError):
        ExtremalProfile(4, ((2, 4, 1), (4, 2, 1)))  # column reaches n
    with pytest.raises(sb.DomainError):
        ExtremalProfile(4, ((2, 4, 0),))  # value must be positive
    with pytest.raises(sb.DomainError, match="empty profile"):
        ExtremalProfile(4, ())
    prof = ExtremalProfile.from_triples(4, [(3, 2, 2), (2, 4, 2)])
    assert prof.triples == ((2, 4, 2), (3, 2, 2))


def test_witness_vectors():
    # the witness vectors (1, 2, 2), (1, 1, 1) and (1, 1), carried up by
    # prefix sums to the top corner's degree
    assert forced_counts(ExtremalProfile(4, ((2, 4, 5), (3, 2, 2)))) == {1: 9}
    assert forced_counts(ExtremalProfile(4, ((2, 4, 5), (3, 2, 1)))) == {1: 6}
    assert forced_counts(ExtremalProfile(6, ((1, 7, 3), (4, 3, 1)))) == {1: 5}


def test_check_profile_worked_example():
    ok = check_profile(ExtremalProfile(4, ((2, 4, 4), (3, 2, 1))))
    assert ok.ok
    sides = {(c.p, c.lhs, c.rhs) for c in ok.checks}
    assert (2, 1, 4) in sides        # bottom corner within its class
    assert (1, 10, 10) in sides      # 6 + 4 against binom(5, 2)

    boundary = check_profile(ExtremalProfile(4, ((2, 4, 1), (3, 2, 2))))
    assert boundary.ok
    assert {(c.lhs, c.rhs) for c in boundary.checks} == {(2, 4), (10, 10)}

    over = check_profile(ExtremalProfile(4, ((2, 4, 2), (3, 2, 2))))
    assert not over.ok
    assert over.failures()[0].lhs == 11

    single = ExtremalProfile(3, ((2, 3, binom(4, 2)),))
    assert check_profile(single).ok
    too_big = ExtremalProfile(3, ((2, 3, binom(4, 2) + 1),))
    assert not check_profile(too_big).ok


def test_nested_lex_base_case():
    prof = ExtremalProfile(4, ((3, 2, 2),))
    ideal = nested_lex_ideal(prof)
    assert ideal == sb.subring_lexsegment_ideal(4, 2, 2, 4)
    assert extremal_corners(ek_betti(ideal)) == [(3, 2, 2)]


def test_nested_lex_two_corners_trace():
    prof = ExtremalProfile(4, ((2, 4, 1), (3, 2, 1)))
    ideal = nested_lex_ideal(prof)
    assert set(ideal.gens) == {
        (2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
        (0, 4, 0, 0), (0, 3, 1, 0),
    }
    assert extremal_corners(ek_betti(ideal)) == [(2, 4, 1), (3, 2, 1)]


def test_nested_lex_two_variables():
    prof = ExtremalProfile(2, ((1, 2, 2),))
    ideal = nested_lex_ideal(prof)
    assert set(ideal.gens) == {(2, 0), (1, 1), (0, 2)}
    assert verify_profile(ideal, prof)


def test_nested_lex_infeasible_raises():
    prof = ExtremalProfile(4, ((2, 4, 2), (3, 2, 2)))
    with pytest.raises(sb.InfeasibleProfileError) as err:
        nested_lex_ideal(prof)
    assert err.value.check is not None
    assert not err.value.check.ok


def test_verify_profile():
    I = MonomialIdeal(3, [
        (4, 0, 0), (3, 1, 0), (2, 2, 0), (1, 3, 0), (0, 4, 0),
        (3, 0, 1), (2, 1, 2), (2, 0, 3), (1, 2, 2),
    ])
    assert verify_profile(I, ExtremalProfile(3, ((2, 5, 3),)))
    assert not verify_profile(I, ExtremalProfile(3, ((2, 4, 1),)))
    # the same corners in a ring of another size
    assert not verify_profile(I, ExtremalProfile(4, ((2, 5, 3),)))
    # non-stable input goes through the homology oracle
    J = MonomialIdeal(3, [
        (4, 0, 0), (3, 1, 0), (2, 2, 0), (3, 0, 1), (1, 2, 1),
        (1, 1, 2), (1, 4, 0), (2, 0, 3), (0, 4, 1),
    ])
    assert not sb.is_stable(J)
    assert verify_profile(J, ExtremalProfile(3, ((2, 5, 3),)))


def test_verify_profile_tests_stability_once(monkeypatch):
    import stablebetti.extremal as extremal_mod
    import stablebetti.ideals as ideals_mod

    prof = ExtremalProfile(4, ((2, 4, 1), (3, 2, 1)))
    witness = nested_lex_ideal(prof)
    real = ideals_mod.is_stable
    calls = []

    def counting(I):
        calls.append(I)
        return real(I)

    monkeypatch.setattr(extremal_mod, "is_stable", counting)
    monkeypatch.setattr(ideals_mod, "is_stable", counting)
    assert verify_profile(witness, prof)
    assert len(calls) == 1


def random_profile(rng):
    n = rng.randint(2, 5)
    k = rng.randint(1, min(3, n - 1))
    iis = sorted(rng.sample(range(1, n), k))
    jjs = sorted(rng.sample(range(1, 7), k), reverse=True)
    bbs = [rng.randint(1, 5) for _ in range(k)]
    return ExtremalProfile(n, tuple(zip(iis, jjs, bbs)))


def test_soundness_random_profiles():
    rng = random.Random(20260810)
    built = 0
    while built < 40:
        prof = random_profile(rng)
        if not check_profile(prof).ok:
            continue
        ideal = nested_lex_ideal(prof)
        assert sb.is_strongly_stable(ideal)
        assert verify_profile(ideal, prof), prof
        # each corner's class holds the side's lhs, forced count plus b_p,
        # the size the witness gave its segment there
        matrix = sb.generator_matrix(ideal)
        for (i_p, j_p, _), side in zip(prof.triples, check_profile(prof).checks):
            assert matrix.row(j_p)[i_p] == side.lhs, (prof, side)
        built += 1


def test_corners_of_non_stable_ideals_pass_the_decision():
    # gin_revlex(I) has the extremal Betti numbers of I, in position and
    # value (Bayer-Charalambous-Popescu), and is strongly stable in
    # characteristic 0, so the corners of any monomial ideal's table form
    # a profile check_profile accepts; only a principal ideal has its
    # corner in column 0, which is no profile
    rng = random.Random(20261019)
    checked = 0
    while checked < 200:
        n = rng.randint(3, 4)
        gens = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 7))}
        gens.discard((0,) * n)
        if not gens:
            continue
        ideal = sb.minimalize(n, gens)
        if sb.is_stable(ideal):
            continue
        corners = sb.extremal_corners(sb.oracle_betti(ideal))
        if corners[0][0] == 0:
            assert len(ideal.gens) == 1, ideal
            continue
        assert check_profile(ExtremalProfile(n, tuple(corners))).ok, (ideal, corners)
        checked += 1


def nested_lex_by_ideal_sum(prof):
    """Reference: the witness as a fold of ideal sums of the subring
    lexsegments, each sum re-minimalized."""
    t = prof.triples
    i_k, j_k, b_k = t[-1]
    ideal = subring_lexsegment_ideal(i_k + 1, b_k, j_k, prof.n)
    forced = forced_counts(prof)
    for p in range(prof.k - 1, 0, -1):
        i_p, j_p, b_p = t[p - 1]
        part = subring_lexsegment_ideal(i_p + 1, forced[p] + b_p, j_p, prof.n)
        ideal = sb.minimalize(prof.n, ideal.gens + part.gens)
    return ideal


def test_nested_lex_matches_ideal_sum_fold():
    rng = random.Random(20261018)
    built = 0
    while built < 60:
        prof = random_profile(rng)
        if not check_profile(prof).ok:
            continue
        assert nested_lex_ideal(prof) == nested_lex_by_ideal_sum(prof), prof
        built += 1


def test_nested_lex_builds_one_ideal(monkeypatch):
    # the segments stay generator lists, and the witness is the one ideal
    built = []
    real = MonomialIdeal.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0])
        real(self, *args, **kwargs)

    monkeypatch.setattr(MonomialIdeal, "__init__", counting)
    rng = random.Random(20261019)
    several = 0
    while several < 10:
        prof = random_profile(rng)
        if not check_profile(prof).ok:
            continue
        built.clear()
        nested_lex_ideal(prof)
        assert len(built) == 1, prof
        several += prof.k > 1


def test_structure_is_nested_lexsegments():
    rng = random.Random(7)
    built = 0
    while built < 15:
        prof = random_profile(rng)
        if not check_profile(prof).ok:
            continue
        ideal = nested_lex_ideal(prof)
        degrees = {sum(g) for g in ideal.gens}
        assert degrees <= {j for _, j, _ in prof.triples}
        for (ip, jp, bp) in prof.triples:
            level = [g for g in ideal.gens if sum(g) == jp]
            assert all(max_index(g) <= ip + 1 for g in level)
            comp = component_ideal(ideal, jp)
            sub = restrict_to_subring(comp, ip + 1)
            assert sb.is_lexsegment(sub)
        built += 1


def test_growth_bound_used_by_the_decision():
    # growing a stable single-degree ideal multiplies its top-index count
    # at least as fast as the iterated prefix sums of any entrywise lower
    # vector
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 4)
        d = rng.randint(1, 3)
        ell = rng.randint(2, n)
        k = rng.randint(1, sb.binom(ell + d - 2, ell - 1))
        I = sb.subring_lexsegment_ideal(ell, k, d, n)
        mv = sb.count_vector(I)[:ell]
        q = rng.randint(0, 3)
        grown = sb.times_maximal(I, q)
        top = sum(1 for g in grown.gens if max_index(g) == ell)
        assert top == sb.GeneratorMatrix(ell, d, (mv,)).row(d + q)[-1]
        lower = tuple(max(0, x - rng.randint(0, 1)) for x in mv)
        assert sb.GeneratorMatrix(ell, d, (lower,)).row(d + q)[-1] <= top


@pytest.fixture(scope="module")
def realized_corners():
    """The extremal corners of every strongly stable ideal within each
    bound (n, dmax), one tuple per ideal, read off the generator counts:
    enumeration yields strongly stable ideals only."""
    return {
        (n, dmax): [
            tuple(extremal_corners(betti_from_counts(class_degree_counts(I.gens), n)))
            for I in sb.enumerate_strongly_stable(n, dmax)
        ]
        for n, dmax in ((3, 3), (3, 4), (4, 4))
    }


def test_completeness_small_scale(realized_corners):
    # realized corner sets over every strongly stable ideal within bounds
    # coincide with the numerically admissible profiles
    import itertools

    for n, dmax, bcap, ks in ((3, 3, 8, (1, 2)), (4, 4, 12, (1, 2, 3))):
        realized = set()
        for corners in realized_corners[n, dmax]:
            if all(j >= 1 for _, j, _ in corners):
                realized.add(corners)
        for k in ks:
            for iis in itertools.combinations(range(1, n), k):
                for jjs in itertools.combinations(range(dmax, 0, -1), k):
                    for bbs in itertools.product(range(1, bcap + 1), repeat=k):
                        prof = ExtremalProfile(n, tuple(zip(iis, jjs, bbs)))
                        expected = check_profile(prof).ok
                        assert (prof.triples in realized) == expected, prof


def test_every_realized_corner_set_is_admissible(realized_corners):
    # pure necessity sweep, no caps on values or corner counts
    for n, dmax in ((3, 4), (4, 4)):
        checked = 0
        for corners in realized_corners[n, dmax]:
            if any(i < 1 or j < 1 for i, j, _ in corners):
                continue  # column-0 and degree-0 corners sit outside the profile type
            prof = ExtremalProfile(n, corners)
            assert check_profile(prof).ok, (n, corners)
            checked += 1
        assert checked > 0


def test_chained_forcing_adjudication():
    # three corners whose chained forcing exceeds what the bottom value
    # alone suggests: the naive reading admits it, yet no ideal exists
    prof = ExtremalProfile(4, ((1, 4, 1), (2, 3, 1), (3, 2, 1)))
    assert not check_profile(prof).ok
    out = sb.search_extremal_profile(prof)
    assert out.found is None and out.note.startswith("no strongly stable ideal")
    # the naive forced count starts from the bottom value alone, as in the
    # two-corner profile: cumsum((1,1)) = 2, total 3 <= 4
    assert forced_counts(ExtremalProfile(4, prof.triples[:2]))[1] + 1 <= 4
    assert sb.forced_counts(prof)[1] + 1 > 4
