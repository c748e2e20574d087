#!/usr/bin/env python3
"""Reproduce the two adjudication experiments behind the extremal module.

First: the forced count for the two-corner example with bottom value 2.
The published worked example states 8; the operator definition and the
generator-counting route give 9, and certified exhaustive search shows
the profile that 8 would admit is not realizable.

Second: with three corners the forced counts chain.  The literal reading
of the feasibility condition (witness vectors from the corner values
alone) admits ((1,4,1),(2,3,1),(3,2,1)) in four variables, yet certified
search finds nothing; the cumulative reading implemented by
check_profile rejects it.
"""

import time

import stablebetti as sb


def experiment_one():
    print("== forced count for corners (2,4,b),(3,2,2) in n=4 ==")
    v = sb.witness_count_vector(sb.ExtremalProfile(4, ((2, 4, 1), (3, 2, 2))), 2)
    print(f"witness count vector: {v}")
    by_definition = sb.iterated_cumsum_last(v, 2)
    witness = sb.subring_lexsegment_ideal(4, 2, 2, 4)
    grown = sb.times_maximal(witness, 2)
    by_counting = sum(1 for g in grown.gens if sb.max_index(g) == 3)
    print(f"iterated prefix sums:      {by_definition}")
    print(f"generator counting:        {by_counting}")
    print("published value:           8")
    profile = sb.ExtremalProfile(4, ((2, 4, 2), (3, 2, 2)))
    verdict = sb.check_profile(profile)
    t0 = time.monotonic()
    outcome = sb.search_extremal_profile(profile)
    dt = time.monotonic() - t0
    print(f"condition verdict for b=2: {'pass' if verdict.ok else 'fail'}")
    print(
        f"certified search:          {'found' if outcome.ok else 'none'} "
        f"({outcome.examined} candidates, {dt:.2f}s)"
    )
    admissible = [
        b
        for b in range(1, 11)
        if sb.check_profile(sb.ExtremalProfile(4, ((2, 4, b), (3, 2, 2)))).ok
    ]
    print(f"admissible b for bottom value 2: {admissible}")
    print()


def experiment_two():
    print("== chained forcing at three corners ==")
    prof = sb.ExtremalProfile(4, ((1, 4, 1), (2, 3, 1), (3, 2, 1)))
    naive = sb.iterated_cumsum_last(sb.witness_count_vector(prof, 2), 1)
    print(f"profile: {prof.triples} in n={prof.n}")
    print(f"naive forced count at the top corner:      {naive} (total {naive + 1} <= 4)")
    forced = sb.forced_counts(prof)
    print(f"cumulative forced count at the top corner: {forced[1]} (total {forced[1] + 1} > 4)")
    verdict = sb.check_profile(prof)
    print(f"check_profile verdict: {'pass' if verdict.ok else 'fail'}")
    for n in (4, 5):
        probe = sb.ExtremalProfile(n, prof.triples)
        t0 = time.monotonic()
        outcome = sb.search_extremal_profile(probe)
        dt = time.monotonic() - t0
        print(
            f"certified search in n={n}: {'found' if outcome.ok else 'none'} "
            f"({outcome.examined} candidates, {dt:.2f}s)"
        )


if __name__ == "__main__":
    experiment_one()
    experiment_two()
