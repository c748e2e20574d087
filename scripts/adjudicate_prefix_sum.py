#!/usr/bin/env python3
"""Reproduce the two adjudication experiments behind the extremal module.

First: the forced count for the two-corner example with bottom value 2.
The published worked example states 8; the operator definition and the
generator-counting route give 9, and certified exhaustive search shows
the profile that 8 would admit is not realizable.

Second: with three corners the forced counts chain.  The literal reading
of the feasibility condition (each forced count from the value of the
corner below alone, as in a two-corner profile) admits
((1,4,1),(2,3,1),(3,2,1)) in four variables, yet certified search finds
nothing; the cumulative reading implemented by check_profile rejects it.
"""

import time

import stablebetti as sb


def experiment_one():
    print("== forced count for corners (2,4,b),(3,2,2) in n=4 ==")
    witness = sb.subring_lexsegment_ideal(4, 2, 2, 4)
    print(f"witness count vector: {sb.count_vector(witness)[:3]}")
    by_definition = sb.forced_counts(sb.ExtremalProfile(4, ((2, 4, 1), (3, 2, 2))))[1]
    grown = sb.times_maximal(witness, 2)
    by_counting = sb.count_vector(grown)[2]
    print(f"iterated prefix sums:      {by_definition}")
    print(f"generator counting:        {by_counting}")
    print("published value:           8")
    profile = sb.ExtremalProfile(4, ((2, 4, 2), (3, 2, 2)))
    verdict = sb.check_profile(profile)
    t0 = time.monotonic()
    outcome = sb.search_extremal_profile(profile)
    dt = time.monotonic() - t0
    print(f"condition verdict for b=2: {'pass' if verdict.ok else 'fail'}")
    print(f"certified search:          {'found' if outcome.ok else 'none'} ({dt:.2f}s)")
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
    # a two-corner profile's forced count starts from the bottom value alone
    naive = sb.forced_counts(sb.ExtremalProfile(prof.n, prof.triples[:2]))[1]
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
        print(f"certified search in n={n}: {'found' if outcome.ok else 'none'} ({dt:.2f}s)")


if __name__ == "__main__":
    experiment_one()
    experiment_two()
