#!/usr/bin/env python3
"""Tabulate how many strongly stable ideals live within each (n, dmax)
bound.  The n=4, dmax=5 cell (683,462 ideals, --max-dmax 5) takes about
0.3 s on a 2-vCPU machine."""

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
