"""The four benchmark workloads.

Each workload turns a seed into inputs, runs them against the public
library in blocks of requests, times only the library calls, and checks
every output outside the timed interval.  A block has a fixed make-up
(the seed picks the inputs inside it and their order), and a run always
ends on a block boundary, so the mix behind every metric is the same
from seed to seed.  Every block starts with an empty macaulay_rep cache,
the library's one cache, and its outputs are checked only after its last
timed call, so no check warms the cache for a timed call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import sys
import traceback
from array import array
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace

import stablebetti as sb
from stablebetti import cli, formats, macaulay

# The library's one cache, taken before a traced run replaces the name.
MACAULAY_REP = macaulay.macaulay_rep

# Explicit budget for bounds past the library's default enumeration caps.
ENUM_BUDGET = 10**7

# Totals of count_strongly_stable(n, dmax), recorded from the library and
# cross-checked against len(list(enumerate_strongly_stable(n, dmax))).
RECORDED_TOTALS = {
    (2, 5): 62, (2, 6): 126, (2, 10): 2046,
    (3, 3): 64, (3, 4): 350,
    (4, 2): 30, (4, 3): 350,
    (5, 3): 2429,
}


@dataclass
class Outcome:
    """What one request produced: its result count, the timed seconds,
    the time to its first result, one latency per singly timed result,
    how many results failed their checks, and the output still to be
    checked."""

    items: int
    work_s: float
    first_s: float
    latencies: array
    failed: int
    output: object = None


class Workload:
    name = ""
    # How many blocks a run takes; it replays them in rounds until its time
    # is up.  The machine's speed changes from second to second, so the
    # more rounds of short requests, the surer the least time of each
    # request comes from a fast moment; the more blocks, the less the seed
    # moves the mix.
    BLOCKS = 1

    def __init__(self, seed, workdir, tiny=False):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.tiny = tiny
        # replaced by a Tracer in the traced phase; only .active is used here
        self.tracer = SimpleNamespace(active=False)

    def warm_up(self):
        """Untimed first calls that fill the library's lazy tables."""

    def blocks(self):
        """Endless stream of request blocks."""
        raise NotImplementedError

    def run_blocks(self):
        """The blocks a run takes: the first BLOCKS, or one at tiny size."""
        return list(itertools.islice(self.blocks(), 1 if self.tiny else self.BLOCKS))

    def execute(self, req) -> Outcome:
        raise NotImplementedError

    def check(self, req, outcome) -> bool:
        """Whether outcome.output is right; runs after the block's last
        timed call."""
        return True

    def run_block(self, block):
        """Run block from an empty macaulay_rep cache, then check its
        outputs.  Sets cache_hits to the cache hits of the timed calls."""
        MACAULAY_REP.cache_clear()
        hits = MACAULAY_REP.cache_info().hits
        outcomes = [self.execute(req) for req in block]
        self.cache_hits = MACAULAY_REP.cache_info().hits - hits
        for req, o in zip(block, outcomes):
            if o.output is not None:
                if not self.check(req, o):
                    o.failed = o.items
                o.output = None
        return outcomes

    def is_largest(self, req) -> bool:
        """Whether req counts towards first_item_s."""
        return True

    def layer_counts(self, req, outcome) -> dict:
        """Per-layer counts derived from a request and its untraced outcome
        (traced run only)."""
        return {}

    def _timed(self, fn, *args, **kwargs):
        tr = self.tracer
        tr.active = True
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            tr.active = False
        return out, dt


def _single(dt, output):
    return Outcome(1, dt, dt, array("d", [dt]), 0, output)


def _error():
    return Outcome(1, 0.0, 0.0, array("d", [0.0]), 1)


def _report(req):
    """Print the exception being handled, which fails req."""
    print(f"bench: {req!r} raised", file=sys.__stderr__)
    traceback.print_exc(file=sys.__stderr__)


def _fill_layers(n, dmax):
    # random_strongly_stable builds and links every degree layer up to dmax
    sb.random_strongly_stable(n, dmax, random.Random(0))


# ---------------------------------------------------------------- oracle

def _minimal(gens):
    kept = []
    for g in sorted(set(gens), key=sum):
        if not any(all(a <= b for a, b in zip(h, g)) for h in kept):
            kept.append(g)
    return kept


def hilbert_numerator(gens):
    """Numerator K(t) of the Hilbert series K(t)/(1-t)^n of S/I, as a
    map degree -> coefficient, by the pivot recursion
    K(I) = K(I + x_t) + t K(I : x_t).  Independent of the library."""
    memo = {}

    def rec(gs):
        gs = tuple(sorted(_minimal(gs)))
        if gs in memo:
            return memo[gs]
        if not gs:
            res = {0: 1}
        elif not any(gs[0]):
            res = {}  # unit ideal
        else:
            uses = [sum(1 for g in gs if g[t]) for t in range(len(gs[0]))]
            t = max(range(len(uses)), key=uses.__getitem__)
            if uses[t] <= 1:
                # pairwise coprime generators: product of (1 - t^deg g)
                res = {0: 1}
                for g in gs:
                    res = _poly_add(res, res, sum(g), -1)
            else:
                x = tuple(int(s == t) for s in range(len(gs[0])))
                plus = [g for g in gs if not g[t]] + [x]
                colon = [g[:t] + (max(g[t] - 1, 0),) + g[t + 1:] for g in gs]
                res = _poly_add(rec(plus), rec(colon), 1, 1)
        memo[gs] = res
        return res

    return rec(list(gens))


def _poly_add(p, q, shift, sign):
    out = dict(p)
    for d, c in q.items():
        out[d + shift] = out.get(d + shift, 0) + sign * c
    return {d: c for d, c in out.items() if c}


def k_polynomial(table):
    """K-polynomial of S/I from the Betti table of I."""
    k = {0: 1}
    for (i, j), b in table.entries.items():
        k[j] = k.get(j, 0) + (-1) ** (i + 1) * b
    return {d: c for d, c in k.items() if c}


def lcm_lattice_size(gens):
    """Number of distinct lcms of nonempty subsets of gens, by frontier
    closure."""
    seen = set(gens)
    frontier = list(seen)
    while frontier:
        new = set()
        for a in frontier:
            for g in gens:
                m = tuple(map(max, a, g))
                if m not in seen:
                    new.add(m)
        seen |= new
        frontier = list(new)
    return len(seen)


class OracleCorpus(Workload):
    """oracle_betti on random monomial ideals in 4-5 variables with
    exponents <= 4: half non-stable, half random_strongly_stable."""

    name = "oracle-corpus"
    # 560 items, so that 28 lie beyond p95, in rounds of about 5 s
    BLOCKS = 20
    # A block draws one non-stable ideal for each (n, generator count) pair
    # and one stable ideal for each n, seven times: the natural draw,
    # stratified on its own parameters.  Oracle time is heavy-tailed in
    # both (n = 5 with nine generators costs ~50x n = 4 with three), so
    # fixing their mix per block takes most of the seed-to-seed spread out
    # of every metric.
    NS = (4, 5)
    GEN_COUNTS = range(3, 10)
    # Non-stable outputs with few divisors are also checked against
    # hilbert_function degree by degree.  That costs ~20x the oracle call,
    # so only on the first few.
    HILBERT_CHECKS = 4
    HILBERT_MAX_DIVISORS = 300

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.hilbert_left = 1 if tiny else self.HILBERT_CHECKS

    def warm_up(self):
        for n in (4, 5):
            _fill_layers(n, 4)
        I = sb.MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 1)])
        sb.oracle_betti(I)
        sb.ek_betti(sb.MonomialIdeal(2, [(1, 0), (0, 1)]))

    def _non_stable(self, n, count):
        """count random exponent vectors in n variables, minimalized;
        redrawn until the ideal is not stable."""
        rng = self.rng
        while True:
            gens = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(count)]
            gens = [g for g in gens if any(g)]
            if gens:
                I = sb.minimalize(n, gens)
                if not sb.is_stable(I):
                    return I

    def blocks(self):
        rng = self.rng
        while True:
            block = [("non_stable", self._non_stable(n, count))
                     for n in self.NS for count in self.GEN_COUNTS]
            block += [("stable", sb.random_strongly_stable(n, 4, rng))
                      for n in self.NS for _ in self.GEN_COUNTS]
            rng.shuffle(block)
            yield block

    def execute(self, req):
        try:
            table, dt = self._timed(sb.oracle_betti, req[1])
        except Exception:
            _report(req)
            return _error()
        return _single(dt, table)

    def check(self, req, outcome):
        kind, I = req
        table = outcome.output
        kpoly = k_polynomial(table)
        if kpoly != hilbert_numerator(I.gens):
            return False
        if kind == "stable":
            return sb.ek_betti(I) == table
        if self.hilbert_left > 0 and _divisors(I.gens) <= self.HILBERT_MAX_DIVISORS:
            self.hilbert_left -= 1
            top = max(j for (_, j) in table.entries) + I.n
            for d in range(top + 1):
                hf = sum(c * math.comb(I.n - 1 + d - j, I.n - 1) for j, c in kpoly.items() if j <= d)
                if hf != sb.hilbert_function(I, d):
                    return False
        return True

    def layer_counts(self, req, outcome):
        kind, I = req
        return {f"oracle.{kind}.items": 1,
                f"oracle.{kind}.multidegrees": _divisors(I.gens),
                f"oracle.{kind}.lcm_lattice": lcm_lattice_size(I.gens),
                f"oracle.{kind}.s": outcome.work_s}


def _divisors(gens):
    """Number of monomials dividing the lcm of gens."""
    out = 1
    for t in range(len(gens[0])):
        out *= 1 + max(g[t] for g in gens)
    return out


# ----------------------------------------------------------- enumeration

def canonical_key(gens):
    """The order enumerate_strongly_stable promises: maximal generator
    degree, then the generator list read by ascending degree and, inside
    a degree, descending deglex."""
    ordered = sorted(gens, key=lambda g: (sum(g), [-e for e in g]))
    return (sum(ordered[-1]), tuple((sum(g), g) for g in ordered))


# Bounds of the two chain-walk workloads: 4,825 ideals, about 0.7 s to
# enumerate, so a run holds many rounds.  (5, 3) is the largest and gives
# first_item_s; it and (2, 10) are past the default enumeration caps.
STREAM_BOUNDS = ((5, 3), (2, 10), (4, 3))


class _BoundsWorkload(Workload):
    """A block is every bound once, in seeded order."""

    BOUNDS = ()
    TINY_BOUNDS = ()

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.bounds = self.TINY_BOUNDS if tiny else self.BOUNDS
        self.largest = max(self.bounds, key=RECORDED_TOTALS.__getitem__)

    def warm_up(self):
        for n, dmax in self.bounds:
            _fill_layers(n, dmax)

    def blocks(self):
        while True:
            block = list(self.bounds)
            self.rng.shuffle(block)
            yield block

    def is_largest(self, req):
        return req == self.largest


class EnumerateStream(_BoundsWorkload):
    """Consume enumerate_strongly_stable completely over each bound."""

    name = "enumerate-stream"
    BOUNDS = STREAM_BOUNDS
    TINY_BOUNDS = ((3, 3), (2, 6))

    def blocks(self):
        # count_strongly_stable per bound, for the check
        self.expected = {b: sb.count_strongly_stable(*b, budget=ENUM_BUDGET) for b in self.bounds}
        yield from super().blocks()

    def execute(self, req):
        n, dmax = req
        tr = self.tracer
        gaps = array("d")
        work = 0.0
        bad = 0
        prev = None
        try:
            stream = sb.enumerate_strongly_stable(n, dmax, budget=ENUM_BUDGET)
            while True:
                tr.active = True
                t0 = perf_counter()
                try:
                    ideal = next(stream)
                except StopIteration:
                    work += perf_counter() - t0
                    break
                finally:
                    tr.active = False
                dt = perf_counter() - t0
                gaps.append(dt)
                work += dt
                # pure benchmark code, so checking in the loop reads no cache
                key = canonical_key(ideal.gens)
                if prev is not None and not prev < key:
                    bad += 1
                prev = key
        except Exception:
            _report(req)
            return Outcome(max(len(gaps), 1), work, work, gaps or array("d", [work]),
                           max(len(gaps), 1))
        failed = len(gaps) if len(gaps) != self.expected[req] or bad else 0
        first = gaps[0] if gaps else work
        return Outcome(len(gaps), work, first, gaps, failed)


class WalkCount(_BoundsWorkload):
    """count_strongly_stable over bounds with recorded totals, most of
    them past the default enumeration caps."""

    name = "walk-count"
    # The bounds of enumerate-stream, so that the ratio of the two
    # items_per_s compares enumeration with counting on the same chains.
    # Call latencies about 3, 30 and 45 ms, so the median call is the one
    # on (2, 10).
    BOUNDS = STREAM_BOUNDS
    TINY_BOUNDS = ((3, 3), (2, 6), (4, 2))

    def execute(self, req):
        n, dmax = req
        expected = RECORDED_TOTALS[req]
        try:
            total, dt = self._timed(sb.count_strongly_stable, n, dmax, budget=ENUM_BUDGET)
        except Exception:
            _report(req)
            return Outcome(expected, 0.0, 0.0, array("d", [0.0]), expected)
        failed = 0 if total == expected else max(total, 1)
        return Outcome(max(total, 1), dt, dt, array("d", [dt]), failed)


# ------------------------------------------------------------ query mix

def macaulay_terms(a, d):
    """d-th Macaulay representation of a as (k, i) pairs, by bisection on
    math.comb; independent of the library."""
    terms = []
    for i in range(d, 0, -1):
        lo, hi = i - 1, i
        while math.comb(hi, i) <= a:
            hi *= 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if math.comb(mid, i) <= a:
                lo = mid
            else:
                hi = mid
        terms.append((lo, i))
        a -= math.comb(lo, i)
    return terms


def is_o_sequence(m):
    """m_1 = 1 and m_{t+1} <= m_t^<t-1> for t >= 2, as cli 'macaulay oseq'
    documents it."""
    if m[0] != 1:
        return False
    for t in range(2, len(m)):
        bound = sum(math.comb(k + 1, i + 1) for k, i in macaulay_terms(m[t - 1], t - 1))
        if m[t] > bound:
            return False
    return True


def lex_realizable(M):
    """Whether some lexsegment ideal has the matrix of generators M,
    decided independently of the library.  Row j of M counts the degree-j
    monomials of the ideal by max index, so a lexsegment ideal has as
    its degree-j part the top sum(row j) monomials of degree j.  Take
    those parts, and test that they have the counts of M and that each
    one times a variable lies in the next."""
    n, prev = M.n, set()
    for j in range(M.jmin, M.jmin + len(M.rows)):
        row = M.row(j)
        mons = sorted((u for u in itertools.product(range(j + 1), repeat=n) if sum(u) == j),
                      reverse=True)
        if sum(row) > len(mons):
            return False
        part = set(mons[: sum(row)])
        counts = [0] * n
        for u in part:
            counts[max(t for t in range(n) if u[t])] += 1
        if tuple(counts) != tuple(row):
            return False
        for u in prev:
            for t in range(n):
                if u[:t] + (u[t] + 1,) + u[t + 1:] not in part:
                    return False
        prev = part
    return True


def _profile_text(triples):
    return ";".join(f"{i},{j},{b}" for i, j, b in triples)


class QueryMix(Workload):
    """A closed loop with one client calling stablebetti.cli.main(argv)
    in-process, output captured, over a seeded mix of queries."""

    name = "query-mix"
    # Each stratified kind has a number of strata that divides BLOCKS, so
    # a run holds whole cycles of them and the same mix for every seed.
    BLOCKS = 15
    # block make-up: query kind -> how many per block
    BLOCK = (
        ("macaulay-rep", 2), ("macaulay-rep-d2", 1), ("macaulay-oseq", 2),
        ("check-matrix", 2), ("realize-matrix", 1),
        ("construct-piecewise-lex", 1), ("construct-murai", 1),
        ("construct-u-ideal", 1), ("construct-lexsegment", 1),
        ("extremal-check", 2), ("extremal-construct", 1),
        ("betti-both", 2), ("search-profile", 2), ("search-matrix", 1),
        ("enumerate-count", 1), ("verify-paper", 1),
    )
    # within the default enumeration caps, which the CLI applies
    ENUM_BOUNDS = ((2, 5), (3, 3), (3, 4), (4, 2), (4, 3))
    POOL = 12  # ideal files and matrix files written at set-up
    # Size caps that keep every query under about a second.  A profile
    # search with n + j_1 > 9 walks for up to 20 s, and a witness with
    # more than 300 monomials in its largest lexsegment takes seconds; 150
    # keeps the slowest under a quarter second, so the tail stays in p95.
    SEARCH_SIZE = 9
    WITNESS_SIZE = 150
    # (n, corner count) of the extremal construct queries
    CONSTRUCT_STRATA = tuple((n, k) for n in range(4, 9) for k in (1, 2, 3))

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        rng = self.rng
        self.strata = {}  # query kind -> strata left in its current cycle
        self.ideal_files = []
        self.matrix_files = []
        for t in range(self.POOL):
            I = sb.random_strongly_stable(rng.choice((3, 4, 5)), rng.choice((3, 4)), rng)
            path = os.path.join(workdir, f"ideal{t}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(formats.format_ideal(I))
            self.ideal_files.append(path)
            J = sb.random_strongly_stable(rng.choice((3, 4)), rng.choice((3, 4)), rng)
            M = sb.generator_matrix(J)
            path = os.path.join(workdir, f"matrix{t}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(formats.format_matrix(M))
            self.matrix_files.append((path, M))
        self.lex_verdicts = {}  # matrix file -> lex_realizable, filled at generation
        self.warm_ideal = os.path.join(workdir, "warm_ideal.txt")
        with open(self.warm_ideal, "w", encoding="utf-8") as fh:
            fh.write("n=3\n2 0 0\n1 1 0\n1 0 1\n0 2 0\n")
        self.warm_matrix = os.path.join(workdir, "warm_matrix.txt")
        with open(self.warm_matrix, "w", encoding="utf-8") as fh:
            fh.write("n=3 jmin=2\n1 2 3\n")

    def warm_up(self):
        for n in range(2, 6):
            _fill_layers(n, 6)
        for argv in (
            ["macaulay", "rep", "1000", "3", "--json"],
            ["macaulay", "oseq", "1,3,6"],
            ["check-matrix", self.warm_matrix],
            ["realize-matrix", self.warm_matrix],
            ["construct", "lexsegment", "--n", "3", "--d", "2", "--mu", "3"],
            ["extremal", "construct", "--profile", "1,3,1", "--n", "3"],
            ["betti", self.warm_ideal, "--method", "both"],
            ["search", "profile", "--profile", "1,2,1", "--n", "3"],
            ["search", "matrix", self.warm_matrix],
            ["enumerate", "--n", "2", "--dmax", "3", "--count-only"],
            ["verify-paper"],
        ):
            self._call(argv)

    # --- inputs

    def _stratum(self, kind, strata):
        """The next of strata for kind.  Each comes once per cycle of
        len(strata) draws, in seeded order: the uniform draw, with the
        count of each stratum fixed.  Used for the kinds whose latency
        depends most on the draw, so the seed moves the tail less."""
        left = self.strata.setdefault(kind, [])
        if not left:
            left += self.rng.sample(strata, len(strata))
        return left.pop()

    def _profile(self, n, jmax, kmax, bmax, k=None):
        """k corners (random if None, at most kmax) in n variables, with
        degrees <= jmax and values <= bmax."""
        rng = self.rng
        k = k or rng.randint(1, min(kmax, n - 1, jmax))
        iis = sorted(rng.sample(range(1, n), k))
        jjs = sorted(rng.sample(range(1, jmax + 1), k), reverse=True)
        return tuple((i, j, rng.randint(1, bmax)) for i, j in zip(iis, jjs))

    def _feasible_profile(self):
        # Construction time grows with n and most with the corner count k,
        # from about 6 ms at k = 1 up to 0.35 s at n = 8, k = 3.  So (n, k)
        # is drawn by strata, and the seed changes only the profiles inside.
        n, k = self._stratum("extremal-construct", self.CONSTRUCT_STRATA)
        while True:
            triples = self._profile(n, 8, 3, 10, k)
            # the witness is built from degree-j lexsegments in i+1 variables
            if max(math.comb(i + j, j) for i, j, _ in triples) > self.WITNESS_SIZE:
                continue
            if sb.check_profile(sb.ExtremalProfile(n, triples)).ok:
                return n, triples

    def _query(self, kind):
        rng = self.rng
        if kind == "macaulay-rep":
            a, d = int(10 ** rng.uniform(0, 12)), rng.randint(3, 8)
            return ["macaulay", "rep", str(a), str(d), "--json"], (a, d)
        if kind == "macaulay-rep-d2":
            # the greedy scan is linear in the top coefficient, ~sqrt(2a)
            low = self._stratum(kind, (8.0, 8.4, 8.8, 9.2, 9.6))
            a = int(10 ** rng.uniform(low, low + 0.4))
            return ["macaulay", "rep", str(a), "2", "--json"], (a, 2)
        if kind == "macaulay-oseq":
            m = [1, rng.randint(1, 6)]
            for _ in range(rng.randint(1, 5)):
                m.append(rng.randint(0, 3 * m[-1] + 1))
            return ["macaulay", "oseq", ",".join(map(str, m))], tuple(m)
        if kind == "check-matrix":
            path, M = rng.choice(self.matrix_files)
            if rng.random() < 0.5:
                # every matrix comes from a strongly stable ideal, so it
                # meets the necessary conditions
                return ["check-matrix", path], True
            if path not in self.lex_verdicts:
                self.lex_verdicts[path] = lex_realizable(M)
            return ["check-matrix", path, "--lex"], self.lex_verdicts[path]
        if kind == "realize-matrix":
            path, M = rng.choice(self.matrix_files)
            return ["realize-matrix", path], M
        if kind == "construct-piecewise-lex":
            n, d = rng.randint(2, 5), rng.randint(2, 6)
            counts = [rng.randint(0, min(6, math.comb(i + d - 2, d - 1))) for i in range(1, n + 1)]
            if not any(counts):
                counts[0] = 1
            return ["construct", "piecewise-lex", "--d", str(d),
                    "--counts", ",".join(map(str, counts))], None
        if kind == "construct-murai":
            counts = [1] + [rng.randint(1, 5) for _ in range(rng.randint(1, 5))]
            return ["construct", "murai", "--counts", ",".join(map(str, counts))], tuple(counts)
        if kind == "construct-u-ideal":
            while True:
                n = rng.randint(2, 6)
                ell, d = rng.randint(1, n), rng.randint(1, 8)
                if math.comb(ell + d - 1, d) <= self.WITNESS_SIZE:
                    break
            k = rng.randint(1, math.comb(ell + d - 2, d - 1))
            return ["construct", "u-ideal", "--n", str(n), "--ell", str(ell),
                    "--k", str(k), "--d", str(d)], None
        if kind == "construct-lexsegment":
            n, d = rng.randint(2, 5), rng.randint(1, 6)
            mu = rng.randint(1, min(60, math.comb(n + d - 1, d)))
            return ["construct", "lexsegment", "--n", str(n), "--d", str(d),
                    "--mu", str(mu)], mu
        if kind == "extremal-check":
            n = rng.randint(4, 8)
            triples = self._profile(n, 8, 3, 10)
            verdict = sb.check_profile(sb.ExtremalProfile(n, triples)).ok
            return ["extremal", "check", "--profile", _profile_text(triples),
                    "--n", str(n)], verdict
        if kind == "extremal-construct":
            n, triples = self._feasible_profile()
            return ["extremal", "construct", "--profile", _profile_text(triples),
                    "--n", str(n)], (n, triples)
        if kind == "betti-both":
            return ["betti", rng.choice(self.ideal_files), "--method", "both"], None
        if kind == "search-profile":
            n = rng.randint(3, 5)
            triples = self._profile(n, min(5, self.SEARCH_SIZE - n), 2, 4)
            verdict = sb.check_profile(sb.ExtremalProfile(n, triples)).ok
            return ["search", "profile", "--profile", _profile_text(triples),
                    "--n", str(n)], verdict
        if kind == "search-matrix":
            path, M = rng.choice(self.matrix_files)
            return ["search", "matrix", path], M
        if kind == "enumerate-count":
            n, dmax = self._stratum(kind, self.ENUM_BOUNDS)
            return ["enumerate", "--n", str(n), "--dmax", str(dmax), "--count-only"], (n, dmax)
        if kind == "verify-paper":
            return ["verify-paper"], None
        raise ValueError(kind)

    def blocks(self):
        while True:
            block = [(kind,) + tuple(self._query(kind))
                     for kind, count in self.BLOCK for _ in range(count)]
            self.rng.shuffle(block)
            yield block

    # --- running and checking

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        tr = self.tracer
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            tr.active = True
            t0 = perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                _report(argv)
                rc = None
            dt = perf_counter() - t0
            tr.active = False
        return rc, dt, out.getvalue()

    def execute(self, req):
        rc, dt, out = self._call(req[1])
        return _single(dt, (rc, out))

    def check(self, req, outcome):
        kind, _, expect = req
        rc, out = outcome.output
        try:
            return rc in (0, 1) and self._check(kind, rc, out, expect)
        except Exception:
            _report(req)
            return False

    def _check(self, kind, rc, out, expect):
        """Whether a query's exit code and output are right.  Verdicts that
        need the library were taken when the query was generated."""
        if kind in ("macaulay-rep", "macaulay-rep-d2"):
            a, d = expect
            rep = json.loads(out)
            ks = rep["ks"]
            return (rc == 0 and rep["a"] == a and len(ks) == d
                    and all(x > y for x, y in zip(ks, ks[1:])) and ks[-1] >= 0
                    and sum(math.comb(k, i) for k, i in zip(ks, range(d, 0, -1))) == a)
        if kind == "macaulay-oseq":
            verdict = is_o_sequence(expect)
            return rc == (0 if verdict else 1) and out.strip() == ("true" if verdict else "false")
        if kind in ("check-matrix", "extremal-check", "search-profile"):
            if kind == "check-matrix" and not out.strip().endswith("pass" if rc == 0 else "fail"):
                return False
            return rc == (0 if expect else 1)
        if kind in ("realize-matrix", "search-matrix"):
            if rc != 0:
                # the matrix comes from a real ideal, so search must find one;
                # the greedy realizer may fail from four variables on
                return kind == "realize-matrix" and expect.n >= 4
            return sb.generator_matrix(formats.parse_ideal_text(out)) == expect
        if kind.startswith("construct-"):
            if rc != 0:
                return False
            I = formats.parse_ideal_text(out)
            if kind == "construct-murai":
                return sb.count_vector(I) == expect and sb.is_strongly_stable(I)
            if kind == "construct-lexsegment":
                return len(I.gens) == expect and sb.is_lexsegment(I)
            return True
        if kind == "extremal-construct":
            n, triples = expect
            return rc == 0 and sb.verify_profile(formats.parse_ideal_text(out), sb.ExtremalProfile(n, triples))
        if kind == "enumerate-count":
            return rc == 0 and int(out) == RECORDED_TOTALS[expect]
        # betti-both, verify-paper
        return rc == 0


WORKLOADS = {w.name: w for w in (OracleCorpus, EnumerateStream, WalkCount, QueryMix)}
