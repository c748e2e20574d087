#!/usr/bin/env python3
"""stablebetti benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check

Run from the root of a checkout: the library is imported from ./src.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
machine context and sample counts.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of a traced run.  The exit code
is nonzero when any output fails its check.  See bench/README.md for the
workloads and the definition of every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from array import array
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# Set-up probes: SETUP_PROBES at each of SETUP_POINTS points spread over
# the run, so that they sample the machine at several points of it.
SETUP_PROBES = 2
SETUP_POINTS = 6
# Every request runs once per round and its time per result is the least
# over the rounds, of which there are at least MIN_ROUNDS.
MIN_ROUNDS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("first_item_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "fraction"),
)

# Traced layers: span name -> (module, attribute) of each function behind it.
TRACED = (
    ("oracle.oracle_betti", (("oracle", "oracle_betti"),)),
    ("betti.ek_betti", (("betti", "ek_betti"),)),
    ("ideals.MonomialIdeal", ()),  # __init__, wrapped on the class
    ("ideals.minimalize", (("ideals", "minimalize"),)),
    ("ideals.is_strongly_stable", (("ideals", "is_strongly_stable"),)),
    ("enumeration.enumerate", (("enumeration", "enumerate_strongly_stable"),)),
    ("enumeration.count", (("enumeration", "count_strongly_stable"),)),
    ("enumeration.search", (("enumeration", "search_extremal_profile"),
                            ("enumeration", "search_matrix"))),
    ("macaulay.macaulay_rep", (("macaulay", "macaulay_rep"),)),
    ("macaulay.macaulay_shift", (("macaulay", "macaulay_shift"),)),
    ("macaulay.is_o_sequence", (("macaulay", "is_o_sequence"),)),
    ("extremal.check_profile", (("extremal", "check_profile"),)),
    ("extremal.nested_lex_ideal", (("extremal", "nested_lex_ideal"),)),
    ("extremal.verify_profile", (("extremal", "verify_profile"),)),
) + tuple(
    (f"constructions.{fn}", (("constructions", fn),))
    for fn in (
        "piecewise_lexsegment", "strongly_stable_with_counts", "subring_lexsegment_ideal",
        "lexsegment_ideal", "check_matrix_necessary", "check_matrix_lexsegment",
        "realize_matrix_greedy",
    )
) + (
    ("monomials.enumerate_degree", (("monomials", "enumerate_degree"),)),
    ("cli.main", (("cli", "main"),)),
) + tuple(
    (f"formats.{fn}", (("formats", fn),))
    for fn in ("parse_ideal_text", "format_ideal", "parse_matrix_text", "format_matrix",
               "parse_profile")
) + (
    ("verify.run_fixtures", (("verify", "run_fixtures"),)),
)

# the two halves of the oracle-corpus items
HALVES = ("stable", "non_stable")

MODULES = ("oracle", "betti", "ideals", "enumeration", "macaulay", "extremal",
           "constructions", "monomials", "cli", "formats", "verify")


def per_layer_names():
    """(name, unit) of every per-layer metric, in output order."""
    out = []
    for span, _ in TRACED:
        out += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    out += [
        ("enumeration.search.examined", "count"),
        ("macaulay.macaulay_rep.cache_hits", "count"),
        ("oracle.multidegrees", "count"),
        ("oracle.lcm_lattice", "count"),
        ("oracle.lattice_ratio", "ratio"),
        ("oracle.us_per_multidegree", "us"),
    ]
    for half in HALVES:
        out += [(f"oracle.{half}.multidegrees_per_item", "count"),
                (f"oracle.{half}.lcm_lattice_per_item", "count"),
                (f"oracle.{half}.ms_per_item", "ms")]
    out += [(f"{m}.self_share", "fraction") for m in MODULES]
    out += [("untraced.self_share", "fraction"), ("trace.overhead_frac", "fraction")]
    return out


def load_library():
    """Import stablebetti from the checkout's src, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "stablebetti", "__init__.py")):
        print(f"bench: no library at {SRC}; run from the root of a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import stablebetti

    if not os.path.abspath(stablebetti.__file__).startswith(SRC + os.sep):
        print(f"bench: imported stablebetti from {stablebetti.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def make_workload(name, seed, workdir, tiny):
    from workloads import WORKLOADS

    w = WORKLOADS[name](seed, workdir, tiny)
    w.warm_up()
    return w


class Phase:
    """Outcomes of the requests run in one round."""

    def __init__(self):
        self.requests = []
        self.outcomes = []

    def run(self, w, block):
        outcomes = w.run_block(block)
        self.requests += block
        self.outcomes += outcomes
        return outcomes

    @property
    def work_s(self):
        return sum(o.work_s for o in self.outcomes)


def measure(w, seconds, probe):
    """Take the workload's blocks for a run and run all of them, round
    after round, until the run's wall time comes closest to seconds.
    Every block starts with an empty macaulay_rep cache.  probe() runs
    before the first round and each time the wall time passes another
    1/SETUP_POINTS of seconds.  Returns one Phase per round."""
    blocks = w.run_blocks()
    rounds = []
    probes = 0
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        # stop once one more round would overshoot by more than we fall short
        if len(rounds) >= MIN_ROUNDS and elapsed + round_s / 2 >= seconds:
            return rounds
        if probes < SETUP_POINTS and elapsed >= probes * seconds / SETUP_POINTS:
            probe()
            probes += 1
        # every round starts from the same collector state
        gc.collect()
        t0 = perf_counter()
        phase = Phase()
        for block in blocks:
            phase.run(w, block)
        rounds.append(phase)
        round_s = perf_counter() - t0


def least(outcomes):
    """One request over the rounds: the least of its timings, result by
    result, and the failures of every round."""
    lat = outcomes[0].latencies
    for o in outcomes[1:]:
        if len(o.latencies) == len(lat):
            lat = array("d", map(min, lat, o.latencies))
    return SimpleNamespace(
        items=outcomes[0].items,
        work_s=sum(lat),
        first_s=min(o.first_s for o in outcomes),
        latencies=lat,
        failed=sum(o.failed for o in outcomes),
    )


def setup_seconds(name, seed, tiny, probes, times):
    """Append to times the wall times of fresh interpreters that import
    the library and set the workload up, warm-up included."""
    for _ in range(probes):
        argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
                "--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
        t0 = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.decode()[-2000:]}")


def end_to_end(w, rounds, setup_s):
    requests = rounds[0].requests
    outcomes = [least(group) for group in zip(*(r.outcomes for r in rounds))]
    lat = sorted(x for o in outcomes for x in o.latencies)
    items = sum(o.items for o in outcomes)
    attempted = items * len(rounds)
    failed = sum(o.failed for o in outcomes)
    work = sum(o.work_s for o in outcomes)
    firsts = [o.first_s for r, o in zip(requests, outcomes) if w.is_largest(r)]
    p95 = statistics.quantiles(lat, n=20, method="inclusive")[18] if len(lat) > 1 else lat[0]
    metrics = {
        "setup_s": setup_s,
        "items_per_s": items / work,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p95_ms": p95 * 1e3,
        "first_item_s": statistics.median(firsts),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (attempted - failed) / attempted,
    }
    samples = {"latency": len(lat), "beyond_p95": sum(1 for x in lat if x > p95),
               "first_item": len(firsts), "requests": len(requests), "rounds": len(rounds)}
    return metrics, attempted, failed, samples


def counting_examined(tracer, search):
    """search, adding the candidates each traced call examined to the
    tracer's counts."""
    def counted(*args, **kwargs):
        outcome = search(*args, **kwargs)
        if tracer.active:
            tracer.counts["enumeration.search.examined"] += outcome.examined
        return outcome

    return counted


def traced_run(w, name, seconds, seed):
    """Run the workload's blocks in rounds, as the untraced run does,
    until the wall time comes closest to seconds.  Each block runs
    twice, first untraced and then under the tracer.  The
    per-layer metrics come from the traced runs, per round; running the
    pairs back to back keeps the overhead estimate clear of the machine's
    slower and faster spells."""
    import stablebetti
    from stablebetti import ideals
    from tracer import Tracer

    tracer = Tracer()
    mods = {m: getattr(stablebetti, m) for m in MODULES}
    targets = []
    for span, attrs in TRACED:
        for mod, attr in attrs:
            fn = getattr(mods[mod], attr)
            impl = counting_examined(tracer, fn) if span == "enumeration.search" else fn
            targets.append((span, fn, impl))
    idle = w.tracer
    blocks = w.run_blocks()
    plain, traced = Phase(), Phase()
    rounds = 0
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        # stop once one more round would overshoot by more than we fall short
        if rounds and elapsed + elapsed / rounds / 2 >= seconds:
            break
        for block in blocks:
            for req, o in zip(block, plain.run(w, block)):
                for key, val in w.layer_counts(req, o).items():
                    tracer.counts[key] += val
            tracer.install(targets)
            tracer.install_init("ideals.MonomialIdeal", ideals.MonomialIdeal)
            w.tracer = tracer
            try:
                traced.run(w, block)
            finally:
                tracer.uninstall()
                w.tracer = idle
            tracer.counts["macaulay.macaulay_rep.cache_hits"] += w.cache_hits
        rounds += 1

    self_s, top = tracer.self_times()
    work = traced.work_s
    metrics = {}
    for span, _ in TRACED:
        metrics[f"{span}.calls"] = tracer.calls[span] / rounds
        metrics[f"{span}.self_s"] = self_s[span] / rounds
    c = tracer.counts
    metrics["enumeration.search.examined"] = c["enumeration.search.examined"] / rounds
    metrics["macaulay.macaulay_rep.cache_hits"] = c["macaulay.macaulay_rep.cache_hits"] / rounds
    for key in ("multidegrees", "lcm_lattice"):
        metrics[f"oracle.{key}"] = sum(c[f"oracle.{half}.{key}"] for half in HALVES) / rounds
    metrics["oracle.lattice_ratio"] = (
        metrics["oracle.lcm_lattice"] / metrics["oracle.multidegrees"]
        if metrics["oracle.multidegrees"] else 0.0)
    metrics["oracle.us_per_multidegree"] = (
        metrics["oracle.oracle_betti.self_s"] * 1e6 / metrics["oracle.multidegrees"]
        if metrics["oracle.multidegrees"] else 0.0)
    for half in HALVES:
        items = c[f"oracle.{half}.items"] or 1
        metrics[f"oracle.{half}.multidegrees_per_item"] = c[f"oracle.{half}.multidegrees"] / items
        metrics[f"oracle.{half}.lcm_lattice_per_item"] = c[f"oracle.{half}.lcm_lattice"] / items
        metrics[f"oracle.{half}.ms_per_item"] = c[f"oracle.{half}.s"] * 1e3 / items
    for m in MODULES:
        metrics[f"{m}.self_share"] = sum(
            v for k, v in self_s.items() if k.split(".", 1)[0] == m) / work
    metrics["untraced.self_share"] = (work - top) / work
    metrics["trace.overhead_frac"] = work / plain.work_s - 1

    os.makedirs(WORK_ROOT, exist_ok=True)
    tracer.dump(os.path.join(WORK_ROOT, f"spans-{name}-{seed}.json"))

    items = sum(o.items for o in plain.outcomes + traced.outcomes)
    failed = sum(o.failed for o in plain.outcomes + traced.outcomes)
    samples = {"requests": len(traced.requests), "rounds": rounds, "spans": len(tracer.spans),
               "plain_work_s": plain.work_s, "traced_work_s": work}
    return metrics, items, failed, samples


def context(args, samples, wall_s):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": wall_s,
        "samples": samples,
    }


def run(args, probes=SETUP_PROBES):
    """One benchmark run; returns (context, result)."""
    t_start = perf_counter()
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        if args.trace:
            w = make_workload(args.workload, args.seed, workdir, args.tiny)
            metrics, items, failed, samples = traced_run(w, args.workload, args.seconds, args.seed)
        else:
            setup_times = []
            w = make_workload(args.workload, args.seed, workdir, args.tiny)
            rounds = measure(w, args.seconds, lambda: setup_seconds(
                args.workload, args.seed, args.tiny, probes, setup_times))
            metrics, items, failed, samples = end_to_end(w, rounds, statistics.median(setup_times))
            samples["setup"] = len(setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": items,
        "failed": failed,
        "metrics": metrics,
    }
    return context(args, samples, perf_counter() - t_start), result


def with_units(metrics, trace):
    units = dict(per_layer_names() if trace else END_TO_END)
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def self_check():
    """Run every workload at tiny size in both modes and assert that every
    metric named in BENCHMARK.json is emitted as a finite number."""
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS), "workload names"
    for name in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=1, seconds=0.3, trace=trace, tiny=True)
            _, result = run(args, probes=1)
            got = with_units(result["metrics"], trace)
            assert list(got) == want[trace], (name, trace, sorted(set(got) ^ set(want[trace])))
            for key, val in got.items():
                assert math.isfinite(val["value"]), (name, key, val)
            assert result["attempted"] >= 1 and result["correct"], (name, trace, result)
            print(f"self-check {name} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} items", flush=True)
    print("self-check ok")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at tiny size and check the metric names")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_library()
    if args.self_check:
        return self_check()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.setup_probe:
        os.makedirs(WORK_ROOT, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="probe-", dir=WORK_ROOT)
        try:
            make_workload(args.workload, args.seed, workdir, args.tiny)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    ctx, result = run(args)
    result["metrics"] = with_units(result["metrics"], args.trace)
    print(json.dumps({"context": ctx}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
