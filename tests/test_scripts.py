import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv, check",
    [
        (
            ["realize_matrix_sweep.py", "--max-degree", "3", "--entry-cap", "4"],
            lambda line: line.startswith("42 admissible matrices, 42 realized"),
        ),
        (
            ["count_strongly_stable.py", "--max-n", "4", "--max-dmax", "5"],
            lambda line: line.split()[:3] == ["4", "5", "683462"],
        ),
        (
            ["adjudicate_prefix_sum.py"],
            lambda line: line == "generator counting:        9",
        ),
    ],
)
def test_script_runs(argv, check):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert any(check(line) for line in proc.stdout.splitlines()), proc.stdout


def test_bench_self_check():
    # every library name the benchmark wraps must still resolve, and every
    # metric BENCHMARK.json declares must still be emitted
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--self-check"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_mutant_list_matches_the_tree():
    # each mutant's snippet occurs once in its file and its tests exist;
    # the mutants themselves run only from the script
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "mutants.py"), "--check"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
