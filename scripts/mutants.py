#!/usr/bin/env python3
"""Mutation check: apply each listed mutant, one at a time, to a copy of
the tree and run the tests named to kill it.

A mutant is (name, file, an exact source snippet, its replacement, the
tests expected to fail).  It is killed when one of its tests fails (or
the run times out) on the mutated copy, and survives when they all pass.
A survivor is a finding about the tests, recorded rather than deleted;
a mutant marked equivalent changes no result, only time or memory, so
it is expected to survive.

    python3 scripts/mutants.py          # run every mutant
    python3 scripts/mutants.py --check  # snippets and tests exist; runs nothing

The check, which the test suite runs, confirms that every snippet occurs
exactly once in its file and that every named test function exists, so
a refactor that moves the code has to update the list.  The full run
takes about 25 s on two cores; CI runs it on one Python version.  Exit
status: 0 when every mutant gets its expected verdict, 1 otherwise.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple
    equivalent: bool = False


ERRORS = "src/stablebetti/errors.py"
IDEALS = "src/stablebetti/ideals.py"
ENUMERATION = "src/stablebetti/enumeration.py"
MACAULAY = "src/stablebetti/macaulay.py"
ORACLE = "src/stablebetti/oracle.py"

MUTANTS = (
    # the generating-set checks, each owned by ideals
    Mutant(
        "minimalize-filters-before-checking",
        IDEALS,
        "    for g in reversed(_checked_generators(n, raw)):\n",
        "    for g in sorted({tuple(g) for g in raw}, key=sum):\n",
        (
            "tests/test_ideals.py::test_minimalize_checks_every_generator_first",
            "tests/test_formats_cli.py::test_cli_names_the_offending_generator_or_row",
        ),
    ),
    # the integer rule every count, degree, index, generator and row passes
    Mutant(
        "tuple-length-unchecked",
        ERRORS,
        "    if length is not None and len(v) != length:\n",
        "    if False:\n",
        (
            "tests/test_formats_cli.py::test_parse_ideal_errors",
            "tests/test_formats_cli.py::test_parse_matrix",
        ),
    ),
    Mutant(
        "negative-entry-accepted",
        ERRORS,
        "        if x < 0:\n",
        "        if False:\n",
        (
            "tests/test_formats_cli.py::test_cli_betti_and_matrix",
            "tests/test_formats_cli.py::test_cli_check_and_realize",
        ),
    ),
    Mutant(
        "non-integer-entry-accepted",
        ERRORS,
        "        if type(x) is not int:\n",
        "        if False:\n",
        ("tests/test_ideals.py::test_non_integer_values_refused",),
    ),
    Mutant(
        "non-integer-argument-accepted",
        ERRORS,
        "    if type(x) is int and (lo is None",
        "    if (lo is None",
        ("tests/test_integer_rule.py::test_macaulay_cache_does_not_answer_a_float",),
    ),
    Mutant(
        "bool-argument-accepted",
        ERRORS,
        "    if type(x) is int and (lo is None",
        "    if isinstance(x, int) and (lo is None",
        ("tests/test_integer_rule.py::test_bool_is_not_an_integer",),
    ),
    Mutant(
        "bool-entry-accepted",
        ERRORS,
        "        if type(x) is not int:\n",
        "        if not isinstance(x, int):\n",
        ("tests/test_integer_rule.py::test_bool_is_not_an_integer",),
    ),
    Mutant(
        "shift-index-unchecked",
        MACAULAY,
        '    _checked_int("j", j, None)\n',
        "",
        ("tests/test_integer_rule.py::test_integer_rule_at_every_site",),
    ),
    Mutant(
        "cumsum-entries-unchecked",
        MACAULAY,
        '    w = tuple(_checked_int("vector entry", x, None) for x in v)\n',
        "    w = tuple(v)\n",
        ("tests/test_integer_rule.py::test_integer_rule_at_every_site",),
    ),
    Mutant(
        "betti-table-truncates",
        "src/stablebetti/betti.py",
        '            if _checked_int("Betti number", b):\n'
        '                clean[(_checked_int("homological index i", i), _checked_int("degree j", j, None))] = b\n',
        "            if b:\n                clean[(int(i), int(j))] = int(b)\n",
        ("tests/test_integer_rule.py::test_integer_rule_at_every_site",),
    ),
    Mutant(
        "profile-truncates",
        "src/stablebetti/extremal.py",
        '        triples = tuple(_checked_ints("corner", t, 3) for t in self.triples)\n',
        "        triples = tuple((int(i), int(j), int(b)) for i, j, b in self.triples)\n",
        ("tests/test_integer_rule.py::test_integer_rule_at_every_site",),
    ),
    Mutant(
        "construct-checks-the-profile-twice",
        "src/stablebetti/cli.py",
        "        try:\n            ideal = nested_lex_ideal(profile)\n",
        "        try:\n            check_profile(profile)\n            ideal = nested_lex_ideal(profile)\n",
        ("tests/test_formats_cli.py::test_cli_construct_checks_the_profile_once",),
    ),
    Mutant(
        "verify-checks-the-profile-twice",
        "src/stablebetti/verify.py",
        "        try:\n            ideal = nested_lex_ideal(profile)\n",
        "        if not check_profile(profile).ok:\n            continue\n"
        "        try:\n            ideal = nested_lex_ideal(profile)\n",
        ("tests/test_verify_fixtures.py::test_each_profile_is_checked_once",),
    ),
    Mutant(
        "twin-comparison-dropped",
        "src/stablebetti/verify.py",
        "        if twin is None or _entries(twin) != got:\n",
        "        if False:\n",
        ("tests/test_verify_fixtures.py::test_twin_with_another_table_fails_in_either_order",),
    ),
    Mutant(
        "matrix-header-key-repeats",
        "src/stablebetti/formats.py",
        '    if len(fields) != len(head) or set(fields) != {"n", "jmin"}:\n',
        '    if set(fields) != {"n", "jmin"}:\n',
        ("tests/test_formats_cli.py::test_parse_matrix",),
    ),
    Mutant(
        "int-field-reader-catches-the-wrong-error",
        "src/stablebetti/formats.py",
        "    except ValueError:\n        raise MalformedInputError(message)\n",
        "    except TypeError:\n        raise MalformedInputError(message)\n",
        (
            "tests/test_formats_cli.py::test_parse_ideal_errors",
            "tests/test_formats_cli.py::test_parse_profile",
            "tests/test_formats_cli.py::test_cli_construct",
        ),
    ),
    # the premise that keeps every greedy class from running out
    Mutant(
        "row-second-entry-unbounded",
        "src/stablebetti/constructions.py",
        "    if len(row) >= 2 and row[1] > j:\n",
        "    if False:\n",
        ("tests/test_constructions.py::test_realize_greedy_rejects_bad_matrix",),
    ),
    # one per route of the two-route check
    Mutant(
        "ek-binomial-off-by-one",
        "src/stablebetti/betti.py",
        "binom(k - 1, i) * c",
        "binom(k, i) * c",
        (
            "tests/test_betti.py::test_ek_on_example",
            "tests/test_acceptance.py::test_criterion_02_formula_oracle_equivalence",
        ),
    ),
    Mutant(
        "oracle-full-simplex-not-skipped",
        ORACLE,
        "    if supp in facets:\n        return None\n",
        "",
        (
            "tests/test_oracle.py::test_oracle_small_ideals",
            "tests/test_oracle.py::test_oracle_matches_formula_small_corpus",
            "tests/test_oracle.py::test_oracle_on_nonstable_mixed",
        ),
        # a full simplex has no reduced homology, so its ranks are all 0
        equivalent=True,
    ),
    Mutant(
        "oracle-facet-keeps-equal-exponents",
        ORACLE,
        " if e < f)",
        " if e <= f)",
        (
            "tests/test_oracle.py::test_oracle_small_ideals",
            "tests/test_oracle.py::test_oracle_matches_formula_small_corpus",
            "tests/test_oracle.py::test_koszul_faces_match_reference",
        ),
    ),
    Mutant(
        "oracle-vertex-rank-read-as-zero",
        ORACLE,
        "    boundary = {0: int(0 in faces_by_dim)}\n",
        "    boundary = {0: 0}\n",
        (
            "tests/test_oracle.py::test_mask_ranks_match_reference_homology",
            "tests/test_oracle.py::test_oracle_small_ideals",
        ),
    ),
    Mutant(
        "oracle-boundary-sign-constant",
        ORACLE,
        "            sign = -sign\n",
        "",
        (
            "tests/test_oracle.py::test_mask_ranks_match_reference_homology",
            "tests/test_oracle.py::test_rp2_table_is_characteristic_zero",
        ),
    ),
    Mutant(
        "filters-short-count-not-cut",
        ENUMERATION,
        ".bit_count() < tgt:\n                break\n",
        ".bit_count() < tgt:\n                pass\n",
        (
            "tests/test_enumeration.py::test_filters_match_brute_force",
            "tests/test_enumeration.py::test_search_matrix_self",
        ),
    ),
    Mutant(
        "count-keep-mask-drops-needed-positions",
        ENUMERATION,
        "            keep = ~((bit << 1) - 1 & ~need[t + 1])\n",
        "            keep = ~((bit << 1) - 1)\n",
        (
            "tests/test_enumeration.py::test_count_matches_enumeration",
            "tests/test_enumeration.py::test_large_counts_pinned",
        ),
    ),
    Mutant(
        "count-bit-gate-off-by-one",
        ENUMERATION,
        "(cap + 2).bit_length() <= max(n, dmax) + 1",
        # refuses a cap of exactly 2^(max+1) - 2, the count at (2, max)
        "(cap + 1).bit_length() <= max(n, dmax) + 1",
        ("tests/test_enumeration.py::test_count_matches_the_chain_walk_under_every_budget",),
    ),
    Mutant(
        "count-bit-gate-dropped",
        ENUMERATION,
        "        (min(n, dmax) >= 2 and (cap + 2).bit_length() <= max(n, dmax) + 1)\n        or ",
        "        ",
        ("tests/test_enumeration.py::test_wide_bounds_are_refused_at_once",),
    ),
    Mutant(
        "count-orientation-reversed",
        ENUMERATION,
        "        n, dmax = min(n, dmax), max(n, dmax)\n",
        "        n, dmax = max(n, dmax), min(n, dmax)\n",
        ("tests/test_enumeration.py::test_count_walks_no_more_variables_than_degrees",),
    ),
    Mutant(
        "count-caps-read-the-transpose",
        ENUMERATION,
        # the orientation swap moved above the caps
        '    _checked_int("dmax", dmax, 1)\n    if budget is None',
        '    _checked_int("dmax", dmax, 1)\n    if max(n, dmax) <= DEGREE_CAP:\n'
        "        n, dmax = min(n, dmax), max(n, dmax)\n    if budget is None",
        ("tests/test_enumeration.py::test_count_keeps_the_caps_of_the_bound_as_given",),
    ),
    Mutant(
        "count-transposes-past-the-degree-cap",
        ENUMERATION,
        "    if max(n, dmax) <= DEGREE_CAP:\n",
        "    if True:\n",
        ("tests/test_enumeration.py::test_count_keeps_the_caps_of_the_bound_as_given",),
    ),
    Mutant(
        "every-command-gets-its-arguments",
        "src/stablebetti/cli.py",
        "    every = command not in _COMMANDS\n",
        "    every = True\n",
        ("tests/test_formats_cli.py::test_parser_adds_only_the_named_commands_arguments",),
    ),
    Mutant(
        "confirmation-gates-on-the-top-degree-only",
        "src/stablebetti/cli.py",
        "    if profile.triples[-1][0] + 1 > DEFAULT_ENUM_N or j1 > DEFAULT_ENUM_DMAX:\n",
        "    if j1 > DEFAULT_ENUM_DMAX:\n",
        ("tests/test_formats_cli.py::test_cli_extremal_confirmation",),
    ),
    # the streamed enumeration order
    Mutant(
        "end-of-list-after-the-children",
        ENUMERATION,
        "                if parents[t] & ~cur == 0:\n"
        "                    stack.append((k, cur | 1 << t))\n                continue\n",
        # inclusion first: the exclude branch waits on the stack, so a set
        # comes after the sets that extend it
        "                if parents[t] & ~cur == 0:\n"
        "                    stack.append((k, cur))\n                    cur |= 1 << t\n                continue\n",
        (
            "tests/test_enumeration.py::test_filters_match_brute_force",
            "tests/test_enumeration.py::test_bucketed_order_is_the_full_sort",
            "tests/test_enumeration.py::test_enumeration_order_pinned",
        ),
    ),
    Mutant(
        "lower-parts-sorted-without-terminator",
        ENUMERATION,
        " for g in part[0]] + [(d,)])\n",
        " for g in part[0]])\n",
        (
            "tests/test_enumeration.py::test_bucketed_order_is_the_full_sort",
            "tests/test_enumeration.py::test_enumeration_order_pinned",
        ),
    ),
    Mutant(
        "extensions-tried-first-position-first",
        ENUMERATION,
        "        k, cur = stack.pop()\n",
        # the same sets, the include branch of the first position first
        "        k, cur = stack.pop(0)\n",
        (
            "tests/test_enumeration.py::test_filters_match_brute_force",
            "tests/test_enumeration.py::test_bucketed_order_is_the_full_sort",
        ),
    ),
    Mutant(
        "lower-part-yielded-again",
        ENUMERATION,
        "                if cur != base:\n",
        "                if True:\n",
        ("tests/test_enumeration.py::test_bucketed_order_is_the_full_sort",),
    ),
    Mutant(
        "enumeration-count-dropped",
        ENUMERATION,
        "    count_strongly_stable(n, dmax, budget)\n",
        "",
        ("tests/test_enumeration.py::test_first_ideal_comes_promptly",),
    ),
    # a walk builds each layer when it reaches its degree
    Mutant(
        "count-builds-every-layer-first",
        ENUMERATION,
        "        above = _layer(n, d + 1) if d < dmax else None\n",
        "        above = _walk_layers(n, dmax)[d] if d < dmax else None\n",
        ("tests/test_enumeration.py::test_refused_count_builds_no_layer_above_its_stop",),
    ),
    Mutant(
        "search-builds-every-layer-first",
        ENUMERATION,
        "    layers = [_layer(m, 1)]\n",
        "    layers = _walk_layers(m, len(specs))\n",
        ("tests/test_enumeration.py::test_search_miss_builds_no_layer_above_its_stop",),
    ),
    # a search walks only the variables its pins use
    Mutant(
        "search-walks-all-variables",
        ENUMERATION,
        "    m = max((c for spec in specs for c, tgt in enumerate(spec, 1) if tgt != 0), default=1)\n",
        "    m = n\n",
        ("tests/test_enumeration.py::test_search_builds_only_the_pinned_variables",),
    ),
    # the public API is what a program calls
    Mutant(
        "uncalled-public-definition",
        "src/stablebetti/betti.py",
        "def table_to_json(T: BettiTable) -> dict:\n",
        "def uncalled_helper():\n    return None\n\n\ndef table_to_json(T: BettiTable) -> dict:\n",
        ("tests/test_lint.py::test_every_public_definition_has_a_caller",),
    ),
    Mutant(
        "uncalled-public-method",
        IDEALS,
        "    def max_gen_degree(self):\n",
        "    def uncalled_method(self):\n        return None\n\n    def max_gen_degree(self):\n",
        ("tests/test_lint.py::test_every_public_definition_has_a_caller",),
    ),
)


def problems():
    """Snippets that do not occur exactly once in their file, and named
    tests whose function is missing."""
    found = []
    for m in MUTANTS:
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.snippet)
        if count != 1:
            found.append(f"{m.name}: snippet occurs {count} times in {m.path}")
        for node in m.tests:
            path, _, func = node.partition("::")
            if f"def {func}(" not in (ROOT / path).read_text(encoding="utf-8"):
                found.append(f"{m.name}: no test {node}")
    return found


def verdict(tree, env, m):
    """Apply m to the copy, run its tests, restore the file."""
    target = tree / m.path
    original = target.read_text(encoding="utf-8")
    target.write_text(original.replace(m.snippet, m.replacement), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *m.tests],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "killed"
    finally:
        target.write_text(original, encoding="utf-8")
    outcome = {0: "survived", 1: "killed"}.get(proc.returncode)
    return outcome or f"error (pytest exit {proc.returncode})"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="only check the list against the tree")
    args = parser.parse_args()
    found = problems()
    for line in found:
        print(line)
    if found or args.check:
        print(f"{len(MUTANTS)} mutants listed, {len(found)} problems")
        return 1 if found else 0
    # no bytecode: a mutant and the original can share a size and an mtime
    # second, and a stale .pyc would then run in place of the source
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_*")
    unexpected = 0
    tally = {}
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=ignore)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        # a kill counts only if the named tests pass on the unmutated copy
        named = tuple(dict.fromkeys(node for m in MUTANTS for node in m.tests))
        baseline = verdict(tree, env, Mutant("baseline", MUTANTS[0].path, "", "", named))
        if baseline != "survived":
            print(f"the named tests do not pass unmutated: {baseline}")
            return 1
        for m in MUTANTS:
            result = verdict(tree, env, m)
            expected = "survived" if m.equivalent else "killed"
            label = result + (" (equivalent)" if m.equivalent else "")
            unexpected += result != expected
            tally[label] = tally.get(label, 0) + 1
            print(f"{label:24} {m.name}", flush=True)
    summary = ", ".join(f"{count} {label}" for label, count in sorted(tally.items()))
    print(f"{len(MUTANTS)} mutants: {summary}; {unexpected} unexpected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
