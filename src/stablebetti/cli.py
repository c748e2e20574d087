"""Command-line surface.

Exit codes: 0 success / check passed, 1 semantic failure (check failed,
nothing found, fixture mismatch, infeasible profile), 2 malformed input,
3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .betti import ek_betti, render, table_to_json
from .constructions import (
    check_matrix_lexsegment,
    check_matrix_necessary,
    lexsegment_ideal,
    piecewise_lexsegment,
    realize_matrix_greedy,
    strongly_stable_with_counts,
    subring_lexsegment_ideal,
)
from .enumeration import (
    count_strongly_stable,
    enumerate_strongly_stable,
    search_extremal_profile,
    search_matrix,
)
from .errors import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    DomainError,
    InfeasibleProfileError,
    MalformedInputError,
)
from .formats import (
    format_ideal,
    format_matrix,
    parse_ideal_text,
    parse_matrix_text,
    parse_profile,
)
from .ideals import generator_matrix
from .macaulay import is_o_sequence, macaulay_rep, macaulay_shift
from .extremal import check_profile, nested_lex_ideal
from .oracle import oracle_betti
from .verify import run_fixtures


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}")


def _budget(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget must be nonnegative, got {value}")
    return value


def _parse_counts(text):
    try:
        counts = tuple(int(p) for p in text.replace(";", ",").split(",") if p.strip())
    except ValueError:
        raise MalformedInputError(f"bad count vector {text!r}")
    if not counts:
        raise MalformedInputError("empty count vector")
    return counts


def _cmd_macaulay(args):
    if args.what == "rep":
        rep = macaulay_rep(args.a, args.d)
        if args.json:
            print(json.dumps({"a": rep.a, "d": rep.d, "ks": list(rep.ks)}))
        else:
            terms = " + ".join(f"binom({k},{i})" for k, i in rep.terms())
            print(f"{rep.a} = {terms}")
        return 0
    if args.what == "shift":
        value = macaulay_shift(args.a, args.d, args.j)
        print(json.dumps({"value": value}) if args.json else value)
        return 0
    counts = _parse_counts(args.vector)
    ok = is_o_sequence(counts)
    print(json.dumps({"o_sequence": ok}) if args.json else ("true" if ok else "false"))
    return 0 if ok else 1


def _cmd_betti(args):
    I = parse_ideal_text(_read(args.ideal_file))
    tables = {}
    if args.method in ("ek", "both"):
        tables["ek"] = ek_betti(I)
    if args.method in ("oracle", "both"):
        tables["oracle"] = oracle_betti(I, budget=args.budget)
    if args.method == "both" and tables["ek"] != tables["oracle"]:
        print("MISMATCH between the closed formula and the homology oracle", file=sys.stderr)
        for name, tbl in tables.items():
            print(f"[{name}]\n{render(tbl)}", file=sys.stderr)
        return 1
    table = tables.get(args.method, tables.get("ek"))
    if args.json:
        print(json.dumps(table_to_json(table)))
    else:
        print(render(table, quotient=args.quotient))
        if args.method == "both":
            print("(closed formula and homology oracle agree)")
    return 0


def _cmd_matrix(args):
    I = parse_ideal_text(_read(args.ideal_file))
    M = generator_matrix(I)
    if args.json:
        print(json.dumps({"n": M.n, "jmin": M.jmin, "rows": [list(r) for r in M.rows]}))
    else:
        print(format_matrix(M), end="")
    return 0


def _cmd_check_matrix(args):
    M = parse_matrix_text(_read(args.matrix_file))
    check = check_matrix_lexsegment(M) if args.lex else check_matrix_necessary(M)
    if args.json:
        print(
            json.dumps(
                {
                    "ok": check.ok,
                    "items": [
                        {"j": it.j, "condition": it.condition, "ok": it.ok, "detail": it.detail}
                        for it in check.items
                    ],
                }
            )
        )
    else:
        for it in check.items:
            print(f"{'ok  ' if it.ok else 'FAIL'} j={it.j} {it.condition}: {it.detail}")
        print("pass" if check.ok else "fail")
    return 0 if check.ok else 1


def _cmd_realize_matrix(args):
    M = parse_matrix_text(_read(args.matrix_file))
    result = realize_matrix_greedy(M)
    if result.ok:
        print(format_ideal(result.ideal), end="")
        return 0
    print(
        f"not realized: degree {result.fail_degree}, class {result.fail_index}: {result.reason}",
        file=sys.stderr,
    )
    print(
        "note: for four or more variables this is not a proof that no ideal exists",
        file=sys.stderr,
    )
    return 1


def _cmd_construct(args):
    if args.construction == "piecewise-lex":
        ideal, ss = piecewise_lexsegment(args.d, _parse_counts(args.counts))
        print(f"# strongly stable: {'true' if ss else 'false'}")
    elif args.construction == "murai":
        ideal = strongly_stable_with_counts(_parse_counts(args.counts))
    elif args.construction == "u-ideal":
        ideal = subring_lexsegment_ideal(args.ell, args.k, args.d, args.n)
    else:  # lexsegment
        ideal = lexsegment_ideal(args.n, args.d, args.mu)
    print(format_ideal(ideal), end="")
    return 0


def _search_confirmation(profile, budget):
    """Optional second opinion on an infeasible verdict: exhaustive search
    within the certifying bounds, offered at desk scale only."""
    j1 = profile.triples[0][1]
    if profile.n > 4 or j1 > 5:
        return "search confirmation only offered for n <= 4 and corner degrees <= 5"
    outcome = search_extremal_profile(profile, budget=budget)
    if outcome.found is None:
        return f"confirmed by exhaustive search: no strongly stable ideal within degree {j1}"
    return "WARNING: search found a realizing ideal, contradicting the verdict"


def _cmd_extremal(args):
    profile = parse_profile(args.profile, args.n)
    verdict = check_profile(profile)
    confirmation = None
    if args.confirm and not verdict.ok:
        confirmation = _search_confirmation(profile, args.budget)
    if args.what == "check":
        if args.json:
            payload = {
                "ok": verdict.ok,
                "checks": [
                    {"p": c.p, "lhs": c.lhs, "rhs": c.rhs, "ok": c.ok, "label": c.label}
                    for c in verdict.checks
                ],
            }
            if confirmation is not None:
                payload["confirmation"] = confirmation
            print(json.dumps(payload))
        else:
            for c in verdict.checks:
                print(f"{'ok  ' if c.ok else 'FAIL'} p={c.p}: {c.lhs} <= {c.rhs} ({c.label})")
            if confirmation is not None:
                print(confirmation)
            print("pass" if verdict.ok else "fail")
        return 0 if verdict.ok else 1
    # construct
    if not verdict.ok:
        bad = verdict.failures()[0]
        print(
            f"infeasible: corner p={bad.p} needs {bad.lhs} <= {bad.rhs}; "
            "no homogeneous ideal in characteristic 0 has these extremal corners",
            file=sys.stderr,
        )
        if confirmation is not None:
            print(confirmation, file=sys.stderr)
        return 1
    ideal = nested_lex_ideal(profile)
    table = ek_betti(ideal)
    print(format_ideal(ideal), end="")
    for line in render(table).splitlines():
        print(f"# {line}")
    return 0


def _cmd_enumerate(args):
    if args.count_only:
        print(count_strongly_stable(args.n, args.dmax, budget=args.budget))
        return 0
    first = True
    for ideal in enumerate_strongly_stable(args.n, args.dmax, budget=args.budget):
        if not first:
            print()
        print(format_ideal(ideal), end="")
        first = False
    return 0


def _cmd_search(args):
    if args.target == "matrix":
        M = parse_matrix_text(_read(args.matrix_file))
        outcome = search_matrix(M, budget=args.budget)
    else:
        outcome = search_extremal_profile(parse_profile(args.profile, args.n), budget=args.budget)
    if outcome.ok:
        print(format_ideal(outcome.found), end="")
        return 0
    print(f"none found (certified: {outcome.note})")
    return 1


def _cmd_verify_paper(args):
    results = run_fixtures(budget=args.budget)
    if args.json:
        print(
            json.dumps(
                [{"name": r.name, "status": r.status, "detail": r.detail} for r in results]
            )
        )
    else:
        for r in results:
            print(f"{r.status.upper():4} {r.name}: {r.detail}")
        npass = sum(r.ok for r in results)
        print(f"{npass}/{len(results)} fixtures passed")
    if any(r.status == "fail" for r in results):
        return 1
    if any(r.status == "skip" for r in results):
        return 3
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stablebetti",
        description="Graded Betti tables of monomial ideals, exactly",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(q, default):
        q.add_argument("--budget", type=_budget, default=default, help="resource budget; 0 allows nothing")

    p = sub.add_parser("macaulay", help="representations, shifts, O-sequence tests")
    msub = p.add_subparsers(dest="what", required=True)
    q = msub.add_parser("rep")
    q.add_argument("a", type=int)
    q.add_argument("d", type=int)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_macaulay)
    q = msub.add_parser("shift")
    q.add_argument("a", type=int)
    q.add_argument("d", type=int)
    q.add_argument("j", type=int)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_macaulay)
    q = msub.add_parser("oseq")
    q.add_argument("vector")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_macaulay)

    p = sub.add_parser("betti", help="Betti table of an ideal file")
    p.add_argument("ideal_file")
    p.add_argument("--method", choices=["ek", "oracle", "both"], default="ek")
    p.add_argument("--quotient", action="store_true", help="render in the quotient convention")
    p.add_argument("--json", action="store_true")
    add_budget(p, DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("matrix", help="matrix of generators of a strongly stable ideal")
    p.add_argument("ideal_file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("check-matrix", help="necessary (or lexsegment) conditions on a matrix")
    p.add_argument("matrix_file")
    p.add_argument("--lex", action="store_true", help="check the lexsegment characterization")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_matrix)

    p = sub.add_parser("realize-matrix", help="greedy realization of a matrix of generators")
    p.add_argument("matrix_file")
    p.set_defaults(func=_cmd_realize_matrix)

    p = sub.add_parser("construct", help="build one of the named ideals")
    csub = p.add_subparsers(dest="construction", required=True)
    q = csub.add_parser("piecewise-lex")
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--counts", required=True)
    q.set_defaults(func=_cmd_construct)
    q = csub.add_parser("murai")
    q.add_argument("--counts", required=True)
    q.set_defaults(func=_cmd_construct)
    q = csub.add_parser("u-ideal")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--ell", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--d", type=int, required=True)
    q.set_defaults(func=_cmd_construct)
    q = csub.add_parser("lexsegment")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--mu", type=int, required=True)
    q.set_defaults(func=_cmd_construct)

    p = sub.add_parser("extremal", help="decide or realize an extremal profile")
    esub = p.add_subparsers(dest="what", required=True)
    for what in ("check", "construct"):
        q = esub.add_parser(what)
        q.add_argument("--profile", required=True, help='triples "i1,j1,b1;i2,j2,b2;..."')
        q.add_argument("--n", type=int, required=True)
        if what == "check":
            q.add_argument("--json", action="store_true")
        q.add_argument(
            "--confirm",
            action="store_true",
            help="confirm an infeasible verdict by exhaustive search (desk scale)",
        )
        add_budget(q, DEFAULT_BUDGET)
        q.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("enumerate", help="stream all strongly stable ideals within bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    add_budget(p, None)  # None keeps the enumeration's default caps
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("search", help="search for an ideal matching a matrix or profile")
    ssub = p.add_subparsers(dest="target", required=True)
    q = ssub.add_parser("matrix")
    q.add_argument("matrix_file")
    add_budget(q, DEFAULT_BUDGET)
    q.set_defaults(func=_cmd_search)
    q = ssub.add_parser("profile")
    q.add_argument("--profile", required=True)
    q.add_argument("--n", type=int, required=True)
    add_budget(q, DEFAULT_BUDGET)
    q.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify-paper", help="replay the built-in reference fixtures")
    p.add_argument("--json", action="store_true")
    add_budget(p, DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MalformedInputError, DomainError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleProfileError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
