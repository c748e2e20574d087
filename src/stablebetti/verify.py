"""Built-in reference fixtures and their runner.

The fixtures replay, as data, the worked examples this library is built
around: the twin Betti tables, the two generator-matrix obstructions, the
piecewise lexsegment whose shadow loses the property, spot values of the
shift operators, and the two-corner extremal example including its
adjudicated prefix-sum count.  Each fixture reports pass or fail.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .betti import ek_betti, table_to_json
from .constructions import (
    check_matrix_necessary,
    piecewise_lexsegment,
    subring_lexsegment_ideal,
)
from .enumeration import search_extremal_profile, search_matrix
from .errors import InfeasibleProfileError
from .extremal import (
    ExtremalProfile,
    check_profile,
    forced_counts,
    nested_lex_ideal,
    verify_profile,
)
from .ideals import (
    GeneratorMatrix,
    MonomialIdeal,
    count_vector,
    is_piecewise_lex_up_to,
    is_strongly_stable,
    times_maximal,
)
from .macaulay import macaulay_shift, min_shift_preimage
from .oracle import oracle_betti


@dataclass(frozen=True)
class FixtureResult:
    name: str
    status: str  # "pass" | "fail"
    detail: str

    @property
    def ok(self):
        return self.status == "pass"


def load_fixtures():
    text = resources.files("stablebetti.data").joinpath("fixtures.json").read_text()
    return json.loads(text)["fixtures"]


def _ideal(obj):
    return MonomialIdeal(obj["n"], obj["gens"])


def _entries(fx):
    return sorted([list(e) for e in fx["expected"]])


def _run_betti_table(fx):
    I = _ideal(fx["ideal"])
    table = ek_betti(I) if fx["method"] == "ek" else oracle_betti(I)
    got = table_to_json(table)["entries"]
    expected = _entries(fx)
    if got != expected:
        return "fail", f"expected {expected}, got {got}"
    # the twin's own run checks its table against its recorded entries, so
    # both passing makes the two computed tables equal
    other = fx.get("same_table_as")
    if other:
        twin = next((f for f in load_fixtures() if f["name"] == other), None)
        if twin is None or _entries(twin) != got:
            return "fail", f"table differs from fixture {other}"
    return "pass", f"table entries {got}" + (f"; equals {other}" if other else "")


def _run_matrix_obstruction(fx):
    M = GeneratorMatrix(fx["n"], fx["jmin"], tuple(tuple(r) for r in fx["rows"]))
    check = check_matrix_necessary(M)
    if not check.ok:
        return "fail", f"necessary conditions unexpectedly fail: {check.failures()[0].detail}"
    outcome = search_matrix(M)
    if outcome.ok:
        return "fail", f"unexpected realization with generators {list(outcome.found.gens)}"
    return "pass", "necessary conditions hold yet exhaustive search finds no ideal"


def _run_piecewise_lex(fx):
    ideal, ss = piecewise_lexsegment(fx["d"], tuple(fx["counts"]))
    expected = {tuple(g) for g in fx["expected_gens"]}
    if set(ideal.gens) != expected:
        return "fail", f"generators {sorted(ideal.gens)} differ from the expected set"
    if ss != fx["expect_strongly_stable"]:
        return "fail", f"strong stability verdict {ss}"
    shadow = times_maximal(ideal, 1)
    ell = fx["shadow_not_piecewise_up_to"]
    if is_piecewise_lex_up_to(shadow, ell):
        return "fail", f"shadow unexpectedly piecewise lexsegment up to {ell}"
    member = tuple(fx["shadow_member"])
    nonmember = tuple(fx["shadow_nonmember"])
    if not shadow.contains(member):
        return "fail", f"{member} should lie in the shadow"
    if shadow.contains(nonmember):
        return "fail", f"{nonmember} should not lie in the shadow"
    return "pass", (
        f"{len(ideal.gens)} generators as listed; shadow loses the piecewise "
        f"property up to {ell} (witnesses {member} in, {nonmember} out)"
    )


def _run_shift_values(fx):
    for case in fx["cases"]:
        got = macaulay_shift(case["a"], case["d"], case["j"])
        if got != case["expected"]:
            return "fail", f"shift{(case['a'], case['d'], case['j'])} = {got}, expected {case['expected']}"
    return "pass", f"{len(fx['cases'])} shift values verified"


def _run_subring_lex_counts(fx):
    for case in fx["ideal_cases"]:
        ell, k, d = case["ell"], case["k"], case["d"]
        ideal = subring_lexsegment_ideal(ell, k, d, ell)
        mv = count_vector(ideal)
        closed = tuple(macaulay_shift(k, ell - 1, i - ell) for i in range(1, ell + 1))
        if mv != closed:
            return "fail", f"count vector {mv} differs from closed form {closed} at {case}"
    for case in fx["preimage_cases"]:
        got = min_shift_preimage(case["k"], case["i"], case["ell"])
        closed = macaulay_shift(case["k"], case["ell"] - 1, case["i"] - case["ell"])
        if got != case["expected"] or closed != case["expected"]:
            return "fail", f"preimage at {case}: search {got}, closed form {closed}"
    return "pass", (
        f"{len(fx['ideal_cases'])} count-vector identities and "
        f"{len(fx['preimage_cases'])} preimage values verified"
    )


def _run_extremal_branch(fx):
    n = fx["n"]
    i1, i2 = fx["corner_columns"]
    j1, j2 = fx["corner_degrees"]
    a = fx["low_corner_value"]
    probe = ExtremalProfile(n, ((i1, j1, 1), (i2, j2, a)))
    forced = forced_counts(probe)[1]
    if forced != fx["expected_forced"]:
        return "fail", f"forced count {forced}, expected {fx['expected_forced']}"
    # independent route: count top-class generators after multiplying the
    # bottom-corner witness ideal by the maximal ideal j1 - j2 times
    witness = subring_lexsegment_ideal(i2 + 1, a, j2, n)
    grown = times_maximal(witness, j1 - j2)
    counted = count_vector(grown)[i1]
    if counted != forced:
        return "fail", f"generator count {counted} disagrees with operator value {forced}"
    admissible = []
    for b in range(1, fx["bound"] + 1):
        profile = ExtremalProfile(n, ((i1, j1, b), (i2, j2, a)))
        # nested_lex_ideal checks the profile, and refuses an inadmissible one
        try:
            ideal = nested_lex_ideal(profile)
        except InfeasibleProfileError:
            continue
        admissible.append(b)
        if not is_strongly_stable(ideal):
            return "fail", f"witness for b={b} is not strongly stable"
        if not verify_profile(ideal, profile):
            return "fail", f"witness for b={b} has the wrong corners"
    if admissible != fx["admissible_b"]:
        return "fail", f"admissible values {admissible}, expected {fx['admissible_b']}"
    detail = f"forced count {forced} (two routes agree); admissible values {admissible}"
    if "search_b" in fx:
        if fx["search_dmax"] != j1:
            return "fail", f"recorded search depth {fx['search_dmax']} is not the top corner degree {j1}"
        profile = ExtremalProfile(n, ((i1, j1, fx["search_b"]), (i2, j2, a)))
        verdict = check_profile(profile)
        outcome = search_extremal_profile(profile)
        if verdict.ok != outcome.ok:
            return "fail", (
                f"numerical verdict ({verdict.ok}) and exhaustive search "
                f"({outcome.ok}) disagree for b={fx['search_b']}"
            )
        detail += f"; exhaustive search confirms b={fx['search_b']} is not realizable"
    if "published_forced" in fx:
        detail += (
            f"; the published value {fx['published_forced']} disagrees with the "
            f"computed {forced} and is recorded as a presumed erratum"
        )
    return "pass", detail


_RUNNERS = {
    "betti-table": _run_betti_table,
    "matrix-obstruction": _run_matrix_obstruction,
    "piecewise-lex": _run_piecewise_lex,
    "shift-values": _run_shift_values,
    "subring-lex-counts": _run_subring_lex_counts,
    "extremal-branch": _run_extremal_branch,
}


def run_fixtures() -> list:
    """Run every fixture; returns FixtureResult records in file order."""
    return [FixtureResult(fx["name"], *_RUNNERS[fx["kind"]](fx)) for fx in load_fixtures()]
