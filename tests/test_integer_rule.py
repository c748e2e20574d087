import os
import subprocess
import sys
from pathlib import Path

import pytest

import stablebetti as sb

# Names every call below may use; the same text sets up the child process.
SETUP = """\
from random import Random
from stablebetti import *
I = MonomialIdeal(2, [(1, 0)])
"""

# (call, with x standing for the value; the argument the message names;
# a non-integer value; a value out of range), with None where the check
# before it refuses every non-integer or the argument has no bound
SITES = (
    ("enumerate_degree(x, 2)", "n", 1.5, 0),
    ("enumerate_degree(2, x)", "d", 1.5, 65),
    ("list(monomials_with_max_index(x, 2, 2))", "ell", 1.5, 3),
    ("list(monomials_with_max_index(2, x, 2))", "d", 1.5, 0),
    ("list(monomials_with_max_index(1, 2, x))", "n", 1.5, 0),
    ("macaulay_rep(x, 2)", "a", 5.5, -1),
    ("macaulay_rep(5, x)", "d", 2.5, 0),
    ("min_shift_preimage(x, 2, 4)", "k", 1.5, 0),
    ("min_shift_preimage(3, x, 4)", "i", 2.5, 4),
    ("min_shift_preimage(3, 2, x)", "ell", 3.5, 2),
    ("is_o_sequence(x)", "m", (1, 2.5, 3), (1, -1)),
    ("macaulay_shift(5, 2, x)", "j", 1.5, None),
    ("MonomialIdeal(x, [(1, 0)])", "n", 2.0, 0),
    ("MonomialIdeal(2, [x])", "generator", (0.5, 1), (-1, 1)),
    ("minimalize(2, [(1, 0), x])", "generator", (1, 1.0), (1, 0, 5)),
    ("GeneratorMatrix(x, 1, ((1,),))", "n", 1.5, 0),
    ("GeneratorMatrix(2, x, ((1, 0),))", "jmin", 1.5, 0),
    ("GeneratorMatrix(2, 1, (x,))", "row", (1, 0.5), (1, -1)),
    ("graded_component(I, x)", "d", 1.5, -1),
    ("times_maximal(I, x)", "q", 1.5, -1),
    ("is_piecewise_lex_up_to(I, x)", "ell", 1.5, 3),
    ("counts_to_matrix({(x, 1): 1}, 2)", "max index i", 1.5, 3),
    ("counts_to_matrix({(1, x): 1}, 2)", "degree j", 1.5, 0),
    ("counts_to_matrix({(1, 1): x}, 2)", "count", 1.5, -1),
    ("hilbert_function(I, x)", "d", 1.5, -1),
    ("BettiTable(2, {(0, 1): x})", "Betti number", 1.5, -1),
    ("BettiTable(2, {(x, 1): 1})", "homological index i", 0.5, -1),
    ("BettiTable(2, {(0, x): 1})", "degree j", 1.5, None),
    ("betti_from_counts({(x, 1): 1}, 2)", "class index k", 1.5, 4),
    ("piecewise_lexsegment(x, (1, 1))", "d", 1.5, 0),
    ("piecewise_lexsegment(2, x)", "counts", (1, 0.5), (1, -1)),
    ("piecewise_lexsegment(2, (1, x))", "count of class 2", None, 3),
    ("strongly_stable_with_counts(x)", "counts", (1, 1.5), (1, -1)),
    ("subring_lexsegment_ideal(x, 1, 2, 2)", "ell", 1.5, 3),
    ("subring_lexsegment_ideal(2, x, 2, 2)", "k", 1.5, 3),
    ("subring_lexsegment_ideal(2, 1, x, 2)", "d", 1.5, 0),
    ("subring_lexsegment_ideal(2, 1, 2, x)", "n", 2.5, 0),
    ("lexsegment_ideal(x, 2, 1)", "n", 1.5, 0),
    ("lexsegment_count_vector(2, x, 1)", "d", 1.5, 0),
    ("lexsegment_count_vector(2, 2, x)", "mu", 1.5, 4),
    ("is_lexsegment_count_vector(x, 2)", "m", (1, 0.5), (1, -1)),
    ("is_lexsegment_count_vector((1, 1), x)", "d", 1.5, 0),
    ("ExtremalProfile(x, ((1, 2, 1),))", "n", 4.0, 1),
    ("ExtremalProfile(4, (x,))", "corner", (1.5, 3, 2), (1, 2)),
    ("count_strongly_stable(x, 2)", "n", 1.5, 0),
    ("count_strongly_stable(2, x)", "dmax", 1.5, 0),
    ("count_strongly_stable(2, 2, budget=x)", "budget", 10**6 + 0.5, -1),
    ("list(enumerate_strongly_stable(2, 2, budget=x))", "budget", 2.5, -1),
    ("oracle_betti(I, budget=x)", "budget", 2.5, -1),
    ("random_strongly_stable(x, 2, Random(0))", "n", 1.5, 0),
    ("random_strongly_stable(2, x, Random(0))", "dmax", 1.5, 0),
)

# Without the rule these calls list monomials of a non-integer degree, a
# walk that never ends, until memory runs out; they run in a child
# process with a capped address space and a timeout.
UNBOUNDED = {
    "enumerate_degree(2, x)",
    "list(monomials_with_max_index(2, x, 2))",
    "graded_component(I, x)",
    "times_maximal(I, x)",
}
CHILD_MEMORY = 512 * 2**20
CHILD = """\
import resource
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
{setup}
try:
    eval({call!r})
except DomainError as exc:
    print(exc)
"""

CASES = [
    pytest.param(call, name, value, id=f"{call}-x={value!r}")
    for call, name, bad, out in SITES
    for value in (bad, out)
    if value is not None
]


def _message(call, value):
    """The DomainError message of call at x = value, or None for no error."""
    source = SETUP + f"x = {value!r}\n"
    if call in UNBOUNDED:
        src = str(Path(sb.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", CHILD.format(limit=CHILD_MEMORY, setup=source, call=call)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        return proc.stdout.strip() or None
    ns = {}
    exec(source, ns)
    try:
        eval(call, ns)
    except sb.DomainError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("call, name, value", CASES)
def test_integer_rule_at_every_site(call, name, value):
    # the message opens with the argument's name
    message = _message(call, value)
    assert message is not None and message.startswith(name + " "), message


@pytest.mark.parametrize("call, name", [
    ("BettiTable(2, {(0, 1): x})", "Betti number"),
    ("macaulay_rep(x, 1)", "a"),
    ("MonomialIdeal(1, [(x,)])", "generator"),
    ("is_o_sequence((1, x))", "m"),
    ("count_strongly_stable(2, 2, budget=x)", "budget"),
])
def test_bool_is_not_an_integer(call, name):
    # True is an int to isinstance; stored, it would print as True
    message = _message(call, True)
    assert message is not None and message.startswith(name + " "), message


def test_macaulay_cache_does_not_answer_a_float():
    # 5.0 == 5 and both hash alike, so an untyped cache would return the
    # entry of the integer
    assert sb.macaulay_rep(5, 2).ks == (3, 2)
    with pytest.raises(sb.DomainError, match="a must be an integer"):
        sb.macaulay_rep(5.0, 2)
