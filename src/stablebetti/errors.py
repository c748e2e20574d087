"""Exception taxonomy shared across the package.

CLI exit-code mapping: MalformedInputError and DomainError map to exit 2,
BudgetExceededError to exit 3; semantic negatives (failed checks, empty
searches, infeasible profiles) are ordinary results mapping to exit 1.
"""


class StableBettiError(Exception):
    pass


class MalformedInputError(StableBettiError, ValueError):
    """Unparseable file or command-line input."""


class DomainError(StableBettiError, ValueError):
    """Well-formed input outside an operation's precondition."""


def _checked_int(name, x, lo=0, hi=None) -> int:
    """x, when it is an integer in lo..hi (no bound where lo or hi is
    None); otherwise a DomainError naming the argument and its bound.
    The library's count, degree and index arguments pass here, so a
    float is refused rather than truncated or walked forever, and so is
    a bool, which would print as True."""
    if type(x) is int and (lo is None or lo <= x) and (hi is None or x <= hi):
        return x
    bound = "" if lo is None else f" >= {lo}" if hi is None else f" in {lo}..{hi}"
    raise DomainError(f"{name} must be an integer{bound}, got {x!r}")


def _checked_ints(name, v, length=None) -> tuple:
    """v as a nonempty tuple of nonnegative integers, of the given length
    when one is given; otherwise a DomainError naming the argument and
    the tuple."""
    v = tuple(v)
    if length is not None and len(v) != length:
        raise DomainError(f"{name} {v} has {len(v)} entries, not {length}")
    if not v:
        raise DomainError(f"{name} is empty")
    for x in v:
        if type(x) is not int:
            raise DomainError(f"{name} {v} has a non-integer entry {x!r}")
        if x < 0:
            raise DomainError(f"{name} {v} has a negative entry {x}")
    return v


class UnitIdealError(DomainError):
    """The monomial 1 was offered as a generator."""


class NotStableError(DomainError):
    """Operation requires a (strongly) stable ideal."""


class InfeasibleProfileError(StableBettiError):
    """No homogeneous ideal realizes the requested extremal profile.

    Carries the failed numerical check in .check (a ProfileCheck).
    """

    def __init__(self, message, check=None):
        super().__init__(message)
        self.check = check


# Default of every budget: ideals enumerated or counted, or multidegrees
# the oracle scans.  Searches take no budget.
DEFAULT_BUDGET = 2 * 10**6


class BudgetExceededError(StableBettiError, RuntimeError):
    """An enumeration, count or oracle run hit its resource budget."""

    def __init__(self, message, partial_count=None):
        super().__init__(message)
        self.partial_count = partial_count
