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
