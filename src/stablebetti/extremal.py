"""Deciding and realizing prescribed extremal Betti numbers.

A profile lists corners (i_p, j_p, b_p) with strictly increasing column
indices i_p and strictly decreasing row degrees j_p.  The numerical
feasibility test and the constructive witness (a sum of lexsegment ideals
in nested leading subrings) both live here; characteristic 0 is implicit
throughout, since the decision transfers from arbitrary homogeneous
ideals to strongly stable ones only there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .betti import betti_from_counts, extremal_corners
from .constructions import subring_lexsegment
from .errors import DomainError, InfeasibleProfileError, _checked_int, _checked_ints
from .ideals import GeneratorMatrix, MonomialIdeal, class_degree_counts, is_stable
from .macaulay import macaulay_shift
from .monomials import class_size, divides
from .oracle import oracle_betti


@dataclass(frozen=True)
class ExtremalProfile:
    """Corner positions and values: triples (i_p, j_p, b_p), p = 1..k,
    with 0 < i_1 < ... < i_k < n, j_1 > ... > j_k > 0 and b_p >= 1."""

    n: int
    triples: tuple

    def __post_init__(self):
        triples = tuple(_checked_ints("corner", t, 3) for t in self.triples)
        object.__setattr__(self, "triples", triples)
        if not triples:
            raise DomainError("empty profile")
        _checked_int("n", self.n, 2)
        iis = [i for i, _, _ in triples]
        jjs = [j for _, j, _ in triples]
        bbs = [b for _, _, b in triples]
        if any(i2 <= i1 for i1, i2 in zip(iis, iis[1:])):
            raise DomainError("corner columns must be strictly increasing")
        if not 0 < iis[0] or not iis[-1] < self.n:
            raise DomainError(f"corner columns must lie strictly between 0 and n={self.n}")
        if any(j2 >= j1 for j1, j2 in zip(jjs, jjs[1:])):
            raise DomainError("corner row degrees must be strictly decreasing")
        if jjs[-1] < 1:
            raise DomainError(
                "corner row degrees must be strictly positive: degree-0 corners are "
                "outside the scope of this construction"
            )
        if any(b < 1 for b in bbs):
            raise DomainError("corner values must be positive")

    @property
    def k(self):
        return len(self.triples)

    @classmethod
    def from_triples(cls, n, triples):
        """Build a profile, accepting the triples in any order."""
        return cls(n, tuple(sorted(triples)))


@dataclass(frozen=True)
class ProfileInequality:
    p: int
    label: str
    lhs: int
    rhs: int

    @property
    def ok(self):
        return self.lhs <= self.rhs


@dataclass(frozen=True)
class ProfileCheck:
    checks: tuple

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]


def forced_counts(profile: ExtremalProfile) -> dict:
    """For p = k-1..1: the number of top-class monomials already present
    in degree j_p before corner p adds its own generators, when the lower
    corners are realized as small as possible.

    Starting from t_k = b_k, the degree-j_{p+1} slice of the minimal
    witness has class counts t_{p+1} shifted down (the smallest strongly
    stable space with t_{p+1} top-class monomials).  Stored as the only
    row of a matrix of generators in i_p + 1 variables, its rows above
    follow the stabilization rule; forced_p is entry i_p of row j_p, and
    corner p then needs b_p on top: t_p = forced_p + b_p.  Returned as a
    map p -> forced_p.

    Note the shifts are taken of the accumulated totals t_{p+1}, not of
    b_{p+1} alone: with three or more corners the lower chain forces
    strictly more than the bottom value suggests, and exhaustive search
    confirms profiles admissible for the b-only reading but not for this
    one are in fact unrealizable.
    """
    t = profile.triples
    k = profile.k
    forced = {}
    total = t[-1][2]
    for p in range(k - 1, 0, -1):
        i_p, j_p, b_p = t[p - 1]
        i_next, j_next, _ = t[p]
        row = tuple(macaulay_shift(total, i_next, c - i_next) for c in range(i_p + 1))
        forced[p] = GeneratorMatrix(i_p + 1, j_next, (row,)).row(j_p)[i_p]
        total = forced[p] + b_p
    return forced


def check_profile(profile: ExtremalProfile) -> ProfileCheck:
    """Numerical feasibility of a profile: one side per corner, p = 1..k.

    Side p reads lhs = forced_p + b_p <= binom(i_p + j_p - 1, i_p), the
    size of class i_p + 1 in degree j_p, with forced_p the monomials the
    chain below already puts there (see forced_counts) and forced_k = 0:
    the last corner must fit its class alone.  The lhs of side p is the
    number of top-class monomials the witness holds at corner p, so
    nested_lex_ideal reads its segment sizes off these sides.
    """
    forced = forced_counts(profile)
    checks = []
    for p, (i_p, j_p, b_p) in enumerate(profile.triples, 1):
        label = f"forced count {forced[p]} plus b_{p}" if p in forced else f"b_{p}"
        checks.append(
            ProfileInequality(
                p,
                f"{label} within class {i_p + 1} at degree {j_p}",
                forced.get(p, 0) + b_p,
                class_size(i_p + 1, j_p),
            )
        )
    return ProfileCheck(tuple(checks))


def nested_lex_ideal(profile: ExtremalProfile) -> MonomialIdeal:
    """Constructive witness for a feasible profile, built from the bottom
    corner up: for each corner p, the leading-subring lexsegment of
    degree j_p in the first i_p + 1 variables with as many top-class
    monomials as the lhs of the verdict's side p, the forced count plus
    b_p.  It extends the segment the corners below force, so it adds
    exactly b_p new top-class generators.  The result is a sum of
    lexsegment ideals, and its extremal corners are exactly the profile.
    """
    verdict = check_profile(profile)
    if not verdict.ok:
        bad = verdict.failures()[0]
        raise InfeasibleProfileError(
            f"profile is not realizable by any homogeneous ideal: "
            f"corner p={bad.p} needs {bad.lhs} <= {bad.rhs}",
            check=verdict,
        )
    gens = []
    for (i_p, j_p, _), side in zip(reversed(profile.triples), reversed(verdict.checks)):
        # the segment lies in degree j_p, above every generator so far, so
        # its elements outside the ideal are exactly the new minimal ones
        segment = subring_lexsegment(i_p + 1, side.lhs, j_p, profile.n)
        gens += [u for u in segment if not any(divides(g, u) for g in gens)]
    return MonomialIdeal(profile.n, gens)


def verify_profile(I: MonomialIdeal, profile: ExtremalProfile) -> bool:
    """Whether the computed extremal corners of I are exactly the
    profile's triples."""
    if I.n != profile.n:
        return False
    if is_stable(I):
        table = betti_from_counts(class_degree_counts(I.gens), I.n)
    else:
        table = oracle_betti(I)
    return tuple(extremal_corners(table)) == profile.triples
