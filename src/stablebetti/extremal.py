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

from .betti import corners_from_counts, extremal_corners
from .constructions import subring_lexsegment
from .errors import DomainError, InfeasibleProfileError, StableBettiError, _checked_int, _checked_ints
from .ideals import MonomialIdeal, class_degree_counts, counts_to_matrix, is_stable
from .macaulay import iterated_cumsum_last, macaulay_shift
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


def _shifted_counts(b, i, length) -> tuple:
    """The first length class counts of the smallest strongly stable space
    with b monomials in top class i + 1: shifts of b at index i."""
    return tuple(macaulay_shift(b, i, t - 1 - i) for t in range(1, length + 1))


def witness_count_vector(profile: ExtremalProfile, p: int) -> tuple:
    """For 2 <= p <= k: the count vector, truncated to the first
    i_{p-1} + 1 entries, of the smallest strongly stable ideal whose
    top class i_p + 1 carries b_p generators in degree j_p."""
    _checked_int("p", p, 2, profile.k)
    i_p, _, b_p = profile.triples[p - 1]
    return _shifted_counts(b_p, i_p, profile.triples[p - 2][0] + 1)


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
    profile: ExtremalProfile
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
    stable space with t_{p+1} top-class monomials); iterated prefix sums
    carry them up j_p - j_{p+1} degrees, and corner p then needs b_p on
    top: t_p = forced_p + b_p.  Returned as a map p -> forced_p.

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
        forced[p] = iterated_cumsum_last(_shifted_counts(total, i_next, i_p + 1), j_p - j_next)
        total = forced[p] + b_p
    return forced


def check_profile(profile: ExtremalProfile) -> ProfileCheck:
    """Numerical feasibility of a profile.

    The last corner must fit its class, b_k <= binom(i_k + j_k - 1, i_k),
    and climbing from corner p+1 to corner p the monomials forced by the
    chain below (see forced_counts) plus the requested b_p must still
    fit: lhs <= binom(i_p + j_p - 1, i_p).
    """
    t = profile.triples
    k = profile.k
    checks = []
    i_k, j_k, b_k = t[-1]
    checks.append(
        ProfileInequality(k, f"b_{k} within class {i_k + 1} at degree {j_k}", b_k, class_size(i_k + 1, j_k))
    )
    forced = forced_counts(profile)
    for p in range(k - 1, 0, -1):
        i_p, j_p, b_p = t[p - 1]
        checks.append(
            ProfileInequality(
                p,
                f"forced count {forced[p]} plus b_{p} within class {i_p + 1} at degree {j_p}",
                forced[p] + b_p,
                class_size(i_p + 1, j_p),
            )
        )
    return ProfileCheck(profile, tuple(reversed(checks)))


def nested_lex_ideal(profile: ExtremalProfile) -> MonomialIdeal:
    """Constructive witness for a feasible profile: starting from the
    bottom corner take the leading-subring lexsegment with b_k top-class
    generators in degree j_k, then for each higher corner add the
    leading-subring lexsegment of degree j_p that extends the forced
    segment by exactly b_p new top-class generators.  The result is a sum
    of lexsegment ideals generated in degree j_p inside the first
    i_p + 1 variables, and its extremal corners are exactly the profile.
    """
    verdict = check_profile(profile)
    if not verdict.ok:
        bad = verdict.failures()[0]
        raise InfeasibleProfileError(
            f"profile is not realizable by any homogeneous ideal: "
            f"corner p={bad.p} needs {bad.lhs} <= {bad.rhs}",
            check=verdict,
        )
    t = profile.triples
    k = profile.k
    i_k, j_k, b_k = t[-1]
    gens = subring_lexsegment(i_k + 1, b_k, j_k, profile.n)
    forced = forced_counts(profile)
    for p in range(k - 1, 0, -1):
        i_p, j_p, b_p = t[p - 1]
        # ground truth for the forced count: top-class monomials already
        # present in this degree, read off the generator counts of the
        # witness (strongly stable at every step) by the Eliahou-Kervaire
        # recursion
        present = counts_to_matrix(class_degree_counts(gens), profile.n).row(j_p)[i_p]
        if present != forced[p]:
            raise StableBettiError(
                f"the witness breaks the forced count at corner p={p}: "
                f"{present} top-class monomials present, forced_counts gives {forced[p]}"
            )
        # the segment lies in degree j_p, above every generator so far, so
        # its elements outside the ideal are exactly the new minimal ones
        segment = subring_lexsegment(i_p + 1, present + b_p, j_p, profile.n)
        gens += [u for u in segment if not any(divides(g, u) for g in gens)]
    return MonomialIdeal(profile.n, gens)


def verify_profile(I: MonomialIdeal, profile: ExtremalProfile) -> bool:
    """Whether the computed extremal corners of I are exactly the
    profile's triples."""
    if I.n != profile.n:
        return False
    if is_stable(I):
        corners = corners_from_counts(class_degree_counts(I.gens))
    else:
        corners = extremal_corners(oracle_betti(I))
    return tuple(corners) == profile.triples
