"""Exhaustive generation of strongly stable ideals and targeted searches.

A strongly stable ideal with generators in degrees <= dmax is the same
thing as a chain of monomial sets B_1 <= ... <= B_dmax where each B_d is
closed under the exchange moves x_j -> x_i (i < j) inside degree d and
contains the shadow x_1 B_{d-1} + ... + x_n B_{d-1}.  The walk below
enumerates such chains degree by degree; per degree, the exchange-closed
supersets of the shadow are enumerated by a bitmask DFS over the
monomials in descending order (an exchange move always produces an
earlier monomial, so a monomial may enter only once its movers are in).

Searches prune with per-degree, per-class counts of new generators (the
elements of B_d outside the shadow).  A generator-matrix target pins
them through m_{i,d} = mu_{i,d} - sum_{q<=i} mu_{q,d-1}, an extremal
profile pins some of them directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .betti import corners_from_counts
from .errors import DEFAULT_BUDGET, BudgetExceededError, DomainError
from .ideals import GeneratorMatrix, MonomialIdeal, class_degree_counts, new_generator_row
from .monomials import deglex_key, enumerate_degree, max_index

DEFAULT_ENUM_N = 4
DEFAULT_ENUM_DMAX = 5


class _Layer:
    """Degree slice of the monomial poset with precomputed move masks."""

    __slots__ = ("n", "d", "mons", "index", "parents", "cls", "class_masks", "mult")

    def __init__(self, n, d):
        self.n = n
        self.d = d
        self.mons = enumerate_degree(n, d)
        self.index = {u: t for t, u in enumerate(self.mons)}
        self.parents = []
        self.cls = [max_index(u) for u in self.mons]
        for u in self.mons:
            mask = 0
            for j in range(2, n + 1):
                if u[j - 1]:
                    w = list(u)
                    w[j - 1] -= 1
                    w[j - 2] += 1
                    mask |= 1 << self.index[tuple(w)]
            self.parents.append(mask)
        # class_masks[i-1]: the positions of the monomials with max index i
        self.class_masks = [0] * n
        for t, i in enumerate(self.cls):
            self.class_masks[i - 1] |= 1 << t
        self.mult = None  # filled when the next layer exists


_layers = {}


def _layer(n, d) -> _Layer:
    key = (n, d)
    if key not in _layers:
        _layers[key] = _Layer(n, d)
    return _layers[key]


def _linked_layers(n, dmax) -> list:
    """The layers of degrees 1..dmax, each with the multiplication masks
    into the next."""
    layers = [_layer(n, d) for d in range(1, dmax + 1)]
    for layer, nxt in zip(layers, layers[1:]):
        if layer.mult is None:
            mult = []
            for u in layer.mons:
                mask = 0
                for t in range(layer.n):
                    w = list(u)
                    w[t] += 1
                    mask |= 1 << nxt.index[tuple(w)]
                mult.append(mask)
            layer.mult = mult
    return layers


def _shadow(layer: _Layer, mask: int) -> int:
    out = 0
    mult = layer.mult
    while mask:
        low = mask & -mask
        out |= mult[low.bit_length() - 1]
        mask ^= low
    return out


def _filters(layer: _Layer, base: int, spec):
    """Yield every exchange-closed superset of base whose new elements
    (those outside base) match spec in each class (entries: exact int or
    None for free; a negative entry admits no set), depth first with
    exclusion before inclusion."""
    n = layer.n
    size = len(layer.mons)
    cls = layer.cls
    parents = layer.parents
    if spec is None:
        spec = [None] * n
    # free[c]: positions of class c+1 outside base, the elements a step can add
    free = [mask & ~base for mask in layer.class_masks]
    if any(tgt is not None and not 0 <= tgt <= f.bit_count() for tgt, f in zip(spec, free)):
        return
    # Along a path the counts only rise and the free elements left only
    # fall, so a step can break only the target of the class it touches,
    # and only a positive one; including an element keeps their sum and
    # needs no check.  Include branches wait on the stack as (next
    # position, set, counts) and are taken once the exclude branch below
    # them is done.
    stack = [(0, base, [0] * n)]
    while stack:
        t, cur, cnt = stack.pop()
        while t < size:
            bit = 1 << t
            if base & bit:
                t += 1
                continue
            c = cls[t] - 1
            tgt = spec[c]
            if parents[t] & ~cur == 0 and (tgt is None or cnt[c] < tgt):
                inc = cnt[:]
                inc[c] += 1
                stack.append((t + 1, cur | bit, inc))
            t += 1
            if tgt and cnt[c] + (free[c] >> t).bit_count() < tgt:
                break
        else:
            yield cur


def _chains(n, dmax, spec_for):
    """Yield the minimal generators (as monomials) of every chain of
    exchange-closed sets for d = 1..dmax, depth first.

    spec_for(d) supplies the per-class new-generator counts for degree d
    (or None).
    """
    layers = _linked_layers(n, dmax)

    def rec(di, shadow_mask, gens):
        if di == dmax:
            yield gens
            return
        layer = layers[di]
        for mask in _filters(layer, shadow_mask, spec_for(di + 1)):
            added = []
            m = mask & ~shadow_mask
            while m:
                low = m & -m
                added.append(layer.mons[low.bit_length() - 1])
                m ^= low
            nxt_shadow = _shadow(layer, mask) if di + 1 < dmax else 0
            yield from rec(di + 1, nxt_shadow, gens + added)

    return rec(0, 0, [])


def _budgeted(chains, budget, message):
    """The nonempty chains, raising BudgetExceededError(message) at the
    first one past the budget."""
    seen = 0
    for gens in chains:
        if gens:
            if seen >= budget:
                raise BudgetExceededError(message, partial_count=seen)
            seen += 1
            yield gens


def _canonical_key(gens):
    return (max(sum(g) for g in gens), tuple(deglex_key(g) for g in gens))


def _ideal_chains(n, dmax, budget):
    """The budgeted, unconstrained walk behind enumeration and counting."""
    if n < 1 or dmax < 1:
        raise DomainError("need n >= 1 and dmax >= 1")
    if budget is None and (n > DEFAULT_ENUM_N or dmax > DEFAULT_ENUM_DMAX):
        raise BudgetExceededError(
            f"default budget covers n <= {DEFAULT_ENUM_N}, dmax <= {DEFAULT_ENUM_DMAX}; "
            "pass an explicit budget to enumerate further",
            partial_count=0,
        )
    cap = budget if budget is not None else DEFAULT_BUDGET
    return _budgeted(
        _chains(n, dmax, lambda d: None), cap,
        f"enumeration exceeded the budget of {cap} ideals",
    )


def enumerate_strongly_stable(n, dmax, budget=None):
    """Yield every nonzero strongly stable ideal in n variables whose
    minimal generators all have degree <= dmax, each exactly once, in a
    canonical order: by maximal generator degree, then lexicographically
    on the generator lists read by ascending degree and, within a degree,
    by descending deglex.

    The default budget covers n <= 4 and dmax <= 5; pass an explicit
    budget to go further.  Exceeding the budget raises
    BudgetExceededError carrying the partial count.
    """
    for gens in sorted(_ideal_chains(n, dmax, budget), key=_canonical_key):
        yield MonomialIdeal(n, gens)


def count_strongly_stable(n, dmax, budget=None) -> int:
    """Number of ideals enumerate_strongly_stable would yield, without
    materializing them."""
    return sum(1 for _ in _ideal_chains(n, dmax, budget))


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a bounded search: the first hit, or a none-report that
    is a genuine non-existence certificate when the bounds provably cover
    every candidate."""

    found: object  # MonomialIdeal or None
    certified: bool
    examined: int
    note: str = ""

    @property
    def ok(self):
        return self.found is not None


def search_matrix(M: GeneratorMatrix, dmax=None, budget=DEFAULT_BUDGET) -> SearchOutcome:
    """First strongly stable ideal whose matrix of generators equals M.

    Any such ideal has all generators within the degree range of the
    canonical matrix, so searching through its last row degree is
    complete and a miss is a certificate.
    """
    if dmax is not None and dmax < 1:
        raise DomainError(f"dmax={dmax} must be at least 1")
    canon = M.canonical()
    if not canon.rows:
        raise DomainError("zero matrix: nothing to search for")
    jmax = canon.jmax
    depth = jmax if dmax is None else min(dmax, jmax)
    certified = depth >= jmax

    # the shadow of a chain matching rows 1..d-1 holds the prefix sums of
    # row d-1, so the new generators pin row d; once depth reaches the
    # last row each chain has exactly this matrix
    pins = {d: new_generator_row(canon, d) for d in range(1, depth + 1)}
    chains = _budgeted(
        _chains(canon.n, depth, pins.__getitem__), budget,
        f"matrix search exceeded the budget of {budget} candidates",
    )
    examined = 0
    for examined, gens in enumerate(chains, 1):
        if certified:
            return SearchOutcome(MonomialIdeal(canon.n, gens), True, examined)
    note = (
        "no strongly stable ideal has this matrix of generators"
        if certified
        else f"none found with generator degrees <= {depth} (bounded search)"
    )
    return SearchOutcome(None, certified, examined, note)


def _profile_specs(profile, dmax):
    n = profile.n
    specs = {d: [None] * n for d in range(1, dmax + 1)}
    j1 = profile.triples[0][1]
    for d in range(j1 + 1, dmax + 1):
        specs[d] = [0] * n
    for (ip, jp, bp) in profile.triples:
        for d in range(1, dmax + 1):
            for i in range(1, n + 1):
                # class i at degree d feeds the table position (i-1, d)
                if i - 1 >= ip and d >= jp and (i - 1, d) != (ip, jp):
                    specs[d][i - 1] = 0
    for (ip, jp, bp) in profile.triples:
        if jp <= dmax:
            specs[jp][ip] = bp
    return specs


def search_extremal_profile(profile, dmax, budget=DEFAULT_BUDGET) -> SearchOutcome:
    """First strongly stable ideal whose extremal corners are exactly the
    profile.  Requires dmax >= the profile's largest row degree j_1; the
    search is then complete, because the top nonzero row of a Betti table
    always contains an extremal corner, so a realizing ideal cannot have
    generators above degree j_1.
    """
    j1 = profile.triples[0][1]
    if dmax < j1:
        raise DomainError(f"dmax={dmax} must be at least the largest corner degree {j1}")
    specs = _profile_specs(profile, dmax)
    chains = _budgeted(
        _chains(profile.n, dmax, lambda d: specs[d]), budget,
        f"profile search exceeded the budget of {budget} candidates",
    )
    examined = 0
    for examined, gens in enumerate(chains, 1):
        if tuple(corners_from_counts(class_degree_counts(gens))) == profile.triples:
            return SearchOutcome(MonomialIdeal(profile.n, gens), True, examined)
    return SearchOutcome(
        None, True, examined,
        "no strongly stable ideal (hence, in characteristic 0, no homogeneous "
        "ideal) has exactly these extremal corners",
    )


def random_strongly_stable(n, dmax, rng: random.Random) -> MonomialIdeal:
    """A random nonzero strongly stable ideal with generator degrees
    <= dmax, drawn by extending a random chain degree by degree with up
    to three new generators per degree."""
    if n < 1 or dmax < 1:
        raise DomainError("need n >= 1 and dmax >= 1")
    layers = _linked_layers(n, dmax)
    while True:
        gens = []
        mask = 0
        for di, layer in enumerate(layers):
            base = mask
            cur = base
            want = rng.randint(0, 3)
            for _ in range(want):
                addable = [
                    t
                    for t in range(len(layer.mons))
                    if not (cur >> t) & 1 and layer.parents[t] & ~cur == 0
                ]
                if not addable:
                    break
                t = rng.choice(addable)
                cur |= 1 << t
                gens.append(layer.mons[t])
            mask = _shadow(layer, cur) if di + 1 < dmax else 0
        if gens:
            return MonomialIdeal(n, gens)
