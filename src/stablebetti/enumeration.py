"""Exhaustive generation of strongly stable ideals and targeted searches.

A strongly stable ideal with generators in degrees <= dmax is the same
thing as a chain of monomial sets B_1 <= ... <= B_dmax where each B_d is
closed under the exchange moves x_j -> x_i (i < j) inside degree d and
contains the shadow x_1 B_{d-1} + ... + x_n B_{d-1}.  The walk below
enumerates such chains degree by degree; per degree, the exchange-closed
supersets of the shadow are enumerated by a bitmask DFS over the
monomials in descending order (an exchange move always produces an
earlier monomial, so a monomial may enter only once its movers are in).

Searches prune with per-degree, per-class count constraints: exact totals
for generator-matrix targets, exact new-generator counts for extremal
profiles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .betti import corners_from_counts
from .errors import BudgetExceededError, DomainError
from .ideals import GeneratorMatrix, MonomialIdeal, class_degree_counts, generator_matrix
from .monomials import deglex_key, enumerate_degree, max_index

DEFAULT_ENUM_N = 4
DEFAULT_ENUM_DMAX = 5
DEFAULT_BUDGET = 2 * 10**6


class _Layer:
    """Degree slice of the monomial poset with precomputed move masks."""

    __slots__ = ("n", "d", "mons", "index", "parents", "cls", "mult", "suffix_all")

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
        self.mult = None  # filled when the next layer exists
        # suffix_all[t][i-1]: elements of class i at positions >= t
        size = len(self.mons)
        suffix = [[0] * n for _ in range(size + 1)]
        for t in range(size - 1, -1, -1):
            row = suffix[t + 1][:]
            row[self.cls[t] - 1] += 1
            suffix[t] = row
        self.suffix_all = suffix


_layers = {}


def _layer(n, d) -> _Layer:
    key = (n, d)
    if key not in _layers:
        _layers[key] = _Layer(n, d)
    return _layers[key]


def _link(layer: _Layer, nxt: _Layer):
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


def _shadow(layer: _Layer, mask: int) -> int:
    out = 0
    mult = layer.mult
    while mask:
        low = mask & -mask
        out |= mult[low.bit_length() - 1]
        mask ^= low
    return out


def _walk_filters(layer: _Layer, base: int, spec, count_new: bool, visit):
    """Call visit(mask) for every exchange-closed superset of base whose
    per-class counts match spec (entries: exact int or None for free).
    Counting covers the whole set, or only elements outside base when
    count_new is set.  visit returning True aborts the walk."""
    n = layer.n
    size = len(layer.mons)
    cls = layer.cls
    parents = layer.parents
    if spec is None:
        spec = [None] * n
    # remaining countable elements per class in positions >= t
    if count_new:
        suffix = [[0] * n for _ in range(size + 1)]
        for t in range(size - 1, -1, -1):
            row = suffix[t + 1][:]
            if not (base >> t) & 1:
                row[cls[t] - 1] += 1
            suffix[t] = row
    else:
        suffix = layer.suffix_all
    cnt = [0] * n

    def feasible(t):
        for i in range(n):
            tgt = spec[i]
            if tgt is None:
                continue
            if cnt[i] > tgt or cnt[i] + suffix[t][i] < tgt:
                return False
        return True

    def rec(t, cur):
        if not feasible(t):
            return False
        if t == size:
            return visit(cur)
        c = cls[t] - 1
        bit = 1 << t
        if base & bit:
            if not count_new:
                cnt[c] += 1
                stop = rec(t + 1, cur | bit)
                cnt[c] -= 1
            else:
                stop = rec(t + 1, cur | bit)
            return stop
        # exclude
        if rec(t + 1, cur):
            return True
        # include, if every exchange target is already in
        if parents[t] & ~cur == 0:
            tgt = spec[c]
            if tgt is None or cnt[c] < tgt:
                cnt[c] += 1
                stop = rec(t + 1, cur | bit)
                cnt[c] -= 1
                return stop
        return False

    rec(0, 0)


def _walk_chains(n, dmax, spec_for, count_new, visit_gens):
    """DFS over chains of exchange-closed sets for d = 1..dmax.

    spec_for(d) supplies the per-class constraint for degree d (or None).
    visit_gens receives the list of minimal generators (as monomials) of
    each completed chain; returning True aborts the walk.
    """
    layers = [_layer(n, d) for d in range(1, dmax + 1)]
    for a, b in zip(layers, layers[1:]):
        _link(a, b)
    aborted = False

    def rec(di, shadow_mask, gens):
        nonlocal aborted
        if aborted:
            return
        if di == dmax:
            if visit_gens(gens):
                aborted = True
            return
        layer = layers[di]

        def take(mask):
            new_bits = mask & ~shadow_mask
            added = []
            m = new_bits
            while m:
                low = m & -m
                added.append(layer.mons[low.bit_length() - 1])
                m ^= low
            nxt_shadow = _shadow(layer, mask) if di + 1 < dmax else 0
            rec(di + 1, nxt_shadow, gens + added)
            return aborted

        _walk_filters(layer, shadow_mask, spec_for(di + 1), count_new, take)

    rec(0, 0, [])


def _canonical_key(gens):
    return (max(sum(g) for g in gens), tuple(deglex_key(g) for g in gens))


def _enum_cap(n, dmax, budget):
    if n < 1 or dmax < 1:
        raise DomainError("need n >= 1 and dmax >= 1")
    if budget is None and (n > DEFAULT_ENUM_N or dmax > DEFAULT_ENUM_DMAX):
        raise BudgetExceededError(
            f"default budget covers n <= {DEFAULT_ENUM_N}, dmax <= {DEFAULT_ENUM_DMAX}; "
            "pass an explicit budget to enumerate further",
            partial_count=0,
        )
    return budget if budget is not None else DEFAULT_BUDGET


def enumerate_strongly_stable(n, dmax, budget=None):
    """Yield every nonzero strongly stable ideal in n variables whose
    minimal generators all have degree <= dmax, each exactly once, in a
    canonical order: by maximal generator degree, then lexicographically
    on the descending generator lists.

    The default budget covers n <= 4 and dmax <= 5; pass an explicit
    budget to go further.  Exceeding the budget raises
    BudgetExceededError carrying the partial count.
    """
    cap = _enum_cap(n, dmax, budget)
    collected = []

    def visit(gens):
        if gens:
            collected.append(tuple(gens))
            if len(collected) > cap:
                raise BudgetExceededError(
                    f"enumeration exceeded the budget of {cap} ideals",
                    partial_count=len(collected) - 1,
                )
        return False

    _walk_chains(n, dmax, lambda d: None, False, visit)
    collected.sort(key=_canonical_key)
    for gens in collected:
        yield MonomialIdeal(n, gens)


def count_strongly_stable(n, dmax, budget=None) -> int:
    """Number of ideals enumerate_strongly_stable would yield, without
    materializing them."""
    cap = _enum_cap(n, dmax, budget)
    seen = 0

    def visit(gens):
        nonlocal seen
        if gens:
            seen += 1
            if seen > cap:
                raise BudgetExceededError(
                    f"enumeration exceeded the budget of {cap} ideals",
                    partial_count=seen - 1,
                )
        return False

    _walk_chains(n, dmax, lambda d: None, False, visit)
    return seen


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
    canon = M.canonical()
    if not canon.rows:
        raise DomainError("zero matrix: nothing to search for")
    jmax = canon.jmax
    depth = jmax if dmax is None else min(dmax, jmax)
    certified = depth >= jmax

    def spec_for(d):
        if d > jmax:
            return [0] * canon.n
        return list(canon.row(d))

    examined = 0
    hit = []

    def visit(gens):
        nonlocal examined
        if not gens:
            return False
        examined += 1
        if examined > budget:
            raise BudgetExceededError(
                f"matrix search exceeded the budget of {budget} candidates",
                partial_count=examined - 1,
            )
        ideal = MonomialIdeal(canon.n, gens)
        if generator_matrix(ideal) == canon:
            hit.append(ideal)
            return True
        return False

    _walk_chains(canon.n, depth, spec_for, False, visit)
    if hit:
        return SearchOutcome(hit[0], True, examined)
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
    target = profile.triples
    examined = 0
    hit = []

    def visit(gens):
        nonlocal examined
        examined += 1
        if examined > budget:
            raise BudgetExceededError(
                f"profile search exceeded the budget of {budget} candidates",
                partial_count=examined - 1,
            )
        if tuple(corners_from_counts(class_degree_counts(gens))) == target:
            hit.append(MonomialIdeal(profile.n, gens))
            return True
        return False

    _walk_chains(profile.n, dmax, lambda d: specs[d], True, visit)
    if hit:
        return SearchOutcome(hit[0], True, examined)
    return SearchOutcome(
        None, True, examined,
        "no strongly stable ideal (hence, in characteristic 0, no homogeneous "
        "ideal) has exactly these extremal corners",
    )


def random_strongly_stable(n, dmax, rng: random.Random, max_new=3) -> MonomialIdeal:
    """A random nonzero strongly stable ideal with generator degrees
    <= dmax, drawn by extending a random chain degree by degree."""
    if n < 1 or dmax < 1:
        raise DomainError("need n >= 1 and dmax >= 1")
    layers = [_layer(n, d) for d in range(1, dmax + 1)]
    for a, b in zip(layers, layers[1:]):
        _link(a, b)
    while True:
        gens = []
        mask = 0
        for di, layer in enumerate(layers):
            base = mask
            cur = base
            want = rng.randint(0, max_new)
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
