"""Exhaustive generation of strongly stable ideals and targeted searches.

A strongly stable ideal with generators in degrees <= dmax is the same
thing as a chain of monomial sets B_1 <= ... <= B_dmax where each B_d is
closed under the exchange moves x_j -> x_i (i < j) inside degree d and
contains the shadow x_1 B_{d-1} + ... + x_n B_{d-1}.  The walk below
is a recursion over (degree, shadow): for each exchange-closed superset
of the shadow it hands the set's own shadow to the next degree.  Per
degree, those supersets are enumerated by a bitmask DFS over the
monomials in descending order (an exchange move always produces an
earlier monomial, so a monomial may enter only once its movers are in).
What a (degree, shadow) pair yields depends on nothing else, so a pair
that yielded no chain is dead and is not walked again.  Without pins
every pair yields at least the chain that adds nothing, so only a
search ever meets a dead pair.

Counting does not visit each chain.  What a chain can become above
degree d depends only on the shadow it hands to degree d + 1, so the
number of chains above each (degree, shadow) pair is computed once per
call and reused (the transfer-matrix method).  The lower degrees list
their sets, whose shadows key that memo; the top degree lists none and
counts its sets in one pass over the positions, keeping only what later
exchange tests read (frontier-based counting, as in decision-diagram
construction).

Searches prune with per-degree, per-class counts of new generators (the
elements of B_d outside the shadow).  A generator-matrix target pins
them through m_{i,d} = mu_{i,d} - sum_{q<=i} mu_{q,d-1}; an extremal
profile pins each of them to its corner value, to free or to zero.  The
pins alone decide a hit, so either search answers with the walk's first
chain.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import DEFAULT_BUDGET, BudgetExceededError, DomainError
from .ideals import GeneratorMatrix, MonomialIdeal, new_generator_row
from .monomials import deglex_key, enumerate_degree, max_index, swap_variable

DEFAULT_ENUM_N = 4
DEFAULT_ENUM_DMAX = 5


class _Layer:
    """Degree slice of the monomial poset with precomputed move masks."""

    __slots__ = ("n", "mons", "index", "parents", "need", "cls", "class_masks", "mult")

    def __init__(self, n, d):
        self.n = n
        self.mons = enumerate_degree(n, d)
        self.index = {u: t for t, u in enumerate(self.mons)}
        self.parents = []
        self.cls = [max_index(u) for u in self.mons]
        for u in self.mons:
            mask = 0
            for j in range(2, n + 1):
                if u[j - 1]:
                    mask |= 1 << self.index[swap_variable(u, j, j - 1)]
            self.parents.append(mask)
        # need[t]: the positions a parents test at t or later reads
        self.need = [0] * (len(self.mons) + 1)
        for t in range(len(self.mons) - 1, -1, -1):
            self.need[t] = self.need[t + 1] | self.parents[t]
        # class_masks[i-1]: the positions of the monomials with max index i
        self.class_masks = [0] * n
        for t, i in enumerate(self.cls):
            self.class_masks[i - 1] |= 1 << t
        self.mult = None  # filled when the next layer exists


# Layers of at most this many monomials stay cached for the life of the
# process: every layer within the default enumeration caps and every one
# that bench/ times (at most 210 monomials), with room to spare.  A larger
# layer is built per call, so one deep search leaves no residue behind.
_CACHED_LAYER_SIZE = 1024

_layers = {}


def _layer(n, d) -> _Layer:
    layer = _layers.get((n, d))
    if layer is None:
        layer = _Layer(n, d)
        if len(layer.mons) <= _CACHED_LAYER_SIZE:
            _layers[(n, d)] = layer
    return layer


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
    cls = layer.cls
    parents = layer.parents
    if spec is None:
        spec = (None,) * layer.n
    else:
        # free[c]: positions of class c+1 outside base, the elements a step can add
        free = [mask & ~base for mask in layer.class_masks]
        if any(tgt is not None and not 0 <= tgt <= f.bit_count() for tgt, f in zip(spec, free)):
            return
    # A pinned class's count on a path is (cur & free[c]).bit_count(); it
    # only rises and the free elements left only fall, so a step can break
    # only the target of the class it touches, and only a positive one.
    # The test runs at every position outside base, whether or not its
    # parents are in: the class's last one is where a short count is
    # caught, so no set that misses a target is yielded.  Include branches
    # wait on the stack as (next index into todo, set) and are taken once
    # the exclude branch below them is done.
    todo = [t for t in range(len(layer.mons)) if not base >> t & 1]
    end = len(todo)
    stack = [(0, base)]
    while stack:
        k, cur = stack.pop()
        while k < end:
            t = todo[k]
            k += 1
            c = cls[t] - 1
            tgt = spec[c]
            if tgt is None:
                if parents[t] & ~cur == 0:
                    stack.append((k, cur | 1 << t))
                continue
            have = (cur & free[c]).bit_count()
            if have < tgt and parents[t] & ~cur == 0:
                stack.append((k, cur | 1 << t))
            if tgt and have + (free[c] >> t + 1).bit_count() < tgt:
                break
        else:
            yield cur


def _count_filters(layer: _Layer, base: int, room) -> int:
    """The number of exchange-closed supersets of base, counted without
    listing them; once the count passes room, some number above room.

    One pass over the positions outside base in index order, whose states
    are the chosen sets cut down to the positions a later parents test
    reads, each with its multiplicity.  Every partial set extends to at
    least the set that excludes all the rest, so size, one plus the
    multiplicities of the includes so far, only grows towards the count
    (it ends equal to the sum of the multiplicities).
    """
    parents = layer.parents
    need = layer.need
    states = {base: 1}
    size = 1
    for t, p in enumerate(parents):
        if base >> t & 1:
            continue
        bit = 1 << t
        keep = need[t + 1]
        nxt = {}
        added = 0
        for cur, m in states.items():
            s = cur & keep
            nxt[s] = nxt.get(s, 0) + m
            if p & ~cur == 0:
                s = (cur | bit) & keep
                nxt[s] = nxt.get(s, 0) + m
                added += m
        states = nxt
        size += added
        if size > room:
            break
    return size


def _chains(layers, spec_for):
    """Yield every chain of exchange-closed sets for degrees 1..len(layers),
    depth first, as the tuple of its per-degree new-element masks (each
    set minus the shadow of the one below).

    spec_for(d) supplies the per-class new-generator counts for degree d
    (or None).  The pins depend on the degree alone, so a (degree, shadow)
    pair that has yielded no chain yields none on a later visit either,
    and the walk skips it.
    """
    top = len(layers) - 1
    specs = [spec_for(d) for d in range(1, top + 2)]
    dead = set()

    def walk(di, base, prefix):
        # the chains from degree di + 1 upward whose set there contains
        # base, as count_strongly_stable's chains_from counts them;
        # returns whether there was any.  The depth is at most
        # len(layers), which the degree cap bounds by 64.
        layer = layers[di]
        found = False
        for mask in _filters(layer, base, specs[di]):
            chain = prefix + (mask & ~base,)
            if di == top:
                found = True
                yield chain
                continue
            shadow = _shadow(layer, mask)
            if (di + 1, shadow) not in dead:
                found |= yield from walk(di + 1, shadow, chain)
        if not found:
            dead.add((di, base))
        return found

    return walk(0, 0, ())


def _generators(layers, masks):
    """The monomials of a chain's new-element masks, by ascending degree
    and, within a degree, descending deglex."""
    gens = []
    for layer, mask in zip(layers, masks):
        mons = layer.mons
        while mask:
            low = mask & -mask
            gens.append(mons[low.bit_length() - 1])
            mask ^= low
    return gens


def _budgeted(chains, budget, message):
    """The nonempty chains, raising BudgetExceededError(message) at the
    first one past the budget."""
    seen = 0
    for masks in chains:
        if any(masks):
            if seen >= budget:
                raise BudgetExceededError(message, partial_count=seen)
            seen += 1
            yield masks


def _canonical_key(gens):
    return (max(sum(g) for g in gens), tuple(deglex_key(g) for g in gens))


def _walk_setup(n, dmax, budget):
    """The layers of the unconstrained walk behind enumeration and
    counting, its ideal cap and the message of the error past it."""
    if n < 1 or dmax < 1:
        raise DomainError("need n >= 1 and dmax >= 1")
    if budget is None and (n > DEFAULT_ENUM_N or dmax > DEFAULT_ENUM_DMAX):
        raise BudgetExceededError(
            f"default budget covers n <= {DEFAULT_ENUM_N}, dmax <= {DEFAULT_ENUM_DMAX}; "
            "pass an explicit budget to enumerate further",
            partial_count=0,
        )
    cap = budget if budget is not None else DEFAULT_BUDGET
    message = f"enumeration exceeded the budget of {cap} ideals"
    if cap == 0:
        # every bound has the nonempty chain (x_1), so no layer is needed
        raise BudgetExceededError(message, partial_count=0)
    return _linked_layers(n, dmax), cap, message


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
    layers, cap, message = _walk_setup(n, dmax, budget)
    chains = _budgeted(_chains(layers, lambda d: None), cap, message)
    for gens in sorted((_generators(layers, masks) for masks in chains), key=_canonical_key):
        yield MonomialIdeal(n, gens)


def count_strongly_stable(n, dmax, budget=None) -> int:
    """Number of ideals enumerate_strongly_stable would yield, under the
    same caps and errors, without materializing them or visiting each
    chain: the chains above each (degree, shadow) pair are counted once
    per call, and the top degree's sets are counted without listing
    them."""
    layers, cap, message = _walk_setup(n, dmax, budget)
    top = len(layers) - 1
    memo = {}
    # chains found so far in walk order, the empty one included: a memo
    # hit adds its whole count at once, so the cap is checked on each add
    total = 0

    def tally(found):
        nonlocal total
        total += found
        if total > cap + 1:
            raise BudgetExceededError(message, partial_count=max(cap, 0))

    def chains_from(di, base):
        # the chains from degree di + 1 upward whose set there contains base
        key = (di, base)
        found = memo.get(key)
        if found is not None:
            tally(found)
            return found
        layer = layers[di]
        if di == top:
            found = _count_filters(layer, base, cap + 1 - total)
            tally(found)
        else:
            found = 0
            for mask in _filters(layer, base, None):
                found += chains_from(di + 1, _shadow(layer, mask))
        memo[key] = found
        return found

    return chains_from(0, 0) - 1


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a complete search: the first hit, or a none-report that
    is a non-existence certificate, since each search walks to a depth
    that covers every candidate.  The pins decide a hit by themselves, so
    a search examines only the walk's first chain: the hit, if any."""

    found: object  # MonomialIdeal or None
    note: str = ""

    @property
    def ok(self):
        return self.found is not None

    @property
    def examined(self):
        return int(self.ok)


def _first_chain(n, specs, budget, kind, miss) -> SearchOutcome:
    """The walk's first nonempty chain under specs, the per-class pins of
    degrees 1..len(specs), as a hit; or a none-report with note miss."""
    layers = _linked_layers(n, len(specs))
    message = f"{kind} search exceeded the budget of {budget} candidates"
    masks = next(_budgeted(_chains(layers, lambda d: specs[d - 1]), budget, message), None)
    if masks is None:
        return SearchOutcome(None, miss)
    return SearchOutcome(MonomialIdeal(n, _generators(layers, masks)))


def search_matrix(M: GeneratorMatrix, *, budget=DEFAULT_BUDGET) -> SearchOutcome:
    """First strongly stable ideal whose matrix of generators equals M.

    Any such ideal has all generators within the degree range of the
    canonical matrix, so the search walks through its last row degree and
    a miss is a certificate.
    """
    canon = M.canonical()
    if not canon.rows:
        raise DomainError("zero matrix: nothing to search for")
    # the shadow of a chain matching rows 1..d-1 holds the prefix sums of
    # row d-1, so the new generators pin row d; at the last row each
    # chain has exactly this matrix
    specs = [new_generator_row(canon, d) for d in range(1, canon.jmax + 1)]
    return _first_chain(
        canon.n, specs, budget, "matrix", "no strongly stable ideal has this matrix of generators"
    )


def _profile_specs(profile):
    """The pins of degrees 1..j_1.  Class c+1 at degree d feeds the cell
    (c, d), and a stable ideal's extremal corners are the maximal cells
    holding generators, valued by their counts.  So a corner cell holds
    its value, a cell weakly below and left of a corner is free and every
    other cell is empty."""
    triples = profile.triples
    values = {(ip, jp): bp for ip, jp, bp in triples}
    return [
        [values.get((c, d), None if any(c <= ip and d <= jp for ip, jp, _ in triples) else 0)
         for c in range(profile.n)]
        for d in range(1, triples[0][1] + 1)
    ]


def search_extremal_profile(profile, *, budget=DEFAULT_BUDGET) -> SearchOutcome:
    """First strongly stable ideal whose extremal corners are exactly the
    profile, that is, which meets the pins of _profile_specs.  The search
    walks through the largest corner degree j_1 and is complete: the top
    nonzero row of a Betti table always contains an extremal corner, so a
    realizing ideal has no generators above j_1."""
    return _first_chain(
        profile.n, _profile_specs(profile), budget, "profile",
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
