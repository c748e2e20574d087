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
Each degree's layer owns the masks into it, the exchange moves within
the degree and the multiplications from the degree below, and is never
changed once built, so a cached layer serves every call as it is.
What a (degree, shadow) pair yields depends on nothing else, so a pair
that yielded no chain is dead and is not walked again.  Without pins
every pair yields at least the chain that adds nothing, so only a
search ever meets a dead pair.  A walk builds each layer the first time
it reaches its degree, so one that stops low, on a budget or on a degree
no set can fill, builds nothing above where it stops.

Counting does not visit each chain, nor list any degree's sets.  What a
chain can become above degree d depends only on the shadow it hands to
degree d + 1, so counting runs forward, one pass over the positions per
degree, carrying each state with the number of chain prefixes that reach
it (the transfer-matrix method).  A state keeps only what a later
exchange test reads and the shadow built so far (frontier-based
counting, as in decision-diagram construction), and the states that end
a degree fold to their shadows, which start the next.  Such ideals
match the up-sets of the partitions with at most dmax parts, each at
most n, so conjugation makes the count at (n, dmax) equal the one at
(dmax, n), and counting runs with no more variables than degrees, the
orientation whose top layer, binom(n + dmax - 1, dmax), is the smaller.

The count refuses a budget below either of two lower bounds on it
before it builds a layer: binom(n + dmax, dmax) - 1, the number of
monomials of degree 1..dmax, each of which generates its own ideal, and,
when min(n, dmax) >= 2, 2^(max(n, dmax)+1) - 2, the count at
(2, max(n, dmax)), since the count grows with n and with dmax and is
symmetric in them.  The second reads the budget's bit length, so a wide
bound is refused in constant time.

Enumeration gates through the count, then lists its ideals by maximal
generator degree d = 1..dmax.  An ideal of bucket d is a lower part, the
ideal of its generators below degree d (or nothing), plus a nonempty set
of degree-d generators.  The bucket takes its lower parts in the order of
their generator lists, and from each one lists the exchange-closed
supersets of the part's shadow with the searches' walk, unpinned, whose
order is the canonical one (see _filters), so it yields in the canonical
order without holding or sorting its ideals.  The lower parts of bucket
d + 1 are those of bucket d and the ideals it yielded, each with its
degree-d set, so no chain is walked twice and a pass holds at most the
ideals below the top degree.

Searches prune with per-degree, per-class counts of new generators (the
elements of B_d outside the shadow).  A generator-matrix target pins
them through m_{i,d} = mu_{i,d} - sum_{q<=i} mu_{q,d-1}; an extremal
profile pins each of them to its corner value, to free or to zero.  The
pins alone decide a hit, so both searches enter the walk through one
function, which walks the variables up to the last class a pin leaves
open and builds the walk's first chain, the hit if there is one, as an
ideal in all n variables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import DEFAULT_BUDGET, BudgetExceededError, DomainError, _checked_int
from .ideals import GeneratorMatrix, MonomialIdeal, new_generator_row
from .macaulay import binom
from .monomials import (
    DEGREE_CAP, class_size, enumerate_degree, iter_degree, max_index, swap_variable,
)

DEFAULT_ENUM_N = 4
DEFAULT_ENUM_DMAX = 5


class _Layer:
    """Degree-d slice of the monomial poset with its move masks and the
    multiplication masks into it from degree d - 1, all built in __init__;
    a layer is never changed afterwards."""

    __slots__ = ("n", "mons", "parents", "need", "cls", "class_masks", "up")

    def __init__(self, n, d):
        self.n = n
        self.mons = enumerate_degree(n, d)
        index = {u: t for t, u in enumerate(self.mons)}
        self.parents = []
        self.cls = [max_index(u) for u in self.mons]
        for u in self.mons:
            mask = 0
            for j in range(2, n + 1):
                if u[j - 1]:
                    mask |= 1 << index[swap_variable(u, j, j - 1)]
            self.parents.append(mask)
        # need[t]: the positions a parents test at t or later reads
        self.need = [0] * (len(self.mons) + 1)
        for t in range(len(self.mons) - 1, -1, -1):
            self.need[t] = self.need[t + 1] | self.parents[t]
        # class_masks[i-1]: the positions of the monomials with max index i
        self.class_masks = [0] * n
        for t, i in enumerate(self.cls):
            self.class_masks[i - 1] |= 1 << t
        # up[s]: the positions of x_1 v, ..., x_n v (all distinct) for the
        # s-th monomial v of degree d - 1
        self.up = [
            sum(1 << index[v[:t] + (v[t] + 1,) + v[t + 1:]] for t in range(n))
            for v in iter_degree(n, d - 1)
        ]


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


def _walk_layers(n, dmax) -> list:
    """The layers of degrees 1..dmax."""
    return [_layer(n, d) for d in range(1, dmax + 1)]


def _shadow(layer: _Layer, mask: int) -> int:
    """The shadow in layer of the set mask of the degree below."""
    out = 0
    up = layer.up
    while mask:
        low = mask & -mask
        out |= up[low.bit_length() - 1]
        mask ^= low
    return out


def _filters(layer: _Layer, base: int, spec):
    """Yield every exchange-closed superset of base whose new elements
    (those outside base) match spec in each class (entries: exact int or
    None for free; a negative entry admits no set), depth first with
    exclusion before inclusion: the canonical order of the new elements
    read as lists in descending deglex.  Of two sets, the one lacking the
    first position where they differ comes first, and its list either ends
    there (a prefix) or goes on with a later position, a smaller monomial."""
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


def _chains(layers, specs):
    """Yield every chain of exchange-closed sets for degrees 1..len(specs),
    depth first, as the tuple of its per-degree new-element masks (each
    set minus the shadow of the one below).

    layers holds the layers of degrees 1..k for some k >= 1; the walk
    appends the layer of each further degree the first time it descends
    to it, so a walk that stops low builds nothing above where it stops.
    specs[d - 1] holds the per-class new-generator counts for degree d
    (None for a free degree).  The pins depend on the degree alone, so a
    (degree, shadow) pair that has yielded no chain yields none on a later
    visit either, and the walk skips it.
    """
    top = len(specs) - 1
    dead = set()

    def walk(di, base, prefix):
        # the chains from degree di + 1 upward whose set there contains
        # base; returns whether there was any.  The depth is at most
        # len(specs), which the degree cap bounds by 64.
        layer = layers[di]
        found = False
        for mask in _filters(layer, base, specs[di]):
            chain = prefix + (mask & ~base,)
            if di == top:
                found = True
                yield chain
                continue
            if di + 1 == len(layers):
                layers.append(_layer(layer.n, di + 2))
            shadow = _shadow(layers[di + 1], mask)
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


def enumerate_strongly_stable(n, dmax, budget=None):
    """Yield every nonzero strongly stable ideal in n variables whose
    minimal generators all have degree <= dmax, each exactly once, in a
    canonical order: by maximal generator degree, then lexicographically
    on the generator lists read by ascending degree and, within a degree,
    by descending deglex.

    The budget caps the number of ideals; the default covers n <= 4 and
    dmax <= 5, so pass an explicit budget to go further.  The ideals are
    counted before the first is built: past the budget, the first next()
    raises BudgetExceededError carrying the partial count.

    Each maximal-degree bucket is yielded as it is walked, so the first
    ideal waits for no sort, and a full pass holds only the lower parts
    of the top bucket, not its ideals: 8,952 parts at (4, 5), whose top
    bucket has 674,160 ideals.
    """
    count_strongly_stable(n, dmax, budget)
    # (generators, set in the degree below) of each lower part
    parts = [((), 0)]
    for d, layer in enumerate(_walk_layers(n, dmax), 1):
        full = (1 << len(layer.mons)) - 1
        # a part's list goes on with a degree-d generator, which ranks
        # above every generator of the part, so its end is ranked so too
        parts.sort(key=lambda part: [(sum(g), g) for g in part[0]] + [(d,)])
        lower, parts = parts, []
        for gens, below in lower:
            base = _shadow(layer, below)
            for cur in _filters(layer, base, None):
                new = gens + tuple(_generators((layer,), (cur & ~base,)))
                if cur != base:
                    yield MonomialIdeal(n, new)
                # a set holding the whole layer leaves nothing to add above
                if d < dmax and cur != full:
                    parts.append((new, cur))


def count_strongly_stable(n, dmax, budget=None) -> int:
    """Number of ideals enumerate_strongly_stable would yield, under the
    same caps and errors, without materializing them or visiting each
    chain.  The caps read the bound as given.  The count is symmetric in
    n and dmax, so the walk runs on the orientation with fewer variables
    when its degree is within the degree cap, and on the other one
    otherwise: (2, 65) is counted as (65, 2)."""
    _checked_int("n", n, 1)
    _checked_int("dmax", dmax, 1)
    if budget is None and (n > DEFAULT_ENUM_N or dmax > DEFAULT_ENUM_DMAX):
        raise BudgetExceededError(
            f"default budget covers n <= {DEFAULT_ENUM_N}, dmax <= {DEFAULT_ENUM_DMAX}; "
            "pass an explicit budget to enumerate further",
            partial_count=0,
        )
    cap = DEFAULT_BUDGET if budget is None else _checked_int("budget", budget)
    # a cap below either lower bound of the module docstring fails here,
    # as _count would fail on it later; 2^(m+1) - 2 > cap exactly when
    # cap + 2 has at most m + 1 bits
    if (
        (min(n, dmax) >= 2 and (cap + 2).bit_length() <= max(n, dmax) + 1)
        or binom(n + dmax, dmax) - 1 > cap
    ):
        raise BudgetExceededError(
            f"enumeration exceeded the budget of {cap} ideals", partial_count=cap
        )
    if max(n, dmax) <= DEGREE_CAP:
        n, dmax = min(n, dmax), max(n, dmax)
    else:
        n, dmax = max(n, dmax), min(n, dmax)
    return _count(n, dmax, cap)


def _count(n, dmax, cap) -> int:
    """The number of nonempty chains over the layers of (n, dmax),
    raising the budget error once it passes cap.

    One forward pass per degree, over the positions in index order; the
    pass over degree d builds the layer of degree d + 1, whose up masks it
    reads, as it starts, so a pass the cap stops builds nothing higher.  A
    state is one int: its low bits are the chosen set cut down to the
    positions a later parents test reads (the base's later positions
    among them, so a position already in the base takes only the include
    branch), and above bit len(layer) sits the shadow into the next layer
    built so far.  Each state carries its multiplicity, the number of
    chain prefixes that reach it.  Every prefix extends to at least the
    chain that adds nothing more, so total, the sum of the
    multiplicities, only grows towards the count plus the empty chain,
    and it bounds the number of states.
    """
    bases = {0: 1}
    total = 1
    layer = _layer(n, 1)
    for d in range(1, dmax + 1):
        size = len(layer.mons)
        above = _layer(n, d + 1) if d < dmax else None
        up = above.up if above else [0] * size
        need = layer.need
        states = bases
        for t, p in enumerate(layer.parents):
            bit = 1 << t
            lift = bit | up[t] << size
            # drop the positions up to t that no later parents test reads
            keep = ~((bit << 1) - 1 & ~need[t + 1])
            nxt = {}
            added = 0
            for cur, m in states.items():
                if not cur & bit:
                    s = cur & keep
                    nxt[s] = nxt.get(s, 0) + m
                    if p & ~cur:
                        continue
                    added += m
                s = (cur | lift) & keep
                nxt[s] = nxt.get(s, 0) + m
            states = nxt
            total += added
            if total > cap + 1:
                raise BudgetExceededError(
                    f"enumeration exceeded the budget of {cap} ideals", partial_count=cap
                )
        bases = {}
        for cur, m in states.items():
            s = cur >> size
            bases[s] = bases.get(s, 0) + m
        layer = above
    return total - 1


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a complete search: the first hit, or a none-report that
    is a non-existence certificate, since each search walks to a depth
    that covers every candidate.  The pins decide a hit by themselves, so
    a search examines only the walk's first chain: the hit, if any.  A
    budget on candidates could only refuse a hit, so searches take none."""

    found: object  # MonomialIdeal or None
    note: str = ""

    @property
    def ok(self):
        return self.found is not None

    @property
    def examined(self):
        return int(self.ok)


def _search(n, specs, miss) -> SearchOutcome:
    """The walk's first chain under specs, the per-class pins of degrees
    1..len(specs), as a hit in n variables; or a none-report with note
    miss.  Every search pins some degree to a positive count, so the
    chain is never the empty one.  The walk runs on x_1..x_m, m the
    largest class with a pin other than 0: a chain meeting the pins has
    no generator above class m, and the layer positions of classes <= m
    keep their order, so it meets the first chain of the walk on all n
    variables without building the layers the pins rule out.  A pin
    outside 0..class_size (the pins dropped are 0) misses before any
    layer is built: no walk could meet it, though one could run long to
    find that out.  Otherwise a walk deeper than the degree cap is
    refused, naming its depth, before any layer is built."""
    m = max((c for spec in specs for c, tgt in enumerate(spec, 1) if tgt != 0), default=1)
    specs = [spec[:m] for spec in specs]
    if any(tgt is not None and not 0 <= tgt <= class_size(c, d)
           for d, spec in enumerate(specs, 1) for c, tgt in enumerate(spec, 1)):
        return SearchOutcome(None, miss)
    _checked_int("search degree", len(specs), 1, DEGREE_CAP)
    layers = [_layer(m, 1)]
    masks = next(_chains(layers, specs), None)
    if masks is None:
        return SearchOutcome(None, miss)
    pad = (0,) * (n - m)
    return SearchOutcome(MonomialIdeal(n, [g + pad for g in _generators(layers, masks)]))


def search_matrix(M: GeneratorMatrix) -> SearchOutcome:
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
    return _search(canon.n, specs, "no strongly stable ideal has this matrix of generators")


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


def search_extremal_profile(profile) -> SearchOutcome:
    """First strongly stable ideal whose extremal corners are exactly the
    profile, that is, which meets the pins of _profile_specs.  The search
    walks through the largest corner degree j_1 and is complete: the top
    nonzero row of a Betti table always contains an extremal corner, so a
    realizing ideal has no generators above j_1."""
    return _search(
        profile.n, _profile_specs(profile),
        "no strongly stable ideal (hence, in characteristic 0, no homogeneous "
        "ideal) has exactly these extremal corners",
    )


def random_strongly_stable(n, dmax, rng: random.Random) -> MonomialIdeal:
    """A random nonzero strongly stable ideal with generator degrees
    <= dmax, drawn by extending a random chain degree by degree with up
    to three new generators per degree."""
    _checked_int("n", n, 1)
    _checked_int("dmax", dmax, 1)
    layers = _walk_layers(n, dmax)
    while True:
        gens = []
        cur = 0
        for layer in layers:
            cur = _shadow(layer, cur)
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
        if gens:
            return MonomialIdeal(n, gens)
