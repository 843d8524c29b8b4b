"""Finite posets with lattice, grading, bowtie and completion operations.

A poset is built once from cover pairs, validated, and then treated as
immutable; every query is pure.  Elements are opaque hashable labels.
All deterministic orderings use the string form of labels, so results are
reproducible regardless of label types.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    CycleDetected,
    DuplicateLabel,
    NoMinimum,
    NotGraded,
    UnknownLabel,
)


def _key(label):
    return str(label)


@dataclass(frozen=True)
class Bowtie:
    """Four elements a, b < c, d with nothing between the pairs.

    a and b are incomparable, c and d are incomparable, and no x satisfies
    a, b <= x <= c, d.
    """

    a: object
    b: object
    c: object
    d: object

    def as_tuple(self):
        return (self.a, self.b, self.c, self.d)

    def to_json(self):
        return {"a": str(self.a), "b": str(self.b), "c": str(self.c), "d": str(self.d)}


class Poset:
    """Immutable finite poset given by its Hasse diagram.

    The transitive closure is computed eagerly at construction; ``covers``
    holds the irredundant cover pairs (lower, upper).
    """

    __slots__ = ("elements", "covers", "_below", "_above", "_up_covers", "_down_covers", "_heights")

    def __init__(self, elements, covers, _below):
        self.elements = tuple(elements)
        self.covers = frozenset(covers)
        self._below = _below
        self._above = {x: frozenset(y for y in self.elements if x in _below[y]) for x in self.elements}
        up, down = {x: [] for x in self.elements}, {x: [] for x in self.elements}
        for lo, hi in self.covers:
            up[lo].append(hi)
            down[hi].append(lo)
        self._up_covers = {x: tuple(sorted(v, key=_key)) for x, v in up.items()}
        self._down_covers = {x: tuple(sorted(v, key=_key)) for x, v in down.items()}
        self._heights = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_covers(cls, elements, cover_pairs):
        """Build a poset from arbitrary (lower, upper) pairs.

        Pairs implied by transitivity are dropped, so the stored covers form
        the Hasse diagram.  Raises CycleDetected if the pairs contain a
        directed cycle and UnknownLabel if a pair references a missing label.
        """
        elements = list(elements)
        seen = set()
        for x in elements:
            if x in seen:
                raise DuplicateLabel(f"duplicate element label {x!r}")
            seen.add(x)
        pairs = set()
        for lo, hi in cover_pairs:
            if lo not in seen:
                raise UnknownLabel(f"unknown label {lo!r} in cover pair")
            if hi not in seen:
                raise UnknownLabel(f"unknown label {hi!r} in cover pair")
            if lo == hi:
                raise CycleDetected(f"self-loop on {lo!r}")
            pairs.add((lo, hi))

        succ = {x: set() for x in elements}
        pred = {x: set() for x in elements}
        for lo, hi in pairs:
            succ[lo].add(hi)
            pred[hi].add(lo)

        order = _topological_order(elements, succ, pred)

        below = {x: set() for x in elements}
        for x in order:
            for lo in pred[x]:
                below[x].add(lo)
                below[x] |= below[lo]
        below = {x: frozenset(s) for x, s in below.items()}

        hasse = set()
        for lo, hi in pairs:
            if not any(lo in below[z] for z in below[hi]):
                hasse.add((lo, hi))
        return cls(sorted(elements, key=_key), hasse, below)

    # -- basic queries -------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self._below

    def _check(self, *labels):
        for x in labels:
            if x not in self._below:
                raise UnknownLabel(f"unknown label {x!r}")

    def lt(self, x, y):
        self._check(x, y)
        return x in self._below[y]

    def leq(self, x, y):
        self._check(x, y)
        return x == y or x in self._below[y]

    def comparable(self, x, y):
        return self.leq(x, y) or self.leq(y, x)

    def strictly_below(self, x):
        self._check(x)
        return self._below[x]

    def down_set(self, x):
        return self._below[x] | {x}

    def up_set(self, x):
        return self._above[x] | {x}

    def upper_covers(self, x):
        self._check(x)
        return self._up_covers[x]

    def lower_covers(self, x):
        self._check(x)
        return self._down_covers[x]

    def minimal_elements(self):
        return tuple(x for x in self.elements if not self._below[x])

    def maximal_elements(self):
        return tuple(x for x in self.elements if not self._above[x])

    def minimum(self):
        mins = self.minimal_elements()
        return mins[0] if len(mins) == 1 else None

    def maximum(self):
        maxs = self.maximal_elements()
        return maxs[0] if len(maxs) == 1 else None

    # -- meets and joins -----------------------------------------------

    def meet(self, x, y):
        """The maximal lower bound of x and y, or None if it does not exist."""
        self._check(x, y)
        common = self.down_set(x) & self.down_set(y)
        maximal = _maximal_in(self, common)
        return maximal[0] if len(maximal) == 1 else None

    def join(self, x, y):
        """The minimal upper bound of x and y, or None if it does not exist."""
        self._check(x, y)
        common = self.up_set(x) & self.up_set(y)
        minimal = _minimal_in(self, common)
        return minimal[0] if len(minimal) == 1 else None

    def is_meet_semilattice(self):
        return all(self.meet(x, y) is not None for x, y in combinations(self.elements, 2))

    def is_lattice(self):
        """True iff every pair of elements has both a meet and a join."""
        for x, y in combinations(self.elements, 2):
            if self.meet(x, y) is None or self.join(x, y) is None:
                return False
        return True

    # -- grading ---------------------------------------------------------

    def is_graded(self):
        """True iff, for every x < y, all maximal chains from x to y have equal length.

        Maximal chains between comparable elements are exactly the cover
        paths between them, so this checks that longest and shortest cover
        paths agree from every source.
        """
        order = [x for x in self.elements]
        order.sort(key=lambda v: len(self._below[v]))
        for x in self.elements:
            longest = {x: 0}
            shortest = {x: 0}
            for y in order:
                if y == x or x not in self._below[y]:
                    continue
                lo = hi = None
                for z in self._down_covers[y]:
                    if z in longest:
                        hi = longest[z] + 1 if hi is None else max(hi, longest[z] + 1)
                        lo = shortest[z] + 1 if lo is None else min(lo, shortest[z] + 1)
                longest[y] = hi
                shortest[y] = lo
                if hi != lo:
                    return False
        return True

    def height(self, x):
        """Length of a longest chain ending at x (counted in cover steps)."""
        self._check(x)
        return self.heights()[x]

    def heights(self):
        if self._heights is None:
            order = sorted(self.elements, key=lambda v: len(self._below[v]))
            h = {}
            for y in order:
                h[y] = max((h[z] + 1 for z in self._down_covers[y]), default=0)
            self._heights = h
        return self._heights

    def rank(self, x):
        """Common length of maximal chains from the minimum to x.

        Defined for graded posets with a global minimum; the value equals
        the longest-chain height because all maximal chains agree.
        """
        self._check(x)
        if self.minimum() is None:
            raise NoMinimum("rank needs a poset with a minimum")
        if not self.is_graded():
            raise NotGraded("rank needs a graded poset")
        return self.heights()[x]

    # -- chains ----------------------------------------------------------

    def maximal_chains(self):
        """All maximal chains, bottom-up, in deterministic order."""
        chains = []
        for m in sorted(self.minimal_elements(), key=_key):
            # depth-first with an explicit stack of cover iterators, so long
            # chains do not hit the recursion limit
            chain, pending = [m], [iter(self._up_covers[m])]
            while pending:
                for t in pending[-1]:
                    chain.append(t)
                    pending.append(iter(self._up_covers[t]))
                    break
                else:
                    if not self._up_covers[chain[-1]]:
                        chains.append(tuple(chain))
                    chain.pop()
                    pending.pop()
        return chains

    def restrict(self, subset):
        """The induced sub-poset on the given elements."""
        subset = set(subset)
        self._check(*subset)
        pairs = [(x, y) for x in subset for y in subset if x != y and x in self._below[y]]
        return Poset.from_covers(sorted(subset, key=_key), pairs)

    def to_json(self):
        return {
            "elements": [str(x) for x in self.elements],
            "covers": sorted([[str(a), str(b)] for a, b in self.covers]),
        }


def poset_from_json(data):
    return Poset.from_covers(data["elements"], [tuple(p) for p in data["covers"]])


def _topological_order(elements, succ, pred):
    indeg = {x: len(pred[x]) for x in elements}
    queue = sorted((x for x in elements if indeg[x] == 0), key=_key)
    order = []
    while queue:
        x = queue.pop(0)
        order.append(x)
        fresh = []
        for y in succ[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                fresh.append(y)
        queue.extend(sorted(fresh, key=_key))
    if len(order) != len(elements):
        stuck = sorted((x for x in elements if indeg[x] > 0), key=_key)
        raise CycleDetected(f"cover pairs contain a cycle through {stuck[:4]}")
    return order


def _maximal_in(P, subset):
    return sorted(
        (x for x in subset if not any(x in P._below[y] for y in subset)),
        key=_key,
    )


def _minimal_in(P, subset):
    return sorted(
        (x for x in subset if not any(y in P._below[x] for y in subset)),
        key=_key,
    )


# -- bowties -------------------------------------------------------------


def _bowtie_pairs(P):
    """Incomparable pairs ordered by (height sum, labels) for deterministic witnesses."""
    h = P.heights()
    pairs = [
        (x, y)
        for x, y in combinations(sorted(P.elements, key=_key), 2)
        if not P.comparable(x, y)
    ]
    pairs.sort(key=lambda p: (h[p[0]] + h[p[1]], _key(p[0]), _key(p[1])))
    return pairs


def find_bowtie(P):
    """First bowtie of the poset in canonical order, or None.

    A pair (c, d) tops a bowtie exactly when it has at least two maximal
    common lower bounds; any two of those serve as (a, b).
    """
    for c, d in _bowtie_pairs(P):
        common = P.down_set(c) & P.down_set(d)
        maximal = _maximal_in(P, common)
        if len(maximal) >= 2:
            return Bowtie(maximal[0], maximal[1], c, d)
    return None


def find_balanced_bowtie(P):
    """First bowtie with height(a) == height(b) and height(c) == height(d), or None.

    Requires a graded poset.  The lower pair need not consist of maximal
    lower bounds, so all incomparable equal-height pairs below (c, d) are
    examined, with an explicit check that nothing sits between the pairs.
    """
    if not P.is_graded():
        raise NotGraded("balanced bowties need a graded poset")
    h = P.heights()
    for c, d in _bowtie_pairs(P):
        if h[c] != h[d]:
            continue
        common = P.down_set(c) & P.down_set(d)
        if len(_maximal_in(P, common)) < 2:
            continue  # (c, d) has a meet below, so it tops no bowtie
        candidates = sorted(common, key=lambda x: (h[x], _key(x)))
        for a, b in combinations(candidates, 2):
            if h[a] != h[b] or P.comparable(a, b):
                continue
            if not any(x in P._above[a] and x in P._above[b] for x in common):
                return Bowtie(a, b, c, d)
    return None


def with_bounds(P, bottom="_bot", top="_top"):
    """Adjoin a fresh global minimum and maximum."""
    bottom = _fresh_label(P, bottom)
    top = _fresh_label(P, top)
    elements = [bottom, *P.elements, top]
    pairs = list(P.covers)
    pairs += [(bottom, x) for x in P.minimal_elements()]
    pairs += [(x, top) for x in P.maximal_elements()]
    if not P.elements:
        pairs.append((bottom, top))
    return Poset.from_covers(elements, pairs)


def _fresh_label(P, base):
    label = base
    while label in P._below:
        label = "_" + label
    return label


@dataclass(frozen=True)
class BowtieLatticeReport:
    """Independent evaluation of both sides of the bounded-lattice criterion."""

    lattice_with_bounds: bool
    balanced_bowtie: Bowtie | None

    @property
    def agree(self):
        return self.lattice_with_bounds == (self.balanced_bowtie is None)

    def to_json(self):
        return {
            "property": "bounded_lattice_iff_no_balanced_bowtie",
            "holds": self.agree,
            "witness": None if self.agree else {
                "lattice_with_bounds": self.lattice_with_bounds,
                "balanced_bowtie": self.balanced_bowtie.to_json() if self.balanced_bowtie else None,
            },
        }


def bowtie_lattice_consistency(P):
    """Evaluate 'adjoining bounds gives a lattice' and 'no balanced bowtie' independently.

    The two sides are equivalent for graded posets; a disagreement would be
    an internal-consistency failure and is surfaced in the report rather
    than resolved silently.
    """
    if not P.is_graded():
        raise NotGraded("the criterion applies to graded posets")
    return BowtieLatticeReport(
        lattice_with_bounds=with_bounds(P).is_lattice(),
        balanced_bowtie=find_balanced_bowtie(P),
    )


# -- flag condition --------------------------------------------------------


def flag_condition(P, direction="up"):
    """First triple pairwise bounded in the given direction with no common bound.

    Returns the violating triple (label-sorted) or None, at once if a maximum
    ("up") or minimum ("down") bounds every triple.  ``direction`` is "up"
    for upper bounds, "down" for lower bounds.
    """
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    if (P.maximum() if direction == "up" else P.minimum()) is not None:
        return None
    bound_set = P.up_set if direction == "up" else P.down_set
    sets = {x: bound_set(x) for x in P.elements}
    elems = sorted(P.elements, key=_key)
    for a, b, c in combinations(elems, 3):
        ab = sets[a] & sets[b]
        if not ab:
            continue
        if not (sets[a] & sets[c]) or not (sets[b] & sets[c]):
            continue
        if not (ab & sets[c]):
            return (a, b, c)
    return None


# -- grading completion ------------------------------------------------------


def grade_completion(P):
    """Insert chains into rank-skipping covers so the result is graded.

    Uses r(x) = length of a longest chain from the minimum to x; every cover
    with an r-gap of k >= 2 receives k - 1 fresh elements at the missing
    levels.  The restriction of the output order to the original elements
    is the original order.
    """
    if P.minimum() is None:
        raise NoMinimum("grade completion needs a poset with a minimum")
    r = P.heights()
    elements = list(P.elements)
    pairs = []
    taken = set(elements)
    for lo, hi in sorted(P.covers, key=lambda p: (_key(p[0]), _key(p[1]))):
        gap = r[hi] - r[lo]
        if gap <= 1:
            pairs.append((lo, hi))
            continue
        chain = [lo]
        for i in range(1, gap):
            label = f"{lo}<{hi}:{i}"
            while label in taken:
                label = "_" + label
            taken.add(label)
            elements.append(label)
            chain.append(label)
        chain.append(hi)
        pairs.extend(zip(chain, chain[1:]))
    return Poset.from_covers(elements, pairs)
