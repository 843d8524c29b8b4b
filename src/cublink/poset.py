"""Finite posets with lattice, grading, bowtie and completion operations.

A poset is built once from cover pairs, validated, and then treated as
immutable; every query is pure.  Elements are opaque hashable labels.
All deterministic orderings use the string form of labels, so results are
reproducible regardless of label types.  The order is kept as int bitmasks
over the elements in that order, so meets, bowties and the flag condition
are mask ANDs, not walks over an eager frozenset closure.
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

    Index i stands for ``elements[i]``, in label order.  ``_down[i]`` and
    ``_up[i]`` are the masks of the elements strictly below and above i;
    the order is kept only there, and set-valued queries and the covers are
    read from them on demand.
    """

    __slots__ = ("elements", "_index", "_down", "_up", "_heights")

    def __init__(self, elements, down, up, heights):
        """Elements in label order; the strict down- and up-masks and the heights as lists by index."""
        self.elements = tuple(elements)
        self._index = {x: i for i, x in enumerate(self.elements)}
        self._down, self._up, self._heights = down, up, heights

    # -- construction -------------------------------------------------

    @classmethod
    def from_covers(cls, elements, cover_pairs):
        """Build a poset from arbitrary (lower, upper) pairs.

        The order is the transitive closure of the pairs, so pairs implied by
        transitivity change nothing and ``covers`` is the Hasse diagram.
        Raises CycleDetected if the pairs contain a directed cycle,
        UnknownLabel if a pair references a missing label, and DuplicateLabel
        if two labels are equal or print the same (outputs name labels by
        their string form).
        """
        elements = list(elements)
        seen = set()
        for x in elements:
            if x in seen:
                raise DuplicateLabel(f"duplicate element label {x!r}")
            seen.add(x)
        elements.sort(key=_key)
        for a, b in zip(elements, elements[1:]):
            if _key(a) == _key(b):
                raise DuplicateLabel(f"element labels {a!r} and {b!r} print the same")
        index = {x: i for i, x in enumerate(elements)}
        pairs = set()
        for lo, hi in cover_pairs:
            if lo not in index:
                raise UnknownLabel(f"unknown label {lo!r} in cover pair")
            if hi not in index:
                raise UnknownLabel(f"unknown label {hi!r} in cover pair")
            if lo == hi:
                raise CycleDetected(f"self-loop on {lo!r}")
            pairs.add((index[lo], index[hi]))
        return cls._from_index_pairs(elements, pairs)

    @classmethod
    def _from_index_pairs(cls, elements, pairs):
        """Build a poset from distinct labels in label order and (lower, upper) index pairs."""
        succ, pred = [[] for _ in elements], [[] for _ in elements]
        for lo, hi in pairs:
            succ[lo].append(hi)
            pred[hi].append(lo)

        order = _topological_order(elements, succ, pred)
        down, up, heights = [0] * len(elements), [0] * len(elements), [0] * len(elements)
        for i in order:
            for lo in pred[i]:
                down[i] |= down[lo] | 1 << lo
                heights[i] = max(heights[i], heights[lo] + 1)
        for i in reversed(order):
            for hi in succ[i]:
                up[i] |= up[hi] | 1 << hi
        return cls(elements, down, up, heights)

    # -- basic queries -------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self._index

    def _index_of(self, x):
        try:
            return self._index[x]
        except KeyError:
            raise UnknownLabel(f"unknown label {x!r}") from None

    def _labels(self, mask):
        return frozenset(self.elements[i] for i in _bits(mask))

    @property
    def covers(self):
        """The cover pairs (lower, upper): each element over the maximal elements below it."""
        el = self.elements
        return frozenset((el[lo], el[hi])
                         for hi, below in enumerate(self._down) for lo in _maximal_in(self, below))

    def lt(self, x, y):
        i, j = self._index_of(x), self._index_of(y)
        return bool(self._down[j] >> i & 1)

    def leq(self, x, y):
        i, j = self._index_of(x), self._index_of(y)
        return i == j or bool(self._down[j] >> i & 1)

    def comparable(self, x, y):
        return self.leq(x, y) or self.leq(y, x)

    def strictly_below(self, x):
        return self._labels(self._down[self._index_of(x)])

    def down_set(self, x):
        i = self._index_of(x)
        return self._labels(self._down[i] | 1 << i)

    def up_set(self, x):
        i = self._index_of(x)
        return self._labels(self._up[i] | 1 << i)

    def upper_covers(self, x):
        return tuple(self.elements[j] for j in _minimal_in(self, self._up[self._index_of(x)]))

    def lower_covers(self, x):
        return tuple(self.elements[j] for j in _maximal_in(self, self._down[self._index_of(x)]))

    def minimal_elements(self):
        return tuple(x for x, below in zip(self.elements, self._down) if not below)

    def maximal_elements(self):
        return tuple(x for x, above in zip(self.elements, self._up) if not above)

    def minimum(self):
        mins = self.minimal_elements()
        return mins[0] if len(mins) == 1 else None

    def maximum(self):
        maxs = self.maximal_elements()
        return maxs[0] if len(maxs) == 1 else None

    # -- meets and joins -----------------------------------------------

    def meet(self, x, y):
        """The maximal lower bound of x and y, or None if it does not exist."""
        i, j = self._index_of(x), self._index_of(y)
        maximal = _maximal_in(self, (self._down[i] | 1 << i) & (self._down[j] | 1 << j))
        return self.elements[maximal[0]] if len(maximal) == 1 else None

    def join(self, x, y):
        """The minimal upper bound of x and y, or None if it does not exist."""
        i, j = self._index_of(x), self._index_of(y)
        minimal = _minimal_in(self, (self._up[i] | 1 << i) & (self._up[j] | 1 << j))
        return self.elements[minimal[0]] if len(minimal) == 1 else None

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
        order = sorted(range(len(self)), key=lambda v: self._down[v].bit_count())
        down_covers = [_maximal_in(self, below) for below in self._down]
        for x, above in enumerate(self._up):
            longest = {x: 0}
            shortest = {x: 0}
            for y in order:
                if not above >> y & 1:
                    continue
                lo = hi = None
                for z in down_covers[y]:
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
        return self._heights[self._index_of(x)]

    def heights(self):
        return dict(zip(self.elements, self._heights))

    def rank(self, x):
        """Common length of maximal chains from the minimum to x.

        Defined for graded posets with a global minimum; the value equals
        the longest-chain height because all maximal chains agree.
        """
        i = self._index_of(x)
        if self.minimum() is None:
            raise NoMinimum("rank needs a poset with a minimum")
        if not self.is_graded():
            raise NotGraded("rank needs a graded poset")
        return self._heights[i]

    # -- chains ----------------------------------------------------------

    def maximal_chains(self):
        """All maximal chains, bottom-up, in deterministic order."""
        chains = []
        up_covers = [_minimal_in(self, above) for above in self._up]
        for m in (i for i, below in enumerate(self._down) if not below):
            # depth-first with an explicit stack of cover iterators, so long
            # chains do not hit the recursion limit
            chain, pending = [m], [iter(up_covers[m])]
            while pending:
                for t in pending[-1]:
                    chain.append(t)
                    pending.append(iter(up_covers[t]))
                    break
                else:
                    if not up_covers[chain[-1]]:
                        chains.append(tuple(self.elements[i] for i in chain))
                    chain.pop()
                    pending.pop()
        return chains

    def restrict(self, subset):
        """The induced sub-poset on the given elements."""
        inside = 0
        for x in subset:
            inside |= 1 << self._index_of(x)
        return _restriction(self, inside)

    def to_json(self):
        return {
            "elements": [str(x) for x in self.elements],
            "covers": sorted([[str(a), str(b)] for a, b in self.covers]),
        }


def poset_from_json(data):
    return Poset.from_covers(data["elements"], [tuple(p) for p in data["covers"]])


def _topological_order(elements, succ, pred):
    """Indices with each after all its predecessors; the list is its own work queue."""
    indeg = [len(p) for p in pred]
    order = [i for i, d in enumerate(indeg) if d == 0]
    for i in order:
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                order.append(j)
    if len(order) != len(elements):
        stuck = [x for x, d in zip(elements, indeg) if d > 0]
        raise CycleDetected(f"cover pairs contain a cycle through {stuck[:4]}")
    return order


def _bits(mask):
    """The indices of the set bits of a mask, ascending (so in label order)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _restriction(P, mask):
    """The induced sub-poset on the elements of a mask; P itself when the mask holds them all.

    Each kept element covers, inside the mask, the maximal kept elements
    below it, and the order is the closure of those pairs.
    """
    if mask == (1 << len(P)) - 1:
        return P
    kept = list(_bits(mask))
    local = {i: k for k, i in enumerate(kept)}
    pairs = [(local[lo], k) for k, hi in enumerate(kept) for lo in _maximal_in(P, P._down[hi] & mask)]
    return Poset._from_index_pairs([P.elements[i] for i in kept], pairs)


def _maximal_in(P, mask):
    """The maximal elements of a mask, ascending; nothing below one taken (highest first) is maximal."""
    out, rest = [], mask
    while rest:
        i = rest.bit_length() - 1
        rest &= ~(P._down[i] | 1 << i)
        if not P._up[i] & mask:
            out.append(i)
    return out[::-1]


def _minimal_in(P, mask):
    """The minimal elements of a mask, ascending; nothing above one taken (lowest first) is minimal."""
    out, rest = [], mask
    while rest:
        i = (rest & -rest).bit_length() - 1
        rest &= ~(P._up[i] | 1 << i)
        if not P._down[i] & mask:
            out.append(i)
    return out


# -- bowties -------------------------------------------------------------


def _bowtie_tops(P):
    """The sorted (height sum, c, d), c < d, of every pair with two or more maximal common lower bounds.

    An m below c is a maximal common lower bound of c and exactly those d
    above m, after c and incomparable to it, that lie above no upper cover
    of m below c; so c's partners are the d that two such m reach.
    """
    h, down, up = P._heights, P._down, P._up
    full = (1 << len(P)) - 1
    upper = [_minimal_in(P, above) for above in up]
    tops = []
    for c, below in enumerate(down):
        incomparable = full >> (c + 1) << (c + 1) & ~(below | up[c])
        if not incomparable:
            continue
        once = twice = 0
        for m in _bits(below):
            reach = up[m] & incomparable
            if reach:
                for u in upper[m]:
                    if below >> u & 1:
                        reach &= ~up[u]
                twice |= once & reach
                once |= reach
        tops += ((h[c] + h[d], c, d) for d in _bits(twice))
    return sorted(tops)


def find_bowtie(P):
    """First bowtie of the poset in canonical order, or None.

    A pair (c, d) tops a bowtie exactly when it has at least two maximal
    common lower bounds; under the least such pair by (height sum, c, d),
    the first two serve as (a, b).
    """
    tops = _bowtie_tops(P)
    if not tops:
        return None
    _, c, d = tops[0]
    a, b = _maximal_in(P, P._down[c] & P._down[d])[:2]
    el = P.elements
    return Bowtie(el[a], el[b], el[c], el[d])


def find_balanced_bowtie(P):
    """First bowtie with height(a) == height(b) and height(c) == height(d), or None.

    Requires a graded poset.  Only a pair (c, d) that tops some bowtie can
    top a balanced one, but its lower pair need not consist of maximal
    lower bounds, so all incomparable equal-height pairs below (c, d) are
    examined, with an explicit check that nothing sits between the pairs.
    """
    if not P.is_graded():
        raise NotGraded("balanced bowties need a graded poset")
    h, el = P._heights, P.elements
    for _, c, d in _bowtie_tops(P):
        if h[c] != h[d]:
            continue
        common = P._down[c] & P._down[d]
        candidates = sorted(_bits(common), key=lambda x: (h[x], x))
        for a, b in combinations(candidates, 2):
            if h[a] != h[b] or (P._down[a] | P._up[a]) >> b & 1:
                continue
            if not P._up[a] & P._up[b] & common:
                return Bowtie(el[a], el[b], el[c], el[d])
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
    while label in P:
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

    By masks: bound[i] is i with its bounds, holders[u] the elements that u
    bounds, and compat[i] the elements sharing a bound with i.  For each pair
    a < b with a common bound, the candidates c > b are compatible with both,
    and c is good when bound[c] meets bound[a] & bound[b]; the witness is the
    first candidate that is not good.
    """
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    if (P.maximum() if direction == "up" else P.minimum()) is not None:
        return None
    above, below = (P._up, P._down) if direction == "up" else (P._down, P._up)
    bound = [m | 1 << i for i, m in enumerate(above)]
    holders = [m | 1 << i for i, m in enumerate(below)]
    compat = []
    for mask in bound:
        c = 0
        for u in _bits(mask):
            c |= holders[u]
        compat.append(c)
    full = (1 << len(P)) - 1
    for a in range(len(P)):
        for b in _bits(compat[a] & full >> (a + 1) << (a + 1)):
            cand = compat[a] & compat[b] & full >> (b + 1) << (b + 1)
            if not cand:
                continue
            good = 0
            for u in _bits(bound[a] & bound[b]):
                good |= holders[u]
                if not cand & ~good:
                    break
            else:
                bad = cand & ~good
                return tuple(P.elements[i] for i in (a, b, (bad & -bad).bit_length() - 1))
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
