"""Finite posets with lattice, grading, bowtie and completion operations.

A poset is built once from cover pairs, validated, and then treated as
immutable; every query is pure.  Elements are opaque hashable labels.
All deterministic orderings use the string form of labels, so results are
reproducible regardless of label types.  The order is kept as int bitmasks
over the elements in that order, so meets, bowties and the flag condition
are mask ANDs, not walks over an eager frozenset closure.  The covers are
derived once, in the pass that builds the masks.  A poset with no bowtie
is, unless it is wide, certified from its cover pairs alone; the sweep
over its down-sets runs on the other posets and names a bowtie.
"""

from __future__ import annotations

import reprlib
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


def _label_order(labels, kind):
    """The labels in label order, and the index of each there; kind names them in errors.

    Raises DuplicateLabel on a repeated label, and on two labels that print
    the same, as outputs name labels by their string form.  The sort is
    stable, so such a pair is named in input order.
    """
    ordered, seen = list(labels), set()
    for x in ordered:
        if x in seen:
            raise DuplicateLabel(f"duplicate {kind} label {x!r}")
        seen.add(x)
    ordered.sort(key=_key)
    for a, b in zip(ordered, ordered[1:]):
        if _key(a) == _key(b):
            raise DuplicateLabel(f"{kind} labels {a!r} and {b!r} print the same")
    return tuple(ordered), dict(zip(ordered, range(len(ordered))))


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
    the order is kept only there.  ``_lower[i]`` and ``_upper[i]`` list the
    lower and upper covers of i, ascending, built with the masks.  A check
    that reads only the down-masks and lower covers takes them from
    _closure and builds no Poset (see check_type_A).
    """

    __slots__ = ("elements", "_index", "_down", "_up", "_heights", "_lower", "_upper")

    def __init__(self, elements, down, up, heights, lower, upper):
        """Elements in label order; the strict down- and up-masks, the heights and the covers as lists by index."""
        self.elements = tuple(elements)
        self._index = dict(zip(self.elements, range(len(self.elements))))
        self._down, self._up, self._heights, self._lower, self._upper = down, up, heights, lower, upper

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
        elements, index = _label_order(elements, "element")
        preds = [set() for _ in elements]
        for lo, hi in cover_pairs:
            if lo not in index:
                raise UnknownLabel(f"unknown label {lo!r} in cover pair")
            if hi not in index:
                raise UnknownLabel(f"unknown label {hi!r} in cover pair")
            if lo == hi:
                raise CycleDetected(f"self-loop on {lo!r}")
            preds[index[hi]].add(index[lo])
        return cls._from_preds(elements, preds)

    @classmethod
    def _from_preds(cls, elements, preds):
        """Build a poset from distinct labels in label order and, by index, each one's distinct predecessors.

        On top of _closure: the heights, read off the lower covers, the
        upper covers and the up-masks.  CycleDetected names the elements
        _closure leaves out.
        """
        order, down, lower = _closure(preds)
        if len(order) < len(elements):
            stuck = [x for x, covered in zip(elements, lower) if covered is None]
            raise CycleDetected(f"cover pairs contain a cycle through {stuck[:4]}")
        up, heights, upper = [0] * len(elements), [0] * len(elements), [[] for _ in elements]
        for i in order:
            h = 0
            for lo in lower[i]:
                upper[lo].append(i)
                if heights[lo] >= h:
                    h = heights[lo] + 1
            heights[i] = h
        for covers in upper:  # filled in Kahn's order, so sorted to ascend
            covers.sort()
        for i in reversed(order):
            for hi in upper[i]:
                up[i] |= up[hi] | 1 << hi
        return cls(elements, down, up, heights, lower, upper)

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
        """The cover pairs (lower, upper) of the Hasse diagram."""
        el = self.elements
        return frozenset((el[lo], el[hi]) for hi, covered in enumerate(self._lower) for lo in covered)

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
        return tuple(self.elements[j] for j in self._upper[self._index_of(x)])

    def lower_covers(self, x):
        return tuple(self.elements[j] for j in self._lower[self._index_of(x)])

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
        paths between them.  So, from every source x, each y above x (taken
        after everything below it) must be one step beyond all its lower
        covers reached from x, which then lie at one distance from x.
        """
        order = sorted(range(len(self)), key=lambda v: self._down[v].bit_count())
        for x, above in enumerate(self._up):
            dist = {x: 0}
            for y in order:
                if above >> y & 1:
                    steps = {dist[z] for z in self._lower[y] if z in dist}
                    if len(steps) > 1:
                        return False
                    dist[y] = steps.pop() + 1
        return True

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
        chains, up_covers = [], self._upper
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
    pairs = [tuple(p) for p in data["covers"]]
    for p in pairs:
        if len(p) != 2:  # quoted in part, as a cover may be long
            raise ValueError(f"cover {reprlib.repr(list(p))} is not a pair of labels")
    return Poset.from_covers(data["elements"], pairs)


def _bits(mask):
    """The indices of the set bits of a mask, ascending (so in label order)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closure(preds):
    """Kahn's order of the relation given by each index's distinct predecessors, and the strict down-masks and lower covers of its closure.

    Each index is taken after all its predecessors, the order its own work
    queue; an index on or above a cycle is never taken and keeps lower
    covers None.  Everything below i is at or below a predecessor, so i
    covers, ascending, the predecessors below no other.
    """
    n = len(preds)
    down, lower = [0] * n, [None] * n
    succ, indeg = [[] for _ in preds], list(map(len, preds))
    for hi, below in enumerate(preds):
        for lo in below:
            succ[lo].append(hi)
    order = [i for i, d in enumerate(indeg) if not d]
    for i in order:
        below = mask = 0
        for lo in preds[i]:
            below |= down[lo]
            mask |= 1 << lo
        down[i] = below | mask
        lower[i] = covered = []
        for lo in preds[i]:
            if not below >> lo & 1:
                covered.append(lo)
        covered.sort()
        for j in succ[i]:
            indeg[j] -= 1
            if not indeg[j]:
                order.append(j)
    return order, down, lower


def _restriction(P, mask):
    """The induced sub-poset on the elements of a mask; P itself when the mask holds them all.

    Each kept element covers, inside the mask, the maximal kept elements
    below it, and the order is the closure of those pairs.
    """
    if mask == (1 << len(P)) - 1:
        return P
    kept = list(_bits(mask))
    local = {i: k for k, i in enumerate(kept)}
    preds = [[local[lo] for lo in _maximal_in(P, P._down[hi] & mask)] for hi in kept]
    return Poset._from_preds([P.elements[i] for i in kept], preds)


def _maximal_in(P, mask):
    """The maximal elements of a mask, ascending; nothing below one taken (highest first) is maximal."""
    out, rest = [], mask
    while rest:
        i = rest.bit_length() - 1
        rest ^= rest & P._down[i] | 1 << i
        if not P._up[i] & mask:
            out.append(i)
    return out[::-1]


def _minimal_in(P, mask):
    """The minimal elements of a mask, ascending; nothing above one taken (lowest first) is minimal."""
    out, rest = [], mask
    while rest:
        i = (rest & -rest).bit_length() - 1
        rest ^= rest & P._up[i] | 1 << i
        if not P._down[i] & mask:
            out.append(i)
    return out


# -- bowties -------------------------------------------------------------


def _may_have_bowtie(down, lower):
    """False when no pair of a poset P, given by the down-masks and lower covers of _closure, has two or more maximal common lower bounds.

    It reads P's co-covered pairs; the maximal elements are those no
    element covers.

    Let Q be P with a fresh 0̂ and 1̂ adjoined.  A pair of P has a meet in Q
    iff its common lower bounds in P are none (the meet is 0̂) or have a
    maximum, so Q is a lattice iff no pair of P has two maximal common
    lower bounds, which is iff _bowtie_tops(P) is empty.

    By the dual of Björner-Edelman-Ziegler, "Hyperplane arrangements with a
    lattice of regions" (1990), Lemma 2.1, a finite bounded poset is a
    lattice once any two elements covered by one element have a meet.
    (Else take x, y with no meet under a minimal common upper bound z,
    lower covers x' >= x and y' >= y of z, distinct as (x, y) lies under no
    element below z; then the meets w = x' ∧ y', p = x ∧ w and q = y ∧ p
    exist by the choice of z, and every common lower bound of x, y lies
    below w, p and q, so q is their meet.)  In Q the pairs under an
    element z of P are the pairs of lower covers of z in P, the pairs under
    1̂ are the pairs of maximal elements of P, and 0̂ is never half of a
    pair: the elements that cover it are the minimal elements of P, and it
    is their only lower cover.

    Such a pair (u, v) has a meet in Q iff L, the intersection of their
    closed down-sets, is empty or the closed down-set of one element.  A
    pair that fails is incomparable with two maximal common lower bounds, so
    it tops a bowtie.  The set holds the masks themselves, so nothing is
    copied; masks whose bits agree modulo 61 hash alike, which costs time,
    never a wrong answer.

    True means that a bowtie may exist: a pair failed, or the pass was not
    run.  The sweep walks each comparable pair m < c of P with a few mask
    operations, and the pass tests each pair of a group with one AND and
    one lookup.  So a poset whose groups hold more pairs than P has
    comparable pairs, such as a wide one with many minimal elements under
    one element, is left to the sweep.
    """
    covered = set().union(*lower)
    groups = [g for g in ([i for i in range(len(down)) if i not in covered], *lower) if len(g) > 1]
    if sum(len(g) * (len(g) - 1) for g in groups) > 2 * sum(map(int.bit_count, down)):
        return True
    closed = [below | 1 << i for i, below in enumerate(down)]
    principal = set(closed)
    return any((L := closed[u] & closed[v]) and L not in principal for g in groups for u, v in combinations(g, 2))


def _bowtie_tops(P):
    """The sorted (height sum, c, d), c < d, of every pair with two or more maximal common lower bounds.

    The sweep runs only when _may_have_bowtie cannot rule such a pair out.
    An m below c is a maximal common lower bound of c and exactly those d
    above m, after c and incomparable to it, that lie above no upper cover
    of m below c; so c's partners are the d that two such m reach.
    """
    if not _may_have_bowtie(P._down, P._lower):
        return []
    h, down, up, upper = P._heights, P._down, P._up, P._upper
    full = (1 << len(P)) - 1
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
    the first two serve as (a, b).  None is decided from the cover pairs
    (_may_have_bowtie), and only a poset that may have a bowtie, or is
    wide, is swept for its tops.
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


def with_bounds(P):
    """Adjoin a fresh global minimum and maximum, labelled "_bot" and "_top" (prefixed with "_" until new)."""
    bottom, top = _fresh_label(P, "_bot"), _fresh_label(P, "_top")
    elements = [bottom, *P.elements, top]
    pairs = list(P.covers)
    pairs += [(bottom, x) for x in P.minimal_elements()]
    pairs += [(x, top) for x in P.maximal_elements()]
    if not P.elements:
        pairs.append((bottom, top))
    return Poset.from_covers(elements, pairs)


def _fresh_label(P, label):
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

    Returns the violating triple (label-sorted) or None.  ``direction`` is
    "up" for upper bounds, "down" for lower bounds.  The witness is the
    first pair of _flag_violations with the least third element.
    """
    for a, b, bad in _flag_violations(P, direction, (1 << len(P)) - 1):
        return tuple(P.elements[i] for i in (a, b, (bad & -bad).bit_length() - 1))
    return None


def _flag_violations(P, direction, within):
    """Each pair a < b of a violating triple inside ``within``, with its third elements c > b as a mask.

    The pairs come in (a, b) order.  Read this for "up"; "down" is dual,
    with minimal elements and lower bounds.

    Only the maximal elements matter: every upper bound lies under a
    maximal element, so some elements have a common upper bound iff they
    have a common maximal one.  An element x under a single maximal element
    t lies in no violating triple: every upper bound of x lies under t, so
    each element sharing a bound with x lies under t, and t bounds the
    triple.  So ``within`` is cut to the elements under two or more maximal
    elements, which keeps every violating triple and so every yielded pair
    and mask; under a maximum nothing is left.

    By masks: tops[i] holds the maximal elements at or above i, holders[t]
    the elements under t, and compat[i] the elements of within that share
    a maximal element with i.  For each pair a < b sharing one, the
    candidates c > b are compatible with both, and c is good when a
    maximal element lies above a, b and c; the candidates that are not
    good complete the violating triples.

    A comparable pair completes no violating triple: if a lies below b,
    every common upper bound of b and c lies above a too, and the triple
    is bounded (likewise if b lies below a).  So b runs over the elements
    incomparable to a, which yields the same pairs and masks.
    """
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    above, below = (P._up, P._down) if direction == "up" else (P._down, P._up)
    maximal = sum(1 << i for i, m in enumerate(above) if not m)
    tops = [(m | 1 << i) & maximal for i, m in enumerate(above)]
    within &= sum(1 << i for i, m in enumerate(tops) if m & m - 1)  # two or more maximal elements
    holders = [m | 1 << i for i, m in enumerate(below)]
    compat = {}
    for i in _bits(within):
        c = 0
        for t in _bits(tops[i]):
            c |= holders[t]
        compat[i] = c & within
    goods = {}  # shared maximal elements -> the elements under one of them
    for a in _bits(within):
        for b in _bits((compat[a] & ~(above[a] | below[a])) >> (a + 1) << (a + 1)):
            cand = compat[a] & compat[b] >> (b + 1) << (b + 1)
            if not cand:
                continue
            shared = tops[a] & tops[b]
            good = goods.get(shared)
            if good is None:
                good = 0
                for t in _bits(shared):
                    good |= holders[t]
                goods[shared] = good
            if cand & ~good:
                yield a, b, cand & ~good


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
