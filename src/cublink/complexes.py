"""Ordered and cyclically ordered flag simplicial complexes and their star posets.

A complex is presented by its maximal simplices; each stored tuple encodes
the total order (type C) or a linear representative of the cyclic order
(type A) on its vertices.  Complexes are immutable after validation and all
per-vertex operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import CycleDetected, DuplicateLabel, InconsistentOrder, NotFlag, NotLocalPoset, UnknownLabel
from .poset import Poset, _key


def canonical_rotation(t):
    """Lexicographically least rotation, the canonical form of a cyclic tuple."""
    if not t:
        return t
    rotations = [t[i:] + t[:i] for i in range(len(t))]
    return min(rotations, key=lambda r: tuple(map(_key, r)))


def maximal_cliques(vertices, adjacency):
    """Maximal cliques of a graph, in deterministic order (Bron-Kerbosch).

    The branches live on an explicit stack, so deep graphs do not reach the
    recursion limit.
    """
    cliques = []
    stack = [((), set(vertices), set())]
    while stack:
        clique, candidates, excluded = stack.pop()
        if not candidates and not excluded:
            cliques.append(clique)
            continue
        pivot_pool = candidates | excluded
        pivot = max(pivot_pool, key=lambda v: (len(adjacency[v] & candidates), _key(v)))
        for v in sorted(candidates - adjacency[pivot], key=_key):
            stack.append((clique + (v,), candidates & adjacency[v], excluded & adjacency[v]))
            candidates = candidates - {v}
            excluded = excluded | {v}
    return sorted(cliques, key=lambda c: tuple(map(_key, sorted(c, key=_key))))


class OrderedComplex:
    """Finite simplicial complex whose simplices carry vertex orders.

    order_type "C" means each stored tuple is a total order; "A" means it is
    one linear representative of a cyclic order (rotating a stored tuple
    yields an equivalent complex).
    """

    __slots__ = ("order_type", "vertices", "maximal_simplices", "_vertex_set",
                 "_max_sets", "_incident", "_adjacency")

    def __init__(self, order_type, vertices, maximal_simplices):
        if order_type not in ("A", "C"):
            raise ValueError("order_type must be 'A' or 'C'")
        self.order_type = order_type
        self._vertex_set = set()
        for v in vertices:
            if v in self._vertex_set:
                raise DuplicateLabel(f"duplicate vertex label {v!r}")
            self._vertex_set.add(v)
        self.vertices = tuple(sorted(self._vertex_set, key=_key))

        cleaned = []
        seen = set()
        for s in maximal_simplices:
            s = tuple(s)
            if len(set(s)) != len(s):
                raise ValueError(f"repeated vertex in simplex {s}")
            for v in s:
                if v not in self._vertex_set:
                    raise UnknownLabel(f"simplex uses undeclared vertex {v!r}")
            key = frozenset(s)
            if not s or key in seen:
                continue
            seen.add(key)
            cleaned.append(s)
        # keep only inclusion-maximal simplices; larger ones are kept first, and
        # a simplex containing s goes through every vertex of s, so the
        # shortest list of kept simplices through a vertex of s suffices
        kept = []
        through = {v: [] for v in self.vertices}
        for s in sorted(cleaned, key=len, reverse=True):
            key = frozenset(s)
            if any(key <= m for m in min((through[v] for v in s), key=len)):
                continue
            kept.append(s)
            for v in s:
                through[v].append(key)
        kept += [(v,) for v in self.vertices if not through[v]]  # bare vertices
        if self.order_type == "A":
            kept = [canonical_rotation(s) for s in kept]
        self.maximal_simplices = tuple(sorted(kept, key=lambda s: tuple(map(_key, s))))
        self._max_sets = tuple(frozenset(s) for s in self.maximal_simplices)
        incident = {v: [] for v in self.vertices}
        adj = {v: set() for v in self.vertices}
        for i, s in enumerate(self.maximal_simplices):
            for v in s:
                incident[v].append(i)
                adj[v].update(s)
        self._incident = {v: tuple(ids) for v, ids in incident.items()}
        self._adjacency = {v: frozenset(nb - {v}) for v, nb in adj.items()}

    def __eq__(self, other):
        return (
            isinstance(other, OrderedComplex)
            and self.order_type == other.order_type
            and self.vertices == other.vertices
            and set(self.maximal_simplices) == set(other.maximal_simplices)
        )

    def __hash__(self):
        return hash((self.order_type, self.vertices, frozenset(self.maximal_simplices)))

    # -- membership -----------------------------------------------------

    def carriers(self, face):
        """Indices of the maximal simplices that contain the face, ascending.

        Only the simplices through one vertex of the face can contain it, so
        this scans the shortest incidence list among the face's vertices.
        """
        face = frozenset(face)
        ids = min((self._incident.get(v, ()) for v in face), key=len,
                  default=range(len(self.maximal_simplices)))
        return (i for i in ids if face <= self._max_sets[i])

    def carrier(self, face):
        """Index of the first maximal simplex that contains the face, or None."""
        return next(self.carriers(face), None)

    def has_simplex(self, vertex_set):
        vs = frozenset(vertex_set)
        return not vs or self.carrier(vs) is not None

    def neighbors(self, x):
        if x not in self._adjacency:
            raise UnknownLabel(f"unknown vertex {x!r}")
        return self._adjacency[x]

    def edges(self):
        return sorted(
            {frozenset((a, b)) for s in self.maximal_simplices for a, b in combinations(s, 2)},
            key=lambda e: tuple(sorted(map(_key, e))),
        )

    def induced_tuple(self, vertex_set):
        """The order the complex induces on a face, from its first carrier simplex."""
        vs = frozenset(vertex_set)
        i = self.carrier(vs)
        if i is None:
            raise UnknownLabel(f"{sorted(map(str, vs))} is not a face")
        t = tuple(v for v in self.maximal_simplices[i] if v in vs)
        return canonical_rotation(t) if self.order_type == "A" else t

    def to_json(self):
        return {
            "type": self.order_type,
            "vertices": [str(v) for v in self.vertices],
            "maximal_simplices": [[str(v) for v in s] for s in self.maximal_simplices],
        }

    @classmethod
    def from_json(cls, data):
        return cls(data["type"], data["vertices"], [tuple(s) for s in data["maximal_simplices"]])


# -- validation ---------------------------------------------------------------


def validate(X, require_flag=True):
    """Check face-order consistency and (optionally) flagness.

    Two chambers disagree on their shared face exactly when they disagree on
    a shared edge (type C) or triangle (type A), so one pass records the
    first orientation of each edge or triangle and every chamber that breaks
    it: linear in the chambers' edges or triangles.  The InconsistentOrder
    witness is the shared face of the first pair of chambers, in
    maximal_simplices order, that disagree.  NotFlag carries a minimal empty
    clique.  Returns the complex itself for chaining.
    """
    k = 2 if X.order_type == "C" else 3
    first, clashes = {}, []
    for i, s in enumerate(X.maximal_simplices):
        for f in combinations(s, k):
            if k == 3:
                f = canonical_rotation(f)
            orientation, j = first.setdefault(frozenset(f), (f, i))
            if orientation != f:
                clashes.append((j, i))
    if clashes:
        i, j = min(clashes)
        raise InconsistentOrder(X._max_sets[i] & X._max_sets[j])

    if require_flag:
        for clique in maximal_cliques(X.vertices, X._adjacency):
            if not X.has_simplex(clique):
                raise NotFlag(_shrink_to_minimal_nonface(X, set(clique)))
    return X


def _shrink_to_minimal_nonface(X, clique):
    changed = True
    while changed:
        changed = False
        for v in sorted(clique, key=_key):
            smaller = clique - {v}
            if len(smaller) >= 2 and not X.has_simplex(smaller):
                clique = smaller
                changed = True
                break
    return frozenset(clique)


# -- star relations ---------------------------------------------------------------


def _chains_at(X, x):
    """Each chamber through x, read from x: type A rotates it to start at x."""
    if x not in X._incident:
        raise UnknownLabel(f"unknown vertex {x!r}")
    for i in X._incident[x]:
        s = X.maximal_simplices[i]
        k = s.index(x) if X.order_type == "A" else 0
        yield s[k:] + s[:k]


def star_relation(X, x):
    """The oriented relation on St(x), as a dict y -> set of z with y < z at x.

    Type A: y < z iff {x, y, z} is a triangle whose cyclic order reads
    (x, y, z).  Type C: y < z iff {x, y, z} spans a simplex and the edge
    {y, z} is oriented from y to z; pairs involving x itself use the edge
    {x, y} so that St+(x) and St-(x) are visible in the same relation.

    The relation is read off the chambers through x.  Callers validate X
    first: then any two chambers agree on every edge (type C) and triangle
    (type A) they share, so each chamber gives the same orientation.
    """
    rel = {}
    skip = 1 if X.order_type == "A" else 0  # type A leaves x out
    for s in _chains_at(X, x):
        for a, b in combinations(s[skip:], 2):
            rel.setdefault(a, set()).add(b)
    return rel


def _relation_cycle(rel):
    """A directed cycle of the star relation, or None.

    The star poset is the transitive closure of the relation, so the closure
    is a partial order exactly when the relation is acyclic.  Within any
    single simplex the induced order is total, hence acyclic; cycles can only
    be stitched together from several simplices (for example a cone over an
    oriented rim cycle) and those are the genuine local-poset failures.
    """
    state = {}
    for root in sorted(rel, key=_key):
        if root in state:
            continue
        state[root] = "open"
        path = [root]  # the open vertices, each with its unvisited successors
        todo = [iter(sorted(rel[root], key=_key))]
        while path:
            for w in todo[-1]:
                s = state.get(w)
                if s == "open":
                    return tuple(path[path.index(w):])
                if s is None:
                    state[w] = "open"
                    path.append(w)
                    todo.append(iter(sorted(rel.get(w, ()), key=_key)))
                    break
            else:
                state[path.pop()] = "done"
                todo.pop()
    return None


def is_local_poset(X):
    """First vertex whose star relation fails to generate a partial order, or None.

    Returns (vertex, cycle) where cycle is a tuple of star elements that the
    relation orders cyclically.
    """
    for x in X.vertices:
        cycle = _relation_cycle(star_relation(X, x))
        if cycle is not None:
            return (x, cycle)
    return None


@dataclass(frozen=True)
class StarPoset:
    """The star of a vertex as a poset.

    For type A the center is the minimum.  For type C the center sits in the
    middle: every element lies above it (St+) or below it (St-).
    """

    center: object
    order_type: str
    poset: Poset


def star_poset(X, x):
    """The poset (St(x), <=_x), the transitive closure of the star relation.

    Each chamber through x, read from x, is a chain of the relation, so its
    consecutive pairs suffice.  Raises NotLocalPoset on a relation cycle.
    """
    pairs = [(a, b) for s in _chains_at(X, x) for a, b in zip(s, s[1:])]
    try:
        poset = Poset.from_covers(sorted({x} | X.neighbors(x), key=_key), pairs)
    except CycleDetected:
        raise NotLocalPoset(x, _relation_cycle(star_relation(X, x))) from None
    return StarPoset(x, X.order_type, poset)


# -- realizations of posets ---------------------------------------------------------


def order_complex(P):
    """The type-C complex of chains of a poset, ordered bottom-up."""
    return OrderedComplex("C", P.elements, P.maximal_chains())
