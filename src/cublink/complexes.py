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
from .poset import Poset, _bits, _key


def canonical_rotation(t):
    """Lexicographically least rotation, the canonical form of a cyclic tuple.

    A least rotation starts at a position holding the least key, so only
    those rotations are compared; on a tie the first such position wins.
    """
    if not t:
        return t
    keys = tuple(map(_key, t))
    least = min(keys)
    i = min((i for i, k in enumerate(keys) if k == least), key=lambda i: keys[i:] + keys[:i])
    return t[i:] + t[:i]


def _clique_masks(adjacency):
    """Maximal cliques, as masks, of the graph whose vertex i has neighbour mask adjacency[i].

    Bron-Kerbosch with a pivot of most candidate neighbours; the branches live
    on an explicit stack, so deep graphs do not reach the recursion limit.
    """
    cliques = []
    stack = [(0, (1 << len(adjacency)) - 1, 0)]
    while stack:
        clique, candidates, excluded = stack.pop()
        if not candidates:
            if not excluded:
                cliques.append(clique)
            continue
        pivot = max(_bits(candidates | excluded), key=lambda v: (adjacency[v] & candidates).bit_count())
        for v in _bits(candidates & ~adjacency[pivot]):
            bit = 1 << v
            stack.append((clique | bit, candidates & adjacency[v], excluded & adjacency[v]))
            candidates ^= bit
            excluded |= bit
    return cliques


def maximal_cliques(vertices, adjacency):
    """Maximal cliques of a graph given by label adjacency, in deterministic order.

    Each clique is a tuple in label order, and the cliques are sorted.
    """
    labels = sorted(set(vertices), key=_key)
    index = {v: i for i, v in enumerate(labels)}
    masks = [sum(1 << index[w] for w in adjacency[v] if w in index) for v in labels]
    return [tuple(labels[i] for i in c) for c in sorted(tuple(_bits(m)) for m in _clique_masks(masks))]


class OrderedComplex:
    """Finite simplicial complex whose simplices carry vertex orders.

    order_type "C" means each stored tuple is a total order; "A" means it is
    one linear representative of a cyclic order (rotating a stored tuple
    yields an equivalent complex).

    Index i stands for ``vertices[i]``, in label order.  ``_chambers[c]`` is
    ``maximal_simplices[c]`` as a tuple of indices and ``_chamber_masks[c]``
    its vertex mask; ``_incident[i]`` lists the chambers through i and
    ``_adjacency[i]`` is the mask of i's neighbours.
    """

    __slots__ = ("order_type", "vertices", "maximal_simplices", "_index", "_chambers",
                 "_chamber_masks", "_incident", "_adjacency")

    def __init__(self, order_type, vertices, maximal_simplices):
        if order_type not in ("A", "C"):
            raise ValueError("order_type must be 'A' or 'C'")
        self.order_type = order_type
        seen = set()
        for v in vertices:
            if v in seen:
                raise DuplicateLabel(f"duplicate vertex label {v!r}")
            seen.add(v)
        self.vertices = tuple(sorted(seen, key=_key))
        for a, b in zip(self.vertices, self.vertices[1:]):
            if _key(a) == _key(b):
                raise DuplicateLabel(f"vertex labels {a!r} and {b!r} print the same")
        self._index = index = {v: i for i, v in enumerate(self.vertices)}

        cleaned = {}  # vertex set -> index tuple, the first simplex on it
        for s in maximal_simplices:
            s = tuple(s)
            if len(set(s)) != len(s):
                raise ValueError(f"repeated vertex in simplex {s}")
            try:
                t = tuple(map(index.__getitem__, s))
            except KeyError as err:
                raise UnknownLabel(f"simplex uses undeclared vertex {err.args[0]!r}") from None
            if t:
                cleaned.setdefault(frozenset(t), t)
        # keep only inclusion-maximal simplices; larger ones are kept first, and
        # a simplex containing s goes through every vertex of s, so the
        # shortest list of kept simplices through a vertex of s suffices
        kept = []
        through = [[] for _ in self.vertices]
        for t in sorted(cleaned.values(), key=len, reverse=True):
            mask = sum(1 << v for v in t)
            if any(m & mask == mask for m in min((through[v] for v in t), key=len)):
                continue
            kept.append((t, mask))
            for v in t:
                through[v].append(mask)
        kept += [((v,), 1 << v) for v in range(len(self.vertices)) if not through[v]]  # bare vertices
        if self.order_type == "A":  # index order is label order, so rotate to the least index
            kept = [(t[t.index(min(t)):] + t[:t.index(min(t))], mask) for t, mask in kept]
        kept.sort()
        self._chambers = tuple(t for t, _ in kept)
        self._chamber_masks = tuple(mask for _, mask in kept)
        self.maximal_simplices = tuple(tuple(self.vertices[v] for v in t) for t in self._chambers)
        incident = [[] for _ in self.vertices]
        adjacency = [0] * len(self.vertices)
        for c, (t, mask) in enumerate(kept):
            for v in t:
                incident[v].append(c)
                adjacency[v] |= mask
        self._incident = tuple(map(tuple, incident))
        self._adjacency = tuple(m & ~(1 << v) for v, m in enumerate(adjacency))

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

    def _index_of(self, x):
        try:
            return self._index[x]
        except KeyError:
            raise UnknownLabel(f"unknown vertex {x!r}") from None

    def _labels(self, mask):
        return frozenset(self.vertices[i] for i in _bits(mask))

    def carriers(self, face):
        """Indices of the maximal simplices that contain the face, ascending.

        Only the chambers through one vertex of the face can contain it, so
        this scans the shortest incidence list among the face's vertices.
        """
        mask = 0
        for v in face:
            if v not in self._index:
                return iter(())
            mask |= 1 << self._index[v]
        ids = min((self._incident[i] for i in _bits(mask)), key=len, default=range(len(self._chambers)))
        return (c for c in ids if self._chamber_masks[c] & mask == mask)

    def carrier(self, face):
        """Index of the first maximal simplex that contains the face, or None."""
        return next(self.carriers(face), None)

    def has_simplex(self, vertex_set):
        vs = frozenset(vertex_set)
        return not vs or self.carrier(vs) is not None

    def neighbors(self, x):
        return self._labels(self._adjacency[self._index_of(x)])

    def edges(self):
        """The edges as label pairs, in label order."""
        return [frozenset((self.vertices[i], self.vertices[j]))
                for i, m in enumerate(self._adjacency) for j in _bits(m >> i + 1 << i + 1)]

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
    first orientation of each edge or triangle (keyed by its sorted indices
    spelt in base n, not by its mask: an int hashes modulo 2**61 - 1, so the
    masks of faces whose indices agree modulo 61 collide) and every chamber
    that breaks it: linear in the chambers' edges or triangles.  The
    InconsistentOrder witness is the shared face of the first pair of
    chambers, in maximal_simplices order, that disagree.

    A face inside a maximal clique lies in a chamber, which is itself a
    clique, so a maximal clique is a face exactly when it is a chamber.
    NotFlag carries a minimal empty clique, shrunk from the first maximal
    clique in label order that is not a chamber.  Returns the complex
    itself for chaining.
    """
    n = len(X.vertices)
    first, clashes = {}, []
    for i, s in enumerate(X._chambers):
        if X.order_type == "C":
            faces = ((a * n + b, True) if a < b else (b * n + a, False) for a, b in combinations(s, 2))
        else:
            faces = (_triangle(a, b, c, n) for a, b, c in combinations(s, 3))
        for key, orientation in faces:
            seen, j = first.setdefault(key, (orientation, i))
            if seen != orientation:
                clashes.append((j, i))
    if clashes:
        i, j = min(clashes)
        raise InconsistentOrder(X._labels(X._chamber_masks[i] & X._chamber_masks[j]))

    if require_flag:
        chambers = {0, *X._chamber_masks}  # 0: the one clique of the empty complex
        nonfaces = [c for c in _clique_masks(X._adjacency) if c not in chambers]
        if nonfaces:
            clique = min(nonfaces, key=lambda c: tuple(_bits(c)))
            raise NotFlag(_shrink_to_minimal_nonface(X, set(X._labels(clique))))
    return X


def _triangle(a, b, c, n):
    """The key and orientation of a cyclic triple of indices.

    Rotated to start at its least index, the triple reads (a, b, c); the key
    spells a, min(b, c), max(b, c) in base n, and the orientation is b < c.
    """
    a, b, c = (a, b, c) if a < b and a < c else (b, c, a) if b < c else (c, a, b)
    return ((a * n + b) * n + c, True) if b < c else ((a * n + c) * n + b, False)


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


def _chains_at(X, i):
    """Each chamber through vertex i as indices, read from i: type A rotates it to start at i."""
    for c in X._incident[i]:
        s = X._chambers[c]
        k = s.index(i) if X.order_type == "A" else 0
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
    V = X.vertices
    for s in _chains_at(X, X._index_of(x)):
        for a, b in combinations(s[skip:], 2):
            rel.setdefault(V[a], set()).add(V[b])
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

    The star is x with its neighbours, indexed locally in label order.  Each
    chamber through x, read from x, is a chain of the relation, so its
    consecutive pairs suffice.  Raises NotLocalPoset on a relation cycle.
    """
    i = X._index_of(x)
    star = list(_bits(X._adjacency[i] | 1 << i))
    local = {v: k for k, v in enumerate(star)}
    pairs = {(local[a], local[b]) for s in _chains_at(X, i) for a, b in zip(s, s[1:])}
    try:
        poset = Poset._from_index_pairs([X.vertices[v] for v in star], pairs)
    except CycleDetected:
        raise NotLocalPoset(x, _relation_cycle(star_relation(X, x))) from None
    return StarPoset(x, X.order_type, poset)


# -- realizations of posets ---------------------------------------------------------


def order_complex(P):
    """The type-C complex of chains of a poset, ordered bottom-up."""
    return OrderedComplex("C", P.elements, P.maximal_chains())
