"""Ordered and cyclically ordered flag simplicial complexes and their star posets.

A complex is presented by its maximal simplices; each stored tuple encodes
the total order (type C) or a linear representative of the cyclic order
(type A) on its vertices.  Complexes are immutable after validation and all
per-vertex operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby

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
        # keep only inclusion-maximal simplices, longest first; only a longer
        # simplex can contain s, and it goes through every vertex of s, so the
        # shortest list of kept longer simplices through a vertex of s suffices
        kept = []
        through = [[] for _ in self.vertices]
        for _, group in groupby(sorted(cleaned.values(), key=len, reverse=True), key=len):
            fresh = [(t, sum(1 << v for v in t)) for t in group]
            if kept:
                fresh = [(t, mask) for t, mask in fresh
                         if not any(m & mask == mask for m in min((through[v] for v in t), key=len))]
            kept += fresh
            for t, mask in fresh:
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
    The chambers are looked up by their masks' bytes, not by the masks,
    whose hashes collide as above.  NotFlag carries a minimal empty clique,
    shrunk from the first maximal clique in label order that is not a
    chamber.  Returns the complex itself for chaining.
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
        width = (n + 7) // 8  # 0 below: the one clique of the empty complex
        chambers = {m.to_bytes(width, "little") for m in (0, *X._chamber_masks)}
        nonfaces = [c for c in _clique_masks(X._adjacency) if c.to_bytes(width, "little") not in chambers]
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


# -- star posets ---------------------------------------------------------------


def _chains_at(X, i):
    """Each chamber through vertex i as indices, read from i: type A rotates it to start at i."""
    for c in X._incident[i]:
        s = X._chambers[c]
        k = s.index(i) if X.order_type == "A" else 0
        yield s[k:] + s[:k]


def _relation_cycle(succ):
    """A directed cycle, as a list of indices, of the relation with successor masks succ, or None.

    Depth-first from each index in ascending order, taking successors in
    ascending order, on an explicit stack so long paths do not reach the
    recursion limit; the cycle is the first back edge's, from its target on.
    """
    state = [0] * len(succ)  # 0 unseen, 1 on the path, 2 done
    for root in range(len(succ)):
        if state[root]:
            continue
        state[root] = 1
        path, todo = [root], [_bits(succ[root])]  # the path, each with its unvisited successors
        while path:
            for w in todo[-1]:
                if state[w] == 1:
                    return path[path.index(w):]
                if not state[w]:
                    state[w] = 1
                    path.append(w)
                    todo.append(_bits(succ[w]))
                    break
            else:
                state[path.pop()] = 2
                todo.pop()
    return None


def is_local_poset(X):
    """First vertex whose star relation fails to generate a partial order, or None.

    Returns (vertex, cycle), the NotLocalPoset of star_poset at the first
    vertex in label order where it raises one.
    """
    for x in X.vertices:
        try:
            star_poset(X, x)
        except NotLocalPoset as err:
            return (x, err.cycle)
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

    Type A: y < z iff {x, y, z} is a triangle whose cyclic order reads
    (x, y, z), and x lies below its whole star.  Type C: y < z iff
    {x, y, z} spans a simplex and the edge {y, z} is oriented from y to z;
    pairs involving x itself use the edge {x, y}, so St+(x) and St-(x) lie in
    the same relation.

    The star is x with its neighbours, indexed locally in label order.  Each
    chamber through x, read from x, is a chain of the relation, so its
    consecutive pairs suffice.  The closure is a partial order exactly when
    the relation is acyclic; each chamber orders its vertices totally, so a
    cycle is stitched from several chambers (say a cone over an oriented rim
    cycle).  On one, raises NotLocalPoset with the first cycle _relation_cycle
    finds among all pairs of each chain.  In type A, x precedes its whole
    star, so the search from x visits the rest as the loop over roots would
    and x changes no witness.
    """
    i = X._index_of(x)
    star = list(_bits(X._adjacency[i] | 1 << i))
    local = {v: k for k, v in enumerate(star)}
    labels = [X.vertices[v] for v in star]
    pairs = {(local[a], local[b]) for s in _chains_at(X, i) for a, b in zip(s, s[1:])}
    try:
        poset = Poset._from_index_pairs(labels, pairs)
    except CycleDetected:
        succ = [0] * len(star)
        for s in _chains_at(X, i):
            for a, b in combinations(s, 2):
                succ[local[a]] |= 1 << local[b]
        raise NotLocalPoset(x, tuple(labels[k] for k in _relation_cycle(succ))) from None
    return StarPoset(x, X.order_type, poset)


# -- realizations of posets ---------------------------------------------------------


def order_complex(P):
    """The type-C complex of chains of a poset, ordered bottom-up.

    check_type_C takes the poset itself and reads each star off its order,
    with no chain enumerated; this complex is for the checks and metrics
    that need its simplices.
    """
    return OrderedComplex("C", P.elements, P.maximal_chains())
