"""Ordered and cyclically ordered flag simplicial complexes and their star posets.

A complex is presented by its maximal simplices; each stored tuple encodes
the total order (type C) or a linear representative of the cyclic order
(type A) on its vertices.  Complexes are immutable after validation and all
per-vertex operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby, pairwise

from .errors import CycleDetected, InconsistentOrder, NotFlag, NotLocalPoset, UnknownLabel
from .poset import Poset, _bits, _label_order


def _clique_masks(adjacency, faces=()):
    """Maximal cliques, as masks, of the graph whose vertex i has neighbour mask adjacency[i], but the faces.

    Bron-Kerbosch with a pivot of most candidate neighbours; the branches live
    on an explicit stack, so deep graphs do not reach the recursion limit,
    and a branch with no candidates is decided as it is made.  faces are
    cliques, as masks, looked up by their bytes, as the hashes of int masks
    collide (see validate).  A branch whose clique and candidates together
    form a face holds no other maximal clique: each clique in it lies in
    that face, and a maximal clique inside a face is the face itself.  So
    the whole graph and each branch of at most one candidate are looked up,
    and skipped if they form a face.  A wider branch is not looked up: in
    a complex its candidates seldom lie in one chamber, and on
    affine_A_patch(4, 3) those lookups cost more than the branches they skip.
    """
    width, everyone = (len(adjacency) + 7) // 8, (1 << len(adjacency)) - 1
    faces = {m.to_bytes(width, "little") for m in faces}
    if everyone.to_bytes(width, "little") in faces:
        return []
    cliques, stack = ([], [(0, everyone, 0)]) if everyone else ([0], [])
    while stack:
        clique, candidates, excluded = stack.pop()
        rest, most = candidates | excluded, -1  # the pivot is the lowest of the most
        while rest:
            bit = rest & -rest
            v = bit.bit_length() - 1
            k = (adjacency[v] & candidates).bit_count()
            if k > most:
                most, pivot = k, v
            rest ^= bit
        rest = candidates & ~adjacency[pivot]
        while rest:
            bit = rest & -rest
            v = bit.bit_length() - 1
            inner, within = clique | bit, candidates & adjacency[v]
            if within & (within - 1) or (inner | within).to_bytes(width, "little") not in faces:
                if within:
                    stack.append((inner, within, excluded & adjacency[v]))
                elif not excluded & adjacency[v]:
                    cliques.append(inner)
            candidates ^= bit
            excluded |= bit
            rest ^= bit
    return cliques


class OrderedComplex:
    """Finite simplicial complex whose simplices carry vertex orders.

    order_type "C" means each stored tuple is a total order; "A" means it is
    one linear representative of a cyclic order (rotating a stored tuple
    yields an equivalent complex).

    Index i stands for ``vertices[i]``, in label order.  ``_chambers[c]`` is
    the c-th maximal simplex as a tuple of indices and ``_chamber_masks[c]``
    its vertex mask, and ``_adjacency[i]`` is the mask of i's neighbours.
    The link checks read only these, so ``maximal_simplices``, the chambers
    as label tuples, is built on its first read, and so is ``_relations``,
    every vertex's star relation, on the first star read: one pass folds
    the chambers' steps and hands each distinct step to the vertices of the
    chambers taking it, so it costs the chambers' total size plus one
    append per pair.  The chambers that hold a face are found by one scan
    of ``_chamber_masks`` (``_holding``).

    The listed simplices are reduced in their first orientation: a simplex
    whose vertex set repeats an earlier one's, or lies inside a kept
    chamber, is dropped, and its order is never read.  So listing (a, b, c)
    and then (a, c, b) gives the one type-A chamber (a, b, c).
    """

    __slots__ = ("order_type", "vertices", "_simplices", "_index", "_chambers",
                 "_chamber_masks", "_adjacency", "_star_pairs")

    def __init__(self, order_type, vertices, maximal_simplices):
        if order_type not in ("A", "C"):
            raise ValueError("order_type must be 'A' or 'C'")
        self.order_type = order_type
        self.vertices, self._index = _label_order(vertices, "vertex")
        index = self._index

        width = (len(self.vertices) + 7) // 8
        cleaned = {}  # vertex mask's bytes (int masks' hashes collide, see validate) -> the first (index tuple, mask) on it
        for s in maximal_simplices:
            s = tuple(s)
            try:
                t = tuple(map(index.__getitem__, s))
            except KeyError as err:
                if len(set(s)) != len(s):
                    raise ValueError(f"repeated vertex in simplex {s}") from None
                raise UnknownLabel(f"simplex uses undeclared vertex {err.args[0]!r}") from None
            mask = 0
            for v in t:
                mask |= 1 << v
            if mask.bit_count() != len(t):
                raise ValueError(f"repeated vertex in simplex {s}")
            if t:
                if self.order_type == "A":  # index order is label order, so rotate to the least index
                    k = t.index((mask & -mask).bit_length() - 1)
                    t = t[k:] + t[:k]
                cleaned.setdefault(mask.to_bytes(width, "little"), (t, mask))
        # keep only inclusion-maximal simplices, longest first; only a longer
        # simplex can contain s, and it goes through every vertex of s, so the
        # shortest list of kept longer simplices through a vertex of s suffices
        kept = []
        through = [[] for _ in self.vertices]
        by_size = sorted(cleaned.values(), key=lambda tm: len(tm[0]), reverse=True)
        groups = [list(group) for _, group in groupby(by_size, key=lambda tm: len(tm[0]))]
        for k, fresh in enumerate(groups):
            if kept:
                fresh = [(t, mask) for t, mask in fresh
                         if not any(m & mask == mask for m in min((through[v] for v in t), key=len))]
            kept += fresh
            if k + 1 < len(groups):  # no shorter simplex is left to filter after the last size
                for t, mask in fresh:
                    for v in t:
                        through[v].append(mask)
        covered = 0
        for _, mask in kept:
            covered |= mask
        kept += [((v,), 1 << v) for v in range(len(self.vertices)) if not covered >> v & 1]  # bare vertices
        leading = [[] for _ in self.vertices]  # lexicographic order: by leading index, then within each
        for tm in kept:
            leading[tm[0][0]].append(tm)
        kept = [tm for bucket in leading for tm in sorted(bucket)]
        self._chambers = tuple(t for t, _ in kept)
        self._chamber_masks = tuple(mask for _, mask in kept)
        self._simplices = self._star_pairs = None
        adjacency = [0] * len(self.vertices)
        for t, mask in kept:
            for v in t:
                adjacency[v] |= mask
        self._adjacency = tuple(m & ~(1 << v) for v, m in enumerate(adjacency))

    @property
    def maximal_simplices(self):
        """The chambers as label tuples, built on first read; the link checks read only _chambers."""
        if self._simplices is None:
            self._simplices = tuple(tuple(map(self.vertices.__getitem__, t)) for t in self._chambers)
        return self._simplices

    @property
    def _relations(self):
        """By index, each vertex's star pairs (see _star_preds), built on first read in one pass.

        Each distinct chamber step keeps the OR of the masks of the chambers
        taking it and goes to every vertex in that mask but, in type A, its head.
        """
        if self._star_pairs is None:
            cyclic, steps = self.order_type == "A", {}
            for t, mask in zip(self._chambers, self._chamber_masks):
                for step in pairwise(t + t[:1] if cyclic else t):
                    steps[step] = steps.get(step, 0) | mask
            self._star_pairs = pairs = [[] for _ in self.vertices]
            for step, mask in steps.items():
                mask &= ~(cyclic << step[1])  # in type A, all but the head
                while mask:
                    low = mask & -mask
                    pairs[low.bit_length() - 1].append(step)
                    mask ^= low
        return self._star_pairs

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

    def _holding(self, mask):
        """Indices of the chambers whose masks hold the mask, ascending."""
        return (c for c, m in enumerate(self._chamber_masks) if m & mask == mask)

    def carriers(self, face):
        """Indices of the maximal simplices that contain the face, ascending; none if it names an unknown label."""
        mask = 0
        for v in face:
            if v not in self._index:
                return iter(())
            mask |= 1 << self._index[v]
        return self._holding(mask)

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


def validate(X):
    """Check face-order consistency, then flagness.

    Two chambers disagree on their shared face exactly when they disagree on
    a shared edge (type C) or triangle (type A), so one pass records the
    first orientation of each edge or triangle (keyed by its sorted indices
    spelt in base n, not by its mask: an int hashes modulo 2**61 - 1, so the
    masks of faces whose indices agree modulo 61 collide) and every chamber
    that breaks it: linear in the chambers' edges or triangles.  The
    InconsistentOrder witness is the shared face of the first pair of
    chambers, in maximal_simplices order, that disagree.  Then
    _check_flag.  Returns the complex itself for chaining.

    The link checkers run validate only after their own flag check fails or
    their own relation closes a cycle.  A clash on an edge
    {u, v} (type C) puts v after u in one chamber through u and before it
    in another, and a clash on a triangle {a, b, c} (type A) does the same
    to b and c read from a; so it closes a 2-cycle in the star relation at
    u (at a), and in the global order.
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
    _check_flag(X)
    return X


def _check_flag(X):
    """Raise NotFlag unless every clique of the 1-skeleton spans a simplex; reads no order.

    A face inside a maximal clique lies in a chamber, which is itself a
    clique, so a maximal clique is a face exactly when it is a chamber, and
    the clique search skips the branches that span a chamber.  NotFlag
    carries a minimal empty clique, shrunk from the first maximal clique in
    label order that is not a chamber.
    """
    nonfaces = _clique_masks(X._adjacency, (0, *X._chamber_masks))  # 0: the one clique of the empty complex
    if nonfaces:
        clique = min(nonfaces, key=lambda c: tuple(_bits(c)))
        raise NotFlag(_shrink_to_minimal_nonface(X, clique))


def _triangle(a, b, c, n):
    """The key and orientation of a cyclic triple of indices.

    Rotated to start at its least index, the triple reads (a, b, c); the key
    spells a, min(b, c), max(b, c) in base n, and the orientation is b < c.
    """
    a, b, c = (a, b, c) if a < b and a < c else (b, c, a) if b < c else (c, a, b)
    return ((a * n + b) * n + c, True) if b < c else ((a * n + c) * n + b, False)


def _shrink_to_minimal_nonface(X, clique):
    """A minimal nonface, as labels, inside a clique mask that is no face.

    One pass in label order drops each vertex that leaves a nonface of two or
    more vertices; a kept vertex stays kept, as each subset of a face is a face.
    """
    for v in _bits(clique):
        smaller = clique ^ 1 << v
        if smaller.bit_count() >= 2 and next(X._holding(smaller), None) is None:
            clique = smaller
    return X._labels(clique)


# -- star posets ---------------------------------------------------------------


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

    Poset._from_preds closes the relation _star_preds reads off
    X._relations, which the first star read builds for every vertex in one
    pass over the chambers' steps: on affine_A_patch(4, 2), 9,600 step
    occurrences fold into 730 steps, handed out as 7,930 pairs, where
    reading each star's chambers formed 48,000.  The closure is a partial
    order exactly when the relation is acyclic; each chamber orders its
    vertices totally, so a cycle is stitched from several chambers (say a
    cone over an oriented rim cycle).  On one, raises NotLocalPoset with
    the first cycle _relation_cycle finds among all pairs of each chain,
    read from the chambers through x.  In type A, x precedes its whole
    star, so the search from x visits the rest as the loop over roots
    would and x changes no witness.  check_type_A builds only the stars
    that may fail.
    """
    i = X._index_of(x)
    star, preds = _star_preds(X, i)
    labels = list(map(X.vertices.__getitem__, star))
    try:
        poset = Poset._from_preds(labels, preds)
    except CycleDetected:
        local, succ = dict(zip(star, range(len(star)))), [0] * len(star)
        for s in map(X._chambers.__getitem__, X._holding(1 << i)):
            k = s.index(i) if X.order_type == "A" else 0
            for a, b in combinations(s[k:] + s[:k], 2):
                succ[local[a]] |= 1 << local[b]
        raise NotLocalPoset(x, tuple(labels[k] for k in _relation_cycle(succ))) from None
    return StarPoset(x, X.order_type, poset)


def _star_preds(X, i, center=True):
    """The star of the vertex with index i as X's indices, ascending, and by local index each one's distinct predecessors.

    Each chamber through the vertex, read from it, is a chain of the star
    relation, so its steps suffice: its consecutive pairs, in type A its
    cyclic steps but the one into the vertex.  X._relations holds those
    pairs for every vertex, built in one pass on the first star read, so
    here they are only mapped to local indices.  With center false the
    vertex and its pairs from it are left out; it must head no pair, as
    in type A.
    """
    local, m = {}, X._adjacency[i] | center << i
    while m:
        low = m & -m
        local[low.bit_length() - 1] = len(local)
        m ^= low
    preds = [[] for _ in local]
    for a, b in X._relations[i]:
        k = local.get(a)
        if k is not None:
            preds[local[b]].append(k)
    return list(local), preds


# -- realizations of posets ---------------------------------------------------------


def order_complex(P):
    """The type-C complex of chains of a poset, ordered bottom-up.

    check_type_C takes the poset itself, with no chain enumerated: one pass
    over its order finds the elements whose star fails, and only their
    stars are read off it.  This complex is for the checks and metrics that
    need its simplices.
    """
    return OrderedComplex("C", P.elements, P.maximal_chains())
