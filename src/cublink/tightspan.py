"""Injective hulls of small finite metric spaces and the matching-sum dimension test.

The hull of a metric d is the polyhedral complex of pointwise-minimal
functions f with f(x) + f(y) >= d(x, y); it equals the union of the bounded
faces of that polyhedron.  Vertices are enumerated exactly: a minimal f is a
0-dimensional face precisely when its tightness graph pins every component
through a loop or an odd cycle, so every vertex solves F(x) + F(k(x)) = d(x, k(x))
for some self-map k whose functional graph has only odd cycles.  One search
builds k a point at a time and drops a branch as soon as a value it pins is
infeasible; the faces are the intersections of vertex tightness graphs that
still touch every point.  All arithmetic is integer after clearing denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm
from operator import add

from .errors import NotAMetric, TooManyPoints
from .metric import frac, frac_str


class FiniteMetric:
    """A finite metric space over labeled points, with exact rational distances.

    The distances are validated, and read by tight_span and the Dress test,
    as one int matrix: themselves times the lcm of their denominators, a
    positive scale that keeps every comparison of sums.
    """

    def __init__(self, points, dist):
        self.points = tuple(points)
        n = len(self.points)
        if len(set(self.points)) != n:
            raise NotAMetric("point labels must be unique")
        rows = [[frac(x) for x in row] for row in dist]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise NotAMetric("distance matrix shape must match the point count")
        scale = lcm(*(x.denominator for row in rows for x in row))
        D = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
        for i in range(n):
            if D[i][i] != 0:
                raise NotAMetric(f"nonzero diagonal at {self.points[i]!r}")
            for j in range(n):
                if D[i][j] != D[j][i]:
                    raise NotAMetric("distance matrix must be symmetric")
                if i != j and D[i][j] <= 0:
                    raise NotAMetric("distinct points need positive distance")
        # D is symmetric, so (i, j, k) fails exactly when (j, i, k) does, and i == j never fails:
        # the first failure in product order has i < j
        for i, j in combinations(range(n), 2):
            if D[i][j] > min(map(add, D[i], D[j])):
                k = next(k for k in range(n) if D[i][j] > D[i][k] + D[k][j])
                raise NotAMetric(
                    f"triangle inequality fails on ({self.points[i]}, {self.points[j]}, {self.points[k]})"
                )
        self.dist = tuple(tuple(r) for r in rows)
        self._ints = tuple(tuple(r) for r in D)
        self._scale = scale

    def __len__(self):
        return len(self.points)

    def to_json(self):
        return {
            "points": [str(p) for p in self.points],
            "dist": [[frac_str(x) for x in row] for row in self.dist],
        }

    @classmethod
    def from_json(cls, data):
        return cls(data["points"], data["dist"])


@dataclass(frozen=True)
class HullFace:
    """One face of the hull: its tightness graph, dimension, and vertex indices."""

    tight_pairs: frozenset
    dimension: int
    vertex_indices: tuple

    def to_json(self):
        return {
            "tight_pairs": sorted([sorted(map(str, p)) for p in self.tight_pairs]),
            "dimension": self.dimension,
            "vertices": list(self.vertex_indices),
        }


@dataclass(frozen=True)
class TightSpan:
    metric: FiniteMetric
    vertices: tuple          # tuples of Fractions, indexed like metric.points
    faces: tuple             # HullFace records
    dimension: int

    def to_json(self):
        return {
            "points": [str(p) for p in self.metric.points],
            "dimension": self.dimension,
            "vertices": [[frac_str(x) for x in v] for v in self.vertices],
            "faces": [f.to_json() for f in self.faces],
        }


def _hull_vertices(D2):
    """Doubled values F of the hull's vertices, found by a pruned search over self-maps.

    The self-map k is built one point at a time.  Each touched point carries a
    form (root, sign, const), meaning F = sign * t[root] + const with t[root]
    the free value of its tree, or (None, 0, value) once pinned.  Setting
    k(x) = y adds the constraint F[x] + F[y] = D2[x][y]: closing an even cycle
    is rejected, an odd cycle or an edge into a pinned tree pins x's tree, and
    otherwise x's tree is re-expressed in the free value of y's.  A branch stops
    as soon as a pinned value breaks F[i] + F[j] >= D2[i][j] (with i == j this
    is F[i] >= 0), so every completed map gives a feasible vertex.
    """
    n = len(D2)
    found = set()
    stack = [(0, (None,) * n)]
    while stack:
        x, forms = stack.pop()
        if x == n:
            found.add(tuple(c for _, _, c in forms))
            continue
        # x has no image yet, so its tree is free
        rx, sx, cx = forms[x] or (x, 1, 0)
        for y in range(n):
            form = list(forms)
            form[x] = (rx, sx, cx)
            ry, sy, cy = form[y] or (y, 1, 0)
            d = D2[x][y]
            if ry == rx:
                if sx != sy:
                    continue  # an even cycle
                # free constants only sum even D2 entries, so this halves exactly
                t = sx * (d - cx - cy) // 2
            elif ry is None:
                t = sx * (d - cx - cy)
            else:
                sign, shift = -sx * sy, sx * (d - cx - cy)
                form[y] = (ry, sy, cy)
                for p, f in enumerate(form):
                    if f is not None and f[0] == rx:
                        form[p] = (ry, sign * f[1], f[2] + f[1] * shift)
                stack.append((x + 1, tuple(form)))
                continue
            tree = [p for p, f in enumerate(form) if f is not None and f[0] == rx]
            for p in tree:
                form[p] = (None, 0, form[p][1] * t + form[p][2])
            pinned = [p for p, f in enumerate(form) if f is not None and f[0] is None]
            if all(form[i][2] + form[j][2] >= D2[i][j] for i in tree for j in pinned):
                stack.append((x + 1, tuple(form)))
    return sorted(found)


def _tight_graph(F, D2):
    n = len(F)
    pairs = set()
    for i in range(n):
        if F[i] == 0:
            pairs.add((i, i))
        for j in range(i + 1, n):
            if F[i] + F[j] == D2[i][j]:
                pairs.add((i, j))
    return frozenset(pairs)


def _covers_all(graph, n):
    touched = set()
    for i, j in graph:
        touched.add(i)
        touched.add(j)
    return len(touched) == n


def _face_dimension(graph, n):
    """Number of components of the tightness graph that are loop-free and bipartite."""
    adj = [[] for _ in range(n)]
    for i, j in graph:
        adj[i].append(j)
        if i != j:
            adj[j].append(i)
    color = [None] * n
    free = 0
    for start in range(n):
        if color[start] is not None:
            continue
        # each new start is a new component; a loop makes a vertex its own
        # neighbour, so its component fails the colouring
        color[start] = 0
        bipartite = True
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if color[w] is None:
                    color[w] = color[v] ^ 1
                    stack.append(w)
                elif color[w] == color[v]:
                    bipartite = False
        free += bipartite
    return free


def tight_span(metric):
    """The injective hull of a metric on at most 7 points.

    Returns the full face decomposition (faces indexed by their tightness
    graphs) together with the topological dimension, the maximum affine
    dimension of a face.
    """
    n = len(metric)
    if n > 7:
        raise TooManyPoints("the hull enumeration is limited to 7 points")
    if n == 0:
        return TightSpan(metric, (), (), -1)
    scale = metric._scale
    D2 = [[2 * x for x in row] for row in metric._ints]

    vertices = _hull_vertices(D2)
    # close the vertex tightness graphs under intersection: each bounded face
    # is the smallest face containing finitely many vertices, and its graph is
    # the intersection of theirs; covering every point is monotone, so meeting
    # each new graph with the vertex graphs alone reaches every such intersection
    vertex_graphs = [_tight_graph(F, D2) for F in vertices]
    graphs = set(vertex_graphs)
    work = list(graphs)
    while work:
        graph = work.pop()
        for other in vertex_graphs:
            meet = graph & other
            if meet not in graphs and _covers_all(meet, n):
                graphs.add(meet)
                work.append(meet)

    faces = []
    for graph in graphs:
        members = tuple(idx for idx, g in enumerate(vertex_graphs) if graph <= g)
        faces.append(HullFace(graph, _face_dimension(graph, n), members))
    faces.sort(key=lambda f: (f.dimension, sorted(f.tight_pairs)))
    dimension = max((f.dimension for f in faces), default=0)
    out_vertices = tuple(
        tuple(Fraction(x, 2 * scale) for x in F) for F in vertices
    )
    return TightSpan(metric, out_vertices, tuple(faces), dimension)


# -- the matching-sum dimension criterion ----------------------------------------


def dress_dimension_test(metric, n):
    """Whether every matching sum is dominated by some other derangement sum.

    True iff for every subset Z of 2(n+1) points and every fixed-point-free
    involution i on Z there is a fixed-point-free bijection j != i with
    sum d(z, i(z)) <= sum d(z, j(z)).  An involution has no such j exactly
    when it is the only derangement of largest sum.  A derangement and its
    inverse have equal sums, as d is symmetric, so a derangement that alone
    reaches the largest sum is its own inverse: the test fails exactly when
    some subset has a unique largest derangement sum.  When the space has
    fewer than 2(n+1) points the quantification is empty and the test is
    vacuously true, which matches the hull dimension bound |X| / 2.
    """
    size = 2 * (n + 1)
    if n < 1:
        raise ValueError("the dimension parameter must be at least 1")
    if len(metric) < size:
        return True  # vacuously, and without listing the size! permutations
    d = metric._ints  # a positive scale keeps which sum is largest
    derangements = [image for image in permutations(range(size)) if all(k != w for k, w in enumerate(image))]
    for subset in combinations(range(len(metric)), size):
        rows = [[d[z][w] for w in subset] for z in subset]
        sums = [sum(row[w] for row, w in zip(rows, image)) for image in derangements]
        if sums.count(max(sums)) == 1:
            return False
    return True


# -- corpus builders ---------------------------------------------------------------


def tree_metric(rng, leaves):
    """Path-distance metric of a random integer-weighted tree."""
    size = max(2, leaves)
    parents = {0: None}
    weight = {}
    for v in range(1, size):
        p = rng.randrange(v)
        parents[v] = p
        weight[v] = rng.randint(1, 4)

    def path_to_root(v):
        out = {}
        total = 0
        while v is not None:
            out[v] = total
            total += weight.get(v, 0)
            v = parents[v]
        return out

    paths = [path_to_root(v) for v in range(size)]
    # the least sum over common ancestors is at the lowest one, as weights are positive
    dist = [[min(pa[k] + pb[k] for k in pa if k in pb) for pb in paths] for pa in paths]
    return FiniteMetric([f"t{v}" for v in range(size)], dist)


def rectangle_metric(u, v, w1, w2):
    """Four points with pair distances u, v and cross distances w1, w2."""
    rows = [
        [0, u, w1, w2],
        [u, 0, w2, w1],
        [w1, w2, 0, v],
        [w2, w1, v, 0],
    ]
    return FiniteMetric(["a", "b", "c", "d"], rows)


def random_metric(rng, size, max_entry=9):
    """Random integer metric via shortest-path completion."""
    d = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            d[i][j] = d[j][i] = rng.randint(1, max_entry)
    for k in range(size):
        for i in range(size):
            for j in range(size):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[k][j] + d[i][k]
    return FiniteMetric([f"p{i}" for i in range(size)], d)
