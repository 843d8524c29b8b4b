"""Exact metric geometry of ordered simplicial complexes.

Everything here works in exact rational arithmetic: the two simplex norms,
vertex coordinates of the model simplices, points given by barycentric
weights or chain coordinates, and a boundary-mesh shortest-path upper bound
for the length metric.  No floating point enters any verdict.

Every chamber length comes from one formula on the running weight sums of
its two points (`_length`); the model coordinates and the norms stay public
as the definition that formula is tested against.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, inf, lcm
from operator import sub

from .complexes import order_complex
from .errors import (
    Disconnected,
    NoCommonChamber,
    NotComparableToAll,
    NotSumZero,
    ParameterTooLarge,
    UnknownLabel,
)
from .generators import _check_range
from .poset import _key


def frac(x):
    """Parse ints (not bools), Fractions, and strings like '2/3' into exact rationals."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise ValueError(f"not an exact rational: {x!r}")


def frac_str(x):
    if not isinstance(x, Fraction):  # Fraction(x) of a Fraction is a slow copy
        x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# -- norms -------------------------------------------------------------------


def linf_norm(v):
    """max |v_i|, the sup norm."""
    return max((abs(frac(x)) for x in v), default=Fraction(0))


def polyhedral_norm(v):
    """max over i != j of |v_i - v_j|, on the sum-zero hyperplane.

    Equals max(v) - min(v); raises NotSumZero off the hyperplane.
    """
    v = [frac(x) for x in v]
    if sum(v, Fraction(0)) != 0:
        raise NotSumZero(f"coordinates sum to {sum(v)}, not zero")
    if len(v) <= 1:
        return Fraction(0)
    return max(v) - min(v)


def polyhedral_ball_extreme_points(n):
    """Extreme points of the unit ball of the polyhedral norm in dimension n.

    Returned as full (n+1)-coordinate sum-zero tuples, sorted: one point
    1_S - |S|/(n+1) for each nonempty proper subset S of {0..n}.  n = 2
    yields the six hexagon vertices, n = 3 the fourteen vertices of the
    rhombic dodecahedron.
    """
    _check_range("polyhedral_ball_extreme_points", "n", n, 1, 3)
    return sorted(tuple((i in S) - Fraction(len(S), n + 1) for i in range(n + 1))
                  for size in range(1, n + 1) for S in combinations(range(n + 1), size))


# -- model coordinates of chambers ---------------------------------------------


def orthoscheme_coords(d):
    """Vertex coordinates of the standard d-orthoscheme: k ones then zeros."""
    return [tuple(Fraction(1) if i < k else Fraction(0) for i in range(d)) for k in range(d + 1)]


def affine_simplex_coords(d):
    """Vertex coordinates of the standard cyclic d-simplex on the sum-zero hyperplane."""
    out = []
    for i in range(d + 1):
        j = d + 1 - i
        out.append(
            tuple(
                Fraction(j, d + 1) if k < i else Fraction(-i, d + 1)
                for k in range(d + 1)
            )
        )
    return out


def _sums(simplex, weights):
    """The running weight sums a_0, ..., a_d of a point (vertex -> weight) along a chamber's vertex order."""
    out, a = [], 0
    for v in simplex:
        a += weights.get(v, 0)
        out.append(a)
    return out


def _length(order_type, a, b):
    """The chamber length between two points given by their running sums a and b.

    With D_k = a_k - b_k, the orthoscheme place of a point is x_i = 1 - a_i,
    so the sup norm is max |D_k|; the cyclic-simplex place is 1 - a_k less a
    constant, so the polyhedral norm is max D_k - min D_k.  D_d = 0 for both
    types, and rotating a type-A chamber's vertex order shifts D cyclically
    and by a constant, which leaves the length unchanged.
    """
    diff = list(map(sub, a, b))
    return max(map(abs, diff)) if order_type == "C" else max(diff) - min(diff)


def as_point(X, point):
    """Normalize a vertex label or weight mapping into a barycentric point."""
    if isinstance(point, dict):
        weights = {v: frac(w) for v, w in point.items() if frac(w) != 0}
        if sum(weights.values(), Fraction(0)) != 1:
            raise ValueError("barycentric weights must sum to 1")
        if any(w < 0 for w in weights.values()):
            raise ValueError("barycentric weights must be nonnegative")
        for v in weights:
            if v not in X._index:
                raise UnknownLabel(f"unknown vertex {v!r}")
        if not X.has_simplex(weights.keys()):
            raise UnknownLabel(f"support {sorted(map(str, weights))} spans no simplex")
        return weights
    if point in X._index:
        return {point: 1}  # equal to Fraction(1) and hashed alike, but in C: a mesh query hashes it to find its node
    raise UnknownLabel(f"unknown vertex {point!r}")


def chamber_distance_in_complex(X, p, q):
    """Exact norm distance between two points sharing a chamber."""
    p, q = as_point(X, p), as_point(X, q)
    support = set(p) | set(q)
    i = X.carrier(support)
    if i is None:
        raise NoCommonChamber(f"{sorted(map(str, support))} lies in no single chamber")
    s = X.maximal_simplices[i]
    return Fraction(_length(X.order_type, _sums(s, p), _sums(s, q)))


# -- mesh graph and the length-metric upper bound --------------------------------


class MeshApproximator:
    """Shortest-path distances through mesh points on chamber boundaries.

    Nodes are the points whose barycentric weights are positive multiples of
    the mesh on a proper face of some chamber (plus all vertices); two nodes
    sharing a chamber are joined by a path of their exact chamber length.
    The graph distance is an upper bound for the length metric that does not
    increase when the mesh is refined by an integer factor.

    The graph is built once, at the first query; no query changes it.  Its
    nodes are ints and its weights the chamber lengths times m, at mesh 1/m,
    as a node's running weight sums times m are ints.  The chambers of one
    size share a template: their nodes by vertex position, and the pairs of
    nodes with no node of the chamber between them.  Only those pairs are
    edges.  The chamber length is a norm distance, positive between distinct
    nodes, so a pair with a node between its ends is a path of shorter kept
    pairs of the same total, and no distance changes.

    Each mesh node that ends a query keeps its search open between
    queries, for the approximator's life: about 0.09 MiB per distinct
    endpoint on affine_A_patch(2, 3) at 1/64.  A query between two mesh
    nodes reads its distance from either end's search if that search has
    made it final; else it opens whichever end's search is missing, and the
    two settle toward each other until the shortest path between the ends
    is known (_dijkstra).
    A node's support is a proper face of a chamber, never a whole one, so a
    chamber holds only the nodes on its own proper faces.  An off-mesh
    endpoint is joined, for its query only, to the nodes of the chambers
    containing its support, and to the other endpoint if it is off-mesh
    there; such a query meets two fresh searches, one from each end's
    joins, and keeps neither.

    A complex and mesh with more than MAX_PAIRS pairs of mesh nodes that
    share a chamber are refused before any node is made.
    """

    MAX_PAIRS = 10**6

    def __init__(self, X, mesh):
        mesh = frac(mesh)
        if mesh <= 0 or mesh.numerator != 1:
            raise ValueError("mesh must be 1/m for a positive integer m")
        m, pairs = mesh.denominator, 0
        for k, chambers in Counter(map(len, X.maximal_simplices)).items():
            nodes = sum(comb(k, size) * comb(m - 1, size - 1) for size in range(1, max(k, 2)))  # as _templates
            pairs += chambers * comb(nodes, 2)
        if pairs > self.MAX_PAIRS:
            raise ParameterTooLarge(f"mesh 1/{m} joins {pairs} node pairs, more than {self.MAX_PAIRS}")
        self.X = X
        self.mesh = mesh
        self._searches = {}  # a mesh node's int -> its open search (_search), distances times m

    @cached_property
    def _templates(self):
        """Chamber size k -> (nodes, pairs): a k-vertex chamber's mesh nodes and the pairs kept as edges.

        A node is its (vertex position, weight) pairs with its running weight
        sums times m.  A kept pair (a, c, length times m) has no node b with
        len(a, b) + len(b, c) = len(a, c).  a's partners are tried in order of
        length from a, each against a's kept partners only: a witness b whose
        own pair with a was dropped has a kept witness nearer to a.
        """
        m, out = self.mesh.denominator, {}
        for k in {len(s) for s in self.X.maximal_simplices}:
            nodes = []
            for size in range(1, max(k, 2)):  # a lone vertex is its own node
                for face in combinations(range(k), size):
                    for cuts in combinations(range(1, m), size - 1):  # weights c/m, c > 0, cut at 0 < c_1 < ... < m
                        c = [y - x for x, y in zip((0,) + cuts, cuts + (m,))]
                        nodes.append((tuple((p, Fraction(w, m)) for p, w in zip(face, c)),
                                      _sums(range(k), dict(zip(face, c)))))
            length = [[0] * len(nodes) for _ in nodes]
            for a, (_, sa) in enumerate(nodes):
                for c in range(a + 1, len(nodes)):
                    length[a][c] = length[c][a] = _length(self.X.order_type, sa, nodes[c][1])
            pairs = []
            for a, row in enumerate(length):
                kept = []
                for c in sorted(range(len(nodes)), key=row.__getitem__)[1:]:  # a itself comes first, at 0
                    for b in kept:
                        if row[b] + length[b][c] == row[c]:
                            break
                    else:
                        kept.append(c)
                        if a < c:
                            pairs.append((a, c, row[c]))
            out[k] = nodes, pairs
        return out

    def _chamber(self, i):
        """The mesh nodes of chamber i, each with its running weight sums times m, in its template's order."""
        s = self.X.maximal_simplices[i]
        return [(frozenset((s[p], w) for p, w in node), sums) for node, sums in self._templates[len(s)][0]]

    @cached_property
    def _graph(self):
        """(ids, adj, at): the mesh nodes' ints, per int its (neighbour, least kept chamber length times m) pairs, per chamber its nodes' ints."""
        ids, adj, ats = {}, [], []
        for i, s in enumerate(self.X.maximal_simplices):
            at = [ids.setdefault(node, len(ids)) for node, _ in self._chamber(i)]
            ats.append(at)
            adj.extend({} for _ in range(len(ids) - len(adj)))
            for a, c, w in self._templates[len(s)][1]:
                a, c = at[a], at[c]
                if w < adj[a].get(c, w + 1):
                    adj[a][c] = adj[c][a] = w
        return ids, [tuple(pairs.items()) for pairs in adj], ats

    def distance(self, p, q):
        p, q = as_point(self.X, p), as_point(self.X, q)
        source, target = frozenset(p.items()), frozenset(q.items())
        ids, adj, _ = self._graph
        if source in ids and target in ids:
            s, t = ids[source], ids[target]
            d, scale = self._final(s, t), self.mesh.denominator
            if d is None:
                for a in {s, t} - self._searches.keys():
                    self._searches[a] = _search(adj, {a: 0})
                d = _dijkstra(adj, self._searches[s], 1, self._searches[t])
        else:
            d, scale = self._off_mesh(source, target)
        if d == inf:
            raise Disconnected("no path between the query points")
        return Fraction(d, scale)

    def _final(self, s, t):
        """The distance between s and t if either one's open search has made it final (inf if unreached), else None."""
        for a, b in ((s, t), (t, s)):
            if a in self._searches:
                best, _, heap = self._searches[a]
                if not heap or best[b] is not None and best[b] <= heap[0]:
                    return inf if best[b] is None else best[b]
        return None

    def _off_mesh(self, source, target):
        """(distance, scale) of a query with an off-mesh endpoint: two fresh searches, from each end's joins, meet.

        The scale also clears the endpoints' weights, so the graph's edges count scale // m times.  The distance is inf
        where no path joins the endpoints.
        """
        X, (ids, adj, ats), m = self.X, self._graph, self.mesh.denominator
        fine = lcm(m, *(w.denominator for node in (source, target) if node not in ids for _, w in node))
        ends, placed, direct = [], {}, []  # each endpoint's {node's int: join length}; chamber -> off-mesh sums there
        for node in (source, target):
            if node in ids:
                ends.append({ids[node]: 0})
                continue
            joins = {}
            for i in X.carriers(v for v, _ in node):
                s = X.maximal_simplices[i]
                here = [int(x * fine) for x in _sums(s, dict(node))]
                for b, (_, sums) in zip(ats[i], self._templates[len(s)][0]):
                    w = _length(X.order_type, here, [x * (fine // m) for x in sums])
                    joins[b] = min(w, joins.get(b, w))
                if i in placed:  # the source is off-mesh in this chamber too
                    direct.append(_length(X.order_type, here, placed[i]))
                placed[i] = here
            ends.append(joins)
        return min([*direct, _dijkstra(adj, _search(adj, ends[0]), fine // m, _search(adj, ends[1]))]), fine


def _search(adj, starts):
    """A new open search from the start nodes, each at its given distance, for _dijkstra to settle.

    A search is (best, buckets, heap): each node int's distance, None where
    unreached; each distance reached, settled or open, -> the nodes that
    joined it, so they list every node reached; and the open distances.  A
    distance no farther than every open one is final, as any other path
    runs through an open node.
    """
    best, buckets = [None] * len(adj), {}
    for node, d in starts.items():
        best[node] = d
        buckets.setdefault(d, []).append(node)
    return best, buckets, sorted(buckets)  # a sorted list is a heap


def _dijkstra(adj, search, ratio, ends):
    """Settle two searches in place toward each other, one distance at a time; return mu, the shortest path's length.

    adj holds each node int's (neighbour, weight) pairs, the weights counting
    ratio times.  mu, the least sum of a node's distances in the two
    searches, starts from one pass over the nodes of whichever search has
    reached fewer distances, and is kept at every relaxation.  The searches
    settle toward each other, always the one whose least open distance is
    smaller, until those two distances sum to at least mu or one search has
    nothing open, and both stay open for later calls.  mu is then exact:
    were a path shorter, its first node v that one search has not settled
    has its true distance there, from a settled predecessor, no nearer than
    that search's least open distance; the rest of the path is then nearer
    than the other's, which has settled v, so mu counts the path.  A
    complete search has settled every node it reaches, so mu counts every
    node that both reach.
    """
    (best, buckets, heap), (joins, _, far) = search, ends
    fewer, more = (search, ends) if len(buckets) <= len(ends[1]) else (ends, search)
    nearest = min((fewer[0][v] + j for nodes in fewer[1].values() for v in nodes if (j := more[0][v]) is not None),
                  default=inf)
    while heap and far:
        if far[0] < heap[0]:  # settle whichever search is nearer
            search, ends = ends, search
            (best, buckets, heap), (joins, _, far) = search, ends
        if heap[0] + far[0] >= nearest:
            break
        d = heapq.heappop(heap)
        for node in buckets[d]:
            if best[node] != d:  # reached nearer after it joined this distance
                continue
            for other, w in adj[node]:
                nd = d + w * ratio
                b = best[other]
                if b is None or nd < b:
                    best[other] = nd
                    j = joins[other]
                    if j is not None and nd + j < nearest:
                        nearest = nd + j
                    if nd not in buckets:  # a new distance, as every settled one is nearer
                        buckets[nd] = []
                        heapq.heappush(heap, nd)
                    buckets[nd].append(other)
    return nearest


# -- chain-coordinate points on poset realizations -----------------------------------


@dataclass(frozen=True)
class PLPoint:
    """A point of an orthoscheme realization: a maximal chain plus coordinates.

    coords u with 0 <= u_1 <= ... <= u_n <= 1 give the i-th chain element the
    barycentric weight u_{i+1} - u_i (with u_0 = 0 and u_{n+1} = 1), so equal
    consecutive coordinates erase the chain element between them; that is the
    gluing rule across chains.
    """

    chain: tuple
    coords: tuple

    def __post_init__(self):
        coords = tuple(frac(u) for u in self.coords)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "chain", tuple(self.chain))
        if len(self.chain) != len(coords) + 1:
            raise ValueError("a rank-n chain needs n+1 elements and n coordinates")
        lo = Fraction(0)
        for u in coords:
            if u < lo:
                raise ValueError("coordinates must be nondecreasing")
            lo = u
        if coords and coords[-1] > 1:
            raise ValueError("coordinates must stay within [0, 1]")

    def weights(self):
        bounds = (Fraction(0),) + self.coords + (Fraction(1),)
        return [bounds[i + 1] - bounds[i] for i in range(len(self.chain))]

    def to_barycentric(self):
        return {c: w for c, w in zip(self.chain, self.weights()) if w != 0}

    def to_json(self):
        return {
            "chain": [str(c) for c in self.chain],
            "coords": [frac_str(u) for u in self.coords],
        }

    @classmethod
    def from_json(cls, data):
        return cls(tuple(data["chain"]), tuple(frac(u) for u in data["coords"]))


# -- the local product decomposition ------------------------------------------------


@dataclass(frozen=True)
class ProductReport:
    center: object
    samples: int
    max_discrepancy: Fraction
    bound: Fraction

    @property
    def ok(self):
        return self.max_discrepancy <= self.bound

    def to_json(self):
        return {
            "property": "local_linf_product_decomposition",
            "holds": self.ok,
            "witness": None if self.ok else {
                "max_discrepancy": frac_str(self.max_discrepancy),
                "bound": frac_str(self.bound),
            },
            "samples": self.samples,
        }


def local_product_check(L, x, mesh=Fraction(1, 4)):
    """Compare distances near x in |L| with the sup of the two factor distances.

    L must have x comparable to every element; points are sampled on the mesh
    grid at barycentric weight 1 - 2*mesh on x, one toward each of the first
    12 other elements in label order, and distances in |L| are
    compared against max of the distances between the projections to the
    realizations of L+ = {y >= x} and L- = {y <= x}.  The documented bound on
    the discrepancy is 2 * mesh.
    """
    mesh = frac(mesh)
    for y in L.elements:
        if not L.comparable(x, y):
            raise NotComparableToAll(f"{y!r} is not comparable to {x!r}")
    up, down = L.up_set(x), L.down_set(x)
    plus, minus = L.restrict(up), L.restrict(down)
    full_c, plus_c, minus_c = order_complex(L), order_complex(plus), order_complex(minus)
    approx_full = MeshApproximator(full_c, mesh)
    approx_plus = MeshApproximator(plus_c, mesh)
    approx_minus = MeshApproximator(minus_c, mesh)

    delta = 2 * mesh
    samples = [{x: 1 - delta, y: delta} for y in sorted((y for y in L.elements if y != x), key=_key)[:12]]

    def project(point, side):
        kept = {v: w for v, w in point.items() if v in side and v != x}
        lump = 1 - sum(kept.values(), Fraction(0))
        if lump:
            kept[x] = lump
        return kept

    worst = Fraction(0)
    count = 0
    for a, b in combinations(samples, 2):
        d_full = approx_full.distance(a, b)
        d_plus = approx_plus.distance(project(a, up), project(b, up))
        d_minus = approx_minus.distance(project(a, down), project(b, down))
        worst = max(worst, abs(d_full - max(d_plus, d_minus)))
        count += 1
    return ProductReport(x, count, worst, 2 * mesh)
