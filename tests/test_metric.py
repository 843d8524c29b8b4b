"""Norms, chamber distances, mesh approximation, product decomposition."""

import copy
import heapq
import random
from fractions import Fraction
from itertools import combinations
from math import comb, inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cublink.complexes import OrderedComplex, order_complex
from cublink.errors import Disconnected, NoCommonChamber, NotComparableToAll, NotSumZero, ParameterTooLarge
from cublink.generators import affine_A_patch, boolean_poset
from cublink.metric import (
    MeshApproximator,
    PLPoint,
    _dijkstra,
    _length,
    _search,
    affine_simplex_coords,
    chamber_distance_in_complex,
    frac,
    linf_norm,
    local_product_check,
    orthoscheme_coords,
    polyhedral_ball_extreme_points,
    polyhedral_norm,
)

F = Fraction


# -- norms -------------------------------------------------------------------


def test_linf_basics():
    assert linf_norm([1, 1, 1]) == 1
    assert linf_norm([0, 0, 0]) == 0
    assert linf_norm([]) == 0
    assert linf_norm([F(1, 3), F(-1, 2)]) == F(1, 2)


def test_frac_refuses_inexact_values():
    for x in (1.5, True, None, [1]):
        with pytest.raises(ValueError, match="not an exact rational"):
            frac(x)


def test_polyhedral_norm_on_simplex_vertex():
    assert polyhedral_norm([F(2, 3), F(-1, 3), F(-1, 3)]) == 1
    assert polyhedral_norm([0, 0, 0]) == 0


def test_polyhedral_norm_requires_sum_zero():
    with pytest.raises(NotSumZero):
        polyhedral_norm([1, 0, 0])


def test_polyhedral_norm_permutation_invariant():
    v = [F(5, 6), F(-1, 2), F(-1, 3)]
    w = [F(-1, 2), F(-1, 3), F(5, 6)]
    assert polyhedral_norm(v) == polyhedral_norm(w)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@given(st.lists(rationals, min_size=1, max_size=5), rationals)
@settings(max_examples=150, deadline=None)
def test_linf_norm_axioms(v, scale):
    w = list(reversed(v))
    assert linf_norm([scale * x for x in v]) == abs(scale) * linf_norm(v)
    assert linf_norm([a + b for a, b in zip(v, w)]) <= linf_norm(v) + linf_norm(w)
    assert linf_norm(v) >= 0


@given(st.lists(rationals, min_size=2, max_size=5), rationals)
@settings(max_examples=150, deadline=None)
def test_polyhedral_norm_axioms(v, scale):
    v = v[:-1] + [-sum(v[:-1], F(0))]
    w = list(reversed(v))
    assert polyhedral_norm([scale * x for x in v]) == abs(scale) * polyhedral_norm(v)
    assert polyhedral_norm([a + b for a, b in zip(v, w)]) <= polyhedral_norm(v) + polyhedral_norm(w)
    assert polyhedral_norm(v) >= 0


BALL_EXTREME_POINTS = {
    1: ["-1/2 1/2", "1/2 -1/2"],
    2: ["-2/3 1/3 1/3", "-1/3 -1/3 2/3", "-1/3 2/3 -1/3", "1/3 -2/3 1/3", "1/3 1/3 -2/3", "2/3 -1/3 -1/3"],
    3: ["-3/4 1/4 1/4 1/4", "-1/2 -1/2 1/2 1/2", "-1/2 1/2 -1/2 1/2", "-1/2 1/2 1/2 -1/2", "-1/4 -1/4 -1/4 3/4",
        "-1/4 -1/4 3/4 -1/4", "-1/4 3/4 -1/4 -1/4", "1/4 -3/4 1/4 1/4", "1/4 1/4 -3/4 1/4", "1/4 1/4 1/4 -3/4",
        "1/2 -1/2 -1/2 1/2", "1/2 -1/2 1/2 -1/2", "1/2 1/2 -1/2 -1/2", "3/4 -1/4 -1/4 -1/4"],
}


@pytest.mark.parametrize("n", sorted(BALL_EXTREME_POINTS))
def test_ball_extreme_points(n):
    # the segment, the six hexagon vertices and the fourteen of the rhombic dodecahedron
    points = polyhedral_ball_extreme_points(n)
    assert [" ".join(map(str, p)) for p in points] == BALL_EXTREME_POINTS[n]
    assert all(sum(p) == 0 and polyhedral_norm(p) == 1 for p in points)


@pytest.mark.parametrize("n, error", [(-1, ValueError), (0, ValueError), (4, ParameterTooLarge)])
def test_ball_extreme_points_outside_the_range(n, error):
    # below the range is bad input, above it is beyond desk scale
    message = r"^polyhedral_ball_extreme_points supports 1 <= n <= 3$"
    with pytest.raises((ValueError, ParameterTooLarge), match=message) as err:
        polyhedral_ball_extreme_points(n)
    assert type(err.value) is error


# -- chamber distances on complexes ----------------------------------------------


def test_all_edges_have_length_one():
    for P in (boolean_poset(2), boolean_poset(3), boolean_poset(4)):
        X = order_complex(P)
        for s in X.maximal_simplices:
            for a, b in zip(s, s[1:]):
                assert chamber_distance_in_complex(X, a, b) == 1
    A = affine_A_patch(2, 1)
    for s in A.maximal_simplices:
        for i in range(len(s)):
            for j in range(i + 1, len(s)):
                assert chamber_distance_in_complex(A, s[i], s[j]) == 1


def test_chamber_diagonal_of_orthoscheme():
    X = order_complex(boolean_poset(3))
    assert chamber_distance_in_complex(X, "{}", "{1,2,3}") == 1


def test_face_distance_matches_ambient_chamber():
    X = order_complex(boolean_poset(3))
    # the edge {} < {1,2} is a face of several chambers; its metric must agree
    p = {"{}": F(1, 3), "{1,2}": F(2, 3)}
    q = {"{}": F(3, 4), "{1,2}": F(1, 4)}
    assert chamber_distance_in_complex(X, p, q) == F(5, 12)


@pytest.mark.parametrize("order_type", ["C", "A"])
def test_chamber_distance_is_the_norm_of_the_model_places(order_type):
    # seeded points of a d-chamber, d = 0..4, in a seeded vertex order, placed
    # at the model vertices: the orthoscheme with the sup norm, the cyclic
    # simplex with the polyhedral norm.  A type-A chamber is stored from its
    # least label, so its model is placed in every rotation of its order.
    rng = random.Random(f"model places:{order_type}")
    coords_of, norm = (orthoscheme_coords, linf_norm) if order_type == "C" else (affine_simplex_coords, polyhedral_norm)
    for d in range(5):
        labels = [f"v{k}" for k in range(d + 1)]
        order = rng.sample(labels, d + 1)
        X = OrderedComplex(order_type, labels, [tuple(order)])
        rotations = [order[r:] + order[:r] for r in range(d + 1 if order_type == "A" else 1)]

        def place(point, s):
            at = dict(zip(s, coords_of(d)))
            return [sum((w * at[v][i] for v, w in point.items()), F(0)) for i in range(len(at[s[0]]))]

        def point():
            support = rng.sample(labels, rng.randint(1, d + 1))
            w = [rng.randint(1, 9) for _ in support]
            return {v: F(x, sum(w)) for v, x in zip(support, w)}

        for _ in range(25):
            p, q = point(), point()
            got = chamber_distance_in_complex(X, p, q)
            for s in rotations:
                assert got == norm([a - b for a, b in zip(place(p, s), place(q, s))]), (s, p, q)


def test_no_common_chamber():
    X = order_complex(boolean_poset(2))
    with pytest.raises(NoCommonChamber):
        chamber_distance_in_complex(X, "{1}", "{2}")


# -- chain-coordinate points -----------------------------------------------------


def test_plpoint_weights_convention():
    chain = ("{}", "{1}", "{1,2}")
    p = PLPoint(chain, (F(0), F(1)))  # all weight on the middle element
    assert p.to_barycentric() == {"{1}": F(1)}
    q = PLPoint(chain, (F(1, 3), F(2, 3)))
    assert q.weights() == [F(1, 3), F(1, 3), F(1, 3)]


def _chain_point_distance(P, p, q):
    return chamber_distance_in_complex(order_complex(P), p.to_barycentric(), q.to_barycentric())


def test_chamber_distance_between_chain_points():
    B = boolean_poset(2)
    chain = ("{}", "{1}", "{1,2}")
    p = PLPoint(chain, (F(0), F(0)))      # the top vertex
    q = PLPoint(chain, (F(1), F(1)))      # the bottom vertex
    assert _chain_point_distance(B, p, q) == 1
    assert _chain_point_distance(B, p, p) == 0


def test_chamber_distance_uses_gluing():
    B = boolean_poset(2)
    # both points sit on the diagonal edge {} < {1,2}; their chains differ at
    # the middle rank but the identification makes them share a chamber
    p = PLPoint(("{}", "{1}", "{1,2}"), (F(1, 4), F(1, 4)))
    q = PLPoint(("{}", "{2}", "{1,2}"), (F(3, 4), F(3, 4)))
    assert _chain_point_distance(B, p, q) == F(1, 2)


def test_atoms_of_square_share_no_chamber():
    B = boolean_poset(2)
    a = PLPoint(("{}", "{1}", "{1,2}"), (F(0), F(1)))
    b = PLPoint(("{}", "{2}", "{1,2}"), (F(0), F(1)))
    with pytest.raises(NoCommonChamber):
        _chain_point_distance(B, a, b)
    # the length metric still sees them at distance 1, via the diagonal
    X = order_complex(B)
    assert MeshApproximator(X, F(1, 4)).distance("{1}", "{2}") == 1


# -- mesh approximation ------------------------------------------------------------


def flat(point):
    """The sum-zero coordinates of a point of a type-A patch: a vertex label or barycentric weights."""
    weights = point if isinstance(point, dict) else {point: F(1)}
    coords = [[F(x) for x in label.split(",")] for label in weights]
    v = [sum(w * c[i] for w, c in zip(weights.values(), coords)) for i in range(len(coords[0]))]
    mean = sum(v, F(0)) / len(v)
    return [x - mean for x in v]


def chamber_point(rng, X):
    """A point inside a seeded chamber of X: never a mesh node, as mesh nodes lie on proper faces."""
    s = rng.choice(X.maximal_simplices)
    w = [rng.randint(1, 6) for _ in s]
    return {v: F(x, sum(w)) for v, x in zip(s, w)}


def test_one_chamber_distance_survives_any_mesh():
    X = order_complex(boolean_poset(2))
    for mesh in (F(1, 2), F(1, 4), F(1, 8)):
        assert MeshApproximator(X, mesh).distance("{}", "{1,2}") == 1


def test_two_squares_sharing_edge_linf():
    # two unit squares side by side: opposite corners at sup-distance 2
    X = OrderedComplex(
        "C",
        ["a0", "a1", "b1", "ab", "c1", "ac"],
        [
            ("a0", "a1", "ab"), ("a0", "b1", "ab"),
            ("a0", "c1", "ac"), ("a0", "a1", "ac"),
        ],
    )
    # squares ab (corners a0..ab) and ac glued along the edge a0 < a1; the
    # shortest route passes through the shared corner a1
    d = MeshApproximator(X, F(1, 8)).distance("ab", "ac")
    assert d == 2


def test_disconnected_components_raise():
    X = OrderedComplex("C", ["a", "b", "p", "q"], [("a", "b"), ("p", "q")])
    with pytest.raises(Disconnected):
        MeshApproximator(X, F(1, 2)).distance("a", "q")
    # the searches from a and p run out inside their own components; either must answer a query across them
    approx = MeshApproximator(X, F(1, 2))
    assert approx.distance("a", "b") == approx.distance("p", "q") == 1
    # and a meet of two off-mesh ends, one in each component
    off = {"a": F(1, 3), "b": F(2, 3)}, {"p": F(1, 4), "q": F(3, 4)}
    for p, q in (("a", "q"), ("q", "a"), ("b", "p"), ("p", "b"), ({"a": F(1, 2), "b": F(1, 2)}, "q"), off, off[::-1]):
        with pytest.raises(Disconnected):
            approx.distance(p, q)


def test_mesh_refinement_does_not_increase():
    X = affine_A_patch(2, 2)
    coarse = MeshApproximator(X, F(1, 2)).distance("0,0,0", "1,1,0")
    fine = MeshApproximator(X, F(1, 4)).distance("0,0,0", "1,1,0")
    assert fine <= coarse


def test_refinement_does_not_widen_the_gap_to_the_flat_norm():
    # pairs of vertices have no gap at mesh 1/8 or 1/16, so the pairs here are
    # of points inside seeded chambers, where a mesh route must bend
    X = affine_A_patch(2, 2)
    rng = random.Random("refinement")
    pairs = [(chamber_point(rng, X), chamber_point(rng, X)) for _ in range(30)]
    gaps = []
    for mesh in (F(1, 8), F(1, 16)):
        approx = MeshApproximator(X, mesh)
        gaps.append([approx.distance(p, q) - polyhedral_norm([a - b for a, b in zip(flat(p), flat(q))])
                     for p, q in pairs])
    coarse, fine = gaps
    assert all(0 <= g <= c for c, g in zip(coarse, fine))
    assert any(coarse)


@pytest.mark.parametrize("X", [affine_A_patch(2, 2), order_complex(boolean_poset(3))], ids=["patch(2,2)", "B(3)"])
def test_open_searches_change_no_answer(X):
    # one approximator answers mesh queries from its open searches, in both
    # orders and with off-mesh queries between them, as a fresh one does
    rng = random.Random(f"cached rows:{X.order_type}")
    mesh = F(1, 3)

    def mesh_point():  # a vertex, or a mesh node inside an edge
        if rng.random() < 0.5:
            return rng.choice(X.vertices)
        a, b = rng.sample(rng.choice(X.maximal_simplices), 2)
        c = rng.randint(1, 2)
        return {a: c * mesh, b: 1 - c * mesh}

    pairs = [(mesh_point(), mesh_point()) for _ in range(8)]
    queries = [q for p, r in pairs for q in ((p, r), (chamber_point(rng, X), r))] + [(r, p) for p, r in pairs]
    approx = MeshApproximator(X, mesh)
    for p, q in queries:
        assert approx.distance(p, q) == MeshApproximator(X, mesh).distance(p, q), (p, q)
    assert approx._searches


def b3_beside_an_edge():
    """The order complex of B(3) and, apart from it, an edge: a query from one to the other is Disconnected.

    The farthest node of its own part is farther from some nodes of the
    edge than from some nodes of B(3), and nearer from others, so either
    side of a meet between the parts can complete first.
    """
    X = order_complex(boolean_poset(3))
    return OrderedComplex("C", [*X.vertices, "p", "q"], [*X.maximal_simplices, ("p", "q")])


def complete(adj, starts):
    """Every node's distance from the starts, None where unreached."""
    return textbook_dijkstra(adj, starts, 1, {})[0]


def settled(search, t):
    """Whether an open search has made t's distance final: no farther than every open distance, or nothing open."""
    best, _, heap = search
    return not heap or best[t] is not None and best[t] <= heap[0]


def interleaved_queries(rng, row):
    """Seeded queries between mesh node ints, most of them from a few reused sources to nearby targets.

    row(s) is the complete distance row of s.  Among the queries: p == q; a
    run from the last query's source to the other nodes at its target's
    distance, then to nodes up to twice as far, where a search that stops
    before its target's distance is final could read a longer path; a pair
    turned round after its target's own shorter query, so that the target's
    open search has not settled the source; pairs of two earlier endpoints,
    whose searches are both open; and targets the source does not reach,
    where there are any, then the same target from an earlier endpoint it
    does not reach either.
    """
    nodes = range(len(row(0)))
    sources, out = rng.sample(nodes, 5), []
    near = lambda s: sorted((x for x in nodes if row(s)[x] is not None), key=row(s).__getitem__)[1:40]
    while len(out) < 60:
        kind, s = rng.randrange(7), rng.choice(sources)
        if kind == 0:
            out.append((s, s))
        elif kind == 1 and out:
            s, t = out[-1]
            d = row(s)[t]
            past = [x for x in nodes if d is not None and row(s)[x] is not None and d < row(s)[x] <= 2 * d]
            out.extend((s, x) for x in nodes if x != t and row(s)[x] == d)
            out.extend((s, x) for x in sorted(rng.sample(past, min(8, len(past))), key=row(s).__getitem__))
        elif kind == 2:
            t = rng.choice(near(s))
            out.extend([(s, t), (t, rng.choice([x for x in near(t) if row(t)[x] < row(t)[s]] or [t])), (t, s)])
        elif kind == 6 and out:
            out.append(tuple(rng.sample([x for pair in out for x in pair], 2)))
        else:
            far = [x for x in nodes if row(s)[x] is None] if kind == 5 else []
            out.append((s, rng.choice(far or (near(s) if kind == 3 else nodes))))
            if far:
                out.append((rng.choice([x for pair in out for x in pair if row(x)[out[-1][1]] is None]), out[-1][1]))
    return out


@pytest.mark.parametrize("X, m, cases", [
    (affine_A_patch(2, 3), 16, {"target reached, not final"}),
    (b3_beside_an_edge(), 4,
     {"after Disconnected", "a search completed in a meet", "Disconnected, both searches complete"}),
], ids=["patch(2,3) at 1/16", "B(3) beside an edge at 1/4"])
def test_resumed_searches_match_fresh_rows(X, m, cases):
    # one approximator's searches stop and resume between its queries; each answer must be
    # the target's distance in a fresh complete search from the query's source
    ids, adj, _ = MeshApproximator(X, F(1, m))._graph
    points, rows, seen = [dict(node) for node in ids], {}, set()  # ids lists the nodes in the order of their ints

    def row(s):
        if s not in rows:
            rows[s] = complete(adj, {s: 0})
        return rows[s]

    for seed in range(4):
        approx, disconnected = MeshApproximator(X, F(1, m)), False
        for s, t in interleaved_queries(random.Random(f"resumed:{seed}"), row):
            ours, theirs = (approx._searches.get(a) for a in (s, t))  # each end's open search, if any
            best, _, heap = ours or ([None] * len(adj), {}, [])
            final = ours is not None and settled(ours, t) or theirs is not None and settled(theirs, s)
            both = [x for x in (ours, theirs) if x is not None and x[2] and x[2][0] > 0]  # open and partly settled
            met = min((a + b for a, b in zip(ours[0], theirs[0]) if a is not None and b is not None),
                      default=inf) if len(both) == 2 else None  # the least sum over nodes both reach already
            was_open = [x for x in (ours, theirs) if x is not None and x[2]]
            want = row(s)[t]
            seen.update(tag for tag, hit in [
                ("p == q", s == t), ("after Disconnected", disconnected),
                ("target at the least open distance", heap and best[t] == heap[0]),
                ("target reached, not final", best[t] is not None and best[t] > row(s)[t]),
                ("other endpoint's search", bool(theirs and settled(theirs, s)) and not (ours and settled(ours, t))),
                ("met on a node both reached before", not final and want is not None and met == want),
                ("met while settling", not final and want is not None and met != want)] if hit)
            disconnected = want is None
            if disconnected:
                with pytest.raises(Disconnected):
                    approx.distance(points[s], points[t])
            else:
                assert approx.distance(points[s], points[t]) == F(want, m), (seed, s, t)
            seen.update(tag for tag, hit in [
                ("a search completed in a meet", any(not x[2] for x in was_open)),
                ("Disconnected, both searches complete",
                 disconnected and all(a in approx._searches and not approx._searches[a][2] for a in (s, t)))] if hit)
    assert seen == {"p == q", "target at the least open distance", "other endpoint's search",
                    "met on a node both reached before", "met while settling", *cases}


def test_patch_distance_matches_polyhedral_norm():
    X = affine_A_patch(2, 2)
    approx = MeshApproximator(X, F(1, 4))
    for target in ("1,0,0", "1,1,0", "2,1,0", "2,2,0"):
        exact = polyhedral_norm([a - b for a, b in zip(flat(target), flat("0,0,0"))])
        got = approx.distance("0,0,0", target)
        assert got == exact


def test_off_mesh_query_point_does_not_shortcut_later_queries():
    # the midpoints of the two bottom edges are 1 apart through the mesh; an
    # earlier off-mesh query point joins both chambers, and a route through it
    # is 1/2 long
    X = order_complex(boolean_poset(2))
    p, q = {"{}": F(1, 2), "{1}": F(1, 2)}, {"{}": F(1, 2), "{2}": F(1, 2)}
    assert MeshApproximator(X, F(1, 2)).distance(p, q) == 1
    approx = MeshApproximator(X, F(1, 2))
    approx.distance({"{}": F(3, 4), "{1,2}": F(1, 4)}, p)
    assert approx.distance(p, q) == 1


def three_chamber_sizes():
    """Chambers of 3, 2 and 1 vertices: the lone vertex e is a chamber of its own."""
    return OrderedComplex("C", ["a", "b", "c", "d", "e"], [("a", "b", "c"), ("c", "d")])


@pytest.mark.parametrize("X, m", [(order_complex(boolean_poset(3)), 4), (affine_A_patch(2, 1), 4),
                                  (three_chamber_sizes(), 8)], ids=["B(3)", "patch(2,1)", "sizes 3,2,1"])
def test_pruned_mesh_graph_keeps_every_distance(X, m):
    # the graph joining every pair of nodes that share a chamber, by its least chamber length
    approx = MeshApproximator(X, F(1, m))
    ids, adj, _ = approx._graph
    full = [{} for _ in adj]
    for i in range(len(X.maximal_simplices)):
        for (a, sa), (b, sb) in combinations(approx._chamber(i), 2):
            w, a, b = _length(X.order_type, sa, sb), ids[a], ids[b]
            full[a][b] = full[b][a] = min(w, full[a].get(b, w))
    full = [tuple(pairs.items()) for pairs in full]  # in the graph's form: (neighbour, weight) pairs per node int
    assert sum(map(len, adj)) < sum(map(len, full))
    for s in range(len(adj)):
        assert complete(adj, {s: 0}) == complete(full, {s: 0}), s


def textbook_dijkstra(adj, starts, ratio, ends):
    """Every node's distance (None where unreached), one (d, node) heap entry per relaxation, and the least end sum."""
    best, heap, settled = dict(starts), [(d, node) for node, d in starts.items()], set()
    heapq.heapify(heap)
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        for other, w in adj[node]:
            if other not in best or d + w * ratio < best[other]:
                best[other] = d + w * ratio
                heapq.heappush(heap, (best[other], other))
    row = [best.get(node) for node in range(len(adj))]
    return row, min((row[node] + j for node, j in ends.items() if row[node] is not None), default=inf)


def test_bucketed_search_matches_a_textbook_dijkstra():
    # seeded graphs with weights 1-7 on part of their nodes, so that some nodes are unreached; the ends are
    # a search of their own that meets the first one, both new and both resumed after a meet toward other
    # ends, and each distance a resumed search has made final is the textbook one
    seen = set()
    for seed in range(100):
        rng = random.Random(f"dijkstra:{seed}")
        n = rng.randint(2, 40)
        part = rng.sample(range(n), rng.randint(2, n))
        adj = [{} for _ in range(n)]
        for _ in range(rng.randint(0, 3 * n)):
            a, b = rng.sample(part, 2)
            adj[a][b] = adj[b][a] = rng.randint(1, 7)
        adj = [tuple(pairs.items()) for pairs in adj]
        starts = {node: rng.randint(0, 30) for node in rng.sample(range(n), rng.randint(1, min(n, 4)))}
        ends = {node: rng.choice((0, rng.randint(1, 20))) for node in rng.sample(range(n), rng.randint(1, n))}
        for ratio in range(1, 8):
            row, nearest = textbook_dijkstra(adj, starts, ratio, ends)
            assert _dijkstra(adj, _search(adj, starts), ratio, _search(adj, ends)) == nearest, (seed, ratio)
            there = {rng.randrange(n): 0}
            a, b = _search(adj, starts), _search(adj, ends)
            _dijkstra(adj, a, ratio, _search(adj, there)), _dijkstra(adj, _search(adj, there), ratio, b)
            assert _dijkstra(adj, a, ratio, b) == nearest, (seed, ratio)
            assert all(a[0][v] == row[v] for v in range(n) if settled(a, v)), (seed, ratio)
        seen.update(tag for tag, hit in [("unreached", None in row), ("zero join", 0 in ends.values()),
                                         ("several nonzero starts", sum(map(bool, starts.values())) > 1),
                                         ("no end reached", nearest == inf)] if hit)
    assert seen >= {"unreached", "several nonzero starts", "zero join", "no end reached"}


def test_pruned_mesh_graph_of_a_patch_keeps_1854_edges():
    # joining every pair of nodes that share a chamber gives 12,312 edges; the rest have a node between their ends
    _, adj, _ = MeshApproximator(affine_A_patch(2, 3), F(1, 8))._graph
    assert sum(map(len, adj)) // 2 == 1854


def test_mesh_past_its_node_pair_limit_is_refused_before_the_build(monkeypatch):
    # the limit counts the pairs of mesh nodes that share a chamber
    X = three_chamber_sizes()
    approx = MeshApproximator(X, F(1, 8))
    pairs = sum(comb(len(approx._chamber(i)), 2) for i in range(3))
    monkeypatch.setattr(MeshApproximator, "MAX_PAIRS", pairs)
    assert MeshApproximator(X, F(1, 8)).distance("a", "b") == 1
    monkeypatch.setattr(MeshApproximator, "MAX_PAIRS", pairs - 1)
    with pytest.raises(ParameterTooLarge, match=f"^mesh 1/8 joins {pairs} node pairs, more than {pairs - 1}$"):
        MeshApproximator(X, F(1, 8))


def test_off_mesh_query_leaves_the_graph_unchanged():
    X = affine_A_patch(2, 1)
    approx = MeshApproximator(X, F(1, 4))
    approx.distance(X.vertices[0], X.vertices[1])
    graph = approx._graph  # (node ids, adjacency, each chamber's node ids)
    before, searches = copy.deepcopy(graph), copy.deepcopy(approx._searches)
    s = X.maximal_simplices[0]
    inside = ({s[0]: F(1, 3), s[1]: F(1, 3), s[2]: F(1, 3)},
              {s[0]: F(1, 2), s[1]: F(1, 3), s[2]: F(1, 6)})
    edge = {s[0]: F(1, 3), s[1]: F(2, 3)}  # off the mesh of 1/4
    for p, q in (inside, (inside[0], X.vertices[-1]), (X.vertices[2], inside[1]), (edge, inside[1])):
        approx.distance(p, q)
        assert approx._graph is graph
        assert graph == before
        assert approx._searches == searches


# -- the product decomposition -----------------------------------------------------


def test_chain_interior_product_is_exact():
    chain = boolean_poset(1)  # a 2-chain: {} < {1}
    report = local_product_check(chain, "{}")
    assert report.ok


def comparable_star(P, x):
    return P.restrict([y for y in P.elements if P.comparable(x, y)])


def test_square_at_atom_decomposes():
    L = comparable_star(boolean_poset(2), "{1}")
    report = local_product_check(L, "{1}")
    assert report.ok
    assert report.max_discrepancy <= report.bound


def test_cube_at_atom_decomposes():
    L = comparable_star(boolean_poset(3), "{1}")
    report = local_product_check(L, "{1}")
    assert report.ok


def test_product_check_requires_comparability():
    with pytest.raises(NotComparableToAll):
        local_product_check(boolean_poset(2), "{1}")
