"""Injective hulls and the matching-sum dimension criterion, cross-validated."""

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm

import pytest

from cublink.errors import NotAMetric, TooManyPoints
from cublink.metric import linf_norm
from cublink.selftest import metric_corpus
from cublink.tightspan import (
    FiniteMetric,
    HullFace,
    TightSpan,
    _covers_all,
    _tight_graph,
    dress_dimension_test,
    random_metric,
    rectangle_metric,
    tight_span,
    tree_metric,
)

F = Fraction


# -- reference: solve the system of every self-map, then close faces pairwise ------


def _cycles_of(kappa):
    """Cycle decomposition of a functional graph; None if some cycle is even."""
    n = len(kappa)
    color = [0] * n
    cycles = []
    for start in range(n):
        if color[start]:
            continue
        path, seen = [], {}
        v = start
        while color[v] == 0 and v not in seen:
            seen[v] = len(path)
            path.append(v)
            v = kappa[v]
        if color[v] == 0:
            cycle = path[seen[v]:]
            if len(cycle) % 2 == 0:
                return None
            cycles.append(cycle)
        for u in path:
            color[u] = 1
    return cycles


def _solve_kappa(kappa, D2):
    """Doubled values F solving F[x] + F[kappa(x)] = D2[x][kappa(x)], or None."""
    n = len(kappa)
    cycles = _cycles_of(kappa)
    if cycles is None:
        return None
    F = [None] * n
    for cycle in cycles:
        total = 0
        sign = 1
        for t, v in enumerate(cycle):
            w = cycle[(t + 1) % len(cycle)]
            total += sign * D2[v][w]
            sign = -sign
        F[cycle[0]] = total // 2
        for t in range(len(cycle) - 1):
            v, w = cycle[t], cycle[t + 1]
            F[w] = D2[v][w] - F[v]
    remaining = [v for v in range(n) if F[v] is None]
    while remaining:
        progressed = []
        for v in remaining:
            if F[kappa[v]] is not None:
                F[v] = D2[v][kappa[v]] - F[kappa[v]]
            else:
                progressed.append(v)
        if len(progressed) == len(remaining):
            return None
        remaining = progressed
    return F


def _is_feasible(F, D2):
    n = len(F)
    if any(x < 0 for x in F):
        return False
    for i in range(n):
        for j in range(i + 1, n):
            if F[i] + F[j] < D2[i][j]:
                return False
    return True


def _union_find_face_dimension(graph, n):
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in graph:
        if i != j:
            parent[find(i)] = find(j)
    pinned = {find(i) for i, j in graph if i == j}
    adj = {v: [] for v in range(n)}
    for i, j in graph:
        if i != j:
            adj[i].append(j)
            adj[j].append(i)
    color = {}
    for start in range(n):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in color:
                    color[w] = color[v] ^ 1
                    stack.append(w)
                elif color[w] == color[v]:
                    pinned.add(find(v))
    return sum(1 for r in set(map(find, range(n))) if r not in pinned)


def brute_force_tight_span(metric):
    """The hull by the n^n self-map sweep and the all-pairs intersection fixpoint."""
    n = len(metric)
    if n == 0:
        return TightSpan(metric, (), (), -1)
    scale = lcm(*(x.denominator for row in metric.dist for x in row)) if n > 1 else 1
    D2 = [[int(2 * scale * x) for x in row] for row in metric.dist]

    seen = set()
    vertices = []
    for kappa in product(range(n), repeat=n):
        F = _solve_kappa(kappa, D2)
        if F is None:
            continue
        key = tuple(F)
        if key in seen:
            continue
        seen.add(key)
        if _is_feasible(F, D2):
            vertices.append(key)
    vertices.sort()

    graphs = {_tight_graph(F, D2) for F in vertices}
    changed = True
    while changed:
        changed = False
        for a, b in combinations(list(graphs), 2):
            meet = a & b
            if meet not in graphs and _covers_all(meet, n):
                graphs.add(meet)
                changed = True

    faces = []
    for graph in graphs:
        members = tuple(
            idx for idx, F in enumerate(vertices) if graph <= _tight_graph(F, D2)
        )
        faces.append(HullFace(graph, _union_find_face_dimension(graph, n), members))
    faces.sort(key=lambda f: (f.dimension, sorted(f.tight_pairs)))
    dimension = max((f.dimension for f in faces), default=0)
    out_vertices = tuple(
        tuple(Fraction(x, 2 * scale) for x in F) for F in vertices
    )
    return TightSpan(metric, out_vertices, tuple(faces), dimension)


def test_pruned_search_matches_the_self_map_sweep():
    rng = random.Random(5150)
    corpus = rng.sample(metric_corpus(), 24)
    corpus += [random_metric(rng, 7) for _ in range(3)] + [tree_metric(rng, 7)]
    for _ in range(6):
        # a constant added off the diagonal keeps the triangle inequality
        M = random_metric(rng, rng.randint(3, 5))
        shift, scale = F(rng.randint(1, 5), 3), F(rng.randint(1, 7), rng.randint(2, 9))
        rows = [[(x + shift) * scale if x else x for x in row] for row in M.dist]
        corpus.append(FiniteMetric(M.points, rows))
    corpus += [
        FiniteMetric([], []),
        FiniteMetric(["x"], [[0]]),
        FiniteMetric(["x", "y"], [[0, F(3, 7)], [F(3, 7), 0]]),
    ]
    for M in corpus:
        assert tight_span(M).to_json() == brute_force_tight_span(M).to_json(), M.to_json()


def test_metric_validation():
    with pytest.raises(NotAMetric):
        FiniteMetric(["a", "b"], [[0, 1], [2, 0]])
    with pytest.raises(NotAMetric):
        FiniteMetric(["a", "b"], [[1, 1], [1, 0]])
    with pytest.raises(NotAMetric):
        FiniteMetric(["a", "b", "c"], [[0, 1, 5], [1, 0, 1], [5, 1, 0]])


def test_two_points_give_a_segment():
    M = FiniteMetric(["x", "y"], [[0, 5], [5, 0]])
    span = tight_span(M)
    assert span.dimension == 1
    assert len(span.vertices) == 2
    ends = sorted(span.vertices)
    assert ends == [(F(0), F(5)), (F(5), F(0))]
    assert linf_norm([a - b for a, b in zip(*ends)]) == 5
    segments = [f for f in span.faces if f.dimension == 1]
    assert len(segments) == 1 and set(segments[0].vertex_indices) == {0, 1}


def test_equilateral_triple_gives_a_tripod():
    M = FiniteMetric(["x", "y", "z"], [[0, 2, 2], [2, 0, 2], [2, 2, 0]])
    span = tight_span(M)
    assert span.dimension == 1
    assert (F(1), F(1), F(1)) in span.vertices
    legs = [f for f in span.faces if f.dimension == 1]
    assert len(legs) == 3
    center = span.vertices.index((F(1), F(1), F(1)))
    for leg in legs:
        assert center in leg.vertex_indices
        tips = [span.vertices[i] for i in leg.vertex_indices if i != center]
        assert len(tips) == 1
        assert linf_norm([a - b for a, b in zip(tips[0], span.vertices[center])]) == 1


def test_tied_cross_distances_collapse_to_dimension_one():
    # equal cross distances make the central cell degenerate to a segment
    M = rectangle_metric(2, 2, 3, 3)
    assert tight_span(M).dimension == 1
    assert dress_dimension_test(M, 1)


def test_distinct_cross_distances_give_dimension_two():
    M = rectangle_metric(2, 2, 3, 4)
    span = tight_span(M)
    assert span.dimension == 2
    assert not dress_dimension_test(M, 1)
    assert dress_dimension_test(M, 2)


def test_kuratowski_rows_are_vertices_and_isometric():
    M = random_metric(random.Random(7), 5)
    span = tight_span(M)
    n = len(M)
    for i in range(n):
        assert tuple(M.dist[i]) in span.vertices
    for i in range(n):
        for j in range(n):
            assert linf_norm([a - b for a, b in zip(M.dist[i], M.dist[j])]) == M.dist[i][j]


def test_single_point():
    span = tight_span(FiniteMetric(["x"], [[0]]))
    assert span.dimension == 0 and span.vertices == ((F(0),),)


def test_too_many_points():
    labels = [f"p{i}" for i in range(8)]
    rows = [[0 if i == j else 1 for j in range(8)] for i in range(8)]
    with pytest.raises(TooManyPoints):
        tight_span(FiniteMetric(labels, rows))


def test_star_tree_metric_has_dimension_one():
    M = FiniteMetric(
        ["c", "x", "y", "z"],
        [[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]],
    )
    assert tight_span(M).dimension == 1
    assert dress_dimension_test(M, 1)


def test_dress_vacuous_for_small_spaces():
    M = FiniteMetric(["x", "y", "z"], [[0, 2, 2], [2, 0, 2], [2, 2, 0]])
    assert dress_dimension_test(M, 2)  # no subset of size 6 exists
    assert dress_dimension_test(M, 1)


def test_uniform_cube_vertex_metric_passes_at_cube_dimension():
    # the sup metric on the vertices of the n-cube is uniform, so every
    # derangement sum ties and the criterion holds at n
    for n in (2, 3):
        labels = [f"v{i}" for i in range(2 ** n)]
        rows = [[0 if i == j else 1 for j in range(2 ** n)] for i in range(2 ** n)]
        assert dress_dimension_test(FiniteMetric(labels, rows), n)


def test_dimension_is_scale_invariant():
    rng = random.Random(31337)
    for _ in range(8):
        M0 = random_metric(rng, rng.randint(4, 5))
        scale = F(rng.randint(1, 5), rng.randint(1, 6))
        M = FiniteMetric(M0.points, [[x * scale for x in row] for row in M0.dist])
        assert tight_span(M).dimension == tight_span(M0).dimension


def test_cross_validation_on_mixed_corpus():
    rng = random.Random(2024)
    corpus = []
    for _ in range(12):
        corpus.append(tree_metric(rng, rng.randint(4, 5)))
    for _ in range(12):
        corpus.append(random_metric(rng, rng.randint(4, 5)))
    corpus.append(rectangle_metric(2, 2, 3, 4))
    corpus.append(rectangle_metric(2, 2, 2, 3))
    for M in corpus:
        dim = tight_span(M).dimension
        for n in (1, 2):
            assert dress_dimension_test(M, n) == (dim <= n), M.to_json()


# -- reference: every involution against every other derangement -----------------


def _fixed_point_free_involutions(items):
    if not items:
        yield {}
        return
    first, rest = items[0], items[1:]
    for k, partner in enumerate(rest):
        remaining = rest[:k] + rest[k + 1:]
        for sub in _fixed_point_free_involutions(remaining):
            pairing = dict(sub)
            pairing[first] = partner
            pairing[partner] = first
            yield pairing


def _fixed_point_free_bijections(items):
    for perm in permutations(items):
        if all(a != b for a, b in zip(items, perm)):
            yield dict(zip(items, perm))


def reference_dress_dimension_test(metric, n):
    """The criterion read literally: each involution's sum against every other derangement sum."""
    for subset in combinations(range(len(metric)), 2 * (n + 1)):
        sums = {}
        for j in _fixed_point_free_bijections(subset):
            sums[tuple(j[z] for z in subset)] = sum(metric.dist[z][j[z]] for z in subset)
        for i in _fixed_point_free_involutions(list(subset)):
            key = tuple(i[z] for z in subset)
            mine = sums[key]
            if not any(total >= mine for k, total in sums.items() if k != key):
                return False
    return True


def test_dress_by_unique_maximum_matches_the_literal_criterion():
    rng = random.Random(8128)
    corpus = metric_corpus()
    corpus += [random_metric(rng, 7, max_entry=rng.choice((3, 9))) for _ in range(40)]
    corpus += [random_metric(rng, 8, max_entry=rng.choice((3, 9))) for _ in range(10)]
    outcomes = {True: 0, False: 0}
    for M in corpus:
        for n in (1, 2, 3):
            want = reference_dress_dimension_test(M, n)
            outcomes[want] += 1
            assert dress_dimension_test(M, n) == want, (M.to_json(), n)
    assert min(outcomes.values()) >= 100, outcomes  # both verdicts are exercised
