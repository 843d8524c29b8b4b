"""Injective hulls and the matching-sum dimension criterion, cross-validated."""

import random
from fractions import Fraction

import pytest

from cublink.errors import NotAMetric, TooManyPoints
from cublink.metric import linf_norm
from cublink.tightspan import (
    FiniteMetric,
    dress_dimension_test,
    random_metric,
    rectangle_metric,
    tight_span,
    tree_metric,
)

F = Fraction


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
    assert dress_dimension_test(M, 50)  # at once: nothing of size 102 is enumerated


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
