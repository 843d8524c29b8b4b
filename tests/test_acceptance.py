"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines and timings.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from cublink.complexes import OrderedComplex, order_complex
from cublink.cubes import (
    barycentric_cube_subdivision,
    cube_corpus,
    gromov_link_condition,
)
from cublink.generators import (
    affine_A_patch,
    boolean_poset,
    column_complex,
    random_ranked_poset,
)
from cublink.groupdev import (
    check_conditions,
    factorization_violation,
    intersection_violation,
    local_development,
    product_violation,
    s4_simplex,
)
from cublink.linkcheck import check_type_A, check_type_C
from cublink.metric import (
    MeshApproximator,
    chamber_distance_in_complex,
    local_product_check,
    polyhedral_ball_extreme_points,
    polyhedral_norm,
)
from cublink.poset import bowtie_lattice_consistency
from cublink.selftest import canonical_graded_posets, metric_corpus
from cublink.tightspan import dress_dimension_test, tight_span

F = Fraction


def _report(number, name, started):
    print(f"ACCEPTANCE {number} ({name}): PASS [{time.time() - started:.1f}s]")


def test_criterion_1_bounded_lattice_oracle_equivalence():
    started = time.time()
    rng = random.Random(4021)
    instances = list(canonical_graded_posets())
    instances += [random_ranked_poset(rng, max_elements=12) for _ in range(500)]
    assert len(instances) >= 500
    for P in instances:
        report = bowtie_lattice_consistency(P)
        assert report.agree, P.to_json()
    assert time.time() - started <= 60
    _report(1, "bounded-lattice vs balanced-bowtie oracle", started)


def test_criterion_2_gromov_recovery():
    started = time.time()
    corpus = cube_corpus()
    assert len(corpus) >= 20
    assert "three_squares_corner" in corpus and "single_cube" in corpus
    for name, cubes in corpus.items():
        direct = gromov_link_condition(cubes)
        subdivided = check_type_C(barycentric_cube_subdivision(cubes)).passed
        assert direct == subdivided, name
    _report(2, "Gromov link condition recovery", started)


def test_criterion_3_flat_positives_and_exact_witnesses():
    started = time.time()
    for n in (2, 3, 4):
        assert check_type_A(affine_A_patch(n, 2)).passed, f"patch({n},2)"
    for n in (2, 3):
        assert check_type_C(column_complex(n, 2)).passed, f"column({n},2)"

    bowtie_star = OrderedComplex(
        "A",
        ["x", "a", "a'", "b", "b'"],
        [("x", "a", "b"), ("x", "a", "b'"), ("x", "a'", "b"), ("x", "a'", "b'")],
    )
    verdict = check_type_A(bowtie_star)
    assert not verdict.passed
    failure = verdict.failures[0]
    assert failure.vertex == "x"
    assert failure.witness.as_tuple() == ("a", "a'", "b", "b'")

    corner = barycentric_cube_subdivision(
        [("v", "x", "y", "xy"), ("v", "y", "z", "yz"), ("v", "x", "z", "xz")]
    )
    verdict = check_type_C(corner)
    assert not verdict.passed
    failure = verdict.failures[0]
    assert failure.vertex == "v" and failure.condition == "flag_up"
    assert set(failure.witness) == {"v+x", "v+y", "v+z"}
    _report(3, "flat positives and exact witnesses", started)


def test_criterion_4_norm_geometry():
    started = time.time()
    hexagon = polyhedral_ball_extreme_points(2)
    assert len(hexagon) == 6
    for p in hexagon:
        assert polyhedral_norm(p) == 1

    complexes = [order_complex(boolean_poset(n)) for n in (1, 2, 3, 4)]
    complexes.append(column_complex(2, 1))
    edges = 0
    for X in complexes:
        for e in X.edges():
            a, b = tuple(e)
            assert chamber_distance_in_complex(X, a, b) == 1
            edges += 1
    assert edges > 100
    _report(4, "norm geometry: hexagon and unit edges", started)


def test_criterion_5_flat_metric_convergence():
    started = time.time()
    patch = affine_A_patch(2, 3)
    approx = MeshApproximator(patch, F(1, 8))
    inner = affine_A_patch(2, 2).vertices

    def flat(label):
        v = [F(x) for x in label.split(",")]
        mean = sum(v, F(0)) / len(v)
        return [x - mean for x in v]

    pairs = 0
    for a, b in combinations(inner, 2):
        exact = polyhedral_norm([p - q for p, q in zip(flat(a), flat(b))])
        got = approx.distance(a, b)
        assert got >= exact  # the graph route is an upper bound
        assert got - exact <= F(5, 100) * exact, (a, b, got, exact)
        pairs += 1
    assert pairs == len(inner) * (len(inner) - 1) // 2
    assert time.time() - started <= 120
    _report(5, f"flat-metric convergence on {pairs} pairs", started)


def test_criterion_6_hull_dimension_cross_validation():
    started = time.time()
    corpus = metric_corpus()
    assert len(corpus) >= 200
    assert all(len(M) <= 6 for M in corpus)
    for M in corpus:
        dim = tight_span(M).dimension
        for n in (1, 2):
            assert dress_dimension_test(M, n) == (dim <= n), M.to_json()
    assert time.time() - started <= 600
    _report(6, f"hull dimension vs matching criterion on {len(corpus)} metrics", started)


def test_criterion_7_simplex_of_groups_pipeline():
    started = time.time()
    S = s4_simplex()
    assert check_conditions(S).passed
    for i in range(4):
        assert check_type_A(local_development(S, i)).passed, f"development at {i}"

    for build, expected in (
        (intersection_violation, "intersection"),
        (product_violation, "product"),
        (factorization_violation, "factorization"),
    ):
        report = check_conditions(build())
        assert not report.passed
        assert report.failures[0].condition == expected
        assert report.failures[0].detail  # a concrete witness is attached
    _report(7, "simplex-of-groups pipeline", started)


def test_criterion_8_local_product_decomposition():
    started = time.time()
    for rank in (2, 3):
        B = boolean_poset(rank)
        h = B.heights()
        special = [x for x in B.elements if h[x] in (1, rank - 1)]
        for x in sorted(set(special)):
            L = B.restrict([y for y in B.elements if B.comparable(x, y)])
            report = local_product_check(L, x, mesh=F(1, 4))
            assert report.ok, (rank, x, report.to_json())
            assert report.max_discrepancy <= report.bound
    _report(8, "local product decomposition at atoms and coatoms", started)
