"""Cube complexes: subdivision combinatorics and the direct link test."""

import json
import re
from itertools import product

import pytest

from cublink.cli import main
from cublink.complexes import validate
from cublink.cubes import (
    CubeComplex,
    barycentric_cube_subdivision,
    cube_corpus,
    cube_link_reports,
    face_label,
    gromov_link_condition,
    single_cube,
    single_square,
    squares_sharing_two_edges,
    three_squares_corner,
)
from cublink.errors import DuplicateLabel, MalformedCubeComplex
from cublink.linkcheck import check_type_C


def test_single_square_subdivision_counts():
    X = barycentric_cube_subdivision(single_square())
    assert len(X.vertices) == 9  # 4 vertices + 4 edges + 1 square
    assert len(X.maximal_simplices) == 8
    assert all(len(s) == 3 for s in X.maximal_simplices)
    validate(X)


def test_single_cube_subdivision_counts():
    X = barycentric_cube_subdivision(single_cube())
    assert len(X.vertices) == 8 + 12 + 6 + 1
    assert len(X.maximal_simplices) == 48
    validate(X)


def test_empty_complex():
    X = barycentric_cube_subdivision([])
    assert X.vertices == () and X.maximal_simplices == ()


def test_face_names_stay_distinct_when_a_label_holds_a_plus():
    P = CubeComplex([["a", "b"], ["a+b", "c"]]).face_poset()
    assert P.elements == ("a", "a+b", "a\\pb+", "a\\pb+c+", "b", "c")
    assert sorted(P.covers) == [("a", "a+b"), ("a\\pb+", "a\\pb+c+"), ("b", "a+b"), ("c", "a\\pb+c+")]
    # labels without a "+" keep their plain names; a backslash is escaped only in a face with a "+" label
    assert face_label({"u1", "u0"}) == "u0+u1"
    assert face_label({"x\\p"}) == "x\\p"
    assert face_label({"x\\p", "y+"}) == "x\\\\p+y\\p+"
    assert len({face_label(f) for f in ({"a+b"}, {"a", "b"}, {"a\\", "b"}, {"a\\pb"}, {"a\\pb+"})}) == 5


def test_corners_that_print_the_same_are_refused_when_the_complex_is_built(tmp_path, capsys):
    # face_label names faces by their corners' string forms, so the corners are ordered and checked up front
    with pytest.raises(DuplicateLabel, match=re.escape("vertex labels 1 and '1' print the same")):
        CubeComplex([(1, "1")])
    path = tmp_path / "cubes.json"
    path.write_text(json.dumps({"cubes": [[1, "1"]]}))
    assert main(["check", "--type", "C", str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": "input", "detail": "labels 1 and '1' print the same"}


def test_malformed_sizes_rejected():
    with pytest.raises(MalformedCubeComplex):
        CubeComplex([("a", "b", "c")])
    with pytest.raises(MalformedCubeComplex):
        CubeComplex([("a", "a", "b", "c")])


def test_incompatible_gluing_rejected():
    cube = tuple(f"v{m}" for m in range(8))
    cases = [
        # the same four vertices spanning squares with different diagonals
        ([("p", "q", "r", "s"), ("p", "q", "s", "r")], ["p", "q", "r", "s"]),
        # a cube and its copy with corners 0 and 1 swapped: the lowest face glued two ways is a square
        ([cube, ("v1", "v0") + cube[2:]], ["v0", "v1", "v2", "v3"]),
    ]
    for cubes, face in cases:
        with pytest.raises(MalformedCubeComplex, match=re.escape(f"face {face} is glued with incompatible structure")):
            CubeComplex(cubes)


def test_gromov_positive_cases():
    for cubes in (single_square(), single_cube()):
        assert gromov_link_condition(cubes)


def test_three_squares_corner_fails_flag():
    reports = {r.vertex: r for r in cube_link_reports(three_squares_corner())}
    bad = reports["v"]
    assert bad.simplicial and not bad.flag
    # the missing corner, its edges in face-label order whatever the hash seed
    assert bad.witness == (frozenset({"v", "x"}), frozenset({"v", "y"}), frozenset({"v", "z"}))
    for v, r in reports.items():
        if v != "v":
            assert r.ok


def test_doubled_corner_not_simplicial():
    reports = {r.vertex: r for r in cube_link_reports(squares_sharing_two_edges())}
    assert not reports["v"].simplicial


def test_wedge_of_squares_passes():
    # two squares sharing one corner: links are two disjoint arcs, which are flag
    assert gromov_link_condition([("v", "a", "b", "c"), ("v", "p", "q", "r")])


@pytest.mark.parametrize("cubes", [[("a",)], single_square() + [("e",)]], ids=["vertex", "square and vertex"])
def test_isolated_vertex_passes_as_in_type_C(cubes):
    # an isolated vertex's link is empty: its one maximal clique, the empty one, is spanned by the vertex itself
    reports = {r.vertex: r for r in cube_link_reports(cubes)}
    isolated = reports[cubes[-1][0]]
    assert isolated.ok and isolated.witness is None
    assert all(r.ok for r in reports.values())
    assert gromov_link_condition(cubes)
    assert check_type_C(CubeComplex(cubes).face_poset()).passed

def torus_cubes(k):
    """The cubes x + {0,1}^3 mod k of the k-fold cover of the 3-torus, k >= 3, each corner named by its digits."""
    return [tuple("".join(str((x[i] + (m >> i & 1)) % k) for i in range(3)) for m in range(8))
            for x in product(range(k), repeat=3)]


def test_torus_cover_passes_and_fails_at_a_hollow_cube():
    cubes = torus_cubes(3)
    K = CubeComplex(cubes)
    assert len(K.facets) == 27 + 81 + 81 + 27  # no boundary: every face lies in a cube
    assert gromov_link_condition(K)
    assert check_type_C(K.face_poset()).passed
    # the cube at the origin replaced by its six squares: every corner's link is a hollow octahedron
    origin = cubes[0]
    squares = [tuple(origin[m] for m in range(8) if m >> i & 1 == b) for i in range(3) for b in (0, 1)]
    hollow = cubes[1:] + squares
    corners = sorted(origin)
    reports = cube_link_reports(hollow)
    assert [r.vertex for r in reports if not r.ok] == corners
    assert all(r.simplicial for r in reports)
    verdict = check_type_C(CubeComplex(hollow).face_poset()).to_json()
    assert not verdict["pass"]
    assert [(f["vertex"], f["condition"]) for f in verdict["failures"]] == [(v, "flag_up") for v in corners]


def test_random_complexes_agree_with_subdivision_route():
    import random

    rng = random.Random(77)
    checked = 0
    while checked < 60:
        pool = [f"u{i}" for i in range(rng.randint(4, 9))]
        cubes = [tuple(rng.sample(pool, 4)) for _ in range(rng.randint(1, 5))]
        try:
            K = CubeComplex(cubes)
        except MalformedCubeComplex:
            continue
        direct = gromov_link_condition(K)
        subdivided = check_type_C(barycentric_cube_subdivision(K)).passed
        assert direct == subdivided, cubes
        checked += 1


def test_corpus_has_both_outcomes():
    corpus = cube_corpus()
    assert len(corpus) >= 20
    outcomes = {name: gromov_link_condition(cubes) for name, cubes in corpus.items()}
    assert outcomes["three_squares_corner"] is False
    assert outcomes["squares_sharing_two_edges"] is False
    assert outcomes["corner_with_cube"] is True
    assert outcomes["grid_2x2"] is True
    assert any(outcomes.values()) and not all(outcomes.values())
