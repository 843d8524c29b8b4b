"""CLI surface: exit codes, JSON schemas, piping, determinism."""

import hashlib
import io
import json
import subprocess
import sys

import pytest

from cublink import cli
from cublink.cli import main
from cublink.complexes import OrderedComplex
from cublink.generators import boolean_poset
from cublink.linkcheck import check_garside


def run_cli(args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "cublink.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout


def test_generate_boolean_pipes_into_check(tmp_path):
    code, out = run_cli(["generate", "boolean", "--n", "3"])
    assert code == 0
    poset = json.loads(out)
    assert len(poset["elements"]) == 8
    code, out = run_cli(["check", "--type", "C"], stdin=out)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["pass"] is True


def test_check_bowtie_star_exits_one(tmp_path):
    bowtie = {
        "type": "A",
        "vertices": ["x", "a", "a'", "b", "b'"],
        "maximal_simplices": [
            ["x", "a", "b"], ["x", "a", "b'"], ["x", "a'", "b"], ["x", "a'", "b'"],
        ],
    }
    path = tmp_path / "bowtie_star.json"
    path.write_text(json.dumps(bowtie))
    code, out = run_cli(["check", "--type", "A", str(path)])
    assert code == 1
    verdict = json.loads(out)
    assert verdict["pass"] is False
    failure = verdict["failures"][0]
    assert failure["vertex"] == "x"
    assert failure["witness"] == {"a": "a", "b": "a'", "c": "b", "d": "b'"}


def test_tightspan_two_points(tmp_path):
    path = tmp_path / "two_points.json"
    path.write_text(json.dumps({"points": ["x", "y"], "dist": [["0", "5"], ["5", "0"]]}))
    code, out = run_cli(["tightspan", str(path), "--dress", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 1
    assert payload["dress"] is True


# a random 6-point metric plus a star metric, over denominators 2 to 35
MIXED_SIX = {"points": ["p0", "p1", "p2", "p3", "p4", "p5"], "dist": [
    ["0", "53/6", "19/2", "89/10", "121/14", "41/4"], ["53/6", "0", "13/3", "56/15", "136/21", "85/12"],
    ["19/2", "13/3", "0", "17/5", "15/7", "19/4"], ["89/10", "56/15", "17/5", "0", "194/35", "83/20"],
    ["121/14", "136/21", "15/7", "194/35", "0", "81/28"], ["41/4", "85/12", "19/4", "83/20", "81/28", "0"]]}


def test_tightspan_dress_stdout_on_mixed_denominators_is_pinned(tmp_path, capsys):
    # the hull's 22 vertices and 69 faces, each vertex a row of halves over the common denominator
    path = tmp_path / "six.json"
    path.write_text(json.dumps(MIXED_SIX))
    assert main(["tightspan", str(path), "--dress", "2"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert [payload["dimension"], payload["dress"]] == [3, False]
    assert [len(payload["vertices"]), len(payload["faces"])] == [22, 69]
    digest = "88770861a84900e714f9f090aaa6e1bc565129468a176f93db1b42b4e4b4c0b0"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_garside_check_on_generated_column(tmp_path):
    phi_path = tmp_path / "phi.json"
    code, out = run_cli(
        ["generate", "column", "--n", "2", "--depth", "1", "--phi-out", str(phi_path)]
    )
    assert code == 0
    code, verdict_out = run_cli(
        ["check", "--type", "garside", "--phi", str(phi_path), "--assume-simply-connected"],
        stdin=out,
    )
    assert code == 0
    verdict = json.loads(verdict_out)
    assert verdict["pass"] and verdict["certificate"] == "CUB_and_injective_certified"


@pytest.mark.parametrize("phi, ints", [
    ({"0": 1, "1": "2", "2": 3}, {0: 1, 1: 2, 2: 3}),
    ({"0": 2}, {0: 2}),
], ids=["shift", "no-column"])
def test_garside_phi_names_integer_labels_by_their_printed_form(tmp_path, capsys, phi, ints):
    # JSON object keys are always strings, so "0" must name the vertex 0
    path, phi_path = tmp_path / "path.json", tmp_path / "phi.json"
    X = OrderedComplex("C", [0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
    path.write_text(json.dumps({"type": "C", "vertices": [0, 1, 2, 3], "maximal_simplices": [[0, 1], [1, 2], [2, 3]]}))
    phi_path.write_text(json.dumps(phi))
    verdict = check_garside(X, ints)
    assert main(["check", "--type", "garside", "--phi", str(phi_path), str(path)]) == (0 if verdict.passed else 1)
    assert json.loads(capsys.readouterr().out) == verdict.to_json()


@pytest.mark.parametrize("phi, detail", [
    ({"a": "z"}, "phi maps through unknown vertex at 'a'"),
    ({"a": "c", "b": "c"}, "phi is not injective on vertices"),
    ({"a": "c", "b": "a"}, "phi does not map simplex ['a', 'b'] to a simplex"),
    ({"a": "b", "b": "a"}, "phi reverses the order on ['a', 'b']"),
], ids=["unknown-vertex", "not-injective", "simplex-to-nonface", "reversed-edge"])
def test_garside_phi_that_is_no_automorphism_is_an_input_error(tmp_path, capsys, phi, detail):
    path, phi_path = tmp_path / "path.json", tmp_path / "phi.json"
    path.write_text(json.dumps({"type": "C", "vertices": ["a", "b", "c"],
                                "maximal_simplices": [["a", "b"], ["b", "c"]]}))
    phi_path.write_text(json.dumps(phi))
    assert main(["check", "--type", "garside", "--phi", str(phi_path), str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": "NotAutomorphism", "detail": detail}


def test_dist_between_square_corners():
    code, out = run_cli(["generate", "boolean", "--n", "2"])
    assert code == 0
    code, out = run_cli(
        ["dist", "--from", "{1}", "--to", "{2}", "--mesh", "1/4"],
        stdin=out,
    )
    assert code == 0
    assert json.loads(out)["distance"] == "1"


def test_dist_label_that_looks_like_json():
    code, out = run_cli(["generate", "boolean", "--n", "3"])
    code, out = run_cli(["dist", "--from", "{}", "--to", "{1,2,3}", "--mesh", "1/8"], stdin=out)
    assert code == 0
    assert json.loads(out)["distance"] == "1"


def test_dist_accepts_chain_points(tmp_path):
    code, poset_out = run_cli(["generate", "boolean", "--n", "2"])
    p = json.dumps({"chain": ["{}", "{1}", "{1,2}"], "coords": ["0", "0"]})
    q = json.dumps({"chain": ["{}", "{2}", "{1,2}"], "coords": ["1", "1"]})
    code, out = run_cli(["dist", "--from", p, "--to", q, "--mesh", "1/4"], stdin=poset_out)
    assert code == 0
    assert json.loads(out)["distance"] == "1"


INTEGER_TRIANGLE = {"type": "C", "vertices": [1, 2, 3], "maximal_simplices": [[1, 2, 3]]}


@pytest.mark.parametrize("p, q, distance", [
    ("1", "3", "1"),
    (json.dumps({"weights": {"1": "1/2", "3": "1/2"}}), "2", "1/2"),
    (json.dumps("1"), "3", "1"),
    (json.dumps({"chain": ["1", "2", "3"], "coords": ["1/2", "1/2"]}), "2", "1/2"),
], ids=["labels", "weight-keys", "json-string", "chain"])
def test_dist_names_integer_labels_by_their_printed_form(tmp_path, capsys, p, q, distance):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(INTEGER_TRIANGLE))
    assert main(["check", "--type", "C", str(path)]) == 0
    capsys.readouterr()
    assert main(["dist", "--from", p, "--to", q, str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["distance"] == distance
    string_labels = {"type": "C", "vertices": ["1", "2", "3"], "maximal_simplices": [["1", "2", "3"]]}
    path.write_text(json.dumps(string_labels))
    assert main(["dist", "--from", p, "--to", q, str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["distance"] == distance


def test_unwritable_phi_out_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "no" / "such" / "dir" / "phi.json"
    assert main(["generate", "column", "--n", "2", "--phi-out", str(path)]) == 2
    out = capsys.readouterr().out
    error = json.loads(out)
    assert error["error"] == "usage" and str(path) in error["detail"]
    assert out == json.dumps(error) + "\n"  # the error object alone: no complex before it


def test_generator_parameter_out_of_range_exits_two(capsys):
    assert main(["generate", "boolean", "--n", "-1"]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": "input", "detail": "boolean_poset supports 0 <= n <= 10"}
    assert main(["generate", "affine-patch", "--n", "0"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "input"
    assert main(["generate", "boolean", "--n", "11"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "ParameterTooLarge"


def test_groupdev_pipeline(tmp_path):
    from cublink.groupdev import s4_simplex

    path = tmp_path / "s4.json"
    path.write_text(json.dumps(s4_simplex().to_json()))
    code, out = run_cli(["groupdev", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["conditions"]["holds"] is True
    assert all(v["pass"] for v in payload["developments"].values())


def test_groupdev_builtin_example():
    code, out = run_cli(["groupdev", "--example", "s4", "--conditions-only"])
    assert code == 0
    assert json.loads(out)["conditions"]["holds"] is True


def test_usage_error_is_machine_readable(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("not json")
    code, out = run_cli(["check", "--type", "A", str(path)])
    assert code == 2
    assert json.loads(out)["error"] == "usage"


def test_float_distance_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "float_metric.json"
    path.write_text(json.dumps({"points": ["x", "y"], "dist": [[0, 5.5], [5.5, 0]]}))
    assert main(["tightspan", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "input"


def test_boolean_distance_is_an_input_error(tmp_path, capsys):
    # JSON true and false are not the integers 1 and 0, off or on the diagonal
    for dist in ([[0, True], [True, 0]], [[False, 1], [1, 0]]):
        path = tmp_path / "bool_metric.json"
        path.write_text(json.dumps({"points": ["a", "b"], "dist": dist}))
        assert main(["tightspan", str(path)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "input"


def test_list_vertex_label_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "list_label.json"
    path.write_text(json.dumps(
        {"type": "C", "vertices": [["a"], "b"], "maximal_simplices": [[["a"], "b"]]}
    ))
    assert main(["check", "--type", "C", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "input"


@pytest.mark.parametrize("argv, data", [
    (["check", "--type", "C"], {"elements": [True, "b"], "covers": [[True, "b"]]}),
    (["check", "--type", "C"], {"elements": [1.5, "b"], "covers": [[1.5, "b"]]}),
    (["check", "--type", "C"], {"type": "C", "vertices": [True, "b"], "maximal_simplices": [[True, "b"]]}),
    (["check", "--type", "C"], {"cubes": [[True, "x", "y", "xy"]]}),
    (["tightspan"], {"points": [True, "b"], "dist": [[0, 1], [1, 0]]}),
], ids=["bool-element", "float-element", "bool-vertex", "bool-cube-corner", "bool-point"])
def test_label_that_is_no_string_or_int_is_an_input_error(tmp_path, capsys, argv, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main([*argv, str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "input"


SQUARE = {"elements": ["0", "a", "b", "1"], "covers": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]}


@pytest.mark.parametrize("argv, data", [
    (["tightspan"], {"points": ["x", "y"], "dist": [[0, "1/0"], ["1/0", 0]]}),
    (["dist", "--from", "a", "--to", "b", "--mesh", "1/0"], SQUARE),
    (["dist", "--from", json.dumps({"weights": {"a": "1/0"}}), "--to", "b"], SQUARE),
], ids=["distance", "mesh", "weight"])
def test_zero_denominator_is_an_input_error(tmp_path, capsys, argv, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main([*argv, str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "input"


@pytest.mark.parametrize("kind, data, detail", [
    ("C", {"type": "C", "vertices": ["u", "v", "w", "t"], "maximal_simplices": [["u", "v", "w"], ["v", "u", "t"]]},
     {"face": ["u", "v"]}),
    ("A", {"type": "A", "vertices": ["c", "b", "a"], "maximal_simplices": [["a", "b"], ["b", "c"], ["c", "a"]]},
     {"clique": ["a", "b", "c"]}),
    ("garside", {"type": "C", "vertices": ["x", "a", "b", "c", "d"],
                 "maximal_simplices": [["a", "c", "x"], ["c", "b", "x"], ["b", "d", "x"], ["d", "a", "x"]]},
     {"vertex": "x", "cycle": ["a", "c", "b", "d"]}),
], ids=["inconsistent-order", "not-flag", "not-local-poset"])
def test_precondition_failure_carries_its_structured_witness(tmp_path, capsys, kind, data, detail):
    path, phi = tmp_path / "input.json", tmp_path / "phi.json"
    path.write_text(json.dumps(data))
    phi.write_text("{}")
    assert main(["check", "--type", kind, "--phi", str(phi), str(path)]) == 1
    [failure] = json.loads(capsys.readouterr().out)["failures"]
    assert failure["condition"] == "precondition"
    assert failure["detail"] == detail
    assert isinstance(failure["witness"], str)


def test_duplicate_vertex_label_is_an_input_error(tmp_path, capsys):
    # JSON true equals 1 as a Python label, so both lists declare one label twice
    for vertices, simplices in (([True, 1, "b"], [[True, "b"], [1, "b"]]), (["a", "a", "b"], [["a", "b"]])):
        path = tmp_path / "duplicate_label.json"
        path.write_text(json.dumps({"type": "C", "vertices": vertices, "maximal_simplices": simplices}))
        assert main(["check", "--type", "C", str(path)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "DuplicateLabel"


def test_program_fault_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # malformed input is refused before any constructor runs, so a TypeError is a fault in the program
    def fault(X):
        raise TypeError("a fault in the program")

    monkeypatch.setattr(cli, "check_type_C", fault)
    path = tmp_path / "square.json"
    path.write_text(json.dumps(SQUARE))
    assert main(["check", "--type", "C", str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": "internal", "detail": "TypeError: a fault in the program"}


@pytest.mark.parametrize("argv, data", [
    (["check", "--type", "C"], ["not", "an", "object"]),
    (["check", "--type", "C"], {"elements": "ab", "covers": [["a", "b"]]}),
    (["check", "--type", "C"], {"elements": [["a"], "b"], "covers": [[["a"], "b"]]}),
    (["check", "--type", "C"], {"elements": ["a", "b"], "covers": [["a", "b", "a"]]}),
    (["check", "--type", "C"], {"type": "C", "vertices": ["a", "b"], "maximal_simplices": "ab"}),
    (["check", "--type", "C"], {"cubes": [[["v"], "x", "y", "xy"]]}),
    (["tightspan"], {"points": [["x"], "y"], "dist": [[0, 1], [1, 0]]}),
    (["tightspan"], {"points": ["x", "y"], "dist": [[0, 1], 1]}),
    (["groupdev"], {"n": 2, "vertex_groups": [], "face_subgroups": []}),
    (["groupdev"], {"n": "2", "vertex_groups": [], "face_subgroups": {}}),
    (["check", "--type", "garside", "--phi", "PHI"], SQUARE),
    (["dist", "--from", json.dumps({"weights": ["a"]}), "--to", "b"], SQUARE),
    (["dist", "--from", json.dumps({"chain": [["0"], "a", "1"], "coords": ["0", "0"]}), "--to", "b"], SQUARE),
], ids=["not-an-object", "string-elements", "list-element", "cover-of-three", "string-simplices", "list-corner",
        "list-point", "number-row", "list-face-subgroups", "string-n", "list-phi-image", "list-weights", "list-chain"])
def test_malformed_input_is_an_input_error(tmp_path, capsys, argv, data):
    path, phi = tmp_path / "input.json", tmp_path / "phi.json"
    path.write_text(json.dumps(data))
    phi.write_text(json.dumps({"0": ["a"]}))
    assert main([str(phi) if a == "PHI" else a for a in argv] + [str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "input"


def test_groupdev_face_key_past_the_last_vertex_is_an_input_error(tmp_path, capsys):
    from cublink.groupdev import trivial_simplex

    data = trivial_simplex(3).to_json()
    data["face_subgroups"]["7|0,7"] = []
    path = tmp_path / "bad_key.json"
    path.write_text(json.dumps(data))
    assert main(["groupdev", str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "UnknownLabel",
        "detail": "face key (7, [0, 7]) is malformed",
    }


def test_groupdev_with_too_few_vertex_groups_is_an_input_error(tmp_path, capsys):
    from cublink.groupdev import trivial_simplex

    data = trivial_simplex(3).to_json()
    del data["vertex_groups"][-1]
    path = tmp_path / "two_groups.json"
    path.write_text(json.dumps(data))
    assert main(["groupdev", str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "input",
        "detail": "one ambient group per vertex is required",
    }


@pytest.mark.parametrize("cube", [[], ["a", "b", "c"]], ids=["empty", "three-vertices"])
def test_cube_of_no_power_of_two_vertices_is_malformed(tmp_path, capsys, cube):
    path = tmp_path / "cubes.json"
    path.write_text(json.dumps({"cubes": [cube]}))
    assert main(["check", "--type", "C", str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "MalformedCubeComplex",
        "detail": f"cube with {len(cube)} vertices is not a power of two",
    }


def test_groupdev_past_eight_vertices_is_too_large(tmp_path, capsys):
    # 16 * 2^15 faces: the table is refused before it is filled
    n, one = 16, {"degree": 1, "generators": [[0]]}
    pairs = {f"{i}|{min(i, j)},{max(i, j)}": [[0]] for i in range(n) for j in range(n) if j != i}
    path = tmp_path / "sixteen.json"
    path.write_text(json.dumps({"n": n, "vertex_groups": [one] * n, "face_subgroups": pairs}))
    assert main(["groupdev", str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "ParameterTooLarge",
        "detail": "a simplex of groups supports n <= 8 vertices, not 16",
    }


ONE = {"degree": 1, "generators": []}


def _symmetric_simplex(degree):
    """Two vertex groups, the symmetric group of the degree and the trivial group, with trivial pair groups."""
    swap, cycle = [1, 0, *range(2, degree)], [*range(1, degree), 0]
    groups = [{"degree": degree, "generators": [swap, cycle]}, ONE]
    return {"n": 2, "vertex_groups": groups, "face_subgroups": {"0|0,1": [], "1|0,1": []}}


@pytest.mark.parametrize("argv, data, detail", [
    (["dist", "--from", "{1}", "--to", "{2}", "--mesh", "1/512"], boolean_poset(2).to_json(),
     "mesh 1/512 joins 2357760 node pairs, more than 1000000"),
    (["dist", "--from", "{1}", "--to", "{2}", "--mesh", "1/100000"], boolean_poset(2).to_json(),
     "mesh 1/100000 joins 89999700000 node pairs, more than 1000000"),
    (["groupdev", "--conditions-only"], _symmetric_simplex(8),
     "face [0] at vertex 0 has more than 720 elements"),
], ids=["mesh-1/512", "mesh-1/100000", "S8-group"])
def test_oversized_input_is_refused_before_it_is_built(tmp_path, capsys, argv, data, detail):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main([*argv, str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": "ParameterTooLarge", "detail": detail}


@pytest.mark.parametrize("argv, data, error", [
    (["dist", "--from", json.dumps({"weights": {"a": "1/2"}}), "--to", "b"], SQUARE,
     {"error": "input", "detail": "barycentric weights must sum to 1"}),
    (["dist", "--from", json.dumps({"weights": {"a": "3/2", "0": "-1/2"}}), "--to", "b"], SQUARE,
     {"error": "input", "detail": "barycentric weights must be nonnegative"}),
    (["dist", "--from", json.dumps({"weights": {"a": "1/2", "b": "1/2"}}), "--to", "1"], SQUARE,
     {"error": "UnknownLabel", "detail": "support ['a', 'b'] spans no simplex"}),
    (["dist", "--from", "a", "--to", "b", "--mesh", "2/3"], SQUARE,
     {"error": "input", "detail": "mesh must be 1/m for a positive integer m"}),
    (["dist", "--from", json.dumps({"chain": ["0", "a", "1"], "coords": ["1/2", "1/4"]}), "--to", "b"], SQUARE,
     {"error": "input", "detail": "coordinates must be nondecreasing"}),
    (["dist", "--from", json.dumps({"chain": ["0", "a", "1"], "coords": ["1/2"]}), "--to", "b"], SQUARE,
     {"error": "input", "detail": "a rank-n chain needs n+1 elements and n coordinates"}),
    (["dist", "--from", json.dumps({"chain": ["0", "a", "1"], "coords": ["1/2", "3/2"]}), "--to", "b"], SQUARE,
     {"error": "input", "detail": "coordinates must stay within [0, 1]"}),
    (["tightspan"], {"points": ["x", "x"], "dist": [[0, 1], [1, 0]]},
     {"error": "NotAMetric", "detail": "point labels must be unique"}),
    (["tightspan"], {"points": ["x", "y"], "dist": [[0, 1], [1]]},
     {"error": "NotAMetric", "detail": "distance matrix shape must match the point count"}),
    (["tightspan"], {"points": ["x", "y"], "dist": [[0, 0], [0, 0]]},
     {"error": "NotAMetric", "detail": "distinct points need positive distance"}),
    (["tightspan"], {"points": ["x", "y"], "dist": [[0, 1], [2, 0]]},
     {"error": "NotAMetric", "detail": "distance matrix must be symmetric"}),
    (["tightspan"], {"points": ["a", "b", "c"], "dist": [[0, "1/2", "1/3"], ["1/2", 0, 2], ["1/3", 2, 0]]},
     {"error": "NotAMetric", "detail": "triangle inequality fails on (b, c, a)"}),
    (["tightspan"], {"points": ["x", "y"], "dist": [[0, "1/3"], ["1/3", "1/5"]]},
     {"error": "NotAMetric", "detail": "nonzero diagonal at 'y'"}),
    (["check", "--type", "C"], {"type": "C", "vertices": ["a", "b"], "maximal_simplices": [["a", "a", "b"]]},
     {"error": "input", "detail": "repeated vertex in simplex ('a', 'a', 'b')"}),
    (["check", "--type", "C"], {"type": "C", "vertices": ["a", "b"], "maximal_simplices": [["a", "z"]]},
     {"error": "UnknownLabel", "detail": "simplex uses undeclared vertex 'z'"}),
    (["check", "--type", "C"], {"type": "B", "vertices": ["a", "b"], "maximal_simplices": [["a", "b"]]},
     {"error": "input", "detail": "order_type must be 'A' or 'C'"}),
    (["groupdev"], {"n": 2, "vertex_groups": [{"degree": 2, "generators": [[0, 0]]}, ONE],
                    "face_subgroups": {"0|0,1": [], "1|0,1": []}},
     {"error": "input", "detail": "(0, 0) is not a permutation of degree 2"}),
    (["groupdev"], {"n": 1, "vertex_groups": [ONE], "face_subgroups": {}},
     {"error": "input", "detail": "a simplex of groups needs at least 2 vertices"}),
    (["groupdev"], {"n": 2, "vertex_groups": [{"degree": -1, "generators": []}, ONE],
                    "face_subgroups": {"0|0,1": [], "1|0,1": []}},
     {"error": "input", "detail": "a vertex group supports 0 <= degree <= 8"}),
    (["check", "--type", "C"], {"type": "C", "maximal_simplices": [["a", "b"]]},
     {"error": "input", "detail": "input lacks key 'vertices'"}),
    (["check", "--type", "A"], {"vertices": ["a", "b"], "maximal_simplices": [["a", "b"]]},
     {"error": "input", "detail": "input lacks key 'type'"}),
    (["check", "--type", "C"], {"covers": [["a", "b"]]},
     {"error": "input", "detail": "input lacks key 'elements'"}),
    (["tightspan"], {"points": ["x", "y"]},
     {"error": "input", "detail": "input lacks key 'dist'"}),
    (["groupdev"], {"n": 2, "face_subgroups": {}},
     {"error": "input", "detail": "input lacks key 'vertex_groups'"}),
    (["groupdev"], {"n": 2, "vertex_groups": [ONE, {"degree": 1}], "face_subgroups": {}},
     {"error": "input", "detail": "an object in input['vertex_groups'] lacks key 'generators'"}),
    (["dist", "--from", json.dumps({"chain": ["0", "a", "1"]}), "--to", "b"], SQUARE,
     {"error": "input", "detail": "a point lacks key 'coords'"}),
], ids=["weights-sum-to-half", "negative-weight", "support-spans-no-simplex", "mesh-2/3", "decreasing-coords",
        "too-few-coords", "coord-past-one", "repeated-point", "ragged-matrix", "zero-distance", "asymmetric-matrix",
        "mixed-denominator-triangle", "nonzero-diagonal",
        "repeated-simplex-vertex", "undeclared-vertex", "type-B", "not-a-permutation", "one-vertex", "negative-degree",
        "complex-lacks-vertices", "complex-lacks-type", "poset-lacks-elements", "metric-lacks-dist",
        "groupdev-lacks-vertex-groups", "groupdev-lacks-generators", "chain-point-lacks-coords"])
def test_input_error_exits_two_with_its_error_object(tmp_path, capsys, argv, data, error):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main([*argv, str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == error


TOO_DEEP = {"error": "ParameterTooLarge", "detail": "input nests arrays or objects too deeply to read"}


@pytest.mark.parametrize("argv", [["check", "--type", "C"], ["tightspan"], ["groupdev"],
                                  ["dist", "--from", "a", "--to", "b"]], ids=["check", "tightspan", "groupdev", "dist"])
def test_deeply_nested_input_is_too_large(tmp_path, capsys, monkeypatch, argv):
    # the JSON decoder recurses once per level of nesting; at depth 900 the input is read and refused for its shape
    path = tmp_path / "input.json"
    for depth in (1000, 100_000):
        path.write_text("[" * depth + "]" * depth)
        assert main([*argv, str(path)]) == 2
        assert json.loads(capsys.readouterr().out) == TOO_DEEP
        monkeypatch.setattr(sys, "stdin", io.StringIO(path.read_text()))
        assert main([*argv, "-"]) == 2
        assert json.loads(capsys.readouterr().out) == TOO_DEEP
    path.write_text("[" * 900 + "]" * 900)
    assert main([*argv, str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": "input",
                                                   "detail": f"input holds {'[' * 200}..., which is no object"}


def test_deeply_nested_phi_or_point_is_too_large(tmp_path, capsys):
    square, phi = tmp_path / "square.json", tmp_path / "phi.json"
    square.write_text(json.dumps(SQUARE))
    for depth in (1000, 100_000):
        phi.write_text("[" * depth + "]" * depth)
        assert main(["check", "--type", "garside", "--phi", str(phi), str(square)]) == 2
        assert json.loads(capsys.readouterr().out) == TOO_DEEP
    assert main(["dist", "--from", "[" * 1000 + "]" * 1000, "--to", "a", str(square)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "ParameterTooLarge", "detail": "a point nests arrays or objects too deeply to read"}


def test_shape_error_quotes_a_bounded_part_of_a_large_input(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps([1] * 200_000))
    assert main(["check", "--type", "C", str(path)]) == 2
    out = capsys.readouterr().out
    assert json.loads(out) == {"error": "input", "detail": f"input holds {repr([1] * 67)[:200]}..., which is no object"}
    assert len(out) < 300
    path.write_text(json.dumps([1] * 66))  # its repr is 198 characters, quoted whole
    assert main(["check", "--type", "C", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["detail"] == f"input holds {[1] * 66!r}, which is no object"


def test_output_is_byte_deterministic():
    runs = {run_cli(["generate", "affine-patch", "--n", "2", "--radius", "1"])[1] for _ in range(3)}
    assert len(runs) == 1


def test_selftest_runs_the_full_suites():
    code, out = run_cli(["selftest"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert [s["checked"] for s in payload["suites"]] == [514, 200, 22, 480, 4]


def test_selftest_has_no_quick_flag(capsys):
    assert main(["selftest", "--quick"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "usage"


def test_main_callable_directly(capsys):
    assert main(["generate", "boolean", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["elements"] == ["{1}", "{}"]


def test_successive_in_process_calls_keep_their_exit_codes(capsys):
    # the parser is built once per process, so a failed parse must not leak into the next call
    assert main(["generate", "boolean"]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": "usage", "detail": "invalid arguments"}
    assert main(["generate", "boolean", "--n", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["elements"] == ["{1}", "{}"]


@pytest.mark.parametrize("argv, data, error", [
    (["check", "--type", "C"], {"elements": [1, "1", "b"], "covers": [[1, "b"], ["1", "b"]]}, "DuplicateLabel"),
    (["tightspan"], {"points": [1, "1"], "dist": [[0, 1], [1, 0]]}, "input"),
    (["check", "--type", "C"], {"cubes": [[1, "x", "y", "xy"], ["1", "u", "v", "uv"]]}, "input"),
], ids=["element", "point", "cube-corner"])
def test_labels_that_print_the_same_are_an_input_error(tmp_path, capsys, argv, data, error):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main([*argv, str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == error


def test_closed_stdout_exits_two_without_a_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "cublink.cli", "generate", "boolean", "--n", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    proc.stdout.close()  # the reader goes away before the program writes
    err = proc.stderr.read()
    assert proc.wait() == 2
    assert err == ""


@pytest.mark.parametrize("data, code", [
    (SQUARE, 0),
    ({"cubes": [["v", "x", "y", "xy"], ["v", "y", "z", "yz"], ["v", "z", "x", "zx"]]}, 1),
    ({"cubes": [["a", "b"], ["a+b", "c"]]}, 0),  # the vertex a+b and the edge {a, b} have distinct face names
], ids=["poset", "cubes", "cubes-plus-label"])
def test_type_c_check_of_a_poset_builds_no_complex(tmp_path, capsys, monkeypatch, data, code):
    from cublink.complexes import OrderedComplex

    def refuse(*args):
        raise AssertionError("no complex is built")

    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main(["check", "--type", "C", str(path)]) == code
    verdict = capsys.readouterr().out
    monkeypatch.setattr(OrderedComplex, "__init__", refuse)
    assert main(["check", "--type", "C", str(path)]) == code
    assert capsys.readouterr().out == verdict


@pytest.mark.parametrize("data", [
    SQUARE,
    {"cubes": [["v", "x", "y", "xy"], ["v", "y", "z", "yz"], ["v", "z", "x", "zx"]]},
], ids=["poset", "cubes"])
def test_type_a_check_rejects_a_poset_before_its_chains(tmp_path, capsys, monkeypatch, data):
    from cublink.poset import Poset

    def refuse(self):
        raise AssertionError("no chain is enumerated")

    monkeypatch.setattr(Poset, "maximal_chains", refuse)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main(["check", "--type", "A", str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "usage", "detail": "check --type A needs a cyclically ordered complex"}
