"""CLI surface: exit codes, JSON schemas, piping, determinism."""

import json
import subprocess
import sys

import pytest

from cublink.cli import main


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


def test_program_fault_is_an_internal_error(tmp_path, capsys):
    # lists where from_json expects objects raise AttributeError inside the program
    path = tmp_path / "list_subgroups.json"
    path.write_text(json.dumps({"n": 2, "vertex_groups": [], "face_subgroups": []}))
    assert main(["groupdev", str(path)]) == 2
    error = json.loads(capsys.readouterr().out)
    assert error["error"] == "internal"
    assert error["detail"].startswith("AttributeError: ")


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
], ids=["poset", "cubes"])
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
