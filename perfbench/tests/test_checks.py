"""Each output check accepts the program's real output and rejects a tampered one.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
from fractions import Fraction

import pytest

import run
from checks import CHECKS, exact_flat_distance
from spans import Tracer, instrumented
from workloads import Op, setup_hull, setup_link_corpus, setup_mesh


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("corpus")
    ops = {op.name: op for op in setup_link_corpus(3, str(workdir))}
    return {o.op.name: o for o in run.run_round(list(ops.values()))}


def _ok(outcome, text=None, code=None):
    op = outcome.op
    return CHECKS[op.check](op, outcome.code if code is None else code,
                            outcome.text if text is None else text) is None


def _edit(outcome, change):
    out = json.loads(outcome.text)
    change(out)
    return json.dumps(out)


def test_real_outputs_pass_and_only_malformed_inputs_fail(corpus):
    failed = sorted(name for name, o in corpus.items() if o.error is not None)
    assert failed == ["malformed:float_distance", "malformed:list_label"]
    assert all(_ok(o) for o in corpus.values() if o.error is None)


def test_certified_rejects_a_flipped_verdict_and_a_wrong_chain_count(corpus):
    o = corpus["lattice:boolean_3"]
    flipped = _edit(o, lambda out: out.update({"pass": False, "certificate": None}))
    assert not _ok(o, flipped, 1)
    assert not _ok(o, code=1)
    right = Op("boolean_3", "certified", o.op.payload, o.op.argv, {"chambers": 6})  # 3!
    assert CHECKS["certified"](right, o.code, o.text) is None
    wrong = Op("boolean_3", "certified", o.op.payload, o.op.argv, {"chambers": 7})
    assert "closed formula" in CHECKS["certified"](wrong, o.code, o.text)


def test_cubes_rejects_a_verdict_against_the_vertex_link_oracle(corpus):
    o = corpus["cubes:three_squares_corner"]
    passed = json.dumps({"pass": True, "certificate": "x", "failures": []})
    assert not _ok(o, passed, 0)
    moved = _edit(o, lambda out: out["failures"][0].update({"vertex": "x"}))
    assert not _ok(o, moved)
    good = corpus["cubes:single_cube"]
    assert not _ok(good, json.dumps({"pass": False, "certificate": None, "failures": [{}]}), 1)


def test_witness_rejects_a_different_bowtie(corpus):
    o = corpus["bowtie_star"]
    swapped = _edit(o, lambda out: out["failures"][0]["witness"].update({"c": "b'", "d": "b"}))
    assert not _ok(o, swapped)


def test_groupdev_rejects_flipped_conditions_and_a_wrong_condition_name(corpus):
    s4 = corpus["groupdev:s4_simplex"]
    assert not _ok(s4, _edit(s4, lambda out: out["conditions"].update({"holds": False})), 1)
    assert not _ok(s4, _edit(s4, lambda out: out["developments"]["2"].update({"pass": False})))
    bad = corpus["groupdev:product_violation"]
    assert not _ok(bad, _edit(bad, lambda out: out["conditions"]["witness"][0].update(
        {"condition": "intersection"})))


def test_rejected_needs_exit_2_and_a_json_error():
    op = Op("malformed", "rejected", {}, ("tightspan",))
    assert CHECKS["rejected"](op, 2, '{"error": "input"}\n') is None
    assert CHECKS["rejected"](op, 1, '{"error": "input"}\n') is not None
    assert CHECKS["rejected"](op, 2, "Traceback (most recent call last):\n") is not None


@pytest.fixture(scope="module")
def hulls(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("hull")
    ops = [op for op in setup_hull(5, str(workdir)) if op.name in ("tree_5_0", "random_5_0", "rectangle_4_0")]
    return {o.op.name: o for o in run.run_round(ops)}


def test_hull_rejects_a_wrong_dimension_a_missing_row_and_a_loose_vertex(hulls):
    assert all(_ok(o) for o in hulls.values())
    o = hulls["random_5_0"]
    assert not _ok(o, _edit(o, lambda out: out.update({"dimension": out["dimension"] + 1})))
    assert not _ok(o, _edit(o, lambda out: out.update({"vertices": out["vertices"][1:]})))

    def loosen(out):
        out["vertices"][0] = [str(Fraction(x) + 1) for x in out["vertices"][0]]

    assert not _ok(o, _edit(o, loosen))


def test_hull_rejects_a_tree_of_dimension_two(hulls):
    o = hulls["tree_5_0"]
    op = Op(o.op.name, "hull", o.op.payload, o.op.argv, {"tree": True, "other_dress": True})
    fake = _edit(o, lambda out: out.update({"dimension": 2, "dress": o.op.argv[2] == "2"}))
    assert "tree" in CHECKS["hull"](op, 0, fake)


@pytest.fixture(scope="module")
def mesh_ops(tmp_path_factory):
    ops = setup_mesh(4, str(tmp_path_factory.mktemp("mesh")))
    return {op.name: op for op in ops}


def test_mesh_rejects_distances_below_the_flat_norm_or_far_above_it(mesh_ops):
    vertex_pair = next(op for op in mesh_ops.values()
                       if op.payload["complex"] == "patch" and op.payload["kind"] == "vertex")
    q = vertex_pair.payload
    exact = exact_flat_distance("patch", q["p"], q["q"])
    assert CHECKS["mesh"](vertex_pair, 0, str(exact)) is None
    assert "below" in CHECKS["mesh"](vertex_pair, 0, str(exact - Fraction(1, 100)))
    assert "5%" in CHECKS["mesh"](vertex_pair, 0, str(exact * Fraction(106, 100)))


def test_mesh_rejects_an_inexact_distance_inside_one_chamber(mesh_ops):
    off = next(op for op in mesh_ops.values() if op.payload["kind"] == "offmesh")
    q = off.payload
    exact = exact_flat_distance("patch", q["p"], q["q"])
    assert CHECKS["mesh"](off, 0, str(exact)) is None
    assert "chamber" in CHECKS["mesh"](off, 0, str(exact + Fraction(1, 1000)))
    same = next(op for op in mesh_ops.values()
                if op.payload["complex"] == "boolean" and {op.payload["p"], op.payload["q"]} == {"{}", "{1}"})
    assert CHECKS["mesh"](same, 0, "1") is None
    assert CHECKS["mesh"](same, 0, "21/20") is not None


def test_instrumented_run_gives_the_same_output_with_a_span_per_layer_call(corpus):
    from cublink import cli, linkcheck

    originals = (cli.check_type_C, linkcheck.star_poset)
    tr = Tracer()
    with instrumented(tr):
        for name in ("cubes:three_squares_corner", "groupdev:s4_simplex", "lattice:noncrossing_4"):
            o = corpus[name]
            again = run.run_op(o.op, {})
            assert (again.code, again.text, again.error) == (o.code, o.text, None)
    assert (cli.check_type_C, linkcheck.star_poset) == originals
    names = {s["name"] for s in tr.spans}
    assert {"cli.read_input", "cubes.barycentric_cube_subdivision", "linkcheck.check_type_C",
            "complexes.star_poset", "poset.Poset.restrict", "groupdev.local_development",
            "poset.poset_from_json", "poset.Poset.maximal_chains", "cli.emit"} <= names
    assert tr.counts["complexes.chambers"] > 0 and tr.counts["complexes.star_elements"] > 0


def _last_line(capsys, argv):
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_runs_report_exactly_the_metrics_benchmark_json_names(capsys, monkeypatch):
    import workloads

    monkeypatch.setitem(workloads.SETUPS, "links", workloads.setup_link_corpus)  # the quick half
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    args = ["--workload", "links", "--seed", "1", "--seconds", "0"]
    timed = _last_line(capsys, args + ["--trace", "0"])
    assert set(timed["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert (timed["correct"], timed["failed"] / timed["attempted"]) == (True, 2 / 55)
    traced = _last_line(capsys, args + ["--trace", "1"])
    assert set(traced["metrics"]) == {m["name"] for m in bench["per_layer"]}
    assert traced["correct"] is True
    for m in bench["end_to_end"] + bench["per_layer"]:
        got = (timed if m in bench["end_to_end"] else traced)["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
