"""Link-condition verdicts for type A, type C, and order-automorphism pairs."""

import json
import random
import time

import pytest

from cublink.cli import main
from cublink.complexes import OrderedComplex, is_local_poset, order_complex, star_poset, validate
from cublink.cubes import barycentric_cube_subdivision, single_cube, squares_sharing_two_edges, three_squares_corner
from cublink.errors import CycleDetected, GarsideCheckFailed, NotAutomorphism, NotLocalPoset, PreconditionFailed
from cublink.generators import (
    affine_A_patch,
    column_complex,
    column_shift,
    integer_line,
    line_shift,
    noncrossing_partitions,
)
from cublink import linkcheck
from cublink.linkcheck import _failing_stars, check_garside, check_type_A, check_type_C, garside_quotient
from cublink.poset import Poset, _bits, find_bowtie, with_bounds
from oracle import bowtie_star_complex, random_poset


# -- type A ------------------------------------------------------------------


def test_flat_patch_passes():
    verdict = check_type_A(affine_A_patch(2, 2))
    assert verdict.passed and verdict.certificate == "locally_CUB_certified"


def test_bowtie_star_fails_with_exact_witness():
    verdict = check_type_A(bowtie_star_complex())
    assert not verdict.passed
    failure = verdict.failures[0]
    assert failure.vertex == "x" and failure.condition == "lattice"
    assert failure.witness.as_tuple() == ("a", "a'", "b", "b'")


def test_single_triangle_passes():
    X = OrderedComplex("A", ["u", "v", "w"], [("u", "v", "w")])
    assert check_type_A(X).passed


def test_type_a_rejects_type_c_input():
    with pytest.raises(PreconditionFailed):
        check_type_A(integer_line(3))


def test_local_poset_precondition_carries_its_cycle(tmp_path, capsys):
    # the cone over an oriented 4-cycle: the relation at x orders a < b < c < d < a
    cone = {
        "type": "C",
        "vertices": ["x", "a", "b", "c", "d"],
        "maximal_simplices": [["a", "b", "x"], ["b", "c", "x"], ["c", "d", "x"], ["d", "a", "x"]],
    }
    X = OrderedComplex.from_json(cone)
    with pytest.raises(PreconditionFailed) as info:
        check_type_C(X)
    cause = info.value.cause
    assert isinstance(cause, NotLocalPoset)
    assert (cause.vertex, cause.cycle) == is_local_poset(X)
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(cone))
    assert main(["check", "--type", "C", str(path)]) == 1
    assert capsys.readouterr().out == (
        "{\n"
        '  "certificate": null,\n'
        '  "failures": [\n'
        "    {\n"
        '      "condition": "precondition",\n'
        '      "detail": {\n'
        '        "cycle": [\n'
        '          "a",\n'
        '          "b",\n'
        '          "c",\n'
        '          "d"\n'
        "        ],\n"
        '        "vertex": "x"\n'
        "      },\n"
        '      "witness": "star relation at x not transitive on (\'a\', \'b\', \'c\', \'d\')"\n'
        "    }\n"
        "  ],\n"
        '  "pass": false\n'
        "}\n"
    )


def union(order_type, *parts):
    return OrderedComplex(
        order_type,
        [v for X in parts for v in X.vertices],
        [s for X in parts for s in X.maximal_simplices],
    )


def test_later_relation_cycle_outranks_earlier_failures():
    # an earlier vertex fails (x's bowtie, v's upward flag), a later one (z,
    # zz) centres a cone over an oriented 4-cycle
    cone_a = OrderedComplex("A", ["z", "r0", "r1", "r2", "r3"],
                            [("z", "r0", "r1"), ("z", "r1", "r2"), ("z", "r2", "r3"), ("z", "r3", "r0")])
    cone_c = OrderedComplex("C", ["zz", "z0", "z1", "z2", "z3"],
                            [("z0", "z1", "zz"), ("z1", "z2", "zz"), ("z2", "z3", "zz"), ("z3", "z0", "zz")])
    corner = barycentric_cube_subdivision(three_squares_corner())
    assert check_type_A(bowtie_star_complex()).failures[0].vertex == "x"
    assert check_type_C(corner).failures[0].vertex == "v"
    for check, X, center in (
        (check_type_A, union("A", bowtie_star_complex(), cone_a), "z"),
        (check_type_C, union("C", corner, cone_c), "zz"),
    ):
        with pytest.raises(PreconditionFailed) as info:
            check(X)
        cause = info.value.cause
        assert isinstance(cause, NotLocalPoset)
        assert (cause.vertex, cause.cycle) == is_local_poset(X)
        assert cause.vertex == center


def built_stars(monkeypatch):
    """The centres of the star posets the checkers build, in call order."""
    calls, build = [], linkcheck.star_poset
    monkeypatch.setattr(linkcheck, "star_poset", lambda X, x: calls.append(x) or build(X, x))
    return calls


def test_type_a_star_relation_that_is_not_transitive_closes_to_a_lattice(monkeypatch):
    # at x the chambers give a, b < m < c, d, but none holds a and c: only
    # the closure orders them, and in it c and d meet at m, a and b at x
    X = OrderedComplex("A", ["x", "a", "b", "m", "c", "d"],
                       [("x", "a", "m"), ("x", "b", "m"), ("x", "m", "c"), ("x", "m", "d")])
    assert not X.has_simplex({"a", "c"}) and star_poset(X, "x").poset.lt("a", "c")
    assert star_poset(X, "x").poset.meet("c", "d") == "m"
    calls = built_stars(monkeypatch)
    assert check_type_A(X).passed and calls == []
    assert check_type_A(affine_A_patch(3, 2)).passed and calls == []


def test_type_a_bowtie_that_appears_only_in_the_closure(monkeypatch):
    # at x the chambers give a < m < c, b < c, a < d and b < d: a < c only
    # through m, which lies under c alone, so a, b < c, d is a bowtie; read
    # off the relation's own pairs, c and d would share only b
    X = OrderedComplex("A", ["x", "a", "b", "m", "c", "d"],
                       [("x", "a", "m"), ("x", "m", "c"), ("x", "b", "c"), ("x", "a", "d"), ("x", "b", "d")])
    assert not X.has_simplex({"a", "c"})
    calls = built_stars(monkeypatch)
    verdict = check_type_A(X)
    assert calls == ["x"]  # only the failing star is built
    assert [(f.vertex, f.condition) for f in verdict.failures] == [("x", "lattice")]
    assert verdict.failures[0].witness == find_bowtie(star_poset(X, "x").poset)
    assert verdict.failures[0].witness.as_tuple() == ("a", "b", "c", "d")


def test_type_a_relation_cycle_after_a_bowtie_keeps_its_error(monkeypatch, tmp_path, capsys):
    # x (a bowtie) comes before z (a cone over an oriented 4-cycle) in label order
    X = union("A", bowtie_star_complex(), OrderedComplex("A", ["z", "r0", "r1", "r2", "r3"], CONE_A))
    calls = built_stars(monkeypatch)
    with pytest.raises(PreconditionFailed) as info:
        check_type_A(X)
    assert calls == ["x", "z"]
    assert str(info.value) == "precondition failed: star relation at z not transitive on ('r0', 'r1', 'r2', 'r3')"
    assert (info.value.cause.vertex, info.value.cause.cycle) == ("z", ("r0", "r1", "r2", "r3"))
    path = tmp_path / "bowtie_and_cone.json"
    path.write_text(json.dumps(X.to_json()))
    assert main(["check", "--type", "A", str(path)]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "certificate": None,
        "failures": [{
            "condition": "precondition",
            "detail": {"cycle": ["r0", "r1", "r2", "r3"], "vertex": "z"},
            "witness": "star relation at z not transitive on ('r0', 'r1', 'r2', 'r3')",
        }],
        "pass": False,
    }


# -- precondition precedence: the orientation pass runs only on a failure ----------------------------

CLASH_A = [("a", "b", "c", "d"), ("a", "c", "b", "e")]  # cyclic orders (a, b, c) and (a, c, b)
CLASH_C = [("a", "b", "c"), ("b", "a", "d")]  # a < b and b < a
HOLLOW = [("p", "q"), ("q", "r"), ("p", "r")]  # a clique that spans no simplex
CONE_A = [("z", "r0", "r1"), ("z", "r1", "r2"), ("z", "r2", "r3"), ("z", "r3", "r0")]
CONE_C = [("z0", "z1", "zz"), ("z1", "z2", "zz"), ("z2", "z3", "zz"), ("z3", "z0", "zz")]


def complex_of(order_type, simplices):
    return OrderedComplex(order_type, {v for s in simplices for v in s}, simplices)


def garside_without_map(X):
    return check_garside(X, {})


def checked_outcome(check, X):
    """The verdict as JSON, or the precondition's cause as (class name, message)."""
    try:
        return check(X).to_json()
    except PreconditionFailed as err:
        return type(err.cause).__name__, str(err.cause)


def precedence_cases():
    """A clash, a clash with a hollow triangle, the hollow triangle alone and a cycle alone, per check."""
    face_abc = ("InconsistentOrder", "inconsistent induced orders on face ['a', 'b', 'c']")
    face_ab = ("InconsistentOrder", "inconsistent induced orders on face ['a', 'b']")
    hollow = ("NotFlag", "empty clique ['p', 'q', 'r'] spans no simplex")
    yield check_type_A, "A", CLASH_A, face_abc
    yield check_type_A, "A", CLASH_A + HOLLOW, face_abc
    yield check_type_A, "A", CLASH_A[:1] + HOLLOW, hollow
    yield check_type_A, "A", CONE_A, ("NotLocalPoset", "star relation at z not transitive on ('r0', 'r1', 'r2', 'r3')")
    for check in (check_type_C, garside_without_map):
        yield check, "C", CLASH_C, face_ab
        yield check, "C", CLASH_C + HOLLOW, face_ab
        yield check, "C", CLASH_C[:1] + HOLLOW, hollow
        yield check, "C", CONE_C, ("NotLocalPoset", "star relation at zz not transitive on ('z0', 'z1', 'z2', 'z3')")


@pytest.mark.parametrize("check, order_type, simplices, want", list(precedence_cases()))
def test_inconsistent_order_outranks_not_flag_outranks_a_relation_cycle(check, order_type, simplices, want):
    assert checked_outcome(check, complex_of(order_type, simplices)) == want


def test_passing_checks_run_no_orientation_pass(monkeypatch):
    def no_orientation_pass(X):
        raise AssertionError("validate ran")

    monkeypatch.setattr(linkcheck, "validate", no_orientation_pass)
    assert check_type_A(affine_A_patch(3, 2)).passed
    assert check_type_C(barycentric_cube_subdivision(single_cube())).passed
    assert check_type_C(column_complex(2, 2)).passed
    assert check_garside(column_complex(2, 2), column_shift(2, 2)).passed


def test_long_chain_passes_in_seconds():
    # each of the 400 stars is the whole chain
    labels = [f"c{i:03d}" for i in range(400)]
    X = order_complex(Poset.from_covers(labels, list(zip(labels, labels[1:]))))
    started = time.time()
    assert check_type_C(X).passed
    assert time.time() - started <= 8


def test_verdicts_are_deterministic():
    X = bowtie_star_complex()
    a = check_type_A(X).to_json()
    b = check_type_A(X).to_json()
    assert a == b


def test_verdict_invariant_under_stored_rotations():
    import random

    from cublink.generators import affine_A_patch

    rng = random.Random(23)
    base = affine_A_patch(2, 1)
    reference = check_type_A(base).to_json()
    for _ in range(5):
        rotated = [
            s[k:] + s[:k]
            for s in base.maximal_simplices
            for k in [rng.randrange(len(s))]
        ]
        X = OrderedComplex("A", base.vertices, rotated)
        assert check_type_A(X).to_json() == reference


# -- type C ------------------------------------------------------------------


def test_subdivided_cube_passes():
    verdict = check_type_C(barycentric_cube_subdivision(single_cube()))
    assert verdict.passed


def test_three_squares_corner_fails_flag_condition():
    X = barycentric_cube_subdivision(three_squares_corner())
    verdict = check_type_C(X)
    assert not verdict.passed
    failure = verdict.failures[0]
    assert failure.vertex == "v"
    assert failure.condition == "flag_up"
    assert set(failure.witness) == {"v+x", "v+y", "v+z"}


def test_doubled_corner_fails_lattice_condition():
    X = barycentric_cube_subdivision(squares_sharing_two_edges())
    verdict = check_type_C(X)
    assert not verdict.passed
    failure = next(f for f in verdict.failures if f.vertex == "v")
    assert failure.condition == "lattice"
    bt = failure.witness
    assert {bt.a, bt.b} == {"a+v", "b+v"}
    assert {bt.c, bt.d} == {"a+b+c+v", "a+b+d+v"}


def test_column_passes():
    for n in (2, 3):
        assert check_type_C(column_complex(n, 2)).passed


def test_failing_stars_are_exactly_the_elements_whose_star_fails():
    # both lemmas of _failing_stars are equivalences, so no star that passes is built
    rng = random.Random(3)
    for _ in range(300):
        P = random_poset(rng)
        for Q in (P, with_bounds(P)):
            failing = {f.vertex for f in check_type_C(Q).failures}
            assert {Q.elements[i] for i in _bits(_failing_stars(Q))} == failing, Q.to_json()


def test_a_lattice_restricts_no_star(monkeypatch):
    def no_star(P, mask):
        raise AssertionError("a star was restricted")

    monkeypatch.setattr(linkcheck, "_restriction", no_star)
    assert check_type_C(noncrossing_partitions(6)).passed


# -- order automorphisms ----------------------------------------------------------


def test_integer_line_with_shift_passes():
    X = integer_line(6)
    verdict = check_garside(X, line_shift(6))
    assert verdict.passed
    # each interval is a 2-chain
    P = star_poset(X, "3").poset
    assert P.up_set("3") == {"3", "4"}


def test_column_with_diagonal_shift_passes():
    X = column_complex(2, 2)
    verdict = check_garside(X, column_shift(2, 2), assume_simply_connected=True)
    assert verdict.passed and verdict.certificate == "CUB_and_injective_certified"


def test_reversed_edge_is_not_automorphism():
    X = integer_line(4)
    phi = {"1": "0"}  # sends the oriented edge 1->2 onto 0<-1 reversed
    with pytest.raises(NotAutomorphism):
        check_garside(X, {"0": "1", "1": "0"})
    verdict = check_garside(X, phi)
    assert not verdict.passed  # phi(1) is below 1, so the increasing clause fails


def test_quotient_of_line_is_single_vertex():
    X = integer_line(5)
    Y = garside_quotient(X, line_shift(5))
    assert len(Y.vertices) == 1
    assert Y.maximal_simplices == (("0",),)


def test_quotient_of_column_is_affine_simplex():
    for n in (2, 3):
        X = column_complex(n, 2)
        Y = garside_quotient(X, column_shift(n, 2))
        assert len(Y.vertices) == n + 1
        assert len(Y.maximal_simplices) == 1
        assert len(Y.maximal_simplices[0]) == n + 1
        validate(Y)
        assert check_type_A(Y).passed


def test_quotient_requires_passing_check():
    X = integer_line(4)
    with pytest.raises(GarsideCheckFailed):
        garside_quotient(X, {"1": "0"})


def test_quotient_of_empty_complex():
    X = OrderedComplex("C", [], [])
    Y = garside_quotient(X, {})
    assert Y.vertices == () and Y.maximal_simplices == ()


def test_relation_cycle_through_no_star_is_a_cycle_precondition():
    # each star of an oriented 4-cycle is a path, so only the global order has the cycle
    X = OrderedComplex("C", list("abcd"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    assert is_local_poset(X) is None
    with pytest.raises(PreconditionFailed) as info:
        check_garside(X, {})
    assert isinstance(info.value.cause, CycleDetected)
    assert str(info.value.cause) == "cover pairs contain a cycle through ['a', 'b', 'c', 'd']"


def test_interval_with_a_bowtie_fails_only_the_lattice_clause():
    P = Poset.from_covers(list("xabcdy"), [("x", "a"), ("x", "b"), ("a", "c"), ("a", "d"),
                                          ("b", "c"), ("b", "d"), ("c", "y"), ("d", "y")])
    verdict = check_garside(order_complex(P), {"x": "y"})
    assert verdict.to_json()["failures"] == [
        {"vertex": "x", "condition": "interval_lattice", "witness": {"a": "a", "b": "b", "c": "c", "d": "d"}}]
