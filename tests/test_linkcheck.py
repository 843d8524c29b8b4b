"""Link-condition verdicts for type A, type C, and order-automorphism pairs."""

import json
import random
import time
from collections import Counter
from itertools import combinations, permutations, product

import pytest

from cublink.cli import main
from cublink.complexes import (
    OrderedComplex,
    _check_flag,
    canonical_rotation,
    is_local_poset,
    order_complex,
    star_poset,
    validate,
)
from cublink.cubes import (
    CubeComplex,
    barycentric_cube_subdivision,
    cube_corpus,
    single_cube,
    squares_sharing_two_edges,
    three_squares_corner,
)
from cublink.errors import (
    CycleDetected,
    GarsideCheckFailed,
    InconsistentOrder,
    NotAutomorphism,
    NotFlag,
    NotLocalPoset,
    PreconditionFailed,
)
from cublink.generators import (
    affine_A_patch,
    column_complex,
    column_shift,
    integer_line,
    line_shift,
    noncrossing_partitions,
    random_ranked_poset,
)
from cublink import linkcheck
from cublink.linkcheck import (
    Failure,
    Verdict,
    _failing_stars,
    check_garside,
    check_type_A,
    check_type_C,
    garside_quotient,
)
from cublink.poset import Poset, _bits, _restriction, find_bowtie, flag_condition, with_bounds
from test_complexes import oracle_complexes


def bowtie_star_complex():
    """Four triangles around x whose star poset at x is a bowtie."""
    return OrderedComplex(
        "A",
        ["x", "a", "a'", "b", "b'"],
        [("x", "a", "b"), ("x", "a", "b'"), ("x", "a'", "b"), ("x", "a'", "b'")],
    )


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


def test_checks_report_validates_failure_first_on_random_complexes():
    rng = random.Random(4)
    seen = Counter()
    for _ in range(1500):
        order_type = rng.choice("AC")
        vertices = [f"v{i}" for i in range(rng.randint(3, 9))]
        simplices = [rng.sample(vertices, rng.randint(1, min(5, len(vertices)))) for _ in range(rng.randint(1, 9))]
        if rng.random() < 0.5:  # a cone over an oriented rim, whose star relation has a cycle
            x, *rim = rng.sample(vertices, min(len(vertices), rng.randint(4, 6)))
            simplices += [(a, b, x) if order_type == "C" else (x, a, b) for a, b in zip(rim, rim[1:] + rim[:1])]
        X = OrderedComplex(order_type, vertices, simplices)
        try:
            validate(X)
            want = None
        except (InconsistentOrder, NotFlag) as err:
            want = (type(err).__name__, str(err))
        clash = want is not None and want[0] == "InconsistentOrder"
        try:
            _check_flag(X)
            flag = True
        except NotFlag:
            flag = False
        for check in (check_type_A,) if order_type == "A" else (check_type_C, garside_without_map):
            got = checked_outcome(check, X)
            if want is not None:
                assert got == want, X.maximal_simplices
            seen[clash, flag, got[0] if isinstance(got, tuple) else "verdict"] += 1
    # a clash, a clash and a hollow clique, a hollow clique alone and a relation cycle alone
    kinds = ((True, True, "InconsistentOrder"), (True, False, "InconsistentOrder"),
             (False, False, "NotFlag"), (False, True, "NotLocalPoset"))
    assert min(seen[k] for k in kinds) >= 40, seen


def test_passing_checks_run_no_orientation_pass(monkeypatch):
    def no_orientation_pass(X, require_flag=True):
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


def two_level_order_complexes(count, seed=0):
    """Order complexes of random two-level posets, most with a bottom, half reversed."""
    rng = random.Random(seed)
    for _ in range(count):
        lower = [f"l{i}" for i in range(rng.randint(2, 5))]
        upper = [f"u{i}" for i in range(rng.randint(2, 6))]
        pairs = [(a, u) for u in upper for a in rng.sample(lower, rng.randint(1, min(3, len(lower))))]
        if rng.random() < 0.8:
            pairs += [("0", a) for a in lower]
        if rng.random() < 0.5:
            pairs = [(b, a) for a, b in pairs]
        elements = sorted({v for pair in pairs for v in pair})
        yield f"two-level {len(lower)}+{len(upper)}", order_complex(Poset.from_covers(elements, pairs))


def test_flag_conditions_on_the_star_match_the_restricted_parts():
    complexes = [*oracle_complexes(), *two_level_order_complexes(1500)]
    violations = {"up": 0, "down": 0}
    for name, X in complexes:
        validate(X, require_flag=False)
        for x in X.vertices:
            P = star_poset(X, x).poset
            for direction, part in (("up", P.up_set(x)), ("down", P.down_set(x))):
                want = flag_condition(P.restrict(part), direction)
                assert flag_condition(P, direction) == want, (name, x, direction)
                violations[direction] += want is not None
    assert min(violations.values()) >= 20, violations  # both directions are exercised


def check_type_C_star_by_star(P):
    """check_type_C on a poset with every star restricted and tested, the reference for the one-pass filter."""
    failures = []
    for i, x in enumerate(P.elements):
        S = _restriction(P, P._down[i] | P._up[i] | 1 << i)
        bowtie = find_bowtie(S)
        if bowtie is not None:
            failures.append(Failure(x, "lattice", bowtie))
            continue
        for direction in ("up", "down"):
            triple = flag_condition(S, direction)
            if triple is not None:
                failures.append(Failure(x, f"flag_{direction}", triple))
                break
    return Verdict(not failures, "locally_CUB_and_locally_injective_certified", tuple(failures))


def random_face_poset(rng):
    """The face poset of a random simplicial complex on up to 6 vertices, or its dual.

    Faces meet in a face, so it has no bowtie, while its flag conditions
    fail at a vertex whose link has a hollow triangle and at a triangle.
    Some get up to two extra elements, each below two vertices.
    """
    points = "abcdef"[:rng.randint(3, 6)]
    faces = set()
    for _ in range(rng.randint(2, 6)):
        s = rng.sample(points, rng.randint(2, min(4, len(points))))
        faces |= {"".join(sorted(f)) for r in range(1, len(s) + 1) for f in combinations(s, r)}
    pairs = [(f, g) for f in faces for g in faces if len(g) == len(f) + 1 and set(f) < set(g)]
    for k in range(rng.randint(0, 2)):
        pairs += [(f"z{k}", v) for v in rng.sample(sorted(f for f in faces if len(f) == 1), 2)]
    elements = {x for pair in pairs for x in pair} | faces
    return Poset.from_covers(elements, pairs if rng.random() < 0.5 else [(g, f) for f, g in pairs])


def random_check_posets(count, seed=0):
    """Random ranked posets, random orders on up to 14 elements and random face posets, in turn."""
    rng = random.Random(seed)
    for k in range(count):
        if k % 3 == 0:
            yield random_ranked_poset(rng, rng.choice([8, 12, 20]))
        elif k % 3 == 1:
            labels = [f"e{i}" for i in range(rng.randint(1, 14))]
            p = rng.choice([0.15, 0.3, 0.5])
            yield Poset.from_covers(labels, [(a, b) for a, b in combinations(labels, 2) if rng.random() < p])
        else:
            yield random_face_poset(rng)


def test_one_pass_type_c_matches_the_star_by_star_check():
    checked, failing, conditions = 0, 0, Counter()
    for P in random_check_posets(3000):  # 1,000 of each kind
        for Q in (P, with_bounds(P)):
            want = check_type_C_star_by_star(Q)
            assert check_type_C(Q).to_json() == want.to_json(), Q.to_json()
            # both lemmas are equivalences, so the mask holds the failing elements and no other
            assert {Q.elements[i] for i in _bits(_failing_stars(Q))} == {f.vertex for f in want.failures}
            checked += 1
            failing += not want.passed
            conditions.update(f.condition for f in want.failures)
    assert failing >= checked // 8, (checked, failing)
    assert min(conditions[c] for c in ("lattice", "flag_up", "flag_down")) >= 20, conditions


def test_one_pass_type_c_matches_the_star_by_star_check_on_cube_face_posets():
    for name, cubes in cube_corpus().items():
        P = CubeComplex(cubes).face_poset()[0]
        assert check_type_C(P).to_json() == check_type_C_star_by_star(P).to_json(), name


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


def orthoscheme_grid(d, k):
    """The grid {0..k}^d cut into orthoschemes, with phi adding 1 to every coordinate where it can."""
    label = lambda v: ",".join(map(str, v))
    chambers = []
    for v in product(range(k), repeat=d):
        for axes in permutations(range(d)):
            w = list(v)
            chain = [label(w)]
            for i in axes:
                w[i] += 1
                chain.append(label(w))
            chambers.append(chain)
    phi = {label(v): label([c + 1 for c in v]) for v in product(range(k), repeat=d)}
    return OrderedComplex("C", [label(v) for v in product(range(k + 1), repeat=d)], chambers), phi


def quotient_by_all_chains(X, phi):
    """The quotient as the image of every chain x0 < ... < phi(x0), maximal or not, listed by recursion."""
    P = Poset.from_covers(X.vertices, {pair for s in X.maximal_simplices for pair in combinations(s, 2)})
    orbit = {v: v for v in X.vertices}  # the least label of each orbit, spread until nothing changes
    changed = True
    while changed:
        changed = False
        for x, y in phi.items():
            least = min(orbit[x], orbit[y], key=str)
            changed |= (orbit[x], orbit[y]) != (least, least)
            orbit[x] = orbit[y] = least
    simplices = []

    def chains(prefix, candidates):
        simplices.append(tuple(orbit[v] for v in prefix))
        for i, y in enumerate(candidates):
            if P.lt(prefix[-1], y):
                chains(prefix + [y], candidates[i + 1:])

    for x0 in sorted(phi, key=str):
        inside = P.up_set(x0) & P.strictly_below(phi[x0])
        chains([x0], sorted(inside - {x0}, key=lambda y: (P.height(y), str(y))))
    return OrderedComplex("A", sorted(set(orbit.values()), key=str), [canonical_rotation(s) for s in simplices])


def column_failures_by_labels(X, phi):
    """The column clause over the label faces of every chamber, each tested with has_simplex."""
    failures, seen = [], set()
    for s in X.maximal_simplices:
        for r in range(1, len(s) + 1):
            for f in combinations(s, r):
                if frozenset(f) in seen:
                    continue
                seen.add(frozenset(f))
                if f[0] in phi and not X.has_simplex(set(f) | {phi[f[0]]}):
                    failures.append(Failure(f[0], "column", f + (phi[f[0]],)).to_json())
    return failures


def column_shifts(X, most):
    """Each map x -> the k-th vertex after x, for 1 <= k <= most, on a column, whose vertices form one chain."""
    P = Poset.from_covers(X.vertices, {pair for s in X.maximal_simplices for pair in zip(s, s[1:])})
    order = sorted(X.vertices, key=P.height)
    return [dict(zip(order, order[k:])) for k in range(1, most + 1)]


def grid_translations(X, d):
    """Each map x -> x + e on an orthoscheme grid, for e in {0, 1, 2}^d other than 0, where it is defined."""
    add = lambda x, e: ",".join(str(int(c) + a) for c, a in zip(x.split(","), e))
    inside = set(X.vertices)
    return [{x: add(x, e) for x in X.vertices if add(x, e) in inside} for e in product(range(3), repeat=d) if any(e)]


def test_column_clause_matches_the_label_reference():
    rng = random.Random(5)
    cases = [(X, phi) for n in (1, 2, 3) for X in [column_complex(n, 2)] for phi in column_shifts(X, n + 3)]
    cases += [(X, phi) for d in (2, 3) for X in [orthoscheme_grid(d, 3)[0]] for phi in grid_translations(X, d)]
    cases += [(X, dict(rng.sample(sorted(phi.items()), len(phi) // 2))) for X, phi in cases]
    failing = 0
    for X, phi in cases:
        want = column_failures_by_labels(X, phi)
        got = [f for f in check_garside(X, phi).to_json()["failures"] if f["condition"] == "column"]
        assert got == want, phi
        failing += bool(want)
    assert failing >= len(cases) // 3, (failing, len(cases))


@pytest.mark.parametrize("d", [2, 3])
def test_quotient_of_orthoscheme_grid_matches_all_chains(d):
    X, phi = orthoscheme_grid(d, 3)
    Y = garside_quotient(X, phi)
    assert Y.to_json() == quotient_by_all_chains(X, phi).to_json()
    # each [v, v + 1] is a Boolean lattice, so [v, v + 1) has d! maximal chains of d elements
    assert len(Y.maximal_simplices) >= 2 and {len(s) for s in Y.maximal_simplices} == {d}
