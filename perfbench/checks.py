"""Output checks, each against a separate computation or a property the method must have.

A check takes the operation, its exit code and its stdout (for a mesh query,
the distance as a string) and returns None when the output is right, or a
one-line reason when it is not.  No check compares against a stored copy
of earlier output.
"""

from __future__ import annotations

import json
from fractions import Fraction

from cublink.complexes import order_complex
from cublink.cubes import gromov_link_condition
from cublink.poset import poset_from_json
from cublink.tightspan import FiniteMetric, dress_dimension_test

CERTIFICATES = {
    "A": "locally_CUB_certified",
    "C": "locally_CUB_and_locally_injective_certified",
    "garside": "garside_conditions_certified",
}


def _verdict(code, text):
    try:
        out = json.loads(text)
    except json.JSONDecodeError:
        return None, "stdout is not JSON"
    if not isinstance(out, dict) or not {"pass", "failures"} <= out.keys():
        return None, "stdout is not a verdict"
    if code != (0 if out["pass"] is True else 1):
        return None, f"exit code {code} does not match pass={out['pass']}"
    return out, None


def check_certified(op, code, text):
    """Bounded lattices, flat patches and orthoscheme columns satisfy their link conditions."""
    out, why = _verdict(code, text)
    if why:
        return why
    if out["pass"] is not True or out["failures"]:
        return "a bounded lattice, flat patch or column must pass"
    if out.get("certificate") != CERTIFICATES[op.argv[2]]:
        return f"wrong certificate {out.get('certificate')!r}"
    if "chambers" in op.expect:  # the closed formula for the number of maximal chains
        if "built" not in op.expect:  # the chambers of the complex the program builds
            op.expect["built"] = len(order_complex(poset_from_json(op.payload)).maximal_simplices)
        if op.expect["built"] != op.expect["chambers"]:
            return f"{op.expect['built']} chambers, but the closed formula gives {op.expect['chambers']}"
    return None


def check_cubes(op, code, text):
    """The subdivision verdict equals the direct vertex-link test on the cube complex."""
    out, why = _verdict(code, text)
    if why:
        return why
    if "oracle" not in op.expect:
        op.expect["oracle"] = gromov_link_condition([tuple(c) for c in op.payload["cubes"]])
    if out["pass"] != op.expect["oracle"]:
        return f"verdict {out['pass']} but the vertex-link test says {op.expect['oracle']}"
    if out["pass"] == bool(out["failures"]):
        return "failures must be listed exactly when the check fails"
    if "witness" in op.expect:
        return _same_witness(op, out)
    return None


def _same_witness(op, out):
    if not out["failures"]:
        return "missing witness"
    first = out["failures"][0]
    want = op.expect["witness"]
    got = first.get("witness")
    if isinstance(want, list):  # a flag triple: order is not part of the witness
        got = sorted(got) if isinstance(got, list) else got
        want = sorted(want)
    if (first.get("vertex"), first.get("condition"), got) != (
        op.expect["vertex"], op.expect["condition"], want
    ):
        return f"first failure {first} is not the expected witness"
    return None


def check_witness(op, code, text):
    """A known failing complex fails with its exact first witness."""
    out, why = _verdict(code, text)
    if why:
        return why
    if out["pass"] is not False:
        return "a known failing complex passed"
    return _same_witness(op, out)


def check_groupdev(op, code, text):
    """s4 meets all three conditions with passing developments; each violation names its condition."""
    try:
        out = json.loads(text)
        holds = out["conditions"]["holds"]
        developments = out["developments"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return "stdout is not a groupdev report"
    violated = op.expect["violated"]
    if violated is None:
        if code != 0 or holds is not True:
            return "s4 must satisfy the conditions"
        if sorted(developments) != [str(i) for i in range(op.payload["n"])]:
            return "one development per vertex is required"
        if not all(v["pass"] is True for v in developments.values()):
            return "every local development of s4 must pass"
        return None
    witness = out["conditions"].get("witness") or [{}]
    if code != 1 or holds is not False:
        return f"the {violated} example must fail"
    if witness[0].get("condition") != violated or not witness[0].get("detail"):
        return f"first witness {witness[0]} does not name {violated}"
    return None


def check_rejected(op, code, text):
    """Malformed input exits 2 with a JSON error object."""
    if code != 2:
        return f"malformed input gave exit code {code}"
    try:
        out = json.loads(text)
    except json.JSONDecodeError:
        return "malformed input did not give a JSON error"
    if not isinstance(out, dict) or "error" not in out:
        return "malformed input did not give an error object"
    return None


def check_hull(op, code, text):
    """Hull properties: Dress's criterion, Kuratowski rows, tightness, and trees of dimension <= 1."""
    if code != 0:
        return f"exit code {code}"
    try:
        out = json.loads(text)
        dim = out["dimension"]
        vertices = [tuple(Fraction(x) for x in v) for v in out["vertices"]]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, ZeroDivisionError):
        return "stdout is not a hull"
    points = op.payload["points"]
    d = [[Fraction(x) for x in row] for row in op.payload["dist"]]
    n = len(points)
    if out.get("points") != points:
        return "points differ from the input"
    dress_n = int(op.argv[2])
    if out.get("dress_n") != dress_n or out.get("dress") != (dim <= dress_n):
        return f"dimension {dim} disagrees with the matching criterion at n={dress_n}"
    if "other_dress" not in op.expect:  # the n the command was not asked for
        M = FiniteMetric.from_json(op.payload)
        op.expect["other_dress"] = dress_dimension_test(M, 3 - dress_n)
    if op.expect["other_dress"] != (dim <= 3 - dress_n):
        return f"dimension {dim} disagrees with the matching criterion at n={3 - dress_n}"
    have = set(vertices)
    for i in range(n):
        if tuple(d[i]) not in have:
            return f"Kuratowski row of {points[i]} is not a hull vertex"
    for f in vertices:
        if len(f) != n:
            return "vertex length differs from the point count"
        for i in range(n):
            if f[i] != max(d[i][j] - f[j] for j in range(n)):
                return f"vertex {[str(x) for x in f]} is not tight at {points[i]}"
    if op.expect.get("tree") and dim > 1:
        return f"a tree metric has hull dimension {dim}"
    return None


# -- mesh distances -------------------------------------------------------------------


def _point(p):
    return {p: Fraction(1)} if isinstance(p, str) else {v: Fraction(w) for v, w in p.items()}


def _patch_coords(label):
    v = [Fraction(x) for x in label.split(",")]
    mean = sum(v, Fraction(0)) / len(v)
    return [x - mean for x in v]


def _boolean_coords(label):
    members = {int(x) for x in label.strip("{}").split(",") if x}
    return [Fraction(int(i in members)) for i in (1, 2, 3)]


def _flat(point, coords):
    total = None
    for v, w in _point(point).items():
        c = [w * x for x in coords(v)]
        total = c if total is None else [a + b for a, b in zip(total, c)]
    return total


def exact_flat_distance(complex_name, p, q):
    """The flat distance: polyhedral norm on the type-A plane, sup norm in the unit cube of B(3)."""
    coords = _patch_coords if complex_name == "patch" else _boolean_coords
    diff = [a - b for a, b in zip(_flat(p, coords), _flat(q, coords))]
    if complex_name == "patch":
        return max(diff) - min(diff)
    return max(abs(x) for x in diff)


def check_mesh(op, code, text):
    """Graph distance >= flat distance, within 5% on vertex pairs, and exact inside one chamber."""
    try:
        got = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return f"distance {text!r} is not a rational"
    q = op.payload
    exact = exact_flat_distance(q["complex"], q["p"], q["q"])
    if got < exact:
        return f"distance {got} is below the flat distance {exact}"
    if isinstance(q["p"], str) and isinstance(q["q"], str) and got - exact > Fraction(5, 100) * exact:
        return f"distance {got} is more than 5% above the flat distance {exact}"
    support = set(_point(q["p"])) | set(_point(q["q"]))
    if any(support <= set(c) for c in op.expect["chambers"]) and got != exact:
        return f"distance {got} inside one chamber differs from the exact {exact}"
    return None


CHECKS = {
    "certified": check_certified,
    "cubes": check_cubes,
    "witness": check_witness,
    "groupdev": check_groupdev,
    "rejected": check_rejected,
    "hull": check_hull,
    "mesh": check_mesh,
}
