"""Command-line entry point: check, generate, dist, tightspan, groupdev, selftest.

All output is JSON on stdout with rational values rendered as strings like
"2/3".  Exit code 0 means pass/success, 1 a mathematical failure verdict
(with its witness in the JSON), and 2 a usage or input error reported as a
machine-readable error object.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import chain

from .complexes import OrderedComplex, order_complex
from .cubes import CubeComplex, barycentric_cube_subdivision  # noqa: F401  (perfbench/spans.py wraps it here)
from .errors import CublinkError, InconsistentOrder, NotFlag, NotLocalPoset, ParameterTooLarge, PreconditionFailed
from .generators import (
    affine_A_patch,
    boolean_poset,
    column_complex,
    column_shift,
    noncrossing_partitions,
    partition_lattice,
    subspace_poset,
)
from .groupdev import SimplexOfGroups, check_conditions, local_development
from .linkcheck import check_garside, check_type_A, check_type_C
from .metric import MeshApproximator, PLPoint, frac, frac_str
from .poset import poset_from_json
from .selftest import run_selftest
from .tightspan import FiniteMetric, dress_dimension_test, tight_span


class UsageError(Exception):
    pass


def _emit(payload, code=0):
    print(json.dumps(payload, indent=2, sort_keys=True))
    return code


def _read_input(path):
    try:
        if path in (None, "-"):
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise UsageError(f"cannot read input: {err}") from err
    except RecursionError:  # the decoder recurses once per level of nesting
        raise ParameterTooLarge("input nests arrays or objects too deeply to read") from None


_LEAVES = {"label": {str, int, float, bool, type(None)}, "integer": {int}}  # the type of True is bool, not int


def _echo(value):
    """The repr of a value a shape error names, cut after 200 characters: an input may be megabytes."""
    text = repr(value)
    return text if len(text) <= 200 else text[:200] + "..."


def _check_shape(value, shape, where="input"):
    """Raise ValueError unless a JSON value has the shape, checked before any structure is built.

    A shape is a dict of the shapes of an object's keys (under "*", of every
    value), a one-item list for an array of that shape (nested arrays are
    checked a level at a time), a name in _LEAVES, or None for anything.  A
    constructor would fail on an array or object label as unhashable; the
    other non-labels are refused by _checked_labels, after any repeated label.
    """
    values = [value]
    while isinstance(shape, list):
        if not {list}.issuperset(map(type, values)):
            bad = next(v for v in values if type(v) is not list)
            raise ValueError(f"{where} holds {_echo(bad)}, which is no array")
        values, shape = list(chain.from_iterable(values)), shape[0]
    if isinstance(shape, dict):
        for v in values:
            if type(v) is not dict:
                raise ValueError(f"{where} holds {_echo(v)}, which is no object")
            for key, item in shape.items():
                if key != "*" and key not in v:
                    raise ValueError(f"{where if v is value else f'an object in {where}'} lacks key {key!r}")
                for k in v if key == "*" else [key]:
                    _check_shape(v[k], item, f"{where}[{k!r}]")
    elif shape is not None and not _LEAVES[shape].issuperset(map(type, values)):
        bad = next(v for v in values if type(v) not in _LEAVES[shape])
        raise ValueError(f"{where} holds {_echo(bad)}, which is no {shape}")


def _checked_labels(labels):
    """Labels are JSON strings or integers: not true or false (equal to 1 and 0), not floats.

    Outputs name labels by their string form, so two labels must not print
    the same (1 and "1"); a label may repeat.
    """
    printed = {}
    for x in labels:
        if isinstance(x, bool) or not isinstance(x, (str, int)):
            raise ValueError(f"labels are strings or integers, not {x!r}")
        if printed.setdefault(str(x), x) != x:
            raise ValueError(f"labels {printed[str(x)]!r} and {x!r} print the same")
    return labels


def _read_structure(data):
    """The complex of a complex input; the poset of a poset input, or the face poset of a cube complex."""
    _check_shape(data, {})
    if "maximal_simplices" in data:
        _check_shape(data, {"type": None, "vertices": ["label"], "maximal_simplices": [["label"]]})
        X = OrderedComplex.from_json(data)
        _checked_labels(X.vertices)  # once built, so a repeated label is reported as such
        return X
    if "covers" in data:
        _check_shape(data, {"elements": ["label"], "covers": [["label"]]})
        P = poset_from_json(data)
        _checked_labels(P.elements)
    elif "cubes" in data:
        _check_shape(data, {"cubes": [["label"]]})
        cubes = [tuple(c) for c in data["cubes"]]
        _checked_labels([x for c in cubes for x in c])  # face_label names each face by a distinct string
        P = CubeComplex(cubes).face_poset()
    else:
        raise UsageError("input is neither a complex, a poset, nor a cube complex")
    return P


def _as_complex(data):
    """The complex of the input: a poset as its order complex, a cube complex subdivided."""
    X = _read_structure(data)
    return X if isinstance(X, OrderedComplex) else order_complex(X)


def cmd_check(args):
    data = _read_input(args.input)
    if args.type == "A":
        X = _read_structure(data)  # a poset or cube input is rejected before its order complex is built
        if not isinstance(X, OrderedComplex) or X.order_type != "A":
            raise UsageError("check --type A needs a cyclically ordered complex")
        verdict = check_type_A(X)
    elif args.type == "C":
        X = _read_structure(data)  # a poset is checked on its own order
        if isinstance(X, OrderedComplex) and X.order_type != "C":
            raise UsageError("check --type C needs a totally ordered complex")
        verdict = check_type_C(X)
    else:
        X = _as_complex(data)
        if args.phi is None:
            raise UsageError("check --type garside needs --phi")
        phi = _read_input(args.phi)
        if not isinstance(phi, dict):
            raise UsageError("--phi must be a JSON object mapping vertices to vertices")
        _check_shape(list(phi.values()), ["label"], "--phi")
        # JSON keys are strings, so each side names a vertex by its printed form (and JSON true never names 1)
        printed = {str(v): v for v in X.vertices}
        phi = {printed.get(x, x): printed.get(str(y), str(y)) for x, y in phi.items()}
        verdict = check_garside(X, phi, assume_simply_connected=args.assume_simply_connected)
    return _emit(verdict.to_json(), 0 if verdict.passed else 1)


def cmd_generate(args):
    if args.family == "boolean":
        payload = boolean_poset(args.n).to_json()
    elif args.family == "noncrossing":
        payload = noncrossing_partitions(args.n).to_json()
    elif args.family == "partition":
        payload = partition_lattice(args.n).to_json()
    elif args.family == "subspace":
        payload = subspace_poset(args.q, args.n).to_json()
    elif args.family == "affine-patch":
        payload = affine_A_patch(args.n, args.radius).to_json()
    elif args.family == "column":
        X = column_complex(args.n, args.depth)
        payload = X.to_json()
        if args.phi_out:
            try:
                with open(args.phi_out, "w") as fh:
                    json.dump(column_shift(args.n, args.depth), fh, indent=2, sort_keys=True)
            except OSError as err:
                raise UsageError(f"cannot write --phi-out: {err}") from err
    else:
        raise UsageError(f"unknown family {args.family!r}")
    return _emit(payload)


def _parse_point(raw, X):
    """A point named on the command line: a vertex, weights keyed by vertices, or a chain of vertices.

    Each vertex may be named by its printed form, so integer labels can be
    named from arguments, JSON strings and JSON keys; _checked_labels made
    those forms unique.
    """
    printed = {str(v): v for v in X.vertices}
    if raw in printed:  # labels win over JSON (a label may look like "{}")
        return printed[raw]
    try:
        spec = json.loads(raw)
    except json.JSONDecodeError:
        spec = raw
    except RecursionError:
        raise ParameterTooLarge("a point nests arrays or objects too deeply to read") from None
    if isinstance(spec, str):
        return printed.get(spec, spec)
    if isinstance(spec, dict) and "weights" in spec:
        _check_shape(spec, {"weights": {}}, "a point")
        return {printed.get(v, v): frac(w) for v, w in spec["weights"].items()}
    if isinstance(spec, dict) and "chain" in spec:
        _check_shape(spec, {"chain": ["label"], "coords": [None]}, "a point")
        chain = [printed.get(x, x) for x in spec["chain"]]
        for x in chain:  # each must name a vertex, even one of weight 0, which to_barycentric drops
            X._index_of(x)
        return PLPoint.from_json({**spec, "chain": chain}).to_barycentric()
    raise UsageError("points are vertex labels, {'weights': ...}, or {'chain': ..., 'coords': ...}")


def cmd_dist(args):
    data = _read_input(args.input)
    X = _as_complex(data)
    mesh = frac(args.mesh)
    p = _parse_point(getattr(args, "from"), X)
    q = _parse_point(args.to, X)
    distance = MeshApproximator(X, mesh).distance(p, q)
    return _emit({"distance": frac_str(distance), "mesh": frac_str(mesh)})


def cmd_tightspan(args):
    data = _read_input(args.input)
    _check_shape(data, {"points": ["label"], "dist": [[None]]})  # frac parses the distances
    M = FiniteMetric.from_json(data)
    _checked_labels(M.points)
    span = tight_span(M)
    payload = span.to_json()
    if args.dress is not None:
        payload["dress"] = dress_dimension_test(M, args.dress)
        payload["dress_n"] = args.dress
    return _emit(payload)


def cmd_groupdev(args):
    if args.example:
        from .groupdev import s4_simplex, trivial_simplex

        S = s4_simplex() if args.example == "s4" else trivial_simplex(4)
    else:
        data = _read_input(args.input)
        _check_shape(data, {"n": "integer", "vertex_groups": [{"degree": "integer", "generators": [["integer"]]}],
                            "face_subgroups": {"*": [["integer"]]}})
        S = SimplexOfGroups.from_json(data)
    report = check_conditions(S)
    payload = {"conditions": report.to_json(), "developments": {}}
    ok = report.passed
    if not args.conditions_only:
        for i in range(S.n):
            verdict = check_type_A(local_development(S, i))
            payload["developments"][str(i)] = verdict.to_json()
            ok = ok and verdict.passed
    return _emit(payload, 0 if ok else 1)


def cmd_selftest(args):
    suites = run_selftest()
    payload = {
        "suites": [s.to_json() for s in suites],
        "pass": all(s.passed for s in suites),
    }
    return _emit(payload, 0 if payload["pass"] else 1)


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(prog="cublink")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run a link-condition check")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--type", required=True, choices=["A", "C", "garside"])
    p.add_argument("--phi")
    p.add_argument("--assume-simply-connected", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("generate", help="emit a canonical poset or complex as JSON")
    p.add_argument(
        "family",
        choices=["boolean", "noncrossing", "partition", "subspace", "affine-patch", "column"],
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--radius", type=int, default=1)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--phi-out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("dist", help="length-metric upper bound between two points")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--from", required=True)
    p.add_argument("--to", dest="to", required=True)
    p.add_argument("--mesh", default="1/8")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("tightspan", help="injective hull of a finite metric")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--dress", type=int)
    p.set_defaults(func=cmd_tightspan)

    p = sub.add_parser("groupdev", help="simplex-of-groups conditions and developments")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--conditions-only", action="store_true")
    p.add_argument("--example", choices=["s4", "trivial"])
    p.set_defaults(func=cmd_groupdev)

    p = sub.add_parser("selftest", help="run the oracle-equivalence suites")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None):
    try:
        code = _run(argv)
        sys.stdout.flush()  # so a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:  # the reader closed stdout early: nothing more can be said there
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


def _precondition_detail(cause):
    """The structured witness a precondition failure carries: faces as sorted labels, a cycle in order."""
    if isinstance(cause, InconsistentOrder):
        return {"face": sorted(map(str, cause.face))}
    if isinstance(cause, NotFlag):
        return {"clique": sorted(map(str, cause.clique))}
    if isinstance(cause, NotLocalPoset):
        return {"vertex": str(cause.vertex), "cycle": [str(v) for v in cause.cycle]}
    return None


def _run(argv):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        if err.code not in (0, None):
            print(json.dumps({"error": "usage", "detail": "invalid arguments"}))
            return 2
        return 0
    try:
        return args.func(args)
    except UsageError as err:
        print(json.dumps({"error": "usage", "detail": str(err)}))
        return 2
    except PreconditionFailed as err:
        failure = {"condition": "precondition", "witness": str(err.cause)}
        detail = _precondition_detail(err.cause)
        if detail:
            failure["detail"] = detail
        return _emit({"pass": False, "certificate": None, "failures": [failure]}, 1)
    except CublinkError as err:
        print(json.dumps({"error": type(err).__name__, "detail": str(err)}))
        return 2
    except (ValueError, KeyError) as err:
        print(json.dumps({"error": "input", "detail": str(err)}))
        return 2
    except BrokenPipeError:
        raise
    except Exception as err:  # a fault in the program, not a mathematical failure
        print(json.dumps({"error": "internal", "detail": f"{type(err).__name__}: {err}"}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
