"""The traced run's spans: wrappers around the program's own functions.

``instrumented(tracer)`` replaces, for the duration of a ``with`` block, the
module-level names and class attributes through which ``cublink.cli`` and
``cublink.linkcheck`` reach the layers (``WRAPPED``), with wrappers that
record one in-memory span per call: name ``<module>.<function>``, start,
end and parent.  The traced run then calls ``cli.main`` itself, so the spans
follow whatever call sequence the program has, and no copy of its control
flow is kept here.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from cublink import cli, linkcheck
from cublink.complexes import OrderedComplex
from cublink.groupdev import ConditionsReport, SimplexOfGroups
from cublink.metric import MeshApproximator
from cublink.poset import Poset
from cublink.tightspan import FiniteMetric, TightSpan


class Tracer:
    """In-memory spans (id, name, parent, start, end, attrs) and work counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []

    @contextmanager
    def span(self, name, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": perf_counter(), "end": None}
        if attrs:
            record["attrs"] = attrs
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)

    def is_open(self, name):
        return any(self.spans[i]["name"] == name for i in self._open)


# -- what is wrapped ------------------------------------------------------------------

# A note, called after a wrapped call returns, takes the counters, the call's span,
# its arguments and its result.


def _note_complex(counts, span, args, result):
    X = args[0]  # OrderedComplex.__init__(self, ...)
    counts["complexes.vertices"] += len(X.vertices)
    counts["complexes.chambers"] += len(X.maximal_simplices)


def _note_star(counts, span, args, result):
    counts["complexes.star_elements"] += len(result.poset)


def _note_hull(counts, span, args, result):
    counts["tightspan.hull_vertices"] += len(result.vertices)
    counts["tightspan.hull_faces"] += len(result.faces)
    span["attrs"] = {"points": len(args[0])}


def _note_query(counts, span, args, result):
    counts["metric.queries"] += 1


# (owner, attribute, span name, note or None).  The owner is where the program
# looks the name up: cli and linkcheck import their layers' functions by name.
WRAPPED = (
    (cli, "_read_input", "cli.read_input", None),
    (cli, "_emit", "cli.emit", None),
    (cli, "poset_from_json", "poset.poset_from_json", None),
    (cli, "barycentric_cube_subdivision", "cubes.barycentric_cube_subdivision", None),
    (cli, "check_type_A", "linkcheck.check_type_A", None),
    (cli, "check_type_C", "linkcheck.check_type_C", None),
    (cli, "check_garside", "linkcheck.check_garside", None),
    (cli, "check_conditions", "groupdev.check_conditions", None),
    (cli, "local_development", "groupdev.local_development", None),
    (cli, "tight_span", "tightspan.tight_span", _note_hull),
    (cli, "dress_dimension_test", "tightspan.dress_dimension_test", None),
    (linkcheck, "validate", "complexes.validate", None),
    (linkcheck, "is_local_poset", "complexes.is_local_poset", None),
    (linkcheck, "star_poset", "complexes.star_poset", _note_star),
    (linkcheck, "find_bowtie", "poset.find_bowtie", None),
    (linkcheck, "flag_condition", "poset.flag_condition", None),
    (OrderedComplex, "__init__", "complexes.OrderedComplex", _note_complex),
    (Poset, "maximal_chains", "poset.Poset.maximal_chains", None),
    (Poset, "restrict", "poset.Poset.restrict", None),
    (SimplexOfGroups, "from_json", "groupdev.SimplexOfGroups.from_json", None),
    (FiniteMetric, "from_json", "tightspan.FiniteMetric.from_json", None),
    (linkcheck.Verdict, "to_json", "linkcheck.Verdict.to_json", None),
    (ConditionsReport, "to_json", "groupdev.ConditionsReport.to_json", None),
    (TightSpan, "to_json", "tightspan.TightSpan.to_json", None),
    (MeshApproximator, "__init__", "metric.MeshApproximator", None),
    (MeshApproximator, "distance", "metric.MeshApproximator.distance", _note_query),
)


def _wrapper(tr, fn, name, note):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tr.is_open(name):  # a recursive call stays inside the outer span
            return fn(*args, **kwargs)
        with tr.span(name) as span:
            result = fn(*args, **kwargs)
        if note is not None:
            note(tr.counts, span, args, result)
        return result
    return wrapper


@contextmanager
def instrumented(tr):
    """Every name in WRAPPED records spans into ``tr`` until the block ends."""
    saved = []
    try:
        for owner, attr, name, note in WRAPPED:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(_wrapper(tr, raw.__func__, name, note))
            else:
                new = _wrapper(tr, raw, name, note)
            saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        yield tr
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# -- per-layer metrics from the spans -----------------------------------------------------

# per-layer metric -> the span names whose durations it totals
LAYER_SPANS = {
    "complexes.validate_s": ("complexes.validate",),
    "complexes.is_local_poset_s": ("complexes.is_local_poset",),
    "complexes.star_poset_s": ("complexes.star_poset",),
    "poset.find_bowtie_s": ("poset.find_bowtie",),
    "poset.flag_condition_s": ("poset.flag_condition",),
    "linkcheck.check_garside_s": ("linkcheck.check_garside",),
    "complexes.build_s": ("complexes.OrderedComplex",),
    "poset.from_json_s": ("poset.poset_from_json",),
    "poset.maximal_chains_s": ("poset.Poset.maximal_chains",),
    "cli.io_s": ("cli.read_input", "cli.emit", "linkcheck.Verdict.to_json",
                 "groupdev.ConditionsReport.to_json", "tightspan.TightSpan.to_json"),
    "cubes.subdivide_s": ("cubes.barycentric_cube_subdivision",),
    "groupdev.from_json_s": ("groupdev.SimplexOfGroups.from_json",),
    "groupdev.conditions_s": ("groupdev.check_conditions",),
    "groupdev.development_s": ("groupdev.local_development",),
    "tightspan.metric_init_s": ("tightspan.FiniteMetric.from_json",),
    "tightspan.dress_s": ("tightspan.dress_dimension_test",),
    "metric.approximator_init_s": ("metric.MeshApproximator",),
}
COUNTS = (
    "complexes.vertices",
    "complexes.chambers",
    "complexes.star_elements",
    "tightspan.hull_vertices",
    "tightspan.hull_faces",
    "metric.queries",
)


def layer_metrics(tr):
    """Every per-layer metric; a layer the workload never calls reads 0.

    The traced run's ``op`` spans carry the kind of a mesh query (first,
    vertex or offmesh); the generators' spans are children of ``setup``.
    """
    total = Counter()
    restrict, hull, hull7, generators = 0.0, 0.0, 0.0, 0.0
    queries = {"first": [], "vertex": [], "offmesh": []}
    for s in tr.spans:
        took = s["end"] - s["start"]
        total[s["name"]] += took
        parent = tr.spans[s["parent"]] if s["parent"] is not None else {}
        if parent.get("name") == "setup":
            generators += took
        elif s["name"] == "poset.Poset.restrict" and parent.get("name") == "linkcheck.check_type_C":
            restrict += took  # the plus and minus parts of the type-C check
        elif s["name"] == "tightspan.tight_span":
            if s["attrs"]["points"] == 7:
                hull7 += took
            else:
                hull += took
        elif s["name"] == "metric.MeshApproximator.distance":
            queries[parent["attrs"]["kind"]].append(took)
    metrics = {m: sum((total[n] for n in names), 0.0) for m, names in LAYER_SPANS.items()}
    metrics.update({
        "poset.restrict_s": restrict,
        "tightspan.hull_s": hull,
        "tightspan.hull_7pt_s": hull7,
        "metric.first_query_s": sum(queries["first"], 0.0),
        "metric.vertex_query_s": statistics.median(queries["vertex"]) if queries["vertex"] else 0.0,
        "metric.offmesh_query_s": statistics.median(queries["offmesh"]) if queries["offmesh"] else 0.0,
        "generators.build_s": generators,
    })
    out = {m: {"value": v, "unit": "s"} for m, v in metrics.items()}
    out.update({c: {"value": tr.counts[c], "unit": "count"} for c in COUNTS})
    return out
