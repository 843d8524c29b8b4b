"""Input generation for the benchmark workloads.

Each ``setup_<part>(seed, workdir, call)`` builds one part's inputs from the
seed, writes every input file under ``workdir`` and returns the list of
operations one round runs; a workload is two parts.  ``call(name, fn, *args)``
wraps every generator call, so the traced run can time the generators; the timed run
passes a plain call.  The program only ever sees the written inputs.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from cublink import cubes, generators, groupdev, tightspan
from cublink.complexes import order_complex
from cublink.errors import NotAMetric


@dataclass
class Op:
    """One operation: a CLI command on an input file, or one mesh query."""

    name: str
    check: str                      # key into checks.CHECKS
    payload: object                 # the input JSON, or the query for a mesh op
    argv: tuple = ()                # CLI arguments before the input path
    expect: dict = field(default_factory=dict)
    chambers: int = 0               # maximal simplices the op checks
    path: str = ""                  # the input file (for a mesh op, its complex)
    part: str = ""                  # the part of the workload it belongs to


def direct(name, fn, *args):
    return fn(*args)


def _write(workdir, ops, extra=()):
    os.makedirs(workdir, exist_ok=True)
    for k, op in enumerate(ops):
        if op.argv:
            op.path = os.path.join(workdir, f"op{k:04d}.json")
            with open(op.path, "w") as fh:
                json.dump(op.payload, fh)
    for name, payload in extra:
        with open(os.path.join(workdir, name), "w") as fh:
            json.dump(payload, fh)
    return ops


# -- seeded relabelling: isomorphic inputs with fresh labels and list orders ---------


def _relabeling(labels, rng, prefix):
    slots = list(range(len(labels)))
    rng.shuffle(slots)
    return {lab: f"{prefix}{k}" for lab, k in zip(sorted(labels), slots)}


def relabel_poset(data, rng, prefix="e"):
    m = _relabeling(data["elements"], rng, prefix)
    elements = [m[x] for x in data["elements"]]
    covers = [[m[a], m[b]] for a, b in data["covers"]]
    rng.shuffle(elements)
    rng.shuffle(covers)
    return {"elements": elements, "covers": covers}


def relabel_complex(data, rng, prefix="v"):
    """Relabel a complex; a type-A simplex is also rotated, which keeps its cyclic order."""
    m = _relabeling(data["vertices"], rng, prefix)
    sims = []
    for s in data["maximal_simplices"]:
        s = [m[v] for v in s]
        if data["type"] == "A":
            k = rng.randrange(len(s))
            s = s[k:] + s[:k]
        sims.append(s)
    vertices = [m[v] for v in data["vertices"]]
    rng.shuffle(vertices)
    rng.shuffle(sims)
    return {"type": data["type"], "vertices": vertices, "maximal_simplices": sims}, m


# -- link_lattices ------------------------------------------------------------------

# (name, generator, arguments, number of maximal chains from the closed formula)
LATTICES = (
    ("boolean_6", "boolean_poset", (6,), 720),                 # 6!
    ("noncrossing_6", "noncrossing_partitions", (6,), 1296),   # 6^(6-2)
    ("partition_5", "partition_lattice", (5,), 180),           # 5! 4! / 2^4
    ("subspace_2_4", "subspace_poset", (2, 4), 315),           # [4]_2! = 1*3*7*15
)
PATCHES = (("patch_4_2", (4, 2)), ("patch_3_3", (3, 3)))
COLUMN = (3, 3)


def setup_link_lattices(seed, workdir, call=direct):
    rng = random.Random(seed)
    ops = []
    for name, gen, params, chains in LATTICES:
        P = call(f"generators.{gen}", getattr(generators, gen), *params)
        data = relabel_poset(P.to_json(), rng)
        ops.append(Op(name, "certified", data, ("check", "--type", "C"),
                      {"chambers": chains}, chambers=chains))
    for name, params in PATCHES:
        X = call("generators.affine_A_patch", generators.affine_A_patch, *params)
        data, _ = relabel_complex(X.to_json(), rng)
        ops.append(Op(name, "certified", data, ("check", "--type", "A"),
                      chambers=len(data["maximal_simplices"])))
    X = call("generators.column_complex", generators.column_complex, *COLUMN)
    shift = call("generators.column_shift", generators.column_shift, *COLUMN)
    data, m = relabel_complex(X.to_json(), rng)
    phi = {m[a]: m[b] for a, b in shift.items()}
    phi_path = os.path.join(workdir, "phi.json")
    ops.append(Op("column_3_3", "certified", data,
                  ("check", "--type", "garside", "--phi", phi_path),
                  {"phi": phi}, chambers=len(data["maximal_simplices"])))
    return _write(workdir, ops, [("phi.json", phi)])


# -- link_corpus --------------------------------------------------------------------

SMALL_LATTICES = (
    ("boolean_2", "boolean_poset", (2,)),
    ("boolean_3", "boolean_poset", (3,)),
    ("boolean_4", "boolean_poset", (4,)),
    ("noncrossing_4", "noncrossing_partitions", (4,)),
    ("noncrossing_5", "noncrossing_partitions", (5,)),
    ("partition_3", "partition_lattice", (3,)),
    ("partition_4", "partition_lattice", (4,)),
    ("subspace_2_2", "subspace_poset", (2, 2)),
    ("subspace_2_3", "subspace_poset", (2, 3)),
    ("subspace_3_2", "subspace_poset", (3, 2)),
)
RANDOM_SQUARE_COMPLEXES = 8
RANDOM_CUBE_COMPLEXES = 8

# acceptance criterion 3: the bowtie star fails at x with this bowtie
BOWTIE_STAR = {
    "type": "A",
    "vertices": ["x", "a", "a'", "b", "b'"],
    "maximal_simplices": [["x", "a", "b"], ["x", "a", "b'"], ["x", "a'", "b"], ["x", "a'", "b'"]],
}
GROUPDEV = (  # acceptance criterion 7: the condition each example violates, or None
    ("s4_simplex", None),
    ("intersection_violation", "intersection"),
    ("product_violation", "product"),
    ("factorization_violation", "factorization"),
)
# inputs the CLI must reject with exit code 2 and a JSON error object
MALFORMED = (
    ("float_distance", ("tightspan", "--dress", "1"),
     {"points": ["a", "b"], "dist": [[0, 1.5], [1.5, 0]]}),
    ("list_label", ("check", "--type", "C"),
     {"type": "C", "vertices": [["a"], "b"], "maximal_simplices": [[["a"], "b"]]}),
)


def _grid_cell(origin, axes):
    """A grid cube with its corners in the bitmask order CubeComplex expects."""
    corners = []
    for mask in range(1 << len(axes)):
        p = list(origin)
        for bit, axis in enumerate(axes):
            if mask >> bit & 1:
                p[axis] += 1
        corners.append("g" + "_".join(map(str, p)))
    return corners


def random_square_complex(rng):
    """Four of the nine unit squares of a 3x3 grid, sometimes with a doubled square."""
    cells = [_grid_cell((i, j), (0, 1)) for i in range(3) for j in range(3)]
    chosen = rng.sample(cells, 4)
    if rng.random() < 0.5:  # a second square on two consecutive edges of the first
        a = chosen[0]
        chosen.append([a[0], a[1], a[2], "d" + a[3]])
    return chosen


def random_cube_complex(rng):
    """Three of the eight unit cubes of a 2x2x2 block, plus two unit squares of the block."""
    cells = [_grid_cell((i, j, k), (0, 1, 2)) for i in range(2) for j in range(2) for k in range(2)]
    squares = [_grid_cell(tuple(o), axes)
               for axes in combinations(range(3), 2)
               for o in ((i, j, k) for i in range(3) for j in range(3) for k in range(3))
               if all(o[a] < 2 for a in axes)]
    return rng.sample(cells, 3) + rng.sample(squares, 2)


def setup_link_corpus(seed, workdir, call=direct):
    rng = random.Random(seed)
    ops = []
    for name, cells in call("cubes.cube_corpus", cubes.cube_corpus).items():
        expect = {}
        if name == "three_squares_corner":  # acceptance criterion 3
            expect = {"vertex": "v", "condition": "flag_up", "witness": ["v+x", "v+y", "v+z"]}
        ops.append(Op(f"cubes:{name}", "cubes", {"cubes": [list(c) for c in cells]},
                      ("check", "--type", "C"), expect))
    for k in range(RANDOM_SQUARE_COMPLEXES):
        cells = random_square_complex(rng)
        ops.append(Op(f"cubes:random_squares_{k}", "cubes", {"cubes": cells}, ("check", "--type", "C")))
    for k in range(RANDOM_CUBE_COMPLEXES):
        cells = random_cube_complex(rng)
        ops.append(Op(f"cubes:random_cubes_{k}", "cubes", {"cubes": cells}, ("check", "--type", "C")))
    for name, gen, params in SMALL_LATTICES:
        P = call(f"generators.{gen}", getattr(generators, gen), *params)
        ops.append(Op(f"lattice:{name}", "certified", relabel_poset(P.to_json(), rng),
                      ("check", "--type", "C")))
    ops.append(Op("bowtie_star", "witness", BOWTIE_STAR, ("check", "--type", "A"),
                  {"vertex": "x", "condition": "lattice",
                   "witness": {"a": "a", "b": "a'", "c": "b", "d": "b'"}}))
    for name, violated in GROUPDEV:
        S = call(f"groupdev.{name}", getattr(groupdev, name))
        ops.append(Op(f"groupdev:{name}", "groupdev", S.to_json(), ("groupdev",),
                      {"violated": violated}))
    for name, argv, payload in MALFORMED:
        ops.append(Op(f"malformed:{name}", "rejected", payload, argv))
    return _write(workdir, ops)


# -- hull ---------------------------------------------------------------------------

# metrics per round by kind and point count.  Sorted by time, the 4-point hulls take
# ranks 1-30, the 5-point ones 31-85, the 6-point ones 86-99 (tree metrics first) and
# the 7-point one 100, so the median and the 90th percentile fall inside a group.
HULL_MIX = (
    ("tree", 4, 8), ("rectangle", 4, 10), ("random", 4, 12),
    ("tree", 5, 22), ("random", 5, 33),
    ("tree", 6, 2), ("random", 6, 12),
    ("random", 7, 1),
)
# The hull of a 6- or 7-point metric costs 0.2 s to 6 s depending on the metric, and
# a round holds only a few of them.  So they come from one fixed pool, and the seed
# only reorders their points; the many small metrics are drawn from the seed.
POOLED_POINTS = 6
POOL_SEED = 2025


def _permute_points(data, rng):
    order = list(range(len(data["points"])))
    rng.shuffle(order)
    return {"points": [data["points"][i] for i in order],
            "dist": [[data["dist"][i][j] for j in order] for i in order]}


def _rectangle(rng, call):
    while True:  # the same draw as metric_corpus; some draws break the triangle inequality
        u, v = rng.randint(1, 4), rng.randint(1, 4)
        w1 = rng.randint(1, 4)
        w2 = rng.randint(w1, w1 + min(u, v))
        try:
            return call("tightspan.rectangle_metric", tightspan.rectangle_metric, u, v, w1, w2)
        except NotAMetric:
            continue


def setup_hull(seed, workdir, call=direct):
    rng, pool = random.Random(seed), random.Random(POOL_SEED)
    ops = []
    for kind, size, count in HULL_MIX:
        source = pool if size >= POOLED_POINTS else rng
        for k in range(count):
            if kind == "tree":
                M = call("tightspan.tree_metric", tightspan.tree_metric, source, size)
            elif kind == "rectangle":
                M = _rectangle(source, call)
            else:
                M = call("tightspan.random_metric", tightspan.random_metric, source, size)
            data = _permute_points(M.to_json(), rng) if source is pool else M.to_json()
            dress = 1 + len(ops) % 2
            ops.append(Op(f"{kind}_{size}_{k}", "hull", data,
                          ("tightspan", "--dress", str(dress)), {"tree": kind == "tree"}))
    return _write(workdir, ops)


# -- mesh ---------------------------------------------------------------------------

PATCH_MESH = "1/8"
BOOLEAN_MESH = "1/4"
PATCH_VERTEX_PAIRS = 40  # of the 171, so that a round of the geometry workload stays short
OFF_MESH_POINTS = 3


def setup_mesh(seed, workdir, call=direct):
    """Queries on one approximator of affine_A_patch(2, 3), then on one of B(3).

    The first query builds the graph.  Then PATCH_VERTEX_PAIRS pairs of
    vertices of affine_A_patch(2, 2) drawn from the seed, then off-mesh
    points inside seeded chambers (two paired with a vertex of their own
    chamber, one with a far vertex), then every pair of elements of the
    Boolean lattice B(3).
    """
    rng = random.Random(seed)
    patch = call("generators.affine_A_patch", generators.affine_A_patch, 2, 3).to_json()
    inner = call("generators.affine_A_patch", generators.affine_A_patch, 2, 2).vertices
    B3 = call("generators.boolean_poset", generators.boolean_poset, 3)
    boolean = call("complexes.order_complex", order_complex, B3).to_json()
    pairs = rng.sample(list(combinations(inner, 2)), 1 + PATCH_VERTEX_PAIRS)
    queries = [("patch", "first" if k == 0 else "vertex", a, b) for k, (a, b) in enumerate(pairs)]
    for k in range(OFF_MESH_POINTS):
        chamber = rng.choice(patch["maximal_simplices"])
        weights = [rng.randint(1, 6) for _ in chamber]
        point = {v: str(Fraction(w, sum(weights))) for v, w in zip(chamber, weights)}
        target = chamber[k % len(chamber)] if k < OFF_MESH_POINTS - 1 else rng.choice(inner)
        queries.append(("patch", "offmesh", point, target))
    for k, (a, b) in enumerate(combinations(boolean["vertices"], 2)):
        queries.append(("boolean", "first" if k == 0 else "vertex", a, b))
    complexes = {"patch": patch, "boolean": boolean}
    meshes = {"patch": PATCH_MESH, "boolean": BOOLEAN_MESH}
    ops = [Op(f"{c}:{kind}:{k}", "mesh",
              {"complex": c, "mesh": meshes[c], "kind": kind, "p": p, "q": q},
              expect={"chambers": complexes[c]["maximal_simplices"]},
              path=os.path.join(workdir, f"{c}.json"))
           for k, (c, kind, p, q) in enumerate(queries)]
    return _write(workdir, ops, [(f"{c}.json", data) for c, data in complexes.items()])


def query_points(query):
    """The two points of a mesh query in the form MeshApproximator.distance takes."""
    return [p if isinstance(p, str) else {v: Fraction(w) for v, w in p.items()}
            for p in (query["p"], query["q"])]


def _combined(**parts):
    def setup(seed, workdir, call=direct):
        ops = []
        for part, setup_part in parts.items():
            for op in setup_part(seed, os.path.join(workdir, part), call):
                op.part = part
                ops.append(op)
        return ops
    return setup


# Two workloads, each run long enough to hold several rounds: see README.md.
SETUPS = {
    "links": _combined(lattices=setup_link_lattices, corpus=setup_link_corpus),
    "geometry": _combined(hull=setup_hull, mesh=setup_mesh),
}
