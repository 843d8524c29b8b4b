"""One reference per public decision, the input families they are compared on, and a campaign runner.

Each reference is the obvious algorithm on labels, sets and frozensets, with
none of cublink's masks, sweeps or private helpers; the link conditions are
checked star by star, with validate first.  Each property draws one input
from a family with a seeded random.Random, runs a public entry point and its
reference on it, and requires the same JSON, or the same error type and
message; it returns tags naming the outcome.  tests/test_oracle.py runs every
property at a small size, and this module runs them at campaign scale:

    PYTHONPATH=src python -m tests.oracle --seed S --cases N

Each property runs N // its divisor cases (at least one), and a seed gives
the same inputs on every run; the runner prints one JSON line per property,
with its outcome counts and mismatches, and exits 1 if any case mismatched.
"""

from __future__ import annotations

import argparse
import heapq
import json
import random
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, count, permutations, product
from math import lcm
from typing import Callable, NamedTuple

from cublink.complexes import OrderedComplex, _star_preds, is_local_poset, order_complex, star_poset, validate
from cublink.cubes import (
    CubeComplex,
    LinkReport,
    barycentric_cube_subdivision,
    cube_corpus,
    cube_link_reports,
)
from cublink.errors import (
    CublinkError,
    CycleDetected,
    Disconnected,
    DuplicateLabel,
    GarsideCheckFailed,
    IncompatibleInclusions,
    InconsistentOrder,
    MalformedCubeComplex,
    NotAMetric,
    NotASubgroup,
    NotAutomorphism,
    NotFlag,
    NotGraded,
    NotLocalPoset,
    PreconditionFailed,
    TooManyPoints,
    UnknownLabel,
)
from cublink.generators import (
    affine_A_patch,
    boolean_poset,
    column_complex,
    noncrossing_partitions,
    partition_lattice,
    random_ranked_poset,
    subspace_poset,
)
from cublink.groupdev import (
    ConditionFailure,
    ConditionsReport,
    SimplexOfGroups,
    check_conditions,
    closure,
    factorization_violation,
    local_development,
    s4_simplex,
    symmetric_group,
)
from cublink.linkcheck import Failure, Verdict, check_garside, check_type_A, check_type_C, garside_quotient
from cublink.metric import (
    MeshApproximator,
    affine_simplex_coords,
    frac,
    frac_str,
    linf_norm,
    orthoscheme_coords,
    polyhedral_norm,
)
from cublink.poset import Bowtie, Poset, find_balanced_bowtie, find_bowtie, flag_condition, with_bounds
from cublink.selftest import metric_corpus
from cublink.tightspan import (
    FiniteMetric,
    HullFace,
    TightSpan,
    dress_dimension_test,
    random_metric,
    rectangle_metric,
    tight_span,
    tree_metric,
)

F = Fraction


# -- comparing outcomes ----------------------------------------------------------------


class Mismatch(AssertionError):
    """An entry point and its reference disagree on one input."""


def outcome(fn, *args):
    """fn(*args) as JSON, or the error it raises as {"error", "message"}, with a precondition's cause."""
    try:
        result = fn(*args)
    except PreconditionFailed as err:
        return {"error": "PreconditionFailed", "message": str(err), "cause": type(err.cause).__name__}
    except (CublinkError, ValueError) as err:
        return {"error": type(err).__name__, "message": str(err)}
    return _as_json(result)


def _as_json(x):
    if hasattr(x, "to_json"):
        return x.to_json()
    if isinstance(x, (tuple, list)):
        return [_as_json(v) for v in x]
    return x


def agree(shown, fn, reference, *args):
    """The common outcome of fn and reference on args; a Mismatch, naming the input by shown(), if they differ."""
    got, want = outcome(fn, *args), outcome(reference, *args)
    if got != want:
        raise Mismatch(json.dumps({"input": shown(), "got": got, "want": want}, default=str))
    return got


def tags(out, found="found"):
    """The tags of an outcome: an error's type or a precondition's cause, a verdict's failures or pass, else found."""
    if isinstance(out, dict) and "error" in out:
        return [out.get("cause", out["error"])]
    if isinstance(out, dict) and "pass" in out:
        return [f["condition"] for f in out["failures"]] or ["pass"]
    return ["none" if out is None else found]


# -- posets: an order is the strictly-below set of each label -----------------------------------


def reference_closure(elements, pairs):
    """Poset.from_covers by its definition: each label's strictly-below set, in label order, or from_covers's error."""
    elements = list(elements)
    seen = set()
    for x in elements:
        if x in seen:
            raise DuplicateLabel(f"duplicate element label {x!r}")
        seen.add(x)
    for key in sorted({str(x) for x in elements}):
        same = [x for x in elements if str(x) == key]
        if len(same) > 1:
            raise DuplicateLabel(f"element labels {same[0]!r} and {same[1]!r} print the same")
    above = {x: set() for x in elements}
    for lo, hi in pairs:
        for x in (lo, hi):
            if x not in above:
                raise UnknownLabel(f"unknown label {x!r} in cover pair")
        if lo == hi:
            raise CycleDetected(f"self-loop on {lo!r}")
        above[lo].add(hi)
    changed = True
    while changed:  # close under transitivity
        changed = False
        for x in elements:
            more = set().union(*(above[y] for y in above[x])) - above[x]
            if more:
                above[x] |= more
                changed = True
    stuck = sorted({y for x in elements if x in above[x] for y in above[x]}, key=str)  # what a cycle reaches
    if stuck:
        raise CycleDetected(f"cover pairs contain a cycle through {stuck[:4]}")
    return {x: frozenset(y for y in elements if x in above[y]) for x in sorted(elements, key=str)}


def hasse(below):
    """The pairs lo < hi with nothing strictly between."""
    return {(lo, hi) for hi in below for lo in below[hi] if not any(lo in below[z] for z in below[hi])}


def poset_json(below):
    return {"elements": [str(x) for x in below], "covers": sorted([str(a), str(b)] for a, b in hasse(below))}


def heights(below):
    """The length of a longest chain ending at each label."""
    h = {}
    for x in sorted(below, key=lambda x: len(below[x])):
        h[x] = max((h[y] + 1 for y in below[x]), default=0)
    return h


def restrict(below, keep):
    return {x: below[x] & keep for x in below if x in keep}


def dual(below):
    return {x: frozenset(y for y in below if x in below[y]) for x in below}


def _incomparable_pairs(below):
    """Incomparable pairs (c, d), c before d in label order, by height sum and labels."""
    h = heights(below)
    pairs = [(c, d) for c, d in combinations(below, 2) if c not in below[d] and d not in below[c]]
    return sorted(pairs, key=lambda p: (h[p[0]] + h[p[1]], str(p[0]), str(p[1])))


def reference_find_bowtie(below):
    """The first incomparable pair with two maximal common lower bounds, under the first two of those."""
    for c, d in _incomparable_pairs(below):
        common = below[c] & below[d]
        maximal = sorted((x for x in common if not any(x in below[y] for y in common)), key=str)
        if len(maximal) >= 2:
            return Bowtie(maximal[0], maximal[1], c, d)
    return None


def reference_is_graded(below):
    """Every two cover paths between the same two elements have equal length."""
    lower = {y: [z for z in below[y] if not any(z in below[w] for w in below[y])] for y in below}
    order = sorted(below, key=lambda y: len(below[y]))
    for x in below:
        lengths = {x: {0}}
        for y in order:
            if x in below[y]:
                lengths[y] = {n + 1 for z in lower[y] if z in lengths for n in lengths[z]}
                if len(lengths[y]) > 1:
                    return False
    return True


def reference_find_balanced_bowtie(below):
    """The first incomparable equal-height pairs a, b < c, d with nothing between them."""
    if not reference_is_graded(below):
        raise NotGraded("balanced bowties need a graded poset")
    h = heights(below)
    for c, d in _incomparable_pairs(below):
        if h[c] != h[d]:
            continue
        common = below[c] & below[d]
        for a, b in combinations(sorted(common, key=lambda x: (h[x], str(x))), 2):
            if (h[a] == h[b] and a not in below[b] and b not in below[a]
                    and not any(a in below[x] and b in below[x] for x in common)):
                return Bowtie(a, b, c, d)
    return None


def reference_flag_condition(below, direction):
    """The first triple in label order that is pairwise bounded in the direction but has no common bound."""
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    bounds = dual(below) if direction == "up" else below
    bounds = {x: bounds[x] | {x} for x in below}
    for a, b, c in combinations(below, 3):
        if (bounds[a] & bounds[b] and bounds[a] & bounds[c] and bounds[b] & bounds[c]
                and not bounds[a] & bounds[b] & bounds[c]):
            return (a, b, c)
    return None


# -- cube complexes: a face is the set of corners that agree on some fixed coordinates ----------------


def _face_name(names):
    """Sorted vertex names joined by "+", or, if one holds a "+", each escaped ("\\" to "\\\\", "+" to "\\p") and ended by "+"."""
    if any("+" in x for x in names):
        return "".join(x.replace("\\", "\\\\").replace("+", "\\p") + "+" for x in names)
    return "+".join(names)


def _reference_sub_faces(cubes):
    """Each face's vertex set mapped to those of its proper faces, or CubeComplex's error at the first failing cube or face.

    Corner m of a cube of 2^d corners has the bits of m as its coordinates.
    Every cube is checked for a repeated corner and a power-of-two size
    first.  Then the faces are read cube by cube and, in each, by dimension:
    a vertex set met again must have the same set of proper sub-faces.
    """
    for c in map(tuple, cubes):
        if len(set(c)) != len(c):
            raise MalformedCubeComplex(f"repeated vertex in cube {c}")
        if len(c) not in {2 ** d for d in range(len(c).bit_length())}:
            raise MalformedCubeComplex(f"cube with {len(c)} vertices is not a power of two")
    sub_faces = {}
    for c in cubes:
        d = len(c).bit_length() - 1
        faces = [frozenset(c[m] for m in range(len(c)) if all(m >> i & 1 == v for i, v in zip(fixed, values)))
                 for dim in range(d + 1) for free in combinations(range(d), dim)
                 for fixed in [[i for i in range(d) if i not in free]] for values in product((0, 1), repeat=d - dim)]
        for S in faces:
            subs = frozenset(T for T in faces if T < S)
            if sub_faces.setdefault(S, subs) != subs:
                raise MalformedCubeComplex(f"face {sorted(map(str, S))} is glued with incompatible structure")
    return sub_faces


def reference_face_poset(cubes):
    """CubeComplex(cubes).face_poset() by its definition, or CubeComplex's error."""
    sub_faces = _reference_sub_faces(cubes)
    label = {S: _face_name(sorted(map(str, S))) for S in sub_faces}
    return poset_json({label[S]: {label[T] for T in sub_faces[S]} for S in sorted(sub_faces, key=label.get)})


def reference_cube_link_reports(cubes):
    """cube_link_reports(cubes) on full sub-face sets, scanning every face for each vertex, or CubeComplex's error.

    The link of v has a vertex per edge at v and a simplex per face at v,
    spanned by the face's edges at v.  Faces are taken in the order of their
    sorted labels: the first face whose span an earlier face already has
    makes the link not simplicial.  Else the first maximal clique of edges,
    each clique and the cliques in face-name order, that no face spans makes
    it not flag.  The vertex itself spans the empty clique, which is the one
    maximal clique of an isolated vertex.
    """
    sub_faces = _reference_sub_faces(cubes)
    reports = []
    for v in sorted({v for S in sub_faces for v in S}, key=str):
        at = sorted((S for S in sub_faces if v in S), key=lambda S: sorted(map(str, S)))
        spans = {}
        for S in at:
            span = frozenset(T for T in sub_faces[S] | {S} if len(T) == 2 and v in T)
            if span in spans:
                reports.append(LinkReport(v, False, False, (spans[span], S)))
                break
            spans[span] = S
        else:
            adjacency = {e: {f for span in spans if e in span for f in span} - {e} for e in at if len(e) == 2}
            name = lambda e: _face_name(sorted(map(str, e)))
            cliques = sorted((tuple(sorted(c, key=name)) for c in _maximal_cliques(adjacency)),
                             key=lambda c: [name(e) for e in c])
            missing = [c for c in cliques if frozenset(c) not in spans]
            reports.append(LinkReport(v, True, not missing, missing[0] if missing else None))
    return reports


# -- complexes ------------------------------------------------------------------------------------


def _least_rotation(t):
    return min((t[i:] + t[:i] for i in range(len(t))), key=lambda r: [str(v) for v in r], default=t)


def _spans(X, vertices):
    return not vertices or any(set(vertices) <= set(s) for s in X.maximal_simplices)


def reference_nonface_clique(X):
    """A minimal clique spanning no simplex: the first maximal clique in label order spanning none, shrunk.

    Shrinking drops the first vertex in label order that leaves a clique of
    two or more vertices spanning no simplex, until none does.
    """
    order = sorted(X.vertices, key=str)
    nbrs = {v: set() for v in order}
    for s in X.maximal_simplices:
        for v in s:
            nbrs[v] |= set(s) - {v}

    def cliques(clique, candidates):  # every clique once, in label order
        yield clique
        for k, v in enumerate(candidates):
            yield from cliques(clique + (v,), [w for w in candidates[k + 1:] if w in nbrs[v]])

    for c in cliques((), order):
        maximal = not any(all(w in nbrs[v] for v in c) for w in order if w not in c)
        if maximal and not _spans(X, c):
            clique, shrunk = set(c), True
            while shrunk:
                shrunk = False
                for v in sorted(clique, key=str):
                    if len(clique) > 2 and not _spans(X, clique - {v}):
                        clique, shrunk = clique - {v}, True
                        break
            return frozenset(clique)
    return None


def reference_validate(X):
    """The shared face of the first pair of chambers that order it differently; then a minimal empty clique."""
    for s, t in combinations(X.maximal_simplices, 2):
        shared = frozenset(s) & frozenset(t)
        a, b = tuple(v for v in s if v in shared), tuple(v for v in t if v in shared)
        if X.order_type == "A":
            a, b = _least_rotation(a), _least_rotation(b)
        if a != b:
            raise InconsistentOrder(shared)
    clique = reference_nonface_clique(X)
    if clique is not None:
        raise NotFlag(clique)
    return X


def star_relation(X, x):
    """The star of x and its relation: y before z when a chamber through x holds both, y first as read from x."""
    star, rel = {x}, set()
    for s in X.maximal_simplices:
        if x in s:
            if X.order_type == "A":
                s = s[s.index(x):] + s[:s.index(x)]
            star |= set(s)
            rel |= set(combinations(s, 2))
    return star, rel


def reference_star_preds(X, i, center=True):
    """_star_preds(X, i, center) read chamber by chamber: the star as indices, ascending, and each one's sorted predecessors.

    Each chamber through the vertex, read from it (rotated to start there in
    type A), is a chain of the star relation, and its consecutive pairs
    generate that chain.  Without its center the star loses the vertex and
    the pairs from it.
    """
    x = X.vertices[i]
    star, pairs = {x}, set()
    for s in X.maximal_simplices:
        if x in s:
            if X.order_type == "A":
                s = s[s.index(x):] + s[:s.index(x)]
            star |= set(s)
            pairs |= set(zip(s, s[1:]))
    if not center:
        star.discard(x)
        pairs = {(a, b) for a, b in pairs if a != x}
    star = sorted(X.vertices.index(v) for v in star)
    local = {X.vertices[j]: k for k, j in enumerate(star)}
    preds = [set() for _ in star]
    for a, b in pairs:
        preds[local[b]].add(local[a])
    return [star, [sorted(p) for p in preds]]


def reference_relation_cycle(elements, rel):
    """The first cycle of a depth-first search from each element in label order, successors in label order."""
    succ = {v: sorted((b for a, b in rel if a == v), key=str) for v in elements}
    state, path = {}, []

    def visit(v):
        state[v] = "open"
        path.append(v)
        for w in succ[v]:
            if state.get(w) == "open":
                return tuple(path[path.index(w):])
            if w not in state:
                cycle = visit(w)
                if cycle:
                    return cycle
        path.pop()
        state[v] = "done"
        return None

    for v in sorted(elements, key=str):
        cycle = None if v in state else visit(v)
        if cycle:
            return cycle
    return None


def reference_star_order(X, x):
    """The star poset at x as strictly-below sets, or NotLocalPoset with the first cycle of its relation."""
    star, rel = star_relation(X, x)
    cycle = reference_relation_cycle(star, rel)
    if cycle:
        raise NotLocalPoset(x, cycle)
    return reference_closure(star, rel)


def reference_is_local_poset(X):
    for x in sorted(X.vertices, key=str):
        try:
            reference_star_order(X, x)
        except NotLocalPoset as err:
            return (x, err.cycle)
    return None


def _validated_stars(X, order_type):
    """The star order of each vertex in label order, after validate; the first failed precondition is raised."""
    if X.order_type != order_type:
        raise PreconditionFailed(ValueError(f"expected a type-{order_type} complex"))
    try:
        reference_validate(X)
        return {x: reference_star_order(X, x) for x in sorted(X.vertices, key=str)}
    except (InconsistentOrder, NotFlag, NotLocalPoset) as err:
        raise PreconditionFailed(err) from None


def reference_check_type_A(X):
    failures = []
    for x, below in _validated_stars(X, "A").items():
        bowtie = reference_find_bowtie(below)
        if bowtie:
            failures.append(Failure(x, "lattice", bowtie))
    return Verdict(not failures, "locally_CUB_certified", tuple(failures))


def reference_check_type_C(X):
    """Star by star: a bowtie, else the upward flag condition above x, else the downward one below x.

    A poset's star at x is the poset restricted to the elements comparable
    to x; a complex's is the closure of its star relation.
    """
    if isinstance(X, Poset):
        below = reference_closure(X.elements, X.covers)
        stars = {x: restrict(below, {y for y in below if y == x or y in below[x] or x in below[y]}) for x in below}
    else:
        stars = _validated_stars(X, "C")
    failures = []
    for x, below in stars.items():
        up = {y for y in below if x in below[y]} | {x}
        bowtie = reference_find_bowtie(below)
        if bowtie:
            failures.append(Failure(x, "lattice", bowtie))
        elif (triple := reference_flag_condition(restrict(below, up), "up")) is not None:
            failures.append(Failure(x, "flag_up", triple))
        elif (triple := reference_flag_condition(restrict(below, below[x] | {x}), "down")) is not None:
            failures.append(Failure(x, "flag_down", triple))
    return Verdict(not failures, "locally_CUB_and_locally_injective_certified", tuple(failures))


# -- the order-automorphism checks -----------------------------------------------------------


def _reference_garside(X, phi):
    """The vertex order of X and the failed clauses of (X, phi), after the preconditions and phi's own checks."""
    _validated_stars(X, "C")
    try:
        below = reference_closure(X.vertices, {p for s in X.maximal_simplices for p in combinations(s, 2)})
    except CycleDetected as err:
        raise PreconditionFailed(err) from None
    for x in sorted(phi, key=str):
        if x not in below or phi[x] not in below:
            raise NotAutomorphism(f"phi maps through unknown vertex at {x!r}")
    if len(set(phi.values())) != len(phi):
        raise NotAutomorphism("phi is not injective on vertices")
    for s in X.maximal_simplices:
        inside = [v for v in s if v in phi]
        if len(inside) < 2:
            continue
        image = [phi[v] for v in inside]
        carrier = next((t for t in X.maximal_simplices if set(image) <= set(t)), None)
        if carrier is None:
            raise NotAutomorphism(f"phi does not map simplex {inside} to a simplex")
        if [v for v in carrier if v in image] != image:
            raise NotAutomorphism(f"phi reverses the order on {inside}")
    failures, seen = [], set()
    for s in X.maximal_simplices:
        for r in range(1, len(s) + 1):
            for f in combinations(s, r):
                if f[0] in phi and frozenset(f) not in seen:
                    seen.add(frozenset(f))
                    if not _spans(X, {*f, phi[f[0]]}):
                        failures.append(Failure(f[0], "column", f + (phi[f[0]],)))
    if not failures:
        failures = [Failure(x, "increasing", (x, phi[x])) for x in sorted(phi, key=str) if x not in below[phi[x]]]
    if not failures:
        for x in sorted(phi, key=str):
            interval = {y for y in below[phi[x]] if x in below[y]} | {x, phi[x]}
            bowtie = reference_find_bowtie(restrict(below, interval))
            if bowtie:
                failures.append(Failure(x, "interval_lattice", bowtie))
    return below, failures


def reference_check_garside(X, phi, assume_simply_connected=False):
    _, failures = _reference_garside(X, phi)
    certificate = "CUB_and_injective_certified" if assume_simply_connected else "garside_conditions_certified"
    return Verdict(not failures, certificate, tuple(failures))


def reference_garside_quotient(X, phi):
    """The image of every chain x0 < ... < xk < phi(x0), maximal or not, each vertex sent to its orbit's least label."""
    below, failures = _reference_garside(X, phi)
    if failures:
        raise GarsideCheckFailed(f"garside conditions fail: {failures[0]}")
    orbit = {v: v for v in X.vertices}
    changed = True
    while changed:
        changed = False
        for x, y in phi.items():
            least = min(orbit[x], orbit[y], key=str)
            changed |= (orbit[x], orbit[y]) != (least, least)
            orbit[x] = orbit[y] = least
    h, simplices = heights(below), []

    def chains(chain, candidates):
        simplices.append(tuple(orbit[v] for v in chain))
        for k, y in enumerate(candidates):
            if chain[-1] in below[y]:
                chains(chain + [y], candidates[k + 1:])

    for x0 in sorted(phi, key=str):
        chains([x0], sorted((y for y in below[phi[x0]] if x0 in below[y]), key=lambda y: (h[y], str(y))))
    return OrderedComplex("A", sorted(set(orbit.values()), key=str), simplices)


# -- simplices of groups ---------------------------------------------------------------------


def _compose(p, q):
    return tuple(p[i] for i in q)


def _inverse(p):
    return tuple(p.index(i) for i in range(len(p)))


def _perm_label(p):
    return "".join(map(str, p))


def reference_face_groups(n, vertex_groups, face_groups):
    """SimplexOfGroups's table of face groups, each checked element by element, or its error."""
    if n < 2:
        raise ValueError("a simplex of groups needs at least 2 vertices")
    vertex_groups = [frozenset(map(tuple, g)) for g in vertex_groups]
    if len(vertex_groups) != n:
        raise ValueError("one ambient group per vertex is required")
    table = {}
    for (i, I), elements in face_groups.items():
        I = frozenset(I)
        if i not in I or not I <= set(range(n)):
            raise UnknownLabel(f"face key ({i}, {sorted(I)}) is malformed")
        table[(i, I)] = frozenset(map(tuple, elements))
    for i in range(n):
        table[(i, frozenset({i}))] = vertex_groups[i]
        for j in range(n):
            if j != i and (i, frozenset({i, j})) not in table:
                raise UnknownLabel(f"missing pair group for vertices {i}, {j}")
    for i in range(n):
        for size in range(2, n):
            for rest in combinations([j for j in range(n) if j != i], size):
                meet = vertex_groups[i]
                for j in rest:
                    meet &= table[(i, frozenset({i, j}))]
                table.setdefault((i, frozenset({i, *rest})), meet)
    for (i, I), H in table.items():
        where = f"face {sorted(I)} at vertex {i}"
        if not H <= vertex_groups[i]:
            raise NotASubgroup(f"group of face {sorted(I)} is not inside vertex group {i}")
        if any(_inverse(g) not in H for g in H):
            raise NotASubgroup(f"{where} is not inverse-closed")
        if any(_compose(g, h) not in H for g in H for h in H):
            raise NotASubgroup(f"{where} is not product-closed")
        if not H:
            raise NotASubgroup(f"{where} is empty")
    for (i, I), H in table.items():
        for (i2, J), K in table.items():
            if i2 == i and I < J and not K <= H:
                raise IncompatibleInclusions(f"face {sorted(J)} is not contained in face {sorted(I)} at vertex {i}")
    return table


def reference_check_conditions(n, table):
    """The three conditions by exhaustion: a completing a' searched for every a and b, cosets built per pair."""
    group = lambda i, I: table[(i, frozenset(I))]
    walk = lambda i: [(i + t) % n for t in range(1, n)]
    failures = []
    for i in range(n):
        sets = sorted((I for v, I in table if v == i), key=lambda I: (len(I), sorted(I)))
        bad = [(I, J) for I, J in combinations(sets, 2) if group(i, I) & group(i, J) != group(i, I | J)]
        if bad:
            I, J = bad[0]
            element = min((group(i, I) & group(i, J)) ^ group(i, I | J))
            failures.append(ConditionFailure("intersection", i, {"I": sorted(I), "J": sorted(J),
                                                                "element": _perm_label(element)}))
            break
    for i in range(n):
        hit = None
        for j, k, l in combinations(walk(i), 3):
            missing = group(i, {i, k}) - {_compose(a, b) for a in group(i, {i, j}) for b in group(i, {i, l})}
            if missing:
                hit = ConditionFailure("product", i, {"j": j, "k": k, "l": l, "element": _perm_label(min(missing))})
                break
        if hit:
            failures.append(hit)
            break
    for i in range(n):
        hit = _first_unfactorized(i, walk(i), group, table[(i, frozenset({i}))])
        if hit:
            failures.append(hit)
            break
    return ConditionsReport(not failures, tuple(failures))


def _first_unfactorized(i, walk, group, G):
    """The first a in G_ij, b in G_ik and completing a' whose quadruple of cosets no middle coset meets."""
    for pos_j, pos_k in combinations(range(len(walk)), 2):
        j, k = walk[pos_j], walk[pos_k]
        Gij, Gik = group(i, {i, j}), group(i, {i, k})
        middles = {frozenset(_compose(g, h) for h in group(i, {i, l})) for l in walk[pos_j + 1:pos_k] for g in G}
        for a in Gij:
            for b in Gik:
                ab = _compose(a, b)
                completing = next((a2 for a2 in Gij if _inverse(_compose(ab, a2)) in Gik), None)
                if a in Gik or ab in Gij or completing is None:
                    continue
                a_coset = {_compose(a, g) for g in Gik}
                ab_coset = {_compose(ab, g) for g in Gij}
                if any(m & Gij and m & ab_coset and m & Gik and m & a_coset for m in middles):
                    continue
                return ConditionFailure("factorization", i, {
                    "j": j, "k": k, "a": _perm_label(a), "b": _perm_label(b), "a'": _perm_label(completing),
                    "b'": _perm_label(_inverse(_compose(ab, completing)))})
    return None


def reference_local_development(S, i):
    """The coset complex at i: cosets as sets, joined when they meet at different walk positions, and the base "G".

    Each maximal clique of the coset graph is read in (walk position, printed label) order.
    """
    G, members, position = S.vertex_groups[i], {}, {"G": 0}
    for pos, j in enumerate([(i + t) % S.n for t in range(1, S.n)], start=1):
        H = S.face_groups[(i, frozenset({i, j}))]
        for g in G:
            coset = frozenset(_compose(g, h) for h in H)
            label = f"{j}:{_perm_label(min(coset))}"
            members[label], position[label] = coset, pos
    adjacency = {v: {"G"} for v in members}
    adjacency["G"] = set(members)
    for a, b in combinations(members, 2):
        if position[a] != position[b] and members[a] & members[b]:
            adjacency[a].add(b)
            adjacency[b].add(a)
    cliques = [sorted(c, key=lambda v: (position[v], str(v))) for c in _maximal_cliques(adjacency)]
    return OrderedComplex("A", list(position), cliques)


# -- injective hulls -----------------------------------------------------------------------------


def reference_finite_metric(points, dist):
    """FiniteMetric's checks on Fraction entries, every triangle in product order: the distance rows, or its error."""
    points = tuple(points)
    n = len(points)
    if len(set(points)) != n:
        raise NotAMetric("point labels must be unique")
    rows = [[frac(x) for x in row] for row in dist]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise NotAMetric("distance matrix shape must match the point count")
    for i in range(n):
        if rows[i][i] != 0:
            raise NotAMetric(f"nonzero diagonal at {points[i]!r}")
        for j in range(n):
            if rows[i][j] != rows[j][i]:
                raise NotAMetric("distance matrix must be symmetric")
            if i != j and rows[i][j] <= 0:
                raise NotAMetric("distinct points need positive distance")
    for i, j, k in product(range(n), repeat=3):
        if rows[i][j] > rows[i][k] + rows[k][j]:
            raise NotAMetric(f"triangle inequality fails on ({points[i]}, {points[j]}, {points[k]})")
    return rows


def _odd_cycles(kappa):
    """The cycles of a self-map's functional graph; None if one is even."""
    done, cycles = set(), []
    for start in range(len(kappa)):
        path, v = [], start
        while v not in done and v not in path:
            path.append(v)
            v = kappa[v]
        if v in path:
            cycle = path[path.index(v):]
            if len(cycle) % 2 == 0:
                return None
            cycles.append(cycle)
        done |= set(path)
    return cycles


def _solve_self_map(kappa, D2):
    """Doubled values F with F[x] + F[kappa(x)] = D2[x][kappa(x)], or None when the map has an even cycle."""
    cycles = _odd_cycles(kappa)
    if cycles is None:
        return None
    values = [None] * len(kappa)
    for cycle in cycles:
        values[cycle[0]] = sum((-1) ** t * D2[v][cycle[(t + 1) % len(cycle)]] for t, v in enumerate(cycle)) // 2
        for v, w in zip(cycle, cycle[1:]):
            values[w] = D2[v][w] - values[v]
    while None in values:  # every other point leads into a cycle
        for v, w in enumerate(kappa):
            if values[v] is None and values[w] is not None:
                values[v] = D2[v][w] - values[w]
    return values


def _tight_pairs(values, D2):
    n = len(values)
    return frozenset((i, j) for i in range(n) for j in range(i, n) if values[i] + values[j] == D2[i][j])


def _free_components(graph, n):
    """The components of the tightness graph that are loop-free and bipartite, by union-find and a 2-colouring."""
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i, j in graph:
        parent[find(i)] = find(j)
    pinned = {find(i) for i, j in graph if i == j}
    colour = {}
    for start in range(n):
        if start in colour:
            continue
        colour[start], stack = 0, [start]
        while stack:
            v = stack.pop()
            for i, j in graph:
                if v in (i, j) and i != j:
                    w = j if v == i else i
                    if w not in colour:
                        colour[w] = colour[v] ^ 1
                        stack.append(w)
                    elif colour[w] == colour[v]:
                        pinned.add(find(v))
    return len({find(v) for v in range(n)} - pinned)


def reference_tight_span(metric):
    """The hull from the n^n self-map sweep, with faces closed under pairwise intersection until nothing changes."""
    n = len(metric)
    if n > 7:
        raise TooManyPoints("the hull enumeration is limited to 7 points")
    if n == 0:
        return TightSpan(metric, (), (), -1)
    scale = lcm(*(x.denominator for row in metric.dist for x in row))
    D2 = [[int(2 * scale * x) for x in row] for row in metric.dist]
    vertices = set()
    for kappa in product(range(n), repeat=n):
        v = _solve_self_map(kappa, D2)
        if v is not None and min(v) >= 0 and all(v[i] + v[j] >= D2[i][j] for i in range(n) for j in range(n)):
            vertices.add(tuple(v))
    vertices = sorted(vertices)
    graphs = {_tight_pairs(v, D2) for v in vertices}
    changed = True
    while changed:
        changed = False
        for a, b in combinations(list(graphs), 2):
            if a & b not in graphs and {v for pair in a & b for v in pair} == set(range(n)):
                graphs.add(a & b)
                changed = True
    faces = sorted((HullFace(g, _free_components(g, n),
                             tuple(k for k, v in enumerate(vertices) if g <= _tight_pairs(v, D2)))
                    for g in graphs), key=lambda f: (f.dimension, sorted(f.tight_pairs)))
    return TightSpan(metric, tuple(tuple(F(x, 2 * scale) for x in v) for v in vertices), tuple(faces),
                     max((f.dimension for f in faces), default=0))


def _involutions(items):
    """Each fixed-point-free involution of items, as a dict."""
    if not items:
        yield {}
        return
    first, rest = items[0], items[1:]
    for k, partner in enumerate(rest):
        for pairing in _involutions(rest[:k] + rest[k + 1:]):
            yield {**pairing, first: partner, partner: first}


def reference_dress_dimension_test(metric, n):
    """The criterion read literally: each involution's sum against every other derangement's."""
    if n < 1:
        raise ValueError("the dimension parameter must be at least 1")
    d = metric.dist
    for subset in combinations(range(len(metric)), 2 * (n + 1)):
        sums = {image: sum(d[z][w] for z, w in zip(subset, image))
                for image in permutations(subset) if all(z != w for z, w in zip(subset, image))}
        for i in _involutions(list(subset)):
            mine = tuple(i[z] for z in subset)
            if not any(total >= sums[mine] for image, total in sums.items() if image != mine):
                return False
    return True


# -- the mesh metric --------------------------------------------------------------------------


def reference_distance(X, mesh, p, q):
    """The mesh distance by a whole-graph rebuild: every mesh node and both endpoints, each chamber scanning all."""
    m = mesh.denominator
    point = lambda x: tuple(sorted(((v, F(w)) for v, w in x.items() if w), key=str)) if isinstance(x, dict) \
        else ((x, F(1)),)
    source, target = point(p), point(q)
    nodes = {source, target}
    for s in X.maximal_simplices:
        for size in range(1, max(len(s), 2)):
            for face in combinations(s, size):
                for comp in product(range(1, m + 1), repeat=size):
                    if sum(comp) == m:
                        nodes.add(tuple(sorted(((v, F(c, m)) for v, c in zip(face, comp)), key=str)))
    adj = {node: [] for node in nodes}
    coords_of, norm = (orthoscheme_coords, linf_norm) if X.order_type == "C" else \
        (affine_simplex_coords, polyhedral_norm)
    for s in X.maximal_simplices:
        at = dict(zip(s, coords_of(len(s) - 1)))
        place = lambda node: [sum((w * at[v][i] for v, w in node), F(0)) for i in range(len(at[s[0]]))]
        members = [node for node in nodes if all(v in at for v, _ in node)]
        for a, b in combinations(members, 2):
            d = norm([x - y for x, y in zip(place(a), place(b))])
            adj[a].append((b, d))
            adj[b].append((a, d))
    best, tie = {source: F(0)}, count()
    heap = [(F(0), next(tie), source)]
    while heap:
        d, _, node = heapq.heappop(heap)
        if node == target:
            return d
        for other, w in adj[node]:
            if other not in best or d + w < best[other]:
                best[other] = d + w
                heapq.heappush(heap, (d + w, next(tie), other))
    raise Disconnected("no path between the query points")


# -- canonical generators: each family found by search or by filtering a larger one ----------------------


def _all_set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _all_set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _crossing(A, B):
    """Two blocks cross when their elements, in order, alternate A, B, A, B."""
    marks = [s for _, s in sorted([(x, 0) for x in A] + [(x, 1) for x in B])]
    return sum(s != t for s, t in zip(marks, marks[1:])) >= 3


def _refinement_json(partitions):
    """The refinement order on a family of partitions: a cover merges two blocks and stays in the family."""
    label = lambda blocks: "|".join("".join(map(str, b)) for b in sorted(tuple(sorted(b)) for b in blocks))
    labels = {label(p) for p in partitions}
    covers = set()
    for p in partitions:
        for A, B in combinations(p, 2):
            merged = label([b for b in p if b is not A and b is not B] + [A + B])
            if merged in labels:
                covers.add((label(p), merged))
    return {"elements": sorted(labels), "covers": sorted(map(list, covers))}


def reference_noncrossing_partitions(n):
    """noncrossing_partitions(n).to_json(): the set partitions of 1..n with no two blocks crossing."""
    return _refinement_json([p for p in _all_set_partitions(list(range(1, n + 1)))
                             if not any(_crossing(A, B) for A, B in combinations(p, 2))])


def reference_partition_lattice(n):
    """partition_lattice(n).to_json(): every set partition of 1..n."""
    return _refinement_json(list(_all_set_partitions(list(range(1, n + 1)))))


def reference_subspace_poset(q, n):
    """subspace_poset(q, n).to_json(): the span of each subspace and one more vector, dimension by dimension.

    A subspace is named by its nonzero vectors as digit strings; a cover is
    an inclusion between consecutive dimensions.
    """
    def span(vectors):
        space = {(0,) * n}
        for v in vectors:
            space |= {tuple((a + c * b) % q for a, b in zip(w, v)) for w in space for c in range(q)}
        return frozenset(space)

    nonzero = [v for v in product(range(q), repeat=n) if any(v)]
    by_dim = [{span([])}]
    while True:
        bigger = {span(sorted(S) + [v]) for S in by_dim[-1] for v in nonzero if v not in S}
        if not bigger:
            break
        by_dim.append(bigger)
    name = lambda S: "<" + ",".join(sorted("".join(map(str, v)) for v in S if any(v))) + ">" if len(S) > 1 else "<0>"
    covers = [[name(S), name(T)] for lower, upper in zip(by_dim, by_dim[1:]) for S in lower for T in upper if S < T]
    return {"elements": sorted(name(S) for spaces in by_dim for S in spaces), "covers": sorted(covers)}


def _maximal_cliques(adjacency):
    """Bron-Kerbosch with a pivot, on sets."""
    out = []

    def expand(clique, candidates, excluded):
        if not candidates and not excluded:
            out.append(clique)
            return
        pivot = max(candidates | excluded, key=lambda u: len(adjacency[u] & candidates))
        for v in list(candidates - adjacency[pivot]):
            expand(clique | {v}, candidates & adjacency[v], excluded & adjacency[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    expand(frozenset(), set(adjacency), set())
    return out


def reference_affine_A_patch(n, radius):
    """affine_A_patch(n, radius).to_json(): the ball grown step by step, its chambers the maximal cliques.

    A vertex is an integer vector with least coordinate 0, a step adds a 0/1
    vector other than 0 and the diagonal, and a chamber is listed in type
    order (coordinate sum mod n + 1) and then rotated to its least label.
    """
    def canon(v):
        return tuple(x - min(v) for x in v)

    steps = [b for b in product((0, 1), repeat=n + 1) if 0 < sum(b) < n + 1]
    neighbors = lambda v: {canon(tuple(x + b for x, b in zip(v, step))) for step in steps}
    ball = frontier = {(0,) * (n + 1)}
    for _ in range(radius):
        frontier = {w for v in frontier for w in neighbors(v)} - ball
        ball = ball | frontier
    label = lambda v: ",".join(map(str, v))
    adjacency = {label(v): {label(w) for w in neighbors(v) & ball} for v in ball}
    vertex = {label(v): v for v in ball}
    chambers = [sorted(c, key=lambda x: (sum(vertex[x]) % (n + 1), x)) for c in _maximal_cliques(adjacency)]
    return {"type": "A", "vertices": sorted(adjacency),
            "maximal_simplices": sorted(list(_least_rotation(tuple(c))) for c in chambers)}


# -- input families ---------------------------------------------------------------------------


def random_order(rng):
    """A random order on up to 14 labels, given by random pairs in index order (not label order)."""
    labels = [f"e{i}" for i in range(rng.randint(1, 14))]
    p = rng.choice([0.15, 0.3, 0.5])
    return labels, [(a, b) for a, b in combinations(labels, 2) if rng.random() < p]


def random_face_poset(rng):
    """(elements, pairs) of the face poset of a random cube complex of squares and edges, or of a simplicial one.

    Two squares may share two edges, a bowtie, or three squares a corner,
    which fails the upward flag condition.  A simplicial complex's faces meet
    in a face, so it has no bowtie, while its flag conditions fail where a
    link has a hollow triangle; it may get up to two extra elements, each
    below two vertices.
    """
    if rng.random() < 0.5:
        while True:
            pool = [f"u{i}" for i in range(rng.randint(4, 9))]
            cubes = [rng.sample(pool, rng.choice((2, 4, 4))) for _ in range(rng.randint(1, 5))]
            try:
                P = CubeComplex(cubes).face_poset()
            except MalformedCubeComplex:
                continue
            return list(P.elements), sorted(P.covers)
    points = "abcdef"[:rng.randint(3, 6)]
    faces = set()
    for _ in range(rng.randint(2, 6)):
        s = rng.sample(points, rng.randint(2, min(4, len(points))))
        faces |= {"".join(sorted(f)) for r in range(1, len(s) + 1) for f in combinations(s, r)}
    pairs = [(f, g) for f in sorted(faces) for g in sorted(faces) if len(g) == len(f) + 1 and set(f) < set(g)]
    for k in range(rng.randint(0, 2)):
        pairs += [(f"z{k}", v) for v in rng.sample(sorted(f for f in faces if len(f) == 1), 2)]
    return sorted(faces | {x for pair in pairs for x in pair}), pairs


def random_cubes(rng):
    """Cubes of the cube corpus, or up to four random ones on a few labels; some have their corners shuffled.

    Few labels make cubes share faces, and a shuffled corner order often
    glues one vertex set with two structures.  A few inputs get a cube with
    a repeated corner or with no power-of-two number of corners, and a few
    get edges on labels holding "+" and "\\p", the escaped "+" of a face name.
    """
    if rng.random() < 0.3:
        cubes = [list(c) for c in rng.choice(list(cube_corpus().values()))]
    else:
        pool = [f"u{i}" for i in range(rng.randint(4, 10))]
        sizes = [min(rng.choice((1, 2, 4, 4, 8)), len(pool) // 4 * 4) for _ in range(rng.randint(1, 4))]
        cubes = [rng.sample(pool, size) for size in sizes]
    for c in cubes:
        if rng.random() < 0.15:
            rng.shuffle(c)
    fault = rng.randrange(20)
    if fault == 0:
        cubes.insert(rng.randint(0, len(cubes)), ["w0", "w1", "w0", "w2"])
    elif fault == 1:
        cubes.insert(rng.randint(0, len(cubes)), [f"w{i}" for i in range(rng.choice((0, 3, 5, 6)))])
    elif fault == 2:
        cubes += [["u0+u1", "u2\\p"], ["u0", "u1"]]
    return cubes


@cache
def poset_corpus():
    """Small lattices, each also without its bounds, and the face posets of the cube corpus."""
    out = []
    for P in (boolean_poset(3), boolean_poset(4), noncrossing_partitions(4), noncrossing_partitions(5),
              partition_lattice(4), subspace_poset(2, 3), subspace_poset(3, 2)):
        out.append((P.elements, sorted(P.covers)))
        inner = [x for x in P.elements if x not in (P.minimum(), P.maximum())]
        out.append((inner, [(a, b) for a, b in sorted(P.covers) if a in inner and b in inner]))
    for P in (CubeComplex(cubes).face_poset() for cubes in cube_corpus().values()):
        out.append((P.elements, sorted(P.covers)))
    return out


def random_poset_input(rng):
    """(elements, pairs) of a random ranked poset, random order, face poset or corpus poset, or of its dual.

    All but the corpus posets are relabelled at random, so that label order is
    no topological order, and get some implied pairs as well.
    """
    kind = rng.random()
    if kind < 0.3:
        P = random_ranked_poset(rng, rng.choice([8, 12, 20]))
        elements, pairs = list(P.elements), sorted(P.covers)
    elif kind < 0.6:
        elements, pairs = random_order(rng)
    elif kind < 0.9:
        elements, pairs = random_face_poset(rng)
    else:
        elements, pairs = rng.choice(poset_corpus())
    if kind < 0.9:
        names = dict(zip(elements, rng.sample([f"x{i}" for i in range(len(elements))], len(elements))))
        pairs = [(names[a], names[b]) for a, b in pairs]
        pairs += [(a, c) for a, b in pairs for b2, c in pairs if b == b2 and rng.random() < 0.2]
        elements = list(names.values())
    if rng.random() < 0.5:
        pairs = [(b, a) for a, b in pairs]
    return list(elements), list(pairs)


def random_poset(rng):
    return Poset.from_covers(*random_poset_input(rng))


def two_level_poset(rng):
    """A poset of two levels, most with a bottom, half reversed: its order complex fails flag conditions often."""
    lower = [f"l{i}" for i in range(rng.randint(2, 5))]
    upper = [f"u{i}" for i in range(rng.randint(2, 6))]
    pairs = [(a, u) for u in upper for a in rng.sample(lower, rng.randint(1, min(3, len(lower))))]
    if rng.random() < 0.8:
        pairs += [("0", a) for a in lower]
    if rng.random() < 0.5:
        pairs = [(b, a) for a, b in pairs]
    return Poset.from_covers(sorted({v for pair in pairs for v in pair}), pairs)


def bowtie_star_complex():
    """Four triangles around x whose star poset at x is a bowtie."""
    return OrderedComplex("A", ["x", "a", "a'", "b", "b'"],
                          [("x", "a", "b"), ("x", "a", "b'"), ("x", "a'", "b"), ("x", "a'", "b'")])


@cache
def corpus_complexes():
    """Subdivided cube complexes, order complexes of lattices, flat patches, a column and small developments."""
    out = [barycentric_cube_subdivision(cubes) for cubes in cube_corpus().values()]
    out += [order_complex(boolean_poset(4)), order_complex(noncrossing_partitions(5)), column_complex(2, 2),
            affine_A_patch(2, 2), affine_A_patch(3, 1), bowtie_star_complex()]
    out += [local_development(S, 0) for S in (s4_simplex(), factorization_violation())]
    return out


def random_complex(rng, order_type):
    """Random simplices on up to nine vertices, ordered by one ranking or, for clashes, at random.

    Some get a hollow triangle whose edges lie in their own triangles (a
    clique spanning no simplex), a cone over an oriented rim (a cycle in the
    relation at its apex) or the four triangles of a bowtie star.
    """
    vertices = [f"v{i}" for i in range(rng.randint(3, 9))]
    pool = vertices + [f"w{i}" for i in range(6)]
    rank = {v: rng.random() for v in pool}
    ranked = rng.random() < 0.6

    def orient(s):
        s = sorted(s, key=rank.get) if ranked else list(s)
        k = rng.randrange(len(s)) if order_type == "A" else 0
        return tuple(s[k:] + s[:k])

    simplices = [orient(rng.sample(vertices, rng.randint(1, min(5, len(vertices))))) for _ in range(rng.randint(1, 9))]
    if rng.random() < 0.3:
        a, b, c, x, y, z = rng.sample(pool, 6)
        simplices += [orient(f) for f in ((a, b, x), (b, c, y), (a, c, z))]
    if rng.random() < 0.3 and len(vertices) >= 4:
        x, *rim = rng.sample(vertices, rng.randint(4, min(6, len(vertices))))
        simplices += [(a, b, x) if order_type == "C" else (x, a, b) for a, b in zip(rim, rim[1:] + rim[:1])]
    if rng.random() < 0.2:
        x, a, a2, b, b2 = rng.sample(pool, 5)
        simplices += [(x, a, b), (x, a, b2), (x, a2, b), (x, a2, b2)]
    used = {v for s in simplices for v in s}
    return OrderedComplex(order_type, vertices + sorted(used - set(vertices)), simplices)


def random_complex_of_type(rng, order_type):
    """A random complex, a corpus complex, or (type C) the order complex of a face poset or a small random poset."""
    kind = rng.random()
    if kind < 0.1:
        return rng.choice([X for X in corpus_complexes() if X.order_type == order_type])
    if kind < 0.4 and order_type == "C":
        poset = rng.randrange(4)
        if poset < 2:
            elements, pairs = random_face_poset(rng)
            return order_complex(Poset.from_covers(elements, pairs if poset else [(b, a) for a, b in pairs]))
        return order_complex(two_level_poset(rng) if poset == 2 else random_ranked_poset(rng, 8))
    return random_complex(rng, order_type)


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


def garside_input(rng):
    """A column with a shift, a grid with a translation, a bounded poset with bottom to top, or a random map.

    A column's vertices form one chain, shifted by k; a translation by e in
    {0, 1, 2}^d is kept where it lands in the grid.  Maps are often cut to
    half their vertices, and a few send one vertex astray.
    """
    kind = rng.random()
    if kind < 0.4:
        n = rng.randint(1, 3)
        X = column_complex(n, rng.randint(1, 2))
        below = reference_closure(X.vertices, {p for s in X.maximal_simplices for p in combinations(s, 2)})
        order = sorted(below, key=lambda v: len(below[v]))
        phi = dict(zip(order, order[rng.randint(1, n + 3):]))
    elif kind < 0.7:
        d = rng.choice((2, 2, 3))
        X, _ = orthoscheme_grid(d, 3 if d == 2 else 2)
        e = rng.choice([e for e in product(range(3), repeat=d) if any(e)])
        add = lambda x: ",".join(str(int(c) + a) for c, a in zip(x.split(","), e))
        phi = {x: add(x) for x in X.vertices if add(x) in set(X.vertices)}
    elif kind < 0.8:  # the interval is the whole poset, so its bowties fail the interval clause
        X = order_complex(with_bounds(two_level_poset(rng) if rng.random() < 0.5 else random_ranked_poset(rng, 8)))
        phi = {"_bot": "_top"}
    else:
        X = random_complex(rng, "C")
        k = rng.randint(0, len(X.vertices))
        phi = dict(zip(rng.sample(X.vertices, k), rng.sample(X.vertices, k)))
    if rng.random() < 0.4:
        phi = dict(rng.sample(sorted(phi.items()), len(phi) // 2))
    if phi and rng.random() < 0.1:
        phi[rng.choice(sorted(phi))] = rng.choice([*X.vertices, "nowhere"])
    return X, phi


def random_simplex_input(rng, n=None, pair_generators=(0, 2)):
    """A random simplex of S3/S4 subgroups, with some explicit triple groups, not all of them subgroups.

    n is drawn from 3 to 5 unless given; each pair group is generated by a
    number of its vertex group's elements drawn from pair_generators.
    """
    n = rng.randint(3, 5) if n is None else n
    vertex_groups = []
    for _ in range(n):
        Sd = sorted(symmetric_group(rng.choice((3, 4))))
        vertex_groups.append(frozenset(Sd) if rng.random() < 0.5 else closure(len(Sd[0]), rng.sample(Sd, 2)))
    face_groups = {}
    for i, G in enumerate(vertex_groups):
        elements, degree = sorted(G), len(next(iter(G)))
        for j in range(n):
            if j != i:
                generators = rng.sample(elements, rng.randint(*pair_generators))
                face_groups[(i, frozenset({i, j}))] = closure(degree, generators)
        for I in [I for I in combinations(range(n), 3) if i in I and rng.random() < 0.15]:
            meet = G.intersection(*(face_groups[(i, frozenset({i, j}))] for j in I if j != i))
            kind = rng.random()
            if kind < 0.8:  # a subgroup of the meet, often a proper one
                triple = closure(degree, rng.sample(sorted(meet), min(len(meet), rng.randint(0, 1))))
            elif kind < 0.86:  # inverse-closed, but maybe not product-closed
                picked = rng.sample(elements, 2)
                triple = {tuple(range(degree)), *picked, *map(_inverse, picked)}
            elif kind < 0.9:  # maybe not even inverse-closed
                triple = {tuple(range(degree)), *rng.sample(elements, 2)}
            elif kind < 0.96:  # a subgroup of G, maybe not inside the meet
                triple = closure(degree, rng.sample(elements, 1))
            else:  # maybe not inside G
                triple = symmetric_group(degree)
            face_groups[(i, frozenset(I))] = frozenset(triple)
    return n, vertex_groups, face_groups


def random_metric_of_size(rng, size):
    """A tree metric, a rectangle metric or a random one, scaled by a fraction and shifted off the diagonal at times."""
    kind = rng.random()
    if kind < 0.3 and size >= 2:
        M = tree_metric(rng, size)
    elif kind < 0.45 and size == 4:
        while True:  # some rectangles break the triangle inequality
            u, v, w1 = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            try:
                M = rectangle_metric(u, v, w1, rng.randint(w1, w1 + min(u, v)))
                break
            except NotAMetric:
                continue
    else:
        M = random_metric(rng, size, max_entry=rng.choice((3, 9)))
    if rng.random() < 0.3:  # a constant added off the diagonal keeps the triangle inequality
        shift, scale = F(rng.randint(0, 5), 3), F(rng.randint(1, 7), rng.randint(1, 9))
        M = FiniteMetric(M.points, [[(x + shift) * scale if x else x for x in row] for row in M.dist])
    return M


def mesh_queries(rng):
    """A small complex, a mesh and six queries.

    A query joins two vertices, points on or off the mesh, two points of one
    chamber, or a point to itself; or it takes an earlier query's endpoint
    again, with a vertex or a mesh node, so that an open search resumes.
    The last two each pair two of the earlier endpoints, in either order,
    so that two open searches meet.
    """
    X = rng.choice(mesh_complexes())
    mesh = F(1, rng.choice((2, 3, 4) if len(X.vertices) < 8 else (2, 3)))

    def point(on_mesh):
        s = rng.choice(X.maximal_simplices)
        face = rng.sample(s, rng.randint(1, len(s)))
        if on_mesh:
            face = face[:mesh.denominator]
            cuts = [0, *sorted(rng.sample(range(1, mesh.denominator), len(face) - 1)), mesh.denominator]
            weights = [b - a for a, b in zip(cuts, cuts[1:])]
        else:  # a quarter with weights up to 60, so the search runs at ratio fine/m in the tens
            top = 60 if rng.random() < 0.25 else 6
            weights = [rng.randint(1, top) for _ in face]
        return {v: F(w, sum(weights)) for v, w in zip(face, weights)}

    queries = []
    for kind in (rng.randrange(6) for _ in range(4)):
        if kind == 0:
            queries.append(rng.sample(X.vertices, 2))
        elif kind == 4:
            queries.append([point(rng.random() < 0.5)] * 2)
        elif kind == 5 and queries:
            pair = [rng.choice(rng.choice(queries)), rng.choice(X.vertices) if rng.random() < 0.5 else point(True)]
            queries.append(pair[::rng.choice((1, -1))])
        else:
            queries.append([point(kind != 3), point(kind == 1)])
    ends = [p for pair in queries for p in pair]
    queries += [rng.sample(ends, 2) for _ in range(2)]
    return X, mesh, queries


@cache
def mesh_complexes():
    return (affine_A_patch(2, 1), order_complex(boolean_poset(3)), order_complex(boolean_poset(2)),
            OrderedComplex("C", ["a", "b", "p", "q"], [("a", "b"), ("p", "q")]),
            OrderedComplex("C", ["a", "b", "c", "d", "e"], [("a", "b", "c"), ("c", "d")]))  # chambers of 3, 2, 1 vertices


# -- properties: one per public entry point ---------------------------------------------


def prop_from_covers(rng):
    """Poset.from_covers: the covers, the strictly-below sets and the heights, or the error, on inputs with faults."""
    elements, pairs = random_poset_input(rng)
    fault = rng.randrange(12)
    if fault == 0 and elements:
        elements.append(rng.choice(elements))
    elif fault == 1:
        elements += [1, "1"] if rng.random() < 0.5 else ["1", 1]
    elif fault in (2, 3) and elements:
        pair = [rng.choice(elements), "nowhere"]
        pairs.insert(rng.randint(0, len(pairs)), tuple(pair[::rng.choice((1, -1))]))
    elif fault == 4 and elements:
        x = rng.choice(elements)
        pairs.insert(rng.randint(0, len(pairs)), (x, x))
    elif fault in (5, 6) and pairs:
        a, b = rng.choice(pairs)
        pairs += [(b, c) for c, d in pairs if d == a][:1] or [(b, a)]

    def view(P):
        return {"poset": P.to_json(), "heights": {str(x): h for x, h in P.heights().items()},
                "below": {str(x): sorted(map(str, P.strictly_below(x))) for x in P.elements},
                "up": {str(x): sorted(map(str, P.up_set(x))) for x in P.elements},
                "covers": {str(x): [list(map(str, P.lower_covers(x))), list(map(str, P.upper_covers(x)))]
                           for x in P.elements}}

    def reference_view(below):
        above, pairs = dual(below), hasse(below)
        return {"poset": poset_json(below), "heights": {str(x): h for x, h in heights(below).items()},
                "below": {str(x): sorted(map(str, s)) for x, s in below.items()},
                "up": {str(x): sorted(map(str, above[x] | {x})) for x in below},
                "covers": {str(x): [[str(a) for a in below if (a, x) in pairs], [str(b) for b in below if (x, b) in pairs]]
                           for x in below}}

    out = agree(lambda: [elements, pairs], lambda: view(Poset.from_covers(elements, pairs)),
                lambda: reference_view(reference_closure(elements, pairs)))
    return tags(out, "poset")


def prop_face_poset(rng):
    """CubeComplex(...).face_poset(): the face poset's JSON, or the error at the first malformed cube or face."""
    cubes = random_cubes(rng)
    out = agree(lambda: cubes, lambda cubes: CubeComplex(cubes).face_poset(), reference_face_poset, cubes)
    if "error" not in out:
        return ["poset"]
    return [next(kind for kind in ("repeated vertex", "power of two", "glued") if kind in out["message"])]


def prop_cube_link_reports(rng):
    """cube_link_reports(cubes): every field of every vertex's report, or the error at the first malformed cube or face."""
    cubes = random_cubes(rng)
    out = agree(lambda: cubes, cube_link_reports, reference_cube_link_reports, cubes)
    if isinstance(out, dict):
        return [out["error"]]
    return ["simplicial" if not r.simplicial else "flag" for r in out if not r.ok] or ["pass"]


def _poset_case(rng):
    P = random_poset(rng)
    return P, reference_closure(P.elements, P.covers), lambda: P.to_json()


def prop_find_bowtie(rng):
    P, below, shown = _poset_case(rng)
    return tags(agree(shown, find_bowtie, lambda P: reference_find_bowtie(below), P))


def prop_find_balanced_bowtie(rng):
    P, below, shown = _poset_case(rng)
    return tags(agree(shown, find_balanced_bowtie, lambda P: reference_find_balanced_bowtie(below), P))


def prop_flag_condition(rng):
    P, below, shown = _poset_case(rng)
    found = []
    for direction in ("up", "down", "sideways") if rng.random() < 0.02 else ("up", "down"):
        out = agree(shown, flag_condition, lambda P, d: reference_flag_condition(below, d), P, direction)
        if out is not None:
            found.append(out["error"] if isinstance(out, dict) else direction)
    return found or ["none"]


def _complex_case(rng, order_type=None):
    X = random_complex_of_type(rng, order_type or rng.choice("AC"))
    return X, lambda: X.to_json()


def prop_validate(rng):
    X, shown = _complex_case(rng)
    return tags(agree(shown, validate, reference_validate, X), "valid")


@cache
def small_flag_complexes():
    """Flag complexes with a few dozen chambers: patches of dimensions 2 and 3, and the order complexes of B(3) and NC(4)."""
    return (affine_A_patch(2, 1), affine_A_patch(2, 2), affine_A_patch(3, 1),
            order_complex(boolean_poset(3)), order_complex(noncrossing_partitions(4)))


def prop_validate_minus_a_chamber(rng):
    """validate on a small flag complex with one chamber dropped, its labels shuffled half the time.

    Every chamber left is a face, which the clique search skips; the tags
    say whether the dropped chamber is the nonface named, a smaller
    nonface inside it is, or the rest is flag.
    """
    X = rng.choice(small_flag_complexes())
    chambers = list(X.maximal_simplices)
    hole = chambers.pop(rng.randrange(len(chambers)))
    labels = list(X.vertices)
    if rng.random() < 0.5:
        labels = [f"v{k}" for k in range(len(labels))]
        rng.shuffle(labels)
    name = dict(zip(X.vertices, labels))
    Y = OrderedComplex(X.order_type, labels, [tuple(map(name.get, s)) for s in chambers])
    out = agree(lambda: Y.to_json(), validate, reference_validate, Y)
    if "error" not in out:
        return ["valid"]
    return ["NotFlag: the chamber" if out["message"] == str(NotFlag(frozenset(map(name.get, hole))))
            else f"{out['error']}: inside it"]


def prop_star_poset(rng):
    """star_poset at every vertex, then is_local_poset."""
    X, shown = _complex_case(rng)
    for x in X.vertices:
        agree(shown, lambda x: star_poset(X, x).poset, lambda x: poset_json(reference_star_order(X, x)), x)
    cycle = agree(shown, is_local_poset, reference_is_local_poset, X)
    return ["local" if cycle is None else "NotLocalPoset"]


def _sorted_star_preds(X, i, center=True):
    star, preds = _star_preds(X, i, center)
    return [star, [sorted(p) for p in preds]]


def prop_star_preds(rng):
    """_star_preds at every vertex, in type A also without it; some complexes with a two-vertex chamber beside bare vertices added."""
    order_type = rng.choice("AC")
    X = random_complex(rng, order_type)
    if rng.random() < 0.4:
        X = OrderedComplex(order_type, [*X.vertices, "p", "q", "r"], [*X.maximal_simplices, ("q", "p")])
    for i in range(len(X.vertices)):
        for center in (True, False) if order_type == "A" else (True,):
            agree(lambda: X.to_json(), _sorted_star_preds, reference_star_preds, X, i, center)
    sizes = set(map(len, X.maximal_simplices))
    found = [order_type, "cycle" if reference_is_local_poset(X) else "acyclic"]
    found += ["mixed sizes"] * (len(sizes) > 1) + ["bare vertex"] * (1 in sizes)
    return found + [f"two-vertex chamber ({order_type})"] * (2 in sizes)


def prop_check_type_A(rng):
    X, shown = _complex_case(rng, "A" if rng.random() < 0.95 else "C")
    return tags(agree(shown, check_type_A, reference_check_type_A, X))


def prop_check_type_C_poset(rng):
    P = random_poset(rng)
    if rng.random() < 0.25:
        P = with_bounds(P)
    return tags(agree(lambda: P.to_json(), check_type_C, reference_check_type_C, P))


def prop_check_type_C_complex(rng):
    X, shown = _complex_case(rng, "C" if rng.random() < 0.95 else "A")
    return tags(agree(shown, check_type_C, reference_check_type_C, X))


def _garside_case(rng):
    X, phi = garside_input(rng)
    return X, phi, lambda: [X.to_json(), phi]


def prop_check_garside(rng):
    X, phi, shown = _garside_case(rng)
    assume = rng.random() < 0.5
    return tags(agree(shown, check_garside, reference_check_garside, X, phi, assume))


def prop_garside_quotient(rng):
    X, phi, shown = _garside_case(rng)
    return tags(agree(shown, garside_quotient, reference_garside_quotient, X, phi), "quotient")


def prop_check_conditions(rng):
    """SimplexOfGroups's face groups, then check_conditions; a few inputs get an empty face group."""
    n, vertex_groups, face_groups = random_simplex_input(rng)
    if rng.random() < 0.03:
        face_groups[rng.choice(sorted(face_groups, key=lambda key: (key[0], sorted(key[1]))))] = frozenset()
    return agree_on_simplex((n, vertex_groups, face_groups))


def prop_local_development(rng):
    """local_development at every vertex of a simplex from random_simplex_input.

    Three draws in five are steered to 5 vertices and cyclic pair groups: a
    chamber short of n vertices needs three pair cosets at a vertex that
    meet in pairs but not all three together, which takes five vertices and
    groups neither trivial nor whole, and the unsteered draws give few.
    An input SimplexOfGroups refuses is tagged "refused"; check_conditions
    compares the refusals.
    """
    spec = random_simplex_input(rng, 5, (1, 1)) if rng.random() < 0.6 else random_simplex_input(rng)
    try:
        S = SimplexOfGroups(*spec)
    except CublinkError:
        return ["refused"]
    out = [agree(lambda: [repr(spec), i], local_development, reference_local_development, S, i) for i in range(S.n)]
    full = all(len(s) == S.n for X in out for s in X["maximal_simplices"])
    return ["full chambers" if full else "short chambers"]


def agree_on_simplex(spec):
    """The tags of SimplexOfGroups(*spec) and its conditions, which must equal the exhaustive references'."""
    def table_json(table):
        order = sorted(table, key=lambda key: (key[0], sorted(key[1])))
        return [[i, sorted(I), sorted(table[i, I])] for i, I in order]

    def run(spec):
        S = SimplexOfGroups(*spec)
        return [table_json(S.face_groups), check_conditions(S)]

    def reference(spec):
        table = reference_face_groups(*spec)
        return [table_json(table), reference_check_conditions(spec[0], table)]

    out = agree(lambda: repr(spec), run, reference, spec)
    if "error" in out:
        return [out["error"]]
    return [f["condition"] for f in out[1]["witness"] or ()] or ["pass"]


@cache
def corpus_metrics():
    return metric_corpus()


METRIC_FAULTS = {"nonzero diagonal": "diagonal", "symmetric": "asymmetric", "positive distance": "nonpositive",
                 "triangle": "triangle", "shape": "ragged", "unique": "label"}


def prop_finite_metric(rng):
    """FiniteMetric: its distances and JSON, or its error, on metrics with mixed denominators and at times one fault.

    A star metric, (i, j) -> f(i) + f(j) off the diagonal with f >= 0 drawn over
    several denominators, is added at times; a sum of metrics is a metric.
    Some entries are passed as ints or strings.  The fault is one of a nonzero
    diagonal entry, one changed entry of a pair, a zero or negative pair, a
    pair longer than a path through a third point, a ragged matrix, a repeated
    label or an entry that is not an exact rational.
    """
    M = random_metric_of_size(rng, rng.randint(1, 7))
    points, dist, n = list(M.points), [list(row) for row in M.dist], len(M)
    if rng.random() < 0.5:
        f = [F(rng.randint(0, 6), rng.choice((1, 2, 3, 5, 7))) for _ in points]
        dist = [[x + f[i] + f[j] if i != j else x for j, x in enumerate(row)] for i, row in enumerate(dist)]
    i, j, k = rng.sample(range(n), 3) if n >= 3 else (0, max(n - 1, 0), 0)
    fault = rng.choice(("none", "none", "diagonal", "asymmetric", "nonpositive", "triangle", "ragged", "label",
                        "entry"))
    if fault == "diagonal" and n:
        dist[i][i] = F(rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(1, 4))
    elif fault == "asymmetric" and n >= 2:
        dist[i][j] += F(rng.choice((1, -1)), rng.randint(2, 6))
    elif fault == "nonpositive" and n >= 2:
        dist[i][j] = dist[j][i] = -F(rng.randint(0, 3), rng.randint(1, 3))
    elif fault == "triangle" and n >= 3:
        dist[i][j] = dist[j][i] = dist[i][k] + dist[k][j] + F(1, rng.randint(1, 6))
    elif fault == "ragged" and n:  # a row too long, or a row short
        if rng.random() < 0.5:
            dist[i].append(1)
        else:
            dist.pop()
    elif fault == "label" and n >= 2:
        points[j] = points[i]
    elif fault == "entry" and n:
        dist[i][j] = rng.choice((0.5, "1/0", True, None))
    forms = lambda x: (x, frac_str(x), int(x)) if x.denominator == 1 else (x, frac_str(x))
    dist = [[rng.choice(forms(x)) if isinstance(x, F) else x for x in row] for row in dist]

    def run(points, dist):
        M = FiniteMetric(points, dist)
        return [M.dist, M.to_json()]

    def reference(points, dist):
        rows = reference_finite_metric(points, dist)
        return [rows, {"points": [str(p) for p in points], "dist": [[frac_str(x) for x in row] for row in rows]}]

    out = agree(lambda: [points, dist], run, reference, points, dist)
    if isinstance(out, dict):
        return [next((tag for part, tag in METRIC_FAULTS.items() if part in out["message"]), out["error"])]
    return ["metric"]


def prop_tight_span(rng):
    # the reference sweeps n^n self-maps, seconds for seven points, so those are rare; eight are refused
    size = 7 if rng.random() < 0.01 else rng.choice((0, 1, 2, 3, 4, 4, 5, 5, 5, 6, 6, 8))
    if 4 <= size <= 6 and rng.random() < 0.5:
        M = rng.choice([M for M in corpus_metrics() if len(M) == size])
    elif 2 <= size < 8:
        M = random_metric_of_size(rng, size)
    else:
        M = FiniteMetric([f"p{i}" for i in range(size)], [[int(i != j) for j in range(size)] for i in range(size)])
    out = agree(lambda: M.to_json(), tight_span, reference_tight_span, M)
    return [out["error"]] if "error" in out else [f"dimension {out['dimension']}"]


def prop_dress_dimension_test(rng):
    # eight points at n = 3 take the reference about a second, so they are rare
    n = 3 if rng.random() < 0.02 else rng.choice((0, 1, 1, 1, 2, 2))
    if n in (1, 2) and rng.random() < 0.5:
        M = rng.choice(corpus_metrics())
    else:
        M = random_metric_of_size(rng, rng.randint(2 * n + 1, 2 * n + 4) if n < 3 else 8)
    out = agree(lambda: [M.to_json(), n], dress_dimension_test, reference_dress_dimension_test, M, n)
    return [out["error"]] if isinstance(out, dict) else [str(out).lower()]


def prop_mesh_distance(rng):
    """Six queries to one MeshApproximator, so that a changed graph or a search left wrong shows in a later query."""
    X, mesh, queries = mesh_queries(rng)
    approx = MeshApproximator(X, mesh)
    out = [agree(lambda: [X.to_json(), str(mesh), p, q], approx.distance,
                 lambda p, q: reference_distance(X, mesh, p, q), p, q) for p, q in queries]
    return ["Disconnected" if isinstance(d, dict) else "distance" for d in out]


class Property(NamedTuple):
    check: Callable
    divisor: int  # a campaign of N cases runs N // divisor of this property
    expected: frozenset  # the tags a small run must see, so that no family degenerates


PROPERTIES = {
    "Poset.from_covers": Property(prop_from_covers, 2, frozenset(
        {"poset", "DuplicateLabel", "UnknownLabel", "CycleDetected"})),
    "CubeComplex.face_poset": Property(prop_face_poset, 2, frozenset(
        {"poset", "repeated vertex", "power of two", "glued"})),
    "cube_link_reports": Property(prop_cube_link_reports, 2, frozenset(
        {"pass", "simplicial", "flag", "MalformedCubeComplex"})),
    "find_bowtie": Property(prop_find_bowtie, 2, frozenset({"found", "none"})),
    "find_balanced_bowtie": Property(prop_find_balanced_bowtie, 2, frozenset({"found", "none", "NotGraded"})),
    "flag_condition": Property(prop_flag_condition, 2, frozenset({"up", "down", "none"})),
    "validate": Property(prop_validate, 2, frozenset({"valid", "InconsistentOrder", "NotFlag"})),
    "validate(minus a chamber)": Property(prop_validate_minus_a_chamber, 4, frozenset(
        {"valid", "NotFlag: the chamber", "NotFlag: inside it"})),
    "star_poset": Property(prop_star_poset, 2, frozenset({"local", "NotLocalPoset"})),
    "_star_preds": Property(prop_star_preds, 2, frozenset(
        {"A", "C", "cycle", "acyclic", "mixed sizes", "bare vertex", "two-vertex chamber (A)", "two-vertex chamber (C)"})),
    "check_type_A": Property(prop_check_type_A, 2, frozenset(
        {"pass", "lattice", "InconsistentOrder", "NotFlag", "NotLocalPoset"})),
    "check_type_C(poset)": Property(prop_check_type_C_poset, 1, frozenset({"pass", "lattice", "flag_up", "flag_down"})),
    "check_type_C(complex)": Property(prop_check_type_C_complex, 2, frozenset(
        {"pass", "lattice", "flag_up", "flag_down", "InconsistentOrder", "NotFlag", "NotLocalPoset"})),
    "check_garside": Property(prop_check_garside, 1, frozenset(
        {"pass", "column", "increasing", "interval_lattice", "NotAutomorphism", "InconsistentOrder", "NotFlag"})),
    "garside_quotient": Property(prop_garside_quotient, 2, frozenset(
        {"quotient", "GarsideCheckFailed", "NotAutomorphism"})),
    "check_conditions": Property(prop_check_conditions, 4, frozenset(
        {"pass", "intersection", "product", "factorization", "NotASubgroup", "IncompatibleInclusions"})),
    "local_development": Property(prop_local_development, 4, frozenset({"full chambers", "short chambers"})),
    "FiniteMetric": Property(prop_finite_metric, 1, frozenset({"metric", "ValueError", *METRIC_FAULTS.values()})),
    "tight_span": Property(prop_tight_span, 20, frozenset({"dimension 1", "dimension 2", "TooManyPoints"})),
    "dress_dimension_test": Property(prop_dress_dimension_test, 2, frozenset({"true", "false", "ValueError"})),
    "MeshApproximator.distance": Property(prop_mesh_distance, 40, frozenset({"distance", "Disconnected"})),
}


def run(name, seed, cases):
    """Run a property on cases // its divisor seeded inputs: how many showed each tag, and every mismatch.

    Case k draws from random.Random(f"{name}:{seed}:{k}"), so a mismatch
    names the one case to rerun.
    """
    prop = PROPERTIES[name]
    counts, mismatches = Counter(), []
    for k in range(max(1, cases // prop.divisor)):
        try:
            counts.update(set(prop.check(random.Random(f"{name}:{seed}:{k}"))))
        except Mismatch as err:
            mismatches.append(f"{name} case {k}: {err}")
        except Exception:  # a crash is a mismatch too
            mismatches.append(f"{name} case {k}: {traceback.format_exc()}")
    return counts, mismatches


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m tests.oracle", description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cases", type=int, default=2000)
    args = parser.parse_args(argv)
    failed = 0
    for name in PROPERTIES:
        started = time.perf_counter()
        counts, mismatches = run(name, args.seed, args.cases)
        failed += len(mismatches)
        print(json.dumps({"property": name, "cases": max(1, args.cases // PROPERTIES[name].divisor),
                          "mismatches": len(mismatches), "outcomes": dict(sorted(counts.items())),
                          "seconds": round(time.perf_counter() - started, 1)}), flush=True)
        for detail in mismatches[:3]:
            print(detail, file=sys.stderr)
    print(json.dumps({"seed": args.seed, "cases": args.cases, "mismatches": failed}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
