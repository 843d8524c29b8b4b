"""Decision procedures for the star-poset link conditions.

Each checker walks the vertices in label order, so a failing complex always
produces the same first witness.  A pass is reported as a certificate for
the combinatorial condition; the metric meaning is supplied by the theory,
not recomputed here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .complexes import OrderedComplex, canonical_rotation, is_local_poset, star_poset, validate
from .errors import (
    CublinkError,
    GarsideCheckFailed,
    NotAutomorphism,
    NotLocalPoset,
    PreconditionFailed,
)
from .poset import Poset, _key, _restriction, find_bowtie, flag_condition


@dataclass(frozen=True)
class Failure:
    vertex: object
    condition: str
    witness: object

    def to_json(self):
        w = self.witness
        if hasattr(w, "to_json"):
            w = w.to_json()
        elif isinstance(w, (tuple, list, frozenset, set)):
            w = sorted(map(str, w)) if isinstance(w, (frozenset, set)) else [str(x) for x in w]
        return {"vertex": str(self.vertex), "condition": self.condition, "witness": w}


@dataclass(frozen=True)
class Verdict:
    passed: bool
    certificate: str
    failures: tuple = field(default_factory=tuple)

    def to_json(self):
        return {
            "pass": self.passed,
            "certificate": self.certificate if self.passed else None,
            "failures": [f.to_json() for f in self.failures],
        }


def _checked(X, order_type):
    if X.order_type != order_type:
        raise PreconditionFailed(ValueError(f"expected a type-{order_type} complex"))
    try:
        validate(X)
    except CublinkError as err:
        raise PreconditionFailed(err) from err


def _star_posets(X):
    """Each vertex with its star poset; a relation cycle is a precondition failure.

    The vertices go in label order, so the first cycle is is_local_poset's.
    """
    for x in X.vertices:
        try:
            yield x, star_poset(X, x).poset
        except NotLocalPoset as err:
            raise PreconditionFailed(err) from err


def check_type_A(X):
    """Pass iff every star poset of the cyclically ordered complex is a meet-semilattice.

    Equivalently, no star poset contains a bowtie; the first bowtie found is
    the witness.
    """
    _checked(X, "A")
    failures = []
    for x, P in _star_posets(X):
        bowtie = find_bowtie(P)
        if bowtie is not None:
            failures.append(Failure(x, "lattice", bowtie))
    return Verdict(not failures, "locally_CUB_certified", tuple(failures))


def check_type_C(X):
    """Pass iff every star poset has no bowtie and satisfies both flag conditions.

    X is a totally ordered complex or a poset P, checked as its order
    complex (the complex of its chains) with no chain enumerated.  There the
    star of x holds the elements comparable to x and orders two of them as
    P does, since with x they form a chain: it is P restricted to them.  An
    order complex is consistent, flag and locally a poset, so P has no
    precondition to check.

    Both flag conditions are checked on St(x), not on St+(x) (up) and St-(x)
    (down).  Every element is comparable to x, so a triple with some a <= x
    has a common upper bound: x if none is > x, the one > x if one is, else
    any bound of the two > x, as U(a) contains U(x).  So the upward
    violations are those of St+(x), with the same up-sets and label order;
    dually down.  A failure reports the vertex, condition and witness.
    """
    if isinstance(X, Poset):
        stars = ((x, _restriction(X, X._down[i] | X._up[i] | 1 << i)) for i, x in enumerate(X.elements))
    else:
        _checked(X, "C")
        stars = _star_posets(X)
    failures = []
    for x, P in stars:
        bowtie = find_bowtie(P)
        if bowtie is not None:
            failures.append(Failure(x, "lattice", bowtie))
            continue
        up = flag_condition(P, "up")
        if up is not None:
            failures.append(Failure(x, "flag_up", up))
            continue
        down = flag_condition(P, "down")
        if down is not None:
            failures.append(Failure(x, "flag_down", down))
    return Verdict(not failures, "locally_CUB_and_locally_injective_certified", tuple(failures))


# -- the order-automorphism checks ------------------------------------------------------


def _global_order(X):
    """The vertex poset generated by edge orientations; cycles are precondition failures.

    Runs after validate, so every chamber orients each of its edges as the complex does.
    """
    pairs = {(a, b) for s in X.maximal_simplices for a, b in combinations(s, 2)}
    try:
        return Poset.from_covers(X.vertices, pairs)
    except CublinkError as err:
        raise PreconditionFailed(err) from err


def _faces_of(X):
    for s in X.maximal_simplices:
        for r in range(1, len(s) + 1):
            for f in combinations(s, r):
                yield f


def check_garside(X, phi, assume_simply_connected=False):
    """Check the order-automorphism conditions for the pair (X, phi).

    phi may be a partial injective vertex map (finite truncations of periodic
    complexes have no total shift); every clause is checked wherever phi is
    defined.  Simple connectivity is never verified: the caller declares it.

    Clauses, in reporting order: (automorphism) phi preserves simplices and
    edge orientations; (column) sigma plus phi(min sigma) spans a simplex;
    (increasing) phi(x) > x; (interval-lattice) each [x, phi(x)] is a bounded
    lattice.
    """
    _checked(X, "C")
    violation = is_local_poset(X)
    if violation is not None:
        raise PreconditionFailed(NotLocalPoset(*violation))
    P = _global_order(X)

    dom = sorted(phi, key=_key)
    for x in dom:
        if x not in X._index or phi[x] not in X._index:
            raise NotAutomorphism(f"phi maps through unknown vertex at {x!r}")
    images = list(phi.values())
    if len(set(images)) != len(images):
        raise NotAutomorphism("phi is not injective on vertices")
    for s in X.maximal_simplices:
        inside = [v for v in s if v in phi]
        if len(inside) < 2:
            continue
        image = [phi[v] for v in inside]
        if not X.has_simplex(image):
            raise NotAutomorphism(f"phi does not map simplex {inside} to a simplex")
        if X.induced_tuple(image) != tuple(image):
            raise NotAutomorphism(f"phi reverses the order on {inside}")

    failures = []
    seen_faces = set()
    for f in _faces_of(X):
        key = frozenset(f)
        if key in seen_faces:
            continue
        seen_faces.add(key)
        bottom = f[0]
        if bottom not in phi:
            continue
        extended = key | {phi[bottom]}
        if not X.has_simplex(extended):
            failures.append(Failure(bottom, "column", tuple(f) + (phi[bottom],)))
    if not failures:
        for x in dom:
            if not P.lt(x, phi[x]):
                failures.append(Failure(x, "increasing", (x, phi[x])))
    if not failures:
        for x in dom:
            interval = P.restrict(P.up_set(x) & P.down_set(phi[x]))
            if not interval.is_lattice():
                witness = find_bowtie(interval)
                failures.append(Failure(x, "interval_lattice", witness or (x, phi[x])))
    certificate = (
        "CUB_and_injective_certified"
        if assume_simply_connected
        else "garside_conditions_certified"
    )
    return Verdict(not failures, certificate, tuple(failures))


def garside_quotient(X, phi):
    """The cyclically ordered quotient complex of (X, phi).

    Vertices are phi-orbits; a k-simplex is the image of a chain
    x0 < x1 < ... < xk < phi(x0), with the cyclic order descending from the
    chain order.  Requires check_garside to pass.
    """
    verdict = check_garside(X, phi)
    if not verdict.passed:
        raise GarsideCheckFailed(f"garside conditions fail: {verdict.failures[0]}")
    P = _global_order(X)

    parent = {v: v for v in X.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for x, y in phi.items():
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry, key=_key)] = min(rx, ry, key=_key)
    orbit = {v: find(v) for v in X.vertices}

    simplices = []
    for x0 in sorted(phi, key=_key):
        top = phi[x0]
        inside = sorted(
            (y for y in P.up_set(x0) & P.down_set(top) if y != top),
            key=lambda y: (P.height(y), _key(y)),
        )
        rest = [y for y in inside if y != x0]

        def chains(prefix, candidates):
            simplices.append(tuple(orbit[v] for v in prefix))
            for i, y in enumerate(candidates):
                if P.lt(prefix[-1], y):
                    chains(prefix + [y], candidates[i + 1:])

        chains([x0], rest)
    vertices = sorted(set(orbit.values()), key=_key)
    return OrderedComplex("A", vertices, [canonical_rotation(s) for s in simplices])
