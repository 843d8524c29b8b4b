"""Decision procedures for the star-poset link conditions.

Each checker walks the vertices in label order, so a failing complex always
produces the same first witness.  A pass is reported as a certificate for
the combinatorial condition; the metric meaning is supplied by the theory,
not recomputed here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, pairwise

from .complexes import OrderedComplex, _check_flag, _star_preds, is_local_poset, star_poset, validate
from .errors import (
    CublinkError,
    CycleDetected,
    GarsideCheckFailed,
    NotAutomorphism,
    NotFlag,
    NotLocalPoset,
    PreconditionFailed,
)
from .poset import Poset, _bits, _bowtie_tops, _closure, _flag_violations, _key, _maximal_in, _may_have_bowtie
from .poset import _restriction, find_bowtie, flag_condition


@dataclass(frozen=True)
class Failure:
    vertex: object
    condition: str
    witness: object

    def to_json(self):
        w = self.witness
        w = w.to_json() if hasattr(w, "to_json") else [str(x) for x in w]
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
    """Check the order type and flagness, the preconditions read before any relation is built.

    Face-order consistency is left to the relation the checker builds next:
    a clash closes a cycle in it (see validate), so validate runs only on a
    failure, through _refuse.
    """
    if X.order_type != order_type:
        raise PreconditionFailed(ValueError(f"expected a type-{order_type} complex"))
    try:
        _check_flag(X)
    except NotFlag as err:
        _refuse(X, err)


def _refuse(X, cause):
    """Raise PreconditionFailed for the failure of X that ranks highest: validate's, else cause.

    Called after the flag check fails or a relation closes a cycle, so
    InconsistentOrder outranks NotFlag, which outranks NotLocalPoset, and
    each keeps its witness.  validate's flag check runs again here, but
    only on an input that fails.
    """
    try:
        validate(X)
    except CublinkError as err:
        raise PreconditionFailed(err) from err
    raise PreconditionFailed(cause) from cause


def _star(X, x):
    """The star poset of x; a relation cycle is a precondition failure."""
    try:
        return star_poset(X, x).poset
    except NotLocalPoset as err:
        _refuse(X, err)


def check_type_A(X):
    """Pass iff every star poset of the cyclically ordered complex is a meet-semilattice.

    Equivalently, no star poset contains a bowtie; the first bowtie found is
    the witness.  The complex must be flag, its cyclic orders consistent
    and each star relation acyclic; validate's orientation pass runs only
    when the flag check fails or a star relation closes a cycle, as every
    clash does (see _checked).

    Each star St(x) is decided from the masks and lower covers of the
    closure of its relation on St(x) - x, which _may_have_bowtie reads.  x
    heads no pair and lies below the rest, so it is the 0̂ that
    _may_have_bowtie adjoins, and each cycle of St(x) avoids it.  Only a
    star that may have a bowtie, or whose relation has a cycle, is built by
    star_poset: for its witness or its NotLocalPoset.  The vertices go in
    label order, so the first cycle is is_local_poset's, and it outranks
    every bowtie.
    """
    _checked(X, "A")
    failures = []
    for i, x in enumerate(X.vertices):
        order, down, lower = _closure(_star_preds(X, i, False)[1])
        if len(order) == len(down) and not _may_have_bowtie(down, lower):
            continue
        bowtie = find_bowtie(_star(X, x))
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
    precondition to check, and only the failing stars, found by
    _failing_stars(P), are built for their witnesses.  A complex has the
    preconditions of check_type_A, checked the same way.

    Both flag conditions are checked on St(x), not on St+(x) (up) and St-(x)
    (down).  Every element is comparable to x, so a triple with some a <= x
    has a common upper bound: x if none is > x, the one > x if one is, else
    any bound of the two > x, as U(a) contains U(x).  So the upward
    violations are those of St+(x), with the same up-sets and label order;
    dually down.  A failure reports the vertex, condition and witness.
    """
    if isinstance(X, Poset):
        stars = ((X.elements[i], _restriction(X, X._down[i] | X._up[i] | 1 << i))
                 for i in _bits(_failing_stars(X)))
    else:
        _checked(X, "C")
        stars = ((x, _star(X, x)) for x in X.vertices)
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


def _failing_stars(P):
    """The mask of the elements of P whose star fails, from one pass over P.

    Bowtie.  Every element of a bowtie of St(x) has an incomparable
    partner, so none is x and the two of each pair lie on one side of x;
    x is not between the pairs, so all four lie below x or all above.
    P_{<x} and P_{>x} are convex in P, so that is a bowtie of P; conversely
    a bowtie of P below or above x is one of St(x).  The tops (c, d) of P's
    bowties are the pairs with two or more maximal common lower bounds
    (raise a and b to such bounds), and two of those bounds a, b form a
    bowtie above x iff x < a, b.  So St(x) has a bowtie iff x is above some
    top pair or below two maximal common lower bounds of one.

    Flag.  St(x) breaks the upward condition iff St+(x) = P_{>x} does (see
    check_type_C).  An up-closed set, such as P_{>x} or the set U of the
    elements with one below them, holds every upper bound of its elements,
    so its violating triples are those of P inside it.  So St(x) breaks the
    upward condition iff a violating triple of U lies above x.  Dually down.
    """
    down, up = P._down, P._up
    mask = 0
    for _, c, d in _bowtie_tops(P):
        mask |= up[c] & up[d]
        once = twice = 0
        for a in _maximal_in(P, down[c] & down[d]):
            twice |= once & down[a]
            once |= down[a]
        mask |= twice
    for direction, under in (("up", down), ("down", up)):
        inner = sum(1 << i for i, m in enumerate(under) if m)  # only these lie above (below) some x
        for a, b, bad in _flag_violations(P, direction, inner):
            common = under[a] & under[b]
            if common & ~mask:
                for c in _bits(bad):
                    mask |= common & under[c]
    return mask


# -- the order-automorphism checks ------------------------------------------------------


def _global_order(X):
    """The vertex poset generated by edge orientations; cycles are precondition failures.

    Each chamber's consecutive pairs generate its order, so two chambers
    that orient an edge differently close a cycle: an acyclic closure means
    a consistent complex, and validate's orientation pass is not run.  On a
    cycle, validate's failure is reported if it has one.  Else, as each star
    relation is a sub-relation of this one, the stars are read only to name
    the cycle: the first star relation with one gives NotLocalPoset, and if
    none has one the cycle is reported as CycleDetected.
    """
    preds = [set() for _ in X.vertices]
    for s in X._chambers:
        for a, b in zip(s, s[1:]):
            preds[b].add(a)
    try:
        return Poset._from_preds(X.vertices, preds)
    except CycleDetected as err:
        violation = is_local_poset(X)
        _refuse(X, NotLocalPoset(*violation) if violation else err)


def _garside(X, phi):
    """The global order of X and the failed clauses of (X, phi), in reporting order; see check_garside."""
    _checked(X, "C")
    P = _global_order(X)

    dom = sorted(phi, key=_key)
    for x in dom:
        if x not in X._index or phi[x] not in X._index:
            raise NotAutomorphism(f"phi maps through unknown vertex at {x!r}")
    images = list(phi.values())
    if len(set(images)) != len(images):
        raise NotAutomorphism("phi is not injective on vertices")
    # X is flag, so an image spans a simplex iff it is a clique; every chamber, its carrier too,
    # is a chain of P (indexed as X), so the image keeps its preimage's order iff each image is below the next
    to = {X._index[x]: X._index[y] for x, y in phi.items()}
    closed = [m | 1 << i for i, m in enumerate(X._adjacency)]
    for s in X._chambers:
        inside = [v for v in s if v in to]
        if len(inside) < 2:
            continue
        image = [to[v] for v in inside]
        mask = sum(1 << j for j in image)
        if any(mask & ~closed[j] for j in image):
            raise NotAutomorphism(f"phi does not map simplex {[X.vertices[v] for v in inside]} to a simplex")
        if any(not P._down[b] >> a & 1 for a, b in pairwise(image)):
            raise NotAutomorphism(f"phi reverses the order on {[X.vertices[v] for v in inside]}")

    # X is flag, so f plus phi(min f) is a simplex iff phi(min f) is in f or adjacent to all
    # of it; a face is one index tuple in every chamber that holds it, as chambers are ordered
    reach = {i: closed[j] for i, j in to.items()}
    el = X.vertices
    failures = []
    seen = set()
    for s in X._chambers:
        for r in range(1, len(s) + 1):
            for f in combinations(s, r):
                if f[0] not in reach or f in seen:
                    continue
                seen.add(f)
                if sum(1 << i for i in f) & ~reach[f[0]]:
                    bottom = el[f[0]]
                    failures.append(Failure(bottom, "column", tuple(el[i] for i in f) + (phi[bottom],)))
    if not failures:
        for x in dom:
            if not P.lt(x, phi[x]):
                failures.append(Failure(x, "increasing", (x, phi[x])))
    if not failures:
        for x in dom:
            i, j = P._index[x], P._index[phi[x]]
            bowtie = find_bowtie(_restriction(P, (P._up[i] | 1 << i) & (P._down[j] | 1 << j)))
            if bowtie is not None:
                failures.append(Failure(x, "interval_lattice", bowtie))
    return P, failures


def check_garside(X, phi, assume_simply_connected=False):
    """Check the order-automorphism conditions for the pair (X, phi).

    phi may be a partial injective vertex map (finite truncations of periodic
    complexes have no total shift); every clause is checked wherever phi is
    defined.  Simple connectivity is never verified: the caller declares it.

    Clauses, in reporting order: (automorphism) phi preserves simplices and
    edge orientations; (column) sigma plus phi(min sigma) spans a simplex;
    (increasing) phi(x) > x; (interval-lattice) each [x, phi(x)] is a bounded
    lattice, that is, has no bowtie.
    """
    _, failures = _garside(X, phi)
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
    chain order.  Requires check_garside to pass.  Only the maximal chains
    of each [x0, phi(x0)) are mapped: no two elements of one orbit lie in
    such an interval, so every other chain maps into one of their simplices.
    """
    P, failures = _garside(X, phi)
    if failures:
        raise GarsideCheckFailed(f"garside conditions fail: {failures[0]}")

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
        i, j = P._index[x0], P._index[phi[x0]]
        interval = _restriction(P, (P._up[i] | 1 << i) & P._down[j])
        simplices += (tuple(orbit[v] for v in chain) for chain in interval.maximal_chains())
    vertices = sorted(set(orbit.values()), key=_key)
    return OrderedComplex("A", vertices, simplices)  # which rotates each chamber to start at its least label
