"""Canonical posets and complexes used throughout the test corpora.

All generators produce string labels and deterministic element orders, so
their JSON serializations are byte-stable.
"""

from __future__ import annotations

from itertools import combinations, product

from .complexes import OrderedComplex, maximal_cliques
from .errors import ParameterTooLarge
from .poset import Poset


def _check_range(where, name, value, lo, hi):
    """Raise unless lo <= value <= hi: ValueError below the range, ParameterTooLarge above the desk-scale one."""
    if not lo <= value <= hi:
        raise (ValueError if value < lo else ParameterTooLarge)(f"{where} supports {lo} <= {name} <= {hi}")


def _subset_label(s):
    return "{" + ",".join(str(i) for i in sorted(s)) + "}"


def boolean_poset(n):
    """Subsets of {1..n} ordered by inclusion: a bounded graded lattice of rank n."""
    _check_range("boolean_poset", "n", n, 0, 10)
    ground = range(1, n + 1)
    subsets = []
    for r in range(n + 1):
        subsets.extend(frozenset(c) for c in combinations(ground, r))
    labels = {s: _subset_label(s) for s in subsets}
    covers = [
        (labels[s], labels[s | {i}])
        for s in subsets
        for i in ground
        if i not in s
    ]
    return Poset.from_covers(labels.values(), covers)


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _is_noncrossing(blocks):
    for A, B in combinations(blocks, 2):
        merged = sorted((x, 0) for x in A) + sorted((x, 1) for x in B)
        merged.sort()
        runs = 1
        for (_, s), (_, t) in zip(merged, merged[1:]):
            if s != t:
                runs += 1
        if runs >= 4:  # pattern ABAB means the convex hulls cross
            return False
    return True


def _partition_label(blocks):
    blocks = sorted(tuple(sorted(b)) for b in blocks)
    return "|".join("".join(str(x) for x in b) for b in blocks)


def _refinement_covers(partitions):
    """Covers of a refinement order: merge two blocks, result staying in the family."""
    index = {_partition_label(p): p for p in partitions}
    covers = []
    for p in partitions:
        blocks = [frozenset(b) for b in p]
        for i, j in combinations(range(len(blocks)), 2):
            merged = [b for k, b in enumerate(blocks) if k not in (i, j)]
            merged.append(blocks[i] | blocks[j])
            lab = _partition_label(merged)
            if lab in index:
                covers.append((_partition_label(p), lab))
    return covers


def noncrossing_partitions(n):
    """Noncrossing partitions of the vertex set of a regular n-gon, by refinement.

    A bounded graded lattice of rank n - 1; NC(4) has the familiar 14 elements.
    """
    _check_range("noncrossing_partitions", "n", n, 1, 9)
    parts = [p for p in _set_partitions(list(range(1, n + 1))) if _is_noncrossing(p)]
    labels = [_partition_label(p) for p in parts]
    covers = _refinement_covers(parts)
    return Poset.from_covers(labels, covers)


def partition_lattice(n):
    """All partitions of {1..n} by refinement: a bounded graded lattice of rank n - 1."""
    _check_range("partition_lattice", "n", n, 1, 8)
    parts = list(_set_partitions(list(range(1, n + 1))))
    labels = [_partition_label(p) for p in parts]
    covers = _refinement_covers(parts)
    return Poset.from_covers(labels, covers)


# -- subspace lattices over small prime fields -------------------------------------


def _span(vectors, q, n):
    space = {(0,) * n}
    for v in vectors:
        if v in space:
            continue
        new = set()
        for w in space:
            for c in range(1, q):
                new.add(tuple((wi + c * vi) % q for wi, vi in zip(w, v)))
        space |= new
    return frozenset(space)


def subspace_poset(q, n):
    """All subspaces of F_q^n by inclusion, with bounds: a graded lattice of rank n."""
    _check_range("subspace_poset", "q", q, 2, 3)
    _check_range(f"subspace_poset with q = {q}", "n", n, 1, 4 if q == 2 else 3)
    vectors = [v for v in product(range(q), repeat=n)]
    nonzero = [v for v in vectors if any(v)]
    zero_space = frozenset({(0,) * n})
    by_dim = [{zero_space}]
    while True:
        current = by_dim[-1]
        bigger = set()
        for S in current:
            for v in nonzero:
                if v not in S:
                    bigger.add(_span(sorted(S | {v}), q, n))
        if not bigger:
            break
        by_dim.append(bigger)

    def label(S):
        vecs = sorted("".join(str(c) for c in v) for v in S if any(v))
        return "<" + ",".join(vecs) + ">" if vecs else "<0>"

    labels = {}
    for dim, spaces in enumerate(by_dim):
        for S in spaces:
            labels[S] = label(S)
    covers = []
    for dim in range(len(by_dim) - 1):
        for S in by_dim[dim]:
            for T in by_dim[dim + 1]:
                if S <= T:
                    covers.append((labels[S], labels[T]))
    return Poset.from_covers(labels.values(), covers)


# -- the affine type-A tiling patch ---------------------------------------------------


def _canon_class(v):
    m = min(v)
    return tuple(x - m for x in v)


def _class_label(v):
    return ",".join(str(x) for x in v)


def _patch_neighbors(v, n):
    out = set()
    for bits in product((0, 1), repeat=n + 1):
        if all(b == 0 for b in bits) or all(b == 1 for b in bits):
            continue
        out.add(_canon_class(tuple(x + b for x, b in zip(v, bits))))
    return out


def affine_A_patch(n, radius):
    """Ball of the affine type-A simplex tiling of R^n around the origin vertex.

    Vertices are integer vectors modulo the diagonal; each vertex has a type
    in Z/(n+1) (coordinate sum mod n+1) and the cyclic order on every simplex
    is the type order.  radius counts steps in the 1-skeleton.
    """
    _check_range("affine_A_patch", "n", n, 1, 4)
    _check_range("affine_A_patch", "radius", radius, 0, 3)
    origin = (0,) * (n + 1)
    ball = {origin}
    frontier = {origin}
    for _ in range(radius):
        nxt = set()
        for v in frontier:
            nxt |= _patch_neighbors(v, n)
        frontier = nxt - ball
        ball |= nxt
    adjacency = {
        v: frozenset(w for w in _patch_neighbors(v, n) if w in ball) for v in ball
    }

    def vertex_type(v):
        return sum(v) % (n + 1)

    labels = {v: _class_label(v) for v in ball}
    adj_labeled = {labels[v]: frozenset(labels[w] for w in adjacency[v]) for v in ball}
    sims = []
    for clique in maximal_cliques(list(adj_labeled), adj_labeled):
        back = {labels[v]: v for v in ball}
        ordered = sorted(clique, key=lambda lab: (vertex_type(back[lab]), lab))
        sims.append(tuple(ordered))
    return OrderedComplex("A", list(adj_labeled), sims)


# -- the column of orthoschemes -------------------------------------------------------


def _column_vertex(n, i):
    m, s = divmod(i, n + 1)
    return tuple(m + (1 if k < s else 0) for k in range(n + 1))


def column_complex(n, depth):
    """Truncation of the infinite column of (n+1)-orthoschemes, as a type-C complex.

    Vertices are the integer vectors m*(1,..,1) + (1,..,1,0,..,0); the cells
    with defining level |q| <= depth are the windows of n+2 consecutive
    vertices of the total order.
    """
    _check_range("column_complex", "n", n, 1, 4)
    _check_range("column_complex", "depth", depth, 0, 4)
    lo = -(depth + 1) * (n + 1)
    hi = depth * (n + 1) + n
    labels = {i: _class_label(_column_vertex(n, i)) for i in range(lo, hi + 1)}
    sims = [
        tuple(labels[j] for j in range(i, i + n + 2))
        for i in range(lo, hi - n)
    ]
    return OrderedComplex("C", list(labels.values()), sims)


def column_shift(n, depth):
    """The diagonal shift on column_complex(n, depth) vertices, as a partial map."""
    lo = -(depth + 1) * (n + 1)
    hi = depth * (n + 1) + n
    return {
        _class_label(_column_vertex(n, i)): _class_label(_column_vertex(n, i + n + 1))
        for i in range(lo, hi - n)
    }


def integer_line(k):
    """Path complex on 0..k with edges oriented upward (type C)."""
    labels = [str(i) for i in range(k + 1)]
    return OrderedComplex("C", labels, [(labels[i], labels[i + 1]) for i in range(k)])


def line_shift(k):
    """Shift by one on the integer line, as a partial vertex map."""
    return {str(i): str(i + 1) for i in range(k)}


# -- random ranked posets for oracle tests ----------------------------------------------


def random_ranked_poset(rng, max_elements=12):
    """A random graded poset built level by level.

    Every element above the bottom level has at least one lower cover on the
    level directly beneath it, so all covers span consecutive levels and the
    longest-chain rank is a grading.
    """
    levels = rng.randint(1, 4)
    sizes = []
    remaining = rng.randint(1, max_elements)
    for i in range(levels):
        if remaining <= 0:
            break
        take = rng.randint(1, max(1, remaining // max(1, levels - i)))
        sizes.append(take)
        remaining -= take
    labels = []
    by_level = []
    for lev, size in enumerate(sizes):
        row = [f"v{lev}_{i}" for i in range(size)]
        by_level.append(row)
        labels.extend(row)
    covers = []
    for lev in range(1, len(by_level)):
        for x in by_level[lev]:
            parents = rng.sample(by_level[lev - 1], rng.randint(1, len(by_level[lev - 1])))
            covers.extend((p, x) for p in parents)
    return Poset.from_covers(labels, covers)
