"""Canonical posets and complexes used throughout the test corpora.

All generators produce string labels and deterministic element orders, so
their JSON serializations are byte-stable.
"""

from __future__ import annotations

from itertools import accumulate, combinations, permutations, product
from operator import add

from .complexes import OrderedComplex
from .errors import ParameterTooLarge
from .poset import Poset, _bits


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


def _set_partitions(n):
    """All partitions of 1..n as tuples of block masks, each tuple in order of least element.

    Element x joins a block or opens one; a block it opens has the largest
    least element so far, so it goes last.
    """
    parts = [()]
    for x in range(1, n + 1):
        bit = 1 << x
        parts = [p[:i] + (p[i] | bit,) + p[i + 1:] for p in parts for i in range(len(p))] + [p + (bit,) for p in parts]
    return parts


def _noncrossing(lo, hi, memo):
    """Noncrossing partitions of lo..hi as tuples of block masks, each tuple in order of least element.

    The block of lo cuts the rest into gaps, the runs between its elements
    and after its last one; no other block joins two gaps, so a partition is
    that block followed by one partition of each gap (Kreweras 1972).
    """
    if lo > hi:
        return [()]
    if (lo, hi) not in memo:
        out = []
        for rest in range(1 << hi - lo):
            block = 1 << lo | rest << lo + 1
            parts = [()]
            start = lo + 1
            for b in range(lo + 1, hi + 2):
                if b > hi or block >> b & 1:
                    parts = [p + q for p in parts for q in _noncrossing(start, b - 1, memo)]
                    start = b + 1
            out += [(block, *p) for p in parts]
        memo[lo, hi] = out
    return memo[lo, hi]


def _refinement_covers(partitions):
    """Labels and covers of a refinement order on partitions given as tuples of block masks by least element.

    Merging blocks i < j keeps that order, so the merged tuple is found by
    slicing; it covers the partition if it is in the family.
    """
    block_labels = {}
    labels = {}
    for p in partitions:
        for m in p:
            if m not in block_labels:
                block_labels[m] = "".join(str(x) for x in _bits(m))
        labels[p] = "|".join(block_labels[m] for m in p)
    covers = []
    for p, lab in labels.items():
        for j in range(1, len(p)):
            for i in range(j):
                merged = labels.get(p[:i] + (p[i] | p[j],) + p[i + 1:j] + p[j + 1:])
                if merged is not None:
                    covers.append((lab, merged))
    return labels.values(), covers


def noncrossing_partitions(n):
    """Noncrossing partitions of the vertex set of a regular n-gon, by refinement.

    A bounded graded lattice of rank n - 1; NC(4) has the familiar 14 elements.
    """
    _check_range("noncrossing_partitions", "n", n, 1, 10)
    return Poset.from_covers(*_refinement_covers(_noncrossing(1, n, {})))


def partition_lattice(n):
    """All partitions of {1..n} by refinement: a bounded graded lattice of rank n - 1."""
    _check_range("partition_lattice", "n", n, 1, 8)
    return Poset.from_covers(*_refinement_covers(_set_partitions(n)))


# -- subspace lattices over small prime fields -------------------------------------


def subspace_poset(q, n):
    """All subspaces of F_q^n by inclusion, with bounds: a graded lattice of rank n.

    The vectors are numbered in label order and a subspace is the mask of
    its vectors.  Each subspace S is extended by every v outside it to
    S + <v>, the union of the lines s + c·v through its points; those are
    its upper covers, and each holds every v it was reached by.
    """
    _check_range("subspace_poset", "q", q, 2, 3)
    _check_range(f"subspace_poset with q = {q}", "n", n, 1, 4 if q == 2 else 3)
    vectors = list(product(range(q), repeat=n))
    index = {v: k for k, v in enumerate(vectors)}
    names = ["".join(map(str, v)) for v in vectors]
    lines = [[sum(1 << index[tuple((a + c * b) % q for a, b in zip(u, v))] for c in range(q)) for v in vectors]
             for u in vectors]
    labels = {1: "<0>"}
    covers = []
    level = [1]
    while level:
        bigger = []
        for S in level:
            seen = S
            for v in range(len(vectors)):
                if not seen >> v & 1:
                    T = 0
                    for s in _bits(S):
                        T |= lines[s][v]
                    seen |= T
                    if T not in labels:
                        labels[T] = "<" + ",".join(names[k] for k in _bits(T & ~1)) + ">"
                        bigger.append(T)
                    covers.append((labels[S], labels[T]))
        level = bigger
    return Poset.from_covers(labels.values(), covers)


# -- the affine type-A tiling patch ---------------------------------------------------


def _canon_class(v):
    m = min(v)
    return tuple(x - m for x in v)


def _class_label(v):
    return ",".join(str(x) for x in v)


def affine_A_patch(n, radius):
    """Ball of the affine type-A simplex tiling of R^n around the origin vertex.

    Vertices are integer vectors modulo the diagonal, each kept with least
    coordinate 0; each vertex has a type in Z/(n+1) (coordinate sum mod n+1)
    and the cyclic order on every simplex is the type order.  radius counts
    steps in the 1-skeleton.

    A step adds a 0/1 vector other than 0 and the diagonal, so it moves
    max - min by at most one, and v is max(v) steps from the origin: the
    ball is {v : max(v) <= radius}.  The walls x_i - x_j = radius bound it,
    so its chambers are the alcoves inside it.  An alcove is one type-0
    vertex t and t + e_s(1) + ... + e_s(k) for k = 1..n and a permutation s
    of the coordinates, already in type order.
    """
    _check_range("affine_A_patch", "n", n, 1, 4)
    _check_range("affine_A_patch", "radius", radius, 0, 3)
    ball = [v for v in product(range(radius + 1), repeat=n + 1) if 0 in v]
    labels = {v: _class_label(v) for v in ball}
    steps = [tuple(mask >> i & 1 for i in range(n + 1)) for mask in range(1 << n + 1)]
    chains = [tuple(accumulate(1 << i for i in s))[:-1] for s in permutations(range(n + 1))]
    sims = []
    for t in ball:
        if sum(t) % (n + 1) == 0:
            near = [labels.get(_canon_class(tuple(map(add, t, step)))) for step in steps]
            for chain in chains:
                sim = [near[mask] for mask in chain]
                if None not in sim:
                    sims.append((labels[t], *sim))
    return OrderedComplex("A", labels.values(), sims)


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
