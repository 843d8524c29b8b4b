"""Simple simplices of finite permutation groups and their local developments.

Vertices are cyclically indexed; each vertex i carries an ambient permutation
group and, for every face index set I containing i, the image of the face
group inside it.  Condition checks run over group elements exactly.  A group
is closed, and a face group tested for product-closure, by growing it from
its generators, each element composed once with each generator taken; a
product of two face groups is formed coset by coset.  On the symmetric
group of degree 6 (720 elements) the build takes about 0.04 s, reading it
from JSON about 0.07 s, and the conditions 0.5-0.6 s (CPython 3.11, one
core of a 2-core x86-64 machine shared with other tenants).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

from .complexes import OrderedComplex, _clique_masks
from .errors import IncompatibleInclusions, NotASubgroup, ParameterTooLarge, UnknownLabel
from .generators import _check_range
from .poset import _bits

# permutations are tuples in one-line notation over 0..degree-1

MAX_ORDER = 720  # the largest group a simplex of groups admits: the order of the symmetric group of degree 6


def identity(degree):
    return tuple(range(degree))


def compose(p, q):
    """Apply q first, then p."""
    return tuple(map(p.__getitem__, q))


def inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _grow(one, generators):
    """Each element of the group generated by the permutations, as it is found, the identity one first.

    Generator by generator, as in Dimino's algorithm (Holt, Eick and O'Brien,
    "Handbook of computational group theory", 2005): a generator not yet in
    the group found so far is taken and multiplies the elements found so far,
    and each new element is multiplied by the generators taken so far.  So
    each element is composed once with each generator taken.
    """
    found, taken = {one}, []
    yield one
    for g in generators:
        if g in found:
            continue
        taken.append(g)
        todo = [(x, (g,)) for x in found]  # each element with the generators it still meets
        while todo:
            x, gens = todo.pop()
            for t in gens:
                y = compose(t, x)
                if y not in found:
                    found.add(y)
                    todo.append((y, taken))
                    yield y


def closure(degree, generators, name="the group"):
    """The subgroup generated by the given permutations, as a frozenset.

    Raise ParameterTooLarge, naming the group, as soon as it passes
    MAX_ORDER elements, after at most MAX_ORDER products per generator.
    """
    gens = [tuple(g) for g in generators]
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise ValueError(f"{g} is not a permutation of degree {degree}")
    elements = frozenset(islice(_grow(identity(degree), gens), MAX_ORDER + 1))
    if len(elements) > MAX_ORDER:
        raise ParameterTooLarge(f"{name} has more than {MAX_ORDER} elements")
    return elements


def symmetric_group(degree):
    if degree <= 1:
        return closure(degree, [])
    swap = list(range(degree))
    swap[0], swap[1] = 1, 0
    cycle = tuple(list(range(1, degree)) + [0])
    return closure(degree, [tuple(swap), cycle])


def set_stabilizer(group, subset):
    subset = set(subset)
    return frozenset(g for g in group if {g[x] for x in subset} == subset)


def _product(A, B):
    """The product set AB of two subgroups, the union of the cosets aB: an a already in it adds none.

    So it takes |AB| compositions, not |A| |B|.
    """
    out = set()
    for a in A:
        if a not in out:
            out.update([compose(a, b) for b in B])
    return out


def left_cosets(group, subgroup):
    """Left cosets g*subgroup, keyed by their minimal representative."""
    seen = set()
    cosets = {}
    for g in sorted(group):
        if g in seen:
            continue
        coset = frozenset(compose(g, h) for h in subgroup)
        seen |= coset
        cosets[min(coset)] = coset
    return cosets


def _perm_label(p):
    return "".join(str(x) for x in p)


def _check_face_key(n, i, I):
    if len(I) < 2 or i not in I or not I <= set(range(n)):  # (i, {i}) is the vertex group, not a face
        raise UnknownLabel(f"face key ({i}, {sorted(I)}) is malformed")


def _check_size(n):
    if n > 8:
        raise ParameterTooLarge(f"a simplex of groups supports n <= 8 vertices, not {n}")


class SimplexOfGroups:
    """A simple simplex of groups over cyclically indexed vertices.

    face_groups maps (vertex, frozenset index set) to the element set of the
    face group's image in that vertex group.  Index sets of size three or
    more default to the intersection of their pair groups when omitted.
    The table holds n * 2^(n-1) faces, compared in pairs at each vertex,
    so n is limited to 8 (1,024 faces).  The conditions compose pairs of
    elements, so a group is limited to 720 elements, the order of the
    symmetric group of degree 6; from_json refuses a larger one while it
    closes it, once it passes 720.  A face group, nonempty and
    inverse-closed by then, is product-closed exactly when the group grown
    from its elements in sorted order stays inside it; the growth stops at
    the first element outside.
    """

    def __init__(self, n, vertex_groups, face_groups):
        if n < 2:
            raise ValueError("a simplex of groups needs at least 2 vertices")
        _check_size(n)
        self.n = n
        self.vertex_groups = [frozenset(map(tuple, g)) for g in vertex_groups]
        if len(self.vertex_groups) != n:
            raise ValueError("one ambient group per vertex is required")

        table = {}
        for (i, I), elements in face_groups.items():
            I = frozenset(I)
            _check_face_key(n, i, I)
            if (i, I) in table:  # else the later naming would win, and the key order decide the verdict
                raise ValueError(f"face {sorted(I)} at vertex {i} is named twice")
            table[(i, I)] = frozenset(map(tuple, elements))
        for i in range(n):
            table[(i, frozenset({i}))] = self.vertex_groups[i]
            for j in range(n):
                if j != i and (i, frozenset({i, j})) not in table:
                    raise UnknownLabel(f"missing pair group for vertices {i}, {j}")
        for i in range(n):
            others = [j for j in range(n) if j != i]
            for size in range(2, n):
                for rest in combinations(others, size):
                    I = frozenset({i, *rest})
                    if (i, I) not in table:
                        meet = self.vertex_groups[i]
                        for j in rest:
                            meet &= table[(i, frozenset({i, j}))]
                        table[(i, I)] = meet
        self.face_groups = table

        for (i, I), elements in table.items():
            if len(elements) > MAX_ORDER:
                raise ParameterTooLarge(
                    f"face {sorted(I)} at vertex {i} has {len(elements)} elements, more than {MAX_ORDER}")
        for (i, I), elements in table.items():
            if not elements <= self.vertex_groups[i]:
                raise NotASubgroup(f"group of face {sorted(I)} is not inside vertex group {i}")
            if not {inverse(g) for g in elements} <= elements:
                raise NotASubgroup(f"face {sorted(I)} at vertex {i} is not inverse-closed")
            grown = _grow(identity(len(min(elements))), sorted(elements)) if elements else ()
            if not all(map(elements.__contains__, grown)):
                raise NotASubgroup(f"face {sorted(I)} at vertex {i} is not product-closed")
            if not elements:
                raise NotASubgroup(f"face {sorted(I)} at vertex {i} is empty")
        at = [[] for _ in range(n)]  # the faces at each vertex, in table order
        for i, I in table:
            at[i].append(I)
        for (i, I), elements in table.items():
            for J in at[i]:
                if I < J and not table[(i, J)] <= elements:
                    raise IncompatibleInclusions(
                        f"face {sorted(J)} is not contained in face {sorted(I)} at vertex {i}"
                    )

    def group(self, i, I):
        return self.face_groups[(i, frozenset(I))]

    def walk(self, i):
        """The other vertices in cyclic order starting after i."""
        return [(i + t) % self.n for t in range(1, self.n)]

    def to_json(self):
        out_faces = {}
        for (i, I), elements in sorted(self.face_groups.items(), key=lambda kv: (kv[0][0], sorted(kv[0][1]))):
            if len(I) == 1:
                continue
            key = f"{i}|{','.join(map(str, sorted(I)))}"
            out_faces[key] = [list(g) for g in sorted(elements)]
        return {
            "n": self.n,
            "vertex_groups": [
                {"degree": len(next(iter(g))) if g else 0, "generators": [list(x) for x in sorted(g)]}
                for g in self.vertex_groups
            ],
            "face_subgroups": out_faces,
        }

    @classmethod
    def from_json(cls, data):
        n = data["n"]
        _check_size(n)  # before any group is closed
        for vg in data["vertex_groups"]:
            _check_range("a vertex group", "degree", vg["degree"], 0, 8)
        vertex_groups = [closure(vg["degree"], vg["generators"], f"face [{i}] at vertex {i}")
                         for i, vg in enumerate(data["vertex_groups"])]
        face_groups = {}
        for key, gens in data["face_subgroups"].items():
            head, _, idx = key.partition("|")
            i, indices = int(head), [int(t) for t in idx.split(",")]
            I = frozenset(indices)
            if len(I) < len(indices):
                raise ValueError(f"face key {key!r} repeats an index")
            _check_face_key(n, i, I)
            if i >= len(vertex_groups):  # __init__'s check, before the index below
                raise ValueError("one ambient group per vertex is required")
            degree = data["vertex_groups"][i]["degree"]
            # keyed as written, so that __init__ refuses a face two keys name
            face_groups[(i, tuple(indices))] = closure(degree, gens, f"face {sorted(I)} at vertex {i}")
        return cls(n, vertex_groups, face_groups)


@dataclass(frozen=True)
class ConditionFailure:
    condition: str
    vertex: int
    detail: dict

    def to_json(self):
        return {"condition": self.condition, "vertex": self.vertex, "detail": self.detail}


@dataclass(frozen=True)
class ConditionsReport:
    passed: bool
    failures: tuple

    def to_json(self):
        return {
            "property": "simplex_of_groups_conditions",
            "holds": self.passed,
            "witness": None if self.passed else [f.to_json() for f in self.failures],
        }


def _intersection_failures(S):
    """(intersection) the group of I meets the group of J in the group of I union J."""
    for i in range(S.n):
        sets_at_i = sorted((I for (v, I) in S.face_groups if v == i), key=lambda I: (len(I), sorted(I)))
        for I, J in combinations(sets_at_i, 2):
            meet, face = S.group(i, I) & S.group(i, J), S.group(i, I | J)
            if meet != face:
                detail = {"I": sorted(I), "J": sorted(J), "element": _perm_label(min(meet ^ face))}
                yield ConditionFailure("intersection", i, detail)


def _product_failures(S):
    """(product) each middle pair group lies in the product of the outer two."""
    for i in range(S.n):
        for j, k, l in combinations(S.walk(i), 3):
            missing = S.group(i, {i, k}) - _product(S.group(i, {i, j}), S.group(i, {i, l}))
            if missing:
                detail = {"j": j, "k": k, "l": l, "element": _perm_label(min(missing))}
                yield ConditionFailure("product", i, detail)


def _factorization_failures(S):
    """(factorization) every identity product a b a' b' is harmless.

    Here a, a' lie in the pair group G_ij and b, b' in G_ik, for j before k
    in the walk at i.  A completing a' for a and b exists exactly when ab
    lies in the product set G_ik G_ij, since ab a' = b'^-1 lies in G_ik and
    G_ij is inverse-closed; so a' itself is searched for only to name a
    witness.  The quadruple spans the cosets G_ij, abG_ij below aG_ik, G_ik.
    It is harmless when these coincide in pairs (a in G_ik or ab in G_ij),
    or when a middle coset, at a level strictly between j and k, meets all
    four.
    """
    for i in range(S.n):
        walk = S.walk(i)
        cosets = {l: left_cosets(S.vertex_groups[i], S.group(i, {i, l})).values() for l in walk}
        coset_of = {l: {g: c for c in cosets[l] for g in c} for l in walk}
        for pos_j, pos_k in combinations(range(len(walk)), 2):
            j, k = walk[pos_j], walk[pos_k]
            Gij, Gik = S.group(i, {i, j}), S.group(i, {i, k})
            completable = _product(Gik, Gij)
            middles = [m for l in walk[pos_j + 1:pos_k] for m in cosets[l] if m & Gij and m & Gik]
            for a in Gij:
                if a in Gik:
                    continue
                a_coset = coset_of[k][a]
                for b in Gik:
                    ab = compose(a, b)
                    if ab in Gij or ab not in completable:
                        continue
                    ab_coset = coset_of[j][ab]
                    if any(m & ab_coset and m & a_coset for m in middles):
                        continue
                    a2 = next(a2 for a2 in Gij if inverse(compose(ab, a2)) in Gik)
                    detail = {"j": j, "k": k, "a": _perm_label(a), "b": _perm_label(b),
                              "a'": _perm_label(a2), "b'": _perm_label(inverse(compose(ab, a2)))}
                    yield ConditionFailure("factorization", i, detail)


def check_conditions(S):
    """Check the three developability conditions (Bridson-Haefliger, II.12).

    Reports the first witness of each condition, in the order intersection,
    product, factorization.
    """
    clauses = (_intersection_failures, _product_failures, _factorization_failures)
    failures = tuple(f for f in (next(clause(S), None) for clause in clauses) if f is not None)
    return ConditionsReport(not failures, failures)


def local_development(S, i):
    """The coset complex at vertex i, as a cyclically ordered flag complex.

    Vertices are the base vertex plus the left cosets of each pair group;
    two cosets are adjacent when they intersect, and the cyclic order runs
    along the walk order of the types at i.  Index 0 is the base and the
    cosets follow by walk position; the cosets of one position are
    disjoint, so a clique holds at most one of them and its indices ascend
    in its cyclic order.  The vertices through one element, the base and
    one coset per position, are pairwise adjacent, and every adjacent pair
    is such a pair.
    """
    G = S.vertex_groups[i]
    vertices, through = ["G"], {g: 1 for g in G}  # the base, and the mask of the vertices through each element
    for j in S.walk(i):
        for rep, coset in left_cosets(G, S.group(i, {i, j})).items():
            for g in coset:
                through[g] |= 1 << len(vertices)
            vertices.append(f"{j}:{_perm_label(rep)}")
    adjacency = [0] * len(vertices)
    for mask in through.values():
        for k in _bits(mask):
            adjacency[k] |= mask
    cliques = _clique_masks([m & ~(1 << k) for k, m in enumerate(adjacency)])
    return OrderedComplex("A", vertices, [tuple(map(vertices.__getitem__, _bits(c))) for c in cliques])


# -- canonical examples ----------------------------------------------------------------


def s4_simplex():
    """The 3-simplex of groups with all vertex groups the symmetric group on 4 letters.

    The pair group toward the j-th next vertex is the set stabilizer of the
    first j letters; larger faces are the intersections of their pairs.
    """
    S4 = symmetric_group(4)
    vertex_groups = [S4] * 4
    face_groups = {}
    for i in range(4):
        for t in range(1, 4):
            j = (i + t) % 4
            face_groups[(i, frozenset({i, j}))] = set_stabilizer(S4, range(t))
    return SimplexOfGroups(4, vertex_groups, face_groups)


def trivial_simplex(n):
    one = closure(1, [])
    face_groups = {}
    for i in range(n):
        for j in range(n):
            if j != i:
                face_groups[(i, frozenset({i, j}))] = one
    return SimplexOfGroups(n, [one] * n, face_groups)


def intersection_violation():
    """Condition (intersection) fails: the triple group is smaller than the pair meet."""
    c2 = closure(2, [(1, 0)])
    one2 = closure(2, [])
    one = closure(1, [])
    face_groups = {
        (0, frozenset({0, 1})): c2,
        (0, frozenset({0, 2})): c2,
        (0, frozenset({0, 1, 2})): one2,
        (1, frozenset({0, 1})): one,
        (1, frozenset({1, 2})): one,
        (2, frozenset({0, 2})): one,
        (2, frozenset({1, 2})): one,
    }
    return SimplexOfGroups(3, [c2, one, one], face_groups)


def product_violation():
    """Condition (product) fails: the middle pair group escapes the outer product."""
    c2 = closure(2, [(1, 0)])
    one2 = closure(2, [])
    one = closure(1, [])
    face_groups = {(0, frozenset({0, 1})): one2,
                   (0, frozenset({0, 2})): c2,
                   (0, frozenset({0, 3})): one2}
    for i in range(1, 4):
        for j in range(4):
            if j != i:
                face_groups.setdefault((i, frozenset({i, j})), one)
    return SimplexOfGroups(4, [c2, one, one, one], face_groups)


def factorization_violation():
    """Condition (factorization) fails: a reflection and a rotation trade off."""
    s3 = symmetric_group(3)
    refl = closure(3, [(1, 0, 2)])
    rot = closure(3, [(1, 2, 0)])
    one = closure(1, [])
    face_groups = {
        (0, frozenset({0, 1})): refl,
        (0, frozenset({0, 2})): rot,
        (1, frozenset({0, 1})): one,
        (1, frozenset({1, 2})): one,
        (2, frozenset({0, 2})): one,
        (2, frozenset({1, 2})): one,
    }
    return SimplexOfGroups(3, [s3, one, one], face_groups)
