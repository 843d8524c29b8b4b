"""Simplices of groups: condition checks, developments, and the full pipeline."""

import random
from collections import Counter
from itertools import combinations

import pytest

from cublink.complexes import validate
from cublink.errors import IncompatibleInclusions, NotASubgroup, UnknownLabel
from cublink.groupdev import (
    ConditionFailure,
    ConditionsReport,
    SimplexOfGroups,
    _perm_label,
    check_conditions,
    closure,
    compose,
    factorization_violation,
    intersection_violation,
    inverse,
    left_cosets,
    local_development,
    product_violation,
    s4_simplex,
    set_stabilizer,
    symmetric_group,
    trivial_simplex,
)
from cublink.linkcheck import check_type_A
from cublink.complexes import star_poset
from cublink.poset import find_bowtie


def test_symmetric_group_orders():
    assert len(symmetric_group(3)) == 6
    assert len(symmetric_group(4)) == 24


def test_stabilizer_sizes():
    S4 = symmetric_group(4)
    assert len(set_stabilizer(S4, [0])) == 6
    assert len(set_stabilizer(S4, [0, 1])) == 4
    assert len(set_stabilizer(S4, [0, 1, 2])) == 6


def test_coset_partition_is_lagrange_exact():
    S4 = symmetric_group(4)
    H = set_stabilizer(S4, [0, 1])
    cosets = left_cosets(S4, H)
    assert len(cosets) * len(H) == len(S4)
    union = set()
    for coset in cosets.values():
        assert len(coset) == len(H)
        union |= coset
    assert union == set(S4)


def test_validation_rejects_non_subgroup():
    c2 = closure(2, [(1, 0)])
    one2 = closure(2, [])
    with pytest.raises(NotASubgroup):
        SimplexOfGroups(
            2,
            [one2, one2],
            {(0, frozenset({0, 1})): c2, (1, frozenset({0, 1})): one2},
        )
    # the empty set is inverse- and product-closed, but no group
    with pytest.raises(NotASubgroup, match=r"face \[0, 1\] at vertex 0 is empty"):
        SimplexOfGroups(2, [c2, one2], {(0, frozenset({0, 1})): frozenset(), (1, frozenset({0, 1})): one2})


def test_validation_rejects_non_monotone():
    s3 = symmetric_group(3)
    refl = closure(3, [(1, 0, 2)])
    rot = closure(3, [(1, 2, 0)])
    one = closure(1, [])
    with pytest.raises(IncompatibleInclusions):
        SimplexOfGroups(
            3,
            [s3, one, one],
            {
                (0, frozenset({0, 1})): refl,
                (0, frozenset({0, 2})): refl,
                (0, frozenset({0, 1, 2})): rot,  # not inside either pair group
                (1, frozenset({0, 1})): one,
                (1, frozenset({1, 2})): one,
                (2, frozenset({0, 2})): one,
                (2, frozenset({1, 2})): one,
            },
        )


def test_missing_pair_group_rejected():
    one = closure(1, [])
    with pytest.raises(UnknownLabel):
        SimplexOfGroups(3, [one, one, one], {(0, frozenset({0, 1})): one})


# -- the canonical example ---------------------------------------------------------


def test_s4_conditions_pass():
    report = check_conditions(s4_simplex())
    assert report.passed, report.to_json()


def test_trivial_simplex_passes_vacuously():
    assert check_conditions(trivial_simplex(4)).passed


def test_s4_development_shape():
    S = s4_simplex()
    dev = local_development(S, 0)
    assert len(dev.vertices) == 1 + 4 + 6 + 4
    validate(dev)
    sp = star_poset(dev, "G")
    assert find_bowtie(sp.poset) is None
    assert sp.poset.is_meet_semilattice()


def test_s4_development_passes_type_a_everywhere():
    S = s4_simplex()
    for i in range(4):
        verdict = check_type_A(local_development(S, i))
        assert verdict.passed, verdict.to_json()


def test_trivial_development_is_one_simplex():
    S = trivial_simplex(4)
    dev = local_development(S, 1)
    assert len(dev.maximal_simplices) == 1
    assert len(dev.maximal_simplices[0]) == 4


def test_development_is_vertex_transitive_under_group_action():
    S = s4_simplex()
    dev = local_development(S, 0)
    G = sorted(S.vertex_groups[0])
    rng = random.Random(11)
    edges = {frozenset(e) for e in dev.edges()}
    cosets = {}
    for j in (1, 2, 3):
        for rep, coset in left_cosets(S.vertex_groups[0], S.group(0, {0, j})).items():
            cosets[f"{j}:{''.join(map(str, rep))}"] = (j, coset)

    def act(g, label):
        if label == "G":
            return "G"
        j, coset = cosets[label]
        moved = frozenset(compose(g, h) for h in coset)
        rep = min(moved)
        return f"{j}:{''.join(map(str, rep))}"

    for g in rng.sample(G, 6):
        mapped = {frozenset({act(g, a), act(g, b)}) for a, b in edges}
        assert mapped == edges


# -- constructed violations -----------------------------------------------------------


def test_intersection_violation_detected():
    report = check_conditions(intersection_violation())
    assert not report.passed
    assert report.failures[0].condition == "intersection"
    assert report.failures[0].vertex == 0
    assert report.to_json()["witness"] == [
        {"condition": "intersection", "vertex": 0, "detail": {"I": [0, 1], "J": [0, 2], "element": "10"}}
    ]


def test_product_violation_detected():
    report = check_conditions(product_violation())
    assert not report.passed
    assert [f.condition for f in report.failures] == ["product"]
    assert report.to_json()["witness"] == [
        {"condition": "product", "vertex": 0, "detail": {"j": 1, "k": 2, "l": 3, "element": "10"}}
    ]


def test_factorization_violation_detected():
    report = check_conditions(factorization_violation())
    assert not report.passed
    assert [f.condition for f in report.failures] == ["factorization"]
    detail = report.failures[0].detail
    assert detail["j"] == 1 and detail["k"] == 2
    assert report.to_json()["witness"] == [
        {
            "condition": "factorization",
            "vertex": 0,
            "detail": {"j": 1, "k": 2, "a": "102", "b": "201", "a'": "102", "b'": "201"},
        }
    ]


def test_failing_development_pipeline():
    # the factorization violation produces a complete-bipartite star at the
    # base vertex, which the type-A check rejects with a bowtie
    S = factorization_violation()
    dev = local_development(S, 0)
    verdict = check_type_A(dev)
    assert not verdict.passed
    assert verdict.failures[0].condition == "lattice"


def test_json_round_trip():
    S = s4_simplex()
    data = S.to_json()
    T = SimplexOfGroups.from_json(data)
    assert T.face_groups == S.face_groups
    assert check_conditions(T).passed


# -- the exhaustive reference ---------------------------------------------------------


class SimplexOfGroupsBySearch(SimplexOfGroups):
    """SimplexOfGroups validated element by element, the reference for the set-product checks."""

    def __init__(self, n, vertex_groups, face_groups):
        if n < 2:
            raise ValueError("a simplex of groups needs at least 2 vertices")
        self.n = n
        self.vertex_groups = [frozenset(map(tuple, g)) for g in vertex_groups]
        if len(self.vertex_groups) != n:
            raise ValueError("one ambient group per vertex is required")

        table = {}
        for (i, I), elements in face_groups.items():
            I = frozenset(I)
            if i not in I or not I <= set(range(n)):
                raise UnknownLabel(f"face key ({i}, {sorted(I)}) is malformed")
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
            if not elements <= self.vertex_groups[i]:
                raise NotASubgroup(f"group of face {sorted(I)} is not inside vertex group {i}")
            for g in elements:
                if inverse(g) not in elements:
                    raise NotASubgroup(f"face {sorted(I)} at vertex {i} is not inverse-closed")
            for g in elements:
                for h in elements:
                    if compose(g, h) not in elements:
                        raise NotASubgroup(f"face {sorted(I)} at vertex {i} is not product-closed")
        for (i, I), elements in table.items():
            for (i2, J), bigger in table.items():
                if i2 == i and I < J and not table[(i, J)] <= elements:
                    raise IncompatibleInclusions(
                        f"face {sorted(J)} is not contained in face {sorted(I)} at vertex {i}"
                    )


def check_conditions_by_search(S):
    """The three conditions by exhaustion: a completing a' searched for every a, b, cosets built per pair."""
    failures = []

    for i in range(S.n):
        sets_at_i = sorted(
            (I for (v, I) in S.face_groups if v == i), key=lambda I: (len(I), sorted(I))
        )
        hit = None
        for I, J in combinations(sets_at_i, 2):
            union = I | J
            if S.group(i, I) & S.group(i, J) != S.group(i, union):
                diff = (S.group(i, I) & S.group(i, J)) ^ S.group(i, union)
                hit = ConditionFailure(
                    "intersection",
                    i,
                    {
                        "I": sorted(I),
                        "J": sorted(J),
                        "element": _perm_label(min(diff)),
                    },
                )
                break
        if hit:
            failures.append(hit)
            break

    for i in range(S.n):
        walk = S.walk(i)
        hit = None
        for j, k, l in combinations(walk, 3):
            product_set = {
                compose(a, b)
                for a in S.group(i, {i, j})
                for b in S.group(i, {i, l})
            }
            missing = S.group(i, {i, k}) - product_set
            if missing:
                hit = ConditionFailure(
                    "product",
                    i,
                    {"j": j, "k": k, "l": l, "element": _perm_label(min(missing))},
                )
                break
        if hit:
            failures.append(hit)
            break

    for i in range(S.n):
        walk = S.walk(i)
        G = S.vertex_groups[i]
        hit = None
        for pos_j, pos_k in combinations(range(len(walk)), 2):
            j, k = walk[pos_j], walk[pos_k]
            Gij, Gik = S.group(i, {i, j}), S.group(i, {i, k})
            middles = []
            for l in walk[pos_j + 1:pos_k]:
                middles.extend(left_cosets(G, S.group(i, {i, l})).values())
            for a in Gij:
                if a in Gik:
                    continue
                for b in Gik:
                    ab = compose(a, b)
                    if ab in Gij:
                        continue
                    completing = next(
                        (a2 for a2 in Gij if inverse(compose(ab, a2)) in Gik), None
                    )
                    if completing is None:
                        continue
                    # the quadruple spans the cosets G_ij, abG_ij below
                    # aG_ik, G_ik; it is harmless exactly when a middle coset
                    # at a level strictly between j and k meets all four
                    a_coset = frozenset(compose(a, g) for g in Gik)
                    ab_coset = frozenset(compose(ab, g) for g in Gij)
                    if any(
                        m & Gij and m & ab_coset and m & Gik and m & a_coset
                        for m in middles
                    ):
                        continue
                    hit = ConditionFailure(
                        "factorization",
                        i,
                        {
                            "j": j,
                            "k": k,
                            "a": _perm_label(a),
                            "b": _perm_label(b),
                            "a'": _perm_label(completing),
                            "b'": _perm_label(inverse(compose(ab, completing))),
                        },
                    )
                    break
                if hit:
                    break
            if hit:
                break
        if hit:
            failures.append(hit)
            break

    return ConditionsReport(not failures, tuple(failures))


def random_simplex_input(rng):
    """A random simplex of S3/S4 subgroups, with some explicit triple groups, not all of them subgroups."""
    n = rng.randint(3, 5)
    vertex_groups = []
    for _ in range(n):
        Sd = sorted(symmetric_group(rng.choice((3, 4))))
        vertex_groups.append(frozenset(Sd) if rng.random() < 0.5 else closure(len(Sd[0]), rng.sample(Sd, 2)))
    face_groups = {}
    for i, G in enumerate(vertex_groups):
        elements, degree = sorted(G), len(next(iter(G)))
        for j in range(n):
            if j != i:
                face_groups[(i, frozenset({i, j}))] = closure(degree, rng.sample(elements, rng.randint(0, 2)))
        for I in [I for I in combinations(range(n), 3) if i in I and rng.random() < 0.15]:
            meet = G.intersection(*(face_groups[(i, frozenset({i, j}))] for j in I if j != i))
            kind = rng.random()
            if kind < 0.8:  # a subgroup of the meet, often a proper one
                triple = closure(degree, rng.sample(sorted(meet), min(len(meet), rng.randint(0, 1))))
            elif kind < 0.86:  # inverse-closed, but maybe not product-closed
                picked = rng.sample(elements, 2)
                triple = {tuple(range(degree)), *picked, *map(inverse, picked)}
            elif kind < 0.9:  # maybe not even inverse-closed
                triple = {tuple(range(degree)), *rng.sample(elements, 2)}
            elif kind < 0.96:  # a subgroup of G, maybe not inside the meet
                triple = closure(degree, rng.sample(elements, 1))
            else:  # maybe not inside G
                triple = symmetric_group(degree)
            face_groups[(i, frozenset(I))] = frozenset(triple)
    return n, vertex_groups, face_groups


def build(cls, spec):
    try:
        return cls(*spec)
    except (NotASubgroup, IncompatibleInclusions) as err:
        return (type(err), str(err))


def test_conditions_match_the_exhaustive_search():
    outcomes = Counter()
    # seed 9740 is the one input among the first 20,000 whose first factorization
    # witness depends on a middle coset meeting G_ik, not only G_ij, abG_ij and aG_ik
    for seed in (*range(600), 9740):
        spec = random_simplex_input(random.Random(seed))
        S, want = build(SimplexOfGroups, spec), build(SimplexOfGroupsBySearch, spec)
        if isinstance(want, tuple):
            assert S == want, seed
            outcomes[want[0].__name__] += 1
            continue
        assert S.face_groups == want.face_groups, seed
        report = check_conditions(S)
        assert report.to_json() == check_conditions_by_search(want).to_json(), seed
        outcomes.update(f.condition for f in report.failures)
    # every clause and both validation errors are exercised, well beyond a single case each
    for outcome in ("intersection", "product", "factorization", "NotASubgroup", "IncompatibleInclusions"):
        assert outcomes[outcome] >= 10, outcomes
