"""Simplices of groups: condition checks, developments, and the full pipeline."""

import random
from itertools import permutations

import pytest

from cublink import groupdev
from cublink.complexes import validate
from cublink.errors import IncompatibleInclusions, NotASubgroup, ParameterTooLarge, UnknownLabel
from cublink.groupdev import (
    SimplexOfGroups,
    check_conditions,
    closure,
    compose,
    factorization_violation,
    intersection_violation,
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
from oracle import agree_on_simplex, random_simplex_input


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


def test_validation_rejects_a_face_that_is_inverse_closed_but_not_product_closed():
    # {id, (0 1), (1 2)} holds each element's inverse, but (0 1)(1 2) is a 3-cycle outside it
    s3 = symmetric_group(3)
    face = frozenset({(0, 1, 2), (1, 0, 2), (0, 2, 1)})
    one = closure(1, [])
    with pytest.raises(NotASubgroup, match=r"^face \[0, 1\] at vertex 0 is not product-closed$"):
        SimplexOfGroups(2, [s3, one], {(0, frozenset({0, 1})): face, (1, frozenset({0, 1})): one})


def test_closure_of_every_element_of_s4_is_s4():
    # the JSON form lists every element as a generator; those already in the group are passed over
    S4 = symmetric_group(4)
    assert closure(4, sorted(S4)) == S4
    assert closure(4, sorted(S4, reverse=True)) == S4


def test_product_of_subgroups_matches_the_naive_product():
    # set stabilisers of seeded subsets in S5 and S6, and their pairwise products
    rng = random.Random(5)
    for degree in (5, 6):
        G = symmetric_group(degree)
        groups = [set_stabilizer(G, rng.sample(range(degree), rng.randint(0, degree))) for _ in range(6)]
        for A in groups:
            for B in groups:
                assert groupdev._product(A, B) == {compose(a, b) for a in A for b in B}


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


def test_a_vertex_named_as_a_face_is_refused_not_overwritten():
    # (0, {0}) is the vertex group itself; taken as a face group it would be silently replaced
    S = factorization_violation()
    faces = {(i, I): H for (i, I), H in S.face_groups.items() if len(I) > 1}
    SimplexOfGroups(3, S.vertex_groups, faces)
    with pytest.raises(UnknownLabel, match=r"face key \(0, \[0\]\) is malformed"):
        SimplexOfGroups(3, S.vertex_groups, {**faces, (0, frozenset({0})): closure(3, [(1, 0, 2)])})


def test_a_face_named_twice_is_refused_in_either_order():
    # (0, (0, 1)) and (0, (1, 0)) name one face; else the later naming wins and decides the verdict
    S = factorization_violation()
    faces = {(i, tuple(sorted(I))): H for (i, I), H in S.face_groups.items() if len(I) > 1}
    again = {(0, (1, 0)): closure(3, [])}
    for table in ({**faces, **again}, {**again, **faces}):
        with pytest.raises(ValueError, match=r"^face \[0, 1\] at vertex 0 is named twice$"):
            SimplexOfGroups(3, S.vertex_groups, table)


def test_more_than_eight_vertices_is_too_large():
    # n = 8 is the largest table, 8 * 2^7 faces; n = 9 is refused before its table is filled
    assert check_conditions(trivial_simplex(8)).passed
    with pytest.raises(ParameterTooLarge, match="n <= 8"):
        trivial_simplex(9)


def test_group_past_720_elements_is_too_large():
    # S6, of 720 elements, is the largest group; S7 is refused before its product-closure test,
    # whether __init__ is given it whole or closure is asked to build it
    one = closure(1, [])

    def simplex(group):
        pairs = {(0, frozenset({0, 1})): closure(len(next(iter(group))), []), (1, frozenset({0, 1})): one}
        return SimplexOfGroups(2, [group, one], pairs)

    assert check_conditions(simplex(symmetric_group(6))).passed
    with pytest.raises(ParameterTooLarge, match=r"^face \[0\] at vertex 0 has 5040 elements, more than 720$"):
        simplex(frozenset(permutations(range(7))))
    with pytest.raises(ParameterTooLarge, match="^the group has more than 720 elements$"):
        symmetric_group(7)


def test_group_past_720_elements_is_refused_while_it_is_closed(monkeypatch):
    # 40 generators of degree 8 generate a group of 20,160 or 40,320 elements; the
    # closure stops once it passes 720, after 40 products for each of at most 720
    # elements, not 40 for each of the whole group's
    calls = []

    def counted(p, q):
        calls.append(1)
        return compose(p, q)

    monkeypatch.setattr(groupdev, "compose", counted)
    rng = random.Random(8)
    gens = [rng.sample(range(8), 8) for _ in range(40)]
    one = {"degree": 1, "generators": []}
    data = {"n": 2, "vertex_groups": [one, {"degree": 8, "generators": gens}],
            "face_subgroups": {"0|0,1": [], "1|0,1": []}}
    with pytest.raises(ParameterTooLarge, match=r"^face \[1\] at vertex 1 has more than 720 elements$"):
        SimplexOfGroups.from_json(data)
    assert 0 < len(calls) <= 720 * 40
    data = {"n": 2, "vertex_groups": [one, {"degree": 8, "generators": []}],
            "face_subgroups": {"0|0,1": [], "1|0,1": gens}}
    with pytest.raises(ParameterTooLarge, match=r"^face \[0, 1\] at vertex 1 has more than 720 elements$"):
        SimplexOfGroups.from_json(data)


def test_degree_past_eight_is_refused_before_any_group_is_closed(monkeypatch):
    def no_closure(degree, generators, name):
        raise AssertionError("a group was closed")

    monkeypatch.setattr(groupdev, "closure", no_closure)
    data = {"n": 2, "vertex_groups": [{"degree": 1, "generators": []}, {"degree": 9, "generators": []}],
            "face_subgroups": {"0|0,1": [], "1|0,1": []}}
    with pytest.raises(ParameterTooLarge, match="^a vertex group supports 0 <= degree <= 8$"):
        SimplexOfGroups.from_json(data)


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


def test_factorization_witness_that_needs_a_middle_coset_meeting_G_ik():
    # the one input among the first 20,000 of random_simplex_input whose first factorization
    # witness depends on a middle coset meeting G_ik, not only G_ij, abG_ij and aG_ik
    assert "factorization" in agree_on_simplex(random_simplex_input(random.Random(9740)))
