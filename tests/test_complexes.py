"""Ordered complexes: validation, star relations, star posets, realizations."""

import os
import random
import subprocess
import sys
from itertools import combinations

import pytest

from cublink.complexes import (
    OrderedComplex,
    _clique_masks,
    _star_preds,
    canonical_rotation,
    is_local_poset,
    order_complex,
    star_poset,
    validate,
)
from cublink.errors import DuplicateLabel, InconsistentOrder, NotFlag, NotLocalPoset, PreconditionFailed
from cublink.generators import affine_A_patch, boolean_poset
from cublink.linkcheck import check_type_A, check_type_C
from cublink.poset import Poset, _key, find_bowtie


def single_triangle(order_type="C"):
    return OrderedComplex(order_type, ["u", "v", "w"], [("u", "v", "w")])


def test_single_ordered_triangle_valid():
    validate(single_triangle())
    validate(single_triangle("A"))


def test_opposite_edge_orders_rejected():
    X = OrderedComplex("C", ["u", "v", "w", "t"], [("u", "v", "w"), ("v", "u", "t")])
    with pytest.raises(InconsistentOrder) as err:
        validate(X)
    assert err.value.face == frozenset({"u", "v"})


def test_hollow_triangle_not_flag():
    # bare, and with each edge in its own triangle, so no chamber holds a common neighbour
    for simplices in ([("a", "b"), ("b", "c"), ("a", "c")],
                      [("a", "b", "x"), ("b", "c", "y"), ("a", "c", "z")]):
        X = OrderedComplex("C", {v for s in simplices for v in s}, simplices)
        with pytest.raises(NotFlag) as err:
            validate(X)
        assert err.value.clique == frozenset({"a", "b", "c"})


def test_cyclic_consistency_up_to_rotation():
    # the shared face inherits (a, b, c) from one simplex and a rotation of it
    # from the other; both represent the same cyclic order
    X = OrderedComplex(
        "A",
        ["a", "b", "c", "d", "e"],
        [("a", "b", "c", "d"), ("b", "c", "a", "e")],
    )
    validate(X)


def test_cyclic_inconsistency_detected():
    X = OrderedComplex(
        "A",
        ["a", "b", "c", "d", "e"],
        [("a", "b", "c", "d"), ("a", "c", "b", "e")],
    )
    with pytest.raises(InconsistentOrder):
        validate(X)


def test_first_clashing_pair_wins_over_first_clash_found():
    # reading the chambers in order meets the clash on {c, d} (chambers 1, 2)
    # before the one on {b, e}, but the pair (0, 3) comes first
    X = OrderedComplex(
        "C",
        ["a", "b", "c", "d", "e", "f", "g", "h"],
        [("a", "b", "e"), ("c", "d", "f"), ("d", "c", "g"), ("e", "b", "h")],
    )
    with pytest.raises(InconsistentOrder) as err:
        validate(X)
    assert err.value.face == frozenset({"b", "e"})


def test_maximal_cliques_of_a_large_complete_graph():
    everyone = (1 << 1100) - 1
    [clique] = _clique_masks([everyone & ~(1 << v) for v in range(1100)])
    assert clique == everyone


def test_cliques_of_the_complete_5_partite_graph_k33333():
    # one vertex from each of the five parts: 3^5 maximal cliques of five vertices each
    part = [v // 3 for v in range(15)]
    adjacency = [sum(1 << w for w in range(15) if part[w] != part[v]) for v in range(15)]
    cliques = _clique_masks(adjacency)
    assert len(cliques) == len(set(cliques)) == 3 ** 5
    assert all(c.bit_count() == 5 and len({part[v] for v in range(15) if c >> v & 1}) == 5 for c in cliques)


def test_cliques_match_a_brute_force_subset_enumeration():
    for seed in range(40):
        rng = random.Random(f"cliques:{seed}")
        n, p = rng.randint(1, 11), rng.random()
        adjacency = [0] * n
        for a, b in combinations(range(n), 2):
            if rng.random() < p:
                adjacency[a] |= 1 << b
                adjacency[b] |= 1 << a
        cliques = [m for m in range(1, 1 << n)
                   if all((adjacency[v] | 1 << v) & m == m for v in range(n) if m >> v & 1)]
        maximal = {m for m in cliques if not any(c != m and c & m == m for c in cliques)}
        found = _clique_masks(adjacency)
        assert len(found) == len(maximal) and set(found) == maximal, seed


def test_pruned_clique_search_drops_exactly_the_faces():
    # faces are cliques, maximal or not, the empty one included; only a maximal one can go missing
    for seed in range(200):
        rng = random.Random(f"faces:{seed}")
        n, p, q = rng.randint(0, 11), rng.random(), rng.choice((0.1, 0.5, 0.9, 1.0))
        adjacency = [0] * n
        for a, b in combinations(range(n), 2):
            if rng.random() < p:
                adjacency[a] |= 1 << b
                adjacency[b] |= 1 << a
        cliques = [m for m in range(1 << n)
                   if all((adjacency[v] | 1 << v) & m == m for v in range(n) if m >> v & 1)]
        faces = {m for m in cliques if rng.random() < q}
        found = _clique_masks(adjacency, faces)
        unpruned = [m for m in _clique_masks(adjacency) if m not in faces]
        assert len(found) == len(unpruned) and set(found) == set(unpruned), seed


def test_empty_triangles_beside_filled_chambers_give_the_first_as_witness():
    # {a, b, e} is a clique (ab lies in the tetrahedron abcd, ae in aefg, be in bey) but spans no chamber;
    # so does {c, g, y}, later in label order
    simplices = [("a", "b", "c", "d"), ("a", "e", "f", "g"), ("b", "e", "y"),
                 ("c", "g", "h"), ("c", "y", "i"), ("g", "y", "j")]
    for order_type, check in (("A", check_type_A), ("C", check_type_C)):
        X = OrderedComplex(order_type, "abcdefghijy", simplices)
        with pytest.raises(NotFlag) as err:
            validate(X)
        assert err.value.clique == frozenset("abe")
        with pytest.raises(PreconditionFailed) as info:
            check(X)
        assert info.value.cause.clique == frozenset("abe")


def test_patch_without_an_interior_chamber_names_that_chamber():
    # every facet of the chamber lies in a neighbouring chamber, so the whole chamber is a minimal nonface
    X = affine_A_patch(4, 2)
    hole = ("0,0,0,0,0", "0,0,0,0,1", "0,0,0,1,1", "0,0,1,1,1", "0,1,1,1,1")
    assert hole in X.maximal_simplices
    Y = OrderedComplex("A", X.vertices, [s for s in X.maximal_simplices if s != hole])
    with pytest.raises(PreconditionFailed) as info:
        check_type_A(Y)
    assert isinstance(info.value.cause, NotFlag) and info.value.cause.clique == frozenset(hole)


def test_reduction_drops_duplicates_and_faces():
    # the face (a, c) lies in the second simplex through each of its vertices
    X = OrderedComplex(
        "C",
        ["a", "b", "c", "d", "e", "x", "y", "z"],
        [("a", "b", "x"), ("c", "d", "y"), ("a", "c", "z"), ("a", "b", "x"), ("a", "c"), ("z",), ()],
    )
    assert X.maximal_simplices == (("a", "b", "x"), ("a", "c", "z"), ("c", "d", "y"), ("e",))


def test_reduction_keeps_exactly_the_maximal_simplices_in_first_orientation():
    # mixed sizes: a face of a chamber listed before it, a permuted duplicate,
    # distinct simplices of equal size, and a face of an edge
    X = OrderedComplex(
        "C",
        list("abcdefgh"),
        [("c", "a"), ("b", "a", "c", "d"), ("d", "c", "b", "a"), ("e", "f"), ("e", "g"), ("f", "g"),
         ("g", "h"), ("h",), ("d", "e")],
    )
    assert X.maximal_simplices == (
        ("b", "a", "c", "d"), ("d", "e"), ("e", "f"), ("e", "g"), ("f", "g"), ("g", "h"))
    # against a subset scan, on random mixed-size simplices of both types
    rng = random.Random(31)
    for _ in range(300):
        vertices = list(range(rng.randint(1, 9)))
        simplices = [tuple(rng.sample(vertices, rng.randint(1, len(vertices)))) for _ in range(rng.randint(0, 9))]
        first = {}
        for s in simplices:
            first.setdefault(frozenset(s), s)
        first.update({frozenset([v]): (v,) for v in vertices if frozenset([v]) not in first})
        want = [s for key, s in first.items() if not any(key < other for other in first)]
        for order_type in "AC":
            X = OrderedComplex(order_type, vertices, simplices)
            rotate = canonical_rotation if order_type == "A" else tuple
            assert sorted(X.maximal_simplices) == sorted(map(rotate, want))


def test_chambers_are_kept_in_lexicographic_order_of_their_index_tuples_whatever_the_listing():
    # several chambers share each leading index, and a shuffled listing puts them out of order within it
    X = affine_A_patch(3, 2)
    rng = random.Random("chamber order")
    for order_type in "AC":
        listed = list(X.maximal_simplices)
        rng.shuffle(listed)
        Y = OrderedComplex(order_type, X.vertices, listed)
        assert Y._chambers == tuple(sorted(Y._chambers)) and len(Y._chambers) == len(listed)
        assert Y._chamber_masks == tuple(sum(1 << v for v in t) for t in Y._chambers)


def test_reduction_keeps_one_of_rotated_type_a_duplicates():
    X = OrderedComplex("A", ["a", "b", "c", "d"], [("c", "a", "b"), ("a", "b", "c"), ("b", "d")])
    assert X.maximal_simplices == (("a", "b", "c"), ("b", "d"))


def test_mixed_sizes_and_bare_vertices_keep_their_simplices_and_json():
    # a rotated duplicate, an edge and a vertex inside a triangle, an edge
    # and a vertex of their own, and two vertices in no simplex
    X = OrderedComplex("A", list("abcdefghxyz"),
                       [("c", "a", "b", "d"), ("b", "d", "c", "a"), ("e", "f"), ("d", "e", "g"), ("g", "d"),
                        ("f",), ("h", "x")])
    assert X.maximal_simplices == (("a", "b", "d", "c"), ("d", "e", "g"), ("e", "f"), ("h", "x"), ("y",), ("z",))
    assert X.maximal_simplices is X.maximal_simplices  # built once, on first read
    with pytest.raises(AttributeError):
        X.maximal_simplices = ()
    assert X.to_json() == {
        "type": "A",
        "vertices": ["a", "b", "c", "d", "e", "f", "g", "h", "x", "y", "z"],
        "maximal_simplices": [["a", "b", "d", "c"], ["d", "e", "g"], ["e", "f"], ["h", "x"], ["y"], ["z"]],
    }
    assert OrderedComplex.from_json(X.to_json()) == X and hash(OrderedComplex.from_json(X.to_json())) == hash(X)


def test_isolated_vertex_is_a_zero_simplex():
    X = OrderedComplex("C", ["a", "b", "z"], [("a", "b")])
    assert X.maximal_simplices == (("a", "b"), ("z",))
    assert X.neighbors("z") == frozenset()
    assert X.has_simplex({"z"}) and not X.has_simplex({"a", "z"})


def test_carrier_is_the_first_in_maximal_simplices_order():
    X = OrderedComplex("C", ["a", "b", "c", "d"], [("b", "c", "d"), ("a", "b", "c")])
    assert X.maximal_simplices == (("a", "b", "c"), ("b", "c", "d"))
    assert X.carrier({"b", "c"}) == 0
    assert X.carrier({"d"}) == 1
    assert X.carrier({"a", "d"}) is None
    assert X.carrier(set()) == 0
    assert list(X.carriers({"b", "c"})) == [0, 1]
    assert list(X.carriers({"a", "d"})) == []


def test_has_simplex_on_unknown_vertex_and_empty_face():
    X = single_triangle()
    assert not X.has_simplex({"u", "nowhere"})
    assert not X.has_simplex({"nowhere"})
    assert X.has_simplex(set())
    assert OrderedComplex("C", [], []).has_simplex(())


def test_order_complex_of_long_chain_is_one_chamber():
    labels = [f"c{i}" for i in range(1500)]
    X = order_complex(Poset.from_covers(labels, list(zip(labels, labels[1:]))))
    assert X.maximal_simplices == (tuple(labels),)


def rotations_by_key(t):
    """Reference: the least of all rotations, each keyed by its labels' strings."""
    if not t:
        return t
    return min((t[i:] + t[:i] for i in range(len(t))), key=lambda r: tuple(map(_key, r)))


def test_canonical_rotation_matches_all_rotations_with_repeats():
    rng = random.Random(0)
    for _ in range(2000):
        t = tuple(rng.choice(["a", "b", "c", 1, "1"]) for _ in range(rng.randint(0, 8)))
        assert canonical_rotation(t) == rotations_by_key(t), t
    assert canonical_rotation(("b", "a", "b", "a")) == ("a", "b", "a", "b")


def test_labels_that_print_the_same_are_duplicates():
    with pytest.raises(DuplicateLabel):
        OrderedComplex("C", [1, "1", "b"], [(1, "b"), ("1", "b")])


PRINT_COLLISIONS = """
from cublink.complexes import OrderedComplex
from cublink.errors import DuplicateLabel
from cublink.poset import Poset
for build in (lambda: OrderedComplex("A", ["1", 1, "a"], [["a"]]), lambda: Poset.from_covers(["1", 1, "a"], [])):
    try:
        build()
    except DuplicateLabel as err:
        print(err)
"""


def test_a_print_collision_is_named_in_input_order_under_every_hash_seed():
    # a set of labels iterates in an order that the hash seed picks, so the label check sorts the input list
    outputs = {subprocess.run([sys.executable, "-c", PRINT_COLLISIONS], env={**os.environ, "PYTHONHASHSEED": str(seed)},
                              capture_output=True, text=True, check=True).stdout for seed in range(9)}
    assert outputs == {"vertex labels '1' and 1 print the same\nelement labels '1' and 1 print the same\n"}


def test_rotating_a_stored_tuple_gives_equal_complex():
    X = OrderedComplex("A", ["a", "b", "c"], [("a", "b", "c")])
    Y = OrderedComplex("A", ["a", "b", "c"], [("b", "c", "a")])
    assert X == Y
    assert canonical_rotation(("c", "a", "b")) == ("a", "b", "c")


# -- local poset and star posets ------------------------------------------------


def test_barycentric_square_is_local_poset():
    # order complex of the face poset of one square
    sq = boolean_poset(2)  # isomorphic shape: bottom, two mid, top
    X = order_complex(sq)
    validate(X)
    assert is_local_poset(X) is None


def test_affine_patch_is_local_poset():
    X = affine_A_patch(2, 1)
    validate(X)
    assert is_local_poset(X) is None


def test_type_c_star_closes_over_gaps():
    # triangles (x,y,z) and (x,z,t) without the edge y-t: the star poset at x
    # closes y < z < t into a chain
    X = OrderedComplex("C", ["x", "y", "z", "t"], [("x", "y", "z"), ("x", "z", "t")])
    validate(X)
    assert is_local_poset(X) is None
    P = star_poset(X, "x").poset
    assert P.lt("y", "t")


def test_oriented_rim_cycle_violates_local_poset():
    # cone over an oriented 4-cycle: the relation at x orders a < b < c < d < a
    X = OrderedComplex(
        "C",
        ["x", "a", "b", "c", "d"],
        [("a", "b", "x"), ("b", "c", "x"), ("c", "d", "x"), ("d", "a", "x")],
    )
    validate(X)
    violation = is_local_poset(X)
    assert violation is not None
    vertex, cycle = violation
    assert vertex == "x" and set(cycle) == {"a", "b", "c", "d"}
    with pytest.raises(NotLocalPoset) as err:
        star_poset(X, "x")
    assert (err.value.vertex, err.value.cycle) == violation


def test_star_relation_cycle_around_a_long_rim():
    # deeper than the default recursion limit: the cone over a long path, then over the cycle closing it
    rim = [f"v{i:04d}" for i in range(1200)]
    path = [(a, b, "x") for a, b in zip(rim, rim[1:])]
    assert star_poset(OrderedComplex("C", [*rim, "x"], path), "x").poset.lt(rim[0], rim[-1])
    with pytest.raises(NotLocalPoset) as err:
        star_poset(OrderedComplex("C", [*rim, "x"], [*path, (rim[-1], rim[0], "x")]), "x")
    assert err.value.cycle == tuple(rim)


def test_type_a_rim_cycle_detected():
    X = OrderedComplex(
        "A",
        ["x", "a", "b", "c", "d"],
        [("x", "a", "b"), ("x", "b", "c"), ("x", "c", "d"), ("x", "d", "a")],
    )
    validate(X)
    violation = is_local_poset(X)
    assert violation is not None and violation[0] == "x"
    with pytest.raises(NotLocalPoset) as err:
        star_poset(X, "x")
    assert (err.value.vertex, err.value.cycle) == violation


def test_interior_vertex_of_hexagon_star():
    X = affine_A_patch(2, 1)
    sp = star_poset(X, "0,0,0")
    P = sp.poset
    assert len(P) == 7
    center_height = P.heights()["0,0,0"]
    assert center_height == 0
    mids = [v for v in P.elements if P.heights()[v] == 1]
    tops = [v for v in P.elements if P.heights()[v] == 2]
    assert len(mids) == 3 and len(tops) == 3
    for t in tops:
        assert len(P.lower_covers(t)) == 2
    assert find_bowtie(P) is None


def test_star_of_triangle_vertex_type_c():
    X = single_triangle()
    P = star_poset(X, "u").poset
    assert P.up_set("u") == {"u", "v", "w"}
    assert P.lt("u", "v") and P.lt("v", "w")
    assert P.down_set("u") == {"u"}


def test_isolated_vertex_star():
    X = OrderedComplex("C", ["a", "b", "c"], [("a", "b")])
    sp = star_poset(X, "c")
    assert sp.poset.elements == ("c",)


def test_two_vertex_type_a_chamber_beside_a_bare_vertex():
    # the chamber's two cyclic steps run both ways; each vertex, read from
    # itself, keeps only the step out of it, and the bare vertex gets none
    X = OrderedComplex("A", ["a", "b", "c"], [("b", "a")])
    assert X._relations == [[(0, 1)], [(1, 0)], []]
    assert _star_preds(X, 0) == ([0, 1], [[], [0]])
    assert _star_preds(X, 1) == ([0, 1], [[1], []])
    assert _star_preds(X, 2) == ([2], [[]])
    assert star_poset(X, "a").poset.lt("a", "b") and star_poset(X, "b").poset.lt("b", "a")
    assert star_poset(X, "c").poset.elements == ("c",)
    assert is_local_poset(X) is None


def test_star_poset_invariant_under_rotation():
    X = OrderedComplex("A", ["a", "b", "c", "d"], [("a", "b", "c", "d")])
    Y = OrderedComplex("A", ["a", "b", "c", "d"], [("c", "d", "a", "b")])
    for v in X.vertices:
        px = star_poset(X, v).poset
        py = star_poset(Y, v).poset
        assert px.elements == py.elements and px.covers == py.covers


# -- order complexes --------------------------------------------------------------


def test_order_complex_of_boolean_lattice():
    B = boolean_poset(3)
    X = order_complex(B)
    validate(X)
    assert len(X.maximal_simplices) == 6  # one flag per permutation
    assert all(len(s) == 4 for s in X.maximal_simplices)


def test_generators_produce_consistent_complexes():
    for X in (affine_A_patch(2, 2), affine_A_patch(3, 1)):
        validate(X)
        assert is_local_poset(X) is None
