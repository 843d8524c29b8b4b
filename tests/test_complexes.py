"""Ordered complexes: validation, star relations, star posets, realizations."""

import random
from itertools import combinations, permutations

import pytest

from cublink.complexes import (
    OrderedComplex,
    _relation_cycle,
    _shrink_to_minimal_nonface,
    canonical_rotation,
    is_local_poset,
    maximal_cliques,
    order_complex,
    star_poset,
    validate,
)
from cublink.cubes import barycentric_cube_subdivision, cube_corpus
from cublink.errors import DuplicateLabel, InconsistentOrder, NotFlag, NotLocalPoset
from cublink.generators import affine_A_patch, boolean_poset, column_complex, noncrossing_partitions
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
    validate(X, require_flag=False)


def test_cyclic_inconsistency_detected():
    X = OrderedComplex(
        "A",
        ["a", "b", "c", "d", "e"],
        [("a", "b", "c", "d"), ("a", "c", "b", "e")],
    )
    with pytest.raises(InconsistentOrder):
        validate(X, require_flag=False)


def test_first_clashing_pair_wins_over_first_clash_found():
    # reading the chambers in order meets the clash on {c, d} (chambers 1, 2)
    # before the one on {b, e}, but the pair (0, 3) comes first
    X = OrderedComplex(
        "C",
        ["a", "b", "c", "d", "e", "f", "g", "h"],
        [("a", "b", "e"), ("c", "d", "f"), ("d", "c", "g"), ("e", "b", "h")],
    )
    with pytest.raises(InconsistentOrder) as err:
        validate(X, require_flag=False)
    assert err.value.face == frozenset({"b", "e"})


def pairwise_inconsistent_face(X):
    """Reference: the shared face of the first pair of chambers whose orders disagree."""
    sims = X.maximal_simplices
    sets = [frozenset(s) for s in sims]
    needed = 2 if X.order_type == "C" else 3
    for i, j in combinations(range(len(sims)), 2):
        shared = sets[i] & sets[j]
        if len(shared) < needed:
            continue
        a = tuple(v for v in sims[i] if v in shared)
        b = tuple(v for v in sims[j] if v in shared)
        if X.order_type == "A":
            a, b = canonical_rotation(a), canonical_rotation(b)
        if a != b:
            return shared
    return None


def test_validate_matches_pair_scan_on_random_complexes():
    rng = random.Random(0)
    outcomes = {True: 0, False: 0}
    for _ in range(400):
        vertices = [f"v{i}" for i in range(rng.randint(3, 8))]
        simplices = [tuple(rng.sample(vertices, rng.randint(1, min(5, len(vertices)))))
                     for _ in range(rng.randint(1, 8))]
        X = OrderedComplex(rng.choice("AC"), vertices, simplices)
        want = pairwise_inconsistent_face(X)
        outcomes[want is None] += 1
        if want is None:
            validate(X, require_flag=False)
        else:
            with pytest.raises(InconsistentOrder) as err:
                validate(X, require_flag=False)
            assert err.value.face == want, X.maximal_simplices
    assert min(outcomes.values()) >= 50  # both verdicts are exercised


def label_maximal_cliques(vertices, adjacency):
    """Reference: Bron-Kerbosch on label sets, the cliques sorted by their label-sorted tuples."""
    cliques = []
    stack = [((), set(vertices), set())]
    while stack:
        clique, candidates, excluded = stack.pop()
        if not candidates and not excluded:
            cliques.append(clique)
            continue
        pivot_pool = candidates | excluded
        pivot = max(pivot_pool, key=lambda v: (len(adjacency[v] & candidates), _key(v)))
        for v in sorted(candidates - adjacency[pivot], key=_key):
            stack.append((clique + (v,), candidates & adjacency[v], excluded & adjacency[v]))
            candidates = candidates - {v}
            excluded = excluded | {v}
    return sorted(cliques, key=lambda c: tuple(map(_key, sorted(c, key=_key))))


def reference_not_flag(X):
    """Reference: the first label clique that spans no simplex, shrunk to a minimal one."""
    adjacency = {v: X.neighbors(v) for v in X.vertices}
    for clique in label_maximal_cliques(X.vertices, adjacency):
        if not X.has_simplex(clique):
            return _shrink_to_minimal_nonface(X, set(clique))
    return None


def random_consistent_complex(rng, order_type):
    """Simplices ordered by one random ranking of the vertices, so their orders agree."""
    vertices = [f"v{i}" for i in range(rng.randint(3, 9))]
    rank = {v: rng.random() for v in vertices}
    simplices = [sorted(rng.sample(vertices, rng.randint(1, min(4, len(vertices)))), key=rank.get)
                 for _ in range(rng.randint(1, 10))]
    if rng.random() < 0.3:  # a hollow triangle whose edges each lie in their own triangle
        a, b, c, x, y, z = rng.sample(vertices + ["w0", "w1", "w2", "w3", "w4", "w5"], 6)
        for v in (a, b, c, x, y, z):
            rank.setdefault(v, rng.random())
            if v not in vertices:
                vertices.append(v)
        simplices += [sorted(f, key=rank.get) for f in ((a, b, x), (b, c, y), (a, c, z))]
    return OrderedComplex(order_type, vertices, simplices)


def test_flag_check_matches_label_clique_reference():
    rng = random.Random(0)
    outcomes = {True: 0, False: 0}
    for _ in range(1200):
        X = random_consistent_complex(rng, rng.choice("AC"))
        want = reference_not_flag(X)
        outcomes[want is None] += 1
        if want is None:
            validate(X)
        else:
            with pytest.raises(NotFlag) as err:
                validate(X)
            assert err.value.clique == want, X.maximal_simplices
    assert min(outcomes.values()) >= 200  # both verdicts are exercised


def test_maximal_cliques_of_a_large_complete_graph():
    vertices = range(1100)
    everyone = frozenset(vertices)
    adjacency = {v: everyone - {v} for v in vertices}
    [clique] = maximal_cliques(vertices, adjacency)
    assert sorted(clique) == list(vertices)


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


def test_reduction_keeps_one_of_rotated_type_a_duplicates():
    X = OrderedComplex("A", ["a", "b", "c", "d"], [("c", "a", "b"), ("a", "b", "c"), ("b", "d")])
    assert X.maximal_simplices == (("a", "b", "c"), ("b", "d"))


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


def recursive_relation_cycle(rel):
    """Reference: the depth-first search for a cycle, one call per vertex."""
    state = {}
    stack = []

    def visit(v):
        state[v] = "open"
        stack.append(v)
        for w in sorted(rel.get(v, ()), key=_key):
            s = state.get(w)
            if s == "open":
                return stack[stack.index(w):]
            if s is None:
                cycle = visit(w)
                if cycle is not None:
                    return cycle
        stack.pop()
        state[v] = "done"
        return None

    for v in sorted(rel, key=_key):
        if v not in state:
            cycle = visit(v)
            if cycle is not None:
                return tuple(cycle)
    return None


def mask_relation_cycle(rel):
    """_relation_cycle on a label relation: labels indexed in label order, the cycle read back as labels."""
    labels = sorted({*rel, *(z for zs in rel.values() for z in zs)}, key=_key)
    index = {v: i for i, v in enumerate(labels)}
    cycle = _relation_cycle([sum(1 << index[z] for z in rel.get(v, ())) for v in labels])
    return None if cycle is None else tuple(labels[i] for i in cycle)


def test_relation_cycle_matches_recursive_search():
    rng = random.Random(0)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        labels = [f"v{i}" for i in range(rng.randint(2, 9))]
        p = rng.choice((0.05, 0.15, 0.3))
        rel = {}
        for a, b in permutations(labels, 2):
            if rng.random() < p:
                rel.setdefault(a, set()).add(b)
        want = recursive_relation_cycle(rel)
        outcomes[want is None] += 1
        assert mask_relation_cycle(rel) == want, rel
    assert min(outcomes.values()) >= 50  # both verdicts are exercised


def test_relation_cycle_on_long_path_and_long_cycle():
    labels = [f"v{i:04d}" for i in range(1200)]
    path = {a: {b} for a, b in zip(labels, labels[1:])}
    assert mask_relation_cycle(path) is None
    cycle = dict(path, **{labels[-1]: {labels[0]}})
    assert mask_relation_cycle(cycle) == tuple(labels)


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


# -- star relations against the pair tests ---------------------------------------


def pairwise_star_relation(X, x):
    """Reference: the star relation from membership tests on pairs of neighbours."""
    nbrs = sorted(X.neighbors(x), key=_key)
    rel = {}
    if X.order_type == "A":
        for y, z in combinations(nbrs, 2):
            if not X.has_simplex({x, y, z}):
                continue
            cyc = X.induced_tuple({x, y, z})
            i = cyc.index(x)
            ordered = cyc[i:] + cyc[:i]
            rel.setdefault(ordered[1], set()).add(ordered[2])
    else:
        for y in nbrs:
            a, b = X.induced_tuple({x, y})
            rel.setdefault(a, set()).add(b)
        for y, z in combinations(nbrs, 2):
            if not X.has_simplex({x, y, z}):
                continue
            a, b = X.induced_tuple({y, z})
            rel.setdefault(a, set()).add(b)
    return rel


def all_pairs_star_poset(X, x):
    """Reference: the star poset from every pair of the star relation."""
    rel = pairwise_star_relation(X, x)
    elements = {x} | set(X.neighbors(x))
    pairs = [(y, z) for y in rel for z in rel[y]]
    if X.order_type == "A":
        pairs += [(x, y) for y in X.neighbors(x)]
    return Poset.from_covers(sorted(elements, key=_key), pairs)


def oracle_complexes():
    for name, cubes in cube_corpus().items():
        yield name, barycentric_cube_subdivision(cubes)
    yield "B(4)", order_complex(boolean_poset(4))
    yield "NC(5)", order_complex(noncrossing_partitions(5))
    yield "patch(2, 2)", affine_A_patch(2, 2)
    yield "patch(3, 1)", affine_A_patch(3, 1)
    yield "column(2, 2)", column_complex(2, 2)


def test_star_relation_matches_pair_tests():
    for name, X in oracle_complexes():
        validate(X, require_flag=False)
        for x in X.vertices:
            P, want = star_poset(X, x).poset, all_pairs_star_poset(X, x)
            assert (P.elements, P.covers) == (want.elements, want.covers), (name, x)


def random_rim_cycle_complex(rng, order_type):
    """Cones over oriented rim cycles plus random simplices, kept when their orders agree."""
    while True:
        vertices = [f"v{i}" for i in range(rng.randint(5, 10))]
        simplices = []
        for _ in range(rng.randint(1, 2)):
            x, *rim = rng.sample(vertices, rng.randint(4, min(6, len(vertices))))
            for a, b in zip(rim, rim[1:] + rim[:1]):
                simplices.append((a, b, x) if order_type == "C" else (x, a, b))
        simplices += [rng.sample(vertices, rng.randint(1, 4)) for _ in range(rng.randint(0, 6))]
        X = OrderedComplex(order_type, vertices, simplices)
        try:
            return validate(X, require_flag=False)
        except InconsistentOrder:
            continue


def test_star_poset_cycle_matches_recursive_search_on_pair_relation():
    rng = random.Random(9)
    cycles = {"A": 0, "C": 0}
    for _ in range(150):
        order_type = rng.choice("AC")
        X = random_rim_cycle_complex(rng, order_type)
        first = None
        for x in X.vertices:
            want = recursive_relation_cycle(pairwise_star_relation(X, x))
            if want is None:
                star_poset(X, x)
                continue
            with pytest.raises(NotLocalPoset) as err:
                star_poset(X, x)
            assert (err.value.vertex, err.value.cycle) == (x, want), X.maximal_simplices
            first = first or (x, want)
            cycles[order_type] += 1
        assert is_local_poset(X) == first
    assert min(cycles.values()) >= 50, cycles  # both types give many witnesses
