"""Poset core: construction, meets, grading, bowties, flag condition, completion."""

import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cublink.complexes import OrderedComplex, order_complex, validate
from cublink.cubes import CubeComplex, cube_corpus
from cublink.errors import CycleDetected, DuplicateLabel, NoMinimum, NotFlag, NotGraded, UnknownLabel
from cublink import poset as poset_module
from cublink.generators import boolean_poset, noncrossing_partitions, random_ranked_poset
from cublink.poset import (
    Poset,
    bowtie_lattice_consistency,
    find_balanced_bowtie,
    find_bowtie,
    flag_condition,
    grade_completion,
    with_bounds,
)
from oracle import random_poset


def chain_poset(k):
    labels = [f"c{i}" for i in range(k + 1)]
    return Poset.from_covers(labels, list(zip(labels, labels[1:])))


def bowtie_poset():
    return Poset.from_covers("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])


# -- construction ----------------------------------------------------------


def test_singleton():
    P = Poset.from_covers(["a"], [])
    assert len(P) == 1 and P.leq("a", "a")


def test_hasse_reduction_drops_transitive_pair():
    P = Poset.from_covers(["0", "a", "1"], [("0", "a"), ("a", "1"), ("0", "1")])
    assert P.covers == frozenset({("0", "a"), ("a", "1")})
    assert P.lt("0", "1")


def test_two_cycle_rejected():
    with pytest.raises(CycleDetected):
        Poset.from_covers(["a", "b"], [("a", "b"), ("b", "a")])


def test_self_loop_rejected():
    with pytest.raises(CycleDetected):
        Poset.from_covers(["a"], [("a", "a")])


def test_duplicate_label_rejected():
    with pytest.raises(DuplicateLabel):
        Poset.from_covers(["a", "a"], [])


def test_labels_that_print_the_same_rejected():
    with pytest.raises(DuplicateLabel, match="print the same"):
        Poset.from_covers([1, "1", "b"], [(1, "b"), ("1", "b")])


def test_unknown_label_rejected():
    with pytest.raises(UnknownLabel):
        Poset.from_covers(["a"], [("a", "zz")])


def reference_covers(P):
    """The cover pairs read off the order: x < y with nothing between them."""
    return {(x, y) for x in P.elements for y in P.elements
            if P.lt(x, y) and not any(P.lt(x, z) and P.lt(z, y) for z in P.elements)}


def reference_chains(P, covers):
    """The maximal chains, bottom-up, extending each by its upper covers in label order."""
    def extend(chain):
        nxt = sorted((y for x, y in covers if x == chain[-1]), key=str)
        if not nxt:
            yield tuple(chain)
        for y in nxt:
            yield from extend(chain + [y])
    return [c for m in P.minimal_elements() for c in extend([m])]


@pytest.mark.parametrize("build", [lambda: boolean_poset(3), lambda: noncrossing_partitions(4)], ids=["B3", "NC4"])
def test_cover_queries_read_the_covers_built_with_the_order(monkeypatch, build):
    P = build()

    def unused(P, mask):
        raise AssertionError("a cover query walked the masks")

    monkeypatch.setattr(poset_module, "_maximal_in", unused)
    monkeypatch.setattr(poset_module, "_minimal_in", unused)
    covers = reference_covers(P)
    assert P.to_json() == {"elements": [str(x) for x in P.elements], "covers": sorted([a, b] for a, b in covers)}
    for x in P.elements:
        assert P.lower_covers(x) == tuple(sorted((a for a, b in covers if b == x), key=str))
        assert P.upper_covers(x) == tuple(sorted((b for a, b in covers if a == x), key=str))
    assert P.is_graded()
    assert P.maximal_chains() == reference_chains(P, covers)
    assert find_bowtie(P) is None


# -- meets and joins ---------------------------------------------------------


def test_boolean_meet_is_intersection():
    B = boolean_poset(3)
    assert B.meet("{1,2}", "{2,3}") == "{2}"
    assert B.join("{1}", "{3}") == "{1,3}"


def test_bowtie_pair_has_no_meet():
    P = bowtie_poset()
    assert P.meet("c", "d") is None
    assert P.join("a", "b") is None


def test_meet_of_comparable_pair():
    P = chain_poset(2)
    assert P.meet("c1", "c2") == "c1"


def test_meet_dominates_every_common_lower_bound():
    B = boolean_poset(3)
    for x, y in combinations(B.elements, 2):
        m = B.meet(x, y)
        assert m is not None
        assert B.leq(m, x) and B.leq(m, y)
        for z in B.elements:
            if B.leq(z, x) and B.leq(z, y):
                assert B.leq(z, m)


def test_boolean_is_lattice():
    assert boolean_poset(3).is_lattice()


def test_bowtie_poset_is_not_lattice():
    assert not bowtie_poset().is_lattice()


def test_noncrossing_partitions_of_square_form_lattice():
    NC = noncrossing_partitions(4)
    assert len(NC) == 14
    assert NC.is_lattice()  # brute force over all pairs


# -- grading -----------------------------------------------------------------


def test_boolean_graded_with_full_rank():
    for n in (1, 2, 3, 4):
        B = boolean_poset(n)
        assert B.is_graded()
        top = "{" + ",".join(str(i) for i in range(1, n + 1)) + "}"
        assert B.rank(top) == n


def test_unequal_chains_not_graded():
    P = Poset.from_covers(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "1"), ("0", "b"), ("b", "c"), ("c", "1")],
    )
    assert not P.is_graded()
    with pytest.raises(NotGraded):
        P.rank("1")


def test_chain_graded_with_top_rank():
    P = chain_poset(5)
    assert P.is_graded()
    assert P.rank("c5") == 5


def test_long_chain_yields_its_one_chain():
    # deeper than the default recursion limit
    P = chain_poset(1499)
    assert P.maximal_chains() == [tuple(f"c{i}" for i in range(1500))]


def test_rank_requires_minimum():
    with pytest.raises(NoMinimum):
        bowtie_poset().rank("c")


# -- bowties -----------------------------------------------------------------


def test_minimal_bowtie_found():
    bt = find_bowtie(bowtie_poset())
    assert bt is not None and bt.as_tuple() == ("a", "b", "c", "d")


def test_boolean_has_no_bowtie():
    assert find_bowtie(boolean_poset(3)) is None


def test_chain_has_no_bowtie():
    assert find_bowtie(chain_poset(4)) is None


def sweep_tops(P, monkeypatch):
    """The bowtie tops of the down-set sweep alone, with the cover-pair certificate taken out."""
    with monkeypatch.context() as m:
        m.setattr(poset_module, "_may_have_bowtie", lambda down, lower: True)
        return poset_module._bowtie_tops(P)


def pairs_without_meet(P):
    """The pairs the certificate tests (co-covered or maximal) that share a lower bound but lack a meet."""
    groups = [P.lower_covers(z) for z in P.elements] + [P.maximal_elements()]
    return [(u, v) for group in groups for u, v in combinations(group, 2)
            if P.down_set(u) & P.down_set(v) and P.meet(u, v) is None]


def test_bowtie_seen_only_by_the_pair_of_maximal_elements(monkeypatch):
    # a, b < c, d with c < e and d < f: c and d have no common upper cover, so
    # only the maximal pair (e, f) fails, yet the witness stays (a, b, c, d)
    P = Poset.from_covers("abcdef", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "e"), ("d", "f")])
    assert pairs_without_meet(P) == [("e", "f")]
    assert poset_module._may_have_bowtie(P._down, P._lower)
    assert find_bowtie(P).as_tuple() == ("a", "b", "c", "d")
    assert poset_module._bowtie_tops(P) == sweep_tops(P, monkeypatch)


@pytest.mark.parametrize("covers", [
    [("a", "t"), ("b", "t")],
    [("a1", "a2"), ("a2", "t"), ("b1", "b2"), ("b2", "t")],
], ids=["v-shape", "two-chains-under-a-top"])
def test_co_covered_elements_with_no_common_lower_bound(monkeypatch, covers):
    P = Poset.from_covers({x for pair in covers for x in pair}, covers)
    assert P.minimum() is None and len(P.lower_covers("t")) == 2
    assert not poset_module._may_have_bowtie(P._down, P._lower)
    assert find_bowtie(P) is None and sweep_tops(P, monkeypatch) == []


@pytest.mark.parametrize("between", [False, True], ids=["bowtie", "no-bowtie"])
def test_masks_that_hash_alike_keep_the_verdict(monkeypatch, between):
    # e00 and e61 are minimal, and e98, e99 lie above both; the common lower
    # bounds {e00, e61} of that maximal pair hash like the closed down-set of
    # e01, the bottom of a chain through the other elements
    assert hash(1 << 0 | 1 << 61) == hash(1 << 1)
    labels = [f"e{i:02d}" for i in range(100)]
    covers = [("e00", "e98"), ("e00", "e99"), ("e61", "e98"), ("e61", "e99")]
    if between:  # e50 above e00 and e61 and below e98 and e99 is their meet
        covers = [("e00", "e50"), ("e61", "e50"), ("e50", "e98"), ("e50", "e99")]
    rest = [x for x in labels if x not in ("e00", "e50", "e61", "e98", "e99")]
    P = Poset.from_covers(labels, covers + list(zip(rest, rest[1:])))
    assert poset_module._may_have_bowtie(P._down, P._lower) is not between
    assert poset_module._bowtie_tops(P) == sweep_tops(P, monkeypatch)
    assert (find_bowtie(P) is None) is between


def test_closure_matches_a_reachability_reference_and_from_preds():
    # seeded predecessor lists, acyclic or with back edges: the down-masks
    # and lower covers of _closure are those of the relation's reachability
    # and of Poset._from_preds, and on a cycle exactly the elements on or
    # above one are left out, which CycleDetected names
    rng = random.Random(29)
    for trial in range(300):
        n = rng.randint(0, 12)
        rank = rng.sample(range(n), n)
        pairs = {(a, b) for a in range(n) for b in range(n) if rank[a] < rank[b] and rng.random() < 0.3}
        if trial % 3 == 0 and pairs:
            a, b = rng.choice(sorted(pairs))
            pairs.add((b, a))
        preds = [[] for _ in range(n)]
        for a, b in sorted(pairs, key=lambda p: rng.random()):
            preds[b].append(a)
        below = [set(p) for p in preds]
        changed = True
        while changed:
            changed = False
            for i in range(n):
                more = set().union(*(below[j] for j in below[i])) - below[i]
                if more:
                    below[i] |= more
                    changed = True
        stuck = {i for i in range(n) if any(j in below[j] for j in below[i] | {i})}
        order, down, lower = poset_module._closure(preds)
        assert sorted(order) == sorted(set(range(n)) - stuck)
        assert all(set(preds[i]) <= set(order[:k]) for k, i in enumerate(order))
        labels = [f"e{i:02d}" for i in range(n)]
        if stuck:
            assert [i for i in range(n) if lower[i] is None] == sorted(stuck)
            with pytest.raises(CycleDetected) as info:
                Poset._from_preds(labels, preds)
            assert str(info.value) == f"cover pairs contain a cycle through {[labels[i] for i in sorted(stuck)][:4]}"
            continue
        assert down == [sum(1 << j for j in below[i]) for i in range(n)]
        assert lower == [sorted(j for j in below[i] if not any(j in below[k] for k in below[i])) for i in range(n)]
        P = Poset._from_preds(labels, preds)
        assert (P._down, P._lower) == (down, lower)


def test_wide_posets_stay_fast():
    # k minimal elements under one hub w, and k maximal elements each covering
    # only w: no bowtie, and about as many co-covered pairs as comparable pairs
    k = 300
    lows, tops = [f"m{i}" for i in range(k)], [f"t{i}" for i in range(k)]
    hub = Poset.from_covers(lows + ["w"] + tops, [(m, "w") for m in lows] + [("w", t) for t in tops])
    # a fan: its lower covers' pairs far outnumber its comparable pairs
    fan = Poset.from_covers(lows + ["w"], [(m, "w") for m in lows])
    assert poset_module._may_have_bowtie(fan._down, fan._lower)  # left to the sweep
    start = time.perf_counter()
    assert find_bowtie(hub) is None and find_bowtie(fan) is None
    assert time.perf_counter() - start < 1.0


def test_balanced_bowtie_requires_graded():
    P = Poset.from_covers(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "1"), ("0", "b"), ("b", "c"), ("c", "1")],
    )
    with pytest.raises(NotGraded):
        find_balanced_bowtie(P)


def test_balanced_witness_has_equal_heights():
    # both balanced and unbalanced bowties exist; the balanced search must
    # return one with matching heights on both pairs
    P = Poset.from_covers(
        ["a", "b0", "b", "c", "d"],
        [("b0", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")],
    )
    assert P.is_graded()
    h = P.heights()
    bt = find_balanced_bowtie(P)
    assert bt is not None
    assert h[bt.a] == h[bt.b] and h[bt.c] == h[bt.d]


def test_balanced_bowtie_with_nonmaximal_lower_pair():
    # the maximal common lower bounds of (c, d) are {a, z} at unequal heights,
    # so the balanced witness must pair a with the non-maximal b under z
    P = Poset.from_covers(
        ["r", "a", "b", "z", "w", "v", "c", "d"],
        [("r", "a"), ("r", "b"), ("b", "z"), ("a", "w"), ("a", "v"),
         ("z", "c"), ("z", "d"), ("w", "c"), ("v", "d")],
    )
    assert P.is_graded()
    bt = find_balanced_bowtie(P)
    assert bt is not None
    assert {bt.a, bt.b} == {"a", "b"} and {bt.c, bt.d} == {"c", "d"}


# -- bounded-lattice vs balanced-bowtie consistency ---------------------------


def test_consistency_on_boolean_interior():
    B = boolean_poset(3)
    interior = [x for x in B.elements if x not in ("{}", "{1,2,3}")]
    report = bowtie_lattice_consistency(B.restrict(interior))
    assert report.agree and report.lattice_with_bounds


def test_consistency_on_balanced_bowtie_poset():
    report = bowtie_lattice_consistency(bowtie_poset())
    assert report.agree
    assert not report.lattice_with_bounds
    assert report.balanced_bowtie is not None


def test_consistency_on_random_graded_posets():
    rng = random.Random(402)
    for _ in range(200):
        P = random_ranked_poset(rng, max_elements=12)
        assert bowtie_lattice_consistency(P).agree


def test_lattice_iff_no_bowtie_after_bounding():
    rng = random.Random(403)
    for _ in range(150):
        P = random_ranked_poset(rng, max_elements=10)
        B = with_bounds(P)
        assert B.is_lattice() == (find_bowtie(B) is None)


# -- flag condition ------------------------------------------------------------


def test_flag_violation_three_atoms_with_pair_joins():
    P = Poset.from_covers(
        ["a", "b", "c", "ab", "ac", "bc"],
        [("a", "ab"), ("b", "ab"), ("a", "ac"), ("c", "ac"), ("b", "bc"), ("c", "bc")],
    )
    assert flag_condition(P, "up") == ("a", "b", "c")
    # the poset is self-dual, so the dual violation shows up downward
    assert flag_condition(P, "down") == ("ab", "ac", "bc")


def test_flag_holds_on_bounded_lattice():
    B = boolean_poset(3)
    assert flag_condition(B, "up") is None
    assert flag_condition(B, "down") is None


def test_flag_holds_on_chain():
    P = chain_poset(4)
    assert flag_condition(P, "up") is None
    assert flag_condition(P, "down") is None


def _full_flag_scan(P, direction):
    """Each pair a < b (by index) with its third elements c > b of violating triples, as a mask; comparable pairs kept."""
    closed = [m | 1 << i for i, m in enumerate(P._up if direction == "up" else P._down)]
    for a, b in combinations(range(len(P)), 2):
        bad = 0
        for c in range(b + 1, len(P)):
            if closed[a] & closed[c] and closed[b] & closed[c] and not closed[a] & closed[b] & closed[c]:
                bad |= 1 << c
        if closed[a] & closed[b] and bad:
            yield a, b, bad


def test_flag_scan_skips_only_pairs_that_complete_no_violation():
    # _flag_violations passes over comparable pairs; it yields exactly what
    # a scan of every pair of elements with a common bound yields
    rng = random.Random(34)
    posets = [CubeComplex(cubes).face_poset() for cubes in cube_corpus().values()]
    posets += [random_poset(rng) for _ in range(300)] + [noncrossing_partitions(5), boolean_poset(4)]
    for P in posets:
        for direction in ("up", "down"):
            got = list(poset_module._flag_violations(P, direction, (1 << len(P)) - 1))
            assert got == list(_full_flag_scan(P, direction)), (P.to_json(), direction)


# -- grading completion ----------------------------------------------------------


def test_completion_of_graded_poset_is_identity_like():
    B = boolean_poset(3)
    out = grade_completion(B)
    assert set(out.elements) == set(B.elements)
    assert out.covers == B.covers


def test_completion_inserts_one_element():
    P = Poset.from_covers(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "1"), ("0", "b"), ("b", "c"), ("c", "1")],
    )
    out = grade_completion(P)
    assert len(out) == 6
    assert out.is_graded()
    assert out.rank("1") == 3


def test_completion_of_chain_unchanged():
    P = chain_poset(4)
    out = grade_completion(P)
    assert set(out.elements) == set(P.elements) and out.covers == P.covers


def test_completion_requires_minimum():
    with pytest.raises(NoMinimum):
        grade_completion(bowtie_poset())


def test_completion_order_embeds_input():
    rng = random.Random(404)
    for _ in range(60):
        P = random_ranked_poset(rng, max_elements=10)
        if P.minimum() is None:
            P = with_bounds(P)
            P = P.restrict([x for x in P.elements if x != "_top"])
        out = grade_completion(P)
        assert out.is_graded()
        for x, y in combinations(P.elements, 2):
            assert P.leq(x, y) == out.leq(x, y)
            assert P.leq(y, x) == out.leq(y, x)


# -- randomized meet sanity via hypothesis -------------------------------------


@st.composite
def small_posets(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    labels = [f"p{i}" for i in range(n)]
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] < t[1]),
            max_size=12,
        )
    )
    return Poset.from_covers(labels, [(labels[i], labels[j]) for i, j in pairs])


@given(small_posets())
@settings(max_examples=150, deadline=None)
def test_meet_is_greatest_lower_bound(P):
    for x, y in combinations(P.elements, 2):
        m = P.meet(x, y)
        lower = P.down_set(x) & P.down_set(y)
        if m is None:
            maximal = [z for z in lower if not any(z in P.strictly_below(w) for w in lower)]
            assert len(maximal) != 1
        else:
            assert P.leq(m, x) and P.leq(m, y)
            assert all(P.leq(z, m) for z in lower)


# -- restriction -----------------------------------------------------------------------


@given(small_posets(), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_restrict_matches_the_closure_of_the_induced_pairs(P, rng):
    subset = [x for x in P.elements if rng.random() < 0.6]
    pairs = [(a, b) for a in subset for b in subset if P.lt(a, b)]
    got, want = P.restrict(subset), Poset.from_covers(subset, pairs)
    for attr in ("elements", "_down", "_up", "_heights"):
        assert getattr(got, attr) == getattr(want, attr), attr


# -- validate witnesses on complexes close to an order complex -------------------------------


def test_a_missing_chain_falls_through_to_the_flag_witness():
    # every edge of B(4)'s order complex survives, but a 3-clique spans no chamber
    P = boolean_poset(4)
    chains = P.maximal_chains()
    assert chains[0] == ("{}", "{1}", "{1,2}", "{1,2,3}", "{1,2,3,4}")
    X = OrderedComplex("C", P.elements, chains[1:])
    assert X.edges() == order_complex(P).edges()
    with pytest.raises(NotFlag) as info:
        validate(X)
    assert info.value.clique == frozenset({"{1}", "{1,2}", "{1,2,3}"})


def test_chambers_that_are_no_maximal_chains_fall_through():
    # as many chambers as maximal chains, pairwise not nested, yet {a, b, c}
    # is a clique on no chamber: (b, c) starts above a minimal element, and
    # (a, c) skips b
    P = Poset.from_covers("abcdg", [("a", "b"), ("b", "c"), ("b", "g"), ("a", "d"), ("d", "c")])
    Q = Poset.from_covers("abcef", [("a", "b"), ("e", "b"), ("b", "c"), ("b", "f")])
    for poset, chambers in ((P, ["abg", "bc", "adc"]), (Q, ["ac", "abf", "ebc", "ebf"])):
        assert len(chambers) == len(poset.maximal_chains())
        X = OrderedComplex("C", poset.elements, [tuple(s) for s in chambers])
        with pytest.raises(NotFlag) as info:
            validate(X)
        assert info.value.clique == frozenset("abc")
