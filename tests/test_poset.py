"""Poset core: construction, meets, grading, bowties, flag condition, completion."""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cublink import linkcheck, poset
from cublink.complexes import OrderedComplex, order_complex, star_poset, validate
from cublink.cubes import CubeComplex, barycentric_cube_subdivision, cube_corpus
from cublink.errors import (
    CycleDetected,
    DuplicateLabel,
    MalformedCubeComplex,
    NoMinimum,
    NotFlag,
    NotGraded,
    UnknownLabel,
)
from cublink.generators import (
    affine_A_patch,
    boolean_poset,
    noncrossing_partitions,
    partition_lattice,
    random_ranked_poset,
    subspace_poset,
)
from cublink.linkcheck import _failing_stars, check_type_C
from cublink.poset import (
    Bowtie,
    Poset,
    _bits,
    _flag_violations,
    _maximal_in,
    bowtie_lattice_consistency,
    find_balanced_bowtie,
    find_bowtie,
    flag_condition,
    grade_completion,
    with_bounds,
)
from test_complexes import oracle_complexes, pairwise_star_relation
from test_linkcheck import bowtie_star_complex, random_check_posets, two_level_order_complexes


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


# -- the frozenset references for the bitmask order ---------------------------------


def reference_closure(elements, pairs):
    """The frozenset closure from_covers used to build: (below, Hasse pairs)."""
    succ = {x: set() for x in elements}
    pred = {x: set() for x in elements}
    for lo, hi in pairs:
        succ[lo].add(hi)
        pred[hi].add(lo)
    indeg = {x: len(pred[x]) for x in elements}
    queue = sorted((x for x in elements if indeg[x] == 0), key=str)
    order = []
    while queue:
        x = queue.pop(0)
        order.append(x)
        fresh = []
        for y in succ[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                fresh.append(y)
        queue.extend(sorted(fresh, key=str))
    assert len(order) == len(elements)
    below = {x: set() for x in elements}
    for x in order:
        for lo in pred[x]:
            below[x].add(lo)
            below[x] |= below[lo]
    below = {x: frozenset(s) for x, s in below.items()}
    hasse = {(lo, hi) for lo, hi in pairs if not any(lo in below[z] for z in below[hi])}
    return below, frozenset(hasse)


def reference_find_bowtie(below):
    """find_bowtie over frozensets: (a, b, c, d) or None."""
    heights = {}
    for y in sorted(below, key=lambda v: len(below[v])):
        heights[y] = max((heights[z] + 1 for z in below[y]), default=0)
    pairs = [
        (x, y)
        for x, y in combinations(sorted(below, key=str), 2)
        if x not in below[y] and y not in below[x]
    ]
    pairs.sort(key=lambda p: (heights[p[0]] + heights[p[1]], str(p[0]), str(p[1])))
    for c, d in pairs:
        common = (below[c] | {c}) & (below[d] | {d})
        maximal = sorted((x for x in common if not any(x in below[y] for y in common)), key=str)
        if len(maximal) >= 2:
            return (maximal[0], maximal[1], c, d)
    return None


def reference_flag_condition(below, direction):
    """flag_condition as the triple loop over frozenset bound sets."""
    if direction == "up":
        sets = {x: frozenset(y for y in below if x in below[y]) | {x} for x in below}
    else:
        sets = {x: below[x] | {x} for x in below}
    for a, b, c in combinations(sorted(below, key=str), 3):
        ab = sets[a] & sets[b]
        if not ab:
            continue
        if not (sets[a] & sets[c]) or not (sets[b] & sets[c]):
            continue
        if not (ab & sets[c]):
            return (a, b, c)
    return None


def assert_matches_references(P, pairs, where):
    below, hasse = reference_closure(P.elements, pairs)
    assert P.covers == hasse, where
    for x in P.elements:
        assert P.upper_covers(x) == tuple(sorted((b for a, b in hasse if a == x), key=str)), (where, x)
        assert P.lower_covers(x) == tuple(sorted((a for a, b in hasse if b == x), key=str)), (where, x)
        assert P.strictly_below(x) == below[x], (where, x)
        assert P.up_set(x) == {y for y in P.elements if x in below[y]} | {x}, (where, x)
    bowtie = find_bowtie(P)
    assert (bowtie and bowtie.as_tuple()) == reference_find_bowtie(below), where
    found = {}
    for direction in ("up", "down"):
        found[direction] = flag_condition(P, direction)
        assert found[direction] == reference_flag_condition(below, direction), (where, direction)
    return bowtie, found


def test_masks_match_the_frozenset_references_on_random_posets():
    # relabelled at random, so label order is no topological order, and fed
    # some implied pairs as well as the covers
    rng = random.Random(405)
    seen = {"bowtie": 0, "up": 0, "down": 0}
    for n in range(3000):
        Q = random_ranked_poset(rng, max_elements=24)
        names = dict(zip(Q.elements, rng.sample([f"x{i}" for i in range(len(Q))], len(Q))))
        implied = [(a, b) for a, b in combinations(Q.elements, 2) if Q.lt(a, b) and rng.random() < 0.3]
        pairs = [(names[a], names[b]) for a, b in [*Q.covers, *implied]]
        P = Poset.from_covers(list(names.values()), pairs)
        bowtie, flags = assert_matches_references(P, pairs, n)
        seen["bowtie"] += bowtie is not None
        for direction, triple in flags.items():
            seen[direction] += triple is not None
    assert min(seen.values()) >= 50, seen  # every search finds witnesses


def test_masks_match_the_frozenset_references_at_every_star():
    complexes = [
        *oracle_complexes(),
        ("B(5)", order_complex(boolean_poset(5))),
        ("NC(5)", order_complex(noncrossing_partitions(5))),
        ("patch(3, 1)", affine_A_patch(3, 1)),
    ]
    for name, X in complexes:
        validate(X, require_flag=False)
        for x in X.vertices:
            rel = pairwise_star_relation(X, x)
            pairs = [(y, z) for y in rel for z in rel[y]]
            if X.order_type == "A":
                pairs += [(x, y) for y in X.neighbors(x)]
            assert_matches_references(star_poset(X, x).poset, pairs, (name, x))


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
            P = with_bounds(P, top="_unused")
            P = P.restrict([x for x in P.elements if x != "_unused"])
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


# -- the bowtie sweep against the pair walk ------------------------------------


def _bowtie_pairs(P):
    """Incomparable index pairs ordered by (height sum, labels): the pair walk's order.

    Pairs are bucketed by height sum; each bucket fills in label order.
    """
    h, full = P._heights, (1 << len(P)) - 1
    buckets = {}
    for i in range(len(P)):
        later = full >> (i + 1) << (i + 1)
        for j in _bits(later & ~(P._down[i] | P._up[i])):
            buckets.setdefault(h[i] + h[j], []).append((i, j))
    return [p for total in sorted(buckets) for p in buckets[total]]


def _common_below(P, c, d):
    """The common lower bounds of c and d as a mask, and whether two of them are maximal.

    They form a down-set, which has one maximal element m iff it is m's down-set.
    """
    common = P._down[c] & P._down[d]
    if not common:
        return common, False
    m = (common & -common).bit_length() - 1
    while higher := P._up[m] & common:
        m = (higher & -higher).bit_length() - 1
    return common, common != P._down[m] | 1 << m


def pairwalk_find_bowtie(P):
    """find_bowtie as the walk over incomparable pairs, in _bowtie_pairs order, it replaced."""
    el = P.elements
    for c, d in _bowtie_pairs(P):
        common, split = _common_below(P, c, d)
        if split:
            a, b = _maximal_in(P, common)[:2]
            return Bowtie(el[a], el[b], el[c], el[d])
    return None


@given(small_posets())
@example(bowtie_poset())
@example(chain_poset(3))
@settings(max_examples=300, deadline=None)
def test_bowtie_sweep_matches_the_pair_walk(P):
    assert find_bowtie(P) == pairwalk_find_bowtie(P)


def test_bowtie_sweep_matches_the_pair_walk_at_every_star():
    complexes = [
        ("NC(5)", order_complex(noncrossing_partitions(5))),
        ("B(4)", order_complex(boolean_poset(4))),
        ("patch(2, 2)", affine_A_patch(2, 2)),
        ("bowtie star", bowtie_star_complex()),
        *((name, barycentric_cube_subdivision(cubes)) for name, cubes in cube_corpus().items()),
    ]
    found = 0
    for name, X in complexes:
        for x in X.vertices:
            P = star_poset(X, x).poset
            want = pairwalk_find_bowtie(P)
            assert find_bowtie(P) == want, (name, x)
            found += want is not None
    assert found >= 1


def pairwalk_find_balanced_bowtie(P):
    """find_balanced_bowtie as the walk over incomparable pairs it replaced."""
    h, el = P._heights, P.elements
    for c, d in _bowtie_pairs(P):
        if h[c] != h[d]:
            continue
        common, split = _common_below(P, c, d)
        if not split:
            continue
        candidates = sorted(_bits(common), key=lambda x: (h[x], x))
        for a, b in combinations(candidates, 2):
            if h[a] != h[b] or (P._down[a] | P._up[a]) >> b & 1:
                continue
            if not P._up[a] & P._up[b] & common:
                return Bowtie(el[a], el[b], el[c], el[d])
    return None


@given(st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_balanced_bowtie_sweep_matches_the_pair_walk(rng):
    P = random_ranked_poset(rng, max_elements=14)
    assert find_balanced_bowtie(P) == pairwalk_find_balanced_bowtie(P)


# -- the flag walk over maximal bounds against the walk over every bound ---------------------


def fullwalk_flag_violations(P, direction, within):
    """_flag_violations as the walk over every element of within and all its bounds, which it replaced."""
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    if (P.maximum() if direction == "up" else P.minimum()) is not None:
        return
    above, below = (P._up, P._down) if direction == "up" else (P._down, P._up)
    bound = [m | 1 << i for i, m in enumerate(above)]
    holders = [m | 1 << i for i, m in enumerate(below)]
    compat = []
    for mask in bound:
        c = 0
        for u in _bits(mask):
            c |= holders[u]
        compat.append(c)
    for a in _bits(within):
        for b in _bits(compat[a] & within >> (a + 1) << (a + 1)):
            cand = compat[a] & compat[b] & within >> (b + 1) << (b + 1)
            if not cand:
                continue
            good = 0
            for u in _bits(bound[a] & bound[b]):
                good |= holders[u]
                if not cand & ~good:
                    break
            else:
                yield a, b, cand & ~good


def random_cube_face_posets(count, seed=0):
    """Face posets of random complexes of up to five squares and edges on up to nine corners."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        pool = [f"u{i}" for i in range(rng.randint(4, 9))]
        cubes = [tuple(rng.sample(pool, rng.choice((2, 4, 4)))) for _ in range(rng.randint(1, 5))]
        try:
            K = CubeComplex(cubes)
        except MalformedCubeComplex:
            continue
        made += 1
        yield K.face_poset()[0]


def flag_walk_posets():
    """Random check posets, random cube face posets and the stars of order and other complexes."""
    yield from random_check_posets(600, seed=5)
    yield from random_cube_face_posets(200)
    for _, X in [*oracle_complexes(), *two_level_order_complexes(200, seed=5)]:
        yield from (star_poset(X, x).poset for x in X.vertices)


def test_flag_walk_over_maximal_bounds_matches_the_full_walk():
    rng = random.Random(11)
    triples = 0
    for P in flag_walk_posets():
        full = (1 << len(P)) - 1
        for direction in ("up", "down"):
            for within in (full, *(rng.getrandbits(len(P)) for _ in range(3))):
                want = list(fullwalk_flag_violations(P, direction, within))
                assert list(_flag_violations(P, direction, within)) == want, (P.to_json(), direction, within)
                triples += sum(bad.bit_count() for _, _, bad in want)
    assert triples >= 1000, triples


def test_flag_condition_and_failing_stars_match_the_full_walk():
    failing = 0
    for P in flag_walk_posets():
        got = (flag_condition(P, "up"), flag_condition(P, "down"), _failing_stars(P))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(poset, "_flag_violations", fullwalk_flag_violations)
            patch.setattr(linkcheck, "_flag_violations", fullwalk_flag_violations)
            want = (flag_condition(P, "up"), flag_condition(P, "down"), _failing_stars(P))
        assert got == want, P.to_json()
        failing += want[0] is not None or want[1] is not None
    assert failing >= 200, failing


# -- type C on the poset against its order complex --------------------------------


def assert_poset_check_matches_order_complex(P):
    assert check_type_C(P).to_json() == check_type_C(order_complex(P)).to_json()


@given(small_posets())
@example(bowtie_poset())
@example(Poset.from_covers([], []))
@settings(max_examples=300, deadline=None)
def test_type_c_on_a_poset_matches_its_order_complex(P):
    assert_poset_check_matches_order_complex(P)


def test_type_c_on_lattices_matches_their_order_complexes():
    for P in (boolean_poset(3), boolean_poset(4), noncrossing_partitions(4), noncrossing_partitions(5),
              partition_lattice(4), subspace_poset(2, 3), subspace_poset(3, 2)):
        assert_poset_check_matches_order_complex(P)
        interior = [x for x in P.elements if x not in (P.minimum(), P.maximum())]
        assert_poset_check_matches_order_complex(P.restrict(interior))


def test_type_c_on_face_posets_matches_the_subdivisions():
    verdicts = set()
    for cubes in cube_corpus().values():
        P = CubeComplex(cubes).face_poset()[0]
        assert_poset_check_matches_order_complex(P)
        verdicts.add(check_type_C(P).passed)
    assert verdicts == {True, False}


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
