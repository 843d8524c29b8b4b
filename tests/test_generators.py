"""Canonical generators: counts, ranks, lattice structure, consistency, and their search-or-filter references."""

import json
import random
from math import comb

import pytest

from cublink.complexes import order_complex, star_poset, validate
from cublink.cubes import barycentric_cube_subdivision, single_cube
from cublink.errors import ParameterTooLarge
from cublink.generators import (
    affine_A_patch,
    boolean_poset,
    column_complex,
    column_shift,
    noncrossing_partitions,
    partition_lattice,
    random_ranked_poset,
    subspace_poset,
)
from cublink.poset import find_bowtie
from oracle import (
    reference_affine_A_patch,
    reference_noncrossing_partitions,
    reference_partition_lattice,
    reference_subspace_poset,
)


def test_noncrossing_counts_are_catalan():
    for n, catalan in ((1, 1), (2, 2), (3, 5), (4, 14), (5, 42), (9, 4862)):
        NC = noncrossing_partitions(n)
        assert len(NC) == catalan
        assert len(NC.covers) == (comb(2 * n, n - 2) if n >= 2 else 0)


def test_noncrossing_rank_and_lattice():
    NC = noncrossing_partitions(5)
    assert NC.is_graded()
    assert NC.rank("12345") == 4
    assert NC.is_lattice()


def test_crossing_partition_excluded():
    NC = noncrossing_partitions(4)
    assert "13|24" not in NC.elements
    assert "14|23" in NC.elements  # nested, not crossing


def test_partition_lattice_counts_are_bell():
    for n, bell in ((1, 1), (2, 2), (3, 5), (4, 15), (8, 4140)):
        assert len(partition_lattice(n)) == bell
    P = partition_lattice(4)
    assert P.is_lattice() and P.is_graded()
    assert P.rank("1234") == 3


def test_subspace_poset_f2_cubed():
    P = subspace_poset(2, 3)
    assert len(P) == 16
    assert P.is_graded() and P.is_lattice()
    top = max(P.elements, key=len)
    assert P.rank(top) == 3


def test_subspace_interior_has_no_bowtie():
    P = subspace_poset(2, 3)
    interior = [x for x in P.elements if x not in (P.minimum(), P.maximum())]
    assert len(interior) == 14
    L = P.restrict(interior)
    heights = set(L.heights().values())
    assert heights == {0, 1}
    assert find_bowtie(L) is None


def test_subspace_poset_f3_squared():
    P = subspace_poset(3, 2)
    assert len(P) == 6  # bounds plus four lines


def test_affine_patch_hexagon():
    X = affine_A_patch(2, 1)
    assert len(X.vertices) == 7
    assert len(X.maximal_simplices) == 6
    assert all(len(s) == 3 for s in X.maximal_simplices)
    validate(X)


def test_patch_star_posets_are_meet_semilattices():
    for n, r in ((2, 2), (3, 1)):
        X = affine_A_patch(n, r)
        for v in X.vertices:
            assert star_poset(X, v).poset.is_meet_semilattice(), (n, r, v)


def test_cube_barycenter_star_is_face_poset_without_top():
    from cublink.cubes import CubeComplex

    K = CubeComplex(single_cube())
    X = barycentric_cube_subdivision(K)
    top = max(X.vertices, key=len)
    sp = star_poset(X, top)
    assert len(sp.poset) == 27  # the cube's 26 proper faces plus the center
    assert sp.poset.maximum() == top
    assert find_bowtie(sp.poset) is None
    face_poset = K.face_poset()
    assert set(sp.poset.covers) == set(face_poset.covers)


def test_column_structure():
    X = column_complex(2, 1)
    assert all(len(s) == 4 for s in X.maximal_simplices)
    assert len(X.maximal_simplices) == 9
    validate(X)
    shift = column_shift(2, 1)
    for src, dst in shift.items():
        assert src in X.vertices and dst in X.vertices


def test_column_shift_is_partial_injection():
    shift = column_shift(3, 2)
    assert len(set(shift.values())) == len(shift)
    X = column_complex(3, 2)
    assert len(shift) == len(X.vertices) - 4  # the top window has no image


def test_random_ranked_posets_are_graded():
    rng = random.Random(9)
    for _ in range(100):
        P = random_ranked_poset(rng)
        assert P.is_graded()
        assert 1 <= len(P) <= 12


def test_parameter_guards():
    with pytest.raises(ParameterTooLarge):
        boolean_poset(11)
    assert len(boolean_poset(10)) == 1024
    NC = noncrossing_partitions(10)
    assert len(NC) == 16796 and len(NC.covers) == 125970  # the Catalan number C_10 and C(20, 8)
    with pytest.raises(ParameterTooLarge):
        noncrossing_partitions(11)
    with pytest.raises(ParameterTooLarge):
        partition_lattice(9)
    with pytest.raises(ParameterTooLarge):
        subspace_poset(5, 2)
    with pytest.raises(ParameterTooLarge):
        subspace_poset(2, 5)
    with pytest.raises(ParameterTooLarge):
        affine_A_patch(5, 1)
    with pytest.raises(ParameterTooLarge):
        column_complex(2, 9)
    below = [  # a value below the range is no input at all, not one too large
        (boolean_poset, (-1,), "boolean_poset supports 0 <= n <= 10"),
        (noncrossing_partitions, (0,), "noncrossing_partitions supports 1 <= n <= 10"),
        (partition_lattice, (0,), "partition_lattice supports 1 <= n <= 8"),
        (subspace_poset, (1, 2), "subspace_poset supports 2 <= q <= 3"),
        (subspace_poset, (2, 0), "subspace_poset with q = 2 supports 1 <= n <= 4"),
        (affine_A_patch, (0, 1), "affine_A_patch supports 1 <= n <= 4"),
        (affine_A_patch, (2, -1), "affine_A_patch supports 0 <= radius <= 3"),
        (column_complex, (0, 1), "column_complex supports 1 <= n <= 4"),
        (column_complex, (2, -1), "column_complex supports 0 <= depth <= 4"),
    ]
    for build, args, message in below:
        with pytest.raises(ValueError, match=f"^{message}$") as err:
            build(*args)
        assert not isinstance(err.value, ParameterTooLarge)


def test_order_complex_round_trip_consistency():
    for P in (boolean_poset(3), noncrossing_partitions(4), subspace_poset(2, 3)):
        validate(order_complex(P))


REFERENCE_CASES = (
    [(noncrossing_partitions, reference_noncrossing_partitions, (n,)) for n in range(1, 10)]
    + [(partition_lattice, reference_partition_lattice, (n,)) for n in range(1, 9)]
    + [(subspace_poset, reference_subspace_poset, (q, n)) for q, top in ((2, 4), (3, 3)) for n in range(1, top + 1)]
    + [(affine_A_patch, reference_affine_A_patch, (n, r)) for n in range(1, 5) for r in range(4)]
)


@pytest.mark.parametrize("build, reference, args", REFERENCE_CASES,
                         ids=[f"{build.__name__}{args}" for build, _, args in REFERENCE_CASES])
def test_generator_matches_its_reference_byte_for_byte(build, reference, args):
    # the reference finds the same family by search or by filtering a larger one
    assert json.dumps(build(*args).to_json()) == json.dumps(reference(*args))
