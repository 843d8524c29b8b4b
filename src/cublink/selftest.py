"""Oracle-equivalence suites, runnable from the CLI and reused by the test suite.

Each suite compares an implementation route against an independent oracle
and reports per-suite pass/fail with a counterexample when one exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain

from .cubes import CubeComplex, cube_corpus, gromov_link_condition
from .errors import NotAMetric
from .generators import (
    affine_A_patch,
    boolean_poset,
    column_complex,
    noncrossing_partitions,
    partition_lattice,
    random_ranked_poset,
    subspace_poset,
)
from .linkcheck import check_type_A, check_type_C
from .poset import bowtie_lattice_consistency, with_bounds, find_bowtie
from .tightspan import dress_dimension_test, random_metric, rectangle_metric, tight_span, tree_metric


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checked: int
    passed: bool
    detail: object = None

    def to_json(self):
        return {
            "suite": self.name,
            "checked": self.checked,
            "pass": self.passed,
            "detail": self.detail,
        }


def canonical_graded_posets():
    """Small canonical posets, with and without their bounds."""
    out = []
    for P in (
        boolean_poset(2),
        boolean_poset(3),
        boolean_poset(4),
        noncrossing_partitions(4),
        noncrossing_partitions(5),
        partition_lattice(4),
        subspace_poset(2, 3),
    ):
        out.append(P)
        bottom, top = P.minimum(), P.maximum()
        interior = [x for x in P.elements if x not in (bottom, top)]
        if len(interior) >= 2:
            out.append(P.restrict(interior))
    return out


def suite_bowtie_lattice():
    """Adjoining bounds yields a lattice exactly when no balanced bowtie exists."""
    rng = random.Random(100)
    checked = 0
    for P in chain(canonical_graded_posets(), (random_ranked_poset(rng, max_elements=12) for _ in range(500))):
        report = bowtie_lattice_consistency(P)
        checked += 1
        if not report.agree:
            return SuiteResult("bowtie_lattice", checked, False, P.to_json())
    return SuiteResult("bowtie_lattice", checked, True)


def suite_lattice_iff_bounded_bowtie_free():
    """is_lattice agrees with bowtie-freeness after adjoining fresh bounds."""
    rng = random.Random(101)
    checked = 0
    for _ in range(200):
        P = random_ranked_poset(rng, max_elements=10)
        B = with_bounds(P)
        checked += 1
        if B.is_lattice() != (find_bowtie(B) is None):
            return SuiteResult("lattice_iff_no_bowtie", checked, False, P.to_json())
    return SuiteResult("lattice_iff_no_bowtie", checked, True)


def suite_gromov_agreement():
    """The type-C check of the face poset agrees with the direct vertex-link test."""
    checked = 0
    for name, cubes in cube_corpus().items():
        direct = gromov_link_condition(cubes)
        subdivided = check_type_C(CubeComplex(cubes).face_poset()).passed
        checked += 1
        if direct != subdivided:
            return SuiteResult(
                "gromov_agreement",
                checked,
                False,
                {"complex": name, "direct": direct, "subdivided": subdivided},
            )
    return SuiteResult("gromov_agreement", checked, True)


# The metric corpus's seed and its count of each kind of metric.
CORPUS_SEED, TREES, RECTANGLES, RANDOMS, SIX_POINT = 2025, 60, 20, 120, 40


def metric_corpus():
    rng = random.Random(CORPUS_SEED)
    corpus = []
    for _ in range(TREES):
        corpus.append(tree_metric(rng, rng.randint(4, 6)))
    made = 0
    while made < RECTANGLES:
        u, v = rng.randint(1, 4), rng.randint(1, 4)
        w1 = rng.randint(1, 4)
        w2 = rng.randint(w1, w1 + min(u, v))
        try:
            corpus.append(rectangle_metric(u, v, w1, w2))
        except NotAMetric:  # some draws break the triangle inequality
            continue
        made += 1
    for _ in range(RANDOMS):
        corpus.append(random_metric(rng, rng.randint(4, 5)))
    for _ in range(SIX_POINT):
        corpus.append(random_metric(rng, 6))
    return corpus


def suite_hull_dimension_vs_matching():
    """Hull dimension <= n exactly when the matching-sum criterion holds at n."""
    checked = 0
    for M in metric_corpus():
        dim = tight_span(M).dimension
        for n in (1, 2):
            checked += 1
            if dress_dimension_test(M, n) != (dim <= n):
                return SuiteResult(
                    "hull_dimension_vs_matching",
                    checked,
                    False,
                    {"metric": M.to_json(), "dimension": dim, "n": n},
                )
    return SuiteResult("hull_dimension_vs_matching", checked, True)


def suite_flat_positives():
    """Flat tilings and columns pass their link conditions."""
    checked = 0
    for n, r in ((2, 2), (3, 1)):
        checked += 1
        if not check_type_A(affine_A_patch(n, r)).passed:
            return SuiteResult("flat_positives", checked, False, f"patch({n},{r})")
    for n, d in ((2, 2), (3, 1)):
        checked += 1
        if not check_type_C(column_complex(n, d)).passed:
            return SuiteResult("flat_positives", checked, False, f"column({n},{d})")
    return SuiteResult("flat_positives", checked, True)


def run_selftest():
    return [
        suite_bowtie_lattice(),
        suite_lattice_iff_bounded_bowtie_free(),
        suite_gromov_agreement(),
        suite_hull_dimension_vs_matching(),
        suite_flat_positives(),
    ]
