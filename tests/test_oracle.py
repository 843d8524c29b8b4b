"""Every public decision against its reference in tests/oracle.py, on small seeded inputs."""

import pytest

from oracle import PROPERTIES, run

# A campaign runs the same properties on many more inputs: python -m tests.oracle --seed S --cases N
CASES = 800


@pytest.mark.parametrize("name", list(PROPERTIES))
def test_entry_point_matches_its_reference(name):
    counts, mismatches = run(name, seed=0, cases=CASES)
    assert not mismatches, mismatches[0]
    assert PROPERTIES[name].expected <= set(counts), counts
