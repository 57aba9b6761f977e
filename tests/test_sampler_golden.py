"""The tolerance contract: sampler outputs stay within 1e-12 of max|x| of the golden states.

The golden file (``tests/data/golden_states.npz``) is written by
``tests/sampler_golden.py``; a change that moves a state beyond the tolerance
either is wrong or regenerates the file on purpose and says so in CHANGES.md.
"""

import numpy as np
import pytest

import sampler_golden as golden

TOLERANCE = 1e-12


@pytest.fixture(scope="module")
def states():
    with np.load(golden.STATES_PATH) as data:
        return dict(data)


@pytest.fixture(scope="module")
def tabs():
    return golden.integral_tables()


def test_golden_file_covers_the_matrix(states):
    keys = [key for key, *_ in golden.cases()]
    assert len(set(keys)) == len(keys) == 225
    assert set(states) == set(keys) | {"x0"}
    assert np.array_equal(states["x0"], golden.initial_states())


@pytest.mark.parametrize("table", golden.TABLES)
def test_samplers_match_golden_states(states, tabs, table):
    moved = []
    for key, name, *case in golden.cases():
        if name != table:
            continue
        want = states[key]
        got = golden.run_case(tabs, name, *case, states["x0"])
        rel = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        if not rel <= TOLERANCE:
            moved.append((key, rel))
    assert not moved, f"{len(moved)} runs moved beyond {TOLERANCE} of max|x|: {moved[:5]}"
