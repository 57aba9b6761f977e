"""The tolerance contract: sampler outputs stay within 1e-12 of max|x| of the golden states.

Re-estimating the golden table (``tests/data/golden_table.json``) gives the
same lambda grid, and its l, l_dot, s and b within 1e-12 of each field's
largest entry.  The golden file (``tests/data/golden_states.npz``) is written
by ``tests/sampler_golden.py``; a change that moves a state beyond the tolerance
either is wrong or regenerates the file on purpose and says so in CHANGES.md.
A restatement of the estimated-table predictor in long double bounds the
float64 rounding that the golden states themselves carry.
"""

import math

import numpy as np
import pytest

import sampler_golden as golden
from oracles import taylor_rows
from emsolve import load_table, make_time_grid
from emsolve.schedule import UNIFORM_LAMBDA

TOLERANCE = 1e-12
# the estimation half of the contract: each field within this share of its largest entry
TABLE_TOLERANCE = 1e-12
# the predictor's own rounding reaches ~5e-12 of max|x| on the estimated table at NFE 3
LONG_DOUBLE_TOLERANCE = 1e-11


@pytest.fixture(scope="module")
def states():
    with np.load(golden.STATES_PATH) as data:
        return dict(data)


@pytest.fixture(scope="module")
def tabs():
    return golden.integral_tables()


def test_estimation_matches_golden_table():
    got, want = golden.estimate_golden_table(), load_table(golden.TABLE_PATH)
    assert np.array_equal(got.lambda_grid, want.lambda_grid)
    for name in ("l", "l_dot", "s", "b"):
        ref = getattr(want, name)
        moved = float(np.max(np.abs(getattr(got, name) - ref)))
        assert moved <= TABLE_TOLERANCE * np.max(np.abs(ref)), (name, moved)


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


def _cumtrapz(y, h):
    out = np.zeros_like(y)
    out[1:] = np.cumsum((y[1:] + y[:-1]) * (h / 2), axis=0)
    return out


def longdouble_multistep(ems, order, pseudo, nfe, x0):
    """The multistep predictor (no corrector) restated in ``np.longdouble``.

    Every g value is formed against the step's own anchor, as in the
    definition; the integrals, coefficients and update run in long double
    from the table's float64 fields, with the Taylor rows of
    the oracles' :func:`taylor_rows`.  Only the model is called in float64.
    """
    ld = np.longdouble
    lam_grid = ems.lambda_grid.astype(ld)
    l, s, b = (arr.astype(ld) for arr in (ems.l, ems.s, ems.b))
    h = ld(ems.spacing)
    L, S = _cumtrapz(l, h), _cumtrapz(s, h)
    B = _cumtrapz(np.exp(-S) * b, h)
    I = _cumtrapz(np.exp(L + S), h)
    C = _cumtrapz(np.exp(L + S) * B, h)
    alpha = 1 / np.sqrt(1 + np.exp(-2 * lam_grid))
    grid = make_time_grid(golden.SCHED, nfe, UNIFORM_LAMBDA, golden.T_START, golden.T_END)
    idx = [ems.index_of(lam) for lam in grid.lambdas]

    def g_value(j_a, j, x, eps):
        ds = S[j] - S[j_a]
        a = -np.exp(-ds) * l[j] / alpha[j]
        return a * x + np.exp(-ds - lam_grid[j]) * eps - np.exp(S[j_a]) * (B[j] - B[j_a])

    x = x0.astype(ld)
    pairs = [(x, golden.MODEL.eps(golden.SCHED, x0, ems.lambda_grid[idx[0]]).astype(ld))]
    for m in range(1, len(idx)):
        j_s, j_t = idx[m - 1], idx[m]
        reads = list(range(m - 1, m - 1 - min(order, m), -1))
        deltas = [ems.lambda_grid[idx[p]] - ems.lambda_grid[j_s] for p in reads[1:]]
        rows = taylor_rows(deltas, pseudo)
        ls = L[j_s : j_t + 1] + S[j_s : j_t + 1]
        span = lam_grid[j_s : j_t + 1] - lam_grid[j_s]
        E = [np.exp(-L[j_s] - S[j_s]) * (I[j_t] - I[j_s])] + [
            np.trapezoid(np.exp(ls - ls[0]) * span[:, None] ** k / math.factorial(k), dx=h, axis=0)
            for k in range(1, len(reads))
        ]
        total = sum(
            math.factorial(k) * ld(row[k]) * E[k] * g_value(j_s, idx[p], *pairs[p])
            for p, row in zip(reads, rows)
            for k in range(len(reads))
        )
        int_EB = np.exp(-L[j_s]) * (C[j_t] - C[j_s] - B[j_s] * (I[j_t] - I[j_s]))
        x_s = pairs[m - 1][0]
        x = alpha[j_t] * np.exp(L[j_s] - L[j_t]) * (x_s / alpha[j_s] - int_EB - total)
        eps = golden.MODEL.eps(golden.SCHED, x.astype(float), ems.lambda_grid[j_t]).astype(ld)
        pairs.append((x, eps))
    return x


@pytest.mark.parametrize("pseudo", [False, True])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_estimated_predictor_matches_long_double(states, tabs, order, pseudo):
    """Within 1e-11 of max|x| of the same scheme in long double, for NFE 3, 5 and 10."""
    kwargs = {"order": order, "pseudo_predictor": pseudo}
    for nfe in golden.NFES:
        got = golden.run_case(tabs, "estimated", "multi", kwargs, nfe, states["x0"])
        want = longdouble_multistep(tabs["estimated"].ems, order, pseudo, nfe, states["x0"])
        rel = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        assert rel <= LONG_DOUBLE_TOLERANCE, (nfe, rel)
