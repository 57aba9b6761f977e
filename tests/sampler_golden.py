"""Golden final states for the samplers' tolerance contract.

A committed statistics table (60 intervals, K=256, D=4, on the tests'
mixture) and the final states of a matrix of sampler runs on it: the
estimated, noise-pred and data-pred tables; orders 1-3; every corrector;
both pseudo flags; NFE 3, 5 and 10; and singlestep at orders 1-3.  Every run
starts from the same 8-row batch, stored with the states.
``test_sampler_golden.py`` reruns the matrix and compares.

Regenerating the states is a deliberate act: record in CHANGES.md the
commit that wrote them and how far each entry moved.  Run from the repo root:

    PYTHONPATH=src python tests/sampler_golden.py          # the states
    PYTHONPATH=src python tests/sampler_golden.py --table  # re-estimate the table first
"""

import argparse
import os
from itertools import product

import numpy as np

from emsolve import (
    EmsConfig,
    GaussianMixture,
    Schedule,
    SolverConfig,
    build_integral_table,
    degenerate_table,
    estimate_table,
    load_table,
    make_time_grid,
    multistep_sample,
    save_table,
    singlestep_sample,
)
from emsolve.ems import DATA_PRED, NOISE_PRED
from emsolve.schedule import UNIFORM_LAMBDA
from emsolve.solver import CORRECTOR_NONE, CORRECTORS

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
TABLE_PATH = os.path.join(DATA_DIR, "golden_table.json")
STATES_PATH = os.path.join(DATA_DIR, "golden_states.npz")

TABLES = ("estimated", NOISE_PRED, DATA_PRED)
NFES = (3, 5, 10)
ROWS = 8
T_START, T_END = 1.0, 1e-3

# the mixture of the tests' ``mix4`` fixture
MODEL = GaussianMixture(
    weights=[0.4, 0.6],
    means=[[0.6, -0.3, 0.25, -0.5], [-0.55, 0.4, -0.3, 0.45]],
    stds=[0.8, 1.1],
)
SCHED = Schedule("vp-linear")


def estimate_golden_table():
    lam_range = (float(SCHED.lambda_of_t(T_START)), float(SCHED.lambda_of_t(T_END)))
    cfg = EmsConfig(num_timesteps=60, num_datapoints=256, lam_range=lam_range, seed=11)
    return estimate_table(MODEL, SCHED, cfg)


def integral_tables():
    """The committed table and the two degenerate tables on its grid, by name."""
    ems = load_table(TABLE_PATH)
    grid = ems.lambda_grid
    lam_range = (float(grid[0]), float(grid[-1]))
    tabs = {"estimated": build_integral_table(ems)}
    for kind in (NOISE_PRED, DATA_PRED):
        tabs[kind] = build_integral_table(
            degenerate_table(kind, SCHED, len(grid) - 1, lam_range, ems.dim)
        )
    return tabs


def cases():
    """(key, table name, sampler, SolverConfig keywords, NFE) of every golden run."""
    for table, nfe, order in product(TABLES, NFES, (1, 2, 3)):
        yield f"{table},single,o{order},nfe{nfe}", table, "single", {"order": order}, nfe
        for corrector in CORRECTORS if order >= 2 else (CORRECTOR_NONE,):
            for pp, pc in product((False, True), (False, True)):
                if pc and corrector == CORRECTOR_NONE:
                    continue
                kwargs = {
                    "order": order,
                    "corrector": corrector,
                    "pseudo_predictor": pp,
                    "pseudo_corrector": pc,
                }
                key = f"{table},multi,o{order},{corrector},pp{int(pp)},pc{int(pc)},nfe{nfe}"
                yield key, table, "multi", kwargs, nfe


def run_case(tabs, table, sampler, kwargs, nfe, x0):
    tab = tabs[table]
    cfg = SolverConfig(grid=make_time_grid(SCHED, nfe, UNIFORM_LAMBDA, T_START, T_END), **kwargs)
    if sampler == "single":
        return singlestep_sample(MODEL, SCHED, tab, cfg, x0)
    return multistep_sample(MODEL, SCHED, tab, cfg, x0)[0]


def initial_states():
    rng = np.random.Generator(np.random.Philox(2023))
    lam0 = float(SCHED.lambda_of_t(T_START))
    return SCHED.sigma_lambda(lam0) * rng.standard_normal((ROWS, MODEL.dim))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", action="store_true", help="re-estimate the committed table")
    args = parser.parse_args()
    os.makedirs(DATA_DIR, exist_ok=True)
    if args.table:
        save_table(estimate_golden_table(), TABLE_PATH)
    tabs = integral_tables()
    x0 = initial_states()
    states = {"x0": x0}
    for key, *case in cases():
        states[key] = run_case(tabs, *case, x0)
    np.savez(STATES_PATH, **states)
    print(f"wrote {len(states) - 1} final states to {STATES_PATH}")


if __name__ == "__main__":
    main()
