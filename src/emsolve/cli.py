"""Command-line front end: statistics estimation, sampling, and benchmarks.

Subcommands:

* ``ems``: estimate a statistics table for a model/schedule pair and write it
  to JSON.
* ``solve``: sample one trajectory with the multistep solver.
* ``bench-convergence``: error versus step count against the adaptive
  reference integrator, with fitted log-log slopes appended.
* ``bench-compare``: estimated statistics versus the degenerate
  noise-/data-prediction baselines and DDIM on shared initial noise.

All commands are deterministic functions of their flags and seeds; outputs
are byte-identical across runs (pass ``--timing`` to record wall-clock times,
which breaks that property).  Exit codes: 0 success, 1 runtime error,
2 usage error.
"""

import argparse
import json
import sys
import time
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .ems import (
    DATA_PRED,
    NOISE_PRED,
    EmsConfig,
    degenerate_table,
    estimate_table,
    load_table,
    save_table,
)
from .integrals import IntegralTable, build_integral_table
from .models import EvalCounter, ModelSpec, model_from_dict, reference_solve
from .schedule import UNIFORM_LAMBDA, UNIFORM_T, Schedule, make_time_grid
from .solver import (
    CORRECTOR_NONE,
    CORRECTORS,
    SolverConfig,
    _snap_grid,
    ddim_sample,
    multistep_sample,
)

REFERENCE_TOL = 1e-10
FLOOR_ERROR = 1e-8
SUMMARY_SEED = -1


@dataclass(frozen=True)
class RunRow:
    """One benchmark measurement (or summary line) in the report CSV."""

    solver: str
    order: int
    corrector: str
    nfe: int
    h_max: float
    l2_error: float
    linf_error: float
    seconds: float
    seed: int


# The CSV columns are RunRow's fields in order; each field's type writes and reads its column.
CSV_HEADER = ",".join(f.name for f in fields(RunRow))
_FORMATS = {str: str, int: lambda v: str(int(v)), float: lambda v: repr(float(v))}


def format_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(_FORMATS[f.type](getattr(r, f.name)) for f in fields(RunRow)))
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> list:
    lines = [ln for ln in text.split("\n") if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header: {lines[0] if lines else '<empty>'}")
    types = [f.type for f in fields(RunRow)]
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(types):
            raise ValueError(f"bad CSV row: {ln}")
        rows.append(RunRow(*(typ(part) for typ, part in zip(types, parts))))
    return rows


def measure_order(rows) -> float:
    """Ordinary least-squares slope of log(l2_error) against log(h_max)."""
    hs = np.array([r.h_max for r in rows], dtype=float)
    errs = np.array([r.l2_error for r in rows], dtype=float)
    if len(set(hs.tolist())) < 3:
        raise ValueError("need at least 3 rows with distinct h_max to fit a slope")
    if np.any(errs <= 0) or np.any(hs <= 0):
        raise ValueError("slope is undefined for non-positive errors or steps")
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


# -- shared helpers -------------------------------------------------------------


def _load_model(path) -> ModelSpec:
    with open(path) as fh:
        return model_from_dict(json.load(fh))


def _initial_noise(sched, lam_start: float, dim: int, seed: int):
    rng = np.random.Generator(np.random.Philox(seed))
    return sched.sigma_lambda(lam_start) * rng.standard_normal(dim)


def _table_time_range(table):
    sched = table.schedule
    lam = table.lambda_grid
    return float(sched.t_of_lambda(lam[-1])), float(sched.t_of_lambda(lam[0]))


def _error_row(x, ref):
    diff = np.asarray(x) - np.asarray(ref)
    return float(np.linalg.norm(diff)), float(np.max(np.abs(diff)))


# -- subcommands ----------------------------------------------------------------


def cmd_ems(args) -> int:
    model = _load_model(args.model)
    with open(args.schedule) as fh:
        sched = Schedule.from_dict(json.load(fh))
    cfg = EmsConfig(
        num_timesteps=args.num_timesteps,
        num_datapoints=args.num_datapoints,
        lam_range=(args.lam_min, args.lam_max),
        probes_per_point=args.probes,
        seed=args.seed,
    )
    table = estimate_table(model, sched, cfg)
    save_table(table, args.out)
    print(f"wrote {args.out}: {args.num_timesteps} intervals, K={args.num_datapoints}")
    print(f"l mean = {table.l.mean():.6f}")
    print(f"s mean = {table.s.mean():.6f}")
    print(f"b mean = {table.b.mean():.6f}")
    return 0


def cmd_solve(args) -> int:
    table = load_table(args.ems)
    sched = table.schedule
    model = _load_model(args.model)
    t_default_end, t_default_start = _table_time_range(table)
    t_start = args.t_start if args.t_start is not None else t_default_start
    t_end = args.t_end if args.t_end is not None else t_default_end
    grid = make_time_grid(sched, args.steps, args.grid, t_start, t_end)
    cfg = SolverConfig(
        order=args.order,
        grid=grid,
        corrector=args.corrector,
        pseudo_predictor=args.pseudo_predictor,
        pseudo_corrector=args.pseudo_corrector,
    )
    tab = build_integral_table(table)
    lam0 = _snap_grid(table, sched, grid).lams[0]
    x_init = _initial_noise(sched, lam0, table.dim, args.noise_seed)
    x_final, trace = multistep_sample(model, sched, tab, cfg, x_init)
    payload = {
        "grid": [row["t"] for row in trace],
        "x_final": np.asarray(x_final).tolist(),
    }
    if args.trace:
        payload["trace"] = trace
    with open(args.out, "w") as fh:
        json.dump(payload, fh, default=np.ndarray.tolist)  # trace rows hold arrays
        fh.write("\n")
    print(f"wrote {args.out}: {args.steps} steps, order {args.order}, corrector {args.corrector}")
    return 0


class _Seeds(NamedTuple):
    """Every seed's initial noise as one (S, D) batch, and each row's reference."""

    seeds: list
    x_init: np.ndarray
    refs: list


def _seed_batch(model, table, seeds) -> _Seeds:
    # DOP853's step control would couple the rows of a batch: reference per seed
    sched = table.schedule
    lam0, lam1 = float(table.lambda_grid[0]), float(table.lambda_grid[-1])
    x_init = np.stack([_initial_noise(sched, lam0, table.dim, seed) for seed in seeds])
    refs = [reference_solve(model, sched, x, lam0, lam1, tol=REFERENCE_TOL) for x in x_init]
    return _Seeds(list(seeds), x_init, refs)


class _Config(NamedTuple):
    """One bench configuration: multistep sampling on ``tab``, or DDIM if ``tab`` is None."""

    name: str
    tab: IntegralTable | None
    cfg: SolverConfig


def _run_seeds(batch: _Seeds, model, table, config: _Config, timing) -> list:
    """Run one configuration once on the whole seed batch; one row per seed, in seed order.

    DDIM steps between the sampling grid's times snapped to ``table``.  The
    model-call count must equal the grid's step count.  Under ``timing``,
    each row's ``seconds`` is the batch call's wall time divided by the
    number of seeds.
    """
    name, tab, cfg = config
    sched = table.schedule
    snapped = _snap_grid(table if tab is None else tab.ems, sched, cfg.grid)
    nfe, h_max = cfg.grid.num_steps, float(np.max(np.diff(snapped.lams)))
    counted = EvalCounter(model)
    start = time.perf_counter()
    if tab is None:
        x_final = ddim_sample(counted, sched, snapped.ts, batch.x_init)
    else:
        x_final = multistep_sample(counted, sched, tab, cfg, batch.x_init)[0]
    seconds = (time.perf_counter() - start) / len(batch.seeds) if timing else 0.0
    if counted.calls != nfe:
        raise RuntimeError(f"model-call accounting broke: {counted.calls} calls for {nfe} steps")
    return [
        RunRow(name, cfg.order, cfg.corrector, nfe, h_max, *_error_row(x, ref), seconds, seed)
        for seed, x, ref in zip(batch.seeds, x_final, batch.refs)
    ]


def _bench(args, configs, summary) -> int:
    """Run every configuration of a bench command on the seed batch and write its CSV.

    ``configs(table, grids)`` lists the configurations, ``grids[nfe]`` being
    the ``--grid`` time grid over the table's range.  The CSV holds the
    per-seed rows sorted, then ``summary(rows)``, which sees the rows seed by
    seed, each seed's in the order the configurations were listed.
    """
    model = _load_model(args.model)
    table = load_table(args.ems)
    t_end, t_start = _table_time_range(table)
    grids = {
        nfe: make_time_grid(table.schedule, nfe, args.grid, t_start, t_end) for nfe in args.nfe
    }
    listed = configs(table, grids)
    batch = _seed_batch(model, table, args.seeds)
    runs = [_run_seeds(batch, model, table, config, args.timing) for config in listed]
    rows = [row for seed_rows in zip(*runs) for row in seed_rows]
    out_rows = sorted(rows, key=lambda r: (r.solver, r.order, r.nfe, r.seed)) + summary(rows)
    with open(args.out, "w") as fh:
        fh.write(format_csv(out_rows))
    print(f"wrote {args.out}: {len(out_rows)} rows")
    return 0


def cmd_bench_convergence(args) -> int:
    def configs(table, grids):
        tab = build_integral_table(table)
        return [
            _Config("v3", tab, SolverConfig(order=order, grid=grids[nfe], corrector=args.corrector))
            for order in args.orders
            for nfe in args.nfe
        ]

    def slopes(rows):
        out = []
        for order in sorted(args.orders):
            subset = [r for r in rows if r.order == order]
            if all(r.l2_error <= FLOOR_ERROR for r in subset):
                kind, slope = "floor", 0.0
            elif len({r.h_max for r in subset}) < 3:
                kind, slope = "na", 0.0
            else:
                kind, slope = "fit", measure_order(subset)
            out.append(RunRow("slope", order, kind, 0, 0.0, slope, slope, 0.0, SUMMARY_SEED))
        return out

    return _bench(args, configs, slopes)


def cmd_bench_compare(args) -> int:
    def configs(table, grids):
        lam_range = (float(table.lambda_grid[0]), float(table.lambda_grid[-1]))
        n_intervals = len(table.lambda_grid) - 1
        tabs = {"v3": build_integral_table(table)}
        for kind in args.baselines:
            if kind in (NOISE_PRED, DATA_PRED):
                tabs[kind] = build_integral_table(
                    degenerate_table(kind, table.schedule, n_intervals, lam_range, table.dim)
                )
        names = ["v3"] + [k for k in dict.fromkeys(args.baselines) if k != "ddim"]
        out = []
        for nfe in args.nfe:
            cfg = SolverConfig(order=args.order, grid=grids[nfe], corrector=args.corrector)
            out += [_Config(name, tabs[name], cfg) for name in names]
            if "ddim" in args.baselines:
                out.append(_Config("ddim", None, SolverConfig(order=1, grid=cfg.grid)))
        return out

    def means(rows):
        # per-(solver, nfe) mean errors
        out = []
        for name in sorted({r.solver for r in rows}):
            for nfe in sorted(args.nfe):
                subset = [r for r in rows if r.solver == name and r.nfe == nfe]
                l2 = float(np.mean([r.l2_error for r in subset]))
                linf = float(np.mean([r.linf_error for r in subset]))
                first = subset[0]
                out.append(
                    RunRow(name, first.order, "mean", nfe, first.h_max, l2, linf, 0.0, SUMMARY_SEED)
                )
        return out

    return _bench(args, configs, means)


# -- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emsolve",
        description="Exponential-integrator diffusion ODE solvers with empirical model statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ems = sub.add_parser("ems", help="estimate a statistics table")
    p_ems.add_argument("--model", required=True, help="model JSON file")
    p_ems.add_argument("--schedule", required=True, help="schedule JSON file")
    p_ems.add_argument("--num-timesteps", type=int, default=120, metavar="N")
    p_ems.add_argument("--num-datapoints", type=int, default=1024, metavar="K")
    p_ems.add_argument("--probes", type=int, default=1)
    p_ems.add_argument("--seed", type=int, default=0)
    p_ems.add_argument("--lam-min", type=float, required=True)
    p_ems.add_argument("--lam-max", type=float, required=True)
    p_ems.add_argument("--out", required=True)
    p_ems.set_defaults(func=cmd_ems)

    # the flags of every sampling subcommand, and those the two bench subcommands add
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--model", required=True, help="model JSON file")
    sampling.add_argument("--ems", required=True, help="statistics table JSON file")
    sampling.add_argument("--grid", choices=[UNIFORM_LAMBDA, UNIFORM_T], default=UNIFORM_LAMBDA)
    sampling.add_argument("--corrector", choices=CORRECTORS, default=CORRECTOR_NONE)
    sampling.add_argument("--out", required=True)
    bench = argparse.ArgumentParser(add_help=False, parents=[sampling])
    bench.add_argument("--seeds", type=int, nargs="+", default=[0])
    bench.add_argument("--timing", action="store_true")

    p_solve = sub.add_parser("solve", parents=[sampling], help="sample one trajectory")
    p_solve.add_argument("--order", type=int, default=3)
    p_solve.add_argument("--pseudo-predictor", action="store_true")
    p_solve.add_argument("--pseudo-corrector", action="store_true")
    p_solve.add_argument("--steps", type=int, required=True, metavar="M")
    p_solve.add_argument("--t-start", type=float, default=None)
    p_solve.add_argument("--t-end", type=float, default=None)
    p_solve.add_argument("--noise-seed", type=int, default=0)
    p_solve.add_argument("--trace", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_conv = sub.add_parser("bench-convergence", parents=[bench], help="error-vs-steps study")
    p_conv.add_argument("--orders", type=int, nargs="+", default=[1, 2, 3])
    p_conv.add_argument("--nfe", type=int, nargs="+", default=[10, 20, 40, 80])
    p_conv.set_defaults(func=cmd_bench_convergence)

    p_cmp = sub.add_parser(
        "bench-compare", parents=[bench], help="estimated statistics vs baselines"
    )
    p_cmp.add_argument(
        "--baselines",
        nargs="+",
        choices=[NOISE_PRED, DATA_PRED, "ddim"],
        default=[NOISE_PRED, DATA_PRED, "ddim"],
    )
    p_cmp.add_argument("--order", type=int, default=3)
    p_cmp.add_argument("--nfe", type=int, nargs="+", default=[5, 8, 10])
    p_cmp.set_defaults(func=cmd_bench_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
