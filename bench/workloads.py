"""The four benchmark workloads and their output checks.

Each workload has the same shape:

* ``setup(seed, tracer)`` builds every input from the workload seed and
  returns a digest of what it built, so repeated set-ups can be compared;
* ``context(tracer)`` gives the objects one op runs on, wrapped in tracing
  delegates when ``tracer`` is given;
* ``op(ctx, i)`` is the timed unit of work and returns its output;
* ``check(i, out)`` returns why the op failed, or None;
* ``fingerprint(out)`` is the bytes that must match between a traced op and
  its untraced twin;
* ``err_l2()`` is the accuracy metric, computed after the timed phase.

The model is the 4-D, 2-component mixture of the test fixtures on vp-linear.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

from emsolve import (
    EmsConfig,
    EvalCounter,
    GaussianMixture,
    Schedule,
    SolverConfig,
    build_integral_table,
    estimate_table,
    make_time_grid,
    multistep_sample,
    reference_solve,
    save_table,
    singlestep_sample,
)
from emsolve.cli import main as cli_main

from tracing import TracedModel, TracedSchedule, patched_cli, traced_table

MIXTURE = {
    "kind": "gaussian-mixture",
    "weights": [0.4, 0.6],
    "means": [[0.6, -0.3, 0.25, -0.5], [-0.55, 0.4, -0.3, 0.45]],
    "stds": [0.8, 1.1],
}
T_START, T_END = 1.0, 1e-3
REFERENCE_TOL = 1e-10

# Noise seeds of the accuracy probe and of the CLI's bench-convergence. They
# are fixed, not drawn from the workload seed: with 64 seed-drawn
# trajectories the mean NFE-10 error still spread 17% (IQR over median, 8
# workload seeds), against 6% with 32 fixed ones, where only the table's
# Monte Carlo noise varies. 16 keep a cli-report op near 3 s, so that a run
# takes the median of five. The convergence seeds are criterion 1's list.
ERR_SEEDS = tuple(range(16))
CONVERGENCE_SEEDS = (11, 12, 13, 14, 15)
SLOPE_TOLERANCE = 0.35


def make_model():
    return GaussianMixture(
        weights=MIXTURE["weights"], means=MIXTURE["means"], stds=MIXTURE["stds"]
    )


def lam_range(sched):
    return float(sched.lambda_of_t(T_START)), float(sched.lambda_of_t(T_END))


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def table_digest(tab) -> str:
    ems = tab.ems
    return digest(ems.lambda_grid, ems.l, ems.s, ems.b, ems.l_dot, tab.L, tab.S, tab.B, tab.C, tab.I)


def table_time_range(tab):
    """(t_start, t_end) spanned by the table, as the CLI computes it."""
    sched, lam = tab.ems.schedule, tab.lambda_grid
    return float(sched.t_of_lambda(lam[0])), float(sched.t_of_lambda(lam[-1]))


def initial_noise(sched, lam, dim, seed):
    """The CLI's initial state for a noise seed."""
    rng = np.random.Generator(np.random.Philox(seed))
    return sched.sigma_lambda(lam) * rng.standard_normal(dim)


def err_l2_nfe10(model, sched, tab) -> float:
    """Mean l2 error of v3 order-3 NFE-10 samples against ``reference_solve``.

    The quantity of the v3 NFE-10 mean row of ``emsolve bench-compare`` with
    its default order and corrector, on the probe's noise seeds. All seeds
    run as one batch, 20x faster than the CLI's per-seed loop; the batched
    reference's step control couples the rows, which moves it by ~1e-10.
    """
    t_start, t_end = table_time_range(tab)
    lam0, lam1 = float(tab.lambda_grid[0]), float(tab.lambda_grid[-1])
    cfg = SolverConfig(order=3, grid=make_time_grid(sched, 10, "uniform-lambda", t_start, t_end))
    x = np.stack([initial_noise(sched, lam0, model.dim, seed) for seed in ERR_SEEDS])
    ref = reference_solve(model, sched, x, lam0, lam1, tol=REFERENCE_TOL)
    x_final, _ = multistep_sample(model, sched, tab, cfg, x)
    return float(np.mean(np.linalg.norm(np.asarray(x_final) - ref, axis=-1)))


def nonfinite(x) -> bool:
    return not np.all(np.isfinite(np.asarray(x, dtype=float)))


def _call(tracer, name, rows, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, rows, fn, *args, **kwargs)


def _wrap(model, sched, tracer):
    if tracer is None:
        return model, sched
    return TracedModel(model, tracer), TracedSchedule(sched, tracer)


def build_table(model, sched, cfg, tracer=None):
    """``estimate_table`` then ``build_integral_table``, in spans when traced."""
    model, sched = _wrap(model, sched, tracer)
    ems = _call(tracer, "ems.estimate", cfg.num_timesteps + 1, estimate_table, model, sched, cfg)
    return _call(tracer, "integrals.build", 0, build_integral_table, ems)


class Workload:
    cycle = 1  # ops per whole pass over the op list; runs time whole passes
    min_passes = 1
    warmup = 0
    rows_per_op = 1
    setup_repeats = 3  # setup_s is the median over these
    cal_rows = 2  # array rows of the calibration kernel (see run.calibrate)


# The fixture config's K on a quarter of its 960 intervals: the work per
# grid point is the same, and a run fits a median of five ops into the
# benchmark's time. Three ops of a 480-interval table spread 11% across ten
# seeds; five of this one spread 2% over six.
EMS_TIMESTEPS = 240
EMS_DATAPOINTS = 4096


class EmsBuild(Workload):
    """The offline cost per model and schedule: a table at the fixture's K."""

    min_passes = 5  # repeats must give the same table digest; op_rel is a median of five
    rows_per_op = EMS_TIMESTEPS + 1
    cal_rows = EMS_DATAPOINTS  # the model calls work on (K, 4) arrays

    def setup(self, seed, tracer=None):
        self.model = make_model()
        self.sched = Schedule("vp-linear")
        self.cfg = EmsConfig(
            num_timesteps=EMS_TIMESTEPS,
            num_datapoints=EMS_DATAPOINTS,
            lam_range=lam_range(self.sched),
            seed=seed,
        )
        self.first_digest = None
        return json.dumps(MIXTURE) + repr(self.cfg)

    def context(self, tracer):
        return tracer

    def op(self, tracer, i):
        return build_table(self.model, self.sched, self.cfg, tracer)

    def fingerprint(self, tab):
        return table_digest(tab)

    def check(self, i, tab):
        arrays = (tab.ems.l, tab.ems.s, tab.ems.b, tab.ems.l_dot, tab.L, tab.S, tab.B, tab.C, tab.I)
        if any(nonfinite(a) for a in arrays):
            return "non-finite table"
        d = table_digest(tab)
        if self.first_digest is None:
            self.first_digest, self.table = d, tab
        elif d != self.first_digest:
            return "table digest changed between repeats of one seed"
        return None

    def err_l2(self):
        return err_l2_nfe10(self.model, self.sched, self.table)


class _SampleWorkload(Workload):
    """Sampling on a 480x1024 table built in set-up from the workload seed."""

    def setup(self, seed, tracer=None):
        self.model = make_model()
        self.sched = Schedule("vp-linear")
        cfg = EmsConfig(
            num_timesteps=480, num_datapoints=1024, lam_range=lam_range(self.sched), seed=seed
        )
        self.tab = build_table(self.model, self.sched, cfg, tracer)
        self.lam0 = float(self.tab.lambda_grid[0])
        self.t_range = table_time_range(self.tab)
        self.rng = np.random.Generator(np.random.Philox(seed))
        self.prepare()
        return table_digest(self.tab)

    def context(self, tracer):
        if tracer is None:
            return self.model, self.sched, self.tab, None
        model, sched = _wrap(self.model, self.sched, tracer)
        return model, sched, traced_table(self.tab, sched), tracer

    def grid(self, nfe):
        return make_time_grid(self.sched, nfe, "uniform-lambda", *self.t_range)

    def err_l2(self):
        return err_l2_nfe10(self.model, self.sched, self.tab)


# (sampler, order, corrector, pseudo) cycled over NFE 5, 10, 15, 20
SERIAL_CONFIGS = (
    ("multistep", 1, "none", False),
    ("multistep", 2, "none", False),
    ("multistep", 2, "full", False),
    ("multistep", 3, "none", False),
    ("multistep", 3, "full", False),
    ("multistep", 3, "half", False),
    ("multistep", 3, "full", True),
    ("singlestep", 3, "none", False),
)
SERIAL_NFE = (5, 10, 15, 20)
SERIAL_POOL = 1024


class SampleSerial(_SampleWorkload):
    """Single (D,) trajectories one after another; per-step Python work dominates."""

    cycle = len(SERIAL_CONFIGS) * len(SERIAL_NFE)
    warmup = cycle

    def prepare(self):
        self.runs = []
        for sampler, order, corrector, pseudo in SERIAL_CONFIGS:
            for nfe in SERIAL_NFE:
                cfg = SolverConfig(
                    order=order,
                    grid=self.grid(nfe),
                    corrector=corrector,
                    pseudo_predictor=pseudo,
                    pseudo_corrector=pseudo,
                )
                fn = multistep_sample if sampler == "multistep" else singlestep_sample
                self.runs.append((fn, cfg, nfe))
        sigma0 = self.sched.sigma_lambda(self.lam0)
        self.pool = sigma0 * self.rng.standard_normal((SERIAL_POOL, self.model.dim))

    def op(self, ctx, i):
        model, sched, tab, tracer = ctx
        fn, cfg, nfe = self.runs[i % self.cycle]
        counted = EvalCounter(model)
        out = _call(tracer, "solver.sample", nfe, fn, counted, sched, tab, cfg, self.pool[i % SERIAL_POOL])
        x_final = out[0] if fn is multistep_sample else out
        return np.asarray(x_final), counted.calls

    def fingerprint(self, out):
        return out[0].tobytes()

    def check(self, i, out):
        x_final, calls = out
        nfe = self.runs[i % self.cycle][2]
        if nonfinite(x_final):
            return "non-finite sample"
        if calls != nfe:
            return f"{calls} model calls for NFE {nfe}"
        return None


BATCH_ROWS = 16384
BATCH_NFE = 20
BATCH_CHECK_ROWS = 64


class SampleBatch(_SampleWorkload):
    """One multistep call on a (16384, 4) state; model arithmetic dominates."""

    warmup = 1
    rows_per_op = BATCH_ROWS
    cal_rows = BATCH_ROWS

    def prepare(self):
        self.cfg = SolverConfig(order=3, grid=self.grid(BATCH_NFE), corrector="full")
        sigma0 = self.sched.sigma_lambda(self.lam0)
        self.x = sigma0 * self.rng.standard_normal((BATCH_ROWS, self.model.dim))
        self.check_rows = np.linspace(0, BATCH_ROWS - 1, BATCH_CHECK_ROWS).astype(int)
        self.per_row = None
        self.first_digest = None

    def op(self, ctx, i):
        model, sched, tab, tracer = ctx
        counted = EvalCounter(model)
        x_final, _ = _call(
            tracer, "solver.sample", BATCH_NFE, multistep_sample, counted, sched, tab, self.cfg, self.x
        )
        return np.asarray(x_final), counted.calls

    def fingerprint(self, out):
        return out[0].tobytes()

    def check(self, i, out):
        x_final, calls = out
        if x_final.shape != self.x.shape or nonfinite(x_final):
            return "non-finite or misshapen batch"
        if calls != BATCH_NFE:
            return f"{calls} model calls for NFE {BATCH_NFE}"
        if self.per_row is None:  # untimed: the reference rows, one run each
            self.per_row = np.stack(
                [
                    multistep_sample(self.model, self.sched, self.tab, self.cfg, self.x[r])[0]
                    for r in self.check_rows
                ]
            )
        if not np.array_equal(x_final[self.check_rows], self.per_row):
            return "batch rows differ from per-row runs"
        d = digest(x_final)
        if self.first_digest is None:
            self.first_digest = d
        elif d != self.first_digest:
            return "batch output changed between repeats"
        return None


# K=4096 rather than the sampling workloads' 1024: at K=1024 the order-3
# slope on the five convergence trajectories sits at 2.64-2.78 across table
# seeds, at the edge of criterion 1's 3 - 0.35; at K=4096 it sits at 2.69-2.72.
CLI_DATAPOINTS = 4096


class CliReport(Workload):
    """In-process ``emsolve.cli.main``: bench-convergence then bench-compare."""

    min_passes = 5  # CSVs must repeat byte for byte; op_rel is a median of five
    setup_repeats = 2  # one set-up estimates a 480x4096 table, ~8 s
    # The op's time moved about half as much as any kernel's when the
    # machine's speed drifted; the kernel on large arrays moved least.
    cal_rows = 4096

    def __init__(self, workdir):
        self.workdir = workdir

    def setup(self, seed, tracer=None):
        d = os.path.join(self.workdir, "traced" if tracer else "untraced")
        os.makedirs(d, exist_ok=True)
        self.model_path = os.path.join(d, "model.json")
        self.ems_path = os.path.join(d, "ems.json")
        self.conv_path = os.path.join(d, "conv.csv")
        self.cmp_path = os.path.join(d, "compare.csv")
        model, sched = make_model(), Schedule("vp-linear")
        cfg = EmsConfig(
            num_timesteps=480, num_datapoints=CLI_DATAPOINTS, lam_range=lam_range(sched), seed=seed
        )
        with open(self.model_path, "w") as fh:
            json.dump(model.to_dict(), fh)
        model, sched = _wrap(model, sched, tracer)
        table = _call(tracer, "ems.estimate", cfg.num_timesteps + 1, estimate_table, model, sched, cfg)
        save_table(table, self.ems_path)
        self.first_csvs = None
        self.err = None
        h = hashlib.sha256()
        for path in (self.model_path, self.ems_path):
            with open(path, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    def context(self, tracer):
        return tracer

    def _argv(self):
        common = ["--model", self.model_path, "--ems", self.ems_path]
        conv = ["bench-convergence", *common, "--orders", "1", "2", "3", "--nfe", "10", "20", "40", "80"]
        conv += ["--seeds", *map(str, CONVERGENCE_SEEDS), "--out", self.conv_path]
        cmp = ["bench-compare", *common, "--nfe", "5", "8", "10"]
        cmp += ["--seeds", *map(str, ERR_SEEDS), "--out", self.cmp_path]
        return conv, cmp

    def op(self, tracer, i):
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in self._argv():
                if tracer is None:
                    codes.append(cli_main(argv))
                else:
                    with patched_cli(tracer) as missing:
                        self.untraced_names = missing
                        codes.append(tracer.call("cli", 0, cli_main, argv))
        csvs = []
        for path in (self.conv_path, self.cmp_path):
            with open(path, "rb") as fh:
                csvs.append(fh.read())
        return codes, csvs

    def fingerprint(self, out):
        return b"".join(out[1])

    def check(self, i, out):
        codes, csvs = out
        if codes != [0, 0]:
            return f"CLI exit codes {codes}"
        if self.first_csvs is None:
            self.first_csvs = csvs
        elif csvs != self.first_csvs:
            return "CSV bytes changed between repeats of one seed"
        slopes = {}
        for line in csvs[0].decode().splitlines():
            f = line.split(",")
            if f[0] == "slope":
                slopes[int(f[1])] = (f[2], float(f[5]))
        for order in (1, 2, 3):
            kind, slope = slopes.get(order, ("missing", float("nan")))
            if kind != "fit" or not abs(slope - order) <= SLOPE_TOLERANCE:
                return f"order-{order} convergence slope {kind} {slope}"
        errs = []
        for line in csvs[1].decode().splitlines():
            f = line.split(",")
            if f[0] == "v3" and f[2] == "mean" and f[3] == "10":
                errs.append(float(f[5]))
        if len(errs) != 1 or nonfinite(errs):
            return "no finite v3 NFE-10 mean row in bench-compare"
        self.err = errs[0]
        return None

    def err_l2(self):
        return self.err


def make(name, workdir):
    if name == "cli-report":
        return CliReport(workdir)
    return {"ems-build": EmsBuild, "sample-serial": SampleSerial, "sample-batch": SampleBatch}[name]()
