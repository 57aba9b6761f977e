"""Acceptance criteria for the solver library, one test per criterion.

Each test prints a PASS/FAIL line (run with ``pytest -s`` to see them all).
Criterion 11 is report-only: its outcome is printed but does not gate.
"""

import dataclasses
import json
import time

import numpy as np

from emsolve import (
    EmsConfig,
    EmsTable,
    PointGaussian,
    Schedule,
    SolverConfig,
    build_integral_table,
    degenerate_table,
    estimate_table,
    g_map,
    lupdate,
    make_time_grid,
    multistep_sample,
    plan_multistep,
    reference_solve,
    transition_coefficients,
)
from emsolve.cli import main, parse_csv
from emsolve.ems import DATA_PRED, NOISE_PRED
from emsolve.models import ModelSpec
from emsolve.schedule import UNIFORM_LAMBDA

from oracles import (
    ddim_step,
    estimate_derivatives,
    estimate_derivatives_pseudo,
    explicit_vandermonde_solution,
    forward_diffuse,
    reference_states,
)
from test_solver import draw_separated, g_value


def report(num: int, passed: bool, detail: str):
    print(f"\nACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num} failed: {detail}"


class RecordingModel(ModelSpec):
    """Wrapper capturing every (x, lambda) the sampler evaluates."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    @property
    def dim(self):
        return self.inner.dim

    def eps(self, sched, x, lam):
        out = self.inner.eps(sched, x, lam)
        self.calls.append((np.array(x, dtype=float), float(lam), np.array(out)))
        return out

    def linearize(self, sched, x, lam, workspace=None):
        return self.inner.linearize(sched, x, lam, workspace=workspace)


def test_criterion_1_global_convergence_order(vp, mix4, mix_table, mix_tab, vp_lam_range):
    start = time.perf_counter()
    lam0, lam1 = float(mix_table.lambda_grid[0]), float(mix_table.lambda_grid[-1])
    steps = (10, 20, 40, 80)
    seeds = (11, 12, 13, 14, 15)
    hs = (vp_lam_range[1] - vp_lam_range[0]) / np.array(steps)

    inits = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        x0 = vp.sigma_lambda(lam0) * rng.standard_normal(4)
        inits.append((x0, reference_solve(mix4, vp, x0, lam0, lam1, tol=1e-10)))

    slopes = {}
    for order in (1, 2, 3):
        log_h, log_e = [], []
        for m, h in zip(steps, hs):
            grid = make_time_grid(vp, m, UNIFORM_LAMBDA, 1.0, 1e-3)
            cfg = SolverConfig(order=order, grid=grid)
            for x0, ref in inits:
                xf, _ = multistep_sample(mix4, vp, mix_tab, cfg, x0)
                log_h.append(np.log(h))
                log_e.append(np.log(np.linalg.norm(xf - ref)))
        slopes[order] = float(np.polyfit(log_h, log_e, 1)[0])

    elapsed = time.perf_counter() - start
    ok = all(abs(slopes[o] - o) <= 0.35 for o in (1, 2, 3)) and elapsed <= 120
    report(
        1,
        ok,
        "global order slopes "
        + ", ".join(f"{o}: {slopes[o]:.3f} (want {o} +- 0.35)" for o in (1, 2, 3))
        + f"; {elapsed:.1f}s <= 120s",
    )


def test_criterion_2_local_order(vp, mix4):
    start = time.perf_counter()
    lam_c = 0.3
    hs = (0.4, 0.2, 0.1, 0.05)
    cfg = EmsConfig(
        num_timesteps=2400,
        num_datapoints=768,
        lam_range=(lam_c - 2 * max(hs) - 0.1, lam_c + max(hs) + 0.1),
        seed=3,
    )
    table = estimate_table(mix4, vp, cfg)
    tab = build_integral_table(table)

    rng = np.random.default_rng(42)
    x_far = forward_diffuse(vp, mix4.sample_data(rng, 1)[0], float(table.lambda_grid[0]), rng)

    slopes = {}
    for n in (0, 1, 2):
        errs, h_used = [], []
        for h in hs:
            cells = max(1, round(h / table.spacing))
            j_s = table.index_of(lam_c)
            j_hist = [j_s - k * cells for k in range(1, n + 1)]
            j_t = j_s + cells
            lam_pts = np.sort(table.lambda_grid[j_hist + [j_s, j_t]])
            states = reference_states(
                mix4, vp, x_far, float(table.lambda_grid[0]), lam_pts, tol=1e-12
            )
            state_at = {int(round((l - table.lambda_grid[0]) / table.spacing)): s
                        for l, s in zip(lam_pts, states)}
            x_s = state_at[j_s]
            anchor = (j_s, x_s, g_value(tab, vp, mix4, j_s, j_s, x_s))
            extras = [(j, g_value(tab, vp, mix4, j_s, j, state_at[j])) for j in j_hist]
            xhat = lupdate(tab, anchor, extras, j_t)
            errs.append(np.linalg.norm(xhat - state_at[j_t]))
            h_used.append(cells * table.spacing)
        slopes[n] = float(np.polyfit(np.log(h_used), np.log(errs), 1)[0])

    elapsed = time.perf_counter() - start
    ok = all(abs(slopes[n] - (n + 2)) <= 0.4 for n in (0, 1, 2)) and elapsed <= 60
    report(
        2,
        ok,
        "local order slopes "
        + ", ".join(f"n={n}: {slopes[n]:.3f} (want {n + 2} +- 0.4)" for n in (0, 1, 2))
        + f"; {elapsed:.1f}s <= 60s",
    )


def test_criterion_3_local_unbiasedness(vp, mix4, mix_table, mix_tab):
    start = time.perf_counter()
    table = mix_table
    h_cells = round(0.5 / table.spacing)
    j_s = table.index_of(0.0)
    j_hist, j_t = j_s - h_cells, j_s + h_cells
    lam_hist, lam_s, lam_t = (float(table.lambda_grid[j]) for j in (j_hist, j_s, j_t))

    n_pts = 1000
    rng = np.random.default_rng(123)
    x_hist = forward_diffuse(vp, mix4.sample_data(rng, n_pts), lam_hist, rng)
    x_s = reference_solve(mix4, vp, x_hist, lam_hist, lam_s, tol=1e-10)
    x_true = reference_solve(mix4, vp, x_s, lam_s, lam_t, tol=1e-10)

    anchor = (j_s, x_s, g_value(mix_tab, vp, mix4, j_s, j_s, x_s))
    extras = [(j_hist, g_value(mix_tab, vp, mix4, j_s, j_hist, x_hist))]
    err = lupdate(mix_tab, anchor, extras, j_t) - x_true
    mean = err.mean(axis=0)
    bound = 3.0 * err.std(axis=0, ddof=1) / np.sqrt(n_pts)

    # report-only bias comparison against the data-prediction degenerate table
    dp_tab = build_integral_table(
        degenerate_table(DATA_PRED, vp, len(table.lambda_grid) - 1,
                         (float(table.lambda_grid[0]), float(table.lambda_grid[-1])), 4)
    )
    anchor_dp = (j_s, x_s, g_value(dp_tab, vp, mix4, j_s, j_s, x_s))
    extras_dp = [(j_hist, g_value(dp_tab, vp, mix4, j_s, j_hist, x_hist))]
    err_dp = lupdate(dp_tab, anchor_dp, extras_dp, j_t) - x_true
    larger = int(np.sum(np.abs(err_dp.mean(axis=0)) > np.abs(mean)))
    print(f"\n  [report] degenerate data-pred bias larger in {larger}/4 components")

    elapsed = time.perf_counter() - start
    ok = bool(np.all(np.abs(mean) <= bound)) and elapsed <= 120
    report(
        3,
        ok,
        f"2nd-order local step over {n_pts} diffused points: |mean err| = "
        f"{np.abs(mean).max():.2e} <= 3 std/sqrt(n) = {bound.min():.2e}; "
        f"{elapsed:.1f}s <= 120s",
    )


def test_criterion_4_ddim_equivalence():
    worst = 0.0
    for kind, trange in (("vp-linear", (1.0, 1e-3)), ("edm", (80.0, 0.002))):
        sched = Schedule(kind)
        lam_range = (float(sched.lambda_of_t(trange[0])), float(sched.lambda_of_t(trange[1])))
        table = degenerate_table(NOISE_PRED, sched, 400, lam_range, 4)
        tab = build_integral_table(table)
        rng = np.random.default_rng(17)
        for _ in range(100):
            j_s = int(rng.integers(0, 400))
            j_t = int(rng.integers(j_s + 1, 401))
            x, eps = rng.standard_normal(4), rng.standard_normal(4)
            a, b, c = g_map(tab, j_s, j_s)
            got = lupdate(tab, (j_s, x, a * x + b * eps + c), [], j_t)
            want = ddim_step(
                sched, x, eps,
                float(sched.t_of_lambda(table.lambda_grid[j_s])),
                float(sched.t_of_lambda(table.lambda_grid[j_t])),
            )
            worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    report(4, worst <= 1e-10, f"first-order vs DDIM, 200 random steps: worst rel diff {worst:.2e} <= 1e-10")


def test_criterion_5_gaussian_assumption_statistics(vp, vp_lam_range):
    pg = PointGaussian(x0=np.array([0.3, -0.2, 0.1, 0.5]))
    cfg = EmsConfig(num_timesteps=48, num_datapoints=256, lam_range=vp_lam_range, seed=21)
    table = estimate_table(pg, vp, cfg)
    l_dev = float(np.max(np.abs(table.l - 1.0)))
    s_max = float(np.max(np.abs(table.s)))
    b_max = float(np.max(np.abs(table.b)))
    ok = l_dev <= 1e-12 and s_max <= 1e-6 and b_max <= 1e-6
    report(
        5,
        ok,
        f"point-mass statistics: |l-1| {l_dev:.2e} <= 1e-12, |s| {s_max:.2e} (regularized to 0), "
        f"|b| {b_max:.2e} <= 1e-6",
    )


def test_criterion_6_pseudo_order_correctness(vp, mix4, mix_tab):
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        deltas = draw_separated(rng, n)
        gs = [rng.standard_normal(3) for _ in range(n + 1)]
        pseudo = estimate_derivatives_pseudo(deltas, gs)
        for k in range(1, n + 1):
            direct = estimate_derivatives(deltas[:k], [g - gs[0] for g in gs[1 : k + 1]])
            worst = max(worst, float(np.max(np.abs(pseudo[k - 1] - direct[k - 1]))))

    grid = make_time_grid(vp, 12, UNIFORM_LAMBDA, 1.0, 1e-3)
    rng2 = np.random.default_rng(32)
    x0 = vp.sigma_lambda(mix_tab.ems.lambda_grid[0]) * rng2.standard_normal(4)
    traj_diff = 0.0
    for order in (1, 2):
        plain, _ = multistep_sample(mix4, vp, mix_tab, SolverConfig(order=order, grid=grid), x0)
        pseudo, _ = multistep_sample(
            mix4, vp, mix_tab, SolverConfig(order=order, grid=grid, pseudo_predictor=True), x0
        )
        traj_diff = max(traj_diff, float(np.max(np.abs(plain - pseudo))))

    ok = worst <= 1e-10 and traj_diff <= 1e-12
    report(
        6,
        ok,
        f"divided-difference recurrence vs truncated solves: {worst:.2e} <= 1e-10 "
        f"(1000 instances); low-order trajectory diff {traj_diff:.2e} <= 1e-12",
    )


def test_criterion_7_vandermonde_explicit_inverse():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        deltas = draw_separated(rng, n)
        diffs = [rng.standard_normal(4) for _ in range(n)]
        sol = estimate_derivatives(deltas, diffs)
        closed = explicit_vandermonde_solution(deltas, diffs)
        worst = max(worst, float(np.max(np.abs(sol[-1] - closed))))
    report(7, worst <= 1e-9, f"elimination vs closed-form inverse row: worst {worst:.2e} <= 1e-9")


def test_criterion_8_quadrature_order(vp):
    c_l = np.array([0.7, 0.3]); c_s = np.array([-0.4, 0.25]); c_b = np.array([0.25, -0.5])
    lam_range = (-4.0, 4.0)
    errs = {q: [] for q in ("E0", "E1", "E2", "E3", "intEB", "g_c")}
    a_exact = True
    for n in (120, 240, 480):
        grid = np.linspace(*lam_range, n + 1)
        ones = np.ones((n + 1, 2))
        table = EmsTable(
            lambda_grid=grid, l=ones * c_l, s=ones * c_s, b=ones * c_b,
            l_dot=np.zeros((n + 1, 2)), schedule=vp, meta={},
        )
        exact = build_integral_table(table)
        assert exact.const_lsb is not None
        tab = dataclasses.replace(exact, closed_form=False)  # the quadrature path
        j_s, j_t = n // 4, 3 * n // 4
        got = transition_coefficients(tab, j_s, j_t, 3)
        want = transition_coefficients(exact, j_s, j_t, 3)
        a_exact &= bool(np.max(np.abs(got.A - want.A)) < 1e-11)
        for k in (0, 1, 2, 3):
            errs[f"E{k}"].append(np.max(np.abs(got.E[k] - want.E[k])))
        errs["intEB"].append(np.max(np.abs(got.int_EB - want.int_EB)))
        errs["g_c"].append(np.max(np.abs(g_map(tab, j_s, j_t)[2] - g_map(exact, j_s, j_t)[2])))
    ratios = {q: [e[i] / e[i + 1] for i in range(2)] for q, e in errs.items()}
    ok = a_exact and all(abs(r - 4.0) <= 0.5 for rs in ratios.values() for r in rs)
    summary = "; ".join(f"{q}: {rs[0]:.2f},{rs[1]:.2f}" for q, rs in ratios.items())
    report(8, ok, f"halving ratios (want 4 +- 0.5) {summary}; damping coefficient exact: {a_exact}")


def test_criterion_9_corrector_g_invariance(vp, mix4, mix_table, mix_tab):
    grid = make_time_grid(vp, 20, UNIFORM_LAMBDA, 1.0, 1e-3)
    recorder = RecordingModel(mix4)
    rng = np.random.default_rng(51)
    x0 = vp.sigma_lambda(mix_table.lambda_grid[0]) * rng.standard_normal(4)
    plan = plan_multistep(mix_tab, SolverConfig(order=3, grid=grid, corrector="full"))
    trace, trace_rec = [], []
    plan.run(mix4, x0, trace)
    plan.run(recorder, x0, trace_rec)
    assert len(trace) == len(trace_rec)  # the recorder must not perturb the run
    for row, row_rec in zip(trace, trace_rec):
        assert row.keys() == row_rec.keys()
        assert all(np.array_equal(row[key], row_rec[key]) for key in row)

    idx = [mix_table.index_of(l) for l in grid.lambdas]
    worst = 0.0
    for m in range(1, 20):  # every corrected step of the run
        x_pred, _, eps_pred = recorder.calls[m]
        x_corr = np.array(trace[m - 1]["x"])
        eps_corr = np.array(trace[m - 1]["eps"])
        a, b, c = g_map(mix_tab, idx[m - 1], idx[m])
        g_pred = a * x_pred + b * eps_pred + c
        g_corr = a * x_corr + b * eps_corr + c
        worst = max(worst, float(np.max(np.abs(g_corr - g_pred))))
    report(9, worst <= 1e-12, f"corrector g-invariance over 19 corrected steps: worst {worst:.2e} <= 1e-12")


def test_criterion_10_determinism(tmp_path, vp, mix4, vp_lam_range):
    sched_path = tmp_path / "sched.json"
    model_path = tmp_path / "mix.json"
    sched_path.write_text(json.dumps(vp.to_dict()))
    model_path.write_text(json.dumps(mix4.to_dict()))

    ems_args = [
        "ems", "--model", str(model_path), "--schedule", str(sched_path),
        "--num-timesteps", "60", "--num-datapoints", "128", "--seed", "5",
        "--lam-min", repr(vp_lam_range[0]), "--lam-max", repr(vp_lam_range[1]),
    ]
    pairs = []
    for run in (1, 2):
        out = tmp_path / f"ems{run}.json"
        assert main(ems_args + ["--out", str(out)]) == 0
        pairs.append(out.read_bytes())
    same_ems = pairs[0] == pairs[1]

    table_path = tmp_path / "ems1.json"
    conv_args = [
        "bench-convergence", "--model", str(model_path), "--ems", str(table_path),
        "--orders", "1", "2", "--nfe", "6", "12", "24", "--seeds", "0", "1",
    ]
    conv = []
    for run in (1, 2):
        out = tmp_path / f"conv{run}.csv"
        assert main(conv_args + ["--out", str(out)]) == 0
        conv.append(out.read_bytes())
    same_conv = conv[0] == conv[1]

    cmp_args = [
        "bench-compare", "--model", str(model_path), "--ems", str(table_path),
        "--nfe", "5", "--seeds", "0",
    ]
    cmps = []
    for run in (1, 2):
        out = tmp_path / f"cmp{run}.csv"
        assert main(cmp_args + ["--out", str(out)]) == 0
        cmps.append(out.read_bytes())
    same_cmp = cmps[0] == cmps[1]

    ok = same_ems and same_conv and same_cmp
    report(
        10,
        ok,
        f"byte-identical reruns: ems {same_ems}, bench-convergence {same_conv}, "
        f"bench-compare {same_cmp}",
    )


def test_criterion_11_low_nfe_comparison_report(tmp_path, vp, mix4, vp_lam_range):
    sched_path = tmp_path / "sched.json"
    model_path = tmp_path / "mix.json"
    sched_path.write_text(json.dumps(vp.to_dict()))
    model_path.write_text(json.dumps(mix4.to_dict()))
    table_path = tmp_path / "ems.json"
    assert main([
        "ems", "--model", str(model_path), "--schedule", str(sched_path),
        "--num-timesteps", "240", "--num-datapoints", "1024", "--seed", "7",
        "--lam-min", repr(vp_lam_range[0]), "--lam-max", repr(vp_lam_range[1]),
        "--out", str(table_path),
    ]) == 0
    out = tmp_path / "compare.csv"
    assert main([
        "bench-compare", "--model", str(model_path), "--ems", str(table_path),
        "--baselines", "noise-pred", "data-pred",
        "--order", "3", "--nfe", "5", "8", "10", "--seeds", "0", "1", "2",
        "--out", str(out),
    ]) == 0
    rows = parse_csv(out.read_text())
    means = {(r.solver, r.nfe): r.l2_error for r in rows if r.seed == -1}
    lines = []
    beats_all = True
    for nfe in (5, 8, 10):
        v3 = means[("v3", nfe)]
        np_err = means[("noise-pred", nfe)]
        dp_err = means[("data-pred", nfe)]
        beats = v3 <= np_err and v3 <= dp_err
        beats_all &= beats
        lines.append(f"nfe {nfe}: v3 {v3:.2e} vs noise-pred {np_err:.2e}, data-pred {dp_err:.2e}")
    # report-only: printed, not gating
    print(f"\nACCEPTANCE 11: {'PASS' if beats_all else 'FAIL'} (report-only) - " + "; ".join(lines))
