import json
import re

import numpy as np
import pytest

from emsolve import EmsConfig, SolverConfig, cli, estimate_table, save_table
from emsolve.cli import CSV_HEADER, RunRow, format_csv, main, measure_order, parse_csv
from emsolve.ems import DATA_PRED, NOISE_PRED


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory, vp, pg4, mix4):
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "schedule": root / "vp.json",
        "pg": root / "pg.json",
        "mix": root / "mix.json",
        "root": root,
    }
    paths["schedule"].write_text(json.dumps(vp.to_dict()))
    paths["pg"].write_text(json.dumps(pg4.to_dict()))
    paths["mix"].write_text(json.dumps(mix4.to_dict()))
    return paths


@pytest.fixture(scope="module")
def mix_ems_file(cli_files, vp_lam_range):
    out = cli_files["root"] / "mix_ems.json"
    code = main(
        [
            "ems",
            "--model", str(cli_files["mix"]),
            "--schedule", str(cli_files["schedule"]),
            "--num-timesteps", "240",
            "--num-datapoints", "512",
            "--seed", "3",
            "--lam-min", repr(vp_lam_range[0]),
            "--lam-max", repr(vp_lam_range[1]),
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def pg_floor_ems_file(cli_files, vp, pg4):
    """Point-mass statistics on a fine, narrow grid: quadrature error < 1e-8."""
    cfg = EmsConfig(num_timesteps=3000, num_datapoints=8, lam_range=(2.0, 3.0), seed=0)
    table = estimate_table(pg4, vp, cfg)
    out = cli_files["root"] / "pg_ems.json"
    save_table(table, out)
    return out


# -- ems command -----------------------------------------------------------------


def test_cmd_ems_point_mass_summary(cli_files, capsys):
    out = cli_files["root"] / "pg_summary.json"
    code = main(
        [
            "ems",
            "--model", str(cli_files["pg"]),
            "--schedule", str(cli_files["schedule"]),
            "--num-timesteps", "16",
            "--num-datapoints", "32",
            "--lam-min", "-2.0",
            "--lam-max", "2.0",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert "l mean = 1.000000" in capsys.readouterr().out
    assert out.exists()


def test_cmd_ems_deterministic_bytes(cli_files):
    args = [
        "ems",
        "--model", str(cli_files["mix"]),
        "--schedule", str(cli_files["schedule"]),
        "--num-timesteps", "12",
        "--num-datapoints", "64",
        "--seed", "9",
        "--lam-min", "-1.0",
        "--lam-max", "1.0",
    ]
    out1 = cli_files["root"] / "det1.json"
    out2 = cli_files["root"] / "det2.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cmd_ems_missing_out_is_usage_error(cli_files, capsys):
    code = main(
        [
            "ems",
            "--model", str(cli_files["pg"]),
            "--schedule", str(cli_files["schedule"]),
            "--lam-min", "-1.0",
            "--lam-max", "1.0",
        ]
    )
    assert code == 2
    capsys.readouterr()


def test_cmd_ems_infinite_lam_max_is_runtime_error(cli_files, capsys):
    # vp-linear's lambda domain reaches +inf, so only the config check stops this run
    out = cli_files["root"] / "inf.json"
    code = main(
        [
            "ems",
            "--model", str(cli_files["pg"]),
            "--schedule", str(cli_files["schedule"]),
            "--num-timesteps", "4",
            "--num-datapoints", "8",
            "--lam-min", "-1.0",
            "--lam-max", "inf",
            "--out", str(out),
        ]
    )
    assert code == 1
    assert "lam_range must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_missing_model_file_is_runtime_error(cli_files, capsys):
    code = main(
        [
            "ems",
            "--model", str(cli_files["root"] / "nope.json"),
            "--schedule", str(cli_files["schedule"]),
            "--lam-min", "-1.0",
            "--lam-max", "1.0",
            "--out", str(cli_files["root"] / "x.json"),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, key",
    [
        ({"kind": "point-gaussian"}, "x0"),
        ({"kind": "gaussian-mixture", "weights": [1.0], "stds": [1.0]}, "means"),
        ({"kind": "guided", "cond": {"kind": "point-gaussian", "x0": [0.0]}, "scale": 2}, "uncond"),
    ],
    ids=["x0", "means", "uncond"],
)
def test_model_file_missing_a_key_is_runtime_error(cli_files, capsys, data, key):
    path = cli_files["root"] / f"missing_{key}.json"
    path.write_text(json.dumps(data))
    code = main(
        [
            "ems",
            "--model", str(path),
            "--schedule", str(cli_files["schedule"]),
            "--lam-min", "-1.0",
            "--lam-max", "1.0",
            "--out", str(cli_files["root"] / "x.json"),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: model dict missing key '{key}'\n"


# -- solve command -----------------------------------------------------------------


def test_cmd_solve_single_step_is_first_order(cli_files, mix_ems_file, vp, mix4):
    from emsolve import SolverConfig, build_integral_table, load_table, make_time_grid, multistep_sample

    out = cli_files["root"] / "solve1.json"
    code = main(
        [
            "solve",
            "--ems", str(mix_ems_file),
            "--model", str(cli_files["mix"]),
            "--order", "3",
            "--steps", "1",
            "--noise-seed", "5",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())

    table = load_table(mix_ems_file)
    tab = build_integral_table(table)
    lam = table.lambda_grid
    sched = table.schedule
    t_start = float(sched.t_of_lambda(lam[0]))
    t_end = float(sched.t_of_lambda(lam[-1]))
    grid = make_time_grid(sched, 1, "uniform-lambda", t_start, t_end)
    rng = np.random.Generator(np.random.Philox(5))
    x_init = sched.sigma_lambda(lam[0]) * rng.standard_normal(table.dim)
    want, _ = multistep_sample(mix4, sched, tab, SolverConfig(order=3, grid=grid), x_init)
    assert np.allclose(payload["x_final"], want, rtol=0, atol=0)


def test_cmd_solve_pseudo_identity_at_order_two(cli_files, mix_ems_file):
    args = [
        "solve",
        "--ems", str(mix_ems_file),
        "--model", str(cli_files["mix"]),
        "--order", "2",
        "--steps", "8",
        "--noise-seed", "1",
    ]
    out1 = cli_files["root"] / "plain.json"
    out2 = cli_files["root"] / "pseudo.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--pseudo-predictor", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cmd_solve_trace_and_determinism(cli_files, mix_ems_file):
    args = [
        "solve",
        "--ems", str(mix_ems_file),
        "--model", str(cli_files["mix"]),
        "--order", "2",
        "--corrector", "full",
        "--steps", "6",
        "--noise-seed", "2",
        "--trace",
    ]
    out1 = cli_files["root"] / "tr1.json"
    out2 = cli_files["root"] / "tr2.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert len(payload["trace"]) == 6
    assert len(payload["grid"]) == 6
    assert payload["trace"][0]["g_norm"] > 0
    # the JSON schema: x and eps are lists of D floats, eps is null on the last row
    rows = payload["trace"]
    for row in rows:
        assert list(row) == ["t", "lambda", "x", "eps", "eps_norm", "g_norm"]
        assert len(row["x"]) == 4 and all(type(v) is float for v in row["x"])
    for row in rows[:-1]:
        assert len(row["eps"]) == 4 and all(type(v) is float for v in row["eps"])
    assert rows[-1]["eps"] is None and rows[-1]["eps_norm"] is None and rows[-1]["g_norm"] is None
    assert rows[-1]["x"] == payload["x_final"]


@pytest.mark.parametrize("corrector", ["none", "half"])
def test_cmd_solve_without_trace_writes_the_traced_payload_less_its_rows(
    cli_files, mix_ems_file, corrector
):
    args = [
        "solve",
        "--ems", str(mix_ems_file),
        "--model", str(cli_files["mix"]),
        "--corrector", corrector,
        "--steps", "7",
        "--noise-seed", "4",
    ]
    plain = cli_files["root"] / f"plain-{corrector}.json"
    traced = cli_files["root"] / f"traced-{corrector}.json"
    assert main(args + ["--out", str(plain)]) == 0
    assert main(args + ["--trace", "--out", str(traced)]) == 0
    payload = json.loads(traced.read_text())
    assert [row["t"] for row in payload.pop("trace")] == payload["grid"]
    assert plain.read_text() == json.dumps(payload) + "\n"


# -- benchmark commands ----------------------------------------------------------------


def test_bench_convergence_slope_row(cli_files, mix_ems_file):
    out = cli_files["root"] / "conv.csv"
    code = main(
        [
            "bench-convergence",
            "--model", str(cli_files["mix"]),
            "--ems", str(mix_ems_file),
            "--orders", "1",
            "--nfe", "8", "16", "32",
            "--seeds", "0", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = parse_csv(out.read_text())
    runs = [r for r in rows if r.solver == "v3"]
    assert len(runs) == 6
    assert all(r.nfe in (8, 16, 32) and r.l2_error > 0 for r in runs)
    slope_rows = [r for r in rows if r.solver == "slope"]
    assert len(slope_rows) == 1 and slope_rows[0].corrector == "fit"
    assert slope_rows[0].l2_error == pytest.approx(1.0, abs=0.35)


def test_bench_convergence_two_step_sizes_give_no_slope(cli_files, mix_ems_file):
    # a slope needs three distinct h_max; two give an "na" row
    out = cli_files["root"] / "conv_na.csv"
    code = main(
        [
            "bench-convergence",
            "--model", str(cli_files["mix"]),
            "--ems", str(mix_ems_file),
            "--orders", "1",
            "--nfe", "10", "20",
            "--seeds", "0",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = parse_csv(out.read_text())
    assert len({r.h_max for r in rows if r.solver == "v3"}) == 2
    slope_rows = [r for r in rows if r.solver == "slope"]
    assert len(slope_rows) == 1 and slope_rows[0].corrector == "na"
    assert slope_rows[0].l2_error == 0.0


def test_bench_convergence_floor_flag(cli_files, pg_floor_ems_file):
    out = cli_files["root"] / "floor.csv"
    code = main(
        [
            "bench-convergence",
            "--model", str(cli_files["pg"]),
            "--ems", str(pg_floor_ems_file),
            "--orders", "1", "2", "3",
            "--nfe", "4", "6", "8",
            "--seeds", "0",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = parse_csv(out.read_text())
    assert all(r.l2_error <= 1e-8 for r in rows if r.solver == "v3")
    slope_rows = [r for r in rows if r.solver == "slope"]
    assert len(slope_rows) == 3
    assert all(r.corrector == "floor" for r in slope_rows)


def test_bench_convergence_deterministic(cli_files, mix_ems_file):
    args = [
        "bench-convergence",
        "--model", str(cli_files["mix"]),
        "--ems", str(mix_ems_file),
        "--orders", "2",
        "--nfe", "6", "12", "24",
        "--seeds", "0",
    ]
    out1 = cli_files["root"] / "c1.csv"
    out2 = cli_files["root"] / "c2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("corrector", ["full", "half"])
def test_bench_convergence_corrector_with_default_orders(cli_files, mix_ems_file, corrector):
    out = cli_files["root"] / f"conv_{corrector}.csv"
    code = main(
        [
            "bench-convergence",
            "--model", str(cli_files["mix"]),
            "--ems", str(mix_ems_file),
            "--corrector", corrector,
            "--nfe", "8", "16", "32",
            "--seeds", "0",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = parse_csv(out.read_text())
    # a corrector has order >= 2, so the order-1 runs go uncorrected
    assert {(r.order, r.corrector) for r in rows if r.solver == "v3"} == {
        (1, "none"), (2, corrector), (3, corrector)
    }
    slope_rows = [r for r in rows if r.solver == "slope"]
    assert [(r.order, r.corrector) for r in slope_rows] == [(1, "fit"), (2, "fit"), (3, "fit")]


def test_bench_compare_ddim_equals_degenerate_first_order(cli_files, mix_ems_file):
    out = cli_files["root"] / "cmp.csv"
    code = main(
        [
            "bench-compare",
            "--model", str(cli_files["mix"]),
            "--ems", str(mix_ems_file),
            "--baselines", "noise-pred", "ddim",
            "--order", "1",
            "--nfe", "5", "8",
            "--seeds", "0", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = parse_csv(out.read_text())
    runs = [r for r in rows if r.seed != -1]
    assert runs == sorted(runs, key=lambda r: (r.solver, r.order, r.nfe, r.seed))
    for nfe in (5, 8):
        for seed in (0, 1):
            ddim = [r for r in rows if r.solver == "ddim" and r.nfe == nfe and r.seed == seed]
            noise = [r for r in rows if r.solver == "noise-pred" and r.nfe == nfe and r.seed == seed]
            assert len(ddim) == 1 and len(noise) == 1
            assert ddim[0].l2_error == noise[0].l2_error
            assert ddim[0].linf_error == noise[0].linf_error
    means = [r for r in rows if r.seed == -1]
    assert {(r.solver, r.nfe) for r in means} == {
        (s, n) for s in ("v3", "noise-pred", "ddim") for n in (5, 8)
    }


def test_bench_compare_deterministic(cli_files, mix_ems_file):
    args = [
        "bench-compare",
        "--model", str(cli_files["mix"]),
        "--ems", str(mix_ems_file),
        "--baselines", "data-pred",
        "--nfe", "5",
        "--seeds", "0",
    ]
    out1 = cli_files["root"] / "m1.csv"
    out2 = cli_files["root"] / "m2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_bench_compare_repeated_baselines_run_once(cli_files, mix_ems_file):
    def csv_bytes(baselines, name):
        out = cli_files["root"] / name
        code = main(
            [
                "bench-compare",
                "--model", str(cli_files["mix"]),
                "--ems", str(mix_ems_file),
                "--baselines", *baselines,
                "--nfe", "5",
                "--seeds", "2", "0",
                "--out", str(out),
            ]
        )
        assert code == 0
        return out.read_bytes()

    once = csv_bytes(["noise-pred", "ddim"], "once.csv")
    assert csv_bytes(["noise-pred", "noise-pred", "ddim", "ddim"], "repeated.csv") == once


def test_bench_compare_seed_batch_equals_single_seed_runs(cli_files, mix_ems_file):
    def per_seed_rows(seeds, name):
        out = cli_files["root"] / name
        code = main(
            [
                "bench-compare",
                "--model", str(cli_files["mix"]),
                "--ems", str(mix_ems_file),
                "--nfe", "5", "8",
                "--seeds", *map(str, seeds),
                "--out", str(out),
            ]
        )
        assert code == 0
        return [r for r in parse_csv(out.read_text()) if r.seed != -1]

    batched = per_seed_rows([0, 1, 2], "seeds012.csv")
    single = [r for seed in (0, 1, 2) for r in per_seed_rows([seed], f"seed{seed}.csv")]
    assert len(batched) == 3 * 2 * 4
    assert batched == sorted(single, key=lambda r: (r.solver, r.order, r.nfe, r.seed))


@pytest.mark.parametrize(
    "command, flags",
    [
        ("solve", ["--steps", "5", "--noise-seed", "-1"]),
        ("bench-compare", ["--nfe", "5", "--seeds", "0", "-1"]),
    ],
    ids=["solve", "bench-compare"],
)
def test_negative_seed_is_runtime_error_naming_the_seed(
    cli_files, mix_ems_file, capsys, monkeypatch, command, flags
):
    def refuse(*args, **kwargs):
        raise AssertionError("reference_solve called with a bad seed")

    monkeypatch.setattr(cli, "reference_solve", refuse)
    out = cli_files["root"] / "negative_seed.out"
    common = ["--model", str(cli_files["mix"]), "--ems", str(mix_ems_file), "--out", str(out)]
    assert main([command, *common, *flags]) == 1
    assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["bench-convergence", "bench-compare"])
def test_a_bench_run_with_an_extra_model_call_fails(
    cli_files, mix_ems_file, capsys, monkeypatch, command
):
    """A configuration that makes one model call more than its steps stops the bench run."""
    original = cli.multistep_sample

    def one_call_more(model, sched, tab, cfg, x_init):
        model.eps(sched, x_init, float(tab.lambda_grid[0]))
        return original(model, sched, tab, cfg, x_init)

    monkeypatch.setattr(cli, "multistep_sample", one_call_more)
    out = cli_files["root"] / "extra_call.csv"
    common = ["--model", str(cli_files["mix"]), "--ems", str(mix_ems_file), "--out", str(out)]
    assert main([command, *common, "--nfe", "5"]) == 1
    want = "error: model-call accounting broke: 6 calls for 5 steps\n"
    assert capsys.readouterr().err == want
    assert not out.exists()


# The module attributes of emsolve.cli that benchmark tracing swaps for timing
# wrappers: the bench commands must look each up at call time, positionally.
PATCH_POINTS = (
    "load_table",
    "build_integral_table",
    "reference_solve",
    "multistep_sample",
    "model_from_dict",
)


def test_bench_commands_call_the_patch_points(cli_files, mix_ems_file, monkeypatch):
    calls = {name: [] for name in PATCH_POINTS}
    returned = {}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name].append(args)
            returned[name] = original(*args, **kwargs)
            return returned[name]

        return wrapper

    for name in PATCH_POINTS:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    common = ["--model", str(cli_files["mix"]), "--ems", str(mix_ems_file)]
    common += ["--seeds", "0", "1", "2"]
    out = str(cli_files["root"] / "patched.csv")
    commands = {
        "bench-convergence": (["--orders", "1", "2", "--nfe", "5", "8", "10"], 1, 6),
        # DDIM runs on the noise-prediction table: no build of its own
        "bench-compare": (["--baselines", NOISE_PRED, DATA_PRED, "ddim", "--nfe", "5", "8"], 3, 8),
    }
    for command, (extra, builds, multisteps) in commands.items():
        for name in PATCH_POINTS:
            calls[name].clear()
        assert main([command, *common, *extra, "--out", out]) == 0
        want = {
            "load_table": 1,
            "model_from_dict": 1,
            "build_integral_table": builds,
            "reference_solve": 1,  # one for the whole seed batch
            "multistep_sample": multisteps,
        }
        assert {name: len(args) for name, args in calls.items()} == want
        model, sched = returned["model_from_dict"], returned["load_table"].schedule
        for args in calls["reference_solve"]:
            assert len(args) == 5 and args[0] is model and args[1] is sched
            assert len(args[2]) == 3  # one row per seed
        for args in calls["multistep_sample"]:
            assert len(args) == 5 and args[1] is sched and isinstance(args[3], SolverConfig)


@pytest.mark.parametrize(
    "command,options",
    [
        ("ems", "lam-max lam-min model num-datapoints num-timesteps out probes schedule seed"),
        (
            "solve",
            "corrector ems grid model noise-seed order out pseudo-corrector pseudo-predictor "
            "steps t-end t-start trace",
        ),
        ("bench-convergence", "corrector ems grid model nfe orders out seeds timing"),
        ("bench-compare", "baselines corrector ems grid model nfe order out seeds timing"),
    ],
)
def test_subcommand_options(command, options, capsys):
    assert main([command, "--help"]) == 0
    listed = set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out))
    assert listed == set(options.split()) | {"help"}


def test_bench_choices_come_from_the_library(cli_files, mix_ems_file, capsys):
    common = ["--model", str(cli_files["mix"]), "--ems", str(mix_ems_file), "--out", "unused.csv"]
    assert main(["bench-compare", *common, "--grid", "log-t"]) == 2
    assert main(["bench-convergence", *common, "--corrector", "twice"]) == 2
    err = capsys.readouterr().err
    assert "'uniform-lambda', 'uniform-t'" in err and "'none', 'full', 'half'" in err


# -- report plumbing ---------------------------------------------------------------------


def test_csv_round_trip():
    rows = [
        RunRow("v3", 3, "none", 10, 0.95834, 1.25e-3, 4.5e-4, 0.0, 7),
        RunRow("ddim", 1, "none", 5, 1.9166812345, 0.25, 0.125, 0.0, -1),
    ]
    text = format_csv(rows)
    assert text.split("\n")[0] == CSV_HEADER
    assert parse_csv(text) == rows
    with pytest.raises(ValueError, match="bad CSV row"):
        parse_csv(CSV_HEADER + "\nv3,3,none\n")
    with pytest.raises(ValueError, match="header"):
        parse_csv("solver,order\n")


def test_csv_header_exact_string():
    assert CSV_HEADER == "solver,order,corrector,nfe,h_max,l2_error,linf_error,seconds,seed"


def test_measure_order_exact_power_law():
    rows = [RunRow("x", 1, "none", 0, h, 0.37 * h**2, 0.0, 0.0, 0) for h in (0.8, 0.4, 0.2, 0.1)]
    assert measure_order(rows) == pytest.approx(2.0, abs=1e-9)


def test_measure_order_with_noise():
    rng = np.random.default_rng(0)
    rows = [
        RunRow("x", 1, "none", 0, h, 0.37 * h**2 * (1 + 0.01 * rng.uniform(-1, 1)), 0.0, 0.0, 0)
        for h in (0.8, 0.4, 0.2, 0.1, 0.05)
    ]
    assert measure_order(rows) == pytest.approx(2.0, abs=0.05)


def test_measure_order_degenerate_inputs():
    flat = [RunRow("x", 1, "none", 0, h, 0.5, 0.0, 0.0, 0) for h in (0.4, 0.2, 0.1)]
    assert measure_order(flat) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        measure_order(flat[:2])
    zero = [RunRow("x", 1, "none", 0, h, 0.0, 0.0, 0.0, 0) for h in (0.4, 0.2, 0.1)]
    with pytest.raises(ValueError):
        measure_order(zero)


def test_unknown_command_is_usage_error():
    assert main(["render"]) == 2


def test_cli_edm_schedule_path(tmp_path):
    from emsolve import Schedule

    edm = Schedule("edm")
    sched_path = tmp_path / "edm.json"
    model_path = tmp_path / "pg.json"
    sched_path.write_text(json.dumps(edm.to_dict()))
    model_path.write_text(json.dumps({"kind": "point-gaussian", "x0": [0.5, -0.5]}))
    table_path = tmp_path / "ems.json"
    lam_lo, lam_hi = float(edm.lambda_of_t(80.0)), float(edm.lambda_of_t(0.002))
    assert main([
        "ems", "--model", str(model_path), "--schedule", str(sched_path),
        "--num-timesteps", "64", "--num-datapoints", "16",
        "--lam-min", repr(lam_lo), "--lam-max", repr(lam_hi),
        "--out", str(table_path),
    ]) == 0
    out = tmp_path / "run.json"
    assert main([
        "solve", "--ems", str(table_path), "--model", str(model_path),
        "--order", "2", "--steps", "8", "--out", str(out), "--trace",
    ]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["trace"]) == 8
    assert payload["grid"][0] > payload["grid"][-1] > 0
