"""Run one emsolve benchmark workload and print its metrics.

    python3 bench/run.py --workload sample-serial --seed 1 --seconds 8 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 8 --trace 0

The package is imported from ``src/`` next to this directory; nothing needs
installing. Each workload runs in its own process as one closed-loop caller:
the next op starts only when the previous one has returned. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs every op untraced and then
traced on the same inputs, checks the two outputs are bit-identical, and
reports the per-layer metrics. The last line of standard output is one JSON
object; the exit code is 1 when any check failed. Results and traces are
written to ``bench/out/``. See ``bench/README.md``.
"""

import os

# One BLAS/OpenMP thread; must be set before numpy is first imported.
PINNED_THREADS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in PINNED_THREADS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
TAIL_MIN_OPS = 1000  # p99 has at least 10 ops beyond it
WORKLOADS = ("ems-build", "sample-serial", "sample-batch", "cli-report")
CAL_LOOPS = 300  # rounds of the calibration kernel on (2, 4) arrays, about 5 ms
IMPORT_REPEATS = 3  # import timings per run: this process and fresh interpreters
CAL_SHARE = 0.1  # calibration time after a pass, as a share of the pass's time

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_rel": "cal",
    "err_l2.nfe10": "l2",
}
PER_LAYER_UNITS = {
    "models.eps.calls": "count",
    "models.eps.rows": "count",
    "models.eps.busy_s": "s",
    "models.jvp.calls": "count",
    "models.jvp.rows": "count",
    "models.jvp.busy_s": "s",
    "models.eps_dlambda.calls": "count",
    "models.eps_dlambda.busy_s": "s",
    "models.reference.calls": "count",
    "models.reference.busy_s": "s",
    "models.reference.rhs_evals": "count",
    "schedule.calls": "count",
    "schedule.busy_s": "s",
    "ems.estimate.busy_s": "s",
    "ems.self_s": "s",
    "ems.model_calls_per_point": "count",
    "ems.l_sweep_s": "s",
    "ems.sb_sweep_s": "s",
    "ems.load.busy_s": "s",
    "integrals.build.busy_s": "s",
    "solver.sample.calls": "count",
    "solver.sample.busy_s": "s",
    "solver.self_s": "s",
    "solver.self_us_per_step": "us",
    "solver.nfe": "count",
    "cli.self_s": "s",
    "setup.ems.estimate.busy_s": "s",
    "setup.models.busy_s": "s",
    "trace.overhead_pct": "%",
}


def import_emsolve():
    """Import the package from this checkout's ``src/``, never from elsewhere.

    Returns the import time of the package and the benchmark's modules.
    """
    t0 = perf_counter()
    if not os.path.isdir(os.path.join(SRC, "emsolve")):
        sys.exit(f"error: no emsolve package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import emsolve

    if os.path.dirname(os.path.dirname(os.path.abspath(emsolve.__file__))) != SRC:
        sys.exit(f"error: imported emsolve from {emsolve.__file__}, not {SRC}")
    import tracing  # noqa: F401
    import workloads  # noqa: F401

    return perf_counter() - t0


IMPORT_PROBE = """\
import sys
from time import perf_counter
sys.path[:0] = [{bench!r}, {src!r}]
t0 = perf_counter()
import emsolve, tracing, workloads
print(perf_counter() - t0)
"""


def import_times(own):
    """``own`` and the same imports timed in ``IMPORT_REPEATS - 1`` fresh interpreters.

    Import times spread from about 0.5 s to 0.9 s on the reference machine,
    even within one run. ``setup_s`` counts the fastest of them: the cost of
    the import with the least interference from other work on the machine.
    """
    code = IMPORT_PROBE.format(bench=BENCH_DIR, src=SRC)
    times = [own]
    for _ in range(IMPORT_REPEATS - 1):
        res = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(res.stdout.split()[-1]))
    return times


def source_digest():
    """sha256 over ``src/`` file paths and contents: the code that was measured."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return None
    res = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return res.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(workload, seed, seconds, trace):
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in PINNED_THREADS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": commit(),
        "src_sha256": source_digest(),
    }


class Tally:
    """Attempted and failed ops, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)


def run_op(wl, ctx, i):
    """Time one op; returns (seconds, output or the exception it raised)."""
    t0 = perf_counter()
    try:
        out = wl.op(ctx, i)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return perf_counter() - t0, exc
    return perf_counter() - t0, out


def check(wl, i, out):
    if isinstance(out, Exception):
        return f"op {i} raised {type(out).__name__}: {out}"
    try:
        reason = wl.check(i, out)
    except Exception as exc:
        reason = f"check raised {type(exc).__name__}: {exc}"
    return None if reason is None else f"op {i}: {reason}"


def set_up(wl, seed, tally):
    """Run set-up ``wl.setup_repeats`` times; every repeat must build the same inputs."""
    times, digests = [], []
    for _ in range(wl.setup_repeats):
        t0 = perf_counter()
        digests.append(wl.setup(seed))
        times.append(perf_counter() - t0)
    tally.record(None if len(set(digests)) == 1 else "set-up inputs differ between repeats")
    return times, digests[0]


def calibrate(seconds, rows):
    """Median time of a fixed numpy kernel on ``(rows, 4)`` arrays.

    The kernel restates in plain numpy the arithmetic of a 2-component
    Gaussian-mixture noise prediction, the call the ops are made of, and
    uses no emsolve code, so a change to the program does not move it. Run
    between op cycles for ``seconds``, at least once, it tracks the speed of
    a shared machine, which drifts by up to 2x within minutes; ``op_rel``
    divides that drift out. Small arrays time the per-call overhead that
    short ops are made of, large ones the bulk array work of a batch or a
    table build.
    """
    import numpy as np

    x = np.linspace(-1.0, 1.0, 4 * rows).reshape(rows, 4)
    means = np.array([[0.6, -0.3, 0.25, -0.5], [-0.55, 0.4, -0.3, 0.45]])
    var = 0.49 * np.array([0.8, 1.1]) ** 2 + 0.51
    log_w = np.log([0.4, 0.6]) - 2.0 * np.log(var)
    loops = max(1, CAL_LOOPS * 2 // rows)
    times = []
    end = perf_counter() + seconds
    while not times or perf_counter() < end:
        t0 = perf_counter()
        for _ in range(loops):
            d = x[:, None, :] - 0.7 * means
            logp = log_w - 0.5 * np.sum(d * d, axis=-1) / var
            p = np.exp(logp - logp.max(axis=-1, keepdims=True))
            np.einsum("nk,nkd->nd", p / (p.sum(axis=-1, keepdims=True) * var), d)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def measure(wl, seconds, tally):
    """Closed loop over whole op cycles until ``seconds`` have passed.

    Returns, one list per cycle position, the latencies of the passing ops
    and the same latencies over the mean calibration time around their cycle.
    Calibration after a pass takes ``CAL_SHARE`` of the pass's time, so that
    long ops are divided by an average over a comparable stretch of time;
    the first pass has only the calibration after it.
    """
    ctx = wl.context(None)
    for i in range(wl.warmup):
        _, out = run_op(wl, ctx, i)
        tally.record(check(wl, i, out))
    latencies = [[] for _ in range(wl.cycle)]
    relative = [[] for _ in range(wl.cycle)]
    i = wl.warmup
    deadline = perf_counter() + seconds
    passes = 0
    cal_before = None
    while perf_counter() < deadline or passes < wl.min_passes:
        pass_start = perf_counter()
        timed = []
        for _ in range(wl.cycle):
            dt, out = run_op(wl, ctx, i)
            reason = check(wl, i, out)
            tally.record(reason)
            if reason is None:
                timed.append((i % wl.cycle, dt))
            i += 1
        cal_after = calibrate(CAL_SHARE * (perf_counter() - pass_start), wl.cal_rows)
        cal = cal_after if cal_before is None else 0.5 * (cal_before + cal_after)
        for position, dt in timed:
            latencies[position].append(dt)
            relative[position].append(dt / cal)
        cal_before = cal_after
        passes += 1
        if tally.failed:
            break
    return latencies, relative


def measure_traced(wl, seconds, tally, tracer):
    """Each op untraced, then traced on the same inputs; outputs must match bit for bit."""
    plain, traced = wl.context(None), wl.context(tracer)
    for i in range(wl.warmup):
        _, out = run_op(wl, plain, i)
        tally.record(check(wl, i, out))
    t_plain = t_traced = 0.0
    ops = 0
    i = wl.warmup
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or ops < 1:
        for _ in range(wl.cycle):
            if i % 2:  # alternate which side runs first, so drift cancels
                dt_t, out_t = run_op(wl, traced, i)
                dt_p, out_p = run_op(wl, plain, i)
            else:
                dt_p, out_p = run_op(wl, plain, i)
                dt_t, out_t = run_op(wl, traced, i)
            reason = check(wl, i, out_p)
            if reason is None and isinstance(out_t, Exception):
                reason = f"traced op {i} raised {type(out_t).__name__}: {out_t}"
            if reason is None and wl.fingerprint(out_t) != wl.fingerprint(out_p):
                reason = f"traced op {i} output differs from untraced"
            tally.record(reason)
            t_plain += dt_p
            t_traced += dt_t
            ops += 1
            i += 1
        if tally.failed:
            break
    return ops, 100.0 * (t_traced / t_plain - 1.0) if t_plain > 0 else float("nan")


def position_median(per_position):
    """Mean over cycle positions of each position's median; NaN without data."""
    medians = [statistics.median(p) for p in per_position if p]
    return statistics.fmean(medians) if medians else float("nan")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Workload-specific names of the end-to-end figures (see README.md), printed
# next to the metrics: (name, key in the report or metrics, unit)
FIGURE_NAMES = {
    "ems-build": [("table_build_s", "op_s", "s")],
    "sample-serial": [("sample_s.p50", "op_s.p50", "s"), ("sample_s.p99", "op_s.p99", "s")],
    "sample-batch": [("batch_samples_per_s", "rows_per_s", "1/s")],
    "cli-report": [("report_s", "op_s", "s")],
}


def run_workload(name, seed, seconds, trace):
    own_import_s = import_emsolve()
    import workloads
    from tracing import Tracer, layer_metrics

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{trace}"
    workdir = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    wl = workloads.make(name, workdir)
    tally = Tally()
    env = environment(name, seed, seconds, trace)
    report = {}
    try:
        if trace:
            setup_tracer = Tracer()
            traced_digest = wl.setup(seed, setup_tracer)
            _, digest = set_up(wl, seed, tally)
            tally.record(None if traced_digest == digest else "traced set-up built different inputs")
            tracer = Tracer()
            ops, overhead = measure_traced(wl, seconds, tally, tracer)
            metrics = layer_metrics(tracer.spans, ops)
            setup_layers = layer_metrics(setup_tracer.spans, 1)
            metrics["setup.ems.estimate.busy_s"] = setup_layers["ems.estimate.busy_s"]
            metrics["setup.models.busy_s"] = sum(
                setup_layers[f"{m}.busy_s"] for m in ("models.eps", "models.jvp", "models.eps_dlambda")
            )
            metrics["trace.overhead_pct"] = overhead
            units = PER_LAYER_UNITS
            report["traced_ops"] = ops
            report["untraced_cli_names"] = getattr(wl, "untraced_names", [])
            tracer.write(os.path.join(OUT_DIR, f"trace-{tag}.jsonl"))
            setup_tracer.write(os.path.join(OUT_DIR, f"trace-setup-{tag}.jsonl"))
        else:
            setup_times, _ = set_up(wl, seed, tally)
            import_repeats = import_times(own_import_s)
            per_position, per_position_rel = measure(wl, seconds, tally)
            err = wl.err_l2() if not tally.failed else float("nan")
            if not tally.failed and (err is None or not err > 0):
                tally.record(f"accuracy probe gave {err}")
            lat = [dt for position in per_position for dt in position]
            # The mean over cycle positions of each position's median: on
            # sample-serial the op mix is multimodal (2-9 ms), and the median
            # of all ops then sits in a gap between configs and follows their
            # extreme values.
            op_s = position_median(per_position)
            metrics = {
                "setup_s": min(import_repeats) + statistics.median(setup_times),
                "peak_rss_mb": peak_rss_mb(),
                "op_rel": position_median(per_position_rel),
                "err_l2.nfe10": err,
            }
            units = END_TO_END_UNITS
            if len(lat) >= TAIL_MIN_OPS:
                tail = {"op_s.p99": statistics.quantiles(lat, n=100, method="inclusive")[98]}
            else:
                tail = {"op_s.max": max(lat, default=None)}
            report.update(
                {
                    "ops": len(lat),
                    "op_s": op_s,
                    "op_s.p50": statistics.median(lat) if lat else None,
                    **tail,
                    "import_repeats_s": import_repeats,
                    "setup_repeats_s": setup_times,
                    "rows_per_op": wl.rows_per_op,
                    "rows_per_s": wl.rows_per_op / op_s if lat else None,
                }
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    record = {"env": env, "report": report, "failures": tally.reasons, **result}
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print("env " + json.dumps(env))
    print("report " + json.dumps(report))
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    for k in units:
        print(f"{name} {k} {metrics[k]:.6g} {units[k]}")
    if not trace:
        for alias, key, unit in FIGURE_NAMES[name]:
            value = report.get(key, metrics.get(key))
            if value is not None:
                print(f"{name} {alias} {value:.6g} {unit} (= {key}, n={report['ops']})")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(seed, seconds, trace):
    """Every workload, each in its own process; non-zero if any check failed."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name]
        cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = [ln for ln in res.stdout.splitlines() if ln.startswith(name + " ") or ln.startswith("FAILED")]
        print("\n".join(lines))
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            print(f"{name}: exit code {res.returncode}")
            status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=[*WORKLOADS, "all"],
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
