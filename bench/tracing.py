"""Tracing from outside the program: timing delegates, patched names, span maths.

Nothing here edits ``emsolve``. Model and schedule objects handed to the
program are wrapped in delegates that forward every attribute and record one
span per method call. The public names ``emsolve.cli`` calls are swapped for
timing wrappers while a CLI run is traced and restored afterwards. Spans are
kept in memory as ``(name, parent, t0, t1, rows)`` tuples and written out once
the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory span recorder; ``call`` runs ``fn`` inside a span."""

    def __init__(self):
        self.spans = []
        self._open = []

    def call(self, name, rows, fn, *args, **kwargs):
        spans = self.spans
        idx = len(spans)
        spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._open.pop()
            spans[idx] = (name, parent, t0, t1, rows)

    def write(self, path):
        """One JSON object per line: name, parent index, start, end, rows."""
        with open(path, "w") as fh:
            for idx, (name, parent, t0, t1, rows) in enumerate(self.spans):
                fh.write(json.dumps([idx, name, parent, t0, t1, rows]) + "\n")


def _rows(x, dim):
    return int(np.size(x)) // dim


class TracedModel:
    """Delegate that records ``models.eps``, ``models.jvp`` and ``models.eps_dlambda`` spans."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer
        self._dim = inner.dim

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def eps(self, sched, x, lam):
        return self._tracer.call("models.eps", _rows(x, self._dim), self._inner.eps, sched, x, lam)

    def jvp(self, sched, x, lam, v):
        return self._tracer.call(
            "models.jvp", _rows(x, self._dim), self._inner.jvp, sched, x, lam, v
        )

    def eps_dlambda(self, sched, x, lam):
        return self._tracer.call(
            "models.eps_dlambda", _rows(x, self._dim), self._inner.eps_dlambda, sched, x, lam
        )


class TracedSchedule:
    """Delegate that records a ``schedule.<method>`` span per method call."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr
        tracer, span = self._tracer, "schedule." + name

        def traced(*args, **kwargs):
            return tracer.call(span, 0, attr, *args, **kwargs)

        self.__dict__[name] = traced  # later lookups skip __getattr__
        return traced


def traced_table(tab, sched):
    """The same integral table, its EMS table carrying the traced schedule.

    The arrays are shared, so sampling on it does the same arithmetic.
    """
    ems = dataclasses.replace(tab.ems, schedule=sched)
    return dataclasses.replace(tab, ems=ems)


def _steps_of_cfg(model, sched, tab, cfg, *args, **kwargs):
    return cfg.grid.num_steps


def _steps_of_ddim(model, sched, timesteps, *args, **kwargs):
    return len(timesteps) - 1


@contextlib.contextmanager
def patched_cli(tracer):
    """Swap the layer entry points ``emsolve.cli`` calls for timing wrappers.

    Yields the names that ``emsolve.cli`` no longer has; those calls run
    untraced and their time counts as CLI self time.
    """
    from emsolve import cli

    def load_table(*args, **kwargs):
        table = tracer.call("ems.load", 0, originals["load_table"], *args, **kwargs)
        # the CLI is the table's only holder; swapping in place skips re-validation
        object.__setattr__(table, "schedule", TracedSchedule(table.schedule, tracer))
        return table

    def build_integral_table(*args, **kwargs):
        return tracer.call("integrals.build", 0, originals["build_integral_table"], *args, **kwargs)

    def reference_solve(*args, **kwargs):
        return tracer.call("models.reference", 0, originals["reference_solve"], *args, **kwargs)

    def multistep_sample(*args, **kwargs):
        steps = _steps_of_cfg(*args, **kwargs)
        return tracer.call("solver.sample", steps, originals["multistep_sample"], *args, **kwargs)

    def ddim_sample(*args, **kwargs):
        steps = _steps_of_ddim(*args, **kwargs)
        return tracer.call("solver.sample", steps, originals["ddim_sample"], *args, **kwargs)

    def model_from_dict(*args, **kwargs):
        model = tracer.call("models.from_dict", 0, originals["model_from_dict"], *args, **kwargs)
        return TracedModel(model, tracer)

    wrappers = {
        "load_table": load_table,
        "build_integral_table": build_integral_table,
        "reference_solve": reference_solve,
        "multistep_sample": multistep_sample,
        "ddim_sample": ddim_sample,
        "model_from_dict": model_from_dict,
    }
    missing = sorted(name for name in wrappers if not hasattr(cli, name))
    originals = {name: getattr(cli, name) for name in wrappers if name not in missing}
    try:
        for name in originals:
            setattr(cli, name, wrappers[name])
        yield missing
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)


# -- span maths -------------------------------------------------------------------

MODEL_SPANS = ("models.eps", "models.jvp", "models.eps_dlambda")


def _is_leaf_layer(name):
    return name in MODEL_SPANS or name.startswith("schedule.")


def layer_metrics(spans, ops):
    """Per-layer metrics, per op: span totals divided by ``ops``.

    A span's self time is its duration minus the durations of its direct
    children; children never overlap because the program is single-threaded.
    """
    child = [0.0] * len(spans)
    leaf_child = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
            if _is_leaf_layer(name):
                leaf_child[parent] += t1 - t0

    calls, busy, rows = {}, {}, {}
    rhs_evals = solver_nfe = solver_steps = 0
    solver_self = ems_self = cli_self = 0.0
    l_sweep = sb_sweep = 0.0
    est_model_calls = est_points = 0
    first_non_jvp = {}
    for idx, (name, parent, t0, t1, n) in enumerate(spans):
        key = "schedule" if name.startswith("schedule.") else name
        calls[key] = calls.get(key, 0) + 1
        busy[key] = busy.get(key, 0.0) + (t1 - t0)
        rows[key] = rows.get(key, 0) + n
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "models.eps" and parent_name == "models.reference":
            rhs_evals += 1
        if name == "models.eps" and parent_name == "solver.sample":
            solver_nfe += 1
        if name in MODEL_SPANS and parent_name == "ems.estimate":
            est_model_calls += 1
            if name != "models.jvp" and parent not in first_non_jvp:
                first_non_jvp[parent] = t0
        if name == "solver.sample":
            solver_self += (t1 - t0) - leaf_child[idx]
            solver_steps += n
        elif name == "ems.estimate":
            ems_self += (t1 - t0) - leaf_child[idx]
            est_points += n
        elif name == "cli":
            cli_self += (t1 - t0) - child[idx]
    for idx, (name, _, t0, t1, _) in enumerate(spans):
        if name == "ems.estimate":
            split = first_non_jvp.get(idx, t1)
            l_sweep += split - t0
            sb_sweep += t1 - split

    def per_op(value):
        return value / ops

    out = {}
    for name in MODEL_SPANS:
        out[f"{name}.calls"] = per_op(calls.get(name, 0))
        out[f"{name}.busy_s"] = per_op(busy.get(name, 0.0))
    for name in ("models.eps", "models.jvp"):
        out[f"{name}.rows"] = per_op(rows.get(name, 0))
    out["models.reference.calls"] = per_op(calls.get("models.reference", 0))
    out["models.reference.busy_s"] = per_op(busy.get("models.reference", 0.0))
    out["models.reference.rhs_evals"] = per_op(rhs_evals)
    out["schedule.calls"] = per_op(calls.get("schedule", 0))
    out["schedule.busy_s"] = per_op(busy.get("schedule", 0.0))
    out["ems.estimate.busy_s"] = per_op(busy.get("ems.estimate", 0.0))
    out["ems.self_s"] = per_op(ems_self)
    out["ems.model_calls_per_point"] = est_model_calls / est_points if est_points else 0.0
    out["ems.l_sweep_s"] = per_op(l_sweep)
    out["ems.sb_sweep_s"] = per_op(sb_sweep)
    out["ems.load.busy_s"] = per_op(busy.get("ems.load", 0.0))
    out["integrals.build.busy_s"] = per_op(busy.get("integrals.build", 0.0))
    out["solver.sample.calls"] = per_op(calls.get("solver.sample", 0))
    out["solver.sample.busy_s"] = per_op(busy.get("solver.sample", 0.0))
    out["solver.self_s"] = per_op(solver_self)
    out["solver.self_us_per_step"] = 1e6 * solver_self / solver_steps if solver_steps else 0.0
    out["solver.nfe"] = per_op(solver_nfe)
    out["cli.self_s"] = per_op(cli_self)
    return out
