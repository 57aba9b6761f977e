"""Run the benchmark in alternating parent/change pairs and write a ``BENCH_<tag>.json``.

    python3 tools/pairs.py --parent HEAD~1 --change HEAD --tag my_change --seeds 1-10
    python3 tools/pairs.py --parent main --change . --tag wip --seeds 1-10 --seeds 101-110 \\
        --scratch /tmp/pairs

Each side is exported into a scratch tree: a revision with ``git archive``, a
directory (``.``: the working tree) as its tracked and untracked, not ignored
files.  Both sides are exported at ``LENGTHS`` directory depths, one pair of
trees of equal path length per depth, since the heap layout a run lands in
can follow its checkout's path length.  Pair i of a round runs at depth
i mod ``LENGTHS``, every workload on both sides with the round's i-th seed,
the parent first in even pairs and the change first in odd ones, each run a
fresh ``bench/run.py --seconds 6 --trace 0`` process of the tree under test
started by one launcher (``--python``), which the output records.  The
workloads are those that both trees' ``bench/run.py`` name in its
``WORKLOADS``.  Nothing under the trees' ``bench/`` is changed, and the
scratch trees are removed at the end.

Each side is recorded as given and resolved: a revision's commit, or a
directory's ``HEAD``, and for both the ``tree_digest`` of the exported
tree, which names the sources that ran even when a working tree has
changed since.

The output holds, per round and workload, every pair's per-run metrics with
``op_s`` and the calibration time that ``op_s / op_rel`` implies, then per
metric each side's median and quartiles, the parent's interquartile range
over its median, the change's relative move and the pairs in which the
change read lower ("lower in k/n", ties counted apart).  ``op_s_matched_cal``
is the median change/parent ``op_s`` ratio, and "lower in k/n", over the
pairs whose two calibration times differ by at most ``CAL_MATCH``: a
reading of the op's own time in the pairs the machine's drift did not move.
After each round it logs one line per workload with each metric's relative
move, "lower in k/n", ties and parent IQR.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("setup_s", "peak_rss_mb", "op_rel", "err_l2.nfe10", "op_s", "cal_s")
SIDES = ("parent", "change")
CAL_MATCH = 0.05  # the largest relative gap between a pair's calibration times it matches on
RUN_TIMEOUT_S = 900
SECONDS = 6  # each run's length, the benchmark's run_seconds
LENGTHS = 8  # the directory depths at which both sides are exported
DIGESTED = ("src", "bench")  # the directories whose files a run executes


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"3,5,8"`` (or a mix, ``"1-3,7"``) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if sep else [int(lo)]
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def export(repo: str, source: str, dest: str) -> None:
    """Write ``source``'s files under ``dest``: a directory's, or a revision of ``repo``'s."""
    os.makedirs(dest)
    if os.path.isdir(source):
        listing = subprocess.run(
            ["git", "-C", source, "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
            capture_output=True, check=True,
        ).stdout.decode()
        for name in filter(None, listing.split("\0")):
            path = os.path.join(source, name)
            if os.path.isfile(path):  # a tracked file deleted in the working tree is skipped
                os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
                shutil.copy2(path, os.path.join(dest, name))
        return
    blob = subprocess.run(
        ["git", "-C", repo, "archive", "--format=tar", source], capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def trees(repo: str, sources: dict, scratch: str) -> list[dict]:
    """Per depth k < ``LENGTHS``, each side's tree at ``scratch/L<k x's>/<p or c>``."""
    out = []
    for k in range(LENGTHS):
        base = os.path.join(scratch, "L" + "x" * k)
        pair = {side: os.path.join(base, side[0]) for side in SIDES}
        for side, path in pair.items():
            export(repo, sources[side], path)
        out.append(pair)
    return out


def resolve(repo: str, source: str, tree: str) -> dict:
    """``source`` as given, its commit (a directory's ``HEAD``) and ``tree``'s digest."""
    is_dir = os.path.isdir(source)
    rev = subprocess.run(
        ["git", "-C", source if is_dir else repo, "rev-parse", "--verify",
         "HEAD" if is_dir else f"{source}^{{commit}}"],
        capture_output=True, check=True, text=True,
    ).stdout.strip()
    return {"given": source, "head" if is_dir else "commit": rev,
            "tree_digest": tree_digest(tree)}


def tree_digest(tree: str) -> str:
    """The sha256 over the relative paths and bytes of ``tree``'s files under ``DIGESTED``."""
    h = hashlib.sha256()
    for top in DIGESTED:
        for base, dirs, files in os.walk(os.path.join(tree, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, tree).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def workloads_of(tree: str) -> list:
    """The ``WORKLOADS`` tuple that ``tree``'s ``bench/run.py`` assigns, read without running it."""
    with open(os.path.join(tree, "bench", "run.py")) as fh:
        module = ast.parse(fh.read())
    for node in module.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WORKLOADS" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise RuntimeError(f"{tree}/bench/run.py assigns no WORKLOADS")


def bench_run(launcher: list, tree: str, workload: str, seed: int) -> dict:
    """One untraced ``bench/run.py`` run in ``tree``: its env, report and metrics."""
    cmd = [*launcher, os.path.join(tree, "bench", "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    res = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = res.stdout.splitlines()
    try:
        env = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
        report = json.loads(next(ln for ln in lines if ln.startswith("report "))[7:])
        result = json.loads(lines[-1])
    except (StopIteration, IndexError, json.JSONDecodeError):
        raise RuntimeError(
            f"{' '.join(cmd)} exited {res.returncode} without a result:\n{res.stderr[-2000:]}"
        ) from None
    run = {name: m["value"] for name, m in result["metrics"].items()}
    run.update(
        attempted=result["attempted"], failed=result["failed"], correct=result["correct"],
        op_s=report.get("op_s"), path_len=len(tree),
    )
    run["cal_s"] = run["op_s"] / run["op_rel"] if run["op_s"] and run["op_rel"] else None
    return {"env": env, "run": run}


def quartiles(values: list) -> tuple:
    """(q1, median, q3) of ``values``, numpy's default (inclusive) quantiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list) -> dict:
    """Per metric: both sides' medians and quartiles, the relative move and "lower in k/n"."""
    out = {}
    for name in METRICS:
        got = [(p["parent"].get(name), p["change"].get(name)) for p in pairs]
        got = [(a, b) for a, b in got if a is not None and b is not None]
        if not got:
            continue
        parent, change = ([pair[i] for pair in got] for i in (0, 1))
        p1, p2, p3 = quartiles(parent)
        c1, c2, c3 = quartiles(change)
        lower = sum(b < a for a, b in got)
        ties = sum(b == a for a, b in got)
        out[name] = {
            "parent_median": p2, "parent_q1": p1, "parent_q3": p3,
            "parent_iqr_rel": (p3 - p1) / p2 if p2 else None,
            "change_median": c2, "change_q1": c1, "change_q3": c3,
            "rel_change": c2 / p2 - 1.0 if p2 else None,
            "change_lower": lower, "ties": ties, "lower_in": f"{lower}/{len(got)}",
        }
    matched = [
        p["change"]["op_s"] / p["parent"]["op_s"]
        for p in pairs
        if p["parent"].get("cal_s") and p["change"].get("cal_s") and p["parent"]["op_s"]
        and abs(p["change"]["cal_s"] / p["parent"]["cal_s"] - 1.0) <= CAL_MATCH
    ]
    lower = sum(r < 1.0 for r in matched)
    out["op_s_matched_cal"] = {
        "cal_match": CAL_MATCH, "pairs": len(matched),
        "median_ratio": statistics.median(matched) if matched else None,
        "change_lower": lower, "lower_in": f"{lower}/{len(matched)}",
    }
    return out


def summary_line(workload: str, summary: dict) -> str:
    """One log line: per metric the relative move, "lower in k/n", any ties and the parent's IQR."""

    def pct(value, spec):
        return "n/a" if value is None else format(value, spec)

    def lower_in(m):
        return f"lower in {m['lower_in']}" + (f", {m['ties']} ties" if m.get("ties") else "")

    parts = [
        f"{name} {pct(m['rel_change'], '+.2%')} ({lower_in(m)},"
        f" parent IQR {pct(m['parent_iqr_rel'], '.2%')})"
        for name, m in summary.items() if name != "op_s_matched_cal"
    ]
    matched = summary["op_s_matched_cal"]
    parts.append(
        f"op_s_matched_cal {pct(matched['median_ratio'], '.4f')}"
        f" ({lower_in(matched)})"
    )
    return f"{workload}: " + "; ".join(parts)


def run_round(launcher, pair_trees, seeds, workloads, log) -> tuple:
    """One round: per seed, every workload on both sides, alternating which goes first."""
    per_workload = {w: [] for w in workloads}
    env = None
    for i, seed in enumerate(seeds):
        tree = pair_trees[i % len(pair_trees)]
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                done = bench_run(launcher, tree[side], workload, seed)
                env = env or done["env"]
                pair[side] = done["run"]
                log(f"seed {seed} {workload} {side}: op_rel {done['run']['op_rel']:.6g}"
                    f" peak_rss_mb {done['run']['peak_rss_mb']:.4g}")
            per_workload[workload].append(pair)
    workloads_out = {w: {"summary": summarize(p), "pairs": p} for w, p in per_workload.items()}
    for workload, done in workloads_out.items():
        log(summary_line(workload, done["summary"]))
    return {"seeds": seeds, "workloads": workloads_out}, env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision or directory")
    parser.add_argument("--change", required=True, help="revision or directory")
    parser.add_argument("--tag", required=True, help="names the output BENCH_<tag>.json")
    parser.add_argument("--seeds", type=parse_seeds, action="append", required=True,
                        help="one round's seeds, as 1-10 or 3,5,8; repeat for more rounds")
    parser.add_argument("--python", default="python3", help="the launcher of every run")
    parser.add_argument("--repo", default=ROOT, help="the git repository of the revisions")
    parser.add_argument("--scratch", help="where the trees go (a fresh temporary directory)")
    parser.add_argument("--out", help="output path (BENCH_<tag>.json in the repository)")
    args = parser.parse_args(argv)
    if args.scratch:
        os.makedirs(args.scratch, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="pairs-", dir=args.scratch)
    given = {"parent": args.parent, "change": args.change}
    launcher = [args.python]

    def log(line):
        print(line, file=sys.stderr, flush=True)

    try:
        pair_trees = trees(args.repo, given, scratch)
        sides = {side: resolve(args.repo, given[side], pair_trees[0][side]) for side in SIDES}
        parent_workloads = workloads_of(pair_trees[0]["parent"])
        workloads = [w for w in workloads_of(pair_trees[0]["change"]) if w in parent_workloads]
        rounds, env = [], None
        for seeds in args.seeds:
            done, round_env = run_round(launcher, pair_trees, seeds, workloads, log)
            rounds.append(done)
            env = env or round_env
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record = {
        "command": (
            f"bench/run.py --workload W --seed S --seconds {SECONDS} --trace 0 in exported"
            f" trees at {LENGTHS} path lengths, alternating parent/change per pair"
            " (the parent first in even pairs)"
        ),
        **sides,
        "launcher": launcher,
        "versions": {key: env.get(key) for key in ("python", "numpy", "scipy", "cpu")},
        "rounds": rounds,
    }
    out = args.out or os.path.join(args.repo, f"BENCH_{args.tag}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    log(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
