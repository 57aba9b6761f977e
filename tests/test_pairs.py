"""``tools/pairs.py`` on a fake ``bench/run.py``.

Its exports, alternation, path lengths, launcher, workloads, recorded sides
and summary.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import pairs  # noqa: E402

# Prints what bench/run.py prints, from the tree's speed.txt: op_rel 100 * speed plus a
# hundredth of the seed, and the calibration time 2 ms on both sides.  Logs its side (the
# tree's directory name), workload, seed and path length to the file $PAIRS_LOG.
WORKLOADS = ("ems-build", "sample-serial", "sample-batch", "cli-report")
FAKE_RUN = f"WORKLOADS = {WORKLOADS!r}\n" + """\
import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
tree = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
speed = open(os.path.join(tree, "speed.txt")).read().strip()
if speed == "fail":
    sys.exit("no result")
seed = int(args["--seed"])
with open(os.environ["PAIRS_LOG"], "a") as fh:
    fh.write(f"{os.path.basename(tree)} {args['--workload']} {seed} {len(tree)}\\n")
op_rel = 100.0 * float(speed) + 0.01 * seed
metrics = {"setup_s": 0.1, "peak_rss_mb": 40.0, "op_rel": op_rel, "err_l2.nfe10": 0.01 * seed}
print("env " + json.dumps({"python": "3", "numpy": "2", "scipy": None, "cpu": "fake"}))
print("report " + json.dumps({"op_s": 0.002 * op_rel}))
print(json.dumps({"correct": True, "attempted": 5, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}))
"""


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True)


def rev_parse(repo, rev):
    out = subprocess.run(["git", "-C", str(repo), "rev-parse", rev], capture_output=True, text=True)
    return out.stdout.strip()


def commit_speed(repo, speed):
    (repo / "speed.txt").write_text(f"{speed}\n")
    git(repo, "add", "-A")
    git(repo, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", str(speed))


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A repository whose parent commit runs at speed 2 and whose head at speed 1."""
    repo = tmp_path / "repo"
    (repo / "bench").mkdir(parents=True)
    (repo / "bench" / "run.py").write_text(FAKE_RUN)
    git(repo, "init", "-q")
    commit_speed(repo, 2.0)
    commit_speed(repo, 1.0)
    monkeypatch.setenv("PAIRS_LOG", str(tmp_path / "log.txt"))
    return repo


def run_pairs(repo, tmp_path, change, *extra):
    out = tmp_path / "BENCH_t.json"
    argv = ["--repo", str(repo), "--parent", "HEAD~1", "--change", change, "--tag", "t"]
    argv += ["--python", sys.executable, "--scratch", str(tmp_path / "scratch")]
    argv += ["--out", str(out), *extra]
    assert pairs.main(argv) == 0
    return json.loads(out.read_text())


def test_pairs_alternate_sides_and_path_lengths_and_summarize(repo, tmp_path, capsys):
    record = run_pairs(repo, tmp_path, "HEAD", "--seeds", "1-3", "--seeds", "7")
    assert record["launcher"] == [sys.executable]
    assert record["parent"]["given"] == "HEAD~1" and record["change"]["given"] == "HEAD"
    assert record["parent"]["commit"] == rev_parse(repo, "HEAD~1")
    assert record["change"]["commit"] == rev_parse(repo, "HEAD")
    assert record["parent"]["tree_digest"] == record["change"]["tree_digest"]  # speed.txt aside
    assert "--seconds 6 " in record["command"] and "at 8 path lengths" in record["command"]
    assert record["versions"] == {"python": "3", "numpy": "2", "scipy": None, "cpu": "fake"}
    assert [r["seeds"] for r in record["rounds"]] == [[1, 2, 3], [7]]
    log = [line.split() for line in (tmp_path / "log.txt").read_text().splitlines()]
    # per pair: each workload on both sides, the parent ("p") first in even pairs
    want = [
        (side, workload, str(seed))
        for seeds in ([1, 2, 3], [7])
        for i, seed in enumerate(seeds)
        for workload in WORKLOADS
        for side in (("p", "c") if i % 2 == 0 else ("c", "p"))
    ]
    assert [tuple(entry[:3]) for entry in log] == want
    lengths = [int(entry[3]) for entry in log]
    assert lengths[0::2] == lengths[1::2]  # both sides of a pair at one path length
    assert lengths[8] == lengths[0] + 1  # the next pair one directory name longer
    assert (tmp_path / "scratch").exists() and not list((tmp_path / "scratch").iterdir())

    batch = record["rounds"][0]["workloads"]["sample-batch"]
    assert [p["first"] for p in batch["pairs"]] == ["parent", "change", "parent"]
    first = batch["pairs"][0]
    assert first["parent"]["op_rel"] == 200.01 and first["change"]["op_rel"] == 100.01
    assert first["parent"]["cal_s"] == pytest.approx(0.002)
    assert first["parent"]["correct"] and first["change"]["attempted"] == 5
    summary = batch["summary"]
    assert summary["op_rel"]["parent_median"] == 200.02
    assert summary["op_rel"]["change_median"] == 100.02
    assert summary["op_rel"]["parent_q1"] == pytest.approx(200.015)
    assert summary["op_rel"]["lower_in"] == "3/3" and summary["op_rel"]["change_lower"] == 3
    assert summary["err_l2.nfe10"]["ties"] == 3 and summary["err_l2.nfe10"]["lower_in"] == "0/3"
    assert summary["op_s_matched_cal"]["pairs"] == 3
    assert summary["op_s_matched_cal"]["median_ratio"] == pytest.approx(100.02 / 200.02)
    assert summary["op_s_matched_cal"]["lower_in"] == "3/3"
    # each side's op_s median per checkout depth: seeds 1-3 ran at the first three depths
    by_depth = summary["op_s_by_depth"]
    assert [d["path_len"] for d in by_depth] == sorted(lengths[0:24:8])
    assert [d["pairs"] for d in by_depth] == [1, 1, 1]
    for d, seed in zip(by_depth, (1, 2, 3)):
        assert d["parent_median"] == pytest.approx(0.002 * (200.0 + 0.01 * seed))
        assert d["change_median"] == pytest.approx(0.002 * (100.0 + 0.01 * seed))
    assert record["rounds"][1]["workloads"]["ems-build"]["summary"]["op_rel"]["lower_in"] == "1/1"
    # after each round, one line per workload: each metric's move, lower in k/n and parent IQR
    logged = capsys.readouterr().err.splitlines()
    summaries = [line for line in logged if not line.startswith(("seed ", "wrote "))]
    assert [line.split(":")[0] for line in summaries] == list(WORKLOADS) * 2
    batch_line = summaries[WORKLOADS.index("sample-batch")]
    assert "op_rel -50.00% (lower in 3/3, parent IQR 0.00%)" in batch_line
    assert "err_l2.nfe10 +0.00% (lower in 0/3, 3 ties, parent IQR 50.00%)" in batch_line
    assert "; op_s_matched_cal 0.5000 (lower in 3/3); " in batch_line
    depths = ", ".join(f"{n} {0.4 + 0.00002 * k:.4g}/{0.2 + 0.00002 * k:.4g}"
                       for k, n in enumerate(lengths[0:24:8], start=1))
    assert batch_line.endswith(f"; op_s by path_len, parent/change s: {depths}")


def test_pairs_export_a_working_tree_with_its_uncommitted_files(repo, tmp_path):
    (repo / "speed.txt").write_text("0.5\n")
    (repo / "bench" / "note.py").write_text("# uncommitted\n")
    record = run_pairs(repo, tmp_path, str(repo), "--seeds", "4")
    pair = record["rounds"][0]["workloads"]["cli-report"]["pairs"][0]
    assert (pair["parent"]["op_rel"], pair["change"]["op_rel"]) == (200.04, 50.04)
    # the working tree is recorded by its HEAD and the digest of what ran
    assert record["change"]["given"] == str(repo)
    assert record["change"]["head"] == rev_parse(repo, "HEAD")
    assert record["change"]["tree_digest"] != record["parent"]["tree_digest"]


def test_pairs_run_every_workload_both_trees_name(repo, tmp_path):
    run_py = repo / "bench" / "run.py"
    run_py.write_text(run_py.read_text().replace("'sample-batch', ", ""))
    git(repo, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qam", "three workloads")
    record = run_pairs(repo, tmp_path, "HEAD", "--seeds", "1")
    assert list(record["rounds"][0]["workloads"]) == ["ems-build", "sample-serial", "cli-report"]


def test_a_run_without_a_result_raises_and_the_trees_go(repo, tmp_path):
    commit_speed(repo, "fail")
    with pytest.raises(RuntimeError, match="without a result"):
        run_pairs(repo, tmp_path, "HEAD", "--seeds", "1")
    assert not list((tmp_path / "scratch").iterdir())


def synthetic_pairs(parent, change, name="op_rel"):
    """Pairs whose ``name`` reads ``parent[i]`` and ``change[i]``."""
    return [{"parent": {name: a}, "change": {name: b}} for a, b in zip(parent, change)]


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]  # IQR 0.5


@pytest.mark.parametrize(
    "change, bound, want",
    [
        ([97.0] * 10, 0.25, "met"),  # lower in 10/10, moved 3 against an IQR of 0.5
        ([97.0] * 9 + [102.0], 0.25, "met"),  # lower in 9/10
        ([97.0] * 8 + [102.0] * 2, 0.25, "unresolved"),  # lower in 8/10
        ([99.7] * 10, 0.25, "unresolved"),  # lower in 10/10, but inside the parent's IQR
        ([126.0] * 10, 0.25, "worse"),  # 26% worse, bound 25%
        ([124.0] * 10, 0.25, "unresolved"),  # 24% worse
        ([126.0] * 10, None, "unresolved"),  # no bound: never worse
        (PARENT, 0.25, "unresolved"),  # all ties
    ],
)
def test_each_metric_gets_a_verdict(change, bound, want):
    summary = pairs.summarize(synthetic_pairs(PARENT, change), {"op_rel": ("lower", bound)})
    assert summary["op_rel"]["verdict"] == want
    assert summary["op_rel"]["pairs"] == 10


def test_a_higher_is_better_metric_is_met_when_it_rises_and_worse_when_it_falls():
    def verdict(change, bounds):
        return pairs.summarize(synthetic_pairs(PARENT, change), bounds)["op_rel"]["verdict"]

    higher = {"op_rel": ("higher", 0.1)}
    assert verdict([103.0] * 10, higher) == "met"
    assert verdict([89.0] * 10, higher) == "worse"
    assert verdict(PARENT[:9] + [103.0], higher) == "unresolved"  # ties are not wins
    assert verdict([103.0] * 10, None) == "unresolved"  # without bounds, lower is better


def test_bounds_are_read_from_the_parent_trees_benchmark_json(repo, tmp_path, capsys):
    assert pairs.bounds_of(str(tmp_path)) == {}
    declared = {"end_to_end": [
        {"name": "op_rel", "better": "lower", "bound": 0.25},
        {"name": "err_l2.nfe10", "better": "lower", "bound": 0.2},
    ]}
    (repo / "BENCHMARK.json").write_text(json.dumps(declared))
    git(repo, "add", "-A")
    git(repo, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "declare the bounds")
    before = (repo / "BENCHMARK.json").read_bytes()
    commit_speed(repo, 3.0)  # HEAD~1 runs at speed 1, HEAD at 3: op_rel about 3 times higher
    record = run_pairs(repo, tmp_path, "HEAD", "--seeds", "1-3")
    assert (repo / "BENCHMARK.json").read_bytes() == before
    summary = record["rounds"][0]["workloads"]["ems-build"]["summary"]
    assert summary["op_rel"]["verdict"] == "worse"
    assert summary["err_l2.nfe10"]["verdict"] == "unresolved"  # tied in every pair
    line = next(ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("ems-build:"))
    assert "; verdicts: setup_s unresolved, peak_rss_mb unresolved, op_rel worse," in line
