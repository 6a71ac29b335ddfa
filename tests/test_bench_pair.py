"""The paired benchmark runner's summary, on made-up results, and the
trees it runs; no benchmark run."""

import importlib.util
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


bench_pair = _load()
METRICS = [("latency_p50_ms", "lower", 0.25),
           ("throughput_ops_s", "higher", 0.25)]


def _pairs(base_p50, change_p50, base_ops, change_ops):
    return [({"latency_p50_ms": b, "throughput_ops_s": bo},
             {"latency_p50_ms": c, "throughput_ops_s": co})
            for b, c, bo, co in zip(base_p50, change_p50, base_ops,
                                    change_ops)]


def test_summary_counts_wins_in_each_metric_direction():
    pairs = _pairs([1.5, 1.4, 1.6, 1.5], [1.2, 1.5, 1.3, 1.2],
                   [400, 410, 390, 400], [450, 400, 440, 400])
    s = bench_pair.summarize(pairs, METRICS)
    # lower is better: pair 2 lost; higher is better: pairs 2, 4 did not win
    assert s["latency_p50_ms"]["wins"] == 3
    assert s["throughput_ops_s"]["wins"] == 2
    assert s["latency_p50_ms"]["pairs"] == 4


def test_summary_medians_quartiles_and_the_base_spread():
    pairs = _pairs([1.0, 2.0, 3.0, 4.0, 5.0], [0.5] * 5, [1] * 5, [1] * 5)
    s = bench_pair.summarize(pairs, METRICS)["latency_p50_ms"]
    assert s["base"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert s["change"] == {"median": 0.5, "q1": 0.5, "q3": 0.5}
    # far better than the base, beyond its spread: not a regression
    assert not s["beyond_bound"]


def test_summary_flags_a_median_worse_than_its_bound():
    # a bound of 0.25 of the base median 4.0: a change worse by more
    # than 1.0 in its metric's direction is flagged, and only then
    def flags(change):
        s = bench_pair.summarize(_pairs([4.0] * 3, [change] * 3,
                                        [4.0] * 3, [change] * 3), METRICS)
        return s["latency_p50_ms"]["beyond_bound"], \
            s["throughput_ops_s"]["beyond_bound"]

    assert flags(5.1) == (True, False)      # slower, more ops
    assert flags(5.0) == (False, False)     # at the bound
    assert flags(3.0) == (False, False)     # fewer ops, at the bound
    assert flags(2.9) == (False, True)      # faster, fewer ops
    assert flags(4.0) == (False, False)
    rows = bench_pair.report(bench_pair.summarize(
        _pairs([4.0] * 2, [5.1] * 2, [4.0] * 2, [5.1] * 2),
        METRICS)).splitlines()
    assert rows[1].endswith("worse beyond bound")
    assert not rows[2].endswith("worse beyond bound")


def test_summary_of_one_pair_and_ties():
    s = bench_pair.summarize(_pairs([2.0], [2.0], [7], [8]), METRICS)
    assert s["latency_p50_ms"]["wins"] == 0     # a tie is not a win
    assert s["throughput_ops_s"]["wins"] == 1
    assert s["latency_p50_ms"]["base"] == {"median": 2.0, "q1": 2.0,
                                           "q3": 2.0}


def test_report_has_a_row_per_metric():
    s = bench_pair.summarize(_pairs([1.5, 1.4], [1.2, 1.3], [4, 4], [5, 5]),
                             METRICS)
    rows = bench_pair.report(s).splitlines()
    assert len(rows) == 1 + len(METRICS)
    assert rows[1].startswith("latency_p50_ms") and "2/2" in rows[1]


def test_report_shows_each_side_ops_attempted():
    # a faster side completes more ops, and its peak memory counts
    # their records, so the op counts sit beside the metric rows
    runs = [{"base": {"attempted": b}, "change": {"attempted": c}}
            for b, c in ((5000, 6400), (5200, 6000), (4800, 6600))]
    ops = bench_pair.attempted(runs)
    assert ops["base"]["median"] == 5000 and ops["change"]["median"] == 6400
    s = bench_pair.summarize(_pairs([1.5, 1.4, 1.6], [1.2, 1.3, 1.2],
                                    [4, 4, 4], [5, 5, 5]), METRICS)
    rows = bench_pair.report(s, ops).splitlines()
    assert len(rows) == 2 + len(METRICS)
    assert rows[-1].startswith("ops attempted")
    assert rows[-1].split()[2:] == ["5000", "[4900,", "5100]",
                                    "6400", "[6200,", "6500]"]
    assert bench_pair.report(s).splitlines() == rows[:-1]


def test_the_change_side_is_the_working_tree_without_ignored_files(tmp_path):
    # both sides run from temporary trees: the checkout's copy holds its
    # tracked and untracked files as they are on disk, an uncommitted
    # edit included, and nothing git ignores
    repo, dest = tmp_path / "repo", tmp_path / "change"
    (repo / "pkg").mkdir(parents=True)

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    (repo / ".gitignore").write_text("*.log\n")
    (repo / "pkg" / "mod.py").write_text("X = 1\n")
    (repo / "gone.py").write_text("")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "pkg" / "mod.py").write_text("X = 2\n")
    (repo / "pkg" / "new.py").write_text("Y = 3\n")
    (repo / "run.log").write_text("ignored\n")
    (repo / "gone.py").unlink()
    assert bench_pair.copy_checkout(str(repo), str(dest)) == 3
    assert sorted(p.relative_to(dest).as_posix()
                  for p in dest.rglob("*") if p.is_file()) \
        == [".gitignore", "pkg/mod.py", "pkg/new.py"]
    assert (dest / "pkg" / "mod.py").read_text() == "X = 2\n"
