"""Paired benchmark runs: a base commit against this checkout.

    python3 tools/bench_pair.py --base REF --workload W --pairs N \
        [--seconds S] [--seed N] --out FILE

Exports REF with `git archive` into one temporary directory and copies
the checkout into a sibling of it: its tracked files and the untracked
ones git does not ignore, as they are in the working tree, so both
sides run from trees placed alike and an uncommitted edit is measured.
It then runs `perfbench/run.py --trace 0` of each tree one at a time,
N pairs, with the side that goes first alternating from pair to pair.
It prints, per end-to-end metric of BENCHMARK.json, each side's median
and quartiles, how many pairs the change won, and whether the change's
median is worse than the base's by more than the metric's `bound`, a
share of the base median: the rule a change is refused by.  It writes
the per-run values and whether the digests matched to FILE under
`workloads.W`; the other workloads already in FILE are kept, so one
file holds a change's runs on every workload.  Beside the metric rows
it prints each side's median ops attempted: a side that completes more
ops keeps more per-op records, which `peak_rss_mb` counts.  The
temporary trees are removed at the end, and every run has finished
before the next one starts.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGEST = re.compile(r"^\s+digest ([0-9a-f]{64}) ", re.M)


def export(ref: str, dest: str) -> str:
    """Write the tree of `ref` into `dest`; its full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
        check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit],
                         cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest)
    return commit


def copy_checkout(root: str, dest: str) -> int:
    """Copy the working tree of the git checkout `root` into `dest`: the
    tracked files and the untracked ones git does not ignore, with their
    working-tree content (a tracked file deleted there is left out).
    Returns the number of files copied."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], cwd=root, check=True,
        capture_output=True).stdout.decode()
    copied = 0
    for rel in sorted(set(filter(None, listed.split("\0")))):
        src = os.path.join(root, rel)
        if not os.path.isfile(src):
            continue
        dst = os.path.join(dest, rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copy2(src, dst)
        copied += 1
    return copied


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` run in `tree`: its metric values, digest
    and op counts."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    digest = DIGEST.search(proc.stdout)
    return {"values": {k: v["value"] for k, v in result["metrics"].items()},
            "digest": digest.group(1) if digest else None,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"]}


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs: list[tuple[dict, dict]],
              metrics: list[tuple[str, str, float]]) -> dict:
    """Per metric `(name, "higher" or "lower", bound)`: each side's
    median and quartiles over `pairs` of (base values, change values),
    the pairs the change won (strictly better in its metric's
    direction), and whether the change's median is worse than the
    base's by more than `bound` times the base median."""
    out = {}
    for name, better, bound in metrics:
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        b, c = _spread(base), _spread(change)
        out[name] = {
            "better": better, "base": b, "change": c, "wins": wins,
            "pairs": len(pairs),
            "beyond_bound": sign * (c["median"] - b["median"])
            < -bound * abs(b["median"]),
        }
    return out


def attempted(runs: list[dict]) -> dict:
    """Each side's median and quartiles of the ops a run attempted.  A
    side that completes more ops in the same seconds keeps more per-op
    records, and `peak_rss_mb` counts them."""
    return {side: _spread([p[side]["attempted"] for p in runs])
            for side in ("base", "change")}


def _row(name: str, b: dict, c: dict, fmt: str = ".4g") -> str:
    return (f"{name:<18} {b['median']:>12{fmt}} [{b['q1']:{fmt}}, "
            f"{b['q3']:{fmt}}]{'':>3} {c['median']:>12{fmt}} "
            f"[{c['q1']:{fmt}}, {c['q3']:{fmt}}]")


def report(summary: dict, ops: Optional[dict] = None) -> str:
    """One row per metric, and one of the ops attempted when `ops`
    (from `attempted`) is given."""
    rows = [f"{'metric':<18} {'base median [q1, q3]':>30} "
            f"{'change median [q1, q3]':>30}  wins"]
    for name, s in summary.items():
        rows.append(
            _row(name, s["base"], s["change"])
            + f"{'':>3} {s['wins']}/{s['pairs']}"
            + ("  worse beyond bound" if s["beyond_bound"] else ""))
    if ops is not None:
        rows.append(_row("ops attempted", ops["base"], ops["change"],
                         ".0f"))
    return "\n".join(rows)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="git ref of the base")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--seed", type=int, default=20250810)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = [(m["name"], m["better"], m["bound"])
                   for m in json.load(fh)["end_to_end"]]
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in ("base", "change")}
        commit = export(args.base, trees["base"])
        copy_checkout(ROOT, trees["change"])
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, args.seed,
                                      args.seconds)
                print(f"pair {i + 1}/{args.pairs} {side}: "
                      f"p50 {pair[side]['values']['latency_p50_ms']:.4g}",
                      file=sys.stderr)
            runs.append(pair)
    summary = summarize([(p["base"]["values"], p["change"]["values"])
                         for p in runs], metrics)
    ops = attempted(runs)
    digests = {p[side]["digest"] for p in runs for side in ("base", "change")}
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s, "
          f"seed {args.seed}, base {commit[:12]}; digests "
          f"{'match' if len(digests) == 1 else 'DIFFER'}")
    print(report(summary, ops))
    doc = {"workloads": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["workloads"][args.workload] = {
        "base": commit, "seed": args.seed, "seconds": args.seconds,
        "digests_match": len(digests) == 1, "summary": summary,
        "attempted": ops, "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
