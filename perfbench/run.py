"""holebox's benchmark: three seeded workloads with oracle-checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec     # regenerate BENCHMARK.json

Run it from the root of a holebox checkout; it imports the engine from
`src/` and writes scratch files under `.perfbench_out/` only.

Each workload is a closed loop with one client in this process: the
next op starts when the previous one has finished.  A run keeps starting
ops until `--seconds` have passed and at least the workload's digest
prefix is done.  With `--trace 0` it reports the end-to-end metrics;
with `--trace 1` it first runs the digest prefix untraced, then installs
the tracer (tracer.py) and runs the same ops again and on until the
time is up, and reports the per-layer metrics.  The untraced and traced
digests must agree.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

RUN_SECONDS = 35
SETUP_PROBES = 5
OP_LIMIT_S = 10.0   # an in-process op slower than this counts as failed

WORKLOAD_WHY = {
    "corpus-cli": "op: one fresh `holebox bench run` of the 20-entry corpus "
                  "(seed shuffles it), script and search solver alternating;"
                  " the cold pipeline as users run it. Seed 20250810",
    "dfps-oracle": "op: one bounded find-all dfps problem, forward "
                   "(have+auto+exact or exact h_p_1), certify, backward auto,"
                   " certify, brute-force checked; auto/omega/certify-bound."
                   " Seed 20250810",
    "rpe-pairs": "op: one rpe_check of a seeded (candidate, truth) pair: "
                 "rewrites, perturbations, polynomials, golden vectors; 6 in"
                 " 10 must be rejected, so failure paths. Seed 20250810",
}

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ops_s", "1/ref_s", "higher", 0.24),
    ("latency_p50_ms", "ref_ms", "lower", 0.245),
    ("latency_tail_ms", "ref_ms", "lower", 0.22),
    ("cpu_ms_per_op", "ref_ms", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("positive_ratio", "ratio", "higher", 0.15),
)

# Traced functions reported with calls, inclusive ms and self ms per op.
FUNCS = (
    "syntax.parse_problem", "syntax.parse_term", "syntax.print_term",
    "norm.normalize", "norm.fold_literals", "norm.definitional_eq",
    "kernel.recheck", "auto.revalidate_auto",
    "linarith.prove_linear", "linarith.omega_sat", "linarith.fm_refute",
    "rewrite.rw_search_term", "decide.decide_prop",
    "fps.certify", "rpe.rpe_check",
    "search.best_first_search", "search.expand",
)
TACTICS = ("exact", "have", "intro", "cases", "rewrite", "rfl",
           "eval_decide", "ring_nf", "linear_arith", "rw_search", "auto")
CLOSERS = ("decide_prop", "ring_closes", "prove_linear", "rw_search_term")
STAGES = ("rfl", "eval_decide", "ring_nf", "rw_search", "auto")


def per_layer_spec() -> list[tuple[str, str, str]]:
    out = []
    for f in FUNCS:
        out += [(f"{f}.calls", "1/op", "lower"), (f"{f}.ms", "ms/op", "lower"),
                (f"{f}.self_ms", "ms/op", "lower")]
    out += [("norm.normalize.repeat_ratio", "ratio", "lower"),
            ("rewrite.rw_search_term.hit_ratio", "ratio", "higher"),
            ("fps.certify.replay_ms", "ms/op", "lower"),
            ("fps.certify.recheck_ms", "ms/op", "lower"),
            ("fps.certify.reprove_ms", "ms/op", "lower")]
    for t in TACTICS:
        n = f"kernel.apply_tactic.{t}"
        out += [(f"{n}.calls", "1/op", "lower"), (f"{n}.ms", "ms/op", "lower"),
                (f"{n}.failed", "1/op", "lower")]
    for c in CLOSERS:
        n = f"auto.closer.{c}"
        out += [(f"{n}.calls", "1/op", "lower"), (f"{n}.ms", "ms/op", "lower"),
                (f"{n}.hit_ratio", "ratio", "higher")]
    for s in STAGES:
        n = f"rpe.stage.{s}"
        out += [(f"{n}.attempts", "1/op", "lower"),
                (f"{n}.hits", "1/op", "higher"), (f"{n}.ms", "ms/op", "lower")]
    out += [("search.nodes_popped", "1/op", "lower"),
            ("search.nodes_generated", "1/op", "lower"),
            ("search.suggestions_failed", "1/op", "lower"),
            ("bench.evaluate_entry.ms", "ms/op", "lower"),
            ("bench.prove_ground_truth.ms", "ms/op", "lower"),
            ("cli.cli_main.ms", "ms/op", "lower"),
            ("trace.overhead_pct", "%", "lower"),
            ("trace.spans", "1/op", "lower")]
    return out


def layer_metrics(t, ops: int, overhead_pct: float) -> dict[str, float]:
    def per(x):
        return x / ops

    def ms(ns):
        return ns / 1e6 / ops

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for f in FUNCS:
        m[f"{f}.calls"] = per(t.calls[f])
        m[f"{f}.ms"] = ms(t.incl_ns[f])
        m[f"{f}.self_ms"] = ms(t.self_ns[f])
    m["norm.normalize.repeat_ratio"] = ratio(t.repeats["norm.normalize"],
                                             t.calls["norm.normalize"])
    rw = "rewrite.rw_search_term"
    m[f"{rw}.hit_ratio"] = ratio(t.hits[rw], t.calls[rw])
    m["fps.certify.replay_ms"] = ms(t.under("fps.certify", "fps.run_trace")[2])
    m["fps.certify.recheck_ms"] = ms(
        t.under("fps.certify", "fps.certify.recheck")[2])
    m["fps.certify.reprove_ms"] = ms(
        t.under("fps.certify", "fps.recheck_statement")[2])
    for tac in TACTICS:
        n = f"kernel.apply_tactic.{tac}"
        m[f"{n}.calls"] = per(t.calls[n])
        m[f"{n}.ms"] = ms(t.incl_ns[n])
        m[f"{n}.failed"] = per(t.raised[n])
    for c in CLOSERS:
        n = f"auto.closer.{c}"
        m[f"{n}.calls"] = per(t.calls[n])
        m[f"{n}.ms"] = ms(t.incl_ns[n])
        m[f"{n}.hit_ratio"] = ratio(t.hits[n], t.calls[n])
    for s in STAGES:
        n = f"rpe.stage.{s}"
        m[f"{n}.attempts"] = per(t.calls[n])
        m[f"{n}.hits"] = per(t.hits[n])
        m[f"{n}.ms"] = ms(t.incl_ns[n])
    m["search.nodes_popped"] = per(t.search_nodes[0])
    m["search.nodes_generated"] = per(t.search_nodes[1])
    m["search.suggestions_failed"] = per(
        t.under("search.expand", "kernel.apply_tactic.")[1])
    m["bench.evaluate_entry.ms"] = ms(t.incl_ns["bench.evaluate_entry"])
    m["bench.prove_ground_truth.ms"] = ms(
        t.incl_ns["bench.prove_ground_truth"])
    m["cli.cli_main.ms"] = ms(t.incl_ns["cli.cli_main"])
    m["trace.overhead_pct"] = overhead_pct
    m["trace.spans"] = per(t.spans)
    return m


def write_spec() -> None:
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in per_layer_spec()],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w",
              encoding="utf-8") as fh:
        fh.write(json.dumps(spec, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Measuring


class SetupProbes:
    """setup_s samples: fresh interpreter start to "ready", timed from
    outside.  Probe k is due in the k-th of SETUP_PROBES equal slices of
    the run and waits, within its slice, for a moment when the host-speed
    kernel runs near its best time of the run: on a shared host a CPU's
    speed can halve for seconds at a time, and a probe in such a spell
    times the neighbours, not holebox's import.  Spells that last the
    whole run remain, so setup_s is scaled by the kernel like the op
    times."""

    QUIET = 1.2     # kernel median at most this times the run's p10

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.cmd = [sys.executable, os.path.join(HERE, "child.py"), "setup",
                    workload, str(seed)]
        self.slice = seconds / SETUP_PROBES
        self.took: list[float] = []     # seconds
        self.scaled: list[float] = []   # reference seconds

    def __call__(self, elapsed: float, ref) -> None:
        """Between ops: take the pending probe if it is due and the host
        is quiet, or if its slice is over."""
        k = len(self.took)
        if k >= SETUP_PROBES or elapsed < k * self.slice:
            return
        recent = statistics.median(ref.took[-hostspeed.NEAREST:])
        best = sorted(ref.took)[len(ref.took) // 10]
        if recent <= self.QUIET * best or elapsed >= (k + 1) * self.slice:
            self.probe()

    def probe(self) -> None:
        kernel = [hostspeed.timed_kernel() for _ in range(3)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.cmd, stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
            raise RuntimeError("setup probe failed")
        kernel += [hostspeed.timed_kernel() for _ in range(3)]
        self.took.append(t1 - t0)
        self.scaled.append((t1 - t0) / statistics.median(kernel) * 1e-3)

    def finish(self) -> "SetupProbes":
        while len(self.took) < SETUP_PROBES:
            self.probe()
        return self


def _cpu(in_process: bool) -> float:
    if in_process:
        return time.process_time()
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Loop:
    """One closed-loop pass over ops 0, 1, ... until `seconds` have passed
    and the digest prefix is done.  Records per op: start time, wall
    time, CPU time and verdict; and the host-speed reference.
    `between(elapsed, ref)` runs before each op, outside its timing."""

    def __init__(self, wl, seconds: float, between=None) -> None:
        from workloads import Verdict
        # per-op state stays a few bytes, so peak_rss_mb is the engine's
        self.start = array("d")
        self.lat = array("d")
        self.cpu = array("d")
        self.records: list[str] = []    # the digest prefix's verdicts
        self.positive: list[float] = []
        self.rates: list[dict] = []
        self.errors: list[str] = []
        self.ref = hostspeed.Reference()
        self.ref.tick(0.0)
        t_start = time.perf_counter()
        i = 0
        while i < wl.digest_ops or time.perf_counter() - t_start < seconds:
            inp = wl.inputs(i)
            if between is not None:
                between(time.perf_counter() - t_start, self.ref)
            c0 = _cpu(wl.in_process)
            t0 = time.perf_counter()
            try:
                raw = wl.run(i, inp)
            except Exception as e:     # anything but a verdict fails the op
                dt = time.perf_counter() - t0
                v = Verdict(f"{i} raised {type(e).__name__}", None,
                            f"{type(e).__name__}: {e}")
            else:
                dt = time.perf_counter() - t0
                try:
                    v = wl.check(i, inp, raw)
                except Exception as e:
                    v = Verdict(f"{i} unchecked", None,
                                f"oracle raised {type(e).__name__}: {e}")
            self.cpu.append(_cpu(wl.in_process) - c0)
            if wl.in_process and dt > OP_LIMIT_S and v.error is None:
                v.error = f"took {dt:.1f}s, over the {OP_LIMIT_S}s limit"
            if v.error is not None:
                self.errors.append(f"op {i}: {v.error}")
            self.start.append(t0)
            self.lat.append(dt)
            if i < wl.digest_ops:
                self.records.append(v.record)
            if v.positive is not None:
                self.positive.append(v.positive)
            if v.rates is not None:
                self.rates.append(v.rates)
            self.ref.tick(dt)
            i += 1

    def digest(self, n: int) -> str:
        text = "\n".join(self.records[:n])
        return hashlib.sha256(text.encode()).hexdigest()


def _peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(wl, loop: Loop, probes: SetupProbes) -> tuple[dict, list]:
    n = len(loop.lat)
    ref = loop.ref
    setups = probes.scaled
    lat = sorted(ref.ref_ms(t, s) for t, s in zip(loop.start, loop.lat))
    cpu = [ref.ref_ms(t, s) for t, s in zip(loop.start, loop.cpu)]
    tail_rank = max(n - 11, 0)      # ten samples beyond it
    values = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": n / sum(lat) * 1e3,
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": lat[tail_rank],
        "cpu_ms_per_op": statistics.mean(cpu),
        "peak_rss_mb": _peak_rss_mb(wl.in_process),
        "positive_ratio": statistics.mean(loop.positive),
    }
    raw = sorted(loop.lat)
    kern = sorted(ref.took)
    notes = [
        f"setup_s: median of {len(setups)} fresh interpreters, in reference"
        f" seconds ({', '.join(f'{s:.3f}' for s in setups)}); unscaled "
        f"{', '.join(f'{s:.3f}' for s in probes.took)} s",
        f"latency_tail_ms: p{100.0 * (tail_rank + 1) / n:.1f}, "
        f"{n - 1 - tail_rank} of {n} samples beyond it",
        f"failed_ratio: {len(loop.errors)}/{n} = {len(loop.errors) / n:g}",
        f"host-speed kernel: median {statistics.median(kern) * 1e3:.3f} ms,"
        f" p10 {kern[len(kern) // 10] * 1e3:.3f}, p90 "
        f"{kern[len(kern) * 9 // 10] * 1e3:.3f} over {len(kern)} runs",
        f"unscaled: {n / sum(raw):.4g} ops/s, p50 "
        f"{statistics.median(raw) * 1e3:.4g} ms, tail "
        f"{raw[tail_rank] * 1e3:.4g} ms, cpu "
        f"{statistics.mean(loop.cpu) * 1e3:.4g} ms/op",
    ]
    rates = loop.rates
    if rates:
        for key, label in (("solved", "solved_rate"),
                           ("proven", "proven_rate"),
                           ("neSubmitted", "ne_submitted_rate")):
            mean = statistics.mean(r[key] for r in rates)
            notes.append(f"{label}: {mean:.4f} over {len(rates)} "
                         f"search-solver invocations")
    else:
        label = {"dfps-oracle": "certified_ratio",
                 "rpe-pairs": "accepted_ratio"}[wl.name]
        notes.append(f"{label}: {values['positive_ratio']:.4f} over {n} ops")
    return values, notes


def traced(wl, seed: int, seconds: float
           ) -> tuple[dict, list, int, list, bool]:
    from tracer import Totals, Tracer, read_spans
    from workloads import OUT as out_dir
    ref = Loop(wl, 0.0)
    totals = Totals()
    if wl.in_process:
        tracer = Tracer()
        tracer.install()
        run = Loop(wl, seconds, lambda *_: tracer.begin_op())
        path = os.path.join(out_dir, f"spans-{wl.name}-{seed}.bin")
        tracer.write(path)
        totals.add(tracer.dump())
    else:
        wl.trace = True
        run = Loop(wl, seconds)
        for path in wl.span_files:
            totals.add(read_spans(path))
    k = wl.digest_ops
    untraced_s, traced_s = sum(ref.lat[:k]), sum(run.lat[:k])
    overhead = (traced_s - untraced_s) / untraced_s * 100.0
    d_ref, d_run = ref.digest(k), run.digest(k)
    notes = [
        f"tracing overhead: {traced_s - untraced_s:+.3f}s over the first {k}"
        f" ops ({untraced_s:.3f}s untraced, {traced_s:.3f}s traced)",
        f"digest untraced {d_ref}",
        f"digest traced   {d_run}",
        f"spans: {totals.spans} over {len(run.lat)} traced ops, written to "
        f"{os.path.relpath(out_dir, ROOT)}/",
    ]
    metrics = layer_metrics(totals, len(run.lat), overhead)
    return metrics, notes, len(ref.lat) + len(run.lat), \
        ref.errors + run.errors, d_ref == d_run


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=20250810)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true")
    args = ap.parse_args(argv)
    if args.write_spec:
        write_spec()
        return 0
    if not os.path.isfile(os.path.join(SRC, "holebox", "__init__.py")):
        print(f"error: no holebox source tree at {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOAD_WHY:
        print(f"error: --workload must be one of {sorted(WORKLOAD_WHY)}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from workloads import OUT, WORKLOADS
    os.makedirs(OUT, exist_ok=True)

    # One CPU for the run and the children it starts, so the host-speed
    # kernel measures the CPU the ops run on.
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as e:
        print(f"warning: running unpinned: {e}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    import holebox.cli  # noqa: F401  (loads every engine module)
    wl = WORKLOADS[args.workload](args.seed)
    if args.trace:
        values, notes, attempted, errors, same = traced(wl, args.seed,
                                                        args.seconds)
        units = {n: u for n, u, _ in per_layer_spec()}
        correct = not errors and same
    else:
        probes = SetupProbes(args.workload, args.seed, args.seconds)
        loop = Loop(wl, args.seconds, probes)
        values, notes = end_to_end(wl, loop, probes.finish())
        notes.append(f"digest {loop.digest(wl.digest_ops)} "
                     f"(first {wl.digest_ops} ops)")
        units = {n: u for n, u, _, _ in END_TO_END}
        attempted, errors, correct = len(loop.lat), loop.errors, \
            not loop.errors
    for name, value in values.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    for line in notes:
        print(f"  {line}")
    for line in errors[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(errors),
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
