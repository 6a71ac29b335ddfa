"""The three workloads: seeded inputs, one op each, and their oracles.

Every op's inputs come from `random.Random(f"{seed}-{i}")`, so op i is
the same whatever ran before it, and the engine only ever sees the
generated problem documents and term texts.  `run` is the timed engine
part of an op; `check` compares its output with an oracle that does not
come from the engine and returns the op's verdict record, which feeds
the determinism digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from oracle import (
    BOUND, LinearProblem, OracleError, factored_text, linear_factor,
    random_point, truth_table,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(SRC, "holebox", "data", "corpus.jsonl")
OUT = os.path.join(ROOT, ".perfbench_out")


@dataclass
class Verdict:
    record: str                   # what the digest covers
    positive: Optional[float]     # solved / certified / accepted share
    error: Optional[str] = None   # set when the op disagrees with its oracle
    rates: Optional[dict] = None  # corpus-cli search reports only


def _rng(seed: int, i: int, salt: str = "") -> random.Random:
    return random.Random(f"{seed}-{salt}{i}")


def _stratified(seed: int, tag: str, g: int, items):
    """The g-th item of a stream that runs through seeded permutations of
    `items`, so every stretch of the stream has nearly the same mix.  The
    benchmark's throughput and median depend on the mix, and a mix that
    drifts with the seed would show up as noise."""
    block, pos = divmod(g, len(items))
    perm = list(items)
    random.Random(f"{seed}-{tag}{block}").shuffle(perm)
    return perm[pos]


def _occurrence(seed: int, tag: str, i: int, items) -> tuple[object, int]:
    """Item i of the `_stratified` stream, and how many times that item
    came before it in the stream."""
    block, pos = divmod(i, len(items))
    item = _stratified(seed, tag, i, items)
    before = sum(_stratified(seed, tag, block * len(items) + j, items) == item
                 for j in range(pos))
    return item, block * items.count(item) + before


# ---------------------------------------------------------------------------
# corpus-cli


class CorpusCli:
    """Fresh `holebox bench run` invocations, alternating the two solvers.

    The seed permutes the corpus lines; every invocation in a run reads
    the same permuted file, so identical invocations must produce
    byte-identical reports.
    """
    name = "corpus-cli"
    in_process = False
    digest_ops = 2
    SOLVERS = ("script", "search")

    def __init__(self, seed: int) -> None:
        with open(CORPUS, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
        random.Random(f"{seed}-corpus").shuffle(lines)
        self.first = _rng(seed, 0, "solver").randrange(2)
        self.corpus = os.path.join(OUT, f"corpus-{seed}.jsonl")
        with open(self.corpus, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        self.entries = [json.loads(ln) for ln in lines]
        self.seed = seed
        self.reports: dict[str, str] = {}
        self.span_files: list[str] = []
        self.trace = False
        from holebox.bench import load_benchmark
        load_benchmark(self.corpus)

    def inputs(self, i: int) -> str:
        return self.SOLVERS[(i + self.first) % 2]

    def run(self, i: int, solver: str):
        out = os.path.join(OUT, f"report-{self.seed}-{solver}.json")
        if os.path.exists(out):
            os.remove(out)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "cli"]
        if self.trace:
            spans = os.path.join(OUT, f"spans-{self.name}-{self.seed}-{i}.bin")
            cmd += ["--spans", spans]
            self.span_files.append(spans)
        cmd += ["--", "bench", "run", self.corpus, "--solver", solver,
                "--out", out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=120)
        with open(out, "r", encoding="utf-8") as fh:
            return solver, proc.returncode, proc.stderr, fh.read()

    def check(self, i: int, solver: str, raw) -> Verdict:
        solver, code, stderr, text = raw
        rep = json.loads(text)
        first = self.reports.setdefault(solver, text)
        agg = rep["aggregate"]
        err = None
        if text != first:
            err = "report differs from the first identical invocation"
        elif stderr:
            err = f"stderr: {stderr[:200]!r}"
        else:
            err = _report_invariants(rep, self.entries, solver)
        if err is None and code != (0 if agg["rates"]["solved"] == 1.0 else 1):
            err = f"exit code {code}"
        record = f"{solver} {code} {agg['counts']} {_sha(text)}"
        if solver == "script":
            return Verdict(record, None, err)
        return Verdict(record, agg["rates"]["solved"], err, agg["rates"])


def _report_invariants(rep: dict, entries: list[dict], solver: str
                       ) -> Optional[str]:
    hdr = rep["header"]
    if (hdr["solver"], hdr["k"], hdr["s"]) != (solver, 200, 8):
        return f"unexpected header {hdr}"
    rows = rep["perEntry"]
    if [r["id"] for r in rows] != [e["id"] for e in entries]:
        return "per-entry rows do not match the corpus entries"
    counts = {"entries": len(rows), "scored": 0, "solved": 0,
              "neSubmitted": 0, "unsolved": 0, "proven": 0}
    for r, e in zip(rows, entries):
        parse_only = e.get("expected") == "parse-only"
        if (r["outcome"] == "skipped") != parse_only:
            return f"{r['id']}: outcome {r['outcome']} for expected " \
                   f"{e.get('expected', 'script')}"
        if parse_only:
            continue
        if r["outcome"] not in ("solved", "neSubmitted", "unsolved"):
            return f"{r['id']}: outcome {r['outcome']!r}"
        counts["scored"] += 1
        counts[r["outcome"]] += 1
        counts["proven"] += bool(r["proven"])
        if (r["outcome"] == "solved") != bool(
                r.get("rpe") and r["rpe"]["equivalent"]):
            return f"{r['id']}: outcome disagrees with its rpe verdict"
    agg = rep["aggregate"]
    if agg["counts"] != counts:
        return f"aggregate counts {agg['counts']} != rows {counts}"
    n = counts["scored"]
    rates = {"solved": counts["solved"] / n, "proven": counts["proven"] / n,
             "neSubmitted": counts["neSubmitted"] / n}
    if agg["rates"] != rates:
        return f"aggregate rates {agg['rates']} != rows {rates}"
    if solver == "script" and (counts["solved"], counts["proven"]) != (n, n):
        return f"script solver scored {counts['solved']}/{n} solved, " \
               f"{counts['proven']}/{n} proven"
    return None


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# dfps-oracle


class DfpsOracle:
    """Bounded find-all deductive problems, forward then backward phase."""
    name = "dfps-oracle"
    in_process = True
    digest_ops = 60

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # engine functions are looked up at call time, so a traced run
        # reaches the tracer's wrappers
        import holebox.fps
        import holebox.kernel
        import holebox.syntax
        from holebox.tactics.rewrite import default_library
        default_library()
        self.fps = holebox.fps
        self.syntax = holebox.syntax
        self.verdict_errors = holebox.kernel.KernelError
        self.inputs(0)

    # Each run of 15 ops has 5 problems of each shape, 2 of them with the
    # tautology (exact h_p_1) forward phase: the 40 % of acceptance
    # criterion 3.  The engine's cost per op depends mostly on the class
    # and the number of solutions (have + auto with 5-6 solutions costs
    # 50 times a tautology), so each run of 20 problems of one class
    # spreads their solution counts over that count's distribution.
    CLASSES = tuple((shape, taut) for shape in ("atom", "and", "or")
                    for taut in (True, True, False, False, False))
    QUANTILES = tuple(range(20))

    def inputs(self, i: int):
        (shape, tautology), k = _occurrence(self.seed, "class", i,
                                            self.CLASSES)
        rng = _rng(self.seed, i)
        u = (_stratified(self.seed, f"{shape}{tautology}", k, self.QUANTILES)
             + rng.random()) / len(self.QUANTILES)
        prob = LinearProblem.draw_with(rng, shape, u)
        return prob, tautology, json.dumps(prob.document())

    def run(self, i: int, inp):
        prob, tautology, doc = inp
        fps = self.fps
        sess = fps.session_init(self.syntax.parse_problem(doc))
        try:
            if tautology:
                sess = sess.apply("h.mp", "exact", "h_p_1")
            else:
                sess = sess.apply("h.mp", "have",
                                  f"hans : {prob.answer_text()}")
                sess = sess.apply("h.mp.hans", "auto", "")
                sess = sess.apply("h.mp", "exact", "hans")
            a_hat = fps.extract_answer(sess)
            fwd = fps.certify(sess)
        except self.verdict_errors as e:
            return prob, tautology, None, None, None, type(e).__name__
        try:
            bwd = fps.certify(sess.apply("h.mpr", "auto", ""))
        except self.verdict_errors:
            bwd = None
        return prob, tautology, a_hat, fwd, bwd, None

    def check(self, i: int, inp, raw) -> Verdict:
        prob, tautology, a_hat, fwd, bwd, reason = raw
        mode = "taut" if tautology else "have"
        if a_hat is None:
            return Verdict(f"{i} {mode} forward-failed {reason}", False)
        want = tuple(prob.holds(x) for x in range(-BOUND, BOUND + 1))
        try:
            got = truth_table(a_hat)
        except OracleError as e:
            return Verdict(f"{i} {mode}", False, f"oracle: {e}")
        err = None
        if not fwd.forward:
            err = "forward certificate does not say forward"
        elif any(w and not g for w, g in zip(want, got)):
            err = f"completeness fails for {prob.psi_text()}"
        elif bwd is not None and (not bwd.backward or got != want):
            err = f"soundness fails for {prob.psi_text()}"
        table = "".join("1" if g else "0" for g in got)
        return Verdict(f"{i} {mode} {fwd.answer} {table} "
                       f"backward={bwd is not None}", err is None, err)


# ---------------------------------------------------------------------------
# rpe-pairs

# The golden RPE vectors: (a, b, answer sort, variables, framework,
# equivalent, stage).  Each is pinned to its verdict and stage.
GOLDEN = (
    ("364000", "3.64 * 10^5", "Rat", (), "fps", True, "rfl"),
    ("0.4667", "7/15", "Rat", (), "fps", False, None),
    ("(1 + sqrt (1 + 8*n)) / 2", "(1 + (1 + 8*n)^(1/2)) / 2", "Real",
     (("n", "Real"),), "fps", True, "rw_search"),
    ("sqrt 180 / 2", "3 * sqrt 5", "Real", (), "fps", False, None),
    ("2 + 1", "1 + 2", "Real", (), "fps", True, "ring_nf"),
    ("{x : Real | x < -4/3 \\/ x > 0}", "Iio (-4/3) \\/ Ioi 0", "Set Real",
     (), "fps", True, "auto"),
    ("x + 0", "x", "Int", (("x", "Int"),), "fps", True, "ring_nf"),
    ("x^2 - 1 = 0", "x in ({-1, 1} : Set Real)", "Prop",
     (("x", "Real"),), "dfps", False, None),
)

# One cycle of pair kinds; each cycle is shuffled by the seed.  Six of
# ten (plus three of eight golden vectors) must be rejected, so most ops
# run the whole stack to exhaustion and the median op is a rejection.
KINDS = ("rewrite", "rewrite", "golden", "poly-eq",
         "perturb", "perturb", "perturb", "perturb",
         "poly-neg", "poly-neg")

# Parse-only corpus problems whose answers contain a variable; the
# polynomial pairs are built over that variable.  Both hypotheses make
# the variable positive, so the oracle samples positive points.
POLY_VARS = {"simplification_radical": "x", "physics_droplet": "g"}

NUMERIC = ("Nat", "Int", "Rat", "Real")


def _literal(text: str) -> Optional[Fraction]:
    try:
        return Fraction(text)
    except ValueError:
        return None


def _lit_text(v: Fraction) -> str:
    return str(v) if v >= 0 else f"({v})"


def _rewrite(rng: random.Random, gt: str, sort: str) -> str:
    """A candidate equal to `gt` by construction."""
    k = rng.randint(1, 9)
    forms = [f"({gt}) + 0", f"1 * ({gt})", f"({gt}) * 1", f"0 + ({gt})",
             f"({gt}) * {k + 1} - ({gt}) * {k}"]
    forms.append(f"({k} + ({gt})) - {k}" if sort == "Nat"
                 else f"{k} + (({gt}) - {k})")
    v = _literal(gt)
    if v is not None and v.denominator == 1 and v > 0:
        mant, exp = int(v), 0
        while mant % 10 == 0:
            mant, exp = mant // 10, exp + 1
        if sort in ("Rat", "Real") and mant >= 10:
            digits = str(mant)
            exp += len(digits) - 1
            forms.append(f"{digits[0]}.{digits[1:]} * 10^{exp}")
        else:
            forms.append(f"{mant} * 10^{exp}")
    return rng.choice(forms)


def _perturb(rng: random.Random, gt: str, sort: str, pid: str) -> str:
    """A candidate the restricted check must reject by construction:
    a different value, or a radical form the stack deliberately lacks."""
    v = _literal(gt)
    forms = []
    if v is not None:
        forms.append(_lit_text(v + 1) if v == 0 or rng.random() < 0.5
                     else _lit_text(v - 1))
    else:
        forms.append(f"({gt}) + 1")
    if sort in ("Rat", "Real"):
        approx = None if v is None else f"{float(v):.4f}"
        if approx is not None and Fraction(approx) != v:
            forms.append(approx)
        else:
            forms.append(f"({gt}) + 0.0001")
    if sort == "Real":
        forms.append(f"sqrt (({gt})^2)")
        if pid == "simplification_radical":
            forms.append("sqrt (28 * x) * sqrt (15 * x) * sqrt (21 * x)")
    return rng.choice(forms)


class RpePairs:
    """(candidate, ground truth) pairs judged by `rpe_check`."""
    name = "rpe-pairs"
    in_process = True
    digest_ops = 100

    def __init__(self, seed: int) -> None:
        self.seed = seed
        import holebox.rpe
        import holebox.syntax
        from holebox.bench import load_benchmark
        from holebox.syntax import parse_problem
        from holebox.tactics.rewrite import default_library
        default_library()
        self.rpe = holebox.rpe
        self.syntax = holebox.syntax
        entries = load_benchmark(CORPUS)
        with open(CORPUS, "r", encoding="utf-8") as fh:
            answers = {o["id"]: o["formalAnswer"] for o in
                       map(json.loads, filter(str.strip, fh))}
        self.numeric = [(e.problem, answers[e.id], str(e.problem.queriable[1]),
                         e.id) for e in entries
                        if str(e.problem.queriable[1]) in NUMERIC]
        by_id = {e.id: e.problem for e in entries}
        self.poly = [(by_id[pid], var) for pid, var in POLY_VARS.items()]
        self.golden = []
        for a, b, qsort, vars_, fw, eq, stage in GOLDEN:
            doc = {"format_version": "1", "framework": fw,
                   "vars": [list(v) for v in vars_],
                   "queriable": ["_q", qsort], "hypotheses": [],
                   "conclusions": (["x^2 - 1 = 0 <-> _q"] if fw == "dfps"
                                   else ["_q = _q"])}
            self.golden.append((parse_problem(json.dumps(doc)), a, b, eq,
                                stage))
        self.inputs(0)

    def inputs(self, i: int):
        """(kind, problem, candidate, truth, label, pinned stage, points)."""
        kind, g = _occurrence(self.seed, "kind", i, KINDS)
        rng = _rng(self.seed, i)
        if kind == "golden":
            p, a, b, eq, stage = _stratified(self.seed, kind, g, self.golden)
            return kind, p, a, b, eq, stage, None
        if kind in ("rewrite", "perturb"):
            p, gt, sort, pid = _stratified(self.seed, kind, g, self.numeric)
            if kind == "rewrite":
                return kind, p, _rewrite(rng, gt, sort), gt, True, None, None
            return kind, p, _perturb(rng, gt, sort, pid), gt, False, None, None
        p, var = _stratified(self.seed, kind, g, self.poly)
        factors = [linear_factor(rng, 1) for _ in range(rng.choice((2, 3)))]
        prod = factors[0]
        for f in factors[1:]:
            prod = prod * f
        truth = prod if kind == "poly-eq" else \
            prod.shifted(Fraction(rng.choice((1, -1))))
        points = [tuple(abs(x) or Fraction(1) for x in random_point(rng, 1))
                  for _ in range(4)]
        cand = factored_text(factors, (var,))
        return kind, p, cand, truth.text((var,)), kind == "poly-eq", None, \
            (factors, truth, points)

    def run(self, i: int, inp):
        kind, p, cand, truth, label, stage, poly = inp
        tele, qsort = p.telescope(), p.queriable[1]
        parse = self.syntax.parse_term
        return self.rpe.rpe_check(p, parse(cand, tele, qsort),
                                  parse(truth, tele, qsort))

    def check(self, i: int, inp, verdict) -> Verdict:
        kind, p, cand, truth, label, stage, poly = inp
        by = verdict.succeeded_by or "none"
        record = f"{i} {kind} {verdict.equivalent} {by}"
        err = None
        if poly is not None:
            factors, rhs, points = poly
            same = all(_product(f.at(pt) for f in factors) == rhs.at(pt)
                       for pt in points)
            if same != label:
                err = "pair label disagrees with exact evaluation"
        if err is None and verdict.equivalent != label:
            err = f"{cand!r} vs {truth!r}: equivalent={verdict.equivalent}, " \
                  f"built as {'equal' if label else 'not equivalent'}"
        if err is None and stage is not None and by != stage:
            err = f"{cand!r} vs {truth!r}: closed by {by}, pinned {stage}"
        return Verdict(record, verdict.equivalent, err)


def _product(values) -> Fraction:
    out = Fraction(1)
    for v in values:
        out *= v
    return out


WORKLOADS = {w.name: w for w in (CorpusCli, DfpsOracle, RpePairs)}
