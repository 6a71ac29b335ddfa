"""Benchmark loading, the evaluation pipeline, and report assembly.

Each benchmark line carries four required fields (informal problem,
informal answer, formal problem, formal answer) plus optional extras: a
reference script, an `expected` marker (`script` or `parse-only`), and
free-form tags.  Parse-only entries are excluded from rate denominators.

Outcomes partition: an entry is exactly one of solved (certified answer,
equivalent to the ground truth), neSubmitted (certified answer, not
equivalent), or unsolved.  The proven flag proves the statement with
the ground-truth answer independently, with the prover certification
uses (`fps.prove_by_script`, `search.prove_by_search`).  Reports are
deterministic: stable key order, no timestamps, and entries evaluated
serially in corpus order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .expr import ExprError, Term
from .fps import (
    SessionError, dfps_prove_script, prove_by_script, prove_script,
    solve_certified,
)
from .kernel import CertificateError, KernelError, script_of_trace
from .rpe import rpe_check
from .search import SearchConfig, best_first_search, builtin_policy, \
    prove_by_search, public_stats
from .syntax import (
    ParseError, Problem, ProofScript, SchemaError, parse_problem,
    parse_script, parse_term,
)


class BenchmarkLoadError(Exception):
    def __init__(self, errors: list[tuple[int, str]]):
        self.errors = errors
        lines = "; ".join(f"line {i}: {m}" for i, m in errors)
        super().__init__(f"benchmark failed to load: {lines}")


@dataclass(frozen=True)
class BenchmarkEntry:
    id: str
    informal_problem: str
    informal_answer: str
    problem: Problem
    formal_answer: Term
    script: Optional[ProofScript] = None
    expected: str = "script"
    tags: tuple[str, ...] = ()


def load_benchmark(path: str) -> list[BenchmarkEntry]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    entries: list[BenchmarkEntry] = []
    errors: list[tuple[int, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            entries.append(_parse_entry(line))
        except (SchemaError, ParseError, ExprError, ValueError,
                KeyError) as e:
            errors.append((lineno, str(e)))
    if errors:
        raise BenchmarkLoadError(errors)
    return entries


def _parse_entry(line: str) -> BenchmarkEntry:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise SchemaError(f"invalid JSON: {e}")
    for field_name in ("id", "informalProblem", "informalAnswer",
                       "formalProblem", "formalAnswer"):
        if field_name not in obj:
            raise SchemaError(f"missing field {field_name!r}")
    problem = parse_problem(obj["formalProblem"])
    answer = parse_term(obj["formalAnswer"], problem.telescope(),
                        problem.queriable[1])
    script = None
    if obj.get("script") is not None:
        script = parse_script(obj["script"])
    expected = obj.get("expected", "script")
    if expected not in ("script", "parse-only"):
        raise SchemaError(f"unknown expected marker {expected!r}")
    return BenchmarkEntry(
        str(obj["id"]), obj["informalProblem"], obj["informalAnswer"],
        problem, answer, script, expected, tuple(obj.get("tags", ())))


# ---------------------------------------------------------------------------
# Per-entry evaluation


def _solve(entry: BenchmarkEntry, solver: str, cfg: SearchConfig
           ) -> tuple[Optional[tuple[Term, dict, str]], dict]:
    """Solve with the builtin search or the entry's reference script.

    Returns `(answer, certificate, script_text)`, or None when unsolved,
    together with the stats for the report.
    """
    if solver != "script":
        try:
            result = best_first_search(entry.problem, builtin_policy, cfg)
        except (SessionError, CertificateError) as e:
            return None, {"error": str(e)}
        stats = public_stats(result.stats)
        if result.status != "solved":
            return None, stats
        return (result.answer, result.certificate,
                result.script.render()), stats
    if entry.script is None:
        return None, {"error": "no reference script"}
    try:
        answer, cert, final = solve_certified(entry.problem, entry.script)
    except (SessionError, CertificateError) as e:
        return None, {"error": str(e)}
    return (answer, cert.to_json(), script_of_trace(final).render()), {}


def _prove_ground_truth(entry: BenchmarkEntry, solver: str,
                        cfg: SearchConfig) -> bool:
    """The statement with the ground-truth answer, attempted independently."""
    p, truth = entry.problem, entry.formal_answer
    try:
        if solver == "script" and entry.script is not None:
            script = dfps_prove_script(entry.script) \
                if p.framework == "dfps" else prove_script(entry.script)
            return prove_by_script(p, truth, script).accepted
        report, _ = prove_by_search(p, truth, cfg)
    except (KernelError, ExprError):
        return False
    return report is not None and report.accepted


def evaluate_entry(entry: BenchmarkEntry, solver: str = "script",
                   cfg: SearchConfig = SearchConfig()) -> dict:
    record: dict = {"id": entry.id, "tags": sorted(entry.tags)}
    if entry.expected == "parse-only":
        record.update(outcome="skipped", proven=None, rpe=None, script=None,
                      stats={"note": "parse-only entry"})
        return record
    solved, stats = _solve(entry, solver, cfg)
    if solved is None:
        record.update(outcome="unsolved", rpe=None, script=None,
                      certificate=None)
    else:
        answer, certificate, script_text = solved
        verdict = rpe_check(entry.problem, answer, entry.formal_answer)
        record["rpe"] = verdict.to_json()
        record["outcome"] = "solved" if verdict.equivalent else "neSubmitted"
        record["script"] = script_text
        record["certificate"] = certificate
    record["proven"] = _prove_ground_truth(entry, solver, cfg)
    record["stats"] = stats
    return record


# ---------------------------------------------------------------------------
# Aggregation


def aggregate_metrics(records: list[dict]) -> dict:
    scored = [r for r in records if r["outcome"] != "skipped"]
    n = len(scored)
    counts = {
        "entries": len(records),
        "scored": n,
        "solved": sum(1 for r in scored if r["outcome"] == "solved"),
        "neSubmitted": sum(1 for r in scored
                           if r["outcome"] == "neSubmitted"),
        "unsolved": sum(1 for r in scored if r["outcome"] == "unsolved"),
        "proven": sum(1 for r in scored if r.get("proven")),
    }
    if n == 0:
        rates = {"solved": 0.0, "proven": 0.0, "neSubmitted": 0.0,
                 "empty": True}
    else:
        rates = {
            "solved": counts["solved"] / n,
            "proven": counts["proven"] / n,
            "neSubmitted": counts["neSubmitted"] / n,
        }
    for r in scored:
        assert (r["outcome"] == "solved") + (r["outcome"] == "neSubmitted") \
            + (r["outcome"] == "unsolved") == 1
    return {"counts": counts, "rates": rates}


def run_benchmark(entries: list[BenchmarkEntry], solver: str = "script",
                  cfg: SearchConfig = SearchConfig()) -> dict:
    """Evaluate every entry, in order, and assemble the report."""
    records = [evaluate_entry(e, solver, cfg) for e in entries]
    report = {
        "header": {
            "format_version": "1",
            "solver": solver,
            "k": cfg.budget,
            "s": cfg.width,
            "denominator": "all entries except parse-only",
        },
        "perEntry": records,
        "aggregate": aggregate_metrics(records),
    }
    return report


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
