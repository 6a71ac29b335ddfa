"""Benchmark loading, outcomes, aggregation, and report determinism."""

import json
from dataclasses import replace

import pytest

from holebox.bench import (
    BenchmarkLoadError, aggregate_metrics, evaluate_entry, load_benchmark,
    report_json, run_benchmark,
)
from holebox.expr import RAT, mk_lit


def test_bundled_corpus_loads(corpus):
    assert len(corpus) >= 12
    ids = [e.id for e in corpus]
    assert len(set(ids)) == len(ids)
    assert sum(e.expected == "parse-only" for e in corpus) == 2
    with_scripts = [e for e in corpus if e.script is not None]
    assert len(with_scripts) >= 12


def test_missing_field_reports_line(tmp_path):
    good = {"id": "g", "informalProblem": "p", "informalAnswer": "1",
            "formalProblem": {
                "format_version": "1", "framework": "fps", "vars": [],
                "queriable": ["a", "Int"], "hypotheses": [],
                "conclusions": ["a = 1"]},
            "formalAnswer": "1"}
    bad = dict(good)
    del bad["formalAnswer"]
    path = tmp_path / "b.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(BenchmarkLoadError) as exc:
        load_benchmark(str(path))
    assert exc.value.errors[0][0] == 2


GOOD_ENTRY = {"id": "g", "informalProblem": "p", "informalAnswer": "1",
              "formalProblem": {
                  "format_version": "1", "framework": "fps", "vars": [],
                  "queriable": ["a", "Int"], "hypotheses": [],
                  "conclusions": ["a = 1"]},
              "formalAnswer": "1"}


def test_every_bad_line_is_reported(tmp_path):
    # an ill-sorted answer and a repeated declaration name are errors of
    # their lines, like invalid JSON or an unknown marker; a blank line
    # is skipped
    repeated = json.loads(json.dumps(GOOD_ENTRY))
    repeated["formalProblem"]["hypotheses"] = [["h", "1 = 1"],
                                               ["h", "2 = 2"]]
    lines = [json.dumps(dict(GOOD_ENTRY, formalAnswer="1 = 1")),
             json.dumps(repeated), "{", "",
             json.dumps(dict(GOOD_ENTRY, expected="maybe")),
             json.dumps(GOOD_ENTRY)]
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(BenchmarkLoadError) as exc:
        load_benchmark(str(path))
    assert [(n, m.split(":")[0]) for n, m in exc.value.errors] == [
        (1, "comparison where Int expected"),
        (2, "duplicate declaration 'h'"),
        (3, "invalid JSON"),
        (5, "unknown expected marker 'maybe'")]


def test_an_entry_without_a_script_is_unsolved(tmp_path):
    # built in code, an entry's answer need not fit the problem: it is
    # then not proven, not an error
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(GOOD_ENTRY) + "\n")
    entry = replace(load_benchmark(str(path))[0],
                    formal_answer=mk_lit(1, RAT))
    rec = evaluate_entry(entry, solver="script")
    assert rec["outcome"] == "unsolved"
    assert rec["stats"] == {"error": "no reference script"}
    assert rec["proven"] is False


def test_empty_file_is_empty_list(tmp_path):
    path = tmp_path / "e.jsonl"
    path.write_text("")
    assert load_benchmark(str(path)) == []


def test_outcome_partition_and_rates(corpus):
    report = run_benchmark(corpus, solver="script")
    agg = report["aggregate"]
    assert agg["rates"]["solved"] == 1.0
    assert agg["rates"]["proven"] == 1.0
    assert agg["rates"]["neSubmitted"] == 0.0
    counts = agg["counts"]
    assert counts["solved"] + counts["neSubmitted"] + counts["unsolved"] \
        == counts["scored"]
    assert counts["entries"] - counts["scored"] == 2   # parse-only pair


def test_aggregate_empty():
    agg = aggregate_metrics([])
    assert agg["rates"]["empty"] is True


def test_report_byte_identical_across_runs(corpus):
    r1 = report_json(run_benchmark(corpus, solver="script"))
    r2 = report_json(run_benchmark(corpus, solver="script"))
    assert r1 == r2


def test_ne_submitted_on_wrong_answer(corpus, tmp_path):
    # perturb a reference answer so the certified answer stops matching
    entry = next(e for e in corpus if e.id == "nickels")
    doc = {
        "id": "nickels_wrong", "informalProblem": "x", "informalAnswer": "8",
        "formalProblem": {
            "format_version": "1", "framework": "fps",
            "vars": [["d", "Int"], ["n", "Int"]], "queriable": ["a", "Int"],
            "hypotheses": [["h0", "d >= 0"], ["h1", "n >= 0"],
                           ["h2", "d + n = 11"], ["h3", "10*d + 5*n = 75"]],
            "conclusions": ["n = a"]},
        "formalAnswer": "8",
        "script": ["linear_arith"],
    }
    path = tmp_path / "w.jsonl"
    path.write_text(json.dumps(doc) + "\n")
    entries = load_benchmark(str(path))
    rec = evaluate_entry(entries[0], solver="script")
    assert rec["outcome"] == "neSubmitted"
    assert rec["proven"] is False   # the wrong ground truth is unprovable


def test_unsolved_when_script_fails(tmp_path):
    doc = {
        "id": "fail", "informalProblem": "x", "informalAnswer": "1",
        "formalProblem": {
            "format_version": "1", "framework": "fps", "vars": [],
            "queriable": ["a", "Int"], "hypotheses": [],
            "conclusions": ["a = 1"]},
        "formalAnswer": "1",
        "script": ["rfl"],
    }
    path = tmp_path / "f.jsonl"
    path.write_text(json.dumps(doc) + "\n")
    entries = load_benchmark(str(path))
    rec = evaluate_entry(entries[0], solver="script")
    assert rec["outcome"] == "unsolved"
    # proven is evaluated independently of solving
    assert rec["proven"] is True


def test_directly_constructed_answer_is_ne_submitted(tmp_path):
    # restating the problem as a set-builder solves the session but is
    # rejected by restricted equivalence against the solved ground truth
    doc = {
        "id": "lazy", "informalProblem": "solve it", "informalAnswer": "?",
        "formalProblem": {
            "format_version": "1", "framework": "fps",
            "vars": [["x", "Int"]], "queriable": ["a", "Set Int"],
            "hypotheses": [["hlb", "-2 <= x"], ["hub", "x <= 2"]],
            "conclusions": ["x in a <-> x^2 - 1 = 0"]},
        "formalAnswer": "{-1, 1}",
        "script": ["@goal w exact {y : Int | y^2 - 1 = 0}", "rfl"],
    }
    path = tmp_path / "lazy.jsonl"
    path.write_text(json.dumps(doc) + "\n")
    rec = evaluate_entry(load_benchmark(str(path))[0], solver="script")
    assert rec["outcome"] == "neSubmitted"
    assert rec["rpe"]["equivalent"] is False


def test_aggregate_mixed_hand_count():
    records = [
        {"outcome": "solved", "proven": True},
        {"outcome": "solved", "proven": False},
        {"outcome": "neSubmitted", "proven": True},
        {"outcome": "unsolved", "proven": False},
        {"outcome": "skipped", "proven": None},
    ]
    agg = aggregate_metrics(records)
    assert agg["counts"]["scored"] == 4
    assert agg["rates"]["solved"] == 0.5
    assert agg["rates"]["neSubmitted"] == 0.25
    assert agg["rates"]["proven"] == 0.5
