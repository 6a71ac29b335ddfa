"""Command-line surface and the interactive session loop."""

import argparse
import contextlib
import copy
import io
import json
import runpy
import sys
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from holebox.bench import BenchmarkEntry, evaluate_entry
from holebox.cli import build_parser, cli_main, main, repl_session
from holebox.fps import replay_check
from holebox.syntax import (
    MAX_DEPTH, parse_problem, parse_script, parse_term,
)
from holebox.tactics.rewrite import default_library, set_default_library
from test_parser_reference import operator_texts, token_texts
from test_search import ECHO_POLICY
from test_syntax import UNLISTED_DOCS


def data_path(name):
    return str(resources.files("holebox.data") / name)


def problem_path(name):
    return str(resources.files("holebox.data") / "problems" / name)


def test_rpe_check_equivalent(capsys):
    code = cli_main(["rpe-check", problem_path("rationals.json"),
                     "--a", "364000", "--b", "3.64 * 10^5"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["equivalent"] is True and out["by"] == "rfl"


def test_rpe_check_inequivalent_exits_one(capsys):
    code = cli_main(["rpe-check", problem_path("rationals.json"),
                     "--a", "0.4667", "--b", "7/15"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["equivalent"] is False


def test_solve_with_script(tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_text("format_version: 1\nlinear_arith\n")
    code = cli_main(["solve", problem_path("nickels.json"),
                     "--script", str(script)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["answer"] == "7"
    assert out["certificate"]["forward"] and out["certificate"]["backward"]


@pytest.mark.parametrize("closer", ["rfl", "auto", "ring_nf"])
def test_script_naming_an_assigned_hole_certifies(tmp_path, capsys, closer):
    # `have` states `?w = 7` after `?w` is filled: the new goal is
    # `7 = 7`, so the closer's certificate holds no hole, and the
    # statement recheck reads `?w` as the answer
    script = tmp_path / "s.txt"
    script.write_text(f"@goal w exact 7\nhave hx : ?w = 7\n{closer}\n"
                      "linear_arith\n")
    code = cli_main(["solve", problem_path("nickels.json"),
                     "--script", str(script)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["answer"] == "7"
    assert out["certificate"]["forward"] and out["certificate"]["backward"]


@pytest.mark.parametrize("lines", [
    ["have hr : forall (k : Int), k = k", "intro k", "rfl",
     "have hx : 7 = 7", "exact hr ?w"],
    ["have hr : forall (k : Int), k = n + (k - n)", "intro k",
     "linear_arith", "rewrite hr ?w"],
])
def test_hypothesis_argument_naming_an_assigned_hole_certifies(
        tmp_path, capsys, lines):
    # `?w` is read as its value where the argument is elaborated, so the
    # instance `exact` stores and the rule `rewrite` applies hold `7`
    script = tmp_path / "s.txt"
    script.write_text("\n".join(["@goal w exact 7", *lines, "linear_arith"])
                      + "\n")
    code = cli_main(["solve", problem_path("nickels.json"),
                     "--script", str(script)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["answer"] == "7"
    assert out["certificate"]["forward"] and out["certificate"]["backward"]


# a proof of P(7) for nickels whose `have` names the answer hole
NAMES_THE_HOLE = ["have hx : ?w = 7", "rfl", "linear_arith"]


def test_bench_entry_whose_script_names_the_hole_is_proven(tmp_path, capsys):
    # the proven flag reads `?w` as the ground truth, as certification's
    # statement recheck does
    doc = json.loads(open(problem_path("nickels.json"), "rb").read())
    entry = {"id": "nickels", "informalProblem": doc["informal"],
             "informalAnswer": "7", "formalProblem": doc,
             "formalAnswer": "7", "script": ["@goal w exact 7",
                                             *NAMES_THE_HOLE]}
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(entry) + "\n")
    code = cli_main(["bench", "run", str(corpus)])
    rec = json.loads(capsys.readouterr().out)["perEntry"][0]
    assert code == 0
    assert rec["outcome"] == "solved" and rec["proven"] is True


@pytest.mark.parametrize("lines, code, want", [
    (NAMES_THE_HOLE, 0, "proven"),
    (["have hx : 1 = 1"], 1, "not proven: script left open goals"),
    (["linear_arith", "rfl"], 1, "not proven: line 2: rfl: no goals"),
], ids=["names-the-hole", "open-goals", "failed-line"])
def test_prove_script_verdict(tmp_path, capsys, lines, code, want):
    # a failure names a line only when a line failed
    script = tmp_path / "s.txt"
    script.write_text("\n".join(lines) + "\n")
    argv = ["prove", problem_path("nickels.json"), "--answer", "7",
            "--script", str(script)]
    assert cli_main(argv) == code
    out = capsys.readouterr()
    assert out.err == "" and out.out.strip() == want


# `forall y, (sum x in S, x + y) = (sum x in S, x + x) + a` is false at
# n = 0, y = 1.  After `intro x` the two sums differ only in what their
# `x` names; printed with the binder capturing the free `x`, they read
# alike, and linear_arith, which names its atoms by their text, "proved"
# the goal.
CAPTURE = {
    "format_version": "1", "framework": "fps", "vars": [["n", "Int"]],
    "queriable": ["a", "Int"], "hypotheses": [],
    "conclusions": ["forall (y : Int), (sum x in {k : Int | 0 <= k /\\ "
                    "k <= n}, x + y) = (sum x in {k : Int | 0 <= k /\\ "
                    "k <= n}, x + x) + a"]}


@pytest.mark.parametrize("command, lines", [
    (["solve"], ["@goal w exact 0", "intro x", "linear_arith"]),
    (["prove", "--answer", "0"], ["intro x", "linear_arith"]),
], ids=["solve", "prove"])
def test_a_captured_binder_proves_nothing(tmp_path, capsys, command, lines):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(CAPTURE))
    script = tmp_path / "s.txt"
    script.write_text("\n".join(lines) + "\n")
    argv = [command[0], str(problem)] + command[1:] + ["--script",
                                                       str(script)]
    assert cli_main(argv) == 1
    out = capsys.readouterr()
    assert out.err == "" and "system is feasible" in out.out


def _script_entry(name, answer, lines):
    problem = parse_problem(open(problem_path(name), "rb").read())
    truth = parse_term(answer, problem.telescope(), problem.queriable[1])
    return BenchmarkEntry(name, "", answer, problem, truth,
                          parse_script(lines))


@pytest.mark.parametrize("line", ["auto abc", "rw_search 1e9",
                                  "eval_decide x", "rewrite h2 @ x"])
def test_non_integer_tactic_argument_rejected(tmp_path, capsys, line):
    script = tmp_path / "s.txt"
    script.write_text(f"format_version: 1\n{line}\n")
    code = cli_main(["solve", problem_path("nickels.json"),
                     "--script", str(script)])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert len(out) == 1 and out[0].startswith("rejected at line 2")
    rec = evaluate_entry(_script_entry("nickels.json", "7", [line]),
                         solver="script")
    assert rec["outcome"] == "unsolved"
    assert "error" in rec["stats"]


DFPS_FORWARD_ONLY = [
    "@goal h.mp have hans : t = 7",
    "@goal h.mp.hans linear_arith",
    "@goal h.mp exact hans",
]


def test_dfps_forward_only_script_accepted(tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_text("format_version: 1\n" + "\n".join(DFPS_FORWARD_ONLY))
    code = cli_main(["solve", problem_path("nickels_deductive.json"),
                     "--script", str(script)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["answer"] == "t = 7"
    assert out["certificate"]["backward"] is False
    assert out["certificate"]["earlyExit"] is True
    rec = evaluate_entry(
        _script_entry("nickels_deductive.json", "t = 7", DFPS_FORWARD_ONLY),
        solver="script")
    assert rec["outcome"] == "solved"
    assert rec["certificate"]["earlyExit"] is True


def test_solve_with_builtin_search(capsys):
    code = cli_main(["solve", problem_path("nickels.json"),
                     "--k", "200", "--s", "8"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["status"] == "solved" and out["answer"] == "7"


def test_solve_unsolvable_exits_one(tmp_path, capsys):
    doc = {"format_version": "1", "framework": "fps",
           "vars": [["x", "Real"]], "queriable": ["a", "Real"],
           "hypotheses": [], "conclusions": ["a = sqrt x"]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    code = cli_main(["solve", str(path), "--k", "10"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["status"] == "exhausted"


def test_prove_answer(capsys):
    code = cli_main(["prove", problem_path("fermat_counterexample.json"),
                     "--answer", "5"])
    assert code == 0
    assert "proven" in capsys.readouterr().out


def test_unknown_flag_exits_two(capsys):
    assert cli_main(["solve", "--bogus"]) == 2


@pytest.mark.parametrize("argv", [
    ["rpe-check", problem_path("nickels.json"), "--a", "x", "--b", "->"],
    ["solve"], ["bench", "run"], ["bench"], ["solve", "p.json", "--k", "q"],
    ["solve", problem_path("nickels.json"), "--policy", "ext"],
])
def test_usage_error_is_one_line(capsys, argv):
    # argparse's usage block is not printed, only the error line
    assert cli_main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", [
    ["solve", problem_path("nickels.json")],
    ["prove", problem_path("nickels.json"), "--answer", "7"],
    ["bench", "run", data_path("corpus.jsonl")],
], ids=["solve", "prove", "bench-run"])
@pytest.mark.parametrize("option", [["--s", "0"], ["--s", "-3"],
                                    ["--k", "-1"]],
                         ids=["s-zero", "s-negative", "k-negative"])
def test_a_search_option_out_of_range_is_a_usage_error(capsys, command,
                                                       option):
    # the width must be at least 1 and the budget at least 0
    assert cli_main(command + option) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: argument " + option[0])
    assert len(err.splitlines()) == 1


def test_help_still_prints_usage(capsys):
    assert cli_main(["solve", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: holebox solve")


def test_missing_file_exits_two(capsys):
    assert cli_main(["solve", "/nonexistent/p.json"]) == 2


@pytest.mark.parametrize("doc", UNLISTED_DOCS,
                         ids=["hypothesis", "conclusions", "vars"])
def test_a_list_field_given_as_text_exits_two(tmp_path, capsys, doc):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(doc))
    assert cli_main(["solve", str(problem), "--k", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_solve_with_an_external_policy(capsys):
    code = cli_main(["solve", problem_path("nickels.json"), "--policy", "ext",
                     "--k", "50", "--s", "4",
                     "--cmd", sys.executable, "-c", ECHO_POLICY])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["status"] == "solved" and out["answer"] == "7"


def test_prove_by_search_of_a_wrong_answer_exits_one(capsys):
    code = cli_main(["prove", problem_path("rationals.json"), "--answer", "1",
                     "--k", "5"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["status"] == "not proven"


def test_repl_command_reads_standard_input(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("@goal w exact 7\nquit\n"))
    assert cli_main(["repl", problem_path("nickels.json")]) == 0
    out = capsys.readouterr().out
    assert out.count("> ") == 2 and "?w := 7" in out


@pytest.mark.parametrize("text", [None, "no colon here\n",
                                  "format_version: 2\n"],
                         ids=["missing", "malformed", "version"])
def test_a_bad_lemma_file_exits_two(tmp_path, capsys, text):
    path = tmp_path / "lemmas.txt"
    if text is not None:
        path.write_text(text)
    code = cli_main(["rpe-check", problem_path("rationals.json"),
                     "--a", "1", "--b", "1", "--lemmas", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_main_exits_with_the_commands_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [
        "holebox", "rpe-check", problem_path("rationals.json"),
        "--a", "11/12", "--b", "3/4 + 1/6"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    # `python -m holebox.cli` runs the same; runpy warns that the module
    # is imported already
    with pytest.warns(RuntimeWarning, match="found in sys.modules"), \
            pytest.raises(SystemExit) as exc:
        runpy.run_module("holebox.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.count('"equivalent": true') == 2


def test_bench_run(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = cli_main(["bench", "run", data_path("corpus.jsonl"),
                     "--out", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["aggregate"]["rates"]["solved"] == 1.0


def test_repl_nickels_session():
    problem = parse_problem(
        open(problem_path("nickels.json"), "rb").read())
    lines = io.StringIO(
        "@goal w exact 7\n"
        "linear_arith\n"
        "extract\n"
        "quit\n")
    out = io.StringIO()
    code = repl_session(problem, lines, out)
    text = out.getvalue()
    assert code == 0
    assert "terminal state reached" in text
    assert "> 7\n" in text


def test_repl_undo_restores_state():
    problem = parse_problem(
        open(problem_path("nickels.json"), "rb").read())
    lines = io.StringIO("@goal w exact 7\nundo\nquit\n")
    out = io.StringIO()
    repl_session(problem, lines, out)
    text = out.getvalue()
    # after undo the initial rendering is shown again
    first_render = text.split("> ")[0]
    assert text.count(first_render) >= 2


def test_repl_bad_tactic_keeps_state():
    problem = parse_problem(
        open(problem_path("nickels.json"), "rb").read())
    lines = io.StringIO("rfl\nquit\n")
    out = io.StringIO()
    repl_session(problem, lines, out)
    assert "error:" in out.getvalue()


def test_lemmas_flag_overrides_library(tmp_path, capsys):
    # an empty library removes the sqrt bridge, flipping the verdict
    lemmas = tmp_path / "empty.txt"
    lemmas.write_text("format_version: 1\n")
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({
        "format_version": "1", "framework": "fps",
        "vars": [["n", "Real"]], "queriable": ["a", "Real"],
        "hypotheses": [], "conclusions": ["a = a"]}))
    try:
        code = cli_main(["rpe-check", str(problem),
                         "--a", "(1 + sqrt (1 + 8*n)) / 2",
                         "--b", "(1 + (1 + 8*n)^(1/2)) / 2",
                         "--lemmas", str(lemmas)])
        assert code == 1
    finally:
        import holebox.tactics.rewrite as rw
        rw._DEFAULT_LIBRARY = None   # restore the bundled library


@pytest.mark.parametrize("term, message", [
    ("(" * 3000 + "1" + ")" * 3000, "nesting deeper than"),
    ("not " * 3000 + "True", "nesting deeper than"),
    ("7" * 5000, "numeral longer than"),
    ("y", "unknown identifier"),
    ("2\u00b2", "unexpected character"),
], ids=["nested-parens", "nested-not", "long-numeral", "unknown-name",
        "superscript-digit"])
def test_rpe_check_malformed_answer_exits_two(capsys, term, message):
    code = cli_main(["rpe-check", problem_path("rationals.json"),
                     "--a", term, "--b", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert message in err


@pytest.mark.parametrize("term", [
    "+".join(["1"] * 400),
    "*".join(["1"] * (MAX_DEPTH + 1)),
    "forall (" + " ".join(f"v{i}" for i in range(400)) + " : Int), True",
], ids=["sum-of-400", "product-over-the-bound", "400-bound-names"])
def test_rpe_check_too_deep_answer_exits_two(capsys, term):
    # left-associative chains are parsed by loops, not recursion, so
    # their depth is bounded apart from the nesting limit
    code = cli_main(["rpe-check", problem_path("rationals.json"),
                     "--a", term, "--b", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"deeper than {MAX_DEPTH} levels" in err


def test_rpe_check_chain_at_the_depth_bound_gets_a_verdict(tmp_path, capsys):
    code = cli_main(["rpe-check", problem_path("rationals.json"),
                     "--a", "+".join(["1"] * MAX_DEPTH), "--b", "1"])
    out = capsys.readouterr()
    assert code == 1 and out.err == ""
    assert json.loads(out.out)["equivalent"] is False
    # an open chain does not fold, so the whole stack runs on it
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({
        "format_version": "1", "framework": "fps", "vars": [["n", "Int"]],
        "queriable": ["a", "Int"], "hypotheses": [],
        "conclusions": ["a = n"]}))
    for b, code_want in (("n", 1), ("n * " + str(MAX_DEPTH), 0)):
        code = cli_main(["rpe-check", str(problem),
                         "--a", "+".join(["n"] * MAX_DEPTH), "--b", b])
        out = capsys.readouterr()
        assert code == code_want and out.err == ""


def test_answer_at_the_depth_bound_proves_and_replays(tmp_path, capsys):
    # the statement with the answer substituted is deeper than the
    # bound; recheck checks that goal as the certificates carry it
    doc = {"format_version": "1", "framework": "fps",
           "vars": [["n", "Int"]], "queriable": ["a", "Int"],
           "hypotheses": [], "conclusions": [f"a = n * {MAX_DEPTH}"]}
    problem_file = tmp_path / "p.json"
    problem_file.write_text(json.dumps(doc))
    chain = " + ".join(["n"] * MAX_DEPTH)
    code = cli_main(["prove", str(problem_file), "--answer", chain])
    assert code == 0 and capsys.readouterr().out.strip() == "proven"
    problem = parse_problem(json.dumps(doc))
    script = parse_script([f"@goal w exact {chain}", "ring_nf"])
    assert replay_check(problem, script).accepted
    truth = parse_term(chain, problem.telescope(), problem.queriable[1])
    rec = evaluate_entry(BenchmarkEntry("deep", "", chain, problem, truth,
                                        script), solver="script")
    assert rec["outcome"] == "solved" and rec["proven"] is True


@pytest.mark.parametrize("line", [
    "rewrite ((", "rewrite h2 $", "exact h2 (",
    "rewrite h2 (" + "+".join(["1"] * 400) + ")", "exact 5",
], ids=["open-brackets", "bad-character", "open-argument", "deep-argument",
        "numeral"])
def test_malformed_citation_rejected(tmp_path, capsys, line):
    script = tmp_path / "s.txt"
    script.write_text(f"format_version: 1\n{line}\n")
    code = cli_main(["solve", problem_path("nickels.json"),
                     "--script", str(script)])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert len(out) == 1 and out[0].startswith("rejected at line 2")
    assert "cannot cite" in out[0]


@pytest.mark.parametrize("line, message", [
    ("exact", "exact needs an argument"),
    ("exact h2 7", "more arguments than leading quantifiers"),
    ("have 1x : True", "bad hypothesis name '1x'"),
    ("have hx : y = 1", "have: unknown identifier 'y'"),
    ("and_split", "and_split needs a conjunction goal"),
    ("int_cases h2", "no variable named 'h2'"),
    ("int_cases n", "cannot split while an unfilled hole depends on 'n'"),
    ("rewrite h2 @", "`@` needs an occurrence number"),
    ("@goal w rewrite h2", "rewrite does not apply to a hole goal"),
    ("@goal w rw_search", "rw_search does not apply to a hole goal"),
    ("@goal w auto", "auto does not apply to a hole goal"),
    ("@goal w ring_nf", "ring_nf does not apply to a hole goal"),
    ("rfl junk", "rfl takes no argument, got 'junk'"),
    ("linear_arith 3", "linear_arith takes no argument, got '3'"),
])
def test_a_line_the_tactic_refuses_rejects_the_script(tmp_path, capsys, line,
                                                      message):
    script = tmp_path / "s.txt"
    script.write_text(f"format_version: 1\n{line}\n")
    code = cli_main(["solve", problem_path("nickels.json"),
                     "--script", str(script)])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert len(out) == 1 and out[0].startswith("rejected at line 2: ")
    assert message in out[0]


@pytest.mark.parametrize("term", ["2^4096^4096", "10^3000 * 10^3000"])
def test_rpe_check_oversized_arithmetic_gets_a_verdict(capsys, term):
    # the closed arithmetic is too large to fold into one printable
    # literal, so it stays unfolded and is compared as it is
    code = cli_main(["rpe-check", problem_path("rationals.json"),
                     "--a", term, "--b", "1"])
    out = capsys.readouterr()
    assert code == 1 and out.err == ""
    assert json.loads(out.out)["equivalent"] is False


@pytest.mark.parametrize("tactic", ["eval_decide", "linear_arith"])
def test_oversized_hole_value_rejected(tmp_path, capsys, tactic):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({
        "format_version": "1", "framework": "fps", "vars": [],
        "queriable": ["a", "Int"], "hypotheses": [],
        "conclusions": ["a = 10^3000 * 10^3000"]}))
    script = tmp_path / "s.txt"
    script.write_text(f"format_version: 1\n{tactic}\n")
    code = cli_main(["solve", str(problem), "--script", str(script)])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert len(out) == 1 and out[0].startswith("rejected at line 2")
    assert "value of more than" in out[0]


def test_prove_with_a_nat_subtraction_lemma(tmp_path, capsys):
    # the statement's literals are Int and the lemma's are Nat; each
    # certificate is checked on the goal term itself, so no literal
    # changes sort on the way
    script = tmp_path / "s.txt"
    script.write_text("format_version: 1\n"
                      "have h9 : (1 : Nat) - 2 = 0\n"
                      "@goal h.h9 eval_decide\n"
                      "linear_arith\n")
    code = cli_main(["prove", problem_path("nickels.json"), "--answer", "7",
                     "--script", str(script)])
    out = capsys.readouterr()
    assert code == 0 and out.err == ""
    assert out.out.strip() == "proven"


@pytest.fixture
def certificates_rejected(monkeypatch):
    """Every revalidator rejects every certificate."""
    from holebox import kernel
    from holebox.kernel import CertificateError

    def reject(cert):
        raise CertificateError(f"{cert.tactic} certificate rejected")

    for kind in list(kernel.CHECKS):
        monkeypatch.setitem(kernel.CHECKS, kind, reject)


@pytest.mark.parametrize("command, prefix", [
    (["solve"], "rejected: "),
    (["solve", "--script"], "rejected at line 2: "),
    (["prove", "--answer", "7"], "not proven: "),
    (["prove", "--answer", "7", "--script"], "not proven: "),
], ids=["solve-search", "solve-script", "prove-search", "prove-script"])
def test_rejected_certificate_exits_one(tmp_path, capsys,
                                        certificates_rejected, command,
                                        prefix):
    script = tmp_path / "s.txt"
    script.write_text("format_version: 1\nlinear_arith\n")
    argv = [command[0], problem_path("nickels.json")] + command[1:]
    if argv[-1] == "--script":
        argv.append(str(script))
    code = cli_main(argv)
    out = capsys.readouterr()
    assert code == 1 and out.err == ""
    lines = out.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix)
    assert "certificate rejected" in lines[0]


@pytest.mark.parametrize("solver", ["script", "search"])
def test_rejected_certificate_is_the_entrys_error(certificates_rejected,
                                                  solver):
    rec = evaluate_entry(_script_entry("nickels.json", "7", ["linear_arith"]),
                         solver=solver)
    assert rec["outcome"] == "unsolved"
    assert "certificate rejected" in rec["stats"]["error"]
    assert rec["proven"] is False


# -- the entry points under random scripts ----------------------------------

FUZZ_GOALS = ["", "@goal w ", "@goal h ", "@goal h.hx ", "@goal zz "]
FUZZ_TACTICS = ["intro", "iff_split", "exists_intro", "exact", "rfl",
                "cases", "eval_decide", "ring_nf", "linear_arith",
                "rw_search", "auto", "have", "rewrite", "frob"]
FUZZ_ARGS = ["", "7", "?w", "?u", "k", "h2", "h3", "h2 ?w", "<- h2",
             "h2 @ 2", "hr ?w", "hx", "hx : ?w = 7", "hx : ?w = ?w",
             "hr : forall (k : Int), k = n + (k - n)", "1e9", "(", "2"]
FUZZ_ANSWERS = ["7", "n", "d + 1", "?w", "7 +", "(", "1/2"]


@settings(max_examples=120, deadline=None, derandomize=True)
@example(command="solve", answer="7",
         lines=["@goal w exact 7", *NAMES_THE_HOLE])
@example(command="prove", answer="7", lines=NAMES_THE_HOLE)
@given(command=st.sampled_from(["prove", "solve"]),
       answer=st.sampled_from(FUZZ_ANSWERS),
       lines=st.lists(st.builds(lambda g, t, a: f"{g}{t} {a}".rstrip(),
                                st.sampled_from(FUZZ_GOALS),
                                st.sampled_from(FUZZ_TACTICS),
                                st.sampled_from(FUZZ_ARGS)),
                      max_size=5))
def test_script_entry_points_end_in_a_verdict(tmp_path_factory, command,
                                              answer, lines):
    # a random script ends in a verdict or one error line, never a
    # traceback; lines may name the answer hole
    script = tmp_path_factory.getbasetemp() / "fuzz-script.txt"
    script.write_text("\n".join(lines) + "\n")
    argv = [command, problem_path("nickels.json"), "--script", str(script)]
    if command == "prove":
        argv += ["--answer", answer]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1


# -- the other entry points under random input ------------------------------

FUZZ_PROBLEM = {"format_version": "1", "framework": "fps",
                "vars": [["x", "Int"], ["y", "Int"]],
                "queriable": ["a", "Int"], "hypotheses": [],
                "conclusions": ["a = x + y"]}
TERM_TEXTS = st.one_of(operator_texts(2), token_texts(), st.sampled_from(
    ["x + y", "y + x", "2 * x", "x ^ 2 ^ 3", "(x + y) / 1", "x - -y"]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=TERM_TEXTS, b=TERM_TEXTS)
def test_rpe_check_ends_in_a_verdict(tmp_path_factory, a, b):
    # random answer texts end in a verdict or one error line
    problem = tmp_path_factory.getbasetemp() / "fuzz-rpe.json"
    problem.write_text(json.dumps(FUZZ_PROBLEM))
    # each text joined to its flag, and as an argv item of its own
    for flags in ([f"--a={a}", f"--b={b}"], ["--a", a, "--b", b]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli_main(["rpe-check", str(problem)] + flags)
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == ""
            assert len(err.getvalue().splitlines()) == 1
        else:
            assert json.loads(out.getvalue())["equivalent"] is (code == 0)


REPL_COMMANDS = ["undo", "extract", "", "-- note", "@goal", "@goal w"]
NICKELS = parse_problem((resources.files("holebox.data") / "problems"
                         / "nickels.json").read_bytes())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.one_of(
    st.sampled_from(REPL_COMMANDS),
    st.builds(lambda g, t, a: f"{g}{t} {a}".rstrip(),
              st.sampled_from(FUZZ_GOALS), st.sampled_from(FUZZ_TACTICS),
              st.sampled_from(FUZZ_ARGS))), max_size=6))
def test_repl_session_ends_without_an_error(lines):
    # every line is applied, reported or refused; the session ends at
    # the end of its input, at a prompt, with exit code 0
    out = io.StringIO()
    text = "".join(line + "\n" for line in lines)
    assert repl_session(NICKELS, io.StringIO(text), out) == 0
    assert out.getvalue().endswith("> ")


# -- argv drawn from the parser's own spec ----------------------------------


def _commands(parser, prefix=()):
    """(argv prefix, parser) for every subcommand that takes no further
    subcommand."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [(prefix, parser)]
    return [leaf for name, sub in subs[0].choices.items()
            for leaf in _commands(sub, prefix + (name,))]


COMMANDS = _commands(build_parser())
# `--policy ext` starts the `--cmd` process, which
# `test_solve_with_an_external_policy` covers
NOT_DRAWN = {"help", "cmd"}
NOT_DRAWN_CHOICES = {"ext"}
PATH_DESTS = {"problem", "corpus", "script", "lemmas"}
# files the test makes; `--out` names only paths under its directory
FILES = ["<missing>", "<empty>", "<nickels>", "<corpus>"]
OUTS = ["<dir>/report.json", "<dir>", ""]
JUNK = ["0", "-5", str(10 ** 40), ""]


def _typed(action):
    """A value of the option's own kind: its choices, its type, a file,
    or, for `--out`, a path under the test's directory."""
    if action.dest == "out":
        return st.sampled_from(OUTS)
    if action.dest in PATH_DESTS:
        return st.sampled_from(FILES)
    if action.choices:
        return st.sampled_from(sorted(set(action.choices)
                                      - NOT_DRAWN_CHOICES))
    if action.type is float:
        return st.floats().map(str)
    if getattr(action.type, "__name__", None) == "int":
        return st.integers(-3, 10 ** 6).map(str)
    return st.sampled_from(["7", "n", "1/2", "x + 1", "("])


def _odds(draw, tenths):
    """True `tenths` times in ten."""
    return draw(st.integers(0, 9)) < tenths


@st.composite
def _argv(draw):
    prefix, parser = draw(st.sampled_from(COMMANDS))
    parts = []
    for action in parser._actions:
        if action.dest in NOT_DRAWN \
                or not _odds(draw, 9 if action.required else 3):
            continue
        pick = draw(st.integers(0, 9))
        if pick == 0:
            value = None        # the value is missing
        elif pick < 3 and action.dest != "out":
            value = draw(st.sampled_from(JUNK))
        else:
            value = draw(_typed(action))
        flag = [draw(st.sampled_from(action.option_strings))] \
            if action.option_strings else []
        parts.append(flag + ([] if value is None else [value]))
    if _odds(draw, 1):
        parts.append(["--bogus"])
    return list(prefix) + [x for part in draw(st.permutations(parts))
                           for x in part]


def _files(base):
    """What each file name the strategy draws stands for, under `base`."""
    (base / "empty.txt").write_text("")
    corpus = (resources.files("holebox.data") / "corpus.jsonl").read_text()
    (base / "one.jsonl").write_text(corpus.splitlines()[0] + "\n")
    return {"<missing>": str(base / "missing.json"),
            "<empty>": str(base / "empty.txt"),
            "<nickels>": problem_path("nickels.json"),
            "<corpus>": str(base / "one.jsonl"), "<dir>": str(base)}


@settings(max_examples=200, deadline=None, derandomize=True)
@example(["bench", "run", "<corpus>", "--solver", "search", "--k",
          str(10 ** 40), "--s", str(10 ** 40), "--out", "<dir>/report.json"])
@example(["prove", "<nickels>", "--answer", "7", "--k", "0"])
@example(["rpe-check", "<nickels>", "--a", "7", "--b", "x + 1"])
@example(["solve", "<nickels>", "--script", "<empty>", "--policy-timeout",
          "nan"])
@example(["repl", "<nickels>"])
@given(_argv())
def test_argv_drawn_from_the_parser_ends_in_a_verdict(tmp_path_factory,
                                                      argv):
    # any argv the parser's own actions describe, with values of each
    # option's kind or not, ends in a verdict or one error line, never
    # a traceback
    base = tmp_path_factory.getbasetemp() / "fuzz-argv"
    base.mkdir(exist_ok=True)
    files = _files(base)
    argv = [files.get(x, x).replace("<dir>", str(base)) for x in argv]
    library, stdin = default_library(), sys.stdin
    out, err = io.StringIO(), io.StringIO()
    try:
        sys.stdin = io.StringIO("")     # `repl` reads its lines there
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli_main(argv)
    finally:
        sys.stdin = stdin
        set_default_library(library)
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1


# -- problem files mutated field by field ------------------------------------

PROBLEMS = resources.files("holebox.data") / "problems"
PROBLEM_DOCS = [json.loads(p.read_text()) for p in
                sorted(PROBLEMS.iterdir(), key=lambda p: p.name)
                if p.name.endswith(".json")]
OTHER_TYPES = [None, 0, -1, 2.5, True, "", [], {}, [[]], ["x"],
               [["x", "Int", "Int"]], {"x": "Int"}]
LONG_TEXTS = ["x" * 5000, "(" * 3000 + "x" + ")" * 3000,
              " + ".join(["x"] * 2000), "{" * 500, "Set " * 500 + "Int"]
NAME_SLOTS = [("vars", 0, 0), ("vars", 1, 0), ("queriable", 0),
              ("hypotheses", 0, 0), ("hypotheses", 1, 0)]


def _paths(value, path=()):
    """The path of `value` and of every value inside it."""
    yield path
    items = value.items() if isinstance(value, dict) \
        else enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield from _paths(inner, path + (key,))


def _at(doc, path):
    """The value at `path` in `doc`, or None when there is none."""
    for key in path:
        try:
            doc = doc[key] if isinstance(doc, (dict, list)) else None
        except (KeyError, IndexError, TypeError):
            return None
    return doc


def _put(doc, path, value):
    """`doc` with the value at the non-empty `path` replaced, or dropped
    when `value` is `_put`."""
    parent = _at(doc, path[:-1])
    if value is _put:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def _mutated_problem(draw):
    """A bundled problem document with one to three of its fields
    dropped, retyped, given an empty, very long or token-drawn text, a
    name repeated, or the other framework."""
    doc = copy.deepcopy(draw(st.sampled_from(PROBLEM_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "retype", "text", "repeat",
                                     "framework"]))
        if not isinstance(doc, dict):
            break
        paths = list(_paths(doc))
        if kind == "framework":
            doc["framework"] = "fps" \
                if doc.get("framework") == "dfps" else "dfps"
        elif kind == "repeat":
            names = [_at(doc, s) for s in NAME_SLOTS
                     if isinstance(_at(doc, s), str)]
            slots = [s for s in NAME_SLOTS if _at(doc, s) is not None]
            if names and slots:
                _put(doc, draw(st.sampled_from(slots)),
                     draw(st.sampled_from(names)))
        elif kind == "drop":
            if len(paths) > 1:
                _put(doc, draw(st.sampled_from(paths[1:])), _put)
        else:
            value = copy.deepcopy(draw(st.sampled_from(OTHER_TYPES))) \
                if kind == "retype" else draw(st.one_of(
                    st.sampled_from(LONG_TEXTS), token_texts(),
                    operator_texts(2)))
            path = draw(st.sampled_from(paths))
            doc = _put(doc, path, value) if path else value
    return doc


NICKELS_DOC = json.loads((PROBLEMS / "nickels.json").read_text())


@settings(max_examples=150, deadline=None, derandomize=True)
@example(dict(NICKELS_DOC, hypotheses=None))
@example(dict(NICKELS_DOC, hypotheses=[[[], "d >= 0"]]))
@example(dict(NICKELS_DOC, queriable=[{}, "Int"], answer=7))
@example(dict(NICKELS_DOC, vars=[["d", 0]], conclusions=[True]))
@example(dict(NICKELS_DOC, hypotheses=[["h\n0", "z >= 0"]]))
@given(_mutated_problem())
def test_mutated_problem_files_end_in_a_verdict(tmp_path_factory, doc):
    # every entry point that reads a problem file ends a mutated one in
    # a verdict or one error line, never a traceback
    problem = tmp_path_factory.getbasetemp() / "fuzz-problem.json"
    problem.write_text(json.dumps(doc))
    for argv in (["solve", str(problem), "--k", "0"],
                 ["prove", str(problem), "--answer", "0", "--k", "0"],
                 ["rpe-check", str(problem), "--a", "0", "--b", "0"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli_main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in out.getvalue() + err.getvalue()
        if code == 2:
            assert out.getvalue() == ""
            assert len(err.getvalue().splitlines()) == 1
