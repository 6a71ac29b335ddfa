"""Command-line surface and the interactive session loop."""

import contextlib
import io
import json
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from holebox.bench import BenchmarkEntry, evaluate_entry
from holebox.cli import cli_main, repl_session
from holebox.fps import replay_check
from holebox.syntax import (
    MAX_DEPTH, parse_problem, parse_script, parse_term,
)
from test_parser_reference import operator_texts, token_texts


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


def test_help_still_prints_usage(capsys):
    assert cli_main(["solve", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: holebox solve")


def test_missing_file_exits_two(capsys):
    assert cli_main(["solve", "/nonexistent/p.json"]) == 2


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
    "rewrite h2 (" + "+".join(["1"] * 400) + ")",
], ids=["open-brackets", "bad-character", "open-argument", "deep-argument"])
def test_malformed_citation_rejected(tmp_path, capsys, line):
    script = tmp_path / "s.txt"
    script.write_text(f"format_version: 1\n{line}\n")
    code = cli_main(["solve", problem_path("nickels.json"),
                     "--script", str(script)])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert len(out) == 1 and out[0].startswith("rejected at line 2")
    assert "cannot cite" in out[0]


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
    (["solve", "--script"], "rejected: "),
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
