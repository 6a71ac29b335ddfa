"""Command-line surface: solve, prove, rpe-check, bench run, repl.

Exit codes: 0 on success, 1 when the task itself comes back negative
(unsolved within budget, answers not equivalent, rejected script), 2 on
usage or I/O errors and on malformed input (a parse, schema or
expression error).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, TextIO

from .bench import load_benchmark, report_json, run_benchmark, \
    BenchmarkLoadError
from .expr import ExprError
from .fps import Session, ScriptRejected, extract_answer, prove_by_script, \
    session_init, solve_certified
from .kernel import KernelError, apply_tactic, is_terminal, render_state
from .rpe import rpe_check
from .search import (
    ExternalPolicy, SearchConfig, best_first_search, builtin_policy,
    prove_by_search, public_stats,
)
from .syntax import ParseError, SchemaError, parse_problem, parse_script, \
    parse_term, print_term
from .tactics.rewrite import load_lemma_library, set_default_library


def _load_problem(path: str):
    with open(path, "rb") as fh:
        return parse_problem(fh.read())


def _int_at_least(least: int):
    """The `type=` of an integer option whose range starts at `least`."""
    def parse(text: str) -> int:
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}")
        return int(text)
    parse.__name__ = "int"      # argparse names it in "invalid int value"
    return parse


def _search_cfg(args) -> SearchConfig:
    return SearchConfig(width=args.s, budget=args.k)


def _policy(args):
    if args.policy == "ext":
        return ExternalPolicy(args.cmd, timeout=args.policy_timeout)
    return builtin_policy


def cmd_solve(args) -> int:
    problem = _load_problem(args.problem)
    if args.script:
        with open(args.script, "r", encoding="utf-8") as fh:
            script = parse_script(fh.read())
        try:
            answer, cert, _ = solve_certified(problem, script)
        except ScriptRejected as e:
            at = "" if e.line is None else f" at line {e.line}"
            print(f"rejected{at}: {e.reason}")
            return 1
        except KernelError as e:
            print(f"rejected: {e}")
            return 1
        print(json.dumps({"answer": print_term(answer),
                          "certificate": cert.to_json()},
                         sort_keys=True, indent=2))
        return 0
    policy = _policy(args)
    try:
        result = best_first_search(problem, policy, _search_cfg(args))
    except KernelError as e:
        print(f"rejected: {e}")
        return 1
    finally:
        if isinstance(policy, ExternalPolicy):
            policy.close()
    if result.status != "solved":
        print(json.dumps({"status": "exhausted",
                          "stats": public_stats(result.stats)},
                         sort_keys=True, indent=2))
        return 1
    print(json.dumps({
        "status": "solved",
        "answer": print_term(result.answer),
        "certificate": result.certificate,
        "script": result.script.render(),
        "stats": public_stats(result.stats),
    }, sort_keys=True, indent=2))
    return 0


def cmd_prove(args) -> int:
    problem = _load_problem(args.problem)
    answer = parse_term(args.answer, problem.telescope(),
                        problem.queriable[1])
    if args.script:
        with open(args.script, "r", encoding="utf-8") as fh:
            script = parse_script(fh.read())
        report = prove_by_script(problem, answer, script)
    else:
        report, stats = prove_by_search(problem, answer, _search_cfg(args))
        if report is None:
            print(json.dumps({"status": "not proven",
                              "stats": public_stats(stats)}, sort_keys=True))
            return 1
    if not report.accepted:
        at = "" if report.failed_line is None \
            else f"line {report.failed_line}: "
        print(f"not proven: {at}{report.reason}")
        return 1
    print("proven")
    return 0


def cmd_rpe_check(args) -> int:
    problem = _load_problem(args.problem)
    tele = problem.telescope()
    qsort = problem.queriable[1]
    a = parse_term(args.a, tele, qsort)
    b = parse_term(args.b, tele, qsort)
    verdict = rpe_check(problem, a, b)
    print(json.dumps(verdict.to_json(), sort_keys=True, indent=2))
    return 0 if verdict.equivalent else 1


def cmd_bench_run(args) -> int:
    entries = load_benchmark(args.corpus)
    report = run_benchmark(entries, solver=args.solver, cfg=_search_cfg(args))
    text = report_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    rates = report["aggregate"]["rates"]
    return 0 if rates.get("solved") == 1.0 else 1


def repl_session(problem, in_stream: TextIO, out_stream: TextIO) -> int:
    """Interactive loop over one session; `undo`, `extract`, `quit`."""
    sess = session_init(problem)
    history = [sess.state]

    def show() -> None:
        out_stream.write(render_state(history[-1]) + "\n")

    show()
    while True:
        out_stream.write("> ")
        out_stream.flush()
        line = in_stream.readline()
        if not line:
            return 0
        try:
            script = parse_script([line])
        except SchemaError as e:
            out_stream.write(f"error: {e}\n")
            continue
        if not script.lines:
            continue
        ln = script.lines[0]
        command = ln.tactic if ln.goal is None and not ln.argtext else None
        if command == "quit":
            return 0
        if command == "undo":
            if len(history) > 1:
                history.pop()
            else:
                out_stream.write("nothing to undo\n")
            show()
            continue
        if command == "extract":
            try:
                answer = extract_answer(Session(problem, history[-1]))
                out_stream.write(print_term(answer) + "\n")
            except KernelError as e:
                out_stream.write(f"error: {e}\n")
            continue
        try:
            state = apply_tactic(history[-1], ln.goal, ln.tactic, ln.argtext)
        except (KernelError, ExprError) as e:
            out_stream.write(f"error: {e}\n")
            continue
        history.append(state)
        show()
        if is_terminal(state):
            out_stream.write("-- terminal state reached\n")


def cmd_repl(args) -> int:
    problem = _load_problem(args.problem)
    return repl_session(problem, sys.stdin, sys.stdout)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `error: ...` line on stderr, exit 2;
    the subparsers `add_subparsers` makes are of the same class."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="holebox",
        description="Formal problem-solving engine: sessions, restricted "
                    "equivalence checking, best-first search, benchmarks.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_search_flags(p) -> None:
        p.add_argument("--k", type=_int_at_least(0), default=200,
                       help="search budget (nodes popped)")
        p.add_argument("--s", type=_int_at_least(1), default=8,
                       help="suggestions per expansion")

    p = sub.add_parser("solve", help="solve a problem file")
    p.add_argument("problem")
    p.add_argument("--script", help="replay a tactic script instead")
    p.add_argument("--policy", choices=("builtin", "ext"), default="builtin")
    p.add_argument("--cmd", nargs=argparse.REMAINDER,
                   help="external policy command line")
    p.add_argument("--policy-timeout", type=float, default=5.0)
    p.add_argument("--lemmas", help="override the bundled lemma library")
    add_search_flags(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("prove", help="prove the statement for an answer")
    p.add_argument("problem")
    p.add_argument("--answer", required=True)
    p.add_argument("--script")
    p.add_argument("--lemmas")
    add_search_flags(p)
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("rpe-check", help="restricted equivalence of answers")
    p.add_argument("problem")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--lemmas")
    p.set_defaults(fn=cmd_rpe_check)

    bench = sub.add_parser("bench", help="benchmark operations")
    bsub = bench.add_subparsers(dest="bench_command", required=True)
    p = bsub.add_parser("run", help="evaluate a benchmark corpus")
    p.add_argument("corpus")
    p.add_argument("--out")
    p.add_argument("--solver", choices=("script", "search"),
                   default="script")
    p.add_argument("--lemmas")
    add_search_flags(p)
    p.set_defaults(fn=cmd_bench_run)

    p = sub.add_parser("repl", help="interactive session")
    p.add_argument("problem")
    p.add_argument("--lemmas")
    p.set_defaults(fn=cmd_repl)
    return ap


def cli_main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if getattr(args, "policy", None) == "ext" and not args.cmd:
            ap.error("--policy ext needs --cmd")
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    if getattr(args, "lemmas", None):
        try:
            with open(args.lemmas, "r", encoding="utf-8") as fh:
                set_default_library(load_lemma_library(fh.read()))
        except (OSError, ParseError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    try:
        return args.fn(args)
    except (OSError, SchemaError, ParseError, ExprError,
            BenchmarkLoadError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
