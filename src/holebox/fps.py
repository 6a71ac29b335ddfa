"""Session orchestration for constructive problem-solving.

Two session protocols over the kernel, both opened by `session_init`.
A state is its goals, its assignment and its trace, and the answer hole
`?w` is the goal `w`, at the queriable's sort, until a step fills it:

* standard sessions start from one main goal `h` whose conclusion has
  the queriable replaced by the answer hole `?w`, plus the hole goal
  `w`; finishing means closing every goal, and the certificate re-proves
  the instantiated statement from scratch (soundness as an executable
  check);

* deductive sessions split the main goal into a forward case `h.mp`
  (derive the answer proposition from the body) and a backward case
  `h.mpr` (recover the body from the answer), with the answer hole at
  sort Prop.  Finishing the forward case certifies the completeness
  direction; finishing backward as well certifies soundness.  The exact
  tactic citing a hypothesis against the bare `?w` target performs the
  simultaneous fill-and-close.

Each certificate is checked once, as its step commits
(`kernel.replay_step`): a script's as it runs; a session the search
found, or one handed in, by `certify`'s replay from `session_init`,
and a proof the search found by the same replay (`run_trace`) from
`init_prove`.  On the replay a searching line (`auto`, `rw_search`,
...) replays from its certificate under its own parameters instead of
searching again and every other line runs again.

P(answer) has one prover: `prove_by_script` runs a script from
`init_prove` (`search.prove_by_search` searches).  The statement
recheck, the proven flag and `holebox prove` all use it.

`fps_to_dfps` is the find-all injection: the queriable becomes an extra
universally quantified variable and the new answer is the proposition
`a = answer`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Optional

from .expr import (
    LocalDecl, Meta, PROP, SortError, Term, Var, free_vars,
    instantiate_metas, metavars_of, mk_atom, mk_conn, substitute,
)
# `recheck` is unused here: the perfbench tracer wraps `fps.recheck`
from .kernel import (
    Goal, KernelError, ReplayReport, SolutionState, apply_tactic,
    is_terminal, replay_step, run_script, recheck, script_of_trace,
)
from .syntax import Problem, ProofScript, ScriptLine, print_term

ANSWER_HOLE = "w"
FORWARD_HYP = "h_p_1"
BACKWARD_HYP = "h_a"


class SessionError(KernelError):
    pass


class NotFinished(SessionError):
    pass


class DependsOnNonV(SessionError):
    pass


class CertifyFailed(SessionError):
    pass


class ScriptRejected(SessionError):
    """A solving script failed at a line or left no answer to extract."""

    def __init__(self, line: Optional[int], reason: str):
        super().__init__(reason if line is None else f"line {line}: {reason}")
        self.line = line
        self.reason = reason


@dataclass(frozen=True)
class Session:
    problem: Problem
    state: SolutionState

    @property
    def framework(self) -> str:
        return self.problem.framework

    def apply(self, case: Optional[str], tactic: str,
              argtext: str = "") -> "Session":
        return replace(self, state=apply_tactic(self.state, case, tactic,
                                                argtext))

    def answer_ready(self) -> bool:
        """An answer can be extracted: terminal, or dfps forward finished."""
        return not self.state.goals or (self.framework == "dfps"
                                        and forward_finished(self))


def session_init(p: Problem) -> Session:
    """The one session initializer: the main goal `h` (fps), or its
    forward and backward cases `h.mp` and `h.mpr` (dfps), with `?w` for
    the queriable, then the hole goal `w`."""
    tele = p.telescope()
    qname, qsort = p.queriable
    meta = Meta(qsort, ANSWER_HOLE)
    if p.framework == "fps":
        goals = (Goal("h", tele, substitute(p.conclusion(), qname, meta)),)
    else:
        psi = p.concls[0].args[0]   # (psi <-> A), by parse_problem's check
        goals = (Goal("h.mp", tele.extended(
                     LocalDecl(FORWARD_HYP, PROP, prop=psi)), meta),
                 Goal("h.mpr", tele.extended(
                     LocalDecl(BACKWARD_HYP, PROP, prop=meta)), psi))
    return Session(p, SolutionState(goals + (Goal(ANSWER_HOLE, tele, qsort),)))


def init_prove(p: Problem, answer: Term) -> SolutionState:
    """Theorem-mode initial state for P(answer): the one goal `h`, and
    the answer hole assigned `answer`, so a line that names `?w` reads
    it as the answer."""
    tele = p.telescope()
    qname, qsort = p.queriable
    if answer.sort != qsort:
        raise SortError(f"answer sort {answer.sort}, expected {qsort}")
    concl = substitute(p.conclusion(), qname, answer)
    return SolutionState(goals=(Goal("h", tele, concl),),
                         assignment=((ANSWER_HOLE, answer),))


def prove_by_script(p: Problem, answer: Term,
                    script: ProofScript) -> ReplayReport:
    """Prove P(answer) with a proving script, each line checked as it
    runs."""
    return run_script(init_prove(p, answer), script)


def solve_certified(p: Problem, script: ProofScript
                    ) -> tuple[Term, SessionCertificate, SolutionState]:
    """Run a solving script, each line checked as it runs, until an
    answer can be extracted; the answer, its certificate from
    `_framework_check`, whose errors it raises, and the final state.
    Raises ScriptRejected when no answer can be extracted."""
    report = run_script(session_init(p).state, script,
                        done=lambda s: Session(p, s).answer_ready())
    if not report.accepted:
        raise ScriptRejected(report.failed_line, report.reason)
    answer, cert = _framework_check(Session(p, report.final))
    return answer, cert, report.final


def replay_check(p: Problem, script: ProofScript) -> ReplayReport:
    """Replay a script from the session's initial state to the terminal
    state, each line checked as it runs."""
    return run_script(session_init(p).state, script)


def forward_finished(sess: Session) -> bool:
    """Answer hole filled and the forward case closed (dfps only): the
    goals of neither is open."""
    if sess.framework != "dfps":
        raise SessionError("forward_finished applies to dfps sessions")
    return all(g.case not in ("h.mp", ANSWER_HOLE) for g in sess.state.goals)


def extract_answer(sess: Session) -> Term:
    if not sess.answer_ready():
        raise NotFinished("forward phase is not finished"
                          if sess.framework == "dfps"
                          else "session is not terminal")
    # ready means no goal open, so no hole either, or forward
    # finished, which holds only once the answer hole is assigned
    raw = sess.state.assigned_value(ANSWER_HOLE)
    answer = instantiate_metas(raw, sess.state.asg_map())
    if metavars_of(answer):
        raise NotFinished("answer still contains metavariables")
    allowed = {n for n, _ in sess.problem.vars}
    stray = free_vars(answer) - allowed
    if stray:
        raise DependsOnNonV(
            f"answer depends on {sorted(stray)} outside the problem variables")
    return answer


# ---------------------------------------------------------------------------
# Certification: the soundness / completeness theorems as executable checks


@dataclass(frozen=True)
class SessionCertificate:
    framework: str
    answer: str
    forward: bool
    backward: bool
    script_hash: str
    early_exit: bool = False

    def to_json(self) -> dict:
        return {"framework": self.framework, "answer": self.answer,
                "forward": self.forward, "backward": self.backward,
                "scriptHash": self.script_hash, "earlyExit": self.early_exit}


def _script_hash(script: ProofScript) -> str:
    return hashlib.sha256(script.render().encode()).hexdigest()


def certify(sess: Session) -> SessionCertificate:
    """Replay a session handed in from a fresh state, checking each
    recorded certificate once on the way (`run_trace`), then re-prove
    what the framework promises of it."""
    report = run_trace(session_init(sess.problem).state, sess.state)
    if report.failed_line is not None:
        raise CertifyFailed(f"trace replay failed at step "
                            f"{report.failed_line}: {report.reason}")
    if not report.accepted:
        raise CertifyFailed(report.reason)
    return _framework_check(sess)[1]


def _framework_check(sess: Session) -> tuple[Term, SessionCertificate]:
    """Extract the answer, and re-prove the instantiated statement (fps)
    or read off whether the backward case is closed too (dfps); the
    answer and its certificate."""
    answer = extract_answer(sess)
    script = script_of_trace(sess.state)
    if sess.framework == "fps":
        _recheck_statement(sess.problem, answer, script)
    backward = is_terminal(sess.state)      # always, for fps
    return answer, SessionCertificate(
        sess.framework, print_term(answer), True, backward,
        _script_hash(script), early_exit=not backward)


def run_trace(state: SolutionState, recorded: SolutionState
              ) -> ReplayReport:
    """Replay a recorded trace from a fresh state and check it step by
    step (`kernel.replay_step`): a closing line that only searches
    (`auto`, `rw_search`, ...) replays from its certificate under its
    own parameters, every other line runs again and its certificate is
    revalidated at once.  The replay must reproduce the recorded state
    term for term: its goals, assignment and trace, certificates
    included.  The run's report, whose failed line is the trace step."""
    steps = recorded.trace
    report = run_script(
        state, script_of_trace(recorded), done=lambda s: s == recorded,
        step=lambda s, ln: replay_step(s, steps[ln.lineno - 1]))
    if report.accepted or report.failed_line is not None:
        return report
    return replace(report,
                   reason="replayed state differs from the recorded state")


def _recheck_statement(p: Problem, answer: Term, script: ProofScript) -> None:
    """Re-prove the instantiated statement with the script's closing
    suffix, each line checked as it runs."""
    report = prove_by_script(p, answer, prove_script(script))
    if not report.accepted:
        at = "" if report.failed_line is None \
            else f" at line {report.failed_line}"
        raise CertifyFailed(f"statement recheck failed{at}: {report.reason}")


def prove_script(script: ProofScript) -> ProofScript:
    """Drop the answer-hole fills; what remains proves the statement."""
    lines = tuple(ln for ln in script.lines if ln.goal != ANSWER_HOLE)
    return ProofScript(lines)


def dfps_prove_script(script: ProofScript) -> ProofScript:
    """Prefix a deductive trace so it applies to the plain iff statement."""
    prefix = (
        ScriptLine(None, "iff_split", "", 0),
        ScriptLine("h.mp", "intro", FORWARD_HYP, 0),
        ScriptLine("h.mpr", "intro", BACKWARD_HYP, 0),
    )
    return ProofScript(prefix + prove_script(script).lines)


# ---------------------------------------------------------------------------
# The find-all injection


def fps_to_dfps(p: Problem) -> Problem:
    """Map a find-all problem to its deductive form.

    The queriable joins the universally quantified variables, the new
    queriable is a proposition A, the conclusion becomes (psi <-> A),
    and a recorded ground-truth answer maps to `a = answer`.
    """
    qname, qsort = p.queriable
    psi = p.conclusion()
    new_answer: Optional[Term] = None
    if p.answer is not None:
        new_answer = mk_atom("eq", (Var(qsort, qname), p.answer))
    a_var = "A" if qname != "A" and all(n != "A" for n, _ in p.vars) else "A0"
    concl = mk_conn("iff", (psi, Var(PROP, a_var)))
    return Problem(
        framework="dfps",
        vars=p.vars + ((qname, qsort),),
        queriable=(a_var, PROP),
        hyps=p.hyps,
        concls=(concl,),
        answer=new_answer,
        informal=p.informal,
    )
