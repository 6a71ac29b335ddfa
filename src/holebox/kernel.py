"""The trusted core: goals, solution states, and script replay.

A state is its goals, its assignment and its trace.  A goal whose target
is a Sort is the one record of a hole, the metavariable its case names,
whose value may use the goal's context.  Only `exact <term>` (`FILLER`)
acts on a hole goal, filling its hole and so closing it: any other
tactic fails there, a certificate of any other kind there is rejected,
and a step that closes the goal otherwise is an `EngineError`.

States are immutable snapshots.  A tactic application never mutates its
input; it either returns a fresh state or raises TacticFailed, in which
case the caller keeps the old state.  A closing step is its certificate:
the goal it closed, as the term the engine built, the evidence why, and
the holes it fills, the kernel's only source of assignments.  The
replay, each step's certificate checked as the step commits, stands in
for a typechecking kernel; `recheck`, which re-validates a finished
trace's certificates one by one, is on no engine path.
The kernel holds every check.  Each tactic module registers the check
of its certificate kind beside its tactic (`register_check`, into
`CHECKS`); a closing line that takes no argument or only an optional
number registers its replay rule in the same call (into
`REPLAY_LINES`).  `revalidate` checks one certificate.  A script line
and a recorded step commit through `replay_step`, which checks its
certificate before the next line runs: a recorded line with a replay
rule replays from its certificate under its own parameters without
running the tactic; any other line runs.  `apply_tactic` is the
unchecked commit of exploration (search, the RPE stages, the REPL): it
checks only the protocol, that a closing step brings a certificate of
its own tactic and goal.
Certificates never leave the process, so they hold the engine's own
values and every check compares values with `==`: neither the parser
nor the printer is on the path a proof is checked on.  A detail holds
evidence a check reads (a cited hypothesis and its arguments, Farkas
multipliers, a rewrite path, a false hypothesis) or the line's budget,
and no value the goal determines, which a check would only derive again.
A check reads the keys of a certificate's detail through
`detail_value`, so a missing or mistyped key is a `CertificateError`.
`render_goal` and `render_state` print states for people and policies,
never for a check.

No goal holds an assigned hole: `assign_metavar` instantiates the open
goals when it assigns one, and `apply_tactic` instantiates a tactic's
new goals against the holes assigned before, so the goal a certificate
stores reads the same without the state.  A closer is therefore a
function of the goal alone, plus the pending holes where it assigns
one: the same function a certificate checker calls.  Text that names a
hole is instantiated where it is read (`SolutionState.instantiated`),
so a term a tactic elaborates holds no assigned hole either.

The kernel knows states, not problems: `fps` builds every initial
state and is the one module above that runs and checks scripts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

from .expr import (
    ExprError, LocalDecl, Sort, SortError, Telescope, Term,
    free_vars, instantiate_metas,
)
from .syntax import ProofScript, ScriptLine, print_term


class KernelError(Exception):
    pass


class TacticFailed(KernelError):
    """The tactic does not apply; the input state is unchanged."""


class OutOfContextError(KernelError):
    pass


class CertificateError(KernelError):
    pass


class EngineError(Exception):
    """A tactic closed its goal without a certificate, brought one and
    opened goals, brought one of another kind or goal, or closed a hole
    goal without filling its hole: a bug, not a failed line, so nothing
    catches it."""


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Goal:
    case: str
    ctx: Telescope
    concl: Union[Term, Sort]    # a Sort target: the goal is the hole ?case

    def is_hole_goal(self) -> bool:
        return isinstance(self.concl, Sort)


@dataclass(frozen=True)
class Certificate:
    """Why `goal` closed, checked by the tactic's revalidator: its
    evidence, and the `(hole, value)` pairs the step fills."""
    tactic: str
    goal: Goal
    detail: dict
    assigns: tuple[tuple[str, Term], ...] = ()

    def fills(self, asked: dict[str, Sort]) -> dict[str, Term]:
        """`assigns` as a map, when it fills each hole the goal asks for,
        `asked` with its sort, once and at that sort, and no other."""
        got = dict(self.assigns)
        if len(got) != len(self.assigns) or got.keys() != asked.keys() \
                or any(v.sort != asked[m] for m, v in got.items()):
            raise CertificateError(f"{self.tactic} fills {sorted(got)}, "
                                   f"its goal asks for {sorted(asked)}")
        return got


def detail_value(tactic: str, detail: object, key: str, kind: type):
    """`detail[key]`, which the detail of a `tactic` certificate (or a
    dict inside it) must hold as a `kind`; a missing or mistyped key is a
    `CertificateError`."""
    value = detail.get(key) if isinstance(detail, dict) else None
    if not isinstance(value, kind):
        raise CertificateError(f"{tactic} certificate has no {key!r} "
                               f"of type {kind.__name__}")
    return value


@dataclass(frozen=True)
class TraceStep:
    goal: str
    tactic: str
    argtext: str
    cert: Optional[Certificate] = None


@dataclass(frozen=True)
class SolutionState:
    goals: tuple[Goal, ...] = ()
    assignment: tuple[tuple[str, Term], ...] = ()
    trace: tuple[TraceStep, ...] = ()

    # -- queries ------------------------------------------------------------

    def goal(self, case: Optional[str] = None) -> Goal:
        if case is None:
            if not self.goals:
                raise TacticFailed("no goals")
            return self.goals[0]
        for g in self.goals:
            if g.case == case:
                return g
        raise TacticFailed(f"no goal named {case!r}")

    def asg_map(self) -> dict[str, Term]:
        return dict(self.assignment)

    def assigned_value(self, mid: str) -> Optional[Term]:
        return self.asg_map().get(mid)

    def pending_holes(self) -> frozenset[str]:
        """The ids of the open holes: the cases of the hole goals."""
        return frozenset(g.case for g in self.goals if g.is_hole_goal())

    def meta_sorts(self) -> dict[str, Sort]:
        sorts = {g.case: g.concl for g in self.goals if g.is_hole_goal()}
        sorts.update((mid, v.sort) for mid, v in self.assignment)
        return sorts

    def instantiated(self, t: Term) -> Term:
        """`t`, read from text that may name any hole, with the assigned
        holes replaced."""
        if not (self.assignment and t.has_meta):
            return t
        return instantiate_metas(t, self.asg_map())

    # -- transitions ----------------------------------------------------

    def with_goal_replaced(self, case: str, new_goals: tuple[Goal, ...],
                           step: TraceStep) -> "SolutionState":
        existing = {g.case for g in self.goals if g.case != case}
        for g in new_goals:
            if g.case in existing:
                raise KernelError(f"duplicate goal name {g.case!r}")
            existing.add(g.case)
        out: list[Goal] = []
        for g in self.goals:
            if g.case == case:
                out.extend(ng for ng in new_goals if not ng.is_hole_goal())
            else:
                out.append(g)
        out.extend(ng for ng in new_goals if ng.is_hole_goal())
        return replace(self, goals=tuple(out), trace=self.trace + (step,))

    def fresh_meta_id(self, base: str) -> str:
        taken = {g.case for g in self.goals} | {k for k, _ in self.assignment}
        if base not in taken:
            return base
        i = 1
        while f"{base}{i}" in taken:
            i += 1
        return f"{base}{i}"


def is_terminal(s: SolutionState) -> bool:
    return not s.goals


# ---------------------------------------------------------------------------
# Metavariable assignment


def assign_metavar(s: SolutionState, mid: str, value: Term) -> SolutionState:
    """`s` with the hole `?mid` filled by `value`: its goal closed, and
    the other goals instantiated."""
    if mid not in s.pending_holes():
        raise KernelError(f"?{mid} is already assigned" if s.assigned_value(
            mid) is not None else f"no hole ?{mid}")
    hole = s.goal(mid)
    if value.sort != hole.concl:
        raise SortError(
            f"?{mid} expects {hole.concl}, got {value.sort}")
    allowed = set(hole.ctx.names())
    stray = free_vars(value) - allowed
    if stray:
        raise OutOfContextError(
            f"assignment for ?{mid} uses {sorted(stray)} outside its context")
    new_asg = dict(s.assignment)
    new_asg[mid] = value
    instantiate_metas(value, new_asg)   # occurs check, transitively
    asg = tuple(sorted(new_asg.items()))
    goals = tuple(_instantiate_goal(g, new_asg) for g in s.goals
                  if g.case != mid)
    return replace(s, goals=goals, assignment=asg)


def _instantiate_goal(g: Goal, asg: dict[str, Term]) -> Goal:
    """`g` with the assigned metavariables replaced; `g` itself when
    nothing in it changes.  Only a restated hypothesis is checked."""
    decls = []
    restated = False
    for d in g.ctx.decls:
        if d.prop is not None and d.prop.has_meta:
            prop = instantiate_metas(d.prop, asg)
            if prop is not d.prop:
                d = LocalDecl(d.name, d.sort, prop=prop)
                restated = True
        decls.append(d)
    concl = g.concl
    if not isinstance(concl, Sort) and concl.has_meta:
        concl = instantiate_metas(concl, asg)
    if not restated:
        return g if concl is g.concl else Goal(g.case, g.ctx, concl)
    return Goal(g.case, g.ctx.restated(tuple(decls)), concl)


# ---------------------------------------------------------------------------
# Tactic protocol


@dataclass
class TacticResult:
    """Outcome of applying one tactic to one goal."""
    new_goals: tuple[Goal, ...] = ()
    cert: Optional[Certificate] = None


TacticFn = Callable[[SolutionState, Goal, str], TacticResult]

TACTICS: dict[str, TacticFn] = {}

# The one tactic, and certificate kind, that acts on a hole goal.
FILLER = "exact"


def register_tactic(name: str):
    def deco(fn: TacticFn) -> TacticFn:
        TACTICS[name] = fn
        return fn
    return deco


def int_arg(argtext: str, default: int) -> int:
    """A tactic's optional integer argument, such as a budget or depth."""
    if not argtext.strip():
        return default
    try:
        return int(argtext)
    except ValueError:
        raise TacticFailed(f"expected an integer argument, got {argtext!r}")


def no_arg(tactic: str, argtext: str) -> None:
    """Refuse argument text given to a tactic that takes none."""
    if argtext.strip():
        raise TacticFailed(f"{tactic} takes no argument, got {argtext!r}")


def apply_tactic(s: SolutionState, case: Optional[str], tactic: str,
                 argtext: str = "") -> SolutionState:
    """Apply one named tactic; returns a fresh state or raises TacticFailed."""
    g = s.goal(case)
    fn = TACTICS.get(tactic)
    if fn is None:
        raise TacticFailed(f"unknown tactic {tactic!r}")
    if g.is_hole_goal() and tactic != FILLER:
        raise TacticFailed(f"{tactic} does not apply to a hole goal")
    res = fn(s, g, argtext)
    cert = res.cert
    fills = dict(cert.assigns) if cert is not None else {}
    # a certificate is of the step's tactic and goal; a hole goal is its
    # hole's one record: closed unfilled, it is lost
    if (cert is None) != bool(res.new_goals) \
            or cert is not None and (cert.tactic != tactic or cert.goal != g) \
            or g.is_hole_goal() and g.case not in fills:
        raise EngineError(f"{tactic} broke the certificate protocol")
    return _commit(s, g, TraceStep(g.case, tactic, argtext, cert),
                   res.new_goals)


def _commit(s: SolutionState, g: Goal, step: TraceStep,
            new_goals: tuple[Goal, ...] = ()) -> SolutionState:
    """The one transition of a step on goal `g`: the holes its
    certificate fills assigned, then `g` out and its new goals, new
    hole goals included, in."""
    if s.assignment:
        # a new goal may name a hole assigned earlier (`have` parses
        # against every hole): no goal holds an assigned hole
        asg = s.asg_map()
        new_goals = tuple(_instantiate_goal(ng, asg) for ng in new_goals)
    out = s     # fills first: a step on `w` fills `?w` through `w`'s goal
    for mid, val in step.cert.assigns if step.cert is not None else ():
        out = assign_metavar(out, mid, val)
    return out.with_goal_replaced(g.case, new_goals, step)


# ---------------------------------------------------------------------------
# Certificate checks and replay

CheckFn = Callable[[Certificate], None]
LineFn = Callable[[dict, str], bool]

# The check of each certificate kind, and the replay rule of each closing
# line that certification replays from its certificate: whether the
# line's parameter agrees with the certificate's detail.  Each tactic
# module fills both beside its tactic, at import (`register_check`).
CHECKS: dict[str, CheckFn] = {}
REPLAY_LINES: dict[str, LineFn] = {}


def register_check(kind: str, line: Optional[LineFn] = None):
    """Register the decorated function as the check of `kind`
    certificates and, for a closing line that takes no argument or only
    an optional number, `line` as its replay rule."""
    def deco(fn: CheckFn) -> CheckFn:
        CHECKS[kind] = fn
        if line is not None:
            REPLAY_LINES[kind] = line
        return fn
    return deco


def reads_no_argument(detail: dict, argtext: str) -> bool:
    """The replay rule of a closing line that takes no argument."""
    return not argtext.strip()


def revalidate(cert: Certificate) -> None:
    """Check `cert` with the check of its kind."""
    fn = CHECKS.get(cert.tactic)
    if fn is None:
        raise CertificateError(
            f"no revalidator for certificate kind {cert.tactic!r}")
    if cert.goal.is_hole_goal() and cert.tactic != FILLER:
        raise CertificateError(f"{cert.tactic} on a hole goal")
    fn(cert)


def replay_step(s: SolutionState, step: TraceStep) -> SolutionState:
    """`s` after `step`, a script line or a recorded step, whose
    certificate is checked before the next line runs.

    A recorded closing line with a replay rule does not run: its
    certificate must be of the line's tactic, agree with the line,
    revalidate, and close the goal as it stands in `s`, and it is
    committed through the same step as `apply_tactic`, the unchecked
    commit of exploration.  Any other line runs, and its certificate is
    revalidated at once.  Raises CertificateError when a check fails."""
    cert = step.cert
    line = REPLAY_LINES.get(step.tactic)
    if cert is None or line is None:
        s = apply_tactic(s, step.goal, step.tactic, step.argtext)
        cert = s.trace[-1].cert
        if cert is not None:
            revalidate(cert)
        return s
    if cert.tactic != step.tactic or not line(cert.detail, step.argtext):
        raise CertificateError(f"the line {step.tactic} {step.argtext!r} "
                               "differs from its certificate")
    revalidate(cert)
    g = s.goal(step.goal)
    if cert.goal != g:
        raise CertificateError(f"{step.tactic}: the recorded certificate "
                               f"does not close goal {g.case!r}")
    return _commit(s, g, step)


# ---------------------------------------------------------------------------
# Deterministic script replay


@dataclass(frozen=True)
class ReplayReport:
    accepted: bool
    final: SolutionState
    failed_line: Optional[int] = None
    reason: Optional[str] = None


def run_script(state: SolutionState, script: ProofScript,
               done: Callable[[SolutionState], bool] = is_terminal,
               step: Optional[Callable[[SolutionState, ScriptLine],
                                       SolutionState]] = None
               ) -> ReplayReport:
    """Apply the script's lines in order; the only script runner.

    Each line commits through `replay_step`, its certificate checked
    before the next line runs, or through `step` when one is given.
    Stops at the first line that fails or is rejected.  A script that
    runs through is accepted when `done` holds of the final state.
    """
    for ln in script.lines:
        try:
            state = step(state, ln) if step is not None else replay_step(
                state, TraceStep(ln.goal, ln.tactic, ln.argtext))
        except (KernelError, ExprError) as e:
            return ReplayReport(False, state, ln.lineno,
                                f"{ln.tactic}: {e}")
    if not done(state):
        return ReplayReport(False, state, None, "script left open goals")
    return ReplayReport(True, state)


def recheck(final: SolutionState) -> None:
    """Re-validate every closure certificate in a finished trace."""
    for step in final.trace:
        if step.cert is not None:
            revalidate(step.cert)


# ---------------------------------------------------------------------------
# State rendering (case blocks, one per open goal and hole)


def render_goal(g: Goal) -> str:
    lines = [f"case {g.case}"]
    for d in g.ctx.decls:
        if d.prop is not None:
            lines.append(f"({d.name} : {print_term(d.prop)})")
        else:
            lines.append(f"({d.name} : {d.sort})")
    if isinstance(g.concl, Sort):
        lines.append(f"|- {g.concl}")
    else:
        lines.append(f"|- {print_term(g.concl)}")
    return "\n".join(lines)


def render_state(s: SolutionState) -> str:
    if not s.goals:
        parts = ["No goals"]
    else:
        parts = [render_goal(g) for g in s.goals]
    if s.assignment:
        asg = ", ".join(f"?{k} := {print_term(v)}" for k, v in s.assignment)
        parts.append(f"-- assignments: {asg}")
    return "\n".join(parts)


def script_of_trace(s: SolutionState) -> ProofScript:
    lines = tuple(
        ScriptLine(st.goal, st.tactic, st.argtext, i + 1)
        for i, st in enumerate(s.trace))
    return ProofScript(lines)
