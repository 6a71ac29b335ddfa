"""Restricted propositional equivalence between answer terms.

Two answers are equivalent when the equality statement built over the
problem's variables and hypotheses is proven by a fixed automation
stack, tried in order: rfl, eval_decide, ring_nf (closing mode, asked
of `ring_closes`, which holds exactly when the tactic closes the goal,
and renders no normal form), rw_search at depth 6, auto with a 500-node
budget.  First success wins and is reported; failure of the whole stack
is a verdict, not an error.
Prop-sorted answers (deductive sessions) compare by iff instead of
equality, which the verdict flags.

Once ring_nf has failed, the stack looks for a countermodel before it
searches (`_refuted`).  When every variable the telescope declares is
of sort Nat, Int, Rat or Real, one `prove_linear` call on the statement
gives a candidate point, the one its feasible verdict carries (integer
over Int, rational over Rat and Real); a telescope that declares no
variable takes the empty point.  The candidate is checked by `auto`'s
own countermodel check (`auto.refuted_at`): every value fits its
variable's sort, every hypothesis evaluates to True at it, Real as Rat,
and the statement evaluates to False there.  Then the
stack ends with `(False, None)`, the verdict rw_search and auto would
have reached: the point shows the statement is not valid, so no sound
stage can close it, and a telescope whose hypotheses are inconsistent
has no such point.  A `prove_linear` that proves the statement is not
used, so the stage reported for an accepted pair stays the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .expr import (
    NUMERIC, PROP, SortError, Term, free_vars, mk_atom, mk_conn,
)
from .kernel import Goal, SolutionState, TacticFailed, apply_tactic, \
    render_goal
from .syntax import Problem
from .tactics.auto import refuted_at
from .tactics.decide import Point
from .tactics.linarith import Feasible, prove_linear
from .tactics.ring import ring_closes


class FreeVarError(SortError):
    pass


RPE_STACK = ("rfl", "eval_decide", "ring_nf", "rw_search", "auto")

_STACK_ARGS = {"rw_search": "6", "auto": "500"}


@dataclass(frozen=True)
class RpeVerdict:
    equivalent: bool
    succeeded_by: Optional[str]      # member of RPE_STACK
    statement: Goal
    prop_answers: bool = False       # iff comparison instead of equality

    def to_json(self) -> dict:
        return {
            "equivalent": self.equivalent,
            "by": self.succeeded_by or "none",
            "statement": render_goal(self.statement),
            "propAnswers": self.prop_answers,
        }


def build_rpe_goal(p: Problem, a_hat: Term, a_bar: Term) -> Goal:
    """The equality statement over (V, Phi): a_hat = a_bar (iff on Prop)."""
    qsort = p.queriable[1]
    for label, t in (("candidate", a_hat), ("ground truth", a_bar)):
        if t.sort != qsort:
            raise SortError(
                f"{label} answer has sort {t.sort}, expected {qsort}")
        stray = free_vars(t) - {n for n, _ in p.vars}
        if stray:
            raise FreeVarError(
                f"{label} answer depends on {sorted(stray)} outside V")
    if qsort == PROP:
        concl = mk_conn("iff", (a_hat, a_bar))
    else:
        concl = mk_atom("eq", (a_hat, a_bar))
    return Goal("rpe", p.telescope(), concl)


def rpe_check(p: Problem, a_hat: Term, a_bar: Term) -> RpeVerdict:
    goal = build_rpe_goal(p, a_hat, a_bar)
    state = SolutionState(goals=(goal,))
    prop_answers = p.queriable[1] == PROP
    for stage in RPE_STACK:
        if stage == "ring_nf":
            if ring_closes(goal.concl):
                return RpeVerdict(True, stage, goal, prop_answers)
            if _refuted(goal):
                break
            continue
        try:
            out = apply_tactic(state, "rpe", stage, _STACK_ARGS.get(stage, ""))
            if not out.goals:
                return RpeVerdict(True, stage, goal, prop_answers)
        except TacticFailed:
            pass
    return RpeVerdict(False, None, goal, prop_answers)


def _refuted(goal: Goal) -> bool:
    """Whether a checked countermodel shows the statement not valid: the
    point of one `prove_linear` call (the empty point when the telescope
    declares no variable), at which every hypothesis is True and the
    statement False.  A telescope with a variable of any other sort than
    Nat, Int, Rat or Real is left to the search."""
    variables = [d for d in goal.ctx.decls if d.prop is None]
    if any(d.sort not in NUMERIC for d in variables):
        return False
    if not variables:
        return refuted_at(goal, Point({}))
    try:
        prove_linear(goal)
        return False
    except Feasible as e:
        return refuted_at(goal, Point(e.point))
    except TacticFailed:
        return False
