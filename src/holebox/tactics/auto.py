"""auto: goal-tree automation, safe decomposition first, closers second.

The move order is fixed: introduce binders and implications, split iffs,
conjunctions and set equalities, destructure hypothesis conjunctions,
case on hypothesis disjunctions, substitute variable equations, try an
assumption-matching exact, then run the closers (rfl, eval_decide,
ring_nf, linear_arith, rw_search at depth 3), and finally branch on a
disjunctive goal.  The node budget bounds the number of goal visits.
The depth-3 rw_search closer reuses the failures of deeper searches
through `rw_search_term`'s failure memo: the RPE stack runs `rw_search`
at depth 6 before `auto`, and a conclusion that stage failed on, with
the same hypotheses and no pending hole, is not searched again.
Everything is deterministic, so the certificate records only the budget,
and `revalidate_auto` checks it by running the search again under that
budget.

Each search (one `auto` or `revalidate_auto` call) keeps a table of
countermodels, a dict keyed by telescope that it starts empty and
drops at its end.  When `linear_arith` finds a goal's negation
feasible, the point it found (`Feasible.point`, by variable name,
integer or rational) becomes a candidate for the goal's telescope.  The
first time another goal in that telescope reaches the closers, the
candidate is checked by exact evaluation (`eval_at`): each value fits
its variable's sort (an Int one is an integer, a Nat one an integer at
least 0, a Rat or Real one any rational), and every hypothesis is True
there, Real evaluated as Rat; a candidate that fails is dropped, and
one that passes is a countermodel from then on.  A goal whose
conclusion evaluates to False at a countermodel is not valid, so no
sound closer can close it, and `_closers` returns False without
running them.  This keeps every verdict: closers return only a
boolean and do not tick the budget, so `_prove` returns the same
results, and the certificates, reports and failure classes stay the
same.  A find-all answer chain that misses a solution is where this
acts: the point that shows the whole chain feasible falsifies every
disjunct and every tail that `auto` then branches into.

`_simp` is a bounded memo (`SIMP_MEMO_ENTRIES`) keyed on the interned
term and on the lemma library: a conclusion met again, in another case
of a hypothesis disjunction or when `revalidate_auto` runs the search
again, is simplified once, and a library set by `set_default_library`
never sees the rules of the one before.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..expr import (
    Atom, Binder, Conn, INT, LocalDecl, NAT, NUMERIC, PROP, Telescope, Term,
    Var, eq_sides, free_vars, instantiate_bvar, metavars_of, mk_atom,
    mk_conn, mk_var,
)
from ..norm import definitional_eq, normalize
from ..kernel import (
    Certificate, CertificateError, Goal, SolutionState, TacticFailed,
    TacticResult, detail_value, int_arg, register_check, register_tactic,
)
from .decide import Point, decide_prop, eval_at
from .linarith import Feasible, prove_linear
from .rewrite import (
    LemmaLibrary, SubtermIndex, default_library, first_rewrite,
    rw_search_term,
)
from .ring import ring_closes
from .structural import replace_hyp, rfl_check, split_hyp, subst_goal

AUTO_BUDGET = 500
AUTO_RW_DEPTH = 3
# evaluation steps for a hypothesis or conclusion at a candidate point
MODEL_EVAL_BUDGET = 10 ** 4

# per telescope: the candidates, and the countermodels checked among them
Countermodels = dict[Telescope, tuple[list[Point], list[Point]]]


class BudgetExhausted(TacticFailed):
    pass


@dataclass
class _Counter:
    n: int

    def tick(self) -> None:
        self.n -= 1
        if self.n < 0:
            raise BudgetExhausted("auto node budget exhausted")


_SIMP_ROUNDS = 25
SIMP_MEMO_ENTRIES = 64


def _simp(t: Term) -> Term:
    """Normalization with the lemma library, forward direction, fixpoint."""
    return _simp_with(t, default_library())


@lru_cache(maxsize=SIMP_MEMO_ENTRIES)
def _simp_with(t: Term, library: LemmaLibrary) -> Term:
    t = normalize(t)
    rules = library.simp_rules
    for _ in range(_SIMP_ROUNDS):
        index = SubtermIndex(t)
        for lemma, back in rules.for_index(index):
            new = first_rewrite(index, lemma, back)
            if new is not None and new != t:
                t = normalize(new)
                break
        else:
            return t
    return t


def _prove(goal: Goal, budget: _Counter,
           seen: frozenset[tuple[Telescope, Term]],
           models: Countermodels) -> bool:
    budget.tick()
    concl = _simp(goal.concl)
    ctx = goal.ctx
    key = (ctx, concl)
    if key in seen:
        return False
    seen = seen | {key}

    if isinstance(concl, Conn) and concl.op == "true":
        return True

    # safe decomposition of the conclusion
    if isinstance(concl, Binder) and concl.kind == "forall":
        name = ctx.fresh(concl.var)
        g = Goal(goal.case, ctx.extended(LocalDecl(name, concl.vsort)),
                 instantiate_bvar(concl.body, mk_var(name, concl.vsort)))
        return _prove(g, budget, seen, models)
    if isinstance(concl, Conn) and concl.op == "imp":
        name = ctx.fresh("h")
        g = Goal(goal.case,
                 ctx.extended(LocalDecl(name, PROP, prop=concl.args[0])),
                 concl.args[1])
        return _prove(g, budget, seen, models)
    if isinstance(concl, Conn) and concl.op in ("iff", "and"):
        a, b = concl.args
        if concl.op == "iff":
            ga = Goal(goal.case, ctx, mk_conn("imp", (a, b)))
            gb = Goal(goal.case, ctx, mk_conn("imp", (b, a)))
        else:
            ga = Goal(goal.case, ctx, a)
            gb = Goal(goal.case, ctx, b)
        return _prove(ga, budget, seen, models) \
            and _prove(gb, budget, seen, models)
    if isinstance(concl, Atom) and concl.rel == "eq" \
            and concl.args[0].sort.kind == "Set":
        # extensionality: S = T becomes x in S <-> x in T for a fresh x
        elem = concl.args[0].sort.args[0]
        name = ctx.fresh("x")
        x = mk_var(name, elem)
        opened = mk_conn("iff", (mk_atom("mem", (x, concl.args[0])),
                                 mk_atom("mem", (x, concl.args[1]))))
        return _prove(Goal(goal.case, ctx.extended(LocalDecl(name, elem)),
                           opened), budget, seen, models)

    # hypothesis decomposition, in telescope order
    here = Goal(goal.case, ctx, concl)
    for d in ctx.decls:
        if d.prop is None:
            continue
        p = normalize(d.prop)
        if isinstance(p, Conn) and p.op == "false":
            return True
        if isinstance(p, Conn) and p.op == "and":
            return _prove(split_hyp(here, d.name, p), budget, seen, models)
        if isinstance(p, Conn) and p.op == "or":
            return _prove(replace_hyp(here, d.name, p.args[0]), budget,
                          seen, models) \
                and _prove(replace_hyp(here, d.name, p.args[1]), budget,
                           seen, models)

    # substitute variable equations (h : x = t with x not in t)
    for d in ctx.decls:
        if d.prop is None:
            continue
        p = normalize(d.prop)
        if isinstance(p, Atom) and p.rel == "eq":
            for me, other in (p.args, p.args[::-1]):
                if isinstance(me, Var) and me.name not in free_vars(other) \
                        and ctx.lookup(me.name) is not None \
                        and ctx.lookup(me.name).prop is None:
                    g = subst_goal(goal, me.name, other, goal.case,
                                   drop=d.name)
                    return _prove(g, budget, seen, models)

    # assumption-matching exact
    if not metavars_of(concl):
        for d in ctx.decls:
            if d.prop is not None and not metavars_of(d.prop) \
                    and definitional_eq(d.prop, concl):
                return True

    # closers
    if _closers(here, models):
        return True

    # disjunctive goal: branch
    if isinstance(concl, Conn) and concl.op == "or":
        return _prove(Goal(goal.case, ctx, concl.args[0]), budget, seen,
                      models) \
            or _prove(Goal(goal.case, ctx, concl.args[1]), budget, seen,
                      models)
    return False


def _closers(goal: Goal, models: Countermodels) -> bool:
    concl = goal.concl
    if metavars_of(concl):
        return False
    if models and _refuted(goal, models):
        return False
    try:
        rfl_check(concl)
        return True
    except TacticFailed:
        pass
    try:
        ok, _ = decide_prop(concl)
        if ok:
            return True
    except TacticFailed:
        pass
    if ring_closes(concl):
        return True
    try:
        prove_linear(goal)
        return True
    except Feasible as e:
        if e.point:
            models.setdefault(goal.ctx, ([], []))[0].append(Point(e.point))
    except TacticFailed:
        pass
    return eq_sides(concl) is not None and rw_search_term(
        concl, goal, frozenset(), AUTO_RW_DEPTH) is not None


def _refuted(goal: Goal, models: Countermodels) -> bool:
    """Whether a countermodel of the goal's telescope makes its
    conclusion False.

    `models` maps a telescope to its candidates, the points
    `linear_arith` found feasible on goals in it, and to its
    countermodels, the candidates checked against it.  A candidate is
    checked the first time a goal in its telescope reaches the closers,
    and then never again; one that fails the check is dropped."""
    found = models.get(goal.ctx)
    if found is None:
        return False
    candidates, countermodels = found
    if any(_false_at(goal.concl, p) for p in countermodels):
        return True
    while candidates:
        point = candidates.pop()
        if _countermodel(goal.ctx, point):
            countermodels.append(point)
            if _false_at(goal.concl, point):
                return True
    return False


def refuted_at(goal: Goal, point: Point) -> bool:
    """Whether `point` is a countermodel of `goal`: it passes
    `_countermodel` in the goal's telescope, and the conclusion
    evaluates to False there."""
    return _countermodel(goal.ctx, point) and _false_at(goal.concl, point)


def _countermodel(ctx: Telescope, point: Point) -> bool:
    """Whether `point` gives each variable of `ctx` it names a value of
    that variable's sort (an integer for Int, an integer at least 0 for
    Nat, any rational for Rat and Real), and every hypothesis of `ctx`
    evaluates to True at it."""
    for name, value in point.values.items():
        d = ctx.lookup(name)
        if d is None or d.sort not in NUMERIC \
                or d.sort in (INT, NAT) and value.denominator != 1 \
                or d.sort == NAT and value < 0:
            return False
    try:
        return all(eval_at(d.prop, point, MODEL_EVAL_BUDGET) is True
                   for d in ctx.decls if d.prop is not None)
    except TacticFailed:
        return False


def _false_at(concl: Term, point: Point) -> bool:
    try:
        return eval_at(concl, point, MODEL_EVAL_BUDGET) is False
    except TacticFailed:
        return False


@register_tactic("auto")
def auto(state: SolutionState, goal: Goal, argtext: str) -> TacticResult:
    budget_n = int_arg(argtext, AUTO_BUDGET)
    budget = _Counter(budget_n)
    proved = _prove(goal, budget, frozenset(), {})
    if not proved:
        raise TacticFailed("auto could not close the goal")
    return TacticResult(cert=Certificate("auto", goal, {"budget": budget_n}))


def _auto_line(detail: dict, argtext: str) -> bool:
    return detail_value("auto", detail, "budget", int) \
        == int_arg(argtext, AUTO_BUDGET)


@register_check("auto", line=_auto_line)
def revalidate_auto(cert: Certificate) -> None:
    cert.fills({})
    budget = _Counter(detail_value("auto", cert.detail, "budget", int))
    try:
        proved = _prove(cert.goal, budget, frozenset(), {})
    except TacticFailed:
        proved = False
    if not proved:
        raise CertificateError("auto certificate no longer validates")
