"""Structural tactics: binder introduction, goal splitting, case analysis,
hypothesis citation, and closure up to definitional equality.

`rfl_check` is the one rfl closure test: the `rfl` tactic, its
revalidator, `auto`'s closers and `rw_search`'s closer all call it.
"""

from __future__ import annotations

import math
from typing import Optional

from ..expr import (
    Binder, Conn, ExprError, INT, LocalDecl, Meta, NAT, PROP, Sort,
    Telescope, Term, eq_sides, free_vars, instantiate_bvar, metavars_of,
    mk_conn, mk_lit, mk_var, substitute,
)
from ..norm import definitional_eq, fold_literals, normalize
from ..kernel import (
    Certificate, CertificateError, Goal, Hole, SolutionState, TacticFailed,
    TacticResult, detail_value, reads_no_argument, register_check,
    register_tactic,
)
from ..syntax import (
    ParseError, RAppl, RName, parse_term, print_term, _Env, _P,
    _elab,
)
from .decide import Budget, DEFAULT_BUDGET, _PROBE, _probe_bounds, _conjuncts

MAX_CASE_SPLIT = 64


def _need_prop_goal(goal: Goal, tactic: str) -> Term:
    if goal.is_hole_goal():
        raise TacticFailed(f"{tactic} does not apply to a hole goal")
    return goal.concl


@register_tactic("intro")
def intro(state: SolutionState, goal: Goal, argtext: str) -> TacticResult:
    concl = _need_prop_goal(goal, "intro")
    names = argtext.split()
    ctx = goal.ctx
    count = max(1, len(names))
    for i in range(count):
        want = names[i] if i < len(names) else None
        if isinstance(concl, Binder) and concl.kind == "forall":
            name = ctx.fresh(want or concl.var)
            ctx = ctx.extended(LocalDecl(name, concl.vsort))
            concl = instantiate_bvar(concl.body, mk_var(name, concl.vsort))
        elif isinstance(concl, Conn) and concl.op == "imp":
            name = ctx.fresh(want or "h")
            ctx = ctx.extended(LocalDecl(name, PROP, prop=concl.args[0]))
            concl = concl.args[1]
        else:
            raise TacticFailed(
                "intro needs a universally quantified or implication goal")
    return TacticResult(new_goals=(Goal(goal.case, ctx, concl),))


@register_tactic("exists_intro")
def exists_intro(state: SolutionState, goal: Goal, argtext: str
                 ) -> TacticResult:
    concl = _need_prop_goal(goal, "exists_intro")
    if not (isinstance(concl, Binder) and concl.kind == "exists"):
        raise TacticFailed("exists_intro needs an existential goal")
    mid = state.fresh_meta_id(argtext.strip() or concl.var)
    hole = Hole(mid, goal.ctx, concl.vsort)
    body = instantiate_bvar(concl.body, Meta(concl.vsort, mid))
    return TacticResult(
        new_goals=(Goal(goal.case, goal.ctx, body),
                   Goal(mid, goal.ctx, concl.vsort)),
        new_holes=(hole,),
    )


@register_tactic("iff_split")
def iff_split(state: SolutionState, goal: Goal, argtext: str) -> TacticResult:
    concl = _need_prop_goal(goal, "iff_split")
    if not (isinstance(concl, Conn) and concl.op == "iff"):
        raise TacticFailed("iff_split needs an iff goal")
    a, b = concl.args
    return TacticResult(new_goals=(
        Goal(f"{goal.case}.mp", goal.ctx, mk_conn("imp", (a, b))),
        Goal(f"{goal.case}.mpr", goal.ctx, mk_conn("imp", (b, a))),
    ))


@register_tactic("and_split")
def and_split(state: SolutionState, goal: Goal, argtext: str) -> TacticResult:
    concl = _need_prop_goal(goal, "and_split")
    if not (isinstance(concl, Conn) and concl.op == "and"):
        raise TacticFailed("and_split needs a conjunction goal")
    a, b = concl.args
    return TacticResult(new_goals=(
        Goal(f"{goal.case}.l", goal.ctx, a),
        Goal(f"{goal.case}.r", goal.ctx, b),
    ))


def _parse_citation(argtext: str) -> tuple[str, list]:
    """Parse `h` or `h arg1 arg2 ...` into a name and raw argument trees."""
    try:
        p = _P(argtext)
        raw = p.bounded(p.app_expr())
    except ParseError as e:
        raise TacticFailed(f"cannot cite {argtext!r}: {e}")
    if not p.at("eof"):
        raise TacticFailed(f"trailing input in citation {argtext!r}")
    if isinstance(raw, RName):
        return raw.name, []
    if isinstance(raw, RAppl) and isinstance(raw.head, RName):
        return raw.head.name, list(raw.args)
    raise TacticFailed(f"cannot cite {argtext!r}")


def _instantiate_hyp(prop: Term, raw_args: list, ctx: Telescope,
                     state: SolutionState) -> tuple[Term, tuple[Term, ...]]:
    """Open leading foralls of a hypothesis at explicit argument terms.

    An argument may name any hole; an assigned one reads as its value,
    so the instance holds no assigned hole, as no goal does."""
    args: list[Term] = []
    for raw in raw_args:
        if not (isinstance(prop, Binder) and prop.kind == "forall"):
            raise TacticFailed("more arguments than leading quantifiers")
        env = _Env(ctx, [], state.meta_sorts())
        arg = state.instantiated(_elab(raw, prop.vsort, env))
        args.append(arg)
        prop = instantiate_bvar(prop.body, arg)
    return fold_literals(prop), tuple(args)


@register_tactic("exact")
def exact(state: SolutionState, goal: Goal, argtext: str) -> TacticResult:
    if not argtext.strip():
        raise TacticFailed("exact needs an argument")
    if goal.is_hole_goal():
        # term-mode: fill the hole with a well-sorted term
        try:
            value = parse_term(argtext, goal.ctx, goal.concl, metas=None)
        except (ParseError, ExprError) as e:
            raise TacticFailed(f"exact: {e}")
        fill = ((goal.case, value),)
        return TacticResult(cert=Certificate("exact", goal, {}, fill))
    name, raw_args = _parse_citation(argtext)
    decl = goal.ctx.lookup(name)
    if decl is None or decl.prop is None:
        raise TacticFailed(f"no hypothesis named {name!r}")
    instance, args = _instantiate_hyp(decl.prop, raw_args, goal.ctx, state)
    concl = goal.concl
    fill = ()
    if isinstance(concl, Meta):
        # Simultaneous hole fill: the only place a bare answer hole may be
        # unified against a hypothesis (deductive forward finish).
        fill = ((concl.mid, instance),)
    elif not definitional_eq(instance, concl):
        raise TacticFailed(
            f"exact: {print_term(instance)} does not match the conclusion")
    return TacticResult(cert=Certificate(
        "exact", goal, {"hyp": name, "args": args}, fill))


def rfl_check(concl: Term) -> None:
    """Raise TacticFailed unless `concl` is an equation or iff whose
    sides are definitionally equal."""
    sides = eq_sides(concl)
    if sides is None:
        raise TacticFailed("rfl needs an equality or iff goal")
    if not definitional_eq(*sides):
        raise TacticFailed("rfl: sides are not definitionally equal")


@register_tactic("rfl")
def rfl(state: SolutionState, goal: Goal, argtext: str) -> TacticResult:
    rfl_check(_need_prop_goal(goal, "rfl"))
    return TacticResult(cert=Certificate("rfl", goal, {}))


@register_tactic("have")
def have(state: SolutionState, goal: Goal, argtext: str) -> TacticResult:
    _need_prop_goal(goal, "have")
    if ":" not in argtext:
        raise TacticFailed("usage: have <name> : <proposition>")
    name, prop_text = argtext.split(":", 1)
    name = name.strip()
    if not name.isidentifier():
        raise TacticFailed(f"bad hypothesis name {name!r}")
    if goal.ctx.lookup(name) is not None:
        raise TacticFailed(f"{name!r} already names a declaration")
    try:
        prop = parse_term(prop_text, goal.ctx, PROP,
                          metas=state.meta_sorts())
    except (ParseError, ExprError) as e:
        raise TacticFailed(f"have: {e}")
    proof_goal = Goal(f"{goal.case}.{name}", goal.ctx, prop)
    cont = Goal(goal.case, goal.ctx.extended(
        LocalDecl(name, PROP, prop=prop)), goal.concl)
    return TacticResult(new_goals=(proof_goal, cont))


@register_tactic("cases")
def cases(state: SolutionState, goal: Goal, argtext: str) -> TacticResult:
    _need_prop_goal(goal, "cases")
    name = argtext.strip()
    decl = goal.ctx.lookup(name)
    if decl is None or decl.prop is None:
        raise TacticFailed(f"no hypothesis named {name!r}")
    prop = normalize(decl.prop)
    if isinstance(prop, Conn) and prop.op == "or":
        gl = replace_hyp(goal, name, prop.args[0], f"{goal.case}.l")
        gr = replace_hyp(goal, name, prop.args[1], f"{goal.case}.r")
        return TacticResult(new_goals=(gl, gr))
    if isinstance(prop, Conn) and prop.op == "and":
        return TacticResult(new_goals=(split_hyp(goal, name, prop),))
    if isinstance(prop, Conn) and prop.op == "false":
        cert = Certificate("cases", goal, {"false_hyp": name})
        return TacticResult(cert=cert)
    raise TacticFailed(f"cases: {name} is not a disjunction or conjunction")


def replace_hyp(goal: Goal, name: str, prop: Term,
                case: Optional[str] = None) -> Goal:
    """`goal` with hypothesis `name` restated as `prop`, in place."""
    ctx = goal.ctx.replaced(LocalDecl(name, PROP, prop=prop))
    return Goal(goal.case if case is None else case, ctx, goal.concl)


def split_hyp(goal: Goal, name: str, conj: Conn) -> Goal:
    """`goal` with `name : a /\\ b` split into `name : a` and a fresh
    `name.r : b` at the end of the telescope."""
    g = replace_hyp(goal, name, conj.args[0])
    extra = LocalDecl(g.ctx.fresh(f"{name}.r"), PROP, prop=conj.args[1])
    return Goal(g.case, g.ctx.extended(extra), g.concl)


def subst_goal(goal: Goal, var: str, value: Term, case: str,
               drop: Optional[str] = None) -> Goal:
    """`goal` with `var := value`: the declaration of `var` (and of the
    hypothesis `drop`, when given) is removed, and every hypothesis and
    the conclusion get the value substituted and their literals folded.

    `value` must not mention `var`: then a hypothesis left as it was
    does not mention `var` either, and only the restated ones are
    checked.  (A hypothesis name is never a term, so none mentions
    `drop`.)"""
    if var in free_vars(value):
        raise ExprError(f"substituting for {var!r} a value that mentions it")
    decls = []
    for d in goal.ctx.decls:
        if d.name == var or d.name == drop:
            continue
        if d.prop is not None:
            prop = fold_literals(substitute(d.prop, var, value))
            if prop is not d.prop:
                d = LocalDecl(d.name, PROP, prop=prop)
        decls.append(d)
    concl = fold_literals(substitute(goal.concl, var, value))
    return Goal(case, goal.ctx.restated(tuple(decls)), concl)


@register_tactic("int_cases")
def int_cases(state: SolutionState, goal: Goal, argtext: str) -> TacticResult:
    """Bounded case split on an integer variable with literal bounds."""
    _need_prop_goal(goal, "int_cases")
    name = argtext.strip()
    decl = goal.ctx.lookup(name)
    if decl is None or decl.prop is not None:
        raise TacticFailed(f"no variable named {name!r}")
    if decl.sort not in (INT, NAT):
        raise TacticFailed("int_cases needs an Int or Nat variable")
    for h in state.unassigned_holes():
        if h.ctx.lookup(name) is not None:
            raise TacticFailed(
                "int_cases cannot split while an unfilled hole depends on "
                f"{name!r}")
    parts: list[Term] = []
    for d in goal.ctx.decls:
        if d.prop is not None:
            parts.extend(_conjuncts(normalize(d.prop)))
    renamed = [_rename_to_probe(p, name, decl.sort) for p in parts]
    lo, hi = _probe_bounds(renamed, Budget(DEFAULT_BUDGET))
    if decl.sort == NAT:
        lo = max(lo, 0) if lo is not None else 0
    if lo is None or hi is None:
        raise TacticFailed(f"no literal bounds on {name!r} in the hypotheses")
    lo_i, hi_i = math.ceil(lo), math.floor(hi)
    if hi_i < lo_i:
        # no case to split into, and no certificate for the closure
        raise TacticFailed(f"the bounds on {name!r} are contradictory; "
                           "use linear_arith")
    if hi_i - lo_i + 1 > MAX_CASE_SPLIT:
        raise TacticFailed(f"case split of width {hi_i - lo_i + 1} refused")
    goals = []
    for i, k in enumerate(range(lo_i, hi_i + 1), start=1):
        goals.append(subst_goal(goal, name, mk_lit(k, decl.sort),
                                f"{goal.case}.case_{i}"))
    return TacticResult(new_goals=tuple(goals))


def _rename_to_probe(p: Term, name: str, sort: Sort) -> Term:
    if name in free_vars(p):
        return substitute(p, name, mk_var(_PROBE, sort))
    return p


# -- revalidation -------------------------------------------------------------


def _in_context(t: Term, goal: Goal, sort: Sort) -> bool:
    return t.sort == sort and free_vars(t) <= set(goal.ctx.names())


@register_check("exact")
def revalidate_exact(cert: Certificate) -> None:
    goal, detail = cert.goal, cert.detail
    if goal.is_hole_goal():
        value = cert.fills({goal.case: goal.concl})[goal.case]
        if metavars_of(value) or not _in_context(value, goal, goal.concl):
            raise CertificateError("exact: stored term does not fill the hole")
        return
    concl = goal.concl
    fills = cert.fills(
        {concl.mid: concl.sort} if isinstance(concl, Meta) else {})
    decl = goal.ctx.lookup(detail_value("exact", detail, "hyp", str))
    if decl is None or decl.prop is None:
        raise CertificateError("exact: cited hypothesis is gone")
    prop = decl.prop
    for arg in detail_value("exact", detail, "args", tuple):
        if not (isinstance(prop, Binder) and prop.kind == "forall"):
            raise CertificateError("exact: over-instantiated hypothesis")
        if not _in_context(arg, goal, prop.vsort):
            raise CertificateError("exact: argument does not fit its binder")
        prop = instantiate_bvar(prop.body, arg)
    prop = fold_literals(prop)
    if fills:
        if prop != fills[concl.mid]:
            raise CertificateError("exact: assignment mismatch")
        return
    if not definitional_eq(prop, concl):
        raise CertificateError("exact: instance no longer matches the goal")


@register_check("rfl", line=reads_no_argument)
def revalidate_rfl(cert: Certificate) -> None:
    cert.fills({})
    try:
        rfl_check(cert.goal.concl)
    except TacticFailed:
        raise CertificateError("rfl certificate no longer validates")


@register_check("cases")
def revalidate_cases(cert: Certificate) -> None:
    cert.fills({})
    decl = cert.goal.ctx.lookup(
        detail_value("cases", cert.detail, "false_hyp", str))
    if decl is None or decl.prop is None:
        raise CertificateError("cases: false hypothesis is gone")
    prop = normalize(decl.prop)
    if not (isinstance(prop, Conn) and prop.op == "false"):
        raise CertificateError("cases: hypothesis is not False")
