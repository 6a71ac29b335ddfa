"""eval_decide: exact evaluation of closed Nat/Int/Rat/Bool propositions.

Covers arithmetic, comparisons, mod, divisibility, primality by trial
division, finite-set cardinality and sums over integer ranges or divisor
sets, and quantifiers bounded by literal constraints.  Everything runs
on arbitrary-precision rationals under an enumeration budget.

`normalize` runs once, on the whole proposition; the certificate records
only the budget, under which its check evaluates again.  Binder bodies
(quantifiers, set-builders and a sum's function literal) are then
evaluated under an environment of values: the body is walked once per
element, with `BVar(i)` reading the i-th value, innermost binder
first, and no term is built per element.  A
binder's bounds are read off its body opened at a probe variable, once
per binder, and evaluated under the same environment, so a nested
binder whose bounds mention an outer variable still enumerates.  Set
literals and `range` reach the evaluator only as the set-builders
`normalize` unfolds them into.

A closed node (no loose bound variable, no metavariable) is evaluated
once while it lives: its `_eval_memo` slot, which only this module
writes, holds `(value, steps charged)`.  A later evaluation under a
budget that covers those steps charges them at once and returns the
value; under a smaller budget it evaluates as if there were no memo, so
the budget runs out at the same step as it would have.  The memo is
written only when an evaluation ends with the budget not overdrawn.
Two places go on after the budget runs out, because they treat any
failure as "no bound": `_literal` and the `mem` bound in
`_probe_bounds`.  An evaluation that passed through one of them may end
with a value that depends on the budget it had, and its charged steps
then exceed that budget; such a result is not the node's own and is
not kept.  A failure is never kept either.

`eval_at` evaluates a term at a point: values for named Nat, Int, Rat
and Real variables, which a `Var` node takes at `eval_term`'s
closed-node step, after the memo lookup, so the evaluation of a closed
term costs nothing more.  Nothing evaluated at a point writes an
`_eval_memo`, since its value may depend on the point; the point keeps
its own values instead, so a subterm met again at the same point, such
as the tail of a chain of disjunctions `x = c`, is evaluated once.
`auto` checks candidate countermodels this way, and so does the RPE
stack before it searches.

At a point, Real is evaluated as Rat (`_eval_real`): a Real variable
takes its rational value, Real literals their value, and `+`, `-`,
`*`, negation, `abs`, `/` and `^` with a natural exponent, and the
comparisons, follow `norm.arith`'s Rat semantics.  A Real division by a
zero value refuses (`EvalNotClosed`) rather than take `a / 0 = 0`, and
`sqrt`, `log`, `pi`, function symbols and a power whose exponent is not
a natural number refuse as well.  Off a point nothing changed: every
Real term refuses, so `eval_decide` and `decide_prop` close no Real
goal.

A special assignment mode handles goals of the shape `?w = t` (or
`t = ?w`, or `?w <-> p`) with a closed right-hand side: the value is
computed and the answer hole is filled, which is how purely
computational problems are solved without guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Optional, Union

from ..expr import (
    App, Atom, BVar, Binder, Conn, INT, Lit, MAX_LIT_BITS, Meta, NAT, RAT,
    REAL, Sort, Term, Var, eq_sides, instantiate_bvar, lit_bits,
    metavars_of, mk_conn, mk_lit, mk_var,
)
from ..norm import arith, normalize
from ..kernel import (
    Certificate, CertificateError, Goal, SolutionState, TacticFailed,
    TacticResult, detail_value, int_arg, register_check, register_tactic,
)
from ..syntax import print_term

DEFAULT_BUDGET = 10 ** 6
MAX_POW_EXP = 10 ** 6


class EvalNotClosed(TacticFailed):
    """The proposition is not in the closed evaluable fragment."""


class EvalBudgetExceeded(TacticFailed):
    """The enumeration budget ran out."""


class EvaluatesFalse(TacticFailed):
    """The proposition is closed and evaluates to False.  It is printed
    only if the message is read: `rw_search` meets many such terms."""

    def __str__(self) -> str:
        return f"evaluates to False: {print_term(self.args[0])}"


FinSet = frozenset  # of Fraction

# The value of a term of a numeric sort is a Fraction, of a proposition
# a bool and of a set a FinSet, since `mk_*` build only well-sorted
# terms.  `_as_num` refuses what else can reach arithmetic: the element
# of a membership, whose sort may be a set's (`{1} in S`).
Value = Union[Fraction, bool, FinSet]


class Point:
    """Values of named Nat, Int, Rat and Real variables, and the values
    of the terms evaluated at them so far (`eval_at`)."""
    __slots__ = ("values", "cache")

    def __init__(self, values: dict[str, Union[int, Fraction]]):
        self.values = {name: Fraction(v) for name, v in values.items()}
        self.cache: dict[Term, Value] = {}


@dataclass
class Budget:
    remaining: int
    point: Optional[Point] = None

    def charge(self, n: int = 1) -> None:
        self.remaining -= n
        if self.remaining < 0:
            raise EvalBudgetExceeded("enumeration budget exceeded")


def _fail_open(t: Term) -> EvalNotClosed:
    return EvalNotClosed(f"not a closed evaluable term: {type(t).__name__}")


Env = tuple[Fraction, ...]


def eval_term(t: Term, budget: Budget, env: Env = ()) -> Value:
    """The value of `t`, whose loose bound variables take their values
    from `env`: `BVar(i)` reads `env[i]`, innermost binder first.

    A closed node (no loose bound variable, no metavariable) is read from
    its `_eval_memo`, `(value, steps charged)`, when the budget left
    covers those steps; else it is evaluated, and the memo is written
    only if the budget did not run out on the way.  Under a budget that
    carries a point (`eval_at`) such a node is evaluated at the point
    instead, and no memo is written."""
    if t.bvar_bound or t.has_meta or isinstance(t, Lit):
        return _eval(t, budget, env)
    memo = t._eval_memo
    if memo is not None and memo[1] <= budget.remaining:
        budget.charge(memo[1])
        return memo[0]
    if budget.point is not None:
        return _eval_at(t, budget)
    start = budget.remaining
    value = _eval(t, budget, ())
    if budget.remaining >= 0:
        t._eval_memo = (value, start - budget.remaining)
    return value


def _eval_at(t: Term, budget: Budget) -> Value:
    """`eval_term` on a closed node at `budget.point`: a variable takes
    its value there, and any other node is evaluated once per point.
    The node's memo is not written, since the value may depend on the
    point."""
    point = budget.point
    value = point.cache.get(t)
    if value is None:
        if isinstance(t, Var):
            if t.name not in point.values:
                raise _fail_open(t)
            value = point.values[t.name]
        else:
            value = _eval(t, budget, ())
        point.cache[t] = value
    return value


def _eval(t: Term, budget: Budget, env: Env) -> Value:
    """One evaluation step of `eval_term`: dispatch on the node's kind."""
    if isinstance(t, Lit):
        if t.sort == REAL and budget.point is None:
            raise EvalNotClosed("symbolic Real literal")
        return t.val
    if isinstance(t, BVar):
        if t.sort == REAL:
            raise EvalNotClosed("symbolic Real variable")
        if t.idx >= len(env):
            raise _fail_open(t)
        return env[t.idx]
    if isinstance(t, Conn):
        return _eval_conn(t, budget, env)
    if isinstance(t, Atom):
        return _eval_atom(t, budget, env)
    if isinstance(t, App):
        return _eval_app(t, budget, env)
    if isinstance(t, Binder):
        if t.kind in ("forall", "exists"):
            return _eval_quant(t, budget, env)
        if t.kind == "setb":
            return _eval_setb(t, budget, env)
    raise _fail_open(t)


def _as_num(v: Value) -> Fraction:
    if not isinstance(v, Fraction):
        raise EvalNotClosed("expected a numeric value")
    return v


def _eval_app(t: App, budget: Budget, env: Env) -> Value:
    if t.sort == REAL or any(a.sort == REAL for a in t.args):
        if budget.point is None:
            raise EvalNotClosed("symbolic Real expression")
        return _eval_real(t, budget, env)
    op = t.op
    if op in ("add", "sub", "mul", "div", "mod", "neg", "abs", "pow"):
        vals = [_as_num(eval_term(a, budget, env)) for a in t.args]
        return _arith(op, vals, t.sort)
    if op == "rat":
        return _as_num(eval_term(t.args[0], budget, env))
    if op == "divisors":
        n = _as_num(eval_term(t.args[0], budget, env))
        return _divisors(int(n), budget)
    if op in ("union", "inter"):
        a = eval_term(t.args[0], budget, env)
        b = eval_term(t.args[1], budget, env)
        return a | b if op == "union" else a & b
    if op == "card":
        return Fraction(len(eval_term(t.args[0], budget, env)))
    if op == "sum":
        return _eval_sum(t, budget, env)
    raise EvalNotClosed(f"operator {op!r} is not evaluable")


REAL_AT_A_POINT = ("add", "sub", "mul", "div", "neg", "abs", "pow")


def _eval_real(t: App, budget: Budget, env: Env) -> Fraction:
    """A Real node at a point: the field operations and natural powers,
    with Rat semantics.  A zero divisor, a power whose exponent is not a
    natural number and any other operator (`sqrt`, `log`, `pi`, function
    symbols) refuse."""
    if t.op not in REAL_AT_A_POINT:
        raise EvalNotClosed(f"Real operator {t.op!r} is not evaluable")
    vals = [_as_num(eval_term(a, budget, env)) for a in t.args]
    if t.op == "div" and not vals[1]:
        raise EvalNotClosed("Real division by zero")
    return _arith(t.op, vals, RAT)


def _arith(op: str, vals: list[Fraction], sort: Sort) -> Fraction:
    if op == "pow":
        exp = vals[1]
        if exp.denominator != 1 or exp < 0:
            raise EvalNotClosed("non-natural exponent")
        if exp > MAX_POW_EXP:
            raise EvalBudgetExceeded("exponent beyond evaluation guard")
    return arith(op, vals, sort)


def _divisors(n: int, budget: Budget) -> FinSet:
    if n <= 0:
        return frozenset()
    out: set[Fraction] = set()
    d = 1
    while d * d <= n:
        budget.charge()
        if n % d == 0:
            out.add(Fraction(d))
            out.add(Fraction(n // d))
        d += 1
    return frozenset(out)


def is_prime(n: int, budget: Budget) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        budget.charge()
        if n % d == 0:
            return False
        d += 1
    return True


def _eval_atom(t: Atom, budget: Budget, env: Env) -> bool:
    if any(a.sort == REAL for a in t.args) and budget.point is None:
        raise EvalNotClosed("symbolic Real comparison")
    rel = t.rel
    if rel == "mem":
        x = _as_num(eval_term(t.args[0], budget, env))
        return x in eval_term(t.args[1], budget, env)
    if rel in ("eq", "ne"):
        a = eval_term(t.args[0], budget, env)
        b = eval_term(t.args[1], budget, env)
        return (a == b) if rel == "eq" else (a != b)
    a = _as_num(eval_term(t.args[0], budget, env))
    if rel == "lt":
        return a < _as_num(eval_term(t.args[1], budget, env))
    if rel == "le":
        return a <= _as_num(eval_term(t.args[1], budget, env))
    if rel == "dvd":
        b = _as_num(eval_term(t.args[1], budget, env))
        ai, bi = int(a), int(b)
        return bi == 0 if ai == 0 else bi % ai == 0
    if rel == "even":
        return int(a) % 2 == 0
    if rel == "odd":
        return int(a) % 2 == 1
    return is_prime(int(a), budget)     # prime, the last of mk_atom's


def _eval_conn(t: Conn, budget: Budget, env: Env) -> bool:
    op = t.op
    if op == "true":
        return True
    if op == "false":
        return False
    if op == "not":
        return not eval_term(t.args[0], budget, env)
    a = eval_term(t.args[0], budget, env)
    b = eval_term(t.args[1], budget, env)
    if op == "and":
        return a and b
    if op == "or":
        return a or b
    if op == "imp":
        return (not a) or b
    if op == "iff":
        return a == b
    raise AssertionError(op)


# -- bounded enumeration ------------------------------------------------------

_PROBE = "$probe"


def _conjuncts(t: Term) -> list[Term]:
    if isinstance(t, Conn) and t.op == "and":
        return _conjuncts(t.args[0]) + _conjuncts(t.args[1])
    return [t]


def _literal(t: Term, budget: Budget, env: Env) -> Optional[Fraction]:
    try:
        v = eval_term(t, budget, env)
    except TacticFailed:
        return None
    return v if isinstance(v, Fraction) else None


def _probe_bounds(parts: list[Term], budget: Budget, env: Env = ()
                  ) -> tuple[Optional[Fraction], Optional[Fraction]]:
    """Literal lower/upper bounds for the probe variable, if derivable;
    the bounds are evaluated under `env`."""
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None

    def is_probe(t: Term) -> bool:
        return isinstance(t, Var) and t.name == _PROBE

    def tighten_lo(v: Fraction) -> None:
        nonlocal lo
        lo = v if lo is None else max(lo, v)

    def tighten_hi(v: Fraction) -> None:
        nonlocal hi
        hi = v if hi is None else min(hi, v)

    for part in parts:
        if not isinstance(part, Atom):
            continue
        rel, args = part.rel, part.args
        if rel in ("le", "lt") and is_probe(args[0]):
            v = _literal(args[1], budget, env)
            if v is not None:
                tighten_hi(v if rel == "le" else v - 1)
        elif rel in ("le", "lt") and is_probe(args[1]):
            v = _literal(args[0], budget, env)
            if v is not None:
                tighten_lo(v if rel == "le" else v + 1)
        elif rel in ("le", "lt") and isinstance(args[0], App) \
                and args[0].op == "abs":
            inner = args[0].args[0]
            centred = isinstance(inner, App) and inner.op == "sub" \
                and is_probe(inner.args[0])
            if not (centred or is_probe(inner)):
                # only `abs p` and `abs (p - c)` bound the probe `p`;
                # for any other `abs` the bound side is not evaluated
                continue
            k = _literal(args[1], budget, env)
            if k is None:
                continue
            if rel == "lt":
                k -= 1
            center = _literal(inner.args[1], budget, env) if centred \
                else Fraction(0)
            if center is not None:
                tighten_lo(center - k)
                tighten_hi(center + k)
        elif rel == "eq":
            if is_probe(args[0]):
                v = _literal(args[1], budget, env)
            elif is_probe(args[1]):
                v = _literal(args[0], budget, env)
            else:
                v = None
            if v is not None:
                tighten_lo(v)
                tighten_hi(v)
        elif rel == "mem" and is_probe(args[0]):
            try:
                s = eval_term(args[1], budget, env)
            except TacticFailed:
                continue
            if isinstance(s, frozenset) and s:
                tighten_lo(min(s))
                tighten_hi(max(s))
            elif isinstance(s, frozenset):
                tighten_lo(Fraction(1))
                tighten_hi(Fraction(0))
    return lo, hi


def _enum_range(body: Term, vsort: Sort, budget: Budget, for_all: bool,
                env: Env) -> Optional[range]:
    probe = mk_var(_PROBE, vsort)
    opened = instantiate_bvar(body, probe)
    if for_all and isinstance(opened, Conn) and opened.op == "imp":
        parts = _conjuncts(opened.args[0])
    else:
        parts = _conjuncts(opened)
    lo, hi = _probe_bounds(parts, budget, env)
    if vsort == NAT:
        lo = Fraction(0) if lo is None else max(lo, Fraction(0))
    if lo is None or hi is None:
        return None
    return range(math.ceil(lo), math.floor(hi) + 1)


def _eval_quant(t: Binder, budget: Budget, env: Env) -> bool:
    if t.vsort not in (NAT, INT):
        raise EvalNotClosed(f"quantifier over {t.vsort}")
    rng = _enum_range(t.body, t.vsort, budget, t.kind == "forall", env)
    if rng is None:
        raise EvalNotClosed("quantifier without derivable literal bounds")
    for k in rng:
        budget.charge()
        v = eval_term(t.body, budget, (Fraction(k),) + env)
        if t.kind == "exists" and v:
            return True
        if t.kind == "forall" and not v:
            return False
    return t.kind == "forall"


def _eval_setb(t: Binder, budget: Budget, env: Env) -> FinSet:
    if t.vsort not in (NAT, INT):
        raise EvalNotClosed(f"set-builder over {t.vsort}")
    rng = _enum_range(t.body, t.vsort, budget, for_all=False, env=env)
    if rng is None:
        raise EvalNotClosed("set-builder without derivable literal bounds")
    out: set[Fraction] = set()
    for k in rng:
        budget.charge()
        v = Fraction(k)
        if eval_term(t.body, budget, (v,) + env):
            out.add(v)
    return frozenset(out)


def _eval_sum(t: App, budget: Budget, env: Env) -> Fraction:
    s = eval_term(t.args[0], budget, env)
    lam = t.args[1]
    if not isinstance(lam, Binder) or lam.kind != "lam":
        raise EvalNotClosed("sum body is not a function literal")
    total = Fraction(0)
    for v in sorted(s):
        budget.charge()
        total += _as_num(eval_term(lam.body, budget, (v,) + env))
    return total


# -- the tactic ---------------------------------------------------------------


def decide_prop(prop: Term, budget_n: int = DEFAULT_BUDGET) -> tuple[bool, int]:
    """Evaluate one closed proposition; returns (verdict, budget used)."""
    budget = Budget(budget_n)
    v = eval_term(normalize(prop), budget)
    return v, budget_n - budget.remaining


def eval_at(t: Term, point: Point, budget_n: int) -> Value:
    """The value of `t` (normalized) when each variable named in `point`
    takes its value there, under a budget of `budget_n` steps.  Builds
    no terms; a node met again at the same point is not evaluated again.
    Real terms evaluate as Rat (`_eval_real`).  Raises TacticFailed where
    `eval_term` would, and on a variable the point does not name."""
    return eval_term(normalize(t), Budget(budget_n, point))


def _value_term(v: Value, sort: Sort) -> Term:
    if isinstance(v, bool):
        return mk_conn("true" if v else "false", ())
    if isinstance(v, Fraction):
        if lit_bits(v) > MAX_LIT_BITS:
            raise EvalBudgetExceeded(
                f"value of more than {MAX_LIT_BITS} bits")
        return mk_lit(v, sort)
    raise EvalNotClosed("cannot reify a set value into an answer term")


def _assign_split(concl: Term, pending: Collection[str]
                  ) -> Optional[tuple[Meta, Term]]:
    """Detect `?w = t` / `t = ?w` / `?w <-> p` with ?w a pending hole."""
    pair = eq_sides(concl)
    if pair is None:
        return None
    for me, other in (pair, pair[::-1]):
        if isinstance(me, Meta) and me.mid in pending \
                and not metavars_of(other):
            return me, other
    return None


def eval_fills(concl: Term, pending: Collection[str], budget_n: int
               ) -> tuple[tuple[str, Term], ...]:
    """The holes an eval_decide step on `concl` fills, within `budget_n`
    enumeration steps; the one evaluation closure test.

    When `concl` is `?w = t`, `t = ?w` or `?w <-> p` with `?w` one of the
    `pending` holes and the other side meta-free, the step fills `?w`
    with the value of that side.  Otherwise `concl` must be closed and
    evaluate to True, and the step fills nothing.  Raises TacticFailed on
    anything else."""
    normalized = normalize(concl)
    split = _assign_split(normalized, pending)
    if split is not None:
        me, other = split
        value = _value_term(eval_term(other, Budget(budget_n)), me.sort)
        return ((me.mid, value),)
    if metavars_of(normalized):
        raise EvalNotClosed("conclusion still contains metavariables")
    if not eval_term(normalized, Budget(budget_n)):
        raise EvaluatesFalse(normalized)
    return ()


@register_tactic("eval_decide")
def eval_decide(state: SolutionState, goal: Goal, argtext: str
                ) -> TacticResult:
    budget_n = int_arg(argtext, DEFAULT_BUDGET)
    return TacticResult(cert=Certificate(
        "eval_decide", goal, {"budget": budget_n},
        eval_fills(goal.concl, state.pending_holes(), budget_n)))


def _eval_decide_line(detail: dict, argtext: str) -> bool:
    return detail_value("eval_decide", detail, "budget", int) \
        == int_arg(argtext, DEFAULT_BUDGET)


@register_check("eval_decide", line=_eval_decide_line)
def revalidate_eval_decide(cert: Certificate) -> None:
    """Evaluate again under the budget the tactic ran under, with the
    holes it fills, if any, as the pending ones: the same fills."""
    budget_n = detail_value("eval_decide", cert.detail, "budget", int)
    try:
        fills = eval_fills(
            cert.goal.concl, [mid for mid, _ in cert.assigns], budget_n)
    except TacticFailed as e:
        raise CertificateError(f"eval_decide no longer evaluates: {e}")
    if fills != cert.assigns:
        raise CertificateError("eval_decide assignment mismatch")
