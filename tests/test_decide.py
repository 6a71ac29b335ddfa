"""Exact evaluation: spec vectors plus an independent brute-force oracle."""

from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bind
from holebox.expr import (
    INT, NAT, PROP, RAT, REAL, App, BVar, Binder, Lit, LocalDecl, Telescope,
    Var, fn, instantiate_bvar, mk_app, mk_atom, mk_conn, mk_lit, mk_var,
    subterms,
)
from holebox.kernel import Goal, SolutionState, TacticFailed, apply_tactic
from holebox.norm import normalize
from holebox.syntax import parse_term
from holebox.tactics import decide as decide_mod
from holebox.tactics.decide import (
    DEFAULT_BUDGET, Budget, EvalBudgetExceeded, EvalNotClosed, EvaluatesFalse,
    Point, decide_prop, eval_at, eval_fills, eval_term,
)


def decide(text, expected=PROP):
    return decide_prop(parse_term(text, Telescope(), expected))[0]


def test_rational_scientific():
    assert decide("(364000 : Rat) = 3.64 * 10^5")


def test_divisor_sum_284():
    assert decide("(sum d in {y : Nat | y in divisors 284 /\\ y < 284}, d)"
                  " = 220")


def test_units_digit():
    assert decide("(16^17 * 17^18 * 18^19) % 10 = 8")


def test_cardinality_bounded_enumeration():
    assert decide("card {x : Int | abs (x - 2) <= 28 / 5} = 11")


def test_primality_trial_division():
    assert decide("not prime (2^(2^5) + 1)")
    assert decide("prime (2^(2^4) + 1)")


def test_bounded_quantifiers():
    assert decide("forall (p : Nat), 90 < p /\\ p < 96 -> not prime p")
    assert decide("exists (p : Nat), 89 < p /\\ p < 98 /\\ prime p")


def test_evaluates_false_is_distinct():
    from holebox.expr import LocalDecl
    from holebox.kernel import Goal, SolutionState, apply_tactic
    tele = Telescope((LocalDecl("x", INT),))
    open_goal = Goal("h", tele, parse_term("x = x", tele, PROP))
    false_goal = Goal("h", Telescope(), parse_term("1 = 2", Telescope(), PROP))
    with pytest.raises(EvaluatesFalse):
        apply_tactic(SolutionState(goals=(false_goal,)), "h",
                     "eval_decide", "")
    with pytest.raises(EvalNotClosed):
        apply_tactic(SolutionState(goals=(open_goal,)), "h",
                     "eval_decide", "")


def test_budget_exceeded():
    with pytest.raises(EvalBudgetExceeded):
        decide_prop(parse_term("card {x : Int | abs x <= 10^7} = 1",
                               Telescope(), PROP), budget_n=1000)


def test_mod_zero_and_div_zero_conventions():
    assert decide("7 % 0 = 7")
    assert decide("(3 / 0 : Rat) = 0")
    assert decide("((-7) : Int) / 2 = -4")   # floor division
    assert decide("(-11213141) % 18 = 13")


def test_oracle_agreement_closed_props(fuzzer, rng):
    """Engine verdicts equal independent evaluation on closed propositions."""
    from conftest import brute_eval
    from holebox.expr import mk_app, mk_atom, mk_conn
    ops = ["add", "sub", "mul", "mod"]
    rels = ["eq", "ne", "lt", "le", "dvd"]

    def closed_num(depth):
        if depth <= 0 or rng.random() < 0.4:
            return mk_lit(rng.randint(-20, 20), INT)
        return mk_app(rng.choice(ops),
                      (closed_num(depth - 1), closed_num(depth - 1)))

    def closed_prop(depth):
        if depth <= 0 or rng.random() < 0.5:
            return mk_atom(rng.choice(rels),
                           (closed_num(2), closed_num(2)))
        op = rng.choice(["and", "or", "imp", "not"])
        if op == "not":
            return mk_conn("not", (closed_prop(depth - 1),))
        return mk_conn(op, (closed_prop(depth - 1), closed_prop(depth - 1)))

    for _ in range(500):
        prop = closed_prop(3)
        got, _ = decide_prop(prop)
        assert got == brute_eval(prop)


def _eval_cert(text, metas=None):
    """The certificate eval_decide records for the goal `text`, checked."""
    from holebox.kernel import Goal, Hole, SolutionState, apply_tactic
    from holebox.tactics.decide import revalidate_eval_decide
    tele = Telescope()
    holes = tuple(Hole(m, tele, s) for m, s in (metas or {}).items())
    goal = Goal("h", tele, parse_term(text, tele, PROP, metas=metas))
    state = SolutionState(goals=(goal,), holes=holes)
    cert = apply_tactic(state, "h", "eval_decide", "").trace[-1].cert
    revalidate_eval_decide(cert)
    return cert


def _open_goal_certs():
    """Certificates that claim eval_decide closed the open goal x = 1,
    then a genuine eval_decide certificate with its fill replaced:
    another value, another hole, or the hole twice."""
    from dataclasses import replace
    from holebox.expr import LocalDecl
    from holebox.kernel import Certificate, Goal
    tele = Telescope((LocalDecl("x", INT),))
    goal = Goal("h", tele, parse_term("x = 1", tele, PROP))
    assigned = Goal("h", tele, parse_term("?w = x", tele, PROP,
                                          metas={"w": INT}))
    filled = _eval_cert("?w = 2 + 2", {"w": INT})
    budget = {"budget": DEFAULT_BUDGET}
    return [
        Certificate("eval_decide", goal, budget),
        Certificate("eval_decide", assigned, budget,
                    (("w", mk_lit(1, INT)),)),
        Certificate("rw_search", goal, {
            "path": [], "closer": ("eval_decide", budget)}),
        replace(filled, assigns=(("w", mk_lit(5, INT)),)),
        replace(filled, assigns=(("v", mk_lit(4, INT)),)),
        replace(filled, assigns=filled.assigns * 2),
    ]


def test_open_goal_certificates_rejected_by_each_revalidator():
    from holebox.kernel import CertificateError
    from holebox.tactics.decide import revalidate_eval_decide
    from holebox.tactics.rewrite import revalidate_rw_search
    certs = _open_goal_certs()
    checks = (revalidate_eval_decide, revalidate_eval_decide,
              revalidate_rw_search, revalidate_eval_decide,
              revalidate_eval_decide, revalidate_eval_decide)
    assert len(certs) == len(checks)
    for cert, check in zip(certs, checks):
        with pytest.raises(CertificateError):
            check(cert)


def test_replay_check_rejects_open_goal_eval_certificate(monkeypatch):
    # a broken eval_decide that closes any goal with a certificate for
    # the open goal x = 1: replay accepts the script, recheck rejects it
    import json
    from holebox.fps import replay_check
    from holebox.kernel import TACTICS, TacticResult
    from holebox.syntax import parse_problem, parse_script
    certs = _open_goal_certs()
    monkeypatch.setitem(TACTICS, "eval_decide",
                        lambda state, goal, argtext:
                        TacticResult(cert=certs[0]))
    problem = parse_problem(json.dumps({
        "format_version": "1", "framework": "fps", "vars": [],
        "queriable": ["a", "Int"], "hypotheses": [],
        "conclusions": ["a = 1"]}))
    report = replay_check(problem,
                          parse_script(["@goal w exact 1", "eval_decide"]))
    assert not report.accepted
    assert "eval_decide" in report.reason


def test_oversized_products_still_decide():
    # normalization leaves the 19932-bit product unfolded; evaluation
    # still decides it
    assert decide("10^3000 * 10^3000 > 0")
    assert decide("10^3000 * 10^3000 - 10^6000 = 0")


def test_certificate_rechecks_under_the_budget_it_ran_under(monkeypatch):
    # with the default budget lowered below the 3001 steps this goal
    # takes, `eval_decide 100000` closes it and recheck still accepts
    from holebox.kernel import Goal, SolutionState, apply_tactic, recheck
    from holebox.tactics import decide as decide_mod
    monkeypatch.setattr(decide_mod, "DEFAULT_BUDGET", 1000)
    monkeypatch.setattr(decide_mod.decide_prop, "__defaults__", (1000,))
    prop = parse_term("card {x : Int | 0 <= x /\\ x <= 3000} = 3001",
                      Telescope(), PROP)
    state = SolutionState(goals=(Goal("h", Telescope(), prop),))
    with pytest.raises(EvalBudgetExceeded):
        apply_tactic(state, "h", "eval_decide", "")
    done = apply_tactic(state, "h", "eval_decide", "100000")
    assert done.trace[-1].cert.detail["budget"] == 100000
    recheck(done)


# -- binder bodies under an environment ---------------------------------------
#
# `eval_term` evaluates a binder body once per element with the element's
# value in an environment.  The reference below is the evaluator it
# replaced: every element is substituted into the body as a literal and
# the instance normalized and evaluated afresh.  It swaps in only the
# three enumeration loops, so everything else (dispatch, bound probing,
# budget charging) is shared, and the two must agree on the value or the
# exception class and on the budget left.  It runs without the evaluation
# memo (below), so that a memo the first evaluator wrote cannot answer
# for it.


def _subst_quant(t, budget, env):
    assert env == ()
    if t.vsort not in (NAT, INT):
        raise EvalNotClosed(f"quantifier over {t.vsort}")
    rng = decide_mod._enum_range(t.body, t.vsort, budget,
                                 t.kind == "forall", ())
    if rng is None:
        raise EvalNotClosed("quantifier without derivable literal bounds")
    for k in rng:
        budget.charge()
        inst = normalize(instantiate_bvar(t.body, mk_lit(k, t.vsort)))
        v = decide_mod._as_bool(decide_mod.eval_term(inst, budget))
        if t.kind == "exists" and v:
            return True
        if t.kind == "forall" and not v:
            return False
    return t.kind == "forall"


def _subst_setb(t, budget, env):
    assert env == ()
    if t.vsort not in (NAT, INT):
        raise EvalNotClosed(f"set-builder over {t.vsort}")
    rng = decide_mod._enum_range(t.body, t.vsort, budget, for_all=False,
                                 env=())
    if rng is None:
        raise EvalNotClosed("set-builder without derivable literal bounds")
    out = set()
    for k in rng:
        budget.charge()
        inst = normalize(instantiate_bvar(t.body, mk_lit(k, t.vsort)))
        if decide_mod._as_bool(decide_mod.eval_term(inst, budget)):
            out.add(Fraction(k))
    return frozenset(out)


def _subst_sum(t, budget, env):
    assert env == ()
    s = decide_mod.eval_term(t.args[0], budget)
    if not isinstance(s, frozenset):
        raise EvalNotClosed("sum over a non-enumerable set")
    lam = t.args[1]
    if not isinstance(lam, Binder) or lam.kind != "lam":
        raise EvalNotClosed("sum body is not a function literal")
    total = Fraction(0)
    for v in sorted(s):
        budget.charge()
        body = normalize(instantiate_bvar(lam.body, mk_lit(v, lam.vsort)))
        total += decide_mod._as_num(decide_mod.eval_term(body, budget))
    return total


def _memo_free_eval_term(t, budget, env=()):
    """`eval_term` without its memo: every node is dispatched, and no
    slot is read or written."""
    return decide_mod._eval(t, budget, env)


@contextmanager
def _memo_free_reference():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decide_mod, "eval_term", _memo_free_eval_term)
        yield mp


@contextmanager
def _substitution_reference():
    with _memo_free_reference() as mp:
        mp.setattr(decide_mod, "_eval_quant", _subst_quant)
        mp.setattr(decide_mod, "_eval_setb", _subst_setb)
        mp.setattr(decide_mod, "_eval_sum", _subst_sum)
        yield


def _outcome(prop, budget_n):
    """(value or exception class, budget left) of the top-level
    evaluation `eval_fills` makes."""
    budget = Budget(budget_n)
    try:
        value = decide_mod.eval_term(normalize(prop), budget)
    except TacticFailed as e:
        value = type(e)
    return value, budget.remaining


class _BinderTerms:
    """Bounded binders over Nat/Int with small values; a bound may
    mention outer bound variables, and may itself cost budget."""

    def __init__(self, draw):
        self.draw = draw
        self.fresh = 0

    def pick(self, xs):
        return self.draw(st.sampled_from(xs))

    def var(self, scope, sort):
        names = [n for n, s in scope if s == sort]
        return mk_var(self.pick(names), sort) if names else None

    def num(self, scope, sort, depth):
        lo = 0 if sort == NAT else -4
        leaf = mk_lit(self.draw(st.integers(lo, 9)), sort)
        kinds = ["lit"]
        if any(s == sort for _, s in scope):
            kinds += ["var", "var"]
        if depth > 0:
            kinds += ["add", "sub", "mul", "mod", "div", "pow", "abs", "sum",
                      "open"]
            if sort == NAT:
                kinds += ["card", "card"]
        kind = self.pick(kinds)
        if kind == "lit":
            return leaf
        if kind == "open":
            return mk_var("free", sort)     # never evaluable
        if kind == "var":
            return self.var(scope, sort)
        if kind in ("add", "sub", "mul", "mod", "div"):
            return mk_app(kind, (self.num(scope, sort, depth - 1),
                                 self.num(scope, sort, depth - 1)))
        if kind == "pow":
            return mk_app("pow", (self.num(scope, sort, depth - 1),
                                  mk_lit(self.draw(st.integers(0, 2)), NAT)))
        if kind == "abs":
            return mk_app("abs", (self.num(scope, sort, depth - 1),))
        if kind == "card":
            return self.card(scope, depth - 1)
        return self.sum(scope, sort, depth - 1)

    def card(self, scope, depth):
        return mk_app("card", (self.set(scope, self.pick([NAT, INT]),
                                        depth),))

    def sum(self, scope, sort, depth):
        esort = self.pick([NAT, INT])
        s = self.set(scope, esort, depth)
        name = self.name()
        body = self.num(scope + [(name, esort)], sort, depth)
        return mk_app("sum", (s, bind("lam", name, esort, body)))

    def name(self):
        self.fresh += 1
        return f"b{self.fresh}"

    def bounds(self, scope, x, sort, depth):
        """A conjunction bounding the Var `x`, sometimes too weak to
        enumerate, sometimes with a side condition on outer variables
        alone, which the bound probe must pass over."""
        outer = scope[:-1]
        shape = self.pick(["interval", "interval", "interval", "eq",
                           "upper", "abs" if sort == INT else "divisors"])
        if shape == "interval":
            lo_rel, hi_rel = self.pick(["le", "lt"]), self.pick(["le", "lt"])
            guard = mk_conn("and", (
                mk_atom(lo_rel, (self.num(outer, sort, depth), x)),
                mk_atom(hi_rel, (x, self.num(outer, sort, depth)))))
        elif shape == "abs":
            centre = self.pick([x, mk_app("sub", (x, self.num(outer, INT,
                                                              depth)))])
            guard = mk_atom(self.pick(["le", "lt"]),
                            (mk_app("abs", (centre,)),
                             self.num(outer, INT, depth)))
        elif shape == "divisors":
            guard = mk_atom("mem", (x, mk_app("divisors", (
                self.num(outer, NAT, depth),))))
        elif shape == "eq":
            guard = mk_atom("eq", (x, self.num(outer, sort, depth)))
        else:
            guard = mk_atom(self.pick(["le", "lt"]),
                            (x, self.num(outer, sort, depth)))
        if self.draw(st.booleans()):
            side = self.var(outer, sort) or self.num(outer, sort, depth)
            guard = mk_conn("and", (guard, mk_atom(
                self.pick(["le", "lt"]),
                (mk_app("abs", (side,)), self.num(outer, sort, depth + 1)))))
        return guard

    def set(self, scope, sort, depth):
        kind = self.pick(["range", "setb", "setb", "Icc", "setlit"]
                         + (["divisors"] if sort == NAT else []))
        if kind == "range" or kind == "Icc":
            return mk_app(kind, (self.num(scope, sort, depth),
                                 self.num(scope, sort, depth)))
        if kind == "setlit":
            return mk_app("setlit", (self.num(scope, sort, depth),
                                     self.num(scope, sort, depth)))
        if kind == "divisors":
            return mk_app("divisors", (self.num(scope, NAT, depth),))
        name = self.name()
        inner = scope + [(name, sort)]
        x = mk_var(name, sort)
        body = mk_conn("and", (self.bounds(inner, x, sort, depth),
                               self.prop(inner, depth)))
        return bind("setb", name, sort, body)

    def prop(self, scope, depth, binder=False):
        """A proposition; with `binder`, one that evaluates a binder."""
        binders = ["exists", "forall", "card", "sum", "seteq", "mem"]
        if binder:
            kinds = binders
        else:
            kinds = ["cmp", "cmp", "mem", "dvd", "parity", "prime"]
            if depth > 0:
                kinds += ["and", "or", "not"] + binders
        kind = self.pick(kinds)
        sort = self.pick([NAT, INT])
        if kind in ("card", "sum"):
            n = self.card(scope, depth - 1) if kind == "card" \
                else self.sum(scope, sort, depth - 1)
            return mk_atom(self.pick(["le", "eq", "ne"]),
                           (n, self.num(scope, n.sort, depth - 1)))
        if kind == "cmp":
            return mk_atom(self.pick(["le", "lt", "eq", "ne"]),
                           (self.num(scope, sort, depth),
                            self.num(scope, sort, depth)))
        if kind == "mem":
            return mk_atom("mem", (self.num(scope, sort, depth),
                                   self.set(scope, sort, max(depth - 1, 0))))
        if kind == "dvd":
            return mk_atom("dvd", (self.num(scope, sort, depth),
                                   self.num(scope, sort, depth)))
        if kind in ("parity", "prime"):
            rel = "prime" if kind == "prime" else self.pick(["even", "odd"])
            return mk_atom(rel, (self.num(scope, sort, depth),))
        if kind in ("and", "or"):
            return mk_conn(kind, (self.prop(scope, depth - 1),
                                  self.prop(scope, depth - 1)))
        if kind == "not":
            return mk_conn("not", (self.prop(scope, depth - 1),))
        if kind == "seteq":
            return mk_atom("eq", (self.set(scope, sort, max(depth - 1, 0)),
                                  self.set(scope, sort, max(depth - 1, 0))))
        name = self.name()
        inner = scope + [(name, sort)]
        x = mk_var(name, sort)
        guard = self.bounds(inner, x, sort, max(depth - 1, 0))
        rest = self.prop(inner, max(depth - 1, 0))
        body = mk_conn("imp" if kind == "forall" else "and", (guard, rest))
        return bind(kind, name, sort, body)


@st.composite
def _binder_props(draw):
    terms = _BinderTerms(draw)
    return terms.prop([], draw(st.integers(1, 3)), binder=True)


def _assert_agrees(prop, most=None):
    """The two evaluators agree under a full budget and under every
    budget up to the steps `prop` takes (or `most`), so that the budget
    runs out at each step in turn."""
    full = 3000
    used = full - _outcome(prop, full)[1]
    for budget_n in [full, *range(min(used, most or used) + 1)]:
        got = _outcome(prop, budget_n)
        with _substitution_reference():
            want = _outcome(prop, budget_n)
        assert got == want, budget_n


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_binder_props())
def test_environment_evaluation_matches_substitution(prop):
    _assert_agrees(prop, most=80)


@pytest.mark.parametrize("text", [
    # inner bounds that read the outer variable
    "card {x : Nat | x <= 6 /\\ card {y : Nat | x <= y /\\ y <= 2 * x}"
    " = x + 1} = 7",
    "forall (a : Int), abs a <= 3 ->"
    " (sum b in {b : Int | abs (b - a) <= 2}, b) = 5 * a",
    "forall (n : Nat), n <= 12 -> (sum d in {d : Nat | d in divisors n}, d)"
    " >= n",
    "exists (a : Int), -3 <= a /\\ a <= 3 /\\"
    " (forall (b : Int), a <= b /\\ b < a + 4 -> b * b >= 0) /\\ a = 3",
    # an `abs` over the outer variable alone, beside a costly bound: the
    # substituted body folds it to a literal, so its bound is never read
    "exists (x : Nat), x <= 2 /\\ (exists (y : Nat), y <= 1 /\\"
    " abs (x - 3) <= card {z : Nat | z <= 5} /\\ x = 2)",
    # bodies that fail on their first element: the budget must run out
    # before the body is evaluated, never after
    "forall (x : Nat), x <= 3 -> x <= n",
    "card {x : Nat | x <= 3 /\\ x < n} = 0",
    "(sum x in {x : Nat | x <= 3}, x * n) = 0",
])
def test_binder_cases_match_substitution(text):
    open_n = Telescope((LocalDecl("n", NAT),))
    _assert_agrees(parse_term(text, open_n, PROP))


# -- the evaluation memo ------------------------------------------------------
#
# `eval_term` keeps a closed node's value and the steps it charged in the
# node's `_eval_memo`.  Against the memo-free evaluator it must agree on
# the value or the exception class and on the budget left, under every
# budget up to the steps an input takes: cold (no memo in the term), and
# warm, after the whole term or one closed subterm was evaluated first.


def _forget_evaluations(t):
    for s in subterms(t):
        s._eval_memo = None


def _closed_subterms(t):
    return [s for s in subterms(t)
            if not s.bvar_bound and not s.has_meta and not isinstance(s, Lit)]


def _assert_memo_agrees(prop, warm, most=None):
    """With the term's memos cleared and `warm` (if any) evaluated under
    a full budget, each evaluation agrees with the memo-free one."""
    full = 3000
    with _memo_free_reference():
        used = full - _outcome(prop, full)[1]
    t = normalize(prop)
    for budget_n in [full, *range(min(used, most or used) + 1)]:
        with _memo_free_reference():
            want = _outcome(prop, budget_n)
        _forget_evaluations(t)
        if warm is not None:
            try:
                eval_term(warm, Budget(full))
            except TacticFailed:
                pass
        assert _outcome(prop, budget_n) == want, budget_n


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_binder_props(), st.data())
def test_evaluation_memo_matches_the_memo_free_evaluator(prop, data):
    t = normalize(prop)
    sub = data.draw(st.sampled_from(_closed_subterms(t)))
    for warm in (None, t, sub):
        _assert_memo_agrees(prop, warm, most=80)


def test_an_overdrawn_evaluation_is_not_memoized():
    # the second bound's evaluation runs out of budget inside
    # `_probe_bounds` and is passed over; the first bound already leaves
    # no element, so the evaluation ends, True, with the budget overdrawn
    prop = parse_term("forall (x : Nat), x < 0 /\\ x <= card {y : Nat |"
                      " y <= 20} -> x = 5", Telescope(), PROP)
    t = normalize(prop)
    _forget_evaluations(t)
    assert _outcome(prop, 5) == (True, -1)
    assert t._eval_memo is None
    assert _outcome(prop, 3000) == (True, 2979)
    assert t._eval_memo == (True, 21)
    # and after the overdrawn run, every budget agrees with no memo
    _forget_evaluations(t)
    _outcome(prop, 5)
    for budget_n in range(30):
        with _memo_free_reference():
            want = _outcome(prop, budget_n)
        assert _outcome(prop, budget_n) == want, budget_n


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_binder_props())
def test_normal_forms_hold_no_set_literal_or_range(prop):
    # so the evaluator needs no case for either: `normalize` unfolds both
    # into set-builders before anything is evaluated
    assert not {s.op for s in subterms(normalize(prop))
                if isinstance(s, App)} & {"setlit", "range"}


def test_real_bound_variable_is_not_closed():
    with pytest.raises(EvalNotClosed):
        eval_term(BVar(REAL, 0), Budget(10), (Fraction(1),))
    with pytest.raises(EvalNotClosed):
        eval_term(BVar(INT, 0), Budget(10))
    assert eval_term(BVar(INT, 1), Budget(10),
                     (Fraction(1), Fraction(2))) == 2


@pytest.mark.parametrize("text, probes", [
    ("card {x : Nat | 0 <= x /\\ x <= 2000 /\\ x % 7 = 3} = 286", 1),
    ("forall (x : Int), -1000 <= x /\\ x <= 1000 -> x * x >= x", 1),
    ("(sum d in divisors 720720, d) = 3249792", 0),
])
def test_binder_bodies_are_not_rebuilt_per_element(monkeypatch, text, probes):
    # one normalize (the conclusion's) and one instantiate_bvar per binder
    # (its bound probe), however many elements the binder enumerates
    calls = {"normalize": 0, "instantiate_bvar": 0}

    def counted(name):
        f = getattr(decide_mod, name)

        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(decide_mod, name, counted(name))
    concl = parse_term(text, Telescope(), PROP)
    assert eval_fills(concl, (), DEFAULT_BUDGET) == ()
    assert calls == {"normalize": 1, "instantiate_bvar": probes}


# -- evaluation at a point ---------------------------------------------------

POINT_TELE = Telescope((LocalDecl("x", INT), LocalDecl("n", NAT),
                        LocalDecl("q", RAT), LocalDecl("r", REAL)))


def test_evaluation_at_a_point_writes_no_memo():
    # a node that mentions a variable still fails to evaluate without the
    # point afterwards: its value at the point was not kept on the node
    chain = normalize(parse_term(
        "x = 1 \\/ x = 2 \\/ n + 3 = 7 \\/ q < 1", POINT_TELE, PROP))
    point = Point({"x": 3, "n": 4, "q": Fraction(1, 2)})
    assert eval_at(chain, point, DEFAULT_BUDGET) is True
    for t in subterms(chain):
        if t.bvar_bound or t.has_meta or isinstance(t, Lit):
            continue
        if any(isinstance(s, Var) for s in subterms(t)):
            assert t._eval_memo is None
            with pytest.raises(EvalNotClosed):
                eval_term(t, Budget(DEFAULT_BUDGET))


def test_evaluation_at_a_point_evaluates_a_tail_once(monkeypatch):
    chain = normalize(parse_term(
        "x = 1 \\/ x = 2 \\/ x = 3 \\/ x = 4", POINT_TELE, PROP))
    tail = chain.args[1]
    point = Point({"x": 5})
    assert eval_at(tail, point, DEFAULT_BUDGET) is False
    calls = []
    evaluate = decide_mod._eval

    def counted(t, budget, env):
        calls.append(t)
        return evaluate(t, budget, env)

    monkeypatch.setattr(decide_mod, "_eval", counted)
    assert eval_at(chain, point, DEFAULT_BUDGET) is False
    # the chain, its head `x = 1` and the literal 1; `x` and the tail
    # are read off the point
    head = chain.args[0]
    assert calls == [chain, head, head.args[1]]
    assert eval_at(chain, Point({"x": 4}), DEFAULT_BUDGET) is True


def test_evaluation_at_a_point_refuses_real_and_unnamed_variables():
    # a Real variable the point names takes its value there; an unnamed
    # variable refuses
    point = Point({"x": 1, "r": 1})
    for text, want in (("x + 1 = 2", True), ("r = 1", True),
                       ("n = 0", None)):
        prop = parse_term(text, POINT_TELE, PROP)
        if want is None:
            with pytest.raises(EvalNotClosed):
                eval_at(prop, point, DEFAULT_BUDGET)
        else:
            assert eval_at(prop, point, DEFAULT_BUDGET) is want


REAL_TELE = Telescope((LocalDecl("r", REAL), LocalDecl("f", fn(REAL, REAL))))


def test_real_evaluates_as_rat_at_a_point():
    point = Point({"r": Fraction(1, 2)})
    for text, want in (
            ("r + 1 = 3/2", True), ("r - 1 = -1/2", True),
            ("2 * r = 1", True), ("-r < 0", True),
            ("abs (r - 1) = 1/2", True), ("1 / r = 2", True),
            ("r / 4 = 1/8", True), ("r ^ 3 = 1/8", True),
            ("r ^ 0 = 1", True), ("r <= 1/2", True), ("r < 1/2", False),
            ("r * r * r = 5", False), ("(1 : Real) + 2 = 3", True)):
        prop = parse_term(text, REAL_TELE, PROP)
        assert eval_at(prop, point, DEFAULT_BUDGET) is want, text


def test_real_at_a_point_refuses_a_zero_divisor_and_what_is_not_a_field():
    for text, value in (
            ("1 / r = 0", 0), ("r / (r - 1) = 0", 1), ("sqrt r = 1", 1),
            ("log r = 0", 1), ("pi > 3", 1), ("r ^ (1/2) = 1", 1),
            ("(2 : Real) ^ r = 2", Fraction(1, 2)), ("f r = 1", 1),
            ("r = f 0", 1)):
        prop = parse_term(text, REAL_TELE, PROP)
        with pytest.raises(EvalNotClosed):
            eval_at(prop, Point({"r": value}), DEFAULT_BUDGET)


def test_real_without_a_point_still_refuses():
    # off a point nothing changed: a Real term, even a closed one, raises
    # EvalNotClosed, and eval_decide closes no Real goal
    for text in ("(1 : Real) + 2 = 3", "(1 : Real) / 2 < 1",
                 "abs (-1 : Real) = 1"):
        prop = parse_term(text, Telescope(), PROP)
        with pytest.raises(EvalNotClosed):
            eval_term(normalize(prop), Budget(DEFAULT_BUDGET))
        with pytest.raises(EvalNotClosed):
            decide_prop(prop)
        with pytest.raises(TacticFailed):
            apply_tactic(SolutionState(goals=(Goal("h", Telescope(), prop),)),
                         "h", "eval_decide", "")
