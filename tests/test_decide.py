"""Exact evaluation: spec vectors plus an independent brute-force oracle."""

import pytest

from holebox.expr import INT, PROP, Telescope, mk_lit
from holebox.syntax import parse_term
from holebox.tactics.decide import (
    DEFAULT_BUDGET, EvalBudgetExceeded, EvalNotClosed, EvaluatesFalse,
    decide_prop,
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
    from holebox.tactics import revalidate_eval_decide
    tele = Telescope()
    holes = tuple(Hole(m, tele, s) for m, s in (metas or {}).items())
    goal = Goal("h", tele, parse_term(text, tele, PROP, metas=metas))
    state = SolutionState(goals=(goal,), holes=holes)
    cert = apply_tactic(state, "h", "eval_decide", "").trace[-1].cert
    revalidate_eval_decide(cert)
    return cert


def _open_goal_certs():
    """Certificates that claim eval_decide closed the open goal x = 1,
    then genuine eval_decide certificates with one detail replaced."""
    from dataclasses import replace
    from holebox.expr import LocalDecl
    from holebox.kernel import Certificate, Goal
    tele = Telescope((LocalDecl("x", INT),))
    goal = Goal("h", tele, parse_term("x = 1", tele, PROP))
    assigned = Goal("h", tele, parse_term("?w = x", tele, PROP,
                                          metas={"w": INT}))
    closed = _eval_cert("2 + 2 = 4")
    filled = _eval_cert("?w = 2 + 2", {"w": INT})
    return [
        Certificate("eval_decide", goal, {"normalized": goal.concl,
                                          "budget_used": 0}),
        Certificate("eval_decide", assigned, {
            "assigned": {"w": mk_lit(1, INT)}, "budget_used": 0}),
        Certificate("rw_search", goal, {"path": [], "closer": Certificate(
            "eval_decide", goal, {"normalized": goal.concl,
                                  "budget": DEFAULT_BUDGET})}),
        replace(closed, detail={
            **closed.detail,
            "normalized": parse_term("3 = 3", Telescope(), PROP)}),
        replace(filled, detail={**filled.detail,
                                "assigned": {"w": mk_lit(5, INT)}}),
    ]


def test_open_goal_certificates_rejected_by_each_revalidator():
    from holebox.kernel import CertificateError
    from holebox.tactics import revalidate_eval_decide, revalidate_rw_search
    certs = _open_goal_certs()
    checks = (revalidate_eval_decide, revalidate_eval_decide,
              revalidate_rw_search, revalidate_eval_decide,
              revalidate_eval_decide)
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
