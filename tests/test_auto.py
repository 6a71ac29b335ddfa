"""auto: decomposition plus closers, with a node budget."""

import pytest

from holebox.expr import INT, LocalDecl, PROP, REAL, Telescope
from holebox.kernel import Goal, SolutionState, TacticFailed, apply_tactic
from holebox.norm import normalize
from holebox.syntax import parse_term
from holebox.tactics import linarith
from holebox.tactics.auto import BudgetExhausted, _simp
from holebox.tactics.linarith import atom_to_constraints
from holebox.tactics.rewrite import (
    default_library, load_lemma_library, set_default_library,
)


def closes(text, decls=(), budget=""):
    tele = Telescope(tuple(decls))
    st = SolutionState(goals=(Goal("h", tele,
                                   parse_term(text, tele, PROP)),))
    out = apply_tactic(st, "h", "auto", budget)
    return not out.goals


def test_self_implication_conjunction():
    x = LocalDecl("x", INT)
    assert closes("x = 1 -> x = 1 /\\ x = 1", (x,))


def test_set_equality_via_extensionality():
    assert closes("{x : Real | x < -4/3 \\/ x > 0} = (Iio (-4/3) \\/ Ioi 0)")


def test_abs_bound_via_library():
    x = LocalDecl("x", INT)
    assert closes("abs (x - 2) <= 5 -> x <= 7", (x,))


def test_disjunctive_hypothesis_cases():
    x = LocalDecl("x", INT)
    assert closes("x = 1 \\/ x = 2 -> 1 <= x", (x,))


def test_budget_exhaustion():
    x = LocalDecl("x", REAL)
    with pytest.raises((BudgetExhausted, TacticFailed)):
        closes("x * x * x = 5", (x,), budget="1")


def test_cannot_prove_false_statement():
    x = LocalDecl("x", INT)
    with pytest.raises(TacticFailed):
        closes("x = 1", (x,))


# -- the simplifier memo and the failing disjunction chain --------------------

def test_simp_memo_follows_the_default_library():
    x = LocalDecl("x", INT)
    tele = Telescope((x,))
    t = parse_term("abs x <= 5", tele, PROP)
    bundled = default_library()
    opened = _simp(t)
    assert opened == normalize(parse_term("0 - 5 <= x /\\ x <= 5", tele, PROP))
    other = load_lemma_library("format_version: 1\n"
                               "add_zero : ?x + 0 <-> ?x\n")
    try:
        set_default_library(other)
        assert _simp(t) == normalize(t)
    finally:
        set_default_library(bundled)
    assert _simp(t) == opened


def test_failing_chain_translates_each_atom_once(monkeypatch):
    # x in {-8, ..., 8} is 17 disjuncts, too many disequalities to split,
    # so auto walks the chain and fails; each atom is translated once
    x = LocalDecl("x", INT)
    tele = Telescope((x,))
    tele = tele.extended(LocalDecl(
        "h", PROP, prop=parse_term("-8 <= x /\\ x <= 8", tele, PROP)))
    points = ", ".join(str(v) for v in range(-8, 9))
    goal = Goal("h", tele, parse_term(f"x in {{{points}}}", tele, PROP))
    calls = []

    def counting(a, az, positive):
        calls.append((a, positive))
        return atom_to_constraints(a, az, positive)

    monkeypatch.setattr(linarith, "atom_to_constraints", counting)
    linarith._atom_memo.cache_clear()
    linarith._hyp_atoms.cache_clear()
    with pytest.raises(TacticFailed):
        apply_tactic(SolutionState(goals=(goal,)), "h", "auto", "")
    assert len(calls) >= 17 + 2
    assert len(calls) == len(set(calls))
