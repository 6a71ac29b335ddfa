"""auto: decomposition plus closers, with a node budget."""

from fractions import Fraction

import pytest

from holebox.expr import (
    INT, LocalDecl, NAT, PROP, REAL, Telescope, eq_sides, fn, metavars_of,
)
from holebox.kernel import (
    Certificate, CertificateError, Goal, SolutionState, TacticFailed,
    apply_tactic,
)
from holebox.norm import normalize
from holebox.syntax import parse_term, print_term
from holebox.tactics import auto as auto_mod, linarith
from holebox.tactics.auto import (
    AUTO_BUDGET, AUTO_RW_DEPTH, BudgetExhausted, _Counter, _simp,
    refuted_at, revalidate_auto,
)
from holebox.tactics.decide import Point, decide_prop
from holebox.tactics.linarith import atom_to_constraints, prove_linear
from holebox.tactics.rewrite import (
    default_library, load_lemma_library, rw_search_term, set_default_library,
)
from holebox.tactics.ring import ring_closes
from holebox.tactics.structural import rfl_check


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
    # the proof visits six goals, so a budget of five runs out
    x = LocalDecl("x", REAL)
    with pytest.raises(BudgetExhausted):
        closes("x = 1 -> x = 1 /\\ x = 1", (x,), budget="5")
    assert closes("x = 1 -> x = 1 /\\ x = 1", (x,), budget="6")


def test_revalidation_rejects_a_budget_below_the_proof():
    tele = Telescope((LocalDecl("y", INT),))
    goal = Goal("h", tele, parse_term(
        "1 <= y /\\ y <= 3 -> y = 1 \\/ y = 2 \\/ y = 3", tele, PROP))
    for budget in (1, 2):
        with pytest.raises(CertificateError):
            revalidate_auto(Certificate("auto", goal, {"budget": budget}))
    revalidate_auto(Certificate("auto", goal, {"budget": 3}))


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


# -- countermodels ------------------------------------------------------------

def reference_closers(goal, models):
    """`_closers` as it was before the countermodel table: every closer
    runs on every goal that reaches them."""
    concl = goal.concl
    if metavars_of(concl):
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
    except TacticFailed:
        pass
    return eq_sides(concl) is not None and rw_search_term(
        concl, goal, frozenset(), AUTO_RW_DEPTH) is not None


def _psi(rng):
    """A linear psi over x, as in the find-all problems: one atom, or
    two joined by /\\ or \\/; its text and its truth at an integer."""
    def atom():
        coef, rel, c = (rng.choice((1, 2, 3)), rng.choice(("<=", "<", "=",
                                                            ">=")),
                        rng.randint(-10, 10))
        holds = {"<=": lambda x: coef * x <= c, "<": lambda x: coef * x < c,
                 "=": lambda x: coef * x == c, ">=": lambda x: coef * x >= c}
        return f"{coef} * x {rel} {c}", holds[rel]
    shape = rng.choice(("atom", "and", "or"))
    (a, fa), (b, fb) = atom(), atom()
    if shape == "atom":
        return a, fa
    if shape == "and":
        return f"({a}) /\\ ({b})", lambda x: fa(x) and fb(x)
    return f"({a}) \\/ ({b})", lambda x: fa(x) or fb(x)


def _find_all_goal(rng):
    """`psi -> x = c1 \\/ ... \\/ x = ck` over one Int x, boxed in
    [-8, 8] or not, with a chain of 1-12 values: the solutions when
    there are 1-12 of them and the draw asks for a true chain, else
    random values, which are mostly a false chain."""
    x = LocalDecl("x", INT)
    tele = Telescope((x,))
    boxed = rng.random() < 0.5
    if boxed:
        for name, text in (("hlb", "-8 <= x"), ("hub", "x <= 8")):
            tele = tele.extended(LocalDecl(
                name, PROP, prop=parse_term(text, tele, PROP)))
    text, holds = _psi(rng)
    tele = tele.extended(LocalDecl("h", PROP,
                                   prop=parse_term(text, tele, PROP)))
    sols = [v for v in range(-8, 9) if holds(v)]
    if boxed and 1 <= len(sols) <= 12 and rng.random() < 0.5:
        values = sols
    else:
        values = rng.sample(range(-12, 13), rng.randint(1, 12))
    chain = " \\/ ".join(f"x = {v}" for v in values)
    return Goal("h", tele, parse_term(chain, tele, PROP))


def _searched(goal):
    budget = _Counter(AUTO_BUDGET)
    try:
        proved = auto_mod._prove(goal, budget, frozenset(), {})
    except BudgetExhausted:
        proved = "budget exhausted"
    return proved, budget.n


def test_countermodels_keep_every_verdict_and_budget(rng, monkeypatch):
    # find-all goals whose chains are true and false: with the table,
    # `_prove` returns what it returns when every closer runs, and
    # leaves the same budget, and the table refutes goals on the way
    refuted = []
    refutes = auto_mod._refuted

    def counting(goal, models):
        out = refutes(goal, models)
        refuted.append(out)
        return out

    proved = 0
    for _ in range(300):
        goal = _find_all_goal(rng)
        monkeypatch.setattr(auto_mod, "_closers", reference_closers)
        want = _searched(goal)
        monkeypatch.undo()
        monkeypatch.setattr(auto_mod, "_refuted", counting)
        assert _searched(goal) == want, goal
        monkeypatch.undo()
        proved += want[0] is True
    assert 20 < proved < 280
    assert sum(refuted) > 200


def _tele(*decls, hyps=()):
    tele = Telescope(tuple(decls))
    for i, text in enumerate(hyps):
        tele = tele.extended(LocalDecl(f"h{i}", PROP,
                                       prop=parse_term(text, tele, PROP)))
    return tele


def test_a_candidate_that_falsifies_a_hypothesis_is_never_used():
    tele = _tele(LocalDecl("x", INT), hyps=["x <= 3"])
    goal = Goal("h", tele, normalize(parse_term("x <= 3", tele, PROP)))
    # x = 5 makes the conclusion false, but the hypothesis too
    models = {tele: ([Point({"x": 5})], [])}
    assert auto_mod._closers(goal, models)
    assert models[tele] == ([], [])
    other = Goal("h", tele, normalize(parse_term("x = 1", tele, PROP)))
    # the newest candidate is checked first: x = 5 is dropped, and x = 2
    # refutes `x = 1`
    models = {tele: ([Point({"x": 2}), Point({"x": 5})], [])}
    assert auto_mod._refuted(other, models)
    assert [p.values for p in models[tele][1]] == [{"x": 2}]
    assert not models[tele][0]


def test_a_countermodel_holds_only_in_its_own_telescope():
    # x = 5 was checked against `x <= 8`; under `x <= 3` it is no
    # countermodel, and `x <= 3` there is proved as before
    wide = _tele(LocalDecl("x", INT), hyps=["x <= 8"])
    narrow = _tele(LocalDecl("x", INT), hyps=["x <= 3"])
    models = {wide: ([], [Point({"x": 5})])}
    goal = Goal("h", narrow, normalize(parse_term("x <= 3", narrow, PROP)))
    assert auto_mod._closers(goal, models)
    assert not auto_mod._closers(
        Goal("h", wide, normalize(parse_term("x <= 3", wide, PROP))), models)


def test_countermodel_values_fit_their_variables():
    tele = _tele(LocalDecl("n", NAT), LocalDecl("r", REAL),
                 LocalDecl("x", INT))
    assert auto_mod._countermodel(tele, Point({"n": 0, "x": -2}))
    # a Real variable takes any rational value
    assert auto_mod._countermodel(tele, Point({"r": Fraction(1, 2)}))
    for values in ({"n": -1}, {"x": Fraction(1, 2)}, {"y": 1}):
        assert not auto_mod._countermodel(tele, Point(values)), values
    # a Nat hypothesis that fails at the point refuses it too
    tele = _tele(LocalDecl("n", NAT), hyps=["n >= 2"])
    assert not auto_mod._countermodel(tele, Point({"n": 1}))
    assert auto_mod._countermodel(tele, Point({"n": 2}))


def test_a_real_countermodel_is_checked_as_rat():
    # Real hypotheses evaluate at a rational point; a zero divisor in a
    # hypothesis refuses the point, since `1 / r` is not evaluated there
    tele = _tele(LocalDecl("r", REAL), hyps=["r > 0", "1 / r < 3"])
    assert auto_mod._countermodel(tele, Point({"r": Fraction(1, 2)}))
    for r in (Fraction(1, 4), -1, 0):
        assert not auto_mod._countermodel(tele, Point({"r": r})), r
    goal = Goal("h", tele, parse_term("r * r = 1", tele, PROP))
    assert refuted_at(goal, Point({"r": Fraction(1, 2)}))
    assert not refuted_at(goal, Point({"r": 1}))
    assert not refuted_at(goal, Point({"r": Fraction(1, 4)}))


def test_a_hypothesis_not_evaluable_at_a_point_refuses_it():
    # `f x` has no value at a point, so x = 1 is no countermodel, and
    # each branch of the disjunction reaches the closers and fails there
    tele = _tele(LocalDecl("x", INT), LocalDecl("f", fn(INT, INT)),
                 hyps=["f x = 2"])
    assert not auto_mod._countermodel(tele, Point({"x": 1}))
    with pytest.raises(TacticFailed, match="could not close"):
        apply_tactic(SolutionState(goals=(Goal(
            "h", tele, parse_term("x = 1 \\/ x = 2", tele, PROP)),)),
            "h", "auto", "")


@pytest.mark.parametrize("text", ["True", "forall (y : Int), y = y"])
def test_auto_closes_true_and_introduces_a_binder(text):
    assert closes(text)


def test_simp_stops_after_its_round_limit():
    # each `even` atom takes one round of `even_iff_mod`; the last ones
    # are left as they are
    n = auto_mod._SIMP_ROUNDS + 2
    tele = Telescope(tuple(LocalDecl(f"x{i}", INT) for i in range(n)))
    term = parse_term(" /\\ ".join(f"even x{i}" for i in range(n)), tele,
                      PROP)
    assert print_term(_simp(term)).count("even") == 2


def test_each_search_starts_with_an_empty_table(monkeypatch):
    tables = []
    prove = auto_mod._prove

    def recording(goal, budget, seen, models):
        if not seen:
            tables.append((models, dict(models)))
        return prove(goal, budget, seen, models)

    monkeypatch.setattr(auto_mod, "_prove", recording)
    x = LocalDecl("x", INT)
    tele = _tele(x, hyps=["x <= 3"])
    # seven disequalities are too many to split, so `auto` branches, and
    # `x = 1` alone leaves a point in the table before the tail closes
    chain = " \\/ ".join(f"x = {v}" for v in range(1, 8))
    st = SolutionState(goals=(Goal("h", tele, parse_term(
        chain + " \\/ x <= 3", tele, PROP)),))
    cert = apply_tactic(st, "h", "auto", "").trace[-1].cert
    auto_mod.revalidate_auto(cert)
    auto_mod.revalidate_auto(cert)
    assert len(tables) == 3
    assert all(start == {} for _, start in tables)
    # the first search filled its table; the revalidations got new ones
    assert tables[0][0] and len({id(t) for t, _ in tables}) == 3
