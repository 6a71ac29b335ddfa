"""Restricted equivalence: regression vectors, determinism, monotonicity."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import holebox.rpe as rpe_mod
from holebox.expr import PROP, RAT, SortError
from holebox.kernel import SolutionState, TacticFailed, apply_tactic
from holebox.rpe import RPE_STACK, RpeVerdict, build_rpe_goal, rpe_check
from holebox.syntax import parse_problem, parse_term, print_term


def prob(queriable_sort, vars=(), hyps=()):
    doc = {"format_version": "1", "framework": "fps",
           "vars": [list(v) for v in vars],
           "queriable": ["a", queriable_sort],
           "hypotheses": [list(h) for h in hyps],
           "conclusions": ["a = a"] if queriable_sort != "Prop"
           else ["a <-> a"]}
    # a trivial conclusion keeps the document well-formed; rpe only uses
    # the telescope and the queriable sort
    doc["conclusions"] = [f"a = a"] if queriable_sort not in ("Prop",) \
        else ["(1 = 1) <-> a"]
    if queriable_sort == "Prop":
        doc["framework"] = "dfps"
    return parse_problem(json.dumps(doc))


def verdict(p, a, b):
    tele, qs = p.telescope(), p.queriable[1]
    v = rpe_check(p, parse_term(a, tele, qs), parse_term(b, tele, qs))
    return v.equivalent, v.succeeded_by


RAT_P = prob("Rat")
REAL_N = prob("Real", vars=(("n", "Real"),))
SET_P = prob("Set Real")


def test_scientific_notation_pair():
    assert verdict(RAT_P, "364000", "3.64 * 10^5") == (True, "rfl")


def test_decimal_vs_fraction_rejected():
    assert verdict(RAT_P, "0.4667", "7/15") == (False, None)
    # the decimal parses to the exact fraction it denotes
    assert parse_term("0.4667", expected=RAT).val == Fraction(4667, 10000)


def test_sqrt_half_power_pair():
    assert verdict(REAL_N, "(1 + sqrt (1 + 8*n)) / 2",
                   "(1 + (1 + 8*n)^(1/2)) / 2") == (True, "rw_search")


def test_insufficient_radical_simplification_rejected():
    assert verdict(REAL_N, "sqrt 180 / 2", "3 * sqrt 5") == (False, None)


def test_set_builder_vs_interval_union():
    assert verdict(SET_P, "{x : Real | x < -4/3 \\/ x > 0}",
                   "Iio (-4/3) \\/ Ioi 0") == (True, "auto")


def test_tautology_prop_answer_rejected():
    p = parse_problem(json.dumps({
        "format_version": "1", "framework": "dfps",
        "vars": [["x", "Real"]], "queriable": ["A", "Prop"],
        "hypotheses": [], "conclusions": ["x^2 - 1 = 0 <-> A"],
        "answer": "x in {-1, 1}"}))
    eq, by = verdict(p, "x^2 - 1 = 0", "x in ({-1, 1} : Set Real)")
    assert (eq, by) == (False, None)


def test_identical_terms_close_at_rfl():
    assert verdict(RAT_P, "220", "220") == (True, "rfl")


def test_prop_answers_compare_by_iff():
    p = parse_problem(json.dumps({
        "format_version": "1", "framework": "dfps",
        "vars": [["t", "Int"]], "queriable": ["A", "Prop"],
        "hypotheses": [], "conclusions": ["t = 0 <-> A"]}))
    tele = p.telescope()
    v = rpe_check(p, parse_term("t = 7", tele, p.queriable[1]),
                  parse_term("t = 7", tele, p.queriable[1]))
    assert v.equivalent and v.prop_answers
    goal = build_rpe_goal(p, parse_term("t = 7", tele, p.queriable[1]),
                          parse_term("7 = t", tele, p.queriable[1]))
    assert print_term(goal.concl) == "t = 7 <-> 7 = t"


def test_build_goal_sort_and_freevar_errors():
    from holebox.rpe import FreeVarError
    with pytest.raises(SortError):
        build_rpe_goal(RAT_P, parse_term("1", expected=RAT),
                       parse_term("1", expected=None))
    p = prob("Int", vars=(("x", "Int"),))
    foreign = parse_term("x", p.telescope(), p.queriable[1])
    q = prob("Int")
    with pytest.raises(FreeVarError):
        build_rpe_goal(q, foreign, parse_term("1", expected=q.queriable[1]))


def test_verdict_deterministic_and_stack_monotone():
    import holebox.rpe as rpe_mod
    p = REAL_N
    a = parse_term("(1 + sqrt (1 + 8*n)) / 2", p.telescope(), p.queriable[1])
    b = parse_term("(1 + (1 + 8*n)^(1/2)) / 2", p.telescope(),
                   p.queriable[1])
    v1 = rpe_check(p, a, b)
    v2 = rpe_check(p, a, b)
    assert json.dumps(v1.to_json(), sort_keys=True) == \
        json.dumps(v2.to_json(), sort_keys=True)
    # removing the succeeding stage only ever flips equivalent -> not
    original = rpe_mod.RPE_STACK
    try:
        rpe_mod.RPE_STACK = tuple(s for s in original if s != "rw_search")
        v3 = rpe_check(p, a, b)
        assert not v3.equivalent or v3.succeeded_by != "rw_search"
    finally:
        rpe_mod.RPE_STACK = original


def test_no_false_positives_on_ground_rationals(rng):
    from fractions import Fraction
    tele = RAT_P.telescope()
    for _ in range(300):
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        y = x if rng.random() < 0.5 \
            else Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        a = parse_term(str(x.numerator) + "/" + str(x.denominator)
                       if x.denominator != 1 else str(x.numerator),
                       tele, RAT)
        b = parse_term(str(y.numerator) + "/" + str(y.denominator)
                       if y.denominator != 1 else str(y.numerator),
                       tele, RAT)
        assert rpe_check(RAT_P, a, b).equivalent == (x == y)


# -- refutation before search ------------------------------------------------


def reference_rpe_check(p, a_hat, a_bar):
    """The stack without the refutation step: every stage in order, the
    first that closes the statement wins."""
    goal = build_rpe_goal(p, a_hat, a_bar)
    state = SolutionState(goals=(goal,))
    prop_answers = p.queriable[1] == PROP
    for stage in RPE_STACK:
        try:
            out = apply_tactic(state, "rpe", stage,
                               rpe_mod._STACK_ARGS.get(stage, ""))
        except TacticFailed:
            continue
        if not out.goals:
            return RpeVerdict(True, stage, goal, prop_answers)
    return RpeVerdict(False, None, goal, prop_answers)


def _stages_run(monkeypatch, p, a, b):
    """`rpe_check`'s verdict on the texts `a` and `b`, and the stages it
    ran, in order."""
    ran = []
    apply, ring_closes = rpe_mod.apply_tactic, rpe_mod.ring_closes

    def recording(state, case, stage, arg):
        ran.append(stage)
        return apply(state, case, stage, arg)

    def ring_stage(concl):
        ran.append("ring_nf")
        return ring_closes(concl)

    monkeypatch.setattr(rpe_mod, "apply_tactic", recording)
    monkeypatch.setattr(rpe_mod, "ring_closes", ring_stage)
    tele, qs = p.telescope(), p.queriable[1]
    v = rpe_check(p, parse_term(a, tele, qs), parse_term(b, tele, qs))
    monkeypatch.undo()
    return (v.equivalent, v.succeeded_by), ran


def _poly_text(rng, var):
    """A product of two or three linear factors in `var`, and the
    coefficients of its expansion, constant first."""
    coeffs = [1]
    factors = []
    for _ in range(rng.choice((2, 3))):
        a, b = rng.choice((1, 1, 2, -1)), rng.randint(-3, 3)
        factors.append(f"({a} * {var} + {b})")
        coeffs = [b * c + a * d for c, d in zip(coeffs + [0], [0] + coeffs)]
    return " * ".join(factors), coeffs


def _expanded(coeffs, var, shift):
    """The polynomial with `coeffs`, constant first, plus `shift`."""
    return " + ".join([f"({coeffs[0] + shift})"] + [
        f"({c}) * {var}^{i}" for i, c in enumerate(coeffs) if i])


HYPS = ((), ("x > 0",), ("x >= 2 /\\ x <= 5",), ("x > 0", "x < 0"))


def _generated_pair(rng):
    """(problem, candidate, truth, hypotheses) over one variable `x` of
    sort Int, Rat or Real: polynomials equal or shifted by a constant,
    a Real quotient whose divisor the point may make zero, a pair equal
    only under a disjunctive hypothesis that the linear system leaves
    out, or a closed numeric pair; sometimes with a function-typed
    variable too."""
    sort = rng.choice(("Int", "Rat", "Real"))
    kind = rng.choice(("poly", "poly", "quotient", "cases", "closed"))
    if kind == "quotient":
        sort = "Real"
    shift = rng.choice((0, 0, 1, -1, 2))
    if kind == "cases":
        c = rng.randint(1, 3)
        hyps = (f"x = {c} \\/ x = {c + 1}",)
        p = prob(sort, vars=(("x", sort),), hyps=(("h0", hyps[0]),))
        return p, f"(x - {c}) * (x - {c + 1}) + x", f"x + {shift}", hyps
    if kind == "closed":
        a = Fraction(rng.randint(-9, 9), 1 if sort == "Int"
                     else rng.randint(1, 4))

        def text(v):
            return f"({v.numerator})" if v.denominator == 1 \
                else f"({v.numerator} / {v.denominator})"
        return prob(sort), f"{text(a)} + 0", text(a + shift), ()
    hyps = rng.choice(HYPS)
    vars_ = [("x", sort)]
    if rng.random() < 0.25:
        vars_.append(("f", f"{sort} -> {sort}"))
    p = prob(sort, vars=vars_,
             hyps=[(f"h{i}", h) for i, h in enumerate(hyps)])
    cand, coeffs = _poly_text(rng, "x")
    truth = _expanded(coeffs, "x", shift)
    if kind == "quotient":
        k = rng.randint(0, 2)
        cand, truth = f"1 / (x - {k}) + {cand}", f"1 / (x - {k}) + {truth}"
    return p, cand, truth, hyps


def test_refutation_keeps_every_verdict(rng, monkeypatch):
    # on generated pairs the stack with the refutation step gives the
    # verdict the stack without it gives; the step fires often, never on
    # inconsistent hypotheses, and a refuted pair runs no search
    refuted = []
    found = rpe_mod._refuted

    def counting(goal):
        out = found(goal)
        refuted.append(out)
        return out

    fired = inconsistent = 0
    for _ in range(240):
        p, cand, truth, hyps = _generated_pair(rng)
        tele, qs = p.telescope(), p.queriable[1]
        a, b = parse_term(cand, tele, qs), parse_term(truth, tele, qs)
        want = reference_rpe_check(p, a, b)
        refuted.clear()
        monkeypatch.setattr(rpe_mod, "_refuted", counting)
        got = rpe_check(p, a, b)
        monkeypatch.undo()
        assert got == want, (cand, truth, hyps)
        if any(refuted):
            fired += 1
            assert not want.equivalent
        if len(hyps) == 2:
            inconsistent += 1
            assert not any(refuted)
    assert fired > 30 and inconsistent > 10


def test_a_refuted_pair_never_reaches_rw_search(monkeypatch):
    # sides that differ by a constant are False everywhere: the stack
    # stops after ring_nf, at the verdict rw_search and auto would give
    p = prob("Real", vars=(("x", "Real"),), hyps=(("h1", "x > 0"),))
    verdict, ran = _stages_run(monkeypatch, p, "(x + 1) * (x + 2)",
                               "x^2 + 3*x + 3")
    assert verdict == (False, None)
    assert ran == ["rfl", "eval_decide", "ring_nf"]
    # a function-typed variable leaves the pair to the search
    p = prob("Real", vars=(("x", "Real"), ("f", "Real -> Real")),
             hyps=(("h1", "x > 0"),))
    verdict, ran = _stages_run(monkeypatch, p, "(x + 1) * (x + 2)",
                               "x^2 + 3*x + 3")
    assert verdict == (False, None) and ran == list(RPE_STACK)
    # inconsistent hypotheses have no countermodel: auto proves the
    # statement vacuously, as before
    p = prob("Int", vars=(("x", "Int"),),
             hyps=(("h1", "x > 0"), ("h2", "x < 0")))
    verdict, ran = _stages_run(monkeypatch, p, "x + 1", "x")
    assert verdict == (True, "auto") and ran == list(RPE_STACK)


GOLDEN_PROBLEMS = {
    "scientific_notation": ("Rat", ()),
    "decimal_vs_exact_fraction": ("Rat", ()),
    "sqrt_half_power": ("Real", (("n", "Real"),)),
    "insufficient_radical_simplification": ("Real", ()),
    "real_literal_sum_commuted": ("Real", ()),
    "set_builder_vs_interval_union": ("Set Real", ()),
    "add_zero_ladder": ("Int", (("x", "Int"),)),
    "tautology_prop_answer": ("Prop", (("x", "Real"),)),
}


def test_golden_vectors_keep_their_verdicts_and_stages(monkeypatch):
    # the closed decimal pair is refuted at the empty point; the rest run
    # the stages they ran before
    golden = json.loads((Path(__file__).parent / "golden"
                         / "rpe_verdicts.json").read_text())
    assert set(golden) == set(GOLDEN_PROBLEMS)
    for name, vec in sorted(golden.items()):
        qsort, vars_ = GOLDEN_PROBLEMS[name]
        if qsort == "Prop":
            p = parse_problem(json.dumps({
                "format_version": "1", "framework": "dfps",
                "vars": [list(v) for v in vars_], "queriable": ["_q", qsort],
                "hypotheses": [], "conclusions": ["x^2 - 1 = 0 <-> _q"]}))
        else:
            p = prob(qsort, vars=vars_)
        tele, qs = p.telescope(), p.queriable[1]
        a, b = parse_term(vec["a"], tele, qs), parse_term(vec["b"], tele, qs)
        assert rpe_check(p, a, b) == reference_rpe_check(p, a, b), name
        verdict, ran = _stages_run(monkeypatch, p, vec["a"], vec["b"])
        assert verdict == (vec["equivalent"],
                           None if vec["by"] == "none" else vec["by"]), name
        if vec["by"] != "none":
            assert ran == list(RPE_STACK[:RPE_STACK.index(vec["by"]) + 1])
        elif name == "decimal_vs_exact_fraction":
            assert ran == ["rfl", "eval_decide", "ring_nf"]
        else:
            assert ran == list(RPE_STACK), name
