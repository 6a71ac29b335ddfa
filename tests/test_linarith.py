"""linear_arith: spec vectors, completeness against brute force, Farkas,
and the integer rows against the reference they replaced."""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

from conftest import linear_rows
from holebox.expr import (
    App, Atom, Conn, INT, Lit, LocalDecl, NAT, PROP, RAT, REAL, Telescope,
    Var, mk_conn, mk_var,
)
from holebox.kernel import (
    Certificate, CertificateError, Goal, SolutionState, TacticFailed,
    apply_tactic,
)
from holebox.norm import fold_literals, normalize
from holebox.syntax import parse_term, print_term
from holebox.tactics import linarith
from holebox.tactics.auto import MODEL_EVAL_BUDGET
from holebox.tactics.decide import Point, eval_at
from holebox.tactics.linarith import (
    CONST, MAX_NE_SPLITS, Atomizer, Constraint, NotLinear,
    atom_to_constraints, fm_point, fm_refute, linearize, omega_point,
    omega_sat, prove_linear,
    refute_branch, revalidate_linear_arith, verify_farkas, _atom_constraints,
    _atom_memo, _hyp_atoms, _hyp_system, _lin_add, _lin_scale, _OmegaBudget,
)


def state_for(concl, hyps, var_sorts):
    decls = [LocalDecl(n, s) for n, s in var_sorts]
    tele = Telescope(tuple(decls))
    for i, h in enumerate(hyps):
        tele = tele.extended(
            LocalDecl(f"h{i}", PROP, prop=parse_term(h, tele, PROP)))
    return SolutionState(goals=(
        Goal("h", tele, parse_term(concl, tele, PROP)),))


def proves(concl, hyps=(), var_sorts=()):
    st = state_for(concl, hyps, var_sorts)
    try:
        out = apply_tactic(st, "h", "linear_arith", "")
    except TacticFailed:
        return False
    return not out.goals


def test_nickels_system():
    assert proves("n = 7", ["d + n = 11", "10*d + 5*n = 75"],
                  [("d", INT), ("n", INT)])


def test_aptitude_system():
    assert proves("c = 56", ["c >= 0", "i >= 0", "c + i = 80",
                             "5*c - 2*i = 232"],
                  [("c", INT), ("i", INT)])


def test_strict_irreflexivity_not_provable():
    assert not proves("x < x", [], [("x", INT)])


def test_rational_path():
    assert proves("q < 3", ["2 * q <= 5"], [("q", RAT)])
    assert not proves("q < 2", ["2 * q <= 5"], [("q", RAT)])


def test_modulus_constraints():
    assert proves("m = 13", ["0 <= m", "m < 18", "m % 18 = 13"],
                  [("m", INT)])
    assert proves("even (2 * x)", [], [("x", INT)])
    assert proves("2 dvd x", ["x % 2 = 0"], [("x", INT)])


def test_disjunctive_goal():
    assert proves("x = -1 \\/ x = 1",
                  ["-1 <= x", "x <= 1", "not (x = 0)"],
                  [("x", INT)])


def test_nonlinear_atoms_are_opaque():
    # x*x is abstracted, so nothing links it to x; proving fails, soundly
    assert not proves("x * x >= 0", [], [("x", INT)])
    # but hypothesis-level linear reasoning over the atom still works
    assert proves("x * x = 4", ["x * x = 4"], [("x", INT)])


def omega_rows(names, eqs, ineqs):
    """Equalities and `<= 0` inequalities as one system's rows."""
    return linear_rows(names, [(e, "eq") for e in eqs]
                       + [(i, "le") for i in ineqs])


def test_omega_brute_force(rng):
    """Verdicts match exhaustive search over the bounded box."""
    names = ["x0", "x1"]
    for _ in range(200):
        eqs, ineqs = [], []
        for _ in range(rng.randint(1, 4)):
            lin = {n: Fraction(rng.randint(-4, 4)) for n in names}
            lin[CONST] = Fraction(rng.randint(-6, 6))
            (eqs if rng.random() < 0.3 else ineqs).append(lin)
        for n in names:
            ineqs.append({n: Fraction(-1), CONST: Fraction(-20)})
            ineqs.append({n: Fraction(1), CONST: Fraction(-20)})
        got = omega_sat(omega_rows(names, eqs, ineqs))
        want = any(
            all(sum(int(e.get(n, 0)) * v for n, v in zip(names, vals))
                + int(e.get(CONST, 0)) == 0 for e in eqs)
            and all(sum(int(i.get(n, 0)) * v for n, v in zip(names, vals))
                    + int(i.get(CONST, 0)) <= 0 for i in ineqs)
            for vals in itertools.product(range(-20, 21), repeat=2))
        assert got == want


def _box_sat(eqs, ineqs, names, bound):
    """Exhaustive integer satisfiability over [-bound, bound]^n."""
    def val(row, point):
        return row.get(CONST, 0) + sum(row.get(n, 0) * v
                                       for n, v in zip(names, point))
    return any(
        all(val(e, p) == 0 for e in eqs) and all(val(i, p) <= 0 for i in ineqs)
        for p in itertools.product(range(-bound, bound + 1),
                                   repeat=len(names)))


def _three_var_system(rng, names, bound=None):
    """Equalities with non-unit coefficients and inequalities over three
    variables, each boxed in [-bound, bound] unless `bound` is None."""
    eqs, ineqs = [], []
    for _ in range(rng.randint(0, 2)):
        lin = {n: Fraction(rng.choice([-4, -3, -2, 0, 2, 3, 5]))
               for n in names}
        lin[CONST] = Fraction(rng.randint(-6, 6))
        eqs.append(lin)
    for _ in range(rng.randint(1, 4)):
        lin = {n: Fraction(rng.randint(-5, 5)) for n in names}
        lin[CONST] = Fraction(rng.randint(-8, 8))
        ineqs.append(lin)
    if bound is not None:
        for n in names:
            ineqs.append({n: Fraction(-1), CONST: Fraction(-bound)})
            ineqs.append({n: Fraction(1), CONST: Fraction(-bound)})
    return eqs, ineqs


def test_omega_brute_force_three_vars(rng):
    """Three variables, non-unit coefficients: the equalities take the
    symmetric-mod (sigma column) path, and the inequalities reach the
    dark shadow and the splinters."""
    names = ["x0", "x1", "x2"]
    bound = 3
    sat = 0
    for _ in range(200):
        eqs, ineqs = _three_var_system(rng, names, bound)
        got = omega_sat(omega_rows(names, eqs, ineqs))
        assert got == _box_sat(eqs, ineqs, names, bound)
        sat += got
    assert 40 < sat < 160     # both verdicts well represented


def _holds_at(c, point):
    """Whether the integer point satisfies the constraint `c`."""
    v = sum(a * x for a, x in zip(c.row, point))
    return {"le": v <= 0, "lt": v < 0, "eq": v == 0, "ne": v != 0}[c.rel]


def _searched(search, cons):
    """`search` (`linarith._omega` or `reference_omega`) on the rows of
    `cons`, which have no strict row: its answer and the nodes it used."""
    budget = _OmegaBudget(linarith.MAX_OMEGA_NODES)
    try:
        out = search([c.row for c in cons if c.rel == "eq"],
                     [c.row for c in cons if c.rel == "le"], budget)
    except NotLinear as e:
        out = str(e)
    return out, linarith.MAX_OMEGA_NODES - budget.n


def test_omega_points_satisfy_every_row(rng):
    """The brute-force systems of three variables, boxed and not: the
    search that returns a point gives the verdict-only search's verdict
    after the same number of nodes, and its point satisfies every row.
    The equalities take the sigma path, the inequalities reach the dark
    shadow and the splinters, and a column bounded on one side takes
    its bound."""
    names = ["x0", "x1", "x2"]
    paths = {"sigma": 0, "splinter": 0}
    search, mods = linarith._omega, linarith._mods

    def counting_search(eqs, ineqs, budget):
        paths["splinter"] += len(eqs) == 1 and len(ineqs) > 0
        return search(eqs, ineqs, budget)

    def counting_mods(a, m):
        paths["sigma"] += 1
        return mods(a, m)

    sat = 0
    for i in range(400):
        cons = omega_rows(names, *_three_var_system(
            rng, names, 3 if i % 2 else None))
        want, want_nodes = _searched(reference_omega, cons)
        linarith._omega, linarith._mods = counting_search, counting_mods
        try:
            got, nodes = _searched(linarith._omega, cons)
        finally:
            linarith._omega, linarith._mods = search, mods
        assert nodes == want_nodes
        if isinstance(want, str):
            assert got == want
            continue
        assert (got is not None) == want
        if got is not None:
            sat += 1
            assert len(got) == 1 + len(names) and got[0] == 1
            assert all(_holds_at(c, got) for c in cons)
    assert 80 < sat < 320 and paths["sigma"] and paths["splinter"]


def _ineqs(*lins):
    return omega_rows(["x", "y"], [], lins)


def test_omega_duplicate_rows_keep_the_tightest():
    x = {"x": 1}
    # x <= 5, x <= 2 (twice), x >= 2: only x = 2 is left
    assert omega_sat(_ineqs(x | {CONST: -5}, x | {CONST: -2},
                            x | {CONST: -2}, {"x": -1, CONST: 2}))
    # the same after scaling: 2x <= 4 tightens to x <= 2, 3x >= 7 to x >= 3
    assert not omega_sat(_ineqs({"x": 2, CONST: -4}, x | {CONST: -9},
                                {"x": -3, CONST: 7}))


def test_omega_contradictory_opposite_pair():
    # x + 2y <= 3 and x + 2y >= 4
    lo = {"x": 1, "y": 2, CONST: -3}
    hi = {"x": -1, "y": -2, CONST: 4}
    assert not omega_sat(_ineqs(lo, hi))
    # touching bounds meet: x + 2y = 3
    assert omega_sat(_ineqs(lo, {**hi, CONST: 3}))


def test_omega_budget_exhaustion_is_not_linear():
    rows = _ineqs({"x": 1, CONST: -5}, {"x": -1})
    assert omega_sat(rows)
    with pytest.raises(NotLinear):
        linarith._omega([], [c.row for c in rows], _OmegaBudget(1))


def test_rational_rows_are_scaled_to_integers():
    # each row is scaled by the positive lcm of its denominators, so the
    # deciders see integers only, and a strict row stays strict
    le, eq, lt = linear_rows(["x"], [
        ({"x": Fraction(1, 2), CONST: Fraction(-1)}, "le"),
        ({"x": Fraction(1), CONST: Fraction(1, 3)}, "eq"),
        ({"x": Fraction(-2, 3), CONST: Fraction(1, 2)}, "lt")])
    assert le == Constraint((-2, 1), "le")
    assert eq == Constraint((1, 3), "eq")
    assert lt == Constraint((3, -4), "lt")
    # 3x + 1 = 0 has a rational solution and no integer one
    assert fm_refute([eq]) is None and not omega_sat([eq])
    # omega reads a strict row e < 0 as e + 1 <= 0: -4x + 3 < 0 is x >= 1
    def below(bound):
        return [lt] + linear_rows(["x"], [({"x": 1, CONST: -bound}, "le")])
    assert omega_sat(below(1)) and not omega_sat(below(0))
    for decide in (omega_sat, fm_refute, fm_point):
        with pytest.raises(NotLinear, match="ne must be split"):
            decide([Constraint((1, 1), "ne")])


def test_farkas_certificate_checks():
    # x <= 3, x >= 4
    cons = linear_rows(["x"], [({"x": 1, CONST: -3}, "le"),
                               ({"x": -1, CONST: 4}, "le")])
    farkas = fm_refute(cons)
    assert farkas is not None
    assert verify_farkas(cons, farkas)
    # a tampered combination must not verify
    tampered = {k: v + 1 for k, v in farkas.items()}
    bad = dict(tampered)
    bad[next(iter(bad))] = -1
    assert not verify_farkas(cons, bad)
    # a multiplier for a row the system does not have, or no row at all
    assert not verify_farkas(cons, {4: 1})
    assert not verify_farkas(cons, {})
    # multipliers are integers
    assert not verify_farkas(cons, {k: Fraction(v) for k, v in farkas.items()})


def test_synthesis_by_gauss_and_scan():
    # Gauss: equalities pin the target, and the hole takes the value
    import json
    from holebox.fps import session_init
    from holebox.syntax import parse_problem
    doc = {"format_version": "1", "framework": "fps",
           "vars": [["d", "Int"], ["n", "Int"]], "queriable": ["a", "Int"],
           "hypotheses": [["h2", "d + n = 11"], ["h3", "10*d + 5*n = 75"]],
           "conclusions": ["n = a"]}
    sess = session_init(parse_problem(json.dumps(doc)))
    out = apply_tactic(sess.state, "h", "linear_arith", "")
    from holebox.kernel import is_terminal
    assert is_terminal(out)
    assert print_term(dict(out.assignment)["w"]) == "7"


def test_certificate_with_a_dropped_branch_rejected():
    # two negated conjuncts give two branches, each with its own Farkas
    # combination; a certificate that lists only one, or one multiplier
    # changed, must not validate
    st = state_for("0 < y + 1 /\\ 0 < y + 2", ["0 < y"], [("y", REAL)])
    cert = apply_tactic(st, "h", "linear_arith", "").trace[-1].cert
    first, second = cert.detail["branches"]
    assert first.keys() == second.keys() == {"multipliers"}
    revalidate_linear_arith(cert)
    idx, mult = next(iter(first["multipliers"].items()))
    scaled = {**first, "multipliers": {**first["multipliers"],
                                       idx: mult * 2}}
    for branches in ([first], [scaled, second]):
        cut = Certificate("linear_arith", cert.goal,
                          {**cert.detail, "branches": branches})
        with pytest.raises(CertificateError):
            revalidate_linear_arith(cut)


def test_unsplit_branch_runs_fourier_motzkin_once(monkeypatch):
    # a branch without disequalities is refuted once; that refutation's
    # multipliers are the branch's evidence
    calls = []

    def counting(cons):
        calls.append(cons)
        return fm_refute(cons)

    monkeypatch.setattr(linarith, "fm_refute", counting)
    st = state_for("0 < y + 1 /\\ 0 < y + 2", ["0 < y"], [("y", REAL)])
    cert = apply_tactic(st, "h", "linear_arith", "").trace[-1].cert
    assert [b.keys() for b in cert.detail["branches"]] \
        == [{"multipliers"}, {"multipliers"}]
    assert len(calls) == 2
    revalidate_linear_arith(cert)


def test_only_a_branch_without_multipliers_is_decided_again(monkeypatch):
    # a Farkas branch (rational, no `!=`) is checked by its multipliers
    # alone, so its revalidation runs neither decider; an omega branch
    # and a split rational branch hold no evidence and are decided again,
    # the split one leaf by leaf through `fm_point`
    def cert(concl, hyps, var_sorts):
        st = state_for(concl, hyps, var_sorts)
        return apply_tactic(st, "h", "linear_arith", "").trace[-1].cert

    farkas = cert("0 < y + 1 /\\ 0 < y + 2", ["0 < y"], [("y", REAL)])
    omega = cert("x < x + 1", [], [("x", INT)])
    split = cert("y = 5", ["0 <= y", "y <= 0", "y != 0"], [("y", REAL)])
    assert [b.keys() for c in (farkas, omega, split)
            for b in c.detail["branches"]] \
        == [{"multipliers"}, {"multipliers"}, set(), set()]
    calls = []

    def counted(name):
        decide = getattr(linarith, name)

        def wrapper(cons):
            calls.append(name)
            return decide(cons)
        return wrapper

    for name in ("fm_refute", "fm_point", "omega_point"):
        monkeypatch.setattr(linarith, name, counted(name))
    revalidate_linear_arith(farkas)
    assert calls == []
    revalidate_linear_arith(omega)
    assert calls == ["omega_point"]
    calls.clear()
    revalidate_linear_arith(split)
    assert calls and set(calls) == {"fm_point"}


def test_a_feasible_system_fails_with_the_same_message_and_a_point():
    # the message is the one `linear_arith` always gave; the failure
    # adds its point by variable name, integer or rational
    for concl, hyps, var_sorts, point in (
            # the first split, x < 1, bounds x from above only: x takes
            # its smallest upper bound; y is in no row and gets no value
            ("x = 1", ["x <= 3"], [("x", INT), ("y", INT)], {"x": 0}),
            # the first split, y < 5, with 0 <= y <= 1: y takes its
            # largest lower bound
            ("y = 5", ["0 <= y", "y <= 1"], [("y", REAL)],
             {"y": Fraction(0)}),
            # q >= 2 and 2 q <= 5, a Farkas branch: q takes 2
            ("q < 2", ["2 * q <= 5"], [("q", RAT)], {"q": Fraction(2)})):
        st = state_for(concl, hyps, var_sorts)
        with pytest.raises(TacticFailed) as failed:
            apply_tactic(st, "h", "linear_arith", "")
        assert str(failed.value) == "linear_arith: system is feasible"
        with pytest.raises(linarith.Feasible) as feasible:
            prove_linear(st.goal("h"))
        assert str(feasible.value) == "linear_arith: system is feasible"
        assert feasible.value.point == point
        assert all(type(v) is type(point[n]) for n, v in
                   feasible.value.point.items())


def test_sums_that_differ_in_a_captured_variable_stay_two_atoms():
    # `intro x` opens `forall y` at x: the first sum adds the free x, the
    # second its own bound x.  linear_arith keys atoms by their interned
    # node, so the two sums are two atoms whatever the printer makes of
    # them, and it refutes nothing rather than "prove" a false goal
    tele = Telescope((LocalDecl("n", INT),))
    s = "{k : Int | 0 <= k /\\ k <= n}"
    goal = Goal("h", tele, parse_term(
        f"forall (y : Int), (sum x in {s}, x + y) = (sum x in {s}, x + x)",
        tele, PROP))
    opened = apply_tactic(SolutionState(goals=(goal,)), "h", "intro", "x")
    assert print_term(opened.goal("h").concl) == \
        f"(sum x1 in {s}, x1 + x) = (sum x in {s}, x + x)"
    with pytest.raises(TacticFailed):
        apply_tactic(opened, "h", "linear_arith", "")


def test_synthesis_certificate_checks_its_assignment():
    # the certificate keeps the hole open and names its value; recheck
    # fills the hole, so a changed value no longer validates
    import json
    from dataclasses import replace
    from holebox.expr import mk_lit
    from holebox.fps import session_init
    from holebox.syntax import parse_problem
    doc = {"format_version": "1", "framework": "fps",
           "vars": [["d", "Int"], ["n", "Int"]], "queriable": ["a", "Int"],
           "hypotheses": [["h2", "d + n = 11"], ["h3", "10*d + 5*n = 75"]],
           "conclusions": ["n = a"]}
    sess = session_init(parse_problem(json.dumps(doc)))
    cert = apply_tactic(sess.state, "h", "linear_arith", "").trace[-1].cert
    assert "sort" not in cert.detail
    assert cert.assigns == (("w", mk_lit(7, INT)),)
    revalidate_linear_arith(cert)
    for assigns in ((("w", mk_lit(8, INT)),), (("v", mk_lit(7, INT)),),
                    (("w", mk_lit(7, REAL)),), cert.assigns * 2,
                    cert.assigns + (("v", mk_lit(7, INT)),), ()):
        with pytest.raises(CertificateError):
            revalidate_linear_arith(replace(cert, assigns=assigns))


# ---------------------------------------------------------------------------
# The edges of the fragment, each reached through an entry point


def test_a_negated_term_is_linear():
    assert proves("-x <= 1", ["-1 <= x"], [("x", INT)])
    assert not proves("-x <= 1", ["-2 <= x"], [("x", INT)])


def test_hypotheses_outside_the_fragment_are_left_out_whole():
    sorts = [("x", INT), ("m", NAT), ("n", NAT)]
    # a conjunct that is a disjunction drops the whole conjunction
    assert not proves("x <= 1", ["x <= 1 /\\ (x < 0 \\/ 2 < x)"], sorts)
    # a negated Nat comparison in an Int system, and a relation with no
    # linear reading, are dropped; True adds no row
    assert proves("x <= 1", ["not (m <= n)", "prime x", "True /\\ x <= 1"],
                  sorts)
    assert not proves("2 <= x", ["prime x"], sorts)


def test_conclusions_with_not_false_and_true():
    sorts = [("x", INT)]
    assert proves("not (x < 1)", ["1 <= x"], sorts)
    assert not proves("not (x < 1)", ["0 <= x"], sorts)
    assert proves("x = 1 \\/ False", ["x = 1"], sorts)
    assert not proves("x = 1 \\/ False", ["x <= 1"], sorts)
    for concl, message in (
            ("not (x < 1 \\/ 2 < x)", "non-linear negated conclusion"),
            ("x <= 1 \\/ True", "conclusion is trivially true")):
        with pytest.raises(NotLinear, match=message):
            prove_linear(state_for(concl, [], sorts).goal("h"))


def test_a_hole_goal_is_not_a_linear_goal():
    goal = Goal("h", Telescope((LocalDecl("x", INT),)), INT)
    with pytest.raises(NotLinear, match="hole goals"):
        prove_linear(goal)


def test_synthesis_fails_where_the_hypotheses_pin_no_integer():
    import json
    from holebox.fps import session_init
    from holebox.syntax import parse_problem
    for hyps, concl, message in (
            # Gauss pins d = 1/2, which is no integer
            (["2 * d = 1"], "d = a", "non-integral synthesized value"),
            # the scan finds each of 0..3 possible, so none forced
            (["0 <= d", "d <= 3"], "d = a", "do not pin"),
            # a target of two columns has no bounds to scan
            (["0 <= d", "d <= 3", "n = 0"], "d + n = a", "do not pin")):
        doc = {"format_version": "1", "framework": "fps",
               "vars": [["d", "Int"], ["n", "Int"]],
               "queriable": ["a", "Int"],
               "hypotheses": [[f"h{i}", h] for i, h in enumerate(hyps)],
               "conclusions": [concl]}
        sess = session_init(parse_problem(json.dumps(doc)))
        with pytest.raises(TacticFailed, match=message):
            apply_tactic(sess.state, "h", "linear_arith", "")


def test_verify_farkas_rejects_a_multiplier_on_a_disequality():
    # 1 <= 0 is refuted by its own row, and 1 != 0 is not a bound
    assert verify_farkas([Constraint((1, 0), "le")], {0: 1})
    assert not verify_farkas([Constraint((1, 0), "ne")], {0: 1})


# ---------------------------------------------------------------------------
# Disequality splits: the depth-first split against the full enumeration


def _row_side(c, gt):
    """`e < 0` (gt 0) or `e > 0` (gt 1) of the row `e != 0`."""
    return Constraint(tuple(-a for a in c.row) if gt else c.row, "lt")


def eager_splits(cons, side=_row_side):
    """All 2^k splits of the k `ne` rows, in order, `<` before `>`."""
    systems = [[]]
    for c in cons:
        if c.rel != "ne":
            systems = [s + [c] for s in systems]
            continue
        systems = [s + [side(c, gt)] for s in systems for gt in (0, 1)]
    return systems


def _feasible(sort, omega=omega_sat, fm=fm_refute):
    if sort in (INT, NAT):
        return omega
    return lambda sub: fm(sub) is None


def _split_check(sort):
    """The check `refute_branch` hands `_split_nes`: a point, or None."""
    return omega_point if sort in (INT, NAT) else fm_point


def eager_refute(sort, cons, side=_row_side, omega=omega_sat, fm=fm_refute):
    """`refute_branch` by checking every split up front."""
    if 2 ** sum(c.rel == "ne" for c in cons) > MAX_NE_SPLITS:
        raise NotLinear("too many disequalities to split")
    systems = eager_splits(cons, side)
    if any(_feasible(sort, omega, fm)(sub) for sub in systems):
        raise TacticFailed("linear_arith: system is feasible")
    if sort not in (INT, NAT) and len(systems) == 1:
        return {"multipliers": fm(cons)}
    return {}


def _outcome(refute, sort, cons, **kw):
    try:
        return "refuted", refute(sort, cons, **kw)
    except NotLinear:
        return "not linear", None
    except TacticFailed:
        return "feasible", None


@st.composite
def _systems(draw, sorts=(INT, RAT)):
    """An Int or Rat system over x and y with 0-6 disequalities, the
    other rows drawn from le, lt and eq, in a random order."""
    sort = draw(st.sampled_from(sorts))
    coef = st.integers(-3, 3)

    def row(rel):
        den = draw(st.integers(1, 3)) if sort == RAT else 1
        return ({"x": Fraction(draw(coef), den),
                 "y": Fraction(draw(coef), den),
                 CONST: Fraction(draw(st.integers(-6, 6)), den)}, rel)

    rels = ["ne"] * draw(st.integers(0, 6)) + draw(
        st.lists(st.sampled_from(["le", "lt", "eq"]), max_size=5))
    return sort, linear_rows(["x", "y"], [
        row(rel) for rel in draw(st.permutations(rels))])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_systems())
def test_depth_first_split_matches_the_full_enumeration(system):
    sort, cons = system
    assert _outcome(refute_branch, sort, cons) \
        == _outcome(eager_refute, sort, cons)
    # the full splits it reaches are the enumeration's, in its order;
    # the shorter systems are the checks of partial splits
    visited = []

    def recording(sub):
        visited.append(sub)
        return _split_check(sort)(sub)

    linarith._split_nes(cons, recording)
    leaves = iter(eager_splits(cons))
    assert all(any(leaf == sub for sub in leaves)
               for leaf in visited if len(leaf) == len(cons))


def _reference_omega_sat(cons):
    """The verdict-only search on a system's rows, a strict row `e < 0`
    read as `e + 1 <= 0`."""
    return reference_omega(
        [c.row for c in cons if c.rel == "eq"],
        [(c.row[0] + 1,) + c.row[1:] if c.rel == "lt" else c.row
         for c in cons if c.rel != "eq"],
        _OmegaBudget(linarith.MAX_OMEGA_NODES))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_systems(sorts=(INT,)))
def test_split_point_satisfies_the_leaf(system):
    # the point of the first feasible split satisfies every row of the
    # system, its `!=` rows included, and there is one exactly when the
    # verdict-only search finds some split feasible
    _, cons = system
    want = _outcome(eager_refute, INT, cons, omega=_reference_omega_sat)
    try:
        point = linarith._split_nes(cons, omega_point)
    except NotLinear:
        assert want[0] == "not linear"
        return
    assert (point is not None) == (want[0] == "feasible")
    if point is not None:
        assert all(_holds_at(c, point) for c in cons)


def _ne_rows(n):
    """1 <= x <= n and x != 1, ..., x != n over Int: infeasible."""
    return linear_rows(["x"], [({"x": -1, CONST: 1}, "le"),
                               ({"x": 1, CONST: -n}, "le")]
                       + [({"x": 1, CONST: -v}, "ne")
                          for v in range(1, n + 1)])


def test_ne_split_guard():
    # MAX_NE_SPLITS = 64 systems: six disequalities split, seven do not
    assert MAX_NE_SPLITS == 2 ** 6
    assert refute_branch(INT, _ne_rows(6)) == {}
    assert _outcome(eager_refute, INT, _ne_rows(6)) == ("refuted", {})
    with pytest.raises(NotLinear, match="too many disequalities"):
        refute_branch(INT, _ne_rows(7))


def test_ne_split_prunes_infeasible_prefixes(monkeypatch):
    # six solutions, so the negated conclusion holds six disequalities:
    # the full enumeration runs omega on all 2^6 splits
    tele = Telescope((LocalDecl("x", INT),))
    goal = Goal("h", tele, parse_term(
        "-8 <= x /\\ x <= 8 /\\ 1 <= x /\\ x <= 6 -> "
        "x = 1 \\/ x = 2 \\/ x = 3 \\/ x = 4 \\/ x = 5 \\/ x = 6", tele, PROP))
    calls = []

    def counting(cons):
        calls.append(len(cons))
        return omega_point(cons)

    monkeypatch.setattr(linarith, "omega_point", counting)
    assert prove_linear(goal) == {"branches": [{}]}
    # below the 2^6 of the full enumeration: at each split one side is
    # pruned and the other checked, and the root is never checked
    assert len(calls) == 12
    calls.clear()
    _, hyps, branches = linarith._collect_system(goal)
    assert eager_refute(INT, hyps + branches[0], omega=counting) == {}
    assert len(calls) == 2 ** 6


def test_ne_split_check_that_gives_up_prunes_nothing():
    # a partial split whose check runs out of budget is split further,
    # so every leaf is still checked
    cons = _ne_rows(3)
    leaves = []

    def giving_up(sub):
        if len(sub) < len(cons):
            raise NotLinear("omega node budget exceeded")
        leaves.append(sub)
        return _split_check(INT)(sub)

    assert linarith._split_nes(cons, giving_up) is None
    assert leaves == eager_splits(cons)


# ---------------------------------------------------------------------------
# The hypothesis memo


def test_hyp_system_memo_gives_each_call_a_fresh_atom_space():
    tele = Telescope((LocalDecl("x", INT), LocalDecl("y", INT),
                      LocalDecl("m", NAT)))
    for i, h in enumerate(["x % 3 = 1", "x + y <= 10", "y * y = 4"]):
        tele = tele.extended(
            LocalDecl(f"h{i}", PROP, prop=parse_term(h, tele, PROP)))
    goal = Goal("h", tele, parse_term("x = x", tele, PROP))
    # the target adds a modulus atom and a Nat atom of its own
    extra = [normalize(parse_term(t, tele)) for t in ("y % 4", "m")]

    def run():
        az, cons, out = _hyp_system(
            goal, INT, lambda az: [linearize(t, az) for t in extra])
        return list(az.cols.items()), az.mod_constraints, cons, out

    _hyp_atoms.cache_clear()
    cold = run()
    warm = run()
    assert _hyp_atoms.cache_info().hits == 1
    _hyp_atoms.cache_clear()
    again = run()
    assert cold == warm == again == run()
    cols, mods, cons, _ = cold
    assert len(mods) == 6
    # columns in order of first occurrence, keyed by node: the remainder
    # of x % 3, x, its quotient, y, ..., then the target's atoms
    x, y, m = mk_var("x", INT), mk_var("y", INT), mk_var("m", NAT)
    keys = [k for k, _ in cols]
    assert [col for _, col in cols] == list(range(len(cols)))
    assert keys[:5] == [CONST, ("mod", x, 3), x, ("div", x, 3), y]
    assert keys[-3:] == [("mod", y, 4), ("div", y, 4), m]
    # the Nat atom's non-negativity row, -m <= 0
    assert Constraint(tuple(-(k is m) for k in keys), "le") in cons
    # the memo's own snapshot still ends before the target's atoms
    snap_cols, snap_mods, _ = _hyp_atoms(
        tuple(normalize(d.prop) for d in tele.decls if d.prop), INT)
    assert len(snap_mods) == 3
    assert m not in dict(snap_cols) and ("mod", y, 4) not in dict(snap_cols)


# ---------------------------------------------------------------------------
# The atom memo: a replayed translation is the in-place one

ATOM_TELE = Telescope(tuple(LocalDecl(n, s) for n, s in (
    ("x", INT), ("y", INT), ("m", NAT), ("n", NAT), ("q", RAT))))

# Atoms by the sort of the system they are translated into: {a}, {b}
# coefficients, {c} constants, {k} literal moduli.  The last ones of
# each raise `NotLinear` there.
ATOM_TEMPLATES = {
    INT: (
        # linear, Nat, modulus, opaque
        "{a}*x + {b}*y <= {c}", "x - {c} = y", "x < y + {c}", "x != {c}",
        "odd m", "{k} dvd m", "m % {k} = 1",
        "x % {k} = {c}", "{k} dvd x + y", "even (x + {c})", "3 dvd x % {k}",
        "x * y <= {c}", "abs x <= {c}", "x * x = y", "x % y = {c}",
        "abs (x % {k}) <= {c}",
        # a Nat comparison, a non-literal modulus, a Rat atom
        "m <= n + {k}", "x dvd y", "q <= {c}",
    ),
    RAT: (
        "{a} * q < {c}", "q / {k} = {c}", "{a} * q + 1 != {c}",
        "q * q < {c}", "abs q <= {c}",
        # an Int atom, a relation outside the Int path
        "x < {c}", "even (x + {c})",
    ),
}


def _template_atom(draw, sort):
    text = draw(st.sampled_from(ATOM_TEMPLATES[sort])).format(
        a=draw(st.integers(-3, 3)), b=draw(st.integers(-3, 3)),
        c=draw(st.integers(-4, 4)), k=draw(st.integers(2, 4)))
    return normalize(parse_term(text, ATOM_TELE, PROP))


@st.composite
def _atom_cases(draw):
    """A system sort, 0-4 hypothesis atoms and one atom to translate."""
    sort = draw(st.sampled_from([INT, RAT]))
    hyps = [_template_atom(draw, sort) for _ in range(draw(st.integers(0, 4)))]
    return sort, hyps, _template_atom(draw, sort)


def _atom_space(az):
    return list(az.cols.items()), list(az.mod_constraints)


def _translate(translate, atom, base, positive):
    az = Atomizer(base.sort, dict(base.cols), list(base.mod_constraints))
    try:
        cons = translate(atom, az, positive)
    except Exception as e:
        return type(e)
    return cons, _atom_space(az)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_atom_cases(), st.booleans())
def test_atom_memo_replays_the_in_place_translation(case, positive):
    sort, hyps, atom = case
    # an atom space pre-filled by hypotheses, as `_hyp_atoms` leaves it
    base = Atomizer(sort)
    for h in hyps:
        try:
            atom_to_constraints(h, base, True)
        except NotLinear:
            pass
    want = _translate(atom_to_constraints, atom, base, positive)
    _atom_memo.cache_clear()
    cold = _translate(_atom_constraints, atom, base, positive)
    warm = _translate(_atom_constraints, atom, base, positive)
    assert cold == want and warm == want
    if isinstance(want, tuple):
        # kept only when it makes no modulus rows, which a space that
        # already holds the modulus would not get again
        fresh = Atomizer(sort)
        atom_to_constraints(atom, fresh, positive)
        kept = _atom_memo(atom, sort, positive) is not None
        assert kept == (not fresh.mod_constraints)


# ---------------------------------------------------------------------------
# The reference: linear_arith as it was before its systems were integer
# rows over first-occurrence columns.  Atoms are named by their printed
# text, a constraint is a `Lin` dict of Fractions that builds its integer
# row on first use (`int_row`), Fourier-Motzkin runs on the Fractions,
# and omega gets `int` tuples over the sorted names (`to_row`) and
# returns the verdict alone (`reference_omega`).


@dataclass(frozen=True)
class RefConstraint:
    expr: tuple
    rel: str

    def lin(self):
        return dict(self.expr)

    @cached_property
    def int_row(self):
        if self.rel == "ne":
            raise NotLinear("ne must be split before omega")
        den = math.lcm(*(v.denominator for _, v in self.expr))
        lin = {k: v.numerator * (den // v.denominator) for k, v in self.expr}
        if self.rel == "lt":
            lin[CONST] = lin.get(CONST, 0) + 1
        return lin


def _ref_con(lin, rel):
    return RefConstraint(tuple(sorted((k, v) for k, v in lin.items()
                                      if v != 0 or k == CONST)), rel)


@dataclass
class RefAtomizer:
    sort: object
    table: dict
    nat_keys: set
    mod_constraints: list
    counter: int = 0

    def key_for(self, t):
        key = f"`{print_term(t)}`"
        if key not in self.table:
            self.table[key] = t
            if t.sort == NAT:
                self.nat_keys.add(key)
        return key

    def fresh(self, prefix):
        self.counter += 1
        return f"${prefix}{self.counter}"


def _ref_const(t):
    t = fold_literals(t)
    return t.val if isinstance(t, Lit) else None


def ref_linearize(t, az):
    t = fold_literals(t)
    if isinstance(t, Lit):
        return {CONST: t.val}
    if isinstance(t, App):
        args = t.args
        if t.op == "add":
            return _lin_add(ref_linearize(args[0], az),
                            ref_linearize(args[1], az))
        if t.op == "sub" and t.sort != NAT:
            return _lin_add(ref_linearize(args[0], az),
                            ref_linearize(args[1], az), Fraction(-1))
        if t.op == "neg":
            return _lin_scale(ref_linearize(args[0], az), Fraction(-1))
        if t.op == "mul":
            lv, rv = _ref_const(args[0]), _ref_const(args[1])
            if lv is not None:
                return _lin_scale(ref_linearize(args[1], az), lv)
            if rv is not None:
                return _lin_scale(ref_linearize(args[0], az), rv)
        if t.op == "div" and t.sort in (RAT, REAL):
            rv = _ref_const(args[1])
            if rv:
                return _lin_scale(ref_linearize(args[0], az), 1 / rv)
        if t.op == "mod" and t.sort in (NAT, INT):
            m = _ref_const(args[1])
            if m is not None and m > 0:
                return {_ref_mod_key(args[0], int(m), az): Fraction(1)}
    return {az.key_for(t): Fraction(1)}


def _ref_mod_key(t, m, az):
    key = f"`{print_term(t)} % {m}`"
    if key in az.table:
        return key
    az.table[key] = t
    base = ref_linearize(t, az)
    q = az.fresh("q")
    eq = _lin_add(base, {q: Fraction(m), key: Fraction(1)}, Fraction(-1))
    az.mod_constraints.append(_ref_con(eq, "eq"))
    az.mod_constraints.append(_ref_con({key: Fraction(-1)}, "le"))
    az.mod_constraints.append(
        _ref_con({key: Fraction(1), CONST: Fraction(1 - m)}, "le"))
    return key


def ref_atom_to_constraints(a, az, positive):
    rel = a.rel
    int_path = az.sort in (INT, NAT)
    one = Fraction(1)
    if rel in ("eq", "ne", "lt", "le"):
        if a.args[0].sort != az.sort:
            raise NotLinear(
                f"atom over {a.args[0].sort}, system over {az.sort}")
        diff = _lin_add(ref_linearize(a.args[0], az),
                        ref_linearize(a.args[1], az), Fraction(-1))
        if not positive:
            rel = {"eq": "ne", "ne": "eq", "lt": "le", "le": "lt"}[rel]
            if rel in ("le", "lt"):
                diff = {k: -v for k, v in diff.items()}
        if rel == "lt" and int_path:
            return [_ref_con(_lin_add(diff, {CONST: one}), "le")]
        return [_ref_con(diff, rel)]
    if not int_path:
        raise NotLinear(f"relation {rel} outside the Int path")
    if rel == "dvd":
        m = _ref_const(a.args[0])
        if m is None or m <= 0:
            raise NotLinear("divisibility with a non-literal modulus")
        r = _ref_mod_key(a.args[1], int(m), az)
        return [_ref_con({r: one}, "eq" if positive else "ne")]
    if rel in ("even", "odd"):
        r = _ref_mod_key(a.args[0], 2, az)
        want_zero = (rel == "even") == positive
        return [_ref_con({r: one}, "eq" if want_zero else "ne")]
    raise NotLinear(f"relation {rel} is not linear")


def _ref_flatten_pos(t, az):
    if isinstance(t, Conn) and t.op == "and":
        lhs = _ref_flatten_pos(t.args[0], az)
        rhs = _ref_flatten_pos(t.args[1], az)
        return None if lhs is None or rhs is None else lhs + rhs
    if isinstance(t, Conn) and t.op == "true":
        return []
    negated = isinstance(t, Conn) and t.op == "not" \
        and isinstance(t.args[0], Atom)
    if negated or isinstance(t, Atom):
        try:
            return ref_atom_to_constraints(t.args[0] if negated else t, az,
                                           not negated)
        except NotLinear:
            return None
    return None


def _ref_negation_dnf(t, az):
    if isinstance(t, Conn):
        if t.op == "and":
            return _ref_negation_dnf(t.args[0], az) \
                + _ref_negation_dnf(t.args[1], az)
        if t.op == "or":
            return [l + r for l in _ref_negation_dnf(t.args[0], az)
                    for r in _ref_negation_dnf(t.args[1], az)]
        if t.op == "imp":
            pos = _ref_flatten_pos(t.args[0], az)
            if pos is None:
                raise NotLinear("non-linear antecedent in the conclusion")
            return [pos + d for d in _ref_negation_dnf(t.args[1], az)]
        if t.op == "not":
            pos = _ref_flatten_pos(t.args[0], az)
            if pos is None:
                raise NotLinear("non-linear negated conclusion")
            return [pos]
        if t.op == "false":
            return [[]]
        if t.op == "true":
            return []
    if isinstance(t, Atom):
        return [ref_atom_to_constraints(t, az, positive=False)]
    raise NotLinear("conclusion is not in the linear fragment")


def ref_collect_system(goal):
    """The reference's sort, hypothesis constraints and branches."""
    concl = normalize(goal.concl)
    sort = linarith._goal_sort(concl)
    az = RefAtomizer(sort, {}, set(), [])
    hyps = []
    for d in goal.ctx.decls:
        prop = None if d.prop is None else normalize(d.prop)
        if prop is not None and not prop.has_meta:
            hyps.extend(_ref_flatten_pos(prop, az) or [])
    branches = _ref_negation_dnf(concl, az)
    hyps.extend(_ref_con({key: Fraction(-1)}, "le")
                for key in sorted(az.nat_keys))
    hyps.extend(az.mod_constraints)
    return sort, hyps, branches


def reference_omega_sat(cons):
    """omega over `int_row`s mapped to tuples over the sorted names."""
    rows = [c.int_row for c in cons]
    cols = sorted({k for row in rows for k in row if k != CONST})

    def to_row(lin):
        return tuple(lin.get(k, 0) for k in (CONST, *cols))

    return reference_omega(
        [to_row(r) for c, r in zip(cons, rows) if c.rel == "eq"],
        [to_row(r) for c, r in zip(cons, rows) if c.rel != "eq"],
        _OmegaBudget(linarith.MAX_OMEGA_NODES))


def reference_omega(eqs, ineqs, budget):
    """The omega search as it was before it returned a point: the
    verdict alone."""
    budget.tick()

    # -- equality elimination
    while eqs:
        eq = eqs.pop()
        g = math.gcd(*eq[1:])
        if g == 0:
            if eq[0] != 0:
                return False
            continue
        if eq[0] % g != 0:
            return False
        if g > 1:
            eq = tuple(a // g for a in eq)
        k = min((j for j in range(1, len(eq)) if eq[j]),
                key=lambda j: abs(eq[j]))
        if abs(eq[k]) == 1:
            eqs = [linarith._unit_subst(r, eq, k) for r in eqs]
            ineqs = [linarith._unit_subst(r, eq, k) for r in ineqs]
            continue
        # symmetric mod: a fresh column sigma with sum(mods(a, m) x)
        # + mods(c, m) - m sigma = 0, in which x_k has a unit coefficient
        m = abs(eq[k]) + 1
        eqs = [r + (0,) for r in eqs]
        ineqs = [r + (0,) for r in ineqs]
        eqs.append(eq + (0,))
        eqs.append(tuple(linarith._mods(a, m) for a in eq) + (-m,))

    # -- normalize inequalities: gcd tightening, then the tightest
    # constant per coefficient vector
    tightest = {}
    for r in ineqs:
        coeffs = r[1:]
        g = math.gcd(*coeffs)
        if g == 0:
            if r[0] > 0:
                return False
            continue
        c = r[0]
        if g > 1:
            # a.x + c <= 0 tightens to (a/g).x + ceil(c/g) <= 0
            coeffs = tuple(a // g for a in coeffs)
            c = -(-c // g)
        if tightest.get(coeffs, c) <= c:
            tightest[coeffs] = c
    # a.x + c1 <= 0 and -a.x + c2 <= 0 need c1 + c2 <= 0
    for coeffs, c in tightest.items():
        opp = tightest.get(tuple(-a for a in coeffs))
        if opp is not None and c + opp > 0:
            return False
    if not tightest:
        return True
    ineqs = [(c,) + coeffs for coeffs, c in tightest.items()]

    # -- choose a column to eliminate: one bounded on one side only,
    # else an exact one (every pair has a unit side), else the fewest
    # lower * upper pairs
    best, best_cost = 0, None
    for v in range(1, len(ineqs[0])):
        lo = [r[v] for r in ineqs if r[v] < 0]
        hi = [r[v] for r in ineqs if r[v] > 0]
        if not lo and not hi:
            continue
        if not lo or not hi:
            best = v
            break
        cost = len(lo) * len(hi) - (1000 if linarith._exact(lo, hi) else 0)
        if best_cost is None or cost < best_cost:
            best, best_cost = v, cost
    v = best
    lows = [r for r in ineqs if r[v] < 0]
    highs = [r for r in ineqs if r[v] > 0]
    rest = [r for r in ineqs if r[v] == 0]
    if not lows or not highs:
        return reference_omega([], rest, budget)

    def shadow(dark):
        out = list(rest)
        for lo in lows:
            b = -lo[v]
            for hi in highs:
                a = hi[v]
                row = [a * x + b * y for x, y in zip(lo, hi)]
                if dark:
                    row[0] += (a - 1) * (b - 1)
                out.append(tuple(row))
        return out

    if linarith._exact([lo[v] for lo in lows], [hi[v] for hi in highs]):
        return reference_omega([], shadow(False), budget)
    if not reference_omega([], shadow(False), budget):
        return False
    if reference_omega([], shadow(True), budget):
        return True
    # splinters: some lower bound lo holds with slack i, lo + i = 0,
    # for 0 <= i <= top
    amax = max(hi[v] for hi in highs)
    for lo in lows:
        b = -lo[v]
        top = (amax * b - amax - b) // amax
        for i in range(top + 1):
            if reference_omega([(lo[0] + i,) + lo[1:]], ineqs, budget):
                return True
    return False


@dataclass(frozen=True)
class _FmRow:
    lin: tuple
    strict: bool
    lineage: tuple

    def coeffs(self):
        return dict(self.lin)


def _fm_row(lin, strict, lineage):
    return _FmRow(tuple(sorted((k, v) for k, v in lin.items() if v != 0)),
                  strict, tuple(sorted(lineage.items())))


def reference_fm_refute(cons):
    """`fm_refute` on Fractions, reading every row's coefficients for
    every test."""
    rows = []
    for i, c in enumerate(cons):
        lin = c.lin()
        if c.rel == "eq":
            rows.append(_fm_row(lin, False, {2 * i: Fraction(1)}))
            rows.append(_fm_row(_lin_scale(lin, Fraction(-1)), False,
                                {2 * i + 1: Fraction(1)}))
        elif c.rel == "le":
            rows.append(_fm_row(lin, False, {2 * i: Fraction(1)}))
        elif c.rel == "lt":
            rows.append(_fm_row(lin, True, {2 * i: Fraction(1)}))
        else:
            raise NotLinear("ne must be split before Fourier-Motzkin")
    while True:
        for r in rows:
            co = r.coeffs()
            keys = [k for k in co if k != CONST]
            if not keys:
                c0 = co.get(CONST, Fraction(0))
                if c0 > 0 or (r.strict and c0 >= 0):
                    return dict(r.lineage)
        vars_ = sorted({k for r in rows for k in r.coeffs() if k != CONST})
        if not vars_:
            return None
        best, best_cost = None, None
        for v in vars_:
            lo = sum(1 for r in rows if r.coeffs().get(v, 0) < 0)
            hi = sum(1 for r in rows if r.coeffs().get(v, 0) > 0)
            cost = lo * hi + lo + hi
            if best_cost is None or cost < best_cost:
                best, best_cost = v, cost
        v = best
        lows = [r for r in rows if r.coeffs().get(v, 0) < 0]
        highs = [r for r in rows if r.coeffs().get(v, 0) > 0]
        rest = [r for r in rows if r.coeffs().get(v, 0) == 0]
        new_rows = list(rest)
        for lo in lows:
            for hi in highs:
                a = -lo.coeffs()[v]
                b = hi.coeffs()[v]
                lin = _lin_add(_lin_scale(lo.coeffs(), b),
                               _lin_scale(hi.coeffs(), a))
                lin.pop(v, None)
                lineage = {}
                for idx, m in lo.lineage:
                    lineage[idx] = lineage.get(idx, Fraction(0)) + b * m
                for idx, m in hi.lineage:
                    lineage[idx] = lineage.get(idx, Fraction(0)) + a * m
                new_rows.append(_fm_row(lin, lo.strict or hi.strict, lineage))
        if len(new_rows) > 4000:
            raise NotLinear("Fourier-Motzkin blow-up guard")
        rows = new_rows


def reference_verify_farkas(cons, multipliers):
    total = {}
    strict = False
    for idx, mult in multipliers.items():
        if mult < 0 or not 0 <= idx < 2 * len(cons):
            return False
        base = cons[idx // 2]
        lin = base.lin()
        if base.rel == "eq" and idx % 2 == 1:
            lin = _lin_scale(lin, Fraction(-1))
        elif base.rel == "lt":
            strict = strict or mult > 0
        elif base.rel not in ("le", "eq"):
            return False
        total = _lin_add(total, lin, mult)
    if any(k != CONST and v != 0 for k, v in total.items()):
        return False
    c0 = total.get(CONST, Fraction(0))
    return c0 > 0 or (strict and c0 >= 0)


def _ref_side(c, gt):
    return _ref_con(_lin_scale(c.lin(), Fraction(-1)) if gt else c.lin(),
                    "lt")


def reference_prove_linear(goal):
    sort, hyps, branches = ref_collect_system(goal)
    if not branches:
        raise NotLinear("conclusion is trivially true; use rfl or eval_decide")
    return {"branches": [
        eager_refute(sort, hyps + branch, _ref_side, reference_omega_sat,
                     reference_fm_refute) for branch in branches]}


def _refuted(refute, cons):
    try:
        return refute(cons)
    except NotLinear as e:
        return str(e)


@st.composite
def _rational_systems(draw):
    """1-6 rows over x, y and z with small rational coefficients, as
    `(lin, rel)` pairs."""
    def row():
        den = draw(st.integers(1, 3))
        lin = {v: Fraction(draw(st.integers(-3, 3)), den) for v in "xyz"}
        lin[CONST] = Fraction(draw(st.integers(-6, 6)), den)
        return lin, draw(st.sampled_from(["le", "lt", "eq"]))
    return [row() for _ in range(draw(st.integers(1, 6)))]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_rational_systems())
def test_fm_refute_matches_the_reference(lins):
    # the same verdict on the integer rows as on the Fractions, and each
    # side's multipliers check on its own rows
    rows = linear_rows("xyz", lins)
    ref = [_ref_con(lin, rel) for lin, rel in lins]
    got, want = _refuted(fm_refute, rows), _refuted(reference_fm_refute, ref)
    assert type(got) is type(want)
    if isinstance(want, dict):
        assert verify_farkas(rows, got)
        assert reference_verify_farkas(ref, want)
    else:
        assert got == want


@st.composite
def _linear_goals(draw):
    """A goal over `ATOM_TELE`: 0-4 hypotheses and a conclusion of one
    or two atoms, all drawn from one sort's `ATOM_TEMPLATES`.  Half the
    time a hypothesis repeats the conclusion's first atom, so refutations
    are common."""
    sort = draw(st.sampled_from([INT, RAT]))
    atoms = [_template_atom(draw, sort)
             for _ in range(draw(st.integers(1, 2)))]
    concl = atoms[0] if len(atoms) == 1 else mk_conn(
        draw(st.sampled_from(["and", "or", "imp"])), tuple(atoms))
    hyps = [_template_atom(draw, sort) for _ in range(draw(st.integers(0, 4)))]
    if draw(st.booleans()):
        hyps.insert(draw(st.integers(0, len(hyps))), atoms[0])
    tele = ATOM_TELE
    for i, h in enumerate(hyps):
        tele = tele.extended(LocalDecl(f"h{i}", PROP, prop=h))
    return Goal("h", tele, concl)


def _proved(prove, goal):
    try:
        return "refuted", prove(goal)["branches"]
    except NotLinear as e:
        return "not linear", str(e)
    except TacticFailed as e:
        return "feasible", str(e)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_linear_goals())
def test_integer_rows_match_the_reference(goal):
    got, want = _proved(prove_linear, goal), _proved(reference_prove_linear,
                                                     goal)
    assert got[0] == want[0]
    if got[0] != "refuted":
        assert got == want
        return
    assert [b.keys() for b in got[1]] == [b.keys() for b in want[1]]
    _, hyps, branches = linarith._collect_system(goal)
    _, ref_hyps, ref_branches = ref_collect_system(goal)
    for new, ref, rows, ref_rows in zip(got[1], want[1], branches,
                                        ref_branches):
        if new:
            assert verify_farkas(hyps + rows, new["multipliers"])
            assert reference_verify_farkas(ref_hyps + ref_rows,
                                           ref["multipliers"])


def _in_the_fragment(goal):
    """Whether every atom of `goal` is linear in its variables: the
    system's columns are variables and literal-modulus keys, and no
    hypothesis is left out of it."""
    az, _ = linarith._branch_systems(goal)
    return all(key == CONST or isinstance(key, (Var, tuple))
               for key in az.cols) \
        and all(linarith._flatten_pos(normalize(d.prop), Atomizer(az.sort))
                is not None for d in goal.ctx.decls if d.prop is not None)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_linear_goals())
def test_every_feasible_point_is_a_countermodel(goal):
    # the contract `auto` and the RPE step rely on: in the fragment, the
    # point a Feasible failure carries, integer or rational, makes every
    # hypothesis True and the conclusion False
    try:
        prove_linear(goal)
        return
    except linarith.Feasible as e:
        point = e.point
    except TacticFailed:
        return
    if not _in_the_fragment(goal):
        return
    assert all(eval_at(d.prop, Point(point), MODEL_EVAL_BUDGET) is True
               for d in goal.ctx.decls if d.prop is not None), point
    assert eval_at(goal.concl, Point(point), MODEL_EVAL_BUDGET) is False


# ---------------------------------------------------------------------------
# The one memo of fm_refute and omega_point answers as the search does


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_rational_systems())
def test_fm_refute_memo_matches_the_elimination(lins):
    cons = linear_rows("xyz", lins)
    want = _refuted(lambda system: linarith._linear_memo.__wrapped__(
        system, False), tuple((c.row, c.rel) for c in cons))
    if isinstance(want, tuple):
        # (multipliers, None) when refuted, (None, point) when feasible
        want = None if want[0] is None else dict(want[0])
    linarith._linear_memo.cache_clear()
    cold = _refuted(fm_refute, cons)
    if isinstance(cold, dict):
        # a caller that changes its dict changes no later answer
        kept = dict(cold)
        cold[len(cons) * 2] = 1
        cold = kept
    warm = _refuted(fm_refute, cons)
    assert cold == want and warm == want


# ---------------------------------------------------------------------------
# The rational point Fourier-Motzkin back-substitutes


def _rational_system(rng, names):
    """2-7 rows over `names` with small rational coefficients, each
    `<=`, `<` or `=`; half the time every column is also boxed in
    [-2, 2] by rows of a random strictness, so tight systems and empty
    ones are common."""
    rows = []
    for _ in range(rng.randint(2, 7)):
        den = rng.randint(1, 3)
        lin = {n: Fraction(rng.randint(-3, 3), den) for n in names}
        lin[CONST] = Fraction(rng.randint(-6, 6), den)
        rows.append((lin, rng.choice(["le", "lt", "eq"])))
    if rng.random() < 0.5:
        for n in names:
            for sign in (1, -1):
                rows.append(({n: Fraction(sign), CONST: Fraction(-2)},
                             rng.choice(["le", "lt"])))
    rng.shuffle(rows)
    return linear_rows(names, rows)


def test_fm_point_exists_exactly_when_nothing_is_refuted(rng):
    # the back-substituted point satisfies every row, strict rows
    # strictly, and there is one exactly when fm_refute finds no Farkas
    # combination
    names = ["x", "y", "z"]
    feasible = refuted = 0
    for _ in range(800):
        cons = _rational_system(rng, names)
        try:
            multipliers = fm_refute(cons)
        except NotLinear:
            # the blow-up guard: no point either
            with pytest.raises(NotLinear):
                fm_point(cons)
            continue
        point = fm_point(cons)
        assert (point is None) == (multipliers is not None)
        if point is None:
            refuted += 1
            continue
        feasible += 1
        assert len(point) == 1 + len(names) and point[0] == 1
        assert all(isinstance(v, Fraction) for v in point)
        assert all(_holds_at(c, point) for c in cons), (cons, point)
    assert feasible > 200 and refuted > 200


def test_fm_point_takes_each_kind_of_bound():
    # x: the largest of its lower bounds, here strict against an upper
    # bound, so the midpoint; y: a strict upper bound alone, moved by 1;
    # z: equal non-strict bounds, that value; w: unbounded, 0
    rows = linear_rows(["x", "y", "z", "w"], [
        ({"x": -1, CONST: 1}, "le"),        # x >= 1
        ({"x": -1, CONST: 2}, "lt"),        # x > 2
        ({"x": 1, CONST: -3}, "le"),        # x <= 3
        ({"y": 1, CONST: -5}, "lt"),        # y < 5
        ({"z": 1, CONST: Fraction(-1, 2)}, "le"),
        ({"z": -1, CONST: Fraction(1, 2)}, "le"),
    ])
    assert fm_point(rows) == [1, Fraction(5, 2), 4, Fraction(1, 2), 0]
    # x > 2 and x < 2 share no point
    assert fm_point(linear_rows(["x"], [({"x": -1, CONST: 2}, "lt"),
                                        ({"x": 1, CONST: -2}, "lt")])) \
        is None


def _fan(k):
    """The 4 k bounds s x + i y <= 100 over x and y, s = +-1 and
    -k <= i < k: distinct coefficient vectors, no contradictory pair, so
    the first column eliminated is x (exact), with (2 k)^2 pairs."""
    return linear_rows(["x", "y"], [({"x": s, "y": i, CONST: -100}, "le")
                                    for s in (1, -1) for i in range(-k, k)])


def test_a_shadow_past_the_row_guard_raises_in_both_modes():
    assert linarith.MAX_SHADOW_ROWS == 4000
    # 60 * 60 pairs are under the guard, and 0 is a point
    assert fm_refute(_fan(30)) is None and omega_point(_fan(30))
    # 80 * 80 are over it
    for decide in (fm_refute, fm_point, omega_point):
        with pytest.raises(NotLinear, match="Fourier-Motzkin blow-up guard"):
            decide(_fan(40))


OMEGA_NAMES = ("x0", "x1", "x2")


@st.composite
def _int_systems(draw):
    """0-2 equalities and 1-4 inequalities over three integer columns,
    each column boxed in [-3, 3]."""
    def lin(lo, hi):
        out = {n: Fraction(draw(st.integers(lo, hi))) for n in OMEGA_NAMES}
        out[CONST] = Fraction(draw(st.integers(-8, 8)))
        return out
    eqs = [lin(-4, 5) for _ in range(draw(st.integers(0, 2)))]
    ineqs = [lin(-5, 5) for _ in range(draw(st.integers(1, 4)))]
    for n in OMEGA_NAMES:
        ineqs.append({n: Fraction(-1), CONST: Fraction(-3)})
        ineqs.append({n: Fraction(1), CONST: Fraction(-3)})
    return eqs, ineqs


def _omega_outcome(decide):
    try:
        return decide()
    except NotLinear as e:
        return str(e)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_int_systems(), st.permutations(OMEGA_NAMES))
def test_omega_memo_matches_the_search(system, names):
    eqs, ineqs = system
    cons = omega_rows(OMEGA_NAMES, eqs, ineqs)
    search = _omega_outcome(lambda: linarith._omega(
        [c.row for c in cons if c.rel == "eq"],
        [c.row for c in cons if c.rel == "le"],
        _OmegaBudget(linarith.MAX_OMEGA_NODES)))
    want = tuple(search) if isinstance(search, list) else search
    linarith._linear_memo.cache_clear()
    cold = _omega_outcome(lambda: omega_point(cons))
    warm = _omega_outcome(lambda: omega_point(cons))
    # the same system with its columns in another order: the verdict
    other = _omega_outcome(lambda: omega_sat(omega_rows(names, eqs, ineqs)))
    assert cold == want and warm == want
    assert other == (want if isinstance(want, str) else want is not None)
