"""linear_arith: spec vectors, completeness against brute force, Farkas."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from holebox.expr import INT, LocalDecl, NAT, PROP, RAT, REAL, Telescope
from holebox.kernel import (
    Certificate, CertificateError, Goal, SolutionState, TacticFailed,
    apply_tactic,
)
from holebox.norm import normalize
from holebox.syntax import parse_term
from holebox.tactics import linarith
from holebox.tactics.linarith import (
    CONST, MAX_NE_SPLITS, Atomizer, NotLinear, atom_to_constraints,
    fm_refute, linearize, omega_sat, prove_linear, refute_branch,
    revalidate_linear_arith, verify_farkas, _atom_constraints, _atom_memo,
    _fm_row, _hyp_atoms, _hyp_system, _int_rows, _lin_add, _lin_scale,
    _mk_con, _OmegaBudget,
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
        got = omega_sat([dict(e) for e in eqs], [dict(i) for i in ineqs])
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


def test_omega_brute_force_three_vars(rng):
    """Three variables, non-unit coefficients: the equalities take the
    symmetric-mod (sigma column) path, and the inequalities reach the
    dark shadow and the splinters."""
    names = ["x0", "x1", "x2"]
    bound = 3
    sat = 0
    for _ in range(200):
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
        for n in names:
            ineqs.append({n: Fraction(-1), CONST: Fraction(-bound)})
            ineqs.append({n: Fraction(1), CONST: Fraction(-bound)})
        got = omega_sat(eqs, ineqs)
        assert got == _box_sat(eqs, ineqs, names, bound)
        sat += got
    assert 40 < sat < 160     # both verdicts well represented


def test_omega_duplicate_rows_keep_the_tightest():
    x = {"x": Fraction(1)}
    # x <= 5, x <= 2 (twice), x >= 2: only x = 2 is left
    rows = [x | {CONST: Fraction(-5)}, x | {CONST: Fraction(-2)},
            x | {CONST: Fraction(-2)}, {"x": Fraction(-1), CONST: Fraction(2)}]
    assert omega_sat([], rows)
    # the same after scaling: 2x <= 4 tightens to x <= 2, 3x >= 7 to x >= 3
    assert not omega_sat([], [{"x": Fraction(2), CONST: Fraction(-4)},
                              x | {CONST: Fraction(-9)},
                              {"x": Fraction(-3), CONST: Fraction(7)}])


def test_omega_contradictory_opposite_pair():
    # x + 2y <= 3 and x + 2y >= 4
    lo = {"x": Fraction(1), "y": Fraction(2), CONST: Fraction(-3)}
    hi = {"x": Fraction(-1), "y": Fraction(-2), CONST: Fraction(4)}
    assert not omega_sat([], [lo, hi])
    # touching bounds meet: x + 2y = 3
    assert omega_sat([], [lo, {**hi, CONST: Fraction(3)}])


def test_omega_budget_exhaustion_is_not_linear():
    rows = [{"x": Fraction(1), CONST: Fraction(-5)},
            {"x": Fraction(-1)}]
    assert omega_sat([], rows)
    with pytest.raises(NotLinear):
        omega_sat([], rows, budget=_OmegaBudget(1))


def test_omega_rejects_non_integral_coefficients():
    with pytest.raises(NotLinear):
        omega_sat([], [{"x": Fraction(1, 2), CONST: Fraction(-1)}])
    with pytest.raises(NotLinear):
        omega_sat([{"x": Fraction(1), CONST: Fraction(1, 3)}], [])


def test_farkas_certificate_checks():
    cons = [
        _mk_con({"x": Fraction(1), CONST: Fraction(-3)}, "le"),   # x <= 3
        _mk_con({"x": Fraction(-1), CONST: Fraction(4)}, "le"),   # x >= 4
    ]
    farkas = fm_refute(cons)
    assert farkas is not None
    assert verify_farkas(cons, farkas)
    # a tampered combination must not verify
    tampered = {k: v + 1 for k, v in farkas.items()}
    bad = dict(tampered)
    bad[next(iter(bad))] = Fraction(-1)
    assert not verify_farkas(cons, bad)
    # a multiplier for a row the system does not have
    assert not verify_farkas(cons, {4: Fraction(1)})


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
    from holebox.syntax import print_term
    assert print_term(dict(out.assignment)["w"]) == "7"


def test_certificate_with_a_dropped_branch_rejected():
    # two negated conjuncts give two branches, each with its own Farkas
    # combination; a certificate that lists only one, or one multiplier
    # changed, must not validate
    st = state_for("0 < y + 1 /\\ 0 < y + 2", ["0 < y"], [("y", REAL)])
    cert = apply_tactic(st, "h", "linear_arith", "").trace[-1].cert
    first, second = cert.detail["branches"]
    assert [first["method"], second["method"]] == ["farkas", "farkas"]
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
    import holebox.tactics.linarith as linarith
    calls = []

    def counting(cons):
        calls.append(cons)
        return fm_refute(cons)

    monkeypatch.setattr(linarith, "fm_refute", counting)
    st = state_for("0 < y + 1 /\\ 0 < y + 2", ["0 < y"], [("y", REAL)])
    cert = apply_tactic(st, "h", "linear_arith", "").trace[-1].cert
    assert [b["method"] for b in cert.detail["branches"]] \
        == ["farkas", "farkas"]
    assert len(calls) == 2
    revalidate_linear_arith(cert)


def test_sums_that_differ_in_a_captured_variable_stay_two_atoms():
    # `intro x` opens `forall y` at x: the first sum adds the free x, the
    # second its own bound x.  linear_arith names atoms by their printed
    # text, so the printer must keep them apart, or it refutes nothing
    # and "proves" a false goal
    from holebox.syntax import print_term
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
# Disequality splits: the depth-first split against the full enumeration


def eager_splits(cons):
    """All 2^k splits of the k `ne` rows, in order, `<` before `>`."""
    systems = [[]]
    for c in cons:
        if c.rel != "ne":
            systems = [s + [c] for s in systems]
            continue
        lt = _mk_con(c.lin(), "lt")
        gt = _mk_con({k: -v for k, v in c.lin().items()}, "lt")
        systems = [s + [side] for s in systems for side in (lt, gt)]
    return systems


def _feasible(sort):
    if sort in (INT, NAT):
        return lambda sub: linarith.omega_sat(*_int_rows(sub))
    return lambda sub: linarith.fm_refute(sub) is None


def eager_refute(sort, cons):
    """`refute_branch` by checking every split up front."""
    if 2 ** sum(c.rel == "ne" for c in cons) > MAX_NE_SPLITS:
        raise NotLinear("too many disequalities to split")
    systems = eager_splits(cons)
    if any(_feasible(sort)(sub) for sub in systems):
        raise TacticFailed("linear_arith: system is feasible")
    if sort in (INT, NAT):
        return {"method": "omega"}
    if len(systems) == 1:
        return {"method": "farkas", "multipliers": fm_refute(cons)}
    return {"method": "fm-split"}


def _outcome(refute, sort, cons):
    try:
        return "refuted", refute(sort, cons)
    except NotLinear:
        return "not linear", None
    except TacticFailed:
        return "feasible", None


@st.composite
def _systems(draw):
    """An Int or Rat system over x and y with 0-6 disequalities, the
    other rows drawn from le, lt and eq, in a random order."""
    sort = draw(st.sampled_from([INT, RAT]))
    coef = st.integers(-3, 3)

    def row(rel):
        den = draw(st.integers(1, 3)) if sort == RAT else 1
        return _mk_con({"x": Fraction(draw(coef), den),
                        "y": Fraction(draw(coef), den),
                        CONST: Fraction(draw(st.integers(-6, 6)), den)}, rel)

    rels = ["ne"] * draw(st.integers(0, 6)) + draw(
        st.lists(st.sampled_from(["le", "lt", "eq"]), max_size=5))
    return sort, [row(rel) for rel in draw(st.permutations(rels))]


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
        return _feasible(sort)(sub)

    linarith._split_nes(cons, recording)
    leaves = iter(eager_splits(cons))
    assert all(any(leaf == sub for sub in leaves)
               for leaf in visited if len(leaf) == len(cons))


def _ne_rows(n):
    """1 <= x <= n and x != 1, ..., x != n over Int: infeasible."""
    box = [_mk_con({"x": Fraction(-1), CONST: Fraction(1)}, "le"),
           _mk_con({"x": Fraction(1), CONST: Fraction(-n)}, "le")]
    return box + [_mk_con({"x": Fraction(1), CONST: Fraction(-v)}, "ne")
                  for v in range(1, n + 1)]


def test_ne_split_guard():
    # MAX_NE_SPLITS = 64 systems: six disequalities split, seven do not
    assert MAX_NE_SPLITS == 2 ** 6
    assert refute_branch(INT, _ne_rows(6)) == {"method": "omega"}
    assert _outcome(eager_refute, INT, _ne_rows(6)) \
        == ("refuted", {"method": "omega"})
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

    def counting(eqs, ineqs, budget=None):
        calls.append(len(eqs) + len(ineqs))
        return omega_sat(eqs, ineqs, budget)

    monkeypatch.setattr(linarith, "omega_sat", counting)
    assert prove_linear(goal) == {"branches": [{"method": "omega"}]}
    # below the 2^6 of the full enumeration: at each split one side is
    # pruned and the other checked, and the root is never checked
    assert len(calls) == 12
    calls.clear()
    _, hyps, branches = linarith._collect_system(goal)
    assert eager_refute(INT, hyps + branches[0]) == {"method": "omega"}
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
        return _feasible(INT)(sub)

    assert not linarith._split_nes(cons, giving_up)
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
        return (list(az.table.items()), az.nat_keys, az.mod_constraints,
                az.counter, cons, out)

    _hyp_atoms.cache_clear()
    cold = run()
    warm = run()
    assert _hyp_atoms.cache_info().hits == 1
    _hyp_atoms.cache_clear()
    again = run()
    assert cold == warm == again == run()
    table, nat_keys, mods, counter, cons, _ = cold
    assert counter == 2 and len(mods) == 6
    assert nat_keys == {"`m`"}
    assert "`y % 4`" in dict(table) and "`m`" in dict(table)
    # the memo's own snapshot still ends before the target's atoms
    snap_table, snap_nat, snap_mods, snap_counter, _ = _hyp_atoms(
        tuple(normalize(d.prop) for d in tele.decls if d.prop), INT)
    assert snap_counter == 1 and len(snap_mods) == 3
    assert "`m`" not in dict(snap_table) and not snap_nat


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


@st.composite
def _atom_cases(draw):
    """A system sort, 0-4 hypothesis atoms and one atom to translate."""
    sort = draw(st.sampled_from([INT, RAT]))

    def atom():
        text = draw(st.sampled_from(ATOM_TEMPLATES[sort])).format(
            a=draw(st.integers(-3, 3)), b=draw(st.integers(-3, 3)),
            c=draw(st.integers(-4, 4)), k=draw(st.integers(2, 4)))
        return normalize(parse_term(text, ATOM_TELE, PROP))

    hyps = [atom() for _ in range(draw(st.integers(0, 4)))]
    return sort, hyps, atom()


def _atom_space(az):
    return (list(az.table.items()), set(az.nat_keys),
            list(az.mod_constraints), az.counter)


def _translate(translate, atom, base, positive):
    az = Atomizer(base.sort, dict(base.table), set(base.nat_keys),
                  list(base.mod_constraints), base.counter)
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
        # kept only when it leaves no name that depends on the space
        fresh = Atomizer(sort)
        atom_to_constraints(atom, fresh, positive)
        kept = _atom_memo(atom, sort, positive) is not None
        assert kept == (not fresh.counter and not fresh.mod_constraints)


# ---------------------------------------------------------------------------
# Fourier-Motzkin: the per-round coefficient reads change nothing


def reference_fm_refute(cons):
    """`fm_refute` as it read every row's coefficients for every test."""
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


@st.composite
def _rational_systems(draw):
    """1-6 rows over x, y and z with small rational coefficients."""
    def row():
        den = draw(st.integers(1, 3))
        lin = {v: Fraction(draw(st.integers(-3, 3)), den) for v in "xyz"}
        lin[CONST] = Fraction(draw(st.integers(-6, 6)), den)
        return _mk_con(lin, draw(st.sampled_from(["le", "lt", "eq"])))
    return [row() for _ in range(draw(st.integers(1, 6)))]


def _refuted(refute, cons):
    try:
        return refute(cons)
    except NotLinear as e:
        return str(e)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_rational_systems())
def test_fm_refute_matches_the_reference(cons):
    assert _refuted(fm_refute, cons) == _refuted(reference_fm_refute, cons)


# ---------------------------------------------------------------------------
# The memos of fm_refute and omega_sat answer as the deciders do


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_rational_systems())
def test_fm_refute_memo_matches_the_elimination(cons):
    want = _refuted(reference_fm_refute, cons)
    linarith._fm_memo.cache_clear()
    cold = _refuted(fm_refute, cons)
    if isinstance(cold, dict):
        # a caller that changes its dict changes no later answer
        kept = dict(cold)
        cold[len(cons) * 2] = Fraction(1)
        cold = kept
    warm = _refuted(fm_refute, cons)
    moved = _refuted(fm_refute, [_mk_con(c.lin(), c.rel, origin=5)
                                 for c in cons])
    assert cold == want and warm == want and moved == want


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
@given(_int_systems(), st.permutations(("a", "b", "c")))
def test_omega_memo_matches_the_search(system, names):
    eqs, ineqs = system

    def rows(lins):
        return [tuple(int(r.get(k, 0)) for k in (CONST,) + OMEGA_NAMES)
                for r in lins]

    want = _omega_outcome(lambda: linarith._omega(
        rows(eqs), rows(ineqs), _OmegaBudget(linarith.MAX_OMEGA_NODES)))
    linarith._omega_memo.cache_clear()
    cold = _omega_outcome(lambda: omega_sat(eqs, ineqs))
    warm = _omega_outcome(lambda: omega_sat(eqs, ineqs))
    # the same system under other atom names, in another column order
    rename = dict(zip(OMEGA_NAMES, names), **{CONST: CONST})
    renamed = [[{rename[k]: v for k, v in r.items()} for r in part]
               for part in (eqs, ineqs)]
    other = _omega_outcome(lambda: omega_sat(*renamed))
    assert cold == want and warm == want and other == want
