"""ring_nf: closure vectors, canonicality, random-evaluation cross-check."""

from fractions import Fraction

import pytest

from holebox.expr import (
    App, INT, Lit, LocalDecl, NAT, PROP, RAT, REAL, Telescope, Var, mk_atom,
    set_of,
)
from holebox.kernel import Goal, SolutionState, TacticFailed, apply_tactic
from holebox.syntax import parse_term, print_term
from holebox.tactics.ring import ring_sides


def closes(text, decls=()):
    tele = Telescope(tuple(decls))
    st = SolutionState(goals=(Goal("h", tele,
                                   parse_term(text, tele, PROP)),))
    try:
        out = apply_tactic(st, "h", "ring_nf", "")
    except TacticFailed:
        return False
    return not out.goals


R = LocalDecl("x", REAL)
MN = (LocalDecl("m", RAT), LocalDecl("n", RAT))


def test_square_expansion():
    assert closes("(x + 1)^2 = x^2 + 2*x + 1", (R,))


def test_product_expansion():
    assert closes("(m - 1) * (n - 1) = m*n - m - n + 1", MN)


def test_unequal_normal_forms():
    assert not closes("x + 1 = x + 2", (R,))


def test_real_literals_are_coefficients():
    assert closes("(2 + 1 : Real) = 1 + 2")


def test_division_by_constant():
    x = LocalDecl("x", REAL)
    assert closes("x / 4 * (9 * x^4) * (8 * x^3) = 18 * x^8", (x,))


def test_opaque_atoms():
    assert closes("sqrt 2 * sqrt 2 = sqrt 2 ^ 2")
    assert not closes("sqrt 2 * sqrt 2 = 2")   # no radical evaluation


def test_normalization_mode_transforms():
    tele = Telescope((R,))
    st = SolutionState(goals=(Goal("h", tele,
                                   parse_term("x + 1 = 1 + x + 1", tele,
                                              PROP)),))
    out = apply_tactic(st, "h", "ring_nf", "")
    assert out.goals
    assert print_term(out.goals[0].concl) == "x + 1 = x + 2"


def test_negation_and_a_product_of_atoms_in_normal_form():
    assert closes("-(m * n) + m * n = 0", MN)
    tele = Telescope(MN)
    st = SolutionState(goals=(Goal("h", tele, parse_term(
        "-(n * m) = m", tele, PROP)),))
    out = apply_tactic(st, "h", "ring_nf", "")
    assert print_term(out.goals[0].concl) == "-1 * (n * m) = m"


def test_canonicality_random_evaluation(rng, fuzzer):
    """p and q have one polynomial iff p - q vanishes at random
    rational points (10 points per identity, degree-bounded fragment)."""

    def rand_poly_term(depth):
        from holebox.expr import mk_app, mk_lit, mk_var
        if depth <= 0 or rng.random() < 0.35:
            if rng.random() < 0.5:
                return mk_var(rng.choice(["u", "v"]), RAT)
            return mk_lit(Fraction(rng.randint(-5, 5)), RAT)
        op = rng.choice(["add", "sub", "mul"])
        return mk_app(op, (rand_poly_term(depth - 1),
                           rand_poly_term(depth - 1)))

    def eval_at(t, env):
        if isinstance(t, Lit):
            return t.val
        if isinstance(t, Var):
            return env[t.name]
        assert isinstance(t, App)
        a = [eval_at(x, env) for x in t.args]
        return {"add": a[0] + a[1] if len(a) > 1 else None,
                "sub": a[0] - a[1] if len(a) > 1 else None,
                "mul": a[0] * a[1] if len(a) > 1 else None}[t.op]

    for _ in range(60):
        p = rand_poly_term(3)
        q = rand_poly_term(3)
        pl, pr, _, _ = ring_sides(mk_atom("eq", (p, q)))
        same_nf = pl == pr
        agree = all(
            eval_at(p, env) == eval_at(q, env)
            for env in ({"u": Fraction(rng.randint(-99, 99), rng.randint(1, 9)),
                         "v": Fraction(rng.randint(-99, 99), rng.randint(1, 9))}
                        for _ in range(10)))
        if same_nf:
            assert agree
        else:
            # sound direction: different normal forms must disagree somewhere
            # (overwhelmingly; equal-on-10-random-points then counts as a bug)
            assert not agree


def test_nat_truncated_subtraction_not_a_ring():
    k = LocalDecl("k", NAT)
    # (k - 5) + 5 = k is false at k = 0, and ring_nf must not prove it
    assert not closes("(k - 5) + 5 = k", (k,))


def test_oversized_coefficient_fails_cleanly():
    from holebox.kernel import Certificate
    from holebox.tactics.ring import revalidate_ring_nf
    tele = Telescope((LocalDecl("x", INT),))
    goal = Goal("h", tele, parse_term("(10^3000 + x)^2 = x^2", tele, PROP))
    with pytest.raises(TacticFailed, match="coefficient of more than"):
        apply_tactic(SolutionState(goals=(goal,)), "h", "ring_nf", "")
    # equal normal forms close the goal unrendered, so the size of their
    # coefficients does not matter, and the revalidator renders nothing
    square = Goal("h", tele, parse_term(
        "(10^3000 + x)^2 = (10^3000 + x) * (10^3000 + x)", tele, PROP))
    cert = apply_tactic(SolutionState(goals=(square,)), "h", "ring_nf",
                        "").trace[-1].cert
    assert cert == Certificate("ring_nf", square, {})
    revalidate_ring_nf(cert)


def test_ring_certificate_needs_a_ring_sort():
    # ring_nf refuses an equation over sets, and so does its revalidator
    from holebox.kernel import Certificate, CertificateError
    from holebox.tactics.ring import revalidate_ring_nf
    tele = Telescope((LocalDecl("A", set_of(INT)),))
    goal = Goal("h", tele, parse_term("A = A", tele, PROP))
    with pytest.raises(TacticFailed, match="ring_nf over"):
        apply_tactic(SolutionState(goals=(goal,)), "h", "ring_nf", "")
    with pytest.raises(CertificateError, match="ring_nf over"):
        revalidate_ring_nf(Certificate("ring_nf", goal, {}))
