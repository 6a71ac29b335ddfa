"""ring_nf: canonical multivariate polynomial normal forms.

Terms over one numeric sort are interpreted as polynomials with rational
coefficients; opaque subterms (symbolic reals, function applications,
non-constant denominators, truncated Nat subtraction) become ring atoms.
Two sides close the goal when their normal forms coincide; otherwise the
goal is rewritten with both sides in normal form (graded-lex monomial
order).  Real literals carry known rational values, so `2 + 1 = 1 + 2`
over the reals closes here even though it is not definitional.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ..expr import (
    App, Atom, Lit, MAX_LIT_BITS, NAT, RAT, REAL, Sort, Term,
    lit_bits, mk_app, mk_atom, mk_lit,
)
from ..norm import fold_literals
from ..kernel import (
    Certificate, CertificateError, Goal, SolutionState, TacticFailed,
    TacticResult, reads_no_argument, register_check, register_tactic,
)

MAX_RING_EXP = 64

# monomial: tuple of (atom_index, exponent), sorted by atom index
Mono = tuple[tuple[int, int], ...]
Poly = dict[Mono, Fraction]

ONE: Mono = ()


class NotRingExpr(TacticFailed):
    pass


class AtomTable:
    """The ring atoms met so far, numbered in order of first occurrence.
    Terms are interned, so an atom is keyed by its node."""

    def __init__(self) -> None:
        self.terms: list[Term] = []
        self.index: dict[Term, int] = {}

    def key(self, t: Term) -> int:
        k = self.index.get(t)
        if k is None:
            k = self.index[t] = len(self.terms)
            self.terms.append(t)
        return k


def _padd(a: Poly, b: Poly, scale: Fraction = Fraction(1)) -> Poly:
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, Fraction(0)) + scale * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def _pmul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mmul(m1, m2)
            v = out.get(m, Fraction(0)) + c1 * c2
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def _mmul(m1: Mono, m2: Mono) -> Mono:
    exps: dict[int, int] = dict(m1)
    for i, e in m2:
        exps[i] = exps.get(i, 0) + e
    return tuple(sorted(exps.items()))


def _ppow(a: Poly, e: int) -> Poly:
    out: Poly = {ONE: Fraction(1)}
    for _ in range(e):
        out = _pmul(out, a)
    return out


def poly_of(t: Term, atoms: AtomTable, sort: Sort) -> Poly:
    """`t`, already folded by `fold_literals`, as a polynomial; every
    subterm of a folded term is folded too."""
    if isinstance(t, Lit):
        return {ONE: t.val} if t.val else {}
    if isinstance(t, App):
        op = t.op
        if op == "add":
            return _padd(poly_of(t.args[0], atoms, sort),
                         poly_of(t.args[1], atoms, sort))
        if op == "sub" and sort != NAT:
            return _padd(poly_of(t.args[0], atoms, sort),
                         poly_of(t.args[1], atoms, sort), Fraction(-1))
        if op == "neg":
            return _padd({}, poly_of(t.args[0], atoms, sort), Fraction(-1))
        if op == "mul":
            return _pmul(poly_of(t.args[0], atoms, sort),
                         poly_of(t.args[1], atoms, sort))
        if op == "div" and sort in (RAT, REAL):
            den = poly_of(t.args[1], atoms, sort)
            if set(den) == {ONE}:
                return _padd({}, poly_of(t.args[0], atoms, sort),
                             1 / den[ONE])
        if op == "pow":
            e = _int_exp(t.args[1])
            if e is not None and 0 <= e <= MAX_RING_EXP:
                return _ppow(poly_of(t.args[0], atoms, sort), e)
    return {((atoms.key(t), 1),): Fraction(1)}


def _int_exp(t: Term) -> Optional[int]:
    if isinstance(t, Lit) and t.val.denominator == 1 and t.val >= 0:
        return int(t.val)
    return None


def _mono_key(m: Mono) -> tuple:
    # graded lexicographic: total degree first, then exponent vector
    degree = sum(e for _, e in m)
    return (-degree, m)


def _coeff_lit(c: Fraction, sort: Sort) -> Term:
    if lit_bits(c) > MAX_LIT_BITS:
        raise NotRingExpr(f"coefficient of more than {MAX_LIT_BITS} bits")
    return mk_lit(c, sort)


def render(p: Poly, atoms: AtomTable, sort: Sort) -> Term:
    if not p:
        return mk_lit(0, sort)
    parts: list[Term] = []
    for m in sorted(p, key=_mono_key):
        c = p[m]
        factors: list[Term] = []
        for idx, e in m:
            base = atoms.terms[idx]
            if e == 1:
                factors.append(base)
            else:
                exp_sort = REAL if sort == REAL else NAT
                factors.append(mk_app("pow", (base, mk_lit(e, exp_sort))))
        if not factors:
            parts.append(_coeff_lit(c, sort))
            continue
        term = factors[0]
        for f in factors[1:]:
            term = mk_app("mul", (term, f))
        if c != 1:
            term = mk_app("mul", (_coeff_lit(c, sort), term))
        parts.append(term)
    out = parts[0]
    for pt in parts[1:]:
        out = mk_app("add", (out, pt))
    return out


def ring_sides(concl: Term) -> tuple[Poly, Poly, AtomTable, Sort]:
    """Both sides of the equation `concl` as polynomials over one atom
    table, and their sort; the one place ring_nf's closure test, its
    revalidator and `ring_closes` get them.  Each side is folded once,
    here.  Raises NotRingExpr unless `concl` is an equation over a
    numeric sort."""
    if not (isinstance(concl, Atom) and concl.rel == "eq"):
        raise NotRingExpr("ring_nf needs an equality goal")
    lhs, rhs = concl.args
    if lhs.sort.kind in ("Set", "Fn", "Prop", "Bool"):
        raise NotRingExpr(f"ring_nf over {lhs.sort}")
    atoms = AtomTable()
    return (poly_of(fold_literals(lhs), atoms, lhs.sort),
            poly_of(fold_literals(rhs), atoms, rhs.sort), atoms, lhs.sort)


@register_tactic("ring_nf")
def ring_nf(state: SolutionState, goal: Goal, argtext: str) -> TacticResult:
    if goal.is_hole_goal():
        raise NotRingExpr("ring_nf does not apply to a hole goal")
    concl = goal.concl
    pl, pr, atoms, sort = ring_sides(concl)
    if pl == pr:
        return TacticResult(cert=Certificate("ring_nf", goal, {}))
    nl, nr = render(pl, atoms, sort), render(pr, atoms, sort)
    if (nl, nr) == concl.args:
        raise NotRingExpr("ring_nf: already in normal form, sides differ")
    new_goal = Goal(goal.case, goal.ctx, mk_atom("eq", (nl, nr)))
    return TacticResult(new_goals=(new_goal,))


def ring_closes(concl: Term) -> bool:
    """Closure check used by automation; no state needed."""
    try:
        pl, pr, _, _ = ring_sides(concl)
    except NotRingExpr:
        return False
    return pl == pr


@register_check("ring_nf", line=reads_no_argument)
def revalidate_ring_nf(cert: Certificate) -> None:
    """The two sides' normal forms are equal; the certificate holds no
    evidence, since both are functions of the goal."""
    cert.fills({})
    try:
        pl, pr, _, _ = ring_sides(cert.goal.concl)
    except NotRingExpr as e:
        raise CertificateError(f"ring_nf: {e}")
    if pl != pr:
        raise CertificateError("ring_nf certificate no longer validates")
