"""linear_arith: decision procedure for linear arithmetic goals.

The goal is proved when the hypotheses together with the negated
conclusion form an infeasible system.  Rational systems go through
Fourier-Motzkin elimination with exact arithmetic, and the derived
contradiction is recorded as a Farkas combination that revalidation
re-checks by direct arithmetic.  Integer (not Nat, see below)
systems go through the omega test (Pugh, 1991) on plain `int` rows
`(c, a_1, ..., a_n)` over one fixed column order: unit equalities are
substituted away, any other equality is reduced through a fresh sigma
column by the symmetric-mod step, and inequalities are gcd-tightened,
kept one per coefficient vector (the one with the largest constant),
checked for a contradictory opposite pair, and projected through the
real and dark shadows with splinters, so the procedure is complete on
its fragment.  `Fraction` appears only in linearization, in
Fourier-Motzkin and in the Farkas multipliers.  Literal-modulus
constraints (t % m = r, m | t, even/odd) are compiled to quotient
variables.

Nat is not translated as nonnegative Int.  A Nat conclusion puts the
system over Int, and a comparison (`=`, `!=`, `<`, `<=`) between Nat
terms raises `NotLinear` there, so a goal that compares Nat terms is not
proved and a hypothesis that does is left out of the system.  Only
`m | t`, `even t` and `odd t` take Nat arguments into an Int system,
and the Nat atoms they bring get a non-negativity row each.

A disequality `e != 0` is split into `e < 0` or `e > 0`.  The splits
of a system's k disequalities (at most `MAX_NE_SPLITS` = 2^k systems)
are searched depth first, `<` before `>`, and every partial split below
the root is checked on its own: one that is infeasible has no feasible
completion, so it prunes its whole subtree.  The full splits that are
checked are the same systems, in the same order, as an enumeration of
all 2^k, so verdicts and certificates do not depend on the pruning.  A
strict side is built when the search first reaches it.

The hypotheses of a goal are translated once per (hypotheses, sort):
`_hyp_atoms` is a bounded memo of their constraints and of the atom
space they leave (atom table, Nat atoms, modulus rows, fresh-name
counter), and each call extends its own copy with the target, so atom
names and row order come out as if translated afresh.  Below that, each
atom is translated once per (atom, sort, polarity): `_atom_memo` keeps
its translation against an empty atom space, and `_atom_constraints`
replays it into the caller's, registering the same keys in the same
order.  An atom whose translation makes a fresh `$` name or modulus
rows, or raises, is translated in place every time.  A constraint
builds its integer row once, on first use (`Constraint.int_row`), so a
memoized constraint is scaled once however many systems it joins.

The two deciders are memoized on what they read, in bounded tables of
`LINEAR_MEMO_ENTRIES`: `fm_refute` on each constraint's `(expr, rel)`
(its `origin` is not read), keeping the multipliers as an immutable
tuple and handing each caller a fresh dict; `omega_sat` on the integer
rows `(c, a_1, ..., a_n)` it builds over the sorted columns, so systems
that differ only in atom names share a verdict, which omega never
depends on.  A search that runs out of nodes raises and is not kept,
and a call with a caller's `_OmegaBudget` is not memoized.
`revalidate_linear_arith` still checks stored multipliers with
`verify_farkas`, arithmetic that shares nothing with the memo.

Nonlinear subterms are abstracted as opaque atoms, which only weakens
the system, so every proof produced here is sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Collection, Optional

from ..expr import (
    App, Atom, Conn, INT, Lit, Meta, NAT, RAT, REAL, Sort, Term, Var,
    instantiate_metas, subterms,
)
from ..norm import fold_literals, normalize
from ..kernel import (
    Certificate, CertificateError, Goal, SolutionState, TacticFailed,
    TacticResult, register_tactic,
)
from ..syntax import print_term
from .decide import _assign_split, _value_term

MAX_NE_SPLITS = 64
MAX_OMEGA_NODES = 20000
MAX_SYNTH_SCAN = 64


class NotLinear(TacticFailed):
    pass


# A linear expression is a mapping from atom keys to coefficients; the
# empty key holds the constant.
Lin = dict[str, Fraction]
IntLin = dict[str, int]       # a Lin scaled to integer coefficients

CONST = ""


def _lin_add(a: Lin, b: Lin, bs: Fraction = Fraction(1)) -> Lin:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + bs * v
        if out[k] == 0 and k != CONST:
            del out[k]
    return out


def _lin_scale(a: Lin, s: Fraction) -> Lin:
    out = {}
    for k, v in a.items():
        p = v * s
        if p or k == CONST:
            out[k] = p
    return out


def _lin_neg(a: Lin) -> Lin:
    return {k: -v for k, v in a.items()}


@dataclass
class Atomizer:
    """Maps opaque non-linear subterms to stable atom names."""
    sort: Sort
    table: dict[str, Term] = field(default_factory=dict)
    nat_keys: set[str] = field(default_factory=set)
    mod_constraints: list["Constraint"] = field(default_factory=list)
    counter: int = 0

    def key_for(self, t: Term) -> str:
        key = f"`{print_term(t)}`"
        if key not in self.table:
            self.table[key] = t
            if t.sort == NAT:
                self.nat_keys.add(key)
        return key

    def fresh(self, prefix: str, nat: bool = False) -> str:
        self.counter += 1
        key = f"${prefix}{self.counter}"
        if nat:
            self.nat_keys.add(key)
        return key


@dataclass(frozen=True)
class Constraint:
    """expr (<= | < | = | !=) 0 over the shared atom space."""
    expr: tuple[tuple[str, Fraction], ...]
    rel: str                      # le | lt | eq | ne
    origin: int = -1              # index into the certificate's atom list

    def lin(self) -> Lin:
        return dict(self.expr)

    @cached_property
    def int_row(self) -> IntLin:
        """The row scaled to integer coefficients, built on first use; a
        strict row is tightened to `<= 0` by adding 1 to its constant."""
        if self.rel == "ne":
            raise NotLinear("ne must be split before omega")
        den = math.lcm(*(v.denominator for _, v in self.expr))
        lin = {k: v.numerator * (den // v.denominator) for k, v in self.expr}
        if self.rel == "lt":
            lin[CONST] = lin.get(CONST, 0) + 1
        return lin


def _mk_con(lin: Lin, rel: str, origin: int = -1) -> Constraint:
    items = tuple(sorted((k, v) for k, v in lin.items()
                         if v != 0 or k == CONST))
    return Constraint(items, rel, origin)


def linearize(t: Term, az: Atomizer) -> Lin:
    t = fold_literals(t)
    if isinstance(t, Lit):
        return {CONST: t.val}
    if isinstance(t, App):
        if t.op == "add":
            return _lin_add(linearize(t.args[0], az), linearize(t.args[1], az))
        if t.op == "sub" and t.sort != NAT:
            return _lin_add(linearize(t.args[0], az),
                            linearize(t.args[1], az), Fraction(-1))
        if t.op == "neg":
            return _lin_scale(linearize(t.args[0], az), Fraction(-1))
        if t.op == "mul":
            lhs, rhs = t.args
            lv = _const_value(lhs)
            if lv is not None:
                return _lin_scale(linearize(rhs, az), lv)
            rv = _const_value(rhs)
            if rv is not None:
                return _lin_scale(linearize(lhs, az), rv)
        if t.op == "div" and t.sort in (RAT, REAL):
            rv = _const_value(t.args[1])
            if rv:
                return _lin_scale(linearize(t.args[0], az), 1 / rv)
        if t.op == "mod" and t.sort in (NAT, INT):
            m = _const_value(t.args[1])
            if m is not None and m > 0:
                return {_mod_key(t.args[0], int(m), az): Fraction(1)}
    if isinstance(t, Var):
        key = az.key_for(t)
        return {key: Fraction(1)}
    # anything else is an opaque atom
    return {az.key_for(t): Fraction(1)}


def _const_value(t: Term) -> Optional[Fraction]:
    t = fold_literals(t)
    return t.val if isinstance(t, Lit) else None


def _mod_key(t: Term, m: int, az: Atomizer) -> str:
    """Abstract t % m with vars q, r and side constraints t = m q + r,
    0 <= r < m."""
    key = f"`{print_term(t)} % {m}`"
    if key in az.table:
        return key
    az.table[key] = t            # placeholder registration
    base = linearize(t, az)
    q = az.fresh("q")
    r = key
    # t - m q - r = 0
    eq = _lin_add(base, {q: Fraction(m), r: Fraction(1)}, Fraction(-1))
    az.mod_constraints.append(_mk_con(eq, "eq"))
    az.mod_constraints.append(_mk_con({r: Fraction(-1)}, "le"))
    az.mod_constraints.append(
        _mk_con({r: Fraction(1), CONST: Fraction(1 - m)}, "le"))
    return key


def atom_to_constraints(a: Atom, az: Atomizer, positive: bool
                        ) -> list[Constraint]:
    """Translate one relational atom (or its negation) to constraints."""
    rel = a.rel
    int_path = az.sort in (INT, NAT)
    one = Fraction(1)
    if rel in ("eq", "ne", "lt", "le"):
        if a.args[0].sort != az.sort:
            raise NotLinear(f"atom over {a.args[0].sort}, system over {az.sort}")
        lhs = linearize(a.args[0], az)
        rhs = linearize(a.args[1], az)
        diff = _lin_add(lhs, rhs, Fraction(-1))
        if not positive:
            rel = {"eq": "ne", "ne": "eq", "lt": "le", "le": "lt"}[rel]
            if rel in ("le", "lt"):
                diff = _lin_neg(diff)
        if rel == "eq":
            return [_mk_con(diff, "eq")]
        if rel == "ne":
            return [_mk_con(diff, "ne")]
        if rel == "le":
            return [_mk_con(diff, "le")]
        # strict: integers tighten to <=
        if int_path:
            return [_mk_con(_lin_add(diff, {CONST: one}), "le")]
        return [_mk_con(diff, "lt")]
    if not int_path:
        raise NotLinear(f"relation {rel} outside the Int path")
    if rel == "dvd":
        m = _const_value(a.args[0])
        if m is None or m <= 0:
            raise NotLinear("divisibility with a non-literal modulus")
        r = _mod_key(a.args[1], int(m), az)
        return [_mk_con({r: one}, "eq" if positive else "ne")]
    if rel in ("even", "odd"):
        r = _mod_key(a.args[0], 2, az)
        want_zero = (rel == "even") == positive
        return [_mk_con({r: one}, "eq" if want_zero else "ne")]
    raise NotLinear(f"relation {rel} is not linear")


ATOM_MEMO_ENTRIES = 64


def _atom_constraints(a: Atom, az: Atomizer, positive: bool
                      ) -> list[Constraint]:
    """`atom_to_constraints`, translated once per (atom, sort, polarity):
    a memoized translation is replayed into `az`, registering its atom
    keys in order as `Atomizer.key_for` would.  An atom the memo does not
    hold is translated in place."""
    memo = _atom_memo(a, az.sort, positive)
    if memo is None:
        return atom_to_constraints(a, az, positive)
    keys, cons = memo
    for key, t in keys:
        if key not in az.table:
            az.table[key] = t
            if t.sort == NAT:
                az.nat_keys.add(key)
    return list(cons)


@lru_cache(maxsize=ATOM_MEMO_ENTRIES)
def _atom_memo(a: Atom, sort: Sort, positive: bool) -> Optional[tuple]:
    """The translation of `a` against an empty atom space, as `(table
    items, constraints)`; None when it makes a fresh `$` key or modulus
    rows, whose names depend on the space, or raises `NotLinear`."""
    az = Atomizer(sort)
    try:
        cons = atom_to_constraints(a, az, positive)
    except NotLinear:
        return None
    if az.counter or az.mod_constraints:
        return None
    return tuple(az.table.items()), tuple(cons)


def _flatten_pos(t: Term, az: Atomizer) -> Optional[list[Constraint]]:
    """A proposition as a conjunction of linear constraints, or None."""
    if isinstance(t, Conn) and t.op == "and":
        lhs = _flatten_pos(t.args[0], az)
        rhs = _flatten_pos(t.args[1], az)
        if lhs is None or rhs is None:
            return None
        return lhs + rhs
    if isinstance(t, Conn) and t.op == "not" and isinstance(t.args[0], Atom):
        try:
            return _atom_constraints(t.args[0], az, positive=False)
        except NotLinear:
            return None
    if isinstance(t, Conn) and t.op == "true":
        return []
    if isinstance(t, Atom):
        try:
            return _atom_constraints(t, az, positive=True)
        except NotLinear:
            return None
    return None


def _negation_dnf(t: Term, az: Atomizer) -> list[list[Constraint]]:
    """Disjuncts of not(t), each a conjunction of constraints."""
    if isinstance(t, Conn):
        if t.op == "and":
            return _negation_dnf(t.args[0], az) + _negation_dnf(t.args[1], az)
        if t.op == "or":
            out = []
            for l in _negation_dnf(t.args[0], az):
                for r in _negation_dnf(t.args[1], az):
                    out.append(l + r)
            return out
        if t.op == "imp":
            pos = _flatten_pos(t.args[0], az)
            if pos is None:
                raise NotLinear("non-linear antecedent in the conclusion")
            return [pos + d for d in _negation_dnf(t.args[1], az)]
        if t.op == "not":
            pos = _flatten_pos(t.args[0], az)
            if pos is None:
                raise NotLinear("non-linear negated conclusion")
            return [pos]
        if t.op == "false":
            return [[]]
        if t.op == "true":
            return []
    if isinstance(t, Atom):
        return [_atom_constraints(t, az, positive=False)]
    raise NotLinear("conclusion is not in the linear fragment")


# ---------------------------------------------------------------------------
# Rational path: Fourier-Motzkin with Farkas tracking


@dataclass(frozen=True)
class _FmRow:
    lin: tuple[tuple[str, Fraction], ...]
    strict: bool
    lineage: tuple[tuple[int, Fraction], ...]   # origin index -> multiplier

    def coeffs(self) -> Lin:
        return dict(self.lin)


def _fm_row(lin: Lin, strict: bool, lineage: dict[int, Fraction]) -> _FmRow:
    return _FmRow(tuple(sorted((k, v) for k, v in lin.items() if v != 0)),
                  strict, tuple(sorted(lineage.items())))


LINEAR_MEMO_ENTRIES = 64


def fm_refute(cons: list[Constraint]) -> Optional[dict[int, Fraction]]:
    """Return Farkas multipliers showing infeasibility, or None if feasible.

    Equalities are split into two tracked inequalities; `ne` rows must be
    split by the caller.  Each call gets a dict of its own.
    """
    farkas = _fm_memo(tuple((c.expr, c.rel) for c in cons))
    return None if farkas is None else dict(farkas)


@lru_cache(maxsize=LINEAR_MEMO_ENTRIES)
def _fm_memo(system: tuple[tuple[tuple, str], ...]
             ) -> Optional[tuple[tuple[int, Fraction], ...]]:
    """Fourier-Motzkin elimination on `(expr, rel)` pairs, which are all
    of a constraint that it reads; the multipliers as sorted pairs."""
    rows: list[_FmRow] = []
    for i, (expr, rel) in enumerate(system):
        lin = dict(expr)
        if rel == "eq":
            rows.append(_fm_row(lin, False, {2 * i: Fraction(1)}))
            rows.append(_fm_row(_lin_scale(lin, Fraction(-1)), False,
                                {2 * i + 1: Fraction(1)}))
        elif rel == "le":
            rows.append(_fm_row(lin, False, {2 * i: Fraction(1)}))
        elif rel == "lt":
            rows.append(_fm_row(lin, True, {2 * i: Fraction(1)}))
        else:
            raise NotLinear("ne must be split before Fourier-Motzkin")
    while True:
        # each row's coefficients, read once this round
        cos = [r.coeffs() for r in rows]
        for r, co in zip(rows, cos):
            if all(k == CONST for k in co):
                c0 = co.get(CONST, Fraction(0))
                if c0 > 0 or (r.strict and c0 >= 0):
                    return r.lineage
        lo_n: dict[str, int] = {}
        hi_n: dict[str, int] = {}
        for co in cos:
            for k, c in co.items():
                if k != CONST:
                    count = lo_n if c < 0 else hi_n
                    count[k] = count.get(k, 0) + 1
        if not lo_n and not hi_n:
            return None
        # eliminate the variable with the fewest lower*upper products
        best, best_cost = None, None
        for v in sorted(lo_n.keys() | hi_n.keys()):
            lo, hi = lo_n.get(v, 0), hi_n.get(v, 0)
            cost = lo * hi + lo + hi
            if best_cost is None or cost < best_cost:
                best, best_cost = v, cost
        v = best
        lows = [(r, co) for r, co in zip(rows, cos) if co.get(v, 0) < 0]
        highs = [(r, co) for r, co in zip(rows, cos) if co.get(v, 0) > 0]
        new_rows = [r for r, co in zip(rows, cos) if co.get(v, 0) == 0]
        for lo, lo_co in lows:
            for hi, hi_co in highs:
                a = -lo_co[v]
                b = hi_co[v]
                lin = _lin_add(_lin_scale(lo_co, b), _lin_scale(hi_co, a))
                lin.pop(v, None)
                lineage: dict[int, Fraction] = {}
                for idx, m in lo.lineage:
                    lineage[idx] = lineage.get(idx, Fraction(0)) + b * m
                for idx, m in hi.lineage:
                    lineage[idx] = lineage.get(idx, Fraction(0)) + a * m
                new_rows.append(_fm_row(lin, lo.strict or hi.strict, lineage))
        if len(new_rows) > 4000:
            raise NotLinear("Fourier-Motzkin blow-up guard")
        rows = new_rows


def verify_farkas(cons: list[Constraint], multipliers: dict[int, Fraction]
                  ) -> bool:
    """Check a Farkas combination: nonneg multipliers, zero coefficients,
    contradictory constant."""
    total: Lin = {}
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


# ---------------------------------------------------------------------------
# Integer path: the omega test over int rows


def _int_rows(cons: list[Constraint]
              ) -> tuple[list[IntLin], list[IntLin]]:
    """The constraints' integer rows, as (equalities, inequalities <= 0).
    The rows are shared with the constraints and must not be changed."""
    eqs: list[IntLin] = []
    ineqs: list[IntLin] = []
    for c in cons:
        (eqs if c.rel == "eq" else ineqs).append(c.int_row)
    return eqs, ineqs


def _mods(a: int, m: int) -> int:
    """Symmetric residue in (-m/2, m/2]."""
    r = a % m
    if r * 2 > m:
        r -= m
    return r


class _OmegaBudget:
    def __init__(self, n: int):
        self.n = n

    def tick(self) -> None:
        self.n -= 1
        if self.n < 0:
            raise NotLinear("omega node budget exceeded")


# An omega row is (c, a_1, ..., a_n): the constraint a.x + c (= | <=) 0
# over one fixed column order.
Row = tuple[int, ...]


def omega_sat(eqs: list[Lin] | list[IntLin],
              ineqs: list[Lin] | list[IntLin],
              budget: Optional[_OmegaBudget] = None) -> bool:
    """Integer satisfiability of {eq = 0} and {ineq <= 0}.

    Every coefficient and constant must be an integer, else `NotLinear`.
    The rows are mapped once to `int` tuples `(c, a_1, ..., a_n)` over
    the sorted atom names, and the search (`_omega`) works on those
    alone: the symmetric-mod step appends a fresh sigma column to every
    row, and each node keeps one inequality per coefficient vector, the
    one with the largest constant.  Each node costs one tick of
    `budget`; running out raises `NotLinear`.

    Without a `budget`, the search gets a fresh one of `MAX_OMEGA_NODES`
    and its verdict is memoized on the rows, which omega alone reads; a
    caller's budget is shared state, so such a call is not memoized.
    """
    cols = sorted({k for row in eqs + ineqs for k in row if k != CONST})

    def to_row(lin: Lin | IntLin) -> Row:
        vals = [lin.get(CONST, 0)] + [lin.get(k, 0) for k in cols]
        if any(v.denominator != 1 for v in vals):
            raise NotLinear("omega needs integer coefficients")
        return tuple(v.numerator for v in vals)

    eq_rows = tuple(to_row(e) for e in eqs)
    ineq_rows = tuple(to_row(i) for i in ineqs)
    if budget is None:
        return _omega_memo(eq_rows, ineq_rows)
    return _omega(list(eq_rows), list(ineq_rows), budget)


@lru_cache(maxsize=LINEAR_MEMO_ENTRIES)
def _omega_memo(eqs: tuple[Row, ...], ineqs: tuple[Row, ...]) -> bool:
    return _omega(list(eqs), list(ineqs), _OmegaBudget(MAX_OMEGA_NODES))


def _omega(eqs: list[Row], ineqs: list[Row], budget: _OmegaBudget) -> bool:
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
            eqs = [_unit_subst(r, eq, k) for r in eqs]
            ineqs = [_unit_subst(r, eq, k) for r in ineqs]
            continue
        # symmetric mod: a fresh column sigma with sum(mods(a, m) x)
        # + mods(c, m) - m sigma = 0, in which x_k has a unit coefficient
        m = abs(eq[k]) + 1
        eqs = [r + (0,) for r in eqs]
        ineqs = [r + (0,) for r in ineqs]
        eqs.append(eq + (0,))
        eqs.append(tuple(_mods(a, m) for a in eq) + (-m,))

    # -- normalize inequalities: gcd tightening, then the tightest
    # constant per coefficient vector
    tightest: dict[Row, int] = {}
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
        cost = len(lo) * len(hi) - (1000 if _exact(lo, hi) else 0)
        if best_cost is None or cost < best_cost:
            best, best_cost = v, cost
    v = best
    lows = [r for r in ineqs if r[v] < 0]
    highs = [r for r in ineqs if r[v] > 0]
    rest = [r for r in ineqs if r[v] == 0]
    if not lows or not highs:
        return _omega([], rest, budget)

    def shadow(dark: bool) -> list[Row]:
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

    if _exact([lo[v] for lo in lows], [hi[v] for hi in highs]):
        return _omega([], shadow(False), budget)
    if not _omega([], shadow(False), budget):
        return False
    if _omega([], shadow(True), budget):
        return True
    # splinters: some lower bound lo holds with slack i, lo + i = 0,
    # for 0 <= i <= top
    amax = max(hi[v] for hi in highs)
    for lo in lows:
        b = -lo[v]
        top = (amax * b - amax - b) // amax
        for i in range(top + 1):
            if _omega([(lo[0] + i,) + lo[1:]], ineqs, budget):
                return True
    return False


def _unit_subst(r: Row, eq: Row, k: int) -> Row:
    """Eliminate column k from r by the equality eq, where eq[k] = +-1:
    x_k = -eq[k] * (the rest of eq), so r becomes r - (r[k] * eq[k]) * eq."""
    s = r[k] * eq[k]
    if not s:
        return r
    return tuple(x - s * y for x, y in zip(r, eq))


def _exact(lo: list[int], hi: list[int]) -> bool:
    """Every lower/upper pair has a unit coefficient on one side."""
    return all(a == -1 for a in lo) or all(a == 1 for a in hi)


# ---------------------------------------------------------------------------
# System assembly and the tactic


HYP_MEMO_ENTRIES = 64


def _hyp_system(goal: Goal, sort: Sort,
                target: Callable[[Atomizer], object]
                ) -> tuple[Atomizer, list[Constraint], object]:
    """The hypotheses of `goal` as constraints over a fresh atom space.

    `target` translates what is to be proved (or pinned) in between, so
    that its atoms get the Nat non-negativity rows and the modulus rows
    too; those rows come last.  The hypotheses' part comes from
    `_hyp_atoms`, copied, so `target` extends it as it would a fresh
    translation.
    """
    props = []
    for d in goal.ctx.decls:
        if d.prop is None:
            continue
        prop = normalize(d.prop)
        if not prop.has_meta:
            props.append(prop)
    table, nat_keys, mods, counter, hyp_cons = _hyp_atoms(tuple(props), sort)
    az = Atomizer(sort, dict(table), set(nat_keys), list(mods), counter)
    cons = list(hyp_cons)
    out = target(az)
    # Nat atoms are nonnegative integers
    cons.extend(_mk_con({key: Fraction(-1)}, "le")
                for key in sorted(az.nat_keys))
    cons.extend(az.mod_constraints)
    return az, cons, out


@lru_cache(maxsize=HYP_MEMO_ENTRIES)
def _hyp_atoms(props: tuple[Term, ...], sort: Sort) -> tuple:
    """The constraints of the linear conjuncts of `props`, in order, and
    the atom space they leave: `(table items, nat_keys, mod rows,
    counter, constraints)`, all immutable."""
    az = Atomizer(sort)
    cons: list[Constraint] = []
    for prop in props:
        flat = _flatten_pos(prop, az)
        if flat is not None:
            cons.extend(flat)
    return (tuple(az.table.items()), frozenset(az.nat_keys),
            tuple(az.mod_constraints), az.counter, tuple(cons))


def _collect_system(goal: Goal) -> tuple[Atomizer, list[Constraint],
                                         list[list[Constraint]]]:
    concl = goal.concl
    if not isinstance(concl, Term):
        raise NotLinear("hole goals are not linear goals")
    concl = normalize(concl)
    return _hyp_system(goal, _goal_sort(concl),
                       lambda az: _negation_dnf(concl, az))


def _goal_sort(concl: Term) -> Sort:
    for s in subterms(concl):
        if isinstance(s, Atom) and s.rel in ("eq", "ne", "lt", "le") \
                and s.args[0].sort in (NAT, INT, RAT, REAL):
            sort = s.args[0].sort
            return INT if sort == NAT else sort
        if isinstance(s, Atom) and s.rel in ("dvd", "even", "odd"):
            return INT
    raise NotLinear("no linear relation in the conclusion")


def _split_nes(cons: list[Constraint],
               feasible: Callable[[list[Constraint]], bool]) -> bool:
    """Whether some split of the ne constraints into strict sides (`<`,
    then `>`) leaves a feasible system.

    The splits are searched depth first, in constraint order, and each
    node below the root is checked with the decided sides only: an
    infeasible one has no feasible split under it, so its subtree is
    skipped; a check that gives up (`NotLinear`) skips nothing.  The
    leaves reached are the full splits, in their enumeration order,
    with every constraint where it stood.
    """
    nes = [i for i, c in enumerate(cons) if c.rel == "ne"]
    if 2 ** len(nes) > MAX_NE_SPLITS:
        raise NotLinear("too many disequalities to split")
    # `e < 0` (0) and `e > 0` (1) of each `cons[i]`, `e != 0`
    sides = {(i, gt): _mk_con(_lin_neg(cons[i].lin()) if gt
                              else cons[i].lin(), "lt")
             for i in nes for gt in (0, 1)}
    todo: list[tuple[int, ...]] = [()]
    while todo:
        chosen = todo.pop()
        picked = dict(zip(nes, chosen))
        system = [sides[i, picked[i]] if c.rel == "ne" else c
                  for i, c in enumerate(cons)
                  if c.rel != "ne" or i in picked]
        if len(chosen) == len(nes):
            if feasible(system):
                return True
            continue
        try:
            if chosen and not feasible(system):
                continue
        except NotLinear:
            pass
        todo += [chosen + (1,), chosen + (0,)]    # the `<` side first
    return False


def refute_branch(sort: Sort, cons: list[Constraint]) -> dict:
    """Show one conjunction of constraints infeasible; raises NotLinear or
    TacticFailed (feasible)."""
    if sort in (INT, NAT):
        if _split_nes(cons, lambda sub: omega_sat(*_int_rows(sub))):
            raise TacticFailed("linear_arith: system is feasible")
        return {"method": "omega"}
    if any(c.rel == "ne" for c in cons):
        if _split_nes(cons, lambda sub: fm_refute(sub) is None):
            raise TacticFailed("linear_arith: system is feasible")
        return {"method": "fm-split"}
    # no split: the one system refuted is `cons` itself, in order
    farkas = fm_refute(cons)
    if farkas is None:
        raise TacticFailed("linear_arith: system is feasible")
    return {"method": "farkas", "multipliers": farkas}


def prove_linear(goal: Goal) -> dict:
    """Prove a goal by refuting hypotheses + negated conclusion."""
    return _refute_system(*_collect_system(goal))


def _refute_system(az: Atomizer, hyps: list[Constraint],
                   branches: list[list[Constraint]]) -> dict:
    if not branches:
        raise NotLinear("conclusion is trivially true; use rfl or eval_decide")
    evidence = [refute_branch(az.sort, hyps + branch) for branch in branches]
    return {"branches": evidence}


@register_tactic("linear_arith")
def linear_arith(state: SolutionState, goal: Goal, argtext: str
                 ) -> TacticResult:
    if goal.is_hole_goal():
        raise TacticFailed("linear_arith does not apply to a hole goal")
    concl = goal.concl
    synth = _synth_split(concl, {h.mid for h in state.unassigned_holes()})
    if synth is not None:
        meta, expr = synth
        answer = _value_term(_synthesize(goal, expr), meta.sort)
        fill = ((meta.mid, answer),)
        check = Goal(goal.case, goal.ctx, instantiate_metas(concl, dict(fill)))
        # the goal as searched, hole open: recheck fills it from `assigns`
        return TacticResult(cert=Certificate("linear_arith", goal,
                                             prove_linear(check), fill))
    return TacticResult(cert=Certificate("linear_arith", goal,
                                         prove_linear(goal)))


def _synth_split(concl: Term, pending: Collection[str]
                 ) -> Optional[tuple[Meta, Term]]:
    """`t = ?w` or `?w = t` with `?w` pending: the hole, and `t`."""
    eq = isinstance(concl, Atom) and concl.rel == "eq"
    return _assign_split(concl, pending) if eq else None


def _synthesize(goal: Goal, expr: Term) -> Fraction:
    """Find the unique value the hypotheses force for `expr`."""
    az, hyp_cons, target = _hyp_system(
        goal, _expr_sort(expr), lambda az: linearize(normalize(expr), az))
    # 1) Gaussian elimination over the equality subset
    value = _gauss_value(hyp_cons, target)
    if value is None:
        value = _scan_value(az, hyp_cons, target)
    if value is None:
        raise NotLinear("hypotheses do not pin the target value")
    if az.sort in (INT, NAT) and value.denominator != 1:
        raise NotLinear("non-integral synthesized value")
    return value


def _expr_sort(expr: Term) -> Sort:
    s = expr.sort
    return INT if s == NAT else s


def _gauss_value(cons: list[Constraint], target: Lin) -> Optional[Fraction]:
    rows = [c.lin() for c in cons if c.rel == "eq"]
    target = dict(target)
    changed = True
    while changed:
        changed = False
        for row in rows:
            keys = [k for k in row if k != CONST and row[k] != 0]
            if len(keys) == 0:
                continue
            pivot = None
            for k in sorted(keys):
                if k in target and target[k] != 0:
                    pivot = k
                    break
            if pivot is None:
                continue
            scale = target[pivot] / row[pivot]
            target = _lin_add(target, row, -scale)
            target.pop(pivot, None)
            changed = True
            rows = [_eliminate(r, row, pivot) for r in rows if r is not row]
            break
    keys = [k for k in target if k != CONST and target[k] != 0]
    if keys:
        return None
    return target.get(CONST, Fraction(0))


def _eliminate(row: Lin, by: Lin, pivot: str) -> Lin:
    if row.get(pivot, 0) == 0:
        return row
    scale = row[pivot] / by[pivot]
    out = _lin_add(row, by, -scale)
    out.pop(pivot, None)
    return out


def _scan_value(az: Atomizer, cons: list[Constraint], target: Lin
                ) -> Optional[Fraction]:
    """Bounded scan: try candidate values v, keep the one that is forced."""
    if az.sort not in (INT, NAT):
        return None
    lo, hi = _target_bounds(cons, target)
    if lo is None or hi is None or hi - lo > MAX_SYNTH_SCAN:
        return None
    forced = None
    for v in range(math.ceil(lo), math.floor(hi) + 1):
        # forced iff cons /\ target != v is infeasible
        diff = _lin_add(target, {CONST: Fraction(-v)})
        feasible_ne = False
        for side in (_mk_con(_lin_add(diff, {CONST: Fraction(1)}), "le"),
                     _mk_con(_lin_add(_lin_scale(diff, Fraction(-1)),
                                      {CONST: Fraction(1)}), "le")):
            eqs, ineqs = _int_rows(cons + [side])
            if omega_sat(eqs, ineqs):
                feasible_ne = True
                break
        if not feasible_ne:
            forced = Fraction(v)
            break
    return forced


def _target_bounds(cons: list[Constraint], target: Lin
                   ) -> tuple[Optional[Fraction], Optional[Fraction]]:
    keys = [k for k in target if k != CONST and target[k] != 0]
    if len(keys) != 1 or target[keys[0]] != 1:
        return None, None
    key = keys[0]
    base = target.get(CONST, Fraction(0))
    lo = hi = None
    for c in cons:
        if c.rel != "le":
            continue
        lin = c.lin()
        others = [k for k in lin if k != CONST and lin[k] != 0]
        if others != [key]:
            continue
        a = lin[key]
        b = -lin.get(CONST, Fraction(0))
        if a > 0:
            v = b / a + base
            hi = v if hi is None else min(hi, v)
        else:
            v = b / a + base
            lo = v if lo is None else max(lo, v)
    return lo, hi


# ---------------------------------------------------------------------------
# Revalidation


def revalidate_linear_arith(cert: Certificate) -> None:
    """Fill the hole the goal asks for from the certificate's assigns,
    re-refute the goal's system, then check the stored evidence branch
    by branch: same branch count, same method, and each stored Farkas
    combination valid for its own branch."""
    goal = cert.goal
    synth = _synth_split(goal.concl, [mid for mid, _ in cert.assigns])
    fills = cert.fills({synth[0].mid: synth[0].sort} if synth else {})
    if fills:
        goal = Goal(goal.case, goal.ctx, instantiate_metas(goal.concl, fills))
    try:
        az, hyps, branches = _collect_system(goal)
        fresh = _refute_system(az, hyps, branches)["branches"]
    except TacticFailed as e:
        raise CertificateError(f"linear_arith no longer validates: {e}")
    stored = cert.detail["branches"]
    if len(stored) != len(fresh):
        raise CertificateError(
            f"linear_arith certificate has {len(stored)} branches, "
            f"the goal has {len(fresh)}")
    for want, got, branch in zip(stored, fresh, branches):
        if want.get("method") != got.get("method"):
            raise CertificateError("linear_arith method mismatch")
        if want.get("method") == "farkas":
            if not verify_farkas(hyps + branch, want["multipliers"]):
                raise CertificateError("stored Farkas combination is invalid")
