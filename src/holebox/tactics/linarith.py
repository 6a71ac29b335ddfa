"""linear_arith: decision procedure for linear arithmetic goals.

The goal is proved when the hypotheses together with the negated
conclusion form an infeasible system.  A system is a list of integer
rows `(c, a_1, ..., a_n)`, each `c + a_1 x_1 + ... + a_n x_n` related
to 0 by `<=`, `<`, `=` or `!=` (`Constraint`), over columns that are
fixed once per system when `_hyp_system` assembles it.  Column 0 holds
the constant, and every atom gets the next column when it is first met.
An opaque subterm is keyed by its interned node (terms are hash-consed,
so equal means identical, as for `ring.AtomTable`), and the remainder
and quotient of `t % m` by `("mod", t, m)` and `("div", t, m)`; the
printer is on no path here.  `linearize` reads a term with `Fraction`
coefficients, and each constraint is scaled to integers by the positive
lcm of its denominators (`_mk_con`), which keeps the constraint, so a
strict rational row stays strict.  `Fraction` is left only in
linearization, rational points and synthesized values.

One elimination decides a system: over the rationals for Rat and Real,
over the integers for Int (not Nat, see below).  It searches over
working rows `(coefficients, strict, lineage)`; an equality of a
rational system is two of them, row `2 i` and its negation `2 i + 1`.
Each node keeps the tightest row per coefficient vector, refutes on a
contradictory constant row or opposite pair, and eliminates one column
(one bounded on one side only, else an exact one, else the one with
the fewest lower * upper pairs) through the real shadow, as
Fourier-Motzkin does.  In rational mode a row's lineage is the
nonnegative integer Farkas multipliers of the system's rows that sum
to it, and a refutation is the contradictory row's lineage, which
revalidation re-checks by direct arithmetic.  Integer mode is the omega
test (Pugh, 1991) and adds only what is integral: a strict row `e < 0`
is read as `e + 1 <= 0`, unit equalities are substituted away, any
other equality is reduced through a fresh sigma column by the
symmetric-mod step, rows are gcd-tightened, and an inexact elimination
whose real shadow is feasible decides on the dark shadow and the
splinters, so the procedure is complete on its fragment.
Literal-modulus constraints (t % m = r, m | t, even/odd) are compiled
to quotient and remainder columns.

Every feasible verdict carries its point, built by back-substitution as
the search returns (`_place`): an eliminated column takes the largest
lower bound the solved rest allows, else the smallest upper bound,
rounded inward in integer mode; where a rational bound is strict, the
midpoint to the other side, or the bound moved by 1 when that side is
open.  A splinter returns its own point, a column a unit equality
removed is solved from it after the rest, the sigma columns are
dropped, and a column in no row takes 0.  `Feasible`, the failure
`linear_arith: system is feasible`, carries the point of the first
feasible split, by column from `refute_branch` and by variable name
from `prove_linear`, for `auto` and the RPE stack to check as a
countermodel.

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
`_hyp_atoms` is a bounded memo of their rows and of the atom space they
leave (columns and modulus constraints), and each call extends its own
copy with the target, so columns and row order come out as if
translated afresh.  The target only appends columns, so each
hypothesis row is the memoized one padded with zeros.  Below that, each
atom is translated once per (atom, sort, polarity): `_atom_memo` keeps
its translation against an empty atom space, and `_atom_constraints`
replays it into the caller's, registering the same keys in the same
order.  An atom whose translation makes modulus rows, or raises, is
translated in place every time.

The elimination is memoized on the rows it reads and its mode, in one
bounded table of `LINEAR_MEMO_ENTRIES` (`_linear_memo`) that holds the
refutation or the point as immutable tuples; `fm_refute` hands each
caller a fresh dict, and two systems that differ only in the atoms
behind their columns share an entry.  A search that runs out of nodes,
or whose shadow passes `MAX_SHADOW_ROWS` rows, raises and is not kept.

A certificate holds one entry per disjunct of the negated conclusion.
A Farkas branch, a rational system with no `!=` row, holds its
multipliers, and `revalidate_linear_arith` checks them with
`verify_farkas` alone, arithmetic that shares nothing with the memo;
it runs no elimination.  Any other branch holds nothing, and is decided
again (`refute_branch`), as the tactic decided it.

Nonlinear subterms are abstracted as opaque atoms, which only weakens
the system, so every proof produced here is sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Collection, Optional

from ..expr import (
    App, Atom, Conn, INT, Lit, Meta, NAT, RAT, REAL, Sort, Term, Var,
    instantiate_metas, subterms,
)
from ..norm import fold_literals, normalize
from ..kernel import (
    Certificate, CertificateError, Goal, SolutionState, TacticFailed,
    TacticResult, detail_value, no_arg, reads_no_argument, register_check,
    register_tactic,
)
from .decide import _assign_split, _value_term

MAX_NE_SPLITS = 64
MAX_OMEGA_NODES = 20000
MAX_SYNTH_SCAN = 64


class NotLinear(TacticFailed):
    pass


# A linear expression maps atom keys to coefficients; the key CONST
# holds the constant.
Lin = dict[object, Fraction]

CONST = ""

# A translated constraint, `lin (<= | < | = | !=) 0` with integer
# coefficients, before the system it joins has fixed its columns:
# (lin items, relation).
LinCon = tuple[tuple[tuple[object, int], ...], str]


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


@dataclass(frozen=True)
class Constraint:
    """`row[0] + row[1] x_1 + ... + row[n] x_n (<= | < | = | !=) 0`:
    one integer row of a system, over the system's columns."""
    row: tuple[int, ...]
    rel: str                      # le | lt | eq | ne


@dataclass
class Atomizer:
    """The columns of one system: the constant's, 0, and one per atom,
    numbered in order of first occurrence."""
    sort: Sort
    cols: dict = field(default_factory=lambda: {CONST: 0})
    mod_constraints: list[LinCon] = field(default_factory=list)

    def key_for(self, key: object) -> object:
        """Register `key` (a node, or a modulus key) as an atom."""
        self.cols.setdefault(key, len(self.cols))
        return key

    def row(self, con: LinCon) -> Constraint:
        """`con` over this system's columns."""
        lin, rel = con
        row = [0] * len(self.cols)
        for k, v in lin:
            row[self.cols[k]] = v
        return Constraint(tuple(row), rel)


def _mk_con(lin: Lin, rel: str) -> LinCon:
    """`lin rel 0` scaled to integer coefficients by the positive lcm of
    its denominators, which keeps the constraint."""
    den = math.lcm(*(v.denominator for v in lin.values()))
    return tuple((k, v.numerator * (den // v.denominator))
                 for k, v in lin.items()), rel


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
    # a variable, or an opaque atom
    return {az.key_for(t): Fraction(1)}


def _const_value(t: Term) -> Optional[Fraction]:
    t = fold_literals(t)
    return t.val if isinstance(t, Lit) else None


def _mod_key(t: Term, m: int, az: Atomizer) -> object:
    """Abstract t % m by a remainder r and a quotient q, with the side
    constraints t = m q + r, 0 <= r < m."""
    r = ("mod", t, m)
    if r in az.cols:
        return r
    az.key_for(r)
    base = linearize(t, az)
    q = az.key_for(("div", t, m))
    # t - m q - r = 0
    eq = _lin_add(base, {q: Fraction(m), r: Fraction(1)}, Fraction(-1))
    az.mod_constraints.append(_mk_con(eq, "eq"))
    az.mod_constraints.append(_mk_con({r: Fraction(-1)}, "le"))
    az.mod_constraints.append(
        _mk_con({r: Fraction(1), CONST: Fraction(1 - m)}, "le"))
    return r


def atom_to_constraints(a: Atom, az: Atomizer, positive: bool
                        ) -> list[LinCon]:
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
                diff = _lin_scale(diff, Fraction(-1))
        # strict: integers tighten to <=
        if rel == "lt" and int_path:
            return [_mk_con(_lin_add(diff, {CONST: one}), "le")]
        return [_mk_con(diff, rel)]
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
                      ) -> list[LinCon]:
    """`atom_to_constraints`, translated once per (atom, sort, polarity):
    a memoized translation is replayed into `az`, registering its atom
    keys in order as `Atomizer.key_for` would.  An atom the memo does not
    hold is translated in place."""
    memo = _atom_memo(a, az.sort, positive)
    if memo is None:
        return atom_to_constraints(a, az, positive)
    keys, cons = memo
    for key in keys:
        az.key_for(key)
    return list(cons)


@lru_cache(maxsize=ATOM_MEMO_ENTRIES)
def _atom_memo(a: Atom, sort: Sort, positive: bool) -> Optional[tuple]:
    """The translation of `a` against an empty atom space, as `(atom
    keys, constraints)`; None when it makes modulus rows, which a space
    that already holds the modulus does not get again, or raises
    `NotLinear`."""
    az = Atomizer(sort)
    try:
        cons = atom_to_constraints(a, az, positive)
    except NotLinear:
        return None
    if az.mod_constraints:
        return None
    return tuple(az.cols), tuple(cons)


def _flatten_pos(t: Term, az: Atomizer) -> Optional[list[LinCon]]:
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


def _negation_dnf(t: Term, az: Atomizer) -> list[list[LinCon]]:
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
# The elimination: one shadow search for Rat and Int


LINEAR_MEMO_ENTRIES = 64
MAX_SHADOW_ROWS = 4000

# A row (c, a_1, ..., a_n): the constraint a.x + c (= | <= | <) 0.
Row = tuple[int, ...]
# A working row (row, strict, lineage): `row < 0` when strict, else
# `row <= 0`.  Its lineage is the multipliers of the system's tracked
# rows that sum to it in rational mode, and () in integer mode.
WorkRow = tuple[Row, bool, tuple]


def fm_refute(cons: list[Constraint]) -> Optional[dict[int, int]]:
    """Farkas multipliers showing a system with no `ne` rows infeasible
    over the rationals, or None if it is feasible.

    An equality is two tracked rows, row `2 i` and its negation
    `2 i + 1`.  Each call gets a dict of its own."""
    refutation, _ = _decide(cons, False)
    return None if refutation is None else dict(refutation)


def fm_point(cons: list[Constraint]) -> Optional[list[Fraction]]:
    """A rational point of a system with no `ne` rows, 1 in column 0 and
    one `Fraction` per column, or None when `fm_refute` refutes it."""
    _, point = _decide(cons, False)
    return None if point is None else list(point)


def omega_point(cons: list[Constraint]) -> Optional[tuple[int, ...]]:
    """An integer point of a system with no `ne` rows, 1 in column 0 and
    one int per column, or None when it has none.  A strict row `e < 0`
    is read as `e + 1 <= 0`."""
    return _decide(cons, True)[1]


def omega_sat(cons: list[Constraint]) -> bool:
    """Integer satisfiability of a system with no `ne` rows
    (`omega_point`)."""
    return omega_point(cons) is not None


def _decide(cons: list[Constraint], integral: bool) -> tuple:
    return _linear_memo(tuple((c.row, c.rel) for c in cons), integral)


@lru_cache(maxsize=LINEAR_MEMO_ENTRIES)
def _linear_memo(system: tuple[tuple[Row, str], ...], integral: bool
                 ) -> tuple[Optional[tuple], Optional[tuple]]:
    """The elimination on `(row, rel)` pairs, which are all of a
    constraint that it reads: `(refutation, None)` when the system is
    infeasible, else `(None, point)`.  Each search gets a budget of
    `MAX_OMEGA_NODES` nodes, and running out raises `NotLinear`."""
    if any(rel == "ne" for _, rel in system):
        raise NotLinear("ne must be split before elimination")
    budget = _OmegaBudget(MAX_OMEGA_NODES)
    if integral:
        point = _omega([row for row, rel in system if rel == "eq"],
                       [(row[0] + 1,) + row[1:] if rel == "lt" else row
                        for row, rel in system if rel != "eq"], budget)
        return ((), None) if point is None else (None, tuple(point))
    rows: list[WorkRow] = []
    for i, (row, rel) in enumerate(system):
        rows.append((row, rel == "lt", ((2 * i, 1),)))
        if rel == "eq":
            rows.append((tuple(-a for a in row), False, ((2 * i + 1, 1),)))
    refutation, point = _search(rows, len(system[0][0]) if system else 1,
                                False, budget)
    return refutation, None if point is None else tuple(map(Fraction, point))


def verify_farkas(cons: list[Constraint], multipliers: dict) -> bool:
    """Check a Farkas combination of the rows of `cons`: nonnegative
    integer multipliers, zero coefficients, contradictory constant."""
    total = [0] * (len(cons[0].row) if cons else 1)
    strict = False
    for idx, mult in multipliers.items():
        if type(idx) is not int or type(mult) is not int or mult < 0 \
                or not 0 <= idx < 2 * len(cons):
            return False
        base = cons[idx // 2]
        if base.rel == "eq" and idx % 2 == 1:
            mult = -mult
        elif base.rel == "lt":
            strict = strict or mult > 0
        elif base.rel not in ("le", "eq"):
            return False
        total = [t + mult * a for t, a in zip(total, base.row)]
    return not any(total[1:]) and (total[0] > 0 or strict and total[0] >= 0)


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


def _omega(eqs: list[Row], ineqs: list[Row], budget: _OmegaBudget
           ) -> Optional[list[int]]:
    """An integer point of `eqs` (`= 0`) and `ineqs` (`<= 0`), over the
    columns of their rows (`[1]` when there are none), or None: one node
    of the integer search, its equalities eliminated here and its
    inequalities by `_node`.

    A column that a unit equality removes is solved from that equality
    once the rest is solved, in the reverse of the order the columns
    were removed in; the sigma columns the symmetric-mod step adds are
    dropped from the point returned."""
    budget.tick()
    width = len(eqs[0]) if eqs else len(ineqs[0]) if ineqs else 1
    cols = width
    solved: list[tuple[Row, int]] = []
    while eqs:
        eq = eqs.pop()
        g = math.gcd(*eq[1:])
        if g == 0:
            if eq[0] != 0:
                return None
            continue
        if eq[0] % g != 0:
            return None
        if g > 1:
            eq = tuple(a // g for a in eq)
        k = min((j for j in range(1, len(eq)) if eq[j]),
                key=lambda j: abs(eq[j]))
        if abs(eq[k]) == 1:
            eqs = [_unit_subst(r, eq, k) for r in eqs]
            ineqs = [_unit_subst(r, eq, k) for r in ineqs]
            solved.append((eq, k))
            continue
        # symmetric mod: a fresh column sigma with sum(mods(a, m) x)
        # + mods(c, m) - m sigma = 0, in which x_k has a unit coefficient
        m = abs(eq[k]) + 1
        eqs = [r + (0,) for r in eqs]
        ineqs = [r + (0,) for r in ineqs]
        eqs.append(eq + (0,))
        eqs.append(tuple(_mods(a, m) for a in eq) + (-m,))
        cols += 1
    _, point = _node([(r, False, ()) for r in ineqs], cols, True, budget)
    if point is None:
        return None
    # x_k = -eq[k] * (the rest of eq), the rest already solved
    for eq, k in reversed(solved):
        point[k] = 0
        point[k] = -eq[k] * _dot(eq, point)
    return point[:width]


def _search(rows: list[WorkRow], cols: int, integral: bool,
            budget: _OmegaBudget) -> tuple[Optional[tuple], Optional[list]]:
    """`_node`, counted as one node of the search's budget."""
    budget.tick()
    return _node(rows, cols, integral, budget)


def _node(rows: list[WorkRow], cols: int, integral: bool,
          budget: _OmegaBudget) -> tuple[Optional[tuple], Optional[list]]:
    """`(refutation, None)` or `(None, point)` for inequality rows over
    `cols` columns, rational or integral.

    The tightest row is kept per coefficient vector (integer rows
    gcd-tightened first; at an equal constant a strict row is the
    tighter), and a constant row or an opposite pair that contradicts
    refutes.  One column is eliminated: the rest is searched, then the
    column is placed (`_place`)."""
    tightest: dict[Row, WorkRow] = {}
    for work in rows:
        row, strict, lineage = work
        coeffs = row[1:]
        g = math.gcd(*coeffs)
        if g == 0:
            if row[0] > 0 or strict and row[0] >= 0:
                return lineage, None
            continue
        if integral and g > 1:
            # a.x + c <= 0 tightens to (a/g).x + ceil(c/g) <= 0
            coeffs = tuple(a // g for a in coeffs)
            row = (-(-row[0] // g),) + coeffs
            work = (row, strict, lineage)
        kept = tightest.get(coeffs)
        if kept is None or row[0] > kept[0][0] \
                or row[0] == kept[0][0] and strict and not kept[1]:
            tightest[coeffs] = work
    # a.x + c1 and -a.x + c2 need c1 + c2 <= 0, < 0 when either is strict
    for coeffs, (row, strict, lineage) in tightest.items():
        opp = tightest.get(tuple(-a for a in coeffs))
        if opp is not None:
            c = row[0] + opp[0][0]
            if c > 0 or (strict or opp[1]) and c >= 0:
                return _combine(lineage, 1, opp[2], 1), None
    if not tightest:
        return None, [1] + [0] * (cols - 1)
    rows = list(tightest.values())

    # a column bounded on one side only, else an exact one (every pair
    # has a unit side), else the fewest lower * upper pairs
    best, best_cost = 0, None
    for v in range(1, cols):
        lo = [r[v] for r, _, _ in rows if r[v] < 0]
        hi = [r[v] for r, _, _ in rows if r[v] > 0]
        if not lo and not hi:
            continue
        if not lo or not hi:
            best = v
            break
        cost = len(lo) * len(hi) - (1000 if _exact(lo, hi) else 0)
        if best_cost is None or cost < best_cost:
            best, best_cost = v, cost
    v = best
    lows = [r for r in rows if r[0][v] < 0]
    highs = [r for r in rows if r[0][v] > 0]
    if not lows or not highs:
        refutation, point = _search([r for r in rows if not r[0][v]], cols,
                                    integral, budget)
    else:
        refutation, point = _search(_shadow(rows, v, lows, highs, False),
                                    cols, integral, budget)
        if point is not None and integral and not _exact(
                [lo[v] for lo, _, _ in lows], [hi[v] for hi, _, _ in highs]):
            # the real shadow is only necessary: the dark shadow is
            # sufficient, and the splinters are what lies between
            refutation, point = _search(_shadow(rows, v, lows, highs, True),
                                        cols, integral, budget)
            if point is None:
                return _splinters(rows, v, lows, highs, budget)
    if point is None:
        return refutation, None
    return None, _place(point, v, lows, highs, integral)


def _shadow(rows: list[WorkRow], v: int, lows: list[WorkRow],
            highs: list[WorkRow], dark: bool) -> list[WorkRow]:
    """The rows without column `v`: those that do not bound it, and each
    lower and upper bound summed so that `v` cancels, strict when either
    is, with their lineages combined.  The dark shadow tightens each
    sum's constant by (a - 1)(b - 1).  More than `MAX_SHADOW_ROWS` rows
    raise `NotLinear`."""
    out = [r for r in rows if not r[0][v]]
    if len(out) + len(lows) * len(highs) > MAX_SHADOW_ROWS:
        raise NotLinear("Fourier-Motzkin blow-up guard")
    for lo, lo_strict, lo_lineage in lows:
        b = -lo[v]
        for hi, hi_strict, hi_lineage in highs:
            a = hi[v]
            row = [a * x + b * y for x, y in zip(lo, hi)]
            if dark:
                row[0] += (a - 1) * (b - 1)
            # an integer row carries no lineage
            out.append((tuple(row), lo_strict or hi_strict,
                        lo_lineage and _combine(lo_lineage, a, hi_lineage, b)))
    return out


def _combine(p: tuple, pm: int, q: tuple, qm: int) -> tuple:
    """The lineage of `pm` times a row of lineage `p` plus `qm` times one
    of lineage `q`."""
    out = {idx: pm * m for idx, m in p}
    for idx, m in q:
        out[idx] = out.get(idx, 0) + qm * m
    return tuple(out.items())


def _splinters(rows: list[WorkRow], v: int, lows: list[WorkRow],
               highs: list[WorkRow], budget: _OmegaBudget
               ) -> tuple[Optional[tuple], Optional[list]]:
    """The integer solutions the dark shadow misses: some lower bound lo
    holds with slack i, lo + i = 0, for 0 <= i <= top.  The first
    splinter's point, else the refutation."""
    amax = max(hi[v] for hi, _, _ in highs)
    ineqs = [r for r, _, _ in rows]
    for lo, _, _ in lows:
        b = -lo[v]
        for i in range((amax * b - amax - b) // amax + 1):
            point = _omega([(lo[0] + i,) + lo[1:]], ineqs, budget)
            if point is not None:
                return None, point
    return (), None


def _dot(row: Row, point: list) -> int:
    return sum(a * x for a, x in zip(row, point) if a)


def _place(point: list, v: int, lows: list[WorkRow], highs: list[WorkRow],
           integral: bool) -> list:
    """`point`, a solution of the rows column `v` was eliminated from,
    with x_v the largest lower bound `lows` allow there, else the
    smallest upper bound `highs` allow; an eliminated column has one.

    The elimination puts every lower bound at most every upper bound,
    below it when either is strict.  An integer column rounds inward, and
    the shadow that was solved puts an integer between the bounds (the
    real shadow when the elimination is exact, the dark shadow
    otherwise).  Where a rational column's bound is strict, it takes the
    midpoint to the other side, or the bound moved by 1 when that side
    is open."""
    point[v] = 0
    # row[v] x + s (< | <=) 0 bounds x by -s / row[v]: from below when
    # row[v] < 0, from above when row[v] > 0
    if integral:
        point[v] = max(-(_dot(r, point) // r[v]) for r, _, _ in lows) \
            if lows else min(-_dot(r, point) // r[v] for r, _, _ in highs)
        return point
    # of two equal bounds the strict one is the tighter, so a lower bound
    # is ranked with its strictness and an upper one with its looseness
    if lows:
        x, strict = max((Fraction(-_dot(r, point), r[v]), s)
                        for r, s, _ in lows)
        if strict:
            hi = min((Fraction(-_dot(r, point), r[v]) for r, _, _ in highs),
                     default=None)
            x = x + 1 if hi is None else (x + hi) / 2
    else:
        x, loose = min((Fraction(-_dot(r, point), r[v]), not s)
                       for r, s, _ in highs)
        x = x if loose else x - 1
    # an integral value stays an int, which keeps later dot products
    # cheap; the memo makes every value a Fraction
    point[v] = x.numerator if x.denominator == 1 else x
    return point


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
    """The hypotheses of `goal` as the rows of a system, over a fresh
    atom space.

    `target` translates what is to be proved (or pinned) in between, so
    that its atoms get columns, Nat non-negativity rows and modulus rows
    too; those rows come last, and the system's columns are fixed once
    it has run.  The hypotheses' part comes from `_hyp_atoms`, copied, so
    `target` extends it as it would a fresh translation.
    """
    props = []
    for d in goal.ctx.decls:
        if d.prop is None:
            continue
        prop = normalize(d.prop)
        if not prop.has_meta:
            props.append(prop)
    cols, mods, hyp_rows = _hyp_atoms(tuple(props), sort)
    az = Atomizer(sort, dict(cols), list(mods))
    out = target(az)
    # the target's columns come after the hypotheses', which are 0 there
    pad = (0,) * (len(az.cols) - len(cols))
    # Nat atoms are nonnegative integers
    nat = [_mk_con({key: Fraction(-1)}, "le") for key in az.cols
           if isinstance(key, Term) and key.sort == NAT]
    return az, [Constraint(c.row + pad, c.rel) for c in hyp_rows] \
        + [az.row(c) for c in (*nat, *az.mod_constraints)], out


@lru_cache(maxsize=HYP_MEMO_ENTRIES)
def _hyp_atoms(props: tuple[Term, ...], sort: Sort) -> tuple:
    """The atom space the linear conjuncts of `props` leave, and their
    constraints in order as rows over its columns: `(column items, mod
    constraints, rows)`, all immutable."""
    az = Atomizer(sort)
    cons: list[LinCon] = []
    for prop in props:
        flat = _flatten_pos(prop, az)
        if flat is not None:
            cons.extend(flat)
    return tuple(az.cols.items()), tuple(az.mod_constraints), \
        tuple(az.row(c) for c in cons)


def _collect_system(goal: Goal) -> tuple[Atomizer, list[Constraint],
                                         list[list[Constraint]]]:
    """The system's atom space (its sort and columns), the hypotheses'
    rows and the rows of each disjunct of the negated conclusion, over
    one set of columns."""
    concl = goal.concl
    if not isinstance(concl, Term):
        raise NotLinear("hole goals are not linear goals")
    concl = normalize(concl)
    az, hyps, dnf = _hyp_system(goal, _goal_sort(concl),
                                lambda az: _negation_dnf(concl, az))
    return az, hyps, [[az.row(c) for c in branch] for branch in dnf]


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
               feasible: Callable[[list[Constraint]], Optional[tuple]]
               ) -> Optional[tuple]:
    """The point `feasible` gives on the first split of the ne
    constraints into strict sides (`<`, then `>`) that leaves a feasible
    system; None when no split does.

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
    sides = {(i, gt): Constraint(tuple(-a for a in cons[i].row) if gt
                                 else cons[i].row, "lt")
             for i in nes for gt in (0, 1)}
    todo: list[tuple[int, ...]] = [()]
    while todo:
        chosen = todo.pop()
        picked = dict(zip(nes, chosen))
        system = [sides[i, picked[i]] if c.rel == "ne" else c
                  for i, c in enumerate(cons)
                  if c.rel != "ne" or i in picked]
        if len(chosen) == len(nes):
            point = feasible(system)
            if point is not None:
                return point
            continue
        try:
            if chosen and feasible(system) is None:
                continue
        except NotLinear:
            pass
        todo += [chosen + (1,), chosen + (0,)]    # the `<` side first
    return None


def is_farkas_branch(sort: Sort, cons: list[Constraint]) -> bool:
    """A rational system with no `!=` row: Fourier-Motzkin refutes it as
    it stands, and its certificate is the Farkas multipliers."""
    return sort not in (INT, NAT) and all(c.rel != "ne" for c in cons)


class Feasible(TacticFailed):
    """The negated goal has a solution, so the goal is not proved.

    `point` is that solution, integer on an Int system and rational on a
    Rat or Real one: over the system's columns as `refute_branch` raises
    it, by variable name as `prove_linear` does."""

    def __init__(self, point):
        super().__init__("linear_arith: system is feasible")
        self.point = point


def refute_branch(sort: Sort, cons: list[Constraint]) -> dict:
    """Show one conjunction of constraints infeasible: its certificate
    branch, `{"multipliers": ...}` for a Farkas branch and `{}` for any
    other.  Raises NotLinear, or Feasible with the point of the first
    feasible split."""
    if is_farkas_branch(sort, cons):
        farkas = fm_refute(cons)
        if farkas is None:
            raise Feasible(fm_point(cons))
        return {"multipliers": farkas}
    point = _split_nes(cons, omega_point if sort in (INT, NAT) else fm_point)
    if point is not None:
        raise Feasible(point)
    return {}


def _branch_systems(goal: Goal) -> tuple[Atomizer, list[list[Constraint]]]:
    """The system's atom space and, per disjunct of the negated
    conclusion, the hypotheses' rows followed by the disjunct's."""
    az, hyps, branches = _collect_system(goal)
    if not branches:
        raise NotLinear("conclusion is trivially true; use rfl or eval_decide")
    return az, [hyps + branch for branch in branches]


def prove_linear(goal: Goal) -> dict:
    """Prove a goal by refuting hypotheses + negated conclusion.  A
    branch that is feasible raises Feasible with the values its point
    gives the columns keyed by a variable, by name."""
    az, systems = _branch_systems(goal)
    try:
        return {"branches": [refute_branch(az.sort, cons)
                             for cons in systems]}
    except Feasible as e:
        raise Feasible(_named(az.cols, e.point)) from None


def _named(cols: dict, point) -> dict:
    """The values `point` gives the columns keyed by a variable, by
    name."""
    return {key.name: v for key, v in zip(cols, point)
            if isinstance(key, Var)}


@register_tactic("linear_arith")
def linear_arith(state: SolutionState, goal: Goal, argtext: str
                 ) -> TacticResult:
    no_arg("linear_arith", argtext)
    concl = goal.concl
    synth = _synth_split(concl, state.pending_holes())
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
    az, hyp_cons, lin = _hyp_system(
        goal, _expr_sort(expr), lambda az: linearize(normalize(expr), az))
    # the target over the system's columns
    target = [Fraction(0)] * len(az.cols)
    for k, v in lin.items():
        target[az.cols[k]] = v
    # 1) Gaussian elimination over the equality subset
    value = _gauss_value(hyp_cons, target)
    if value is None:
        value = _scan_value(az.sort, hyp_cons, target)
    if value is None:
        raise NotLinear("hypotheses do not pin the target value")
    if az.sort in (INT, NAT) and value.denominator != 1:
        raise NotLinear("non-integral synthesized value")
    return value


def _expr_sort(expr: Term) -> Sort:
    s = expr.sort
    return INT if s == NAT else s


def _gauss_value(cons: list[Constraint], target: list[Fraction]
                 ) -> Optional[Fraction]:
    """Reduce `target` by the equality rows, each used once on the first
    column it shares with the target; the constant left, if no column
    is."""
    rows = [c.row for c in cons if c.rel == "eq"]
    changed = True
    while changed:
        changed = False
        for i, row in enumerate(rows):
            pivot = next((k for k in range(1, len(row))
                          if row[k] and target[k]), None)
            if pivot is None:
                continue
            scale = target[pivot] / row[pivot]
            target = [t - scale * a for t, a in zip(target, row)]
            changed = True
            rows = [_eliminate(r, row, pivot)
                    for j, r in enumerate(rows) if j != i]
            break
    if any(target[1:]):
        return None
    return target[0]


def _eliminate(row: tuple[int, ...], by: tuple[int, ...], pivot: int
               ) -> tuple[int, ...]:
    """`row` with column `pivot` cleared by the equality `by`, scaled by
    `by[pivot]`, which keeps it an equality."""
    if not row[pivot]:
        return row
    return tuple(by[pivot] * a - row[pivot] * b for a, b in zip(row, by))


def _scan_value(sort: Sort, cons: list[Constraint], target: list[Fraction]
                ) -> Optional[Fraction]:
    """Bounded scan: try candidate values v, keep the one that is forced."""
    if sort not in (INT, NAT):
        return None
    lo, hi = _target_bounds(cons, target)
    if lo is None or hi is None or hi - lo > MAX_SYNTH_SCAN:
        return None
    # an Int target `x + c` has integer coefficients
    row = tuple(int(t) for t in target)
    for v in range(math.ceil(lo), math.floor(hi) + 1):
        # forced iff cons /\ target != v is infeasible
        diff = (row[0] - v,) + row[1:]
        if not any(omega_sat(cons + [Constraint(side, "lt")])
                   for side in (diff, tuple(-a for a in diff))):
            return Fraction(v)
    return None


def _target_bounds(cons: list[Constraint], target: list[Fraction]
                   ) -> tuple[Optional[Fraction], Optional[Fraction]]:
    keys = [k for k in range(1, len(target)) if target[k]]
    if len(keys) != 1 or target[keys[0]] != 1:
        return None, None
    key = keys[0]
    lo = hi = None
    for c in cons:
        if c.rel != "le":
            continue
        a = c.row[key]
        if not a or any(c.row[k] for k in range(1, len(c.row)) if k != key):
            continue
        # a x + c0 <= 0 bounds x by -c0 / a
        v = Fraction(-c.row[0], a) + target[0]
        if a > 0:
            hi = v if hi is None else min(hi, v)
        else:
            lo = v if lo is None else max(lo, v)
    return lo, hi


# ---------------------------------------------------------------------------
# Revalidation


@register_check("linear_arith", line=reads_no_argument)
def revalidate_linear_arith(cert: Certificate) -> None:
    """Fill the hole the goal asks for from the certificate's assigns,
    rebuild the goal's branch systems, and check them against the stored
    branches, as many: a Farkas branch by its stored multipliers, with
    `verify_farkas` alone, and any other by deciding it again."""
    goal = cert.goal
    synth = _synth_split(goal.concl, [mid for mid, _ in cert.assigns])
    fills = cert.fills({synth[0].mid: synth[0].sort} if synth else {})
    if fills:
        goal = Goal(goal.case, goal.ctx, instantiate_metas(goal.concl, fills))
    stored = detail_value("linear_arith", cert.detail, "branches", list)
    try:
        az, systems = _branch_systems(goal)
        if len(stored) != len(systems):
            raise CertificateError(
                f"linear_arith certificate has {len(stored)} branches, "
                f"the goal has {len(systems)}")
        for branch, cons in zip(stored, systems):
            if not is_farkas_branch(az.sort, cons):
                refute_branch(az.sort, cons)
            elif not verify_farkas(cons, detail_value(
                    "linear_arith", branch, "multipliers", dict)):
                raise CertificateError("stored Farkas combination is invalid")
    except TacticFailed as e:
        raise CertificateError(f"linear_arith no longer validates: {e}")
