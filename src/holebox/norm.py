"""Normalization and the definitional equality level.

`normalize` performs beta-reduction, eta-contraction, unfolding of the
bundled definitions (intervals, ranges, finite-set literals, set-builder
membership), and exact evaluation of closed Nat/Int/Rat literal
arithmetic.  `arith` is the one definition of that arithmetic, and
`eval_decide` evaluates through it too.  Symbolic Real arithmetic is
never evaluated: `2 + 1 : Real` stays an addition node, which is what
keeps the definitional level strictly weaker than the proof-automation
levels on reals.

`fold_literals` is the lighter pass used after rewriting: beta plus
closed literal arithmetic, no definition unfolding.

Both are memoized on the term itself.  Terms are hash-consed, so a
subterm met again is the same node, and each node has one memo slot per
pass (`_nf_memo`, `_fold_memo`; see `expr`).  `_norm` reads the slot
before it recurses and fills it with the result, and marks the result
as its own normal form, so a subterm that was normalized once is never
walked again while it lives, and the memo dies with its node.  A node
that is its own normal form holds the `_NORMAL` sentinel rather than
itself, which would make it a reference cycle that only the cyclic
collector frees.

In front of the two entry points sit least-recently-used tables of
`NORM_MEMO_ENTRIES` entries.  They save no walk; they keep the recently
used inputs and their normal forms alive between calls, so the terms one
proof search builds again and again (its goals and hypotheses) are found
in the intern table, memo and all, instead of built anew, and a repeated
input is answered without entering `_norm`.  The bound is a constant: a
larger table raises peak memory without buying hits.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .expr import (
    App, Atom, BVar, Binder, Lit, Sort, Term,
    ARITH_OPS, EXACT_NUMERIC, INT, MAX_LIT_BITS, NAT, RAT, SortError,
    alpha_eq, children, instantiate_bvar, lit_bits, mk_atom, mk_binder,
    mk_conn, mk_lit, shift, _rebuild,
)

# Exponent folding guard: keep closed powers exact but bounded so that
# normalization stays cheap on adversarial input.
MAX_EXP = 4096


def arith(op: str, vals: list[Fraction], sort: Sort) -> Fraction:
    """The one semantics of `ARITH_OPS` over Nat/Int/Rat values.

    Nat subtraction truncates at zero; Int/Nat `/` and `%` are floor
    division and floor modulus; every `/` is total with `a / 0 = 0` and
    `%` with `a % 0 = a`.  `pow` takes a natural exponent; callers apply
    their own size guards first, and pass only an op of `ARITH_OPS`
    (`fold_arith` checks it; `eval_decide` names each op).
    """
    if op == "add":
        return vals[0] + vals[1]
    if op == "sub":
        r = vals[0] - vals[1]
        return max(r, Fraction(0)) if sort == NAT else r
    if op == "mul":
        return vals[0] * vals[1]
    if op == "neg":
        return -vals[0]
    if op == "abs":
        return abs(vals[0])
    if op == "div":
        if not vals[1]:
            return Fraction(0)
        if sort == RAT:
            return vals[0] / vals[1]
        return Fraction(vals[0].numerator // vals[1].numerator)
    if op == "mod":
        if not vals[1]:
            return vals[0]
        return Fraction(vals[0].numerator % vals[1].numerator)
    return vals[0] ** int(vals[1])      # pow, the last of ARITH_OPS


def fold_arith(op: str, args: tuple[Term, ...], sort) -> Term | None:
    """Evaluate one closed arithmetic node over Nat/Int/Rat, else None.

    A result of more than `MAX_LIT_BITS` bits is None too: the node
    stays unfolded, and printable.
    """
    if sort not in EXACT_NUMERIC or op not in ARITH_OPS:
        return None
    if not all(isinstance(a, Lit) for a in args):
        return None
    vals = [a.val for a in args]  # type: ignore[union-attr]
    if op == "pow":
        base, exp = vals
        if exp.denominator != 1 or exp < 0 or exp > MAX_EXP:
            return None
        if lit_bits(base) * max(int(exp), 1) > MAX_LIT_BITS:
            return None
    val = arith(op, vals, sort)
    if lit_bits(val) > MAX_LIT_BITS:
        return None
    return mk_lit(val, sort)


def _eta(t: Binder) -> Term | None:
    # fun x => f x  ~~>  f   when x does not occur in f
    body = t.body
    if (isinstance(body, App) and body.op == "@"
            and isinstance(body.args[1], BVar) and body.args[1].idx == 0):
        f = body.args[0]
        if not _mentions_bvar(f, 0):
            return instantiate_bvar(f, _DUMMY)  # drop the dead index
    return None


def _mentions_bvar(t: Term, depth: int) -> bool:
    if t.bvar_bound <= depth:
        return False
    if isinstance(t, BVar):
        return t.idx == depth
    if isinstance(t, Binder):
        return _mentions_bvar(t.body, depth + 1)
    return any(_mentions_bvar(k, depth) for k in children(t))


# Placeholder used to strip one dead binder level during eta-contraction.
_DUMMY = Lit(INT, Fraction(0))


def _unfold_def(t: Term) -> Term | None:
    """One unfolding step for the bundled definitions."""
    if isinstance(t, App):
        elem = t.sort.args[0] if t.sort.kind == "Set" else None
        x = BVar(elem, 0) if elem is not None else None
        if t.op == "Iio":
            return mk_binder("setb", "x", elem, mk_atom("lt", (x, _sh(t.args[0]))))
        if t.op == "Ioi":
            return mk_binder("setb", "x", elem, mk_atom("lt", (_sh(t.args[0]), x)))
        if t.op == "Icc":
            return mk_binder("setb", "x", elem, mk_conn("and", (
                mk_atom("le", (_sh(t.args[0]), x)), mk_atom("le", (x, _sh(t.args[1]))))))
        if t.op == "Ico":
            return mk_binder("setb", "x", elem, mk_conn("and", (
                mk_atom("le", (_sh(t.args[0]), x)), mk_atom("lt", (x, _sh(t.args[1]))))))
        if t.op == "Ioc":
            return mk_binder("setb", "x", elem, mk_conn("and", (
                mk_atom("lt", (_sh(t.args[0]), x)), mk_atom("le", (x, _sh(t.args[1]))))))
        if t.op == "range":
            return mk_binder("setb", "x", elem, mk_conn("and", (
                mk_atom("le", (_sh(t.args[0]), x)), mk_atom("le", (x, _sh(t.args[1]))))))
        if t.op == "setlit":
            body: Term | None = None
            for a in reversed(t.args):
                eq = mk_atom("eq", (x, _sh(a)))
                body = eq if body is None else mk_conn("or", (eq, body))
            return mk_binder("setb", "x", elem, body)
    if isinstance(t, Atom) and t.rel == "mem":
        s = t.args[1]
        if isinstance(s, Binder) and s.kind == "setb":
            return instantiate_bvar(s.body, t.args[0])
    return None


def _sh(t: Term) -> Term:
    # endpoint terms move under one new binder
    return shift(t, 1)


# The memo value of a node that is its own normal form.
_NORMAL = object()


def _norm(t: Term, unfold: bool) -> Term:
    memo = t._nf_memo if unfold else t._fold_memo
    if memo is not None:
        return t if memo is _NORMAL else memo
    out = _reduce(t, unfold)
    # a normal form is its own: mark it too, so normalizing a result
    # again is one slot read
    if unfold:
        out._nf_memo = _NORMAL
        if out is not t:
            t._nf_memo = out
    else:
        out._fold_memo = _NORMAL
        if out is not t:
            t._fold_memo = out
    return out


def _reduce(t: Term, unfold: bool) -> Term:
    # normalize children first, then reduce at the head until fixed
    kids = children(t)
    if kids:
        t = _rebuild(t, tuple(_norm(k, unfold) for k in kids))
    while True:
        nxt = _step(t, unfold)
        if nxt is None:
            return t
        t = _norm(nxt, unfold) if children(nxt) else nxt


def _step(t: Term, unfold: bool) -> Term | None:
    if isinstance(t, App):
        if t.op == "@" and isinstance(t.args[0], Binder) \
                and t.args[0].kind == "lam":
            return instantiate_bvar(t.args[0].body, t.args[1])
        folded = fold_arith(t.op, t.args, t.sort)
        if folded is not None and not (isinstance(folded, Lit)
                                       and folded == t):
            return folded
        if unfold:
            return _unfold_def(t)
        return None
    if isinstance(t, Binder) and t.kind == "lam":
        return _eta(t)
    if isinstance(t, Atom) and unfold:
        return _unfold_def(t)
    return None


NORM_MEMO_ENTRIES = 64


@lru_cache(maxsize=NORM_MEMO_ENTRIES)
def normalize(t: Term) -> Term:
    """Full normal form: beta, eta, bundled unfoldings, literal folding."""
    return _norm(t, unfold=True)


@lru_cache(maxsize=NORM_MEMO_ENTRIES)
def fold_literals(t: Term) -> Term:
    """Light normal form used after rewrites: beta plus literal folding."""
    return _norm(t, unfold=False)


def definitional_eq(t1: Term, t2: Term) -> bool:
    """Terms convertible by normalization, alpha-insensitively."""
    if t1.sort != t2.sort:
        raise SortError(
            f"definitional_eq across sorts {t1.sort} vs {t2.sort}")
    return alpha_eq(normalize(t1), normalize(t2))
