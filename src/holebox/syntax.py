"""Surface syntax: term parser, canonical printer, problem and script files.

The term grammar is a Lean-inspired ASCII language.  Unicode math symbols
are accepted as input aliases; the printer emits ASCII only, so golden
files are bit-exact.  Numerals elaborate against the expected sort where
one is known and are anchored by typed variables otherwise; decimals
always denote exact rationals (3.64 parses as 91/25).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, TypeVar

from .expr import (
    ATOMIC_SORTS, App, Atom, BVar, Binder, Conn, INT, Lit, LocalDecl,
    MAX_LIT_BITS, Meta, NAT, NUMERIC, PROP, RAT, REAL, Sort, SortError,
    Telescope, Term, Var,
    fn, free_vars, mk_app, mk_atom, mk_binder, mk_conn, mk_lit, mk_meta,
    mk_var, set_of,
)


# Input limits, so that oversized input is a ParseError, not a crash.
# Each nesting level (bracket, binder, prefix or right-associative
# operator) costs the parser up to 14 of Python's 1000 stack frames, and
# a numeral of MAX_NUMERAL_DIGITS digits fits in MAX_LIT_BITS bits.
# Left-associative chains (`a + b + ...`, application, binder groups)
# are parsed by loops, so the elaborated tree's depth is bounded on its
# own: the engine's recursive term functions take up to 4 frames a
# level (alpha-equivalence; elaboration takes 3; term equality walks an
# explicit stack), so even a term twice as deep, an answer substituted
# into a statement, stays well under the limit.  Only outside input is
# parsed (command lines, problem, corpus and script files, the lemma
# library); the engine never re-reads what it printed, so a derived
# term deeper than MAX_DEPTH never meets the bound.
MAX_NESTING = 50
MAX_DEPTH = 100
MAX_NUMERAL_DIGITS = MAX_LIT_BITS * 3 // 10

_T = TypeVar("_T")


class ParseError(Exception):
    def __init__(self, msg: str, line: int = 1, col: int = 0):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


class SchemaError(Exception):
    pass


class DfpsShapeError(SchemaError):
    pass


# ---------------------------------------------------------------------------
# Lexer

_UNICODE_ALIASES = {
    "∀": "forall", "∃": "exists", "λ": "fun", "¬": "not",
    "∧": "/\\", "∨": "\\/", "→": "->", "↔": "<->", "∈": "in",
    "≤": "<=", "≥": ">=", "≠": "!=", "∣": "dvd", "×": "*", "·": "*",
    "∪": "\\/", "∩": "/\\", "⊢": "|-", "↦": "=>",
}

_SYMBOLS = ["<->", "->", "/\\", "\\/", "<=", ">=", "!=", "=>", "|-",
            "(", ")", "{", "}", ",", ":", "|", "^", "*", "/", "%",
            "+", "-", "=", "<", ">", "?"]

_KEYWORDS = {"forall", "exists", "fun", "in", "dvd", "not", "sum",
             "True", "False"}


@dataclass
class Tok:
    kind: str   # num | ident | meta | sym | kw | eof
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Tok]:
    for u, a in _UNICODE_ALIASES.items():
        src = src.replace(u, f" {a} ")
    toks: list[Tok] = []
    i, line, col = 0, 1, 0
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            col = 0
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if src.startswith("--", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            if j < n and src[j] == "." and j + 1 < n and src[j + 1].isdigit():
                j += 1
                while j < n and src[j].isdigit():
                    j += 1
            if j - i > MAX_NUMERAL_DIGITS:
                raise ParseError(f"numeral longer than {MAX_NUMERAL_DIGITS}"
                                 " digits", line, col)
            toks.append(Tok("num", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_.'"):
                j += 1
            while src[j - 1] == ".":   # trailing dot is punctuation, not name
                j -= 1
            text = src[i:j]
            kind = "kw" if text in _KEYWORDS else "ident"
            toks.append(Tok(kind, text, line, col))
            col += j - i
            i = j
            continue
        if c == "?" and i + 1 < n and (src[i + 1].isalpha() or src[i + 1] == "_"):
            j = i + 1
            while j < n and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            toks.append(Tok("meta", src[i + 1:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if src.startswith(sym, i):
                toks.append(Tok("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Tok("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Raw (unsorted) syntax trees

@dataclass
class Raw:
    pass


@dataclass
class RNum(Raw):
    val: Fraction


@dataclass
class RName(Raw):
    name: str


@dataclass
class RMeta(Raw):
    name: str


@dataclass
class RBin(Raw):
    op: str
    lhs: Raw
    rhs: Raw


@dataclass
class RNot(Raw):
    arg: Raw


@dataclass
class RNeg(Raw):
    arg: Raw


@dataclass
class RAppl(Raw):
    head: Raw
    args: list[Raw]


@dataclass
class RBinderRaw(Raw):
    kind: str
    groups: list[tuple[str, Sort]]
    body: Raw


@dataclass
class RSum(Raw):
    var: str
    coll: Raw
    body: Raw


@dataclass
class RSetB(Raw):
    var: str
    vsort: Sort
    body: Raw


@dataclass
class RSetLit(Raw):
    elems: list[Raw]


@dataclass
class RAscribe(Raw):
    inner: Raw
    sort: Sort


@dataclass
class RBool(Raw):
    val: bool


class _P:
    def __init__(self, toks: list[Tok]):
        self.toks = toks
        self.i = 0
        self.depth = 0

    def peek(self) -> Tok:
        return self.toks[self.i]

    def next(self) -> Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def err(self, msg: str) -> ParseError:
        t = self.peek()
        found = t.text or "end of input"
        return ParseError(f"{msg}, found {found!r}", t.line, t.col)

    def expect(self, kind: str, text: Optional[str] = None) -> Tok:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            raise self.err(f"expected {text or kind}")
        return self.next()

    def at_sym(self, *texts: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.text in texts

    def at_kw(self, *texts: str) -> bool:
        t = self.peek()
        return t.kind == "kw" and t.text in texts

    def nested(self, parse: Callable[[], _T]) -> _T:
        """Parse one nesting level, at most MAX_NESTING deep."""
        if self.depth >= MAX_NESTING:
            raise self.err(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        out = parse()
        self.depth -= 1
        return out

    def bounded(self, raw: Raw) -> Raw:
        """`raw`, if the term it elaborates to is at most MAX_DEPTH deep.

        Each level of that term consumes a token of its own, so only
        inputs of more than MAX_DEPTH tokens are measured."""
        if len(self.toks) > MAX_DEPTH and _levels(raw) > MAX_DEPTH:
            raise ParseError(f"term deeper than {MAX_DEPTH} levels")
        return raw

    # sorts ---------------------------------------------------------------

    def sort(self) -> Sort:
        s = self.sort_atom()
        if self.at_sym("->"):
            self.next()
            return fn(s, self.nested(self.sort))
        return s

    def sort_atom(self) -> Sort:
        t = self.peek()
        if t.kind == "sym" and t.text == "(":
            self.next()
            s = self.nested(self.sort)
            self.expect("sym", ")")
            return s
        if t.kind == "ident":
            self.next()
            if t.text == "Set":
                return set_of(self.nested(self.sort_atom))
            if t.text in ATOMIC_SORTS:
                return ATOMIC_SORTS[t.text]
            raise ParseError(f"unknown sort {t.text!r}", t.line, t.col)
        raise self.err("expected a sort")

    # terms ----------------------------------------------------------------

    def term(self) -> Raw:
        if self.at_kw("forall", "exists"):
            kind = self.next().text
            groups: list[tuple[str, Sort]] = []
            while self.at_sym("("):
                save = self.i
                self.next()
                names: list[str] = []
                while self.peek().kind == "ident":
                    names.append(self.next().text)
                if not names or not self.at_sym(":"):
                    self.i = save   # it is the body's parenthesis
                    break
                self.next()
                s = self.sort()
                self.expect("sym", ")")
                groups.extend((nm, s) for nm in names)
            if not groups:
                raise self.err("expected (name : Sort) after binder")
            self.expect("sym", ",")
            return RBinderRaw(kind, groups, self.nested(self.term))
        if self.at_kw("fun"):
            self.next()
            self.expect("sym", "(")
            name = self.expect("ident").text
            self.expect("sym", ":")
            s = self.sort()
            self.expect("sym", ")")
            self.expect("sym", "=>")
            return RBinderRaw("lam", [(name, s)], self.nested(self.term))
        if self.at_kw("sum"):
            self.next()
            name = self.expect("ident").text
            self.expect("kw", "in")
            coll = self.cmp_operand()
            self.expect("sym", ",")
            return RSum(name, coll, self.nested(self.term))
        return self.iff_expr()

    def iff_expr(self) -> Raw:
        lhs = self.imp_expr()
        if self.at_sym("<->"):
            self.next()
            return RBin("iff", lhs, self.nested(self.iff_expr))
        return lhs

    def imp_expr(self) -> Raw:
        lhs = self.or_expr()
        if self.at_sym("->"):
            self.next()
            return RBin("imp", lhs, self.nested(self.imp_expr))
        return lhs

    def or_expr(self) -> Raw:
        lhs = self.and_expr()
        if self.at_sym("\\/"):
            self.next()
            return RBin("or", lhs, self.nested(self.or_expr))
        return lhs

    def and_expr(self) -> Raw:
        lhs = self.not_expr()
        if self.at_sym("/\\"):
            self.next()
            return RBin("and", lhs, self.nested(self.and_expr))
        return lhs

    def not_expr(self) -> Raw:
        if self.at_kw("not"):
            self.next()
            return RNot(self.nested(self.not_expr))
        if self.at_kw("forall", "exists"):
            return self.nested(self.term)
        return self.cmp_expr()

    _CMP = {"=": "eq", "!=": "ne", "<": "lt", "<=": "le",
            ">": "gt", ">=": "ge"}

    def cmp_expr(self) -> Raw:
        lhs = self.add_expr()
        t = self.peek()
        if t.kind == "sym" and t.text in self._CMP:
            self.next()
            return RBin(self._CMP[t.text], lhs, self.add_expr())
        if self.at_kw("in"):
            self.next()
            return RBin("mem", lhs, self.add_expr())
        if self.at_kw("dvd"):
            self.next()
            return RBin("dvd", lhs, self.add_expr())
        return lhs

    def cmp_operand(self) -> Raw:
        return self.add_expr()

    def add_expr(self) -> Raw:
        lhs = self.mul_expr()
        while self.at_sym("+", "-"):
            op = "add" if self.next().text == "+" else "sub"
            lhs = RBin(op, lhs, self.mul_expr())
        return lhs

    def mul_expr(self) -> Raw:
        lhs = self.unary()
        while self.at_sym("*", "/", "%"):
            sym = self.next().text
            op = {"*": "mul", "/": "div", "%": "mod"}[sym]
            lhs = RBin(op, lhs, self.unary())
        return lhs

    def unary(self) -> Raw:
        if self.at_sym("-"):
            self.next()
            return RNeg(self.nested(self.unary))
        if self.at_kw("sum", "fun"):
            # value-sorted binders extend maximally to the right
            return self.nested(self.term)
        return self.pow_expr()

    def pow_expr(self) -> Raw:
        base = self.app_expr()
        if self.at_sym("^"):
            self.next()
            return RBin("pow", base, self.nested(self.unary))
        return base

    def app_expr(self) -> Raw:
        head = self.atom()
        args: list[Raw] = []
        while self._at_atom_start():
            args.append(self.atom())
        return RAppl(head, args) if args else head

    def _at_atom_start(self) -> bool:
        t = self.peek()
        if t.kind in ("num", "ident", "meta"):
            return True
        if t.kind == "kw" and t.text in ("True", "False"):
            return True
        return t.kind == "sym" and t.text in ("(", "{")

    def atom(self) -> Raw:
        t = self.peek()
        if t.kind == "num":
            self.next()
            if "." in t.text:
                whole, frac = t.text.split(".")
                return RNum(Fraction(int(whole + frac), 10 ** len(frac)))
            return RNum(Fraction(int(t.text)))
        if t.kind == "meta":
            self.next()
            return RMeta(t.text)
        if t.kind == "kw" and t.text in ("True", "False"):
            self.next()
            return RBool(t.text == "True")
        if t.kind == "ident":
            self.next()
            return RName(t.text)
        if self.at_sym("("):
            self.next()
            inner = self.nested(self.term)
            if self.at_sym(":"):
                self.next()
                s = self.sort()
                self.expect("sym", ")")
                return RAscribe(inner, s)
            self.expect("sym", ")")
            return inner
        if self.at_sym("{"):
            self.next()
            # {x : S | p} or {e, e, ...}
            save = self.i
            if self.peek().kind == "ident":
                name = self.next().text
                if self.at_sym(":"):
                    self.next()
                    s = self.sort()
                    self.expect("sym", "|")
                    body = self.nested(self.term)
                    self.expect("sym", "}")
                    return RSetB(name, s, body)
            self.i = save
            elems = [self.nested(self.term)]
            while self.at_sym(","):
                self.next()
                elems.append(self.nested(self.term))
            self.expect("sym", "}")
            return RSetLit(elems)
        raise self.err("expected a term")


def _levels(raw: Raw) -> int:
    """The depth of the term `raw` elaborates to, counted without
    recursion: an application chain adds a level per argument, a binder
    a level per bound name, and `sum` two (the sum and its lambda)."""
    deepest = 0
    stack = [(raw, 1)]
    while stack:
        r, d = stack.pop()
        deepest = max(deepest, d)
        if isinstance(r, RBin):
            step, kids = 1, [r.lhs, r.rhs]
        elif isinstance(r, (RNot, RNeg)):
            step, kids = 1, [r.arg]
        elif isinstance(r, RAppl):
            step, kids = len(r.args), [r.head, *r.args]
        elif isinstance(r, RBinderRaw):
            step, kids = len(r.groups), [r.body]
        elif isinstance(r, RSum):
            step, kids = 2, [r.coll, r.body]
        elif isinstance(r, RSetB):
            step, kids = 1, [r.body]
        elif isinstance(r, RSetLit):
            step, kids = 1, r.elems
        elif isinstance(r, RAscribe):
            step, kids = 0, [r.inner]
        else:
            step, kids = 0, []
        stack.extend((k, d + step) for k in kids)
    return deepest


# ---------------------------------------------------------------------------
# Elaboration: raw trees to well-sorted terms


class _Ambiguous(Exception):
    """Numeral-only subtree with no sort anchor."""


_BUILTIN_FNS = {
    # name -> (arity, elaborator key)
    "abs": 1, "sqrt": 1, "log": 1, "rat": 1, "card": 1, "divisors": 1,
    "Iio": 1, "Ioi": 1, "Icc": 2, "Ico": 2, "Ioc": 2, "range": 2,
    "union": 2, "inter": 2,
    "even": 1, "odd": 1, "prime": 1,
}

_PRED_ATOMS = {"even", "odd", "prime"}


@dataclass
class _Env:
    ctx: Telescope
    bound: list[tuple[str, Sort]] = field(default_factory=list)
    metas: dict[str, Sort] = field(default_factory=dict)
    probing: bool = False

    def lookup(self, name: str):
        for i, (nm, s) in enumerate(reversed(self.bound)):
            if nm == name:
                return ("bvar", i, s)
        d = self.ctx.lookup(name)
        if d is not None:
            if d.prop is not None:
                raise SortError(
                    f"{name!r} names a hypothesis, not a term")
            return ("var", 0, d.sort)
        return None


def _elab(raw: Raw, expected: Optional[Sort], env: _Env) -> Term:
    if isinstance(raw, RNum):
        if expected is None:
            if env.probing:
                raise _Ambiguous()
            expected = RAT if raw.val.denominator != 1 else INT
        if expected not in NUMERIC:
            raise SortError(f"numeral where {expected} expected")
        return mk_lit(raw.val, expected)
    if isinstance(raw, RBool):
        t = mk_conn("true" if raw.val else "false", ())
        return _chk(t, expected)
    if isinstance(raw, RName):
        hit = env.lookup(raw.name)
        if hit is not None:
            kind, idx, s = hit
            t = BVar(s, idx) if kind == "bvar" else mk_var(raw.name, s)
            return _chk(t, expected)
        if raw.name == "pi":
            return _chk(mk_app("pi", ()), expected)
        if raw.name in _BUILTIN_FNS:
            raise SortError(f"{raw.name!r} expects arguments")
        raise SortError(f"unknown identifier {raw.name!r}")
    if isinstance(raw, RMeta):
        if raw.name not in env.metas:
            raise SortError(f"unknown metavariable ?{raw.name}")
        return _chk(mk_meta(raw.name, env.metas[raw.name]), expected)
    if isinstance(raw, RNeg):
        v = _numeral_value(raw)
        if v is not None:
            if expected is None:
                if env.probing:
                    raise _Ambiguous()
                expected = RAT if v.denominator != 1 else INT
            return mk_lit(v, expected)
        a = _elab_numeric(raw.arg, expected, env)
        return _chk(mk_app("neg", (a,)), expected)
    if isinstance(raw, RNot):
        return _chk(mk_conn("not", (_elab(raw.arg, PROP, env),)), expected)
    if isinstance(raw, RBin):
        return _elab_bin(raw, expected, env)
    if isinstance(raw, RAppl):
        return _elab_app(raw, expected, env)
    if isinstance(raw, RBinderRaw):
        return _elab_binder(raw, expected, env)
    if isinstance(raw, RSum):
        coll = _elab(raw.coll, None, env)
        if coll.sort.kind != "Set":
            raise SortError("sum ranges over a set")
        elem = coll.sort.args[0]
        env.bound.append((raw.var, elem))
        try:
            want = expected if expected in NUMERIC else None
            body = _elab(raw.body, want, env)
        finally:
            env.bound.pop()
        lam = mk_binder("lam", raw.var, elem, body)
        return _chk(mk_app("sum", (coll, lam)), expected)
    if isinstance(raw, RSetB):
        env.bound.append((raw.var, raw.vsort))
        try:
            body = _elab(raw.body, PROP, env)
        finally:
            env.bound.pop()
        return _chk(mk_binder("setb", raw.var, raw.vsort, body), expected)
    if isinstance(raw, RSetLit):
        elem: Optional[Sort] = None
        if expected is not None:
            if expected.kind != "Set":
                raise SortError(f"set literal where {expected} expected")
            elem = expected.args[0]
        if elem is None:
            elem = _anchor_sort(raw.elems, env)
        elems = tuple(_elab(e, elem, env) for e in raw.elems)
        return _chk(mk_app("setlit", elems), expected)
    if isinstance(raw, RAscribe):
        return _chk(_elab(raw.inner, raw.sort, env), expected)
    raise AssertionError(f"unhandled raw node {raw!r}")


def _numeral_value(raw: Raw) -> Optional[Fraction]:
    """Literal value of numeral-shaped trees: 5, -5, 91/25, -91/25, 3.64."""
    if isinstance(raw, RNum):
        return raw.val
    if isinstance(raw, RNeg):
        v = _numeral_value(raw.arg)
        return -v if v is not None else None
    if isinstance(raw, RBin) and raw.op == "div":
        a, b = _numeral_value(raw.lhs), _numeral_value(raw.rhs)
        if a is not None and b is not None and b != 0:
            return Fraction(a, b)
    return None


def _chk(t: Term, expected: Optional[Sort]) -> Term:
    if expected is not None and t.sort != expected:
        raise SortError(f"expected {expected}, got {t.sort}")
    return t


def _anchor_sort(raws: list[Raw], env: _Env) -> Sort:
    """Sort of the first element that resolves on its own anchors."""
    saved, env.probing = env.probing, True
    try:
        for r in raws:
            try:
                return _elab(r, None, env).sort
            except _Ambiguous:
                continue
    finally:
        env.probing = saved
    if env.probing:
        raise _Ambiguous()
    return RAT if any(_numeral_fallback(r) == RAT for r in raws) else INT


def _elab_numeric(raw: Raw, expected: Optional[Sort], env: _Env) -> Term:
    if expected is not None and expected not in NUMERIC:
        raise SortError(f"numeric expression where {expected} expected")
    return _elab(raw, expected, env)


def _elab_bin(raw: RBin, expected: Optional[Sort], env: _Env) -> Term:
    op = raw.op
    if op in ("and", "or", "imp", "iff"):
        if expected is None or expected == PROP:
            try:
                lhs = _elab(raw.lhs, PROP, env)
                rhs = _elab(raw.rhs, PROP, env)
                return mk_conn(op, (lhs, rhs))
            except SortError:
                if op not in ("and", "or"):
                    raise
        # set union / intersection spelled with the same glyphs
        if op in ("and", "or"):
            setop = "inter" if op == "and" else "union"
            lhs, rhs = _elab_pair(raw.lhs, raw.rhs, expected, env)
            return _chk(mk_app(setop, (lhs, rhs)), expected)
        raise SortError(f"cannot elaborate {op} here")
    if op in ("eq", "ne", "lt", "le", "gt", "ge"):
        if expected is not None and expected != PROP:
            raise SortError(f"comparison where {expected} expected")
        lhs, rhs = _elab_pair(raw.lhs, raw.rhs, None, env)
        if op in ("gt", "ge"):
            lhs, rhs = rhs, lhs
            op = {"gt": "lt", "ge": "le"}[op]
        if op in ("eq", "ne") and lhs.sort == PROP:
            return mk_conn("iff" if op == "eq" else "not",
                           (lhs, rhs) if op == "eq"
                           else (mk_conn("iff", (lhs, rhs)),))
        return mk_atom(op, (lhs, rhs))
    if op == "mem":
        if expected is not None and expected != PROP:
            raise SortError(f"membership where {expected} expected")
        saved, env.probing = env.probing, True
        coll = None
        try:
            try:
                coll = _elab(raw.rhs, None, env)
            except _Ambiguous:
                pass
        finally:
            env.probing = saved
        if coll is not None:
            if coll.sort.kind != "Set":
                raise SortError(f"membership in {coll.sort}")
            x = _elab(raw.lhs, coll.sort.args[0], env)
        else:
            x = _elab(raw.lhs, None, env)
            coll = _elab(raw.rhs, set_of(x.sort), env)
        return mk_atom("mem", (x, coll))
    if op == "dvd":
        if expected is not None and expected != PROP:
            raise SortError(f"divisibility where {expected} expected")
        lhs, rhs = _elab_pair(raw.lhs, raw.rhs, None, env)
        return mk_atom("dvd", (lhs, rhs))
    if op == "pow":
        base = _elab(raw.lhs, expected, env)
        exps = REAL if base.sort == REAL else NAT
        return _chk(mk_app("pow", (base, _elab(raw.rhs, exps, env))), expected)
    if op in ("add", "sub", "mul", "div", "mod"):
        if op == "div":
            v = _numeral_value(raw)
            if v is not None and expected == RAT:
                return mk_lit(v, RAT)
        lhs, rhs = _elab_pair(raw.lhs, raw.rhs, expected, env)
        return _chk(mk_app(op, (lhs, rhs)), expected)
    raise AssertionError(f"unhandled binary op {op}")


def _elab_pair(lraw: Raw, rraw: Raw, expected: Optional[Sort],
               env: _Env) -> tuple[Term, Term]:
    """Elaborate two operands of one sort, resolving numeral ambiguity.

    A typed variable on either side anchors the pair; the numerals'
    own fallback sort only applies when both sides are unanchored.
    """
    if expected is not None:
        return _elab(lraw, expected, env), _elab(rraw, expected, env)
    saved, env.probing = env.probing, True
    lhs = rhs = None
    try:
        try:
            lhs = _elab(lraw, None, env)
        except _Ambiguous:
            try:
                rhs = _elab(rraw, None, env)
            except _Ambiguous:
                pass
    finally:
        env.probing = saved
    if lhs is not None:
        return lhs, _elab(rraw, lhs.sort, env)
    if rhs is not None:
        return _elab(lraw, rhs.sort, env), rhs
    if env.probing:
        raise _Ambiguous()
    want = RAT if (_numeral_fallback(lraw) == RAT
                   or _numeral_fallback(rraw) == RAT) else INT
    return _elab(lraw, want, env), _elab(rraw, want, env)


def _elab_binder(raw: RBinderRaw, expected: Optional[Sort],
                 env: _Env) -> Term:
    if raw.kind in ("forall", "exists"):
        if expected is not None and expected != PROP:
            raise SortError(f"quantifier where {expected} expected")
        t = _elab_groups(raw.kind, raw.groups, raw.body, PROP, env)
        return t
    # lam: single group by the grammar
    (name, vsort) = raw.groups[0]
    want_body: Optional[Sort] = None
    if expected is not None:
        if expected.kind != "Fn" or expected.args[0] != vsort:
            raise SortError(f"function literal where {expected} expected")
        want_body = expected.args[1]
    env.bound.append((name, vsort))
    try:
        body = _elab(raw.body, want_body, env)
    finally:
        env.bound.pop()
    return mk_binder("lam", name, vsort, body)


def _elab_groups(kind: str, groups: list[tuple[str, Sort]], body: Raw,
                 want: Sort, env: _Env) -> Term:
    name, vsort = groups[0]
    env.bound.append((name, vsort))
    try:
        if len(groups) > 1:
            inner = _elab_groups(kind, groups[1:], body, want, env)
        else:
            inner = _elab(body, want, env)
    finally:
        env.bound.pop()
    return mk_binder(kind, name, vsort, inner)


def _elab_app(raw: RAppl, expected: Optional[Sort], env: _Env) -> Term:
    head = raw.head
    if isinstance(head, RName) and env.lookup(head.name) is None:
        name = head.name
        if name in _BUILTIN_FNS:
            arity = _BUILTIN_FNS[name]
            if len(raw.args) != arity:
                raise SortError(
                    f"{name} expects {arity} argument(s), got {len(raw.args)}")
            return _elab_builtin(name, raw.args, expected, env)
        raise SortError(f"unknown identifier {name!r}")
    f = _elab(head, None, env)
    for a in raw.args:
        if f.sort.kind != "Fn":
            raise SortError(f"cannot apply a value of sort {f.sort}")
        f = mk_app("@", (f, _elab(a, f.sort.args[0], env)))
    return _chk(f, expected)


def _elab_builtin(name: str, args: list[Raw], expected: Optional[Sort],
                  env: _Env) -> Term:
    if name in _PRED_ATOMS:
        try:
            a = _elab(args[0], None, env)
        except _Ambiguous:
            a = _elab(args[0], NAT, env)
        return _chk(mk_atom(name, (a,)), expected)
    if name == "abs":
        return _chk(mk_app("abs", (_elab_numeric(args[0], expected, env),)),
                    expected)
    if name in ("sqrt", "log"):
        return _chk(mk_app(name, (_elab(args[0], REAL, env),)), expected)
    if name == "rat":
        try:
            a = _elab(args[0], None, env)
        except _Ambiguous:
            a = _elab(args[0], INT, env)
        return _chk(mk_app("rat", (a,)), expected)
    if name == "card":
        return _chk(mk_app("card", (_elab(args[0], None, env),)), expected)
    if name == "divisors":
        return _chk(mk_app("divisors", (_elab(args[0], NAT, env),)), expected)
    if name in ("Iio", "Ioi", "Icc", "Ico", "Ioc", "range"):
        elem: Optional[Sort] = None
        if expected is not None and expected.kind == "Set":
            elem = expected.args[0]
        if elem is None and name == "range":
            elem = INT
        if elem is None:
            elem = _anchor_sort(args, env)
        return _chk(mk_app(name, tuple(_elab(a, elem, env) for a in args)),
                    expected)
    if name in ("union", "inter"):
        lhs, rhs = _elab_pair(args[0], args[1], expected, env)
        return _chk(mk_app(name, (lhs, rhs)), expected)
    raise AssertionError(name)


def parse_term(text: str, ctx: Telescope = Telescope(),
               expected: Optional[Sort] = None,
               metas: Optional[dict[str, Sort]] = None) -> Term:
    """Parse and elaborate one term of outside input in the given
    telescope; the term may be at most MAX_DEPTH levels deep."""
    p = _P(tokenize(text))
    if p.peek().kind == "eof":
        raise ParseError("empty input")
    raw = p.term()
    if p.peek().kind != "eof":
        raise p.err("trailing input")
    env = _Env(ctx, [], dict(metas or {}))
    return _elab(p.bounded(raw), expected, env)


def _numeral_fallback(raw: Raw) -> Sort:
    frac = [False]

    def walk(r: Raw) -> None:
        if isinstance(r, RNum) and r.val.denominator != 1:
            frac[0] = True
        for f in vars(r).values():
            if isinstance(f, Raw):
                walk(f)
            elif isinstance(f, list):
                for x in f:
                    if isinstance(x, Raw):
                        walk(x)
        if isinstance(r, RBin) and r.op == "div":
            frac[0] = True

    walk(raw)
    return RAT if frac[0] else INT


# ---------------------------------------------------------------------------
# Printer

_INFIX = {
    "iff": ("<->", 1, 2, 1), "imp": ("->", 2, 3, 2),
    "or": ("\\/", 3, 4, 3), "union": ("\\/", 3, 4, 3),
    "and": ("/\\", 4, 5, 4), "inter": ("/\\", 4, 5, 4),
    "eq": ("=", 6, 7, 7), "ne": ("!=", 6, 7, 7), "lt": ("<", 6, 7, 7),
    "le": ("<=", 6, 7, 7), "mem": ("in", 6, 7, 7), "dvd": ("dvd", 6, 7, 7),
    "add": ("+", 7, 7, 8), "sub": ("-", 7, 7, 8),
    "mul": ("*", 8, 8, 9), "div": ("/", 8, 8, 9), "mod": ("%", 8, 8, 9),
    "pow": ("^", 10, 11, 10),
}

_NAMED_FNS = {"abs", "sqrt", "log", "card", "divisors", "rat",
              "Iio", "Ioi", "Icc", "Ico", "Ioc", "range"}


def print_term(t: Term, names: tuple[str, ...] = ()) -> str:
    """Canonical ASCII rendering; parses back to a syntactically equal tree."""
    return _pp(t, 0, list(names))


def _pp(t: Term, prec: int, scope: list[str]) -> str:
    s, lv = _pp_lv(t, scope)
    return f"({s})" if lv < prec else s


def _pp_lv(t: Term, scope: list[str]) -> tuple[str, int]:
    if isinstance(t, Lit):
        if t.val.denominator == 1:
            txt = str(t.val.numerator)
            return txt, (9 if t.val < 0 else 12)
        return f"{t.val.numerator}/{t.val.denominator}", 8
    if isinstance(t, Var):
        return t.name, 12
    if isinstance(t, Meta):
        return f"?{t.mid}", 12
    if isinstance(t, BVar):
        return scope[-(t.idx + 1)], 12
    if isinstance(t, Conn):
        if t.op == "true":
            return "True", 12
        if t.op == "false":
            return "False", 12
        if t.op == "not":
            return f"not {_pp(t.args[0], 5, scope)}", 5
        sym, lv, lp, rp = _INFIX[t.op]
        return (f"{_pp(t.args[0], lp, scope)} {sym} "
                f"{_pp(t.args[1], rp, scope)}"), lv
    if isinstance(t, Atom):
        if t.rel in ("even", "odd", "prime"):
            return f"{t.rel} {_pp(t.args[0], 12, scope)}", 11
        sym, lv, lp, rp = _INFIX[t.rel]
        return (f"{_pp(t.args[0], lp, scope)} {sym} "
                f"{_pp(t.args[1], rp, scope)}"), lv
    if isinstance(t, App):
        if t.op in _INFIX:
            sym, lv, lp, rp = _INFIX[t.op]
            return (f"{_pp(t.args[0], lp, scope)} {sym} "
                    f"{_pp(t.args[1], rp, scope)}"), lv
        if t.op == "neg":
            # argument parenthesized one level tighter so that nested
            # negation never prints as a `--` comment marker
            return f"-{_pp(t.args[0], 10, scope)}", 9
        if t.op == "pi":
            return "pi", 12
        if t.op == "@":
            head, args = t.args[0], [t.args[1]]
            while isinstance(head, App) and head.op == "@":
                args.insert(0, head.args[1])
                head = head.args[0]
            parts = [_pp(head, 11, scope)] + [_pp(a, 12, scope) for a in args]
            return " ".join(parts), 11
        if t.op in _NAMED_FNS:
            parts = [t.op] + [_pp(a, 12, scope) for a in t.args]
            return " ".join(parts), 11
        if t.op == "setlit":
            inner = ", ".join(_pp(a, 0, scope) for a in t.args)
            return "{" + inner + "}", 12
        if t.op == "sum":
            coll, lam = t.args
            assert isinstance(lam, Binder)
            nm = _fresh_name(lam.var, scope)
            body = _pp(lam.body, 0, scope + [nm])
            return f"sum {nm} in {_pp(coll, 7, scope)}, {body}", 0
        raise AssertionError(f"cannot print op {t.op!r}")
    if isinstance(t, Binder):
        nm = _fresh_name(t.var, scope)
        if t.kind == "setb":
            body = _pp(t.body, 0, scope + [nm])
            return "{" + f"{nm} : {t.vsort} | {body}" + "}", 12
        body = _pp(t.body, 0, scope + [nm])
        if t.kind == "lam":
            return f"fun ({nm} : {t.vsort}) => {body}", 0
        return f"{t.kind} ({nm} : {t.vsort}), {body}", 0
    raise AssertionError(f"cannot print {t!r}")


def _fresh_name(base: str, scope: list[str]) -> str:
    if base not in scope:
        return base
    i = 1
    while f"{base}{i}" in scope:
        i += 1
    return f"{base}{i}"


# ---------------------------------------------------------------------------
# Problems


@dataclass(frozen=True)
class Problem:
    framework: str                      # fps | dfps
    vars: tuple[tuple[str, Sort], ...]
    queriable: tuple[str, Sort]
    hyps: tuple[tuple[str, Term], ...]
    concls: tuple[Term, ...]
    answer: Optional[Term] = None
    informal: Optional[str] = None

    def telescope(self) -> Telescope:
        decls = [LocalDecl(n, s) for n, s in self.vars]
        decls += [LocalDecl(n, PROP, prop=p) for n, p in self.hyps]
        return Telescope(tuple(decls))

    def conclusion(self) -> Term:
        out = self.concls[-1]
        for c in reversed(self.concls[:-1]):
            out = mk_conn("and", (c, out))
        return out


def _var_telescope(pairs: list[tuple[str, Sort]]) -> Telescope:
    return Telescope(tuple(LocalDecl(n, s) for n, s in pairs))


def parse_problem(doc: bytes | str | dict) -> Problem:
    """Validate and elaborate one problem document (JSON)."""
    if isinstance(doc, (bytes, str)):
        try:
            obj = json.loads(doc)
        except json.JSONDecodeError as e:
            raise SchemaError(f"invalid JSON: {e}") from None
    else:
        obj = doc
    if not isinstance(obj, dict):
        raise SchemaError("problem document must be a JSON object")
    version = obj.get("format_version", "1")
    if version != "1":
        raise SchemaError(f"unsupported format_version {version!r}")
    framework = obj.get("framework")
    if framework not in ("fps", "dfps"):
        raise SchemaError(f"framework must be 'fps' or 'dfps', got {framework!r}")
    try:
        vars_ = [(str(n), _parse_sort_text(s)) for n, s in obj.get("vars", [])]
        qname, qsort_text = obj["queriable"]
        qsort = _parse_sort_text(qsort_text)
    except (KeyError, ValueError, TypeError) as e:
        raise SchemaError(f"malformed vars/queriable: {e}") from None
    if any(n == qname for n, _ in vars_):
        raise SchemaError(f"queriable {qname!r} clashes with a variable")
    tele = _var_telescope(vars_)
    hyps: list[tuple[str, Term]] = []
    for item in obj.get("hypotheses", []):
        try:
            hname, htext = item
        except (ValueError, TypeError):
            raise SchemaError(f"malformed hypothesis entry {item!r}") from None
        try:
            prop = parse_term(htext, tele, PROP)
        except (ParseError, SortError) as e:
            raise SchemaError(f"hypothesis {hname}: {e}") from None
        hyps.append((hname, prop))
        tele = tele.extended(LocalDecl(hname, PROP, prop=prop))
    concl_tele = tele.extended(LocalDecl(qname, qsort))
    concls: list[Term] = []
    for ctext in obj.get("conclusions", []):
        try:
            concls.append(parse_term(ctext, concl_tele, PROP))
        except (ParseError, SortError) as e:
            raise SchemaError(f"conclusion: {e}") from None
    if not concls:
        raise SchemaError("at least one conclusion is required")
    answer = None
    if obj.get("answer") is not None:
        try:
            answer = parse_term(obj["answer"], tele, qsort)
        except (ParseError, SortError) as e:
            raise SchemaError(f"answer: {e}") from None
    prob = Problem(framework, tuple(vars_), (qname, qsort), tuple(hyps),
                   tuple(concls), answer, obj.get("informal"))
    if framework == "dfps":
        _check_dfps_shape(prob)
    return prob


def _check_dfps_shape(p: Problem) -> None:
    qname, qsort = p.queriable
    if qsort != PROP:
        raise DfpsShapeError("dfps queriable must have sort Prop")
    if len(p.concls) != 1:
        raise DfpsShapeError("dfps requires exactly one conclusion")
    c = p.concls[0]
    if not (isinstance(c, Conn) and c.op == "iff"):
        raise DfpsShapeError("dfps conclusion must be an iff")
    psi, a = c.args
    if not (isinstance(a, Var) and a.name == qname):
        raise DfpsShapeError(
            "dfps conclusion must have the queriable on the right")
    if qname in free_vars(psi):
        raise DfpsShapeError("queriable occurs inside the dfps body")


def _parse_sort_text(text: str) -> Sort:
    p = _P(tokenize(text))
    s = p.sort()
    if p.peek().kind != "eof":
        raise SchemaError(f"trailing input in sort {text!r}")
    return s


# ---------------------------------------------------------------------------
# Tactic scripts


@dataclass(frozen=True)
class ScriptLine:
    goal: Optional[str]   # case name, None targets the first goal
    tactic: str
    argtext: str
    lineno: int

    def render(self) -> str:
        prefix = f"@goal {self.goal} " if self.goal else ""
        body = f"{self.tactic} {self.argtext}".rstrip()
        return prefix + body


@dataclass(frozen=True)
class ProofScript:
    lines: tuple[ScriptLine, ...]

    def render(self) -> str:
        return "\n".join(ln.render() for ln in self.lines)


def parse_script(src: str | list[str]) -> ProofScript:
    """One tactic per line; `--` comments; optional `@goal case` prefix."""
    raw_lines = src.splitlines() if isinstance(src, str) else list(src)
    out: list[ScriptLine] = []
    for i, line in enumerate(raw_lines, start=1):
        body = line.split("--", 1)[0].strip()
        if not body:
            continue
        if body.startswith("format_version"):
            ver = body.split(":", 1)[-1].strip().strip('"')
            if ver != "1":
                raise SchemaError(f"unsupported script format_version {ver!r}")
            continue
        goal = None
        if body.startswith("@goal"):
            parts = body.split(None, 2)
            if len(parts) < 3:
                raise SchemaError(f"line {i}: malformed @goal prefix")
            goal, body = parts[1], parts[2]
        toks = body.split(None, 1)
        out.append(ScriptLine(goal, toks[0],
                              toks[1] if len(toks) > 1 else "", i))
    return ProofScript(tuple(out))
