"""Surface syntax: term parser, canonical printer, problem and script files.

The term grammar is a Lean-inspired ASCII language.  Unicode math symbols
are accepted as input aliases; the printer emits ASCII only, so golden
files are bit-exact.  Numerals elaborate against the expected sort where
one is known and are anchored by typed variables otherwise; decimals
always denote exact rationals (3.64 parses as 91/25).
"""

from __future__ import annotations

import json
import re
import string
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
# operator) costs the parser at most 5 of Python's 1000 stack frames
# (measured: MAX_NESTING nested brackets take 258 frames, a binder or
# prefix chain 208 or less; `test_parser_reference` holds it there), and
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

_KEYWORDS = {"forall", "exists", "fun", "in", "dvd", "not", "sum",
             "True", "False"}

_SYMBOLS = {"<->", "->", "/\\", "\\/", "<=", ">=", "!=", "=>", "|-",
            "(", ")", "{", "}", ",", ":", "|", "^", "*", "/", "%",
            "+", "-", "=", "<", ">", "?"}

# One lexeme after optional whitespace: a comment, numeral, name, meta,
# symbol, the end, or one character no lexeme starts with.  `\s`, `\d`
# and `\w` are exactly `str.isspace`, `str.isdecimal` (what `int` reads)
# and `str.isalnum` or `_`.  A name starts with a letter or `_` and may
# hold `.` and `'` but not end in `.`; `[^\W\d]` also admits the
# non-decimal digits and numerics (`²`, `½`), which `_sift` rejects.
# Longer symbols come before their prefixes, and `--` before `-`.
_LEXEME = re.compile(r"""\s*(
      --[^\n]*
    | \d+(?:\.\d+)?
    | [^\W\d][\w']*(?:\.+[\w']+)*
    | \?[^\W\d][\w']*
    | <-> | -> | /\\ | \\/ | <= | >= | != | => | \|-
    | [-(){},:|^*/%+=<>?]
    | \Z
    | .)""", re.VERBOSE)

# The parser reads each token as a key and a text.  The key is the text
# of a symbol or keyword, else the token's kind (num, ident, meta, eof).
_KEYS = {s: s for s in _SYMBOLS | _KEYWORDS}
# the key of any other lexeme that starts with an ASCII character and is
# no comment or stray character, by that character
_FIRST = {"": "eof", "?": "meta", "_": "ident"}
_FIRST.update((c, "num") for c in string.digits)
_FIRST.update((c, "ident") for c in string.ascii_letters)


def _spell(src: str) -> str:
    """`src` with its Unicode aliases spelled out in ASCII."""
    for u, a in _UNICODE_ALIASES.items():
        src = src.replace(u, f" {a} ")
    return src


def _lex(src: str) -> tuple[list[str], list[str]]:
    """The keys and texts of `src`'s tokens, the last one eof.

    One `findall` reads the lexemes, and `_KEYS` or `_FIRST` keys them.
    ASCII input with no comment and no stray character, too short to
    hold an overlong numeral, needs no more; any other input is sifted
    lexeme by lexeme."""
    plain = src.isascii()
    if not plain:
        src = _spell(src)
    texts = _LEXEME.findall(src)
    keys = [_KEYS.get(t) or _FIRST.get(t[:1]) for t in texts]
    if None in keys or not plain or len(src) > MAX_NUMERAL_DIGITS:
        keys, texts = _sift(src, keys, texts)
    n = keys.index("eof") + 1    # trailing space leaves two ends
    if "meta" in keys:
        texts = [t[1:] if k == "meta" else t for k, t in zip(keys, texts)]
    return keys[:n], texts[:n]


def _sift(src: str, keys: list[Optional[str]], texts: list[str]
          ) -> tuple[list[str], list[str]]:
    """The keys and texts of the tokens among `src`'s lexemes: a comment
    is dropped, a lexeme `_KEYS` and `_FIRST` miss is keyed by its first
    character, and a stray character or an overlong numeral is a
    ParseError."""
    out_keys: list[str] = []
    out_texts: list[str] = []
    for key, text in zip(keys, texts):
        bad = 0                  # where in `text` a stray character is
        if key is None:
            if text.startswith("--"):
                continue
            c = text[0]
            key = "num" if c.isdecimal() else "ident" if c.isalpha() \
                else None
        elif key == "meta" and not (text[1].isalpha() or text[1] == "_"):
            key, bad = None, 1   # `?` and a non-decimal digit
        if key is None:
            line, col = _position(src, len(out_keys))
            raise ParseError(f"unexpected character {text[bad]!r}",
                             line, col + bad)
        if key == "num" and len(text) > MAX_NUMERAL_DIGITS:
            raise ParseError(f"numeral longer than {MAX_NUMERAL_DIGITS}"
                             " digits", *_position(src, len(out_keys)))
        out_keys.append(key)
        out_texts.append(text)
    return out_keys, out_texts


def _position(src: str, i: int) -> tuple[int, int]:
    """The line and column of `src`'s token `i`, found by lexing `src`
    again: only a ParseError reports one.  The end of input right after
    a comment is placed at the comment."""
    src = _spell(src)
    comment = None
    for m in _LEXEME.finditer(src):
        if m[1].startswith("--"):
            comment = m
        elif i:
            i -= 1
        else:
            break
    at = m.start(1)
    if comment is not None and comment.end() == at:
        at = comment.start(1)
    return src.count("\n", 0, at) + 1, at - src.rfind("\n", 0, at) - 1


# ---------------------------------------------------------------------------
# Raw (unsorted) syntax trees


class Raw:
    """A parsed term before elaboration.  Nodes compare by their fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and all(
            getattr(self, f) == getattr(other, f) for f in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(repr(getattr(self, f)) for f in self._fields)
        return f"{type(self).__name__}({fields})"


class RNum(Raw):
    __slots__ = _fields = ("val",)

    def __init__(self, val: Fraction):
        self.val = val


class RName(Raw):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        self.name = name


class RMeta(Raw):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        self.name = name


class RBin(Raw):
    __slots__ = _fields = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Raw, rhs: Raw):
        self.op = op
        self.lhs = lhs
        self.rhs = rhs


class RNot(Raw):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg: Raw):
        self.arg = arg


class RNeg(Raw):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg: Raw):
        self.arg = arg


class RAppl(Raw):
    __slots__ = _fields = ("head", "args")

    def __init__(self, head: Raw, args: list[Raw]):
        self.head = head
        self.args = args


class RBinderRaw(Raw):
    __slots__ = _fields = ("kind", "groups", "body")

    def __init__(self, kind: str, groups: list[tuple[str, Sort]], body: Raw):
        self.kind = kind
        self.groups = groups
        self.body = body


class RSum(Raw):
    __slots__ = _fields = ("var", "coll", "body")

    def __init__(self, var: str, coll: Raw, body: Raw):
        self.var = var
        self.coll = coll
        self.body = body


class RSetB(Raw):
    __slots__ = _fields = ("var", "vsort", "body")

    def __init__(self, var: str, vsort: Sort, body: Raw):
        self.var = var
        self.vsort = vsort
        self.body = body


class RSetLit(Raw):
    __slots__ = _fields = ("elems",)

    def __init__(self, elems: list[Raw]):
        self.elems = elems


class RAscribe(Raw):
    __slots__ = _fields = ("inner", "sort")

    def __init__(self, inner: Raw, sort: Sort):
        self.inner = inner
        self.sort = sort


class RBool(Raw):
    __slots__ = _fields = ("val",)

    def __init__(self, val: bool):
        self.val = val


# ---------------------------------------------------------------------------
# Parser
#
# Precedence climbing (Pratt, "Top down operator precedence", 1973) over
# these levels:
#
#   0  a whole term: `forall`, `exists`, `fun` and `sum` first
#   1  <->    2  ->    3  \/    4  /\     right-associative
#   5  `not` and its operand
#   6  = != < <= > >= in dvd           one comparison, no chain
#   7  + -    8  * / %                  left-associative
#   9  unary minus, and `sum` or `fun` reaching to the right
#   10 ^                                right-associative, a unary exponent
#
# `expr(level)` reads an operand, then each operator of `level` or
# tighter that may follow what it has read so far: its `loosest` level.
# After a `not`, or a quantifier inside a connective, only connectives
# may follow (4); after a comparison no second one (5); after unary
# minus, or a binder reached from an arithmetic operand, no `^` (8).  A
# right operand read at its operator's own level, and each bracket,
# binder body and prefix operand, is one nesting level (`nested`).
#
# The binary operators: token key -> (level, raw op).
_BINARY = {
    "<->": (1, "iff"), "->": (2, "imp"), "\\/": (3, "or"), "/\\": (4, "and"),
    "=": (6, "eq"), "!=": (6, "ne"), "<": (6, "lt"), "<=": (6, "le"),
    ">": (6, "gt"), ">=": (6, "ge"), "in": (6, "mem"), "dvd": (6, "dvd"),
    "+": (7, "add"), "-": (7, "sub"),
    "*": (8, "mul"), "/": (8, "div"), "%": (8, "mod"),
    "^": (10, "pow"),
}

_ATOM_START = {"num", "ident", "meta", "True", "False", "(", "{"}


class _P:
    """A parser over the tokens of one text; `i` is the current token."""

    def __init__(self, src: str):
        self.src = src
        self.keys, self.texts = _lex(src)
        self.i = 0
        self.depth = 0

    def at(self, key: str) -> bool:
        return self.keys[self.i] == key

    def next(self) -> str:
        """Consume the current token; its text."""
        self.i += 1
        return self.texts[self.i - 1]

    def err(self, msg: str) -> ParseError:
        found = self.texts[self.i] or "end of input"
        return ParseError(f"{msg}, found {found!r}",
                          *_position(self.src, self.i))

    def expect(self, key: str) -> str:
        if self.keys[self.i] != key:
            raise self.err(f"expected {key}")
        return self.next()

    def nested(self, parse: Callable[..., _T], *args) -> _T:
        """Parse one nesting level, at most MAX_NESTING deep."""
        if self.depth >= MAX_NESTING:
            raise self.err(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        out = parse(*args)
        self.depth -= 1
        return out

    def bounded(self, raw: Raw) -> Raw:
        """`raw`, if the term it elaborates to is at most MAX_DEPTH deep.

        Each level of that term consumes a token of its own, so only
        inputs of more than MAX_DEPTH tokens are measured."""
        if len(self.keys) > MAX_DEPTH and _levels(raw) > MAX_DEPTH:
            raise ParseError(f"term deeper than {MAX_DEPTH} levels")
        return raw

    # sorts ---------------------------------------------------------------

    def sort(self) -> Sort:
        s = self.sort_atom()
        if self.at("->"):
            self.i += 1
            return fn(s, self.nested(self.sort))
        return s

    def sort_atom(self) -> Sort:
        if self.at("("):
            self.i += 1
            s = self.nested(self.sort)
            self.expect(")")
            return s
        if self.at("ident"):
            name = self.next()
            if name == "Set":
                return set_of(self.nested(self.sort_atom))
            if name in ATOMIC_SORTS:
                return ATOMIC_SORTS[name]
            raise ParseError(f"unknown sort {name!r}",
                             *_position(self.src, self.i - 1))
        raise self.err("expected a sort")

    # terms ----------------------------------------------------------------

    def term(self) -> Raw:
        return self.expr(0)

    def expr(self, level: int) -> Raw:
        """A term at `level` (see the table above)."""
        lhs, loosest = self.prefix(level)
        keys = self.keys
        while True:
            op = _BINARY.get(keys[self.i])
            if op is None or not level <= op[0] <= loosest:
                return lhs
            lv, name = op
            self.i += 1
            if lv == 6:
                rhs, loosest = self.expr(7), 5
            elif lv == 7 or lv == 8:
                rhs, loosest = self.expr(lv + 1), lv
            else:
                rhs = self.nested(self.expr, 9 if lv == 10 else lv)
                loosest = lv - 1
            lhs = RBin(name, lhs, rhs)

    def prefix(self, level: int) -> tuple[Raw, int]:
        """The first operand of a term at `level`, and the loosest level
        of an operator that may follow it."""
        key = self.keys[self.i]
        if level == 0:
            if key == "forall" or key == "exists":
                return self.binder(), 0
            if key == "fun":
                return self.lam(), 0
            if key == "sum":
                return self.sum(), 0
        if level <= 5:
            if key == "not":
                self.i += 1
                return RNot(self.nested(self.expr, 5)), 4
            if key == "forall" or key == "exists":
                return self.nested(self.expr, 0), 4
        if key == "-":
            self.i += 1
            return RNeg(self.nested(self.expr, 9)), 8
        if key == "sum" or key == "fun":
            # value-sorted binders extend maximally to the right
            return self.nested(self.expr, 0), 8
        return self.app_expr(), 10

    def binder(self) -> Raw:
        kind = self.next()
        groups: list[tuple[str, Sort]] = []
        while self.at("("):
            save = self.i
            self.i += 1
            names: list[str] = []
            while self.at("ident"):
                names.append(self.next())
            if not names or not self.at(":"):
                self.i = save   # it is the body's parenthesis
                break
            self.i += 1
            s = self.sort()
            self.expect(")")
            groups.extend((nm, s) for nm in names)
        if not groups:
            raise self.err("expected (name : Sort) after binder")
        self.expect(",")
        return RBinderRaw(kind, groups, self.nested(self.expr, 0))

    def lam(self) -> Raw:
        self.i += 1
        self.expect("(")
        name = self.expect("ident")
        self.expect(":")
        s = self.sort()
        self.expect(")")
        self.expect("=>")
        return RBinderRaw("lam", [(name, s)], self.nested(self.expr, 0))

    def sum(self) -> Raw:
        self.i += 1
        name = self.expect("ident")
        self.expect("in")
        coll = self.expr(7)
        self.expect(",")
        return RSum(name, coll, self.nested(self.expr, 0))

    def app_expr(self) -> Raw:
        head = self.atom()
        args: list[Raw] = []
        while self.keys[self.i] in _ATOM_START:
            args.append(self.atom())
        return RAppl(head, args) if args else head

    def atom(self) -> Raw:
        key = self.keys[self.i]
        if key == "ident":
            return RName(self.next())
        if key == "num":
            text = self.next()
            if "." in text:
                whole, frac = text.split(".")
                return RNum(Fraction(int(whole + frac), 10 ** len(frac)))
            return RNum(Fraction(int(text)))
        if key == "(":
            self.i += 1
            inner = self.nested(self.expr, 0)
            if self.at(":"):
                self.i += 1
                s = self.sort()
                self.expect(")")
                return RAscribe(inner, s)
            self.expect(")")
            return inner
        if key == "meta":
            return RMeta(self.next())
        if key == "True" or key == "False":
            self.i += 1
            return RBool(key == "True")
        if key == "{":
            self.i += 1
            # {x : S | p} or {e, e, ...}
            if self.at("ident") and self.keys[self.i + 1] == ":":
                name = self.texts[self.i]
                self.i += 2
                s = self.sort()
                self.expect("|")
                body = self.nested(self.expr, 0)
                self.expect("}")
                return RSetB(name, s, body)
            elems = [self.nested(self.expr, 0)]
            while self.at(","):
                self.i += 1
                elems.append(self.nested(self.expr, 0))
            self.expect("}")
            return RSetLit(elems)
        raise self.err("expected a term")


def _raw_kids(r: Raw) -> tuple[int, list[Raw]]:
    """The levels `r` adds to the term it elaborates to, and its
    subtrees: an application chain adds a level per argument, a binder
    a level per bound name, and `sum` two (the sum and its lambda)."""
    if isinstance(r, RBin):
        return 1, [r.lhs, r.rhs]
    if isinstance(r, (RNot, RNeg)):
        return 1, [r.arg]
    if isinstance(r, RAppl):
        return len(r.args), [r.head, *r.args]
    if isinstance(r, RBinderRaw):
        return len(r.groups), [r.body]
    if isinstance(r, RSum):
        return 2, [r.coll, r.body]
    if isinstance(r, RSetB):
        return 1, [r.body]
    if isinstance(r, RSetLit):
        return 1, r.elems
    if isinstance(r, RAscribe):
        return 0, [r.inner]
    return 0, []


def _levels(raw: Raw) -> int:
    """The depth of the term `raw` elaborates to, counted without
    recursion."""
    deepest = 0
    stack = [(raw, 1)]
    while stack:
        r, d = stack.pop()
        deepest = max(deepest, d)
        step, kids = _raw_kids(r)
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
_INTERVALS = ("Iio", "Ioi", "Icc", "Ico", "Ioc", "range")


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
    if isinstance(raw, RBin):
        return _elab_bin(raw, expected, env)
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
    return _fallback_sort(*raws)


def _elab_numeric(raw: Raw, expected: Optional[Sort], env: _Env) -> Term:
    if expected is not None and expected not in NUMERIC:
        raise SortError(f"numeric expression where {expected} expected")
    return _elab(raw, expected, env)


def _elab_bin(raw: RBin, expected: Optional[Sort], env: _Env) -> Term:
    op = raw.op
    if op in ("add", "sub", "mul", "div", "mod"):
        if op == "div" and expected == RAT:
            v = _numeral_value(raw)
            if v is not None:
                return mk_lit(v, RAT)
        lhs, rhs = _elab_pair(raw.lhs, raw.rhs, expected, env)
        return _chk(mk_app(op, (lhs, rhs)), expected)
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
    want = _fallback_sort(lraw, rraw)
    return _elab(lraw, want, env), _elab(rraw, want, env)


def _fallback_sort(*raws: Raw) -> Sort:
    """The sort unanchored `raws` fall back to: the numerals' own
    sort, under one `Set` per level of the deepest set among them."""
    want = _numeral_fallback(*raws)
    for _ in range(max(map(_set_depth, raws))):
        want = set_of(want)
    return want


def _set_depth(raw: Raw) -> int:
    """How many sets deep `raw` holds its numerals: a set literal one
    level below its deepest element, an interval one, a union or
    intersection as deep as its deepest operand, anything else none."""
    head = raw.head.name if isinstance(raw, RAppl) \
        and isinstance(raw.head, RName) else None
    if head in ("union", "inter") or isinstance(raw, RBin) \
            and raw.op in ("and", "or"):
        return max(map(_set_depth, _raw_kids(raw)[1]))
    if isinstance(raw, RSetLit):
        return 1 + max(map(_set_depth, raw.elems), default=0)
    return 1 if head in _INTERVALS else 0


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
        # a cardinality is a Nat whatever the set's element sort, so it
        # anchors a comparison even when the set is numerals only
        saved, env.probing = env.probing, False
        try:
            coll = _elab(args[0], None, env)
        finally:
            env.probing = saved
        return _chk(mk_app("card", (coll,)), expected)
    if name == "divisors":
        return _chk(mk_app("divisors", (_elab(args[0], NAT, env),)), expected)
    if name in _INTERVALS:
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
    p = _P(text)
    if p.at("eof"):
        raise ParseError("empty input")
    raw = p.term()
    if not p.at("eof"):
        raise p.err("trailing input")
    env = _Env(ctx, [], dict(metas or {}))
    return _elab(p.bounded(raw), expected, env)


def _numeral_fallback(*raws: Raw) -> Sort:
    """Rat if `raws` hold a fractional numeral or a division, else Int."""
    stack = list(raws)
    while stack:
        r = stack.pop()
        if (isinstance(r, RNum) and r.val.denominator != 1) \
                or (isinstance(r, RBin) and r.op == "div"):
            return RAT
        stack.extend(_raw_kids(r)[1])
    return INT


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
    """Canonical ASCII rendering.  Parsed back in the same telescope, the
    text elaborates to a term `alpha_eq` to `t`: a binder that shadows a
    name in scope, or one its body uses free, prints under a fresh name,
    so the node read back may differ from `t` in binder names only."""
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
            nm = _fresh_name(lam.var, scope, lam.body)
            body = _pp(lam.body, 0, scope + [nm])
            return f"sum {nm} in {_pp(coll, 7, scope)}, {body}", 0
        raise AssertionError(f"cannot print op {t.op!r}")
    if isinstance(t, Binder):
        nm = _fresh_name(t.var, scope, t.body)
        if t.kind == "setb":
            body = _pp(t.body, 0, scope + [nm])
            return "{" + f"{nm} : {t.vsort} | {body}" + "}", 12
        if t.kind == "lam":
            body = _pp(t.body, 0, scope + [nm])
            return f"fun ({nm} : {t.vsort}) => {body}", 0
        # a run of quantifiers of one kind prints as one binder group, so
        # a run longer than MAX_NESTING still reads back
        inner = scope + [nm]
        groups = [f"({nm} : {t.vsort})"]
        body = t.body
        while isinstance(body, Binder) and body.kind == t.kind:
            nm = _fresh_name(body.var, inner, body.body)
            inner.append(nm)
            groups.append(f"({nm} : {body.vsort})")
            body = body.body
        return f"{t.kind} {' '.join(groups)}, {_pp(body, 0, inner)}", 0
    raise AssertionError(f"cannot print {t!r}")


def _fresh_name(base: str, scope: list[str], body: Term) -> str:
    """The name a binder over `body` prints with: `base`, or `base`
    numbered when that names an enclosing binder or a free variable of
    `body`, which the binder would otherwise capture."""
    free = free_vars(body)
    name, i = base, 0
    while name in scope or name in free:
        i += 1
        name = f"{base}{i}"
    return name


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
    # built and checked by the first `telescope()` call; not an init
    # field, so `dataclasses.replace` starts the copy without one
    _telescope: Optional[Telescope] = field(
        default=None, init=False, repr=False, compare=False)

    def telescope(self) -> Telescope:
        """The variables, then the hypotheses, as one telescope."""
        if self._telescope is None:
            decls = [LocalDecl(n, s) for n, s in self.vars]
            decls += [LocalDecl(n, PROP, prop=p) for n, p in self.hyps]
            object.__setattr__(self, "_telescope", Telescope(tuple(decls)))
        return self._telescope

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
        vars_ = [(str(n), _parse_sort_text(s))
                 for n, s in map(_pair, _entries(obj, "vars"))]
        qname, qsort_text = _pair(obj["queriable"])
        qname, qsort = str(qname), _parse_sort_text(qsort_text)
    except (KeyError, ValueError, TypeError) as e:
        raise SchemaError(f"malformed vars/queriable: {e}") from None
    if any(n == qname for n, _ in vars_):
        raise SchemaError(f"queriable {qname!r} clashes with a variable")
    tele = _var_telescope(vars_)
    hyps: list[tuple[str, Term]] = []
    for item in _entries(obj, "hypotheses"):
        try:
            hname, htext = _pair(item)
        except TypeError:
            raise SchemaError(f"malformed hypothesis entry {item!r}") from None
        hname = str(hname)
        what = f"hypothesis {hname!r}"
        try:
            prop = parse_term(_text(htext, what), tele, PROP)
        except (ParseError, SortError) as e:
            raise SchemaError(f"{what}: {e}") from None
        hyps.append((hname, prop))
        tele = tele.extended(LocalDecl(hname, PROP, prop=prop))
    concl_tele = tele.extended(LocalDecl(qname, qsort))
    concls: list[Term] = []
    for ctext in _entries(obj, "conclusions"):
        try:
            concls.append(parse_term(_text(ctext, "conclusion"), concl_tele,
                                     PROP))
        except (ParseError, SortError) as e:
            raise SchemaError(f"conclusion: {e}") from None
    if not concls:
        raise SchemaError("at least one conclusion is required")
    answer = None
    if obj.get("answer") is not None:
        try:
            answer = parse_term(_text(obj["answer"], "answer"), tele, qsort)
        except (ParseError, SortError) as e:
            raise SchemaError(f"answer: {e}") from None
    prob = Problem(framework, tuple(vars_), (qname, qsort), tuple(hyps),
                   tuple(concls), answer, obj.get("informal"))
    object.__setattr__(prob, "_telescope", tele)   # checked as it grew
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


def _entries(obj: dict, key: str) -> list:
    """The entries of the document's `key`, a JSON list, none when it is
    absent; any other JSON value there is a SchemaError."""
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise SchemaError(f"{key} must be a list, got {value!r}")
    return value


def _pair(value: object) -> list:
    """`value`, a JSON list of two; any other JSON value is a TypeError."""
    if not (isinstance(value, list) and len(value) == 2):
        raise TypeError(f"expected a list of two, got {value!r}")
    return value


def _text(value: object, what: str) -> str:
    """`value`, the document's text of `what`; any other JSON value
    there is a SchemaError."""
    if not isinstance(value, str):
        raise SchemaError(f"{what}: expected a string, got {value!r}")
    return value


def _parse_sort_text(text: str) -> Sort:
    p = _P(_text(text, "sort"))
    s = p.sort()
    if not p.at("eof"):
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
