"""The front end against the one it replaced.

`syntax` lexes with one regular expression and parses by precedence
climbing.  The reference below is the lexer and the recursive-descent
parser they replaced: a per-character scan, and one function per
precedence level from `term` down to `atom`.  The only change to them is
that numerals are read by `str.isdecimal` (what `int` accepts), where
the old lexer took every `str.isdigit` character and crashed on `2²`.
`_lex` must give the reference's keys and texts, and `_position` each
token's line and column; the parsers must give the same raw tree.
Where one raises a `ParseError`, the other must raise one with the same
message, line and column.
"""

import random
import sys
from collections import namedtuple
from fractions import Fraction
from typing import Callable, Optional

import pytest
from hypothesis import given, settings, strategies as st

from conftest import TermFuzzer
from holebox.expr import ATOMIC_SORTS, fn, set_of
from holebox.syntax import (
    MAX_DEPTH, MAX_NESTING, MAX_NUMERAL_DIGITS, ParseError, RAppl, RAscribe,
    RBin, RBinderRaw, RBool, RMeta, RName, RNeg, RNot, RNum, RSetB, RSetLit,
    RSum, _lex, _P, _position, print_term,
)

# -- the reference lexer --------------------------------------------------------

Tok = namedtuple("Tok", "kind text line col")

_ALIASES = {
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


def ref_tokenize(src: str) -> list[Tok]:
    for u, a in _ALIASES.items():
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
        if c.isdecimal():
            j = i
            while j < n and src[j].isdecimal():
                j += 1
            if j < n and src[j] == "." and j + 1 < n \
                    and src[j + 1].isdecimal():
                j += 1
                while j < n and src[j].isdecimal():
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
            while src[j - 1] == ".":
                j -= 1
            text = src[i:j]
            kind = "kw" if text in _KEYWORDS else "ident"
            toks.append(Tok(kind, text, line, col))
            col += j - i
            i = j
            continue
        if c == "?" and i + 1 < n \
                and (src[i + 1].isalpha() or src[i + 1] == "_"):
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


# -- the reference parser -------------------------------------------------------


class RefParser:
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

    def nested(self, parse: Callable):
        if self.depth >= MAX_NESTING:
            raise self.err(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        out = parse()
        self.depth -= 1
        return out

    def bounded(self, raw):
        if len(self.toks) > MAX_DEPTH and ref_levels(raw) > MAX_DEPTH:
            raise ParseError(f"term deeper than {MAX_DEPTH} levels")
        return raw

    def sort(self):
        s = self.sort_atom()
        if self.at_sym("->"):
            self.next()
            return fn(s, self.nested(self.sort))
        return s

    def sort_atom(self):
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

    def term(self):
        if self.at_kw("forall", "exists"):
            kind = self.next().text
            groups = []
            while self.at_sym("("):
                save = self.i
                self.next()
                names = []
                while self.peek().kind == "ident":
                    names.append(self.next().text)
                if not names or not self.at_sym(":"):
                    self.i = save
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
            coll = self.add_expr()
            self.expect("sym", ",")
            return RSum(name, coll, self.nested(self.term))
        return self.iff_expr()

    def iff_expr(self):
        lhs = self.imp_expr()
        if self.at_sym("<->"):
            self.next()
            return RBin("iff", lhs, self.nested(self.iff_expr))
        return lhs

    def imp_expr(self):
        lhs = self.or_expr()
        if self.at_sym("->"):
            self.next()
            return RBin("imp", lhs, self.nested(self.imp_expr))
        return lhs

    def or_expr(self):
        lhs = self.and_expr()
        if self.at_sym("\\/"):
            self.next()
            return RBin("or", lhs, self.nested(self.or_expr))
        return lhs

    def and_expr(self):
        lhs = self.not_expr()
        if self.at_sym("/\\"):
            self.next()
            return RBin("and", lhs, self.nested(self.and_expr))
        return lhs

    def not_expr(self):
        if self.at_kw("not"):
            self.next()
            return RNot(self.nested(self.not_expr))
        if self.at_kw("forall", "exists"):
            return self.nested(self.term)
        return self.cmp_expr()

    _CMP = {"=": "eq", "!=": "ne", "<": "lt", "<=": "le",
            ">": "gt", ">=": "ge"}

    def cmp_expr(self):
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

    def add_expr(self):
        lhs = self.mul_expr()
        while self.at_sym("+", "-"):
            op = "add" if self.next().text == "+" else "sub"
            lhs = RBin(op, lhs, self.mul_expr())
        return lhs

    def mul_expr(self):
        lhs = self.unary()
        while self.at_sym("*", "/", "%"):
            op = {"*": "mul", "/": "div", "%": "mod"}[self.next().text]
            lhs = RBin(op, lhs, self.unary())
        return lhs

    def unary(self):
        if self.at_sym("-"):
            self.next()
            return RNeg(self.nested(self.unary))
        if self.at_kw("sum", "fun"):
            return self.nested(self.term)
        return self.pow_expr()

    def pow_expr(self):
        base = self.app_expr()
        if self.at_sym("^"):
            self.next()
            return RBin("pow", base, self.nested(self.unary))
        return base

    def app_expr(self):
        head = self.atom()
        args = []
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

    def atom(self):
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


def ref_levels(raw) -> int:
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


# -- the three entry points, run by both --------------------------------------


def _term(p):
    """What `parse_term` reads before it elaborates."""
    if p.at_eof():
        raise ParseError("empty input")
    raw = p.term()
    if not p.at_eof():
        raise p.err("trailing input")
    return p.bounded(raw)


def _citation(p):
    """What `structural._parse_citation` reads."""
    raw = p.bounded(p.app_expr())
    return raw, p.at_eof()


def _sort(p):
    """What `_parse_sort_text` reads."""
    return p.sort(), p.at_eof()


class _Ref(RefParser):
    def __init__(self, text):
        super().__init__(ref_tokenize(text))

    def at_eof(self):
        return self.peek().kind == "eof"


class _New(_P):
    def at_eof(self):
        return self.at("eof")


def _outcome(make, entry, text):
    try:
        return "ok", entry(make(text))
    except ParseError as e:
        return "error", str(e), e.line, e.col


def _lexed(text):
    """Each token's key, text, line and column by `_lex` and `_position`,
    or the error."""
    try:
        keys, texts = _lex(text)
    except ParseError as e:
        return "error", str(e), e.line, e.col
    return [(k, t, *_position(text, i))
            for i, (k, t) in enumerate(zip(keys, texts))]


def _referenced(text):
    """The same of the reference's tokens, each keyed as `_lex` keys it."""
    try:
        toks = ref_tokenize(text)
    except ParseError as e:
        return "error", str(e), e.line, e.col
    return [(t.text if t.kind in ("sym", "kw") else t.kind, t.text,
             t.line, t.col) for t in toks]


def _same(text):
    assert _lexed(text) == _referenced(text), text
    for entry in (_term, _citation, _sort):
        assert _outcome(_New, entry, text) == _outcome(_Ref, entry, text), \
            (entry.__name__, text)


# -- properties -----------------------------------------------------------------

VOCAB = (_SYMBOLS + sorted(_KEYWORDS)
         + ["x", "y", "f", "S", "g", "a.b", "x'", "_v", "Int", "Nat", "Rat",
            "Real", "Prop", "Set", "0", "1", "12", "3.64", "7.", "?w", "?_k",
            "?", "--", "\n", "∀", "≤", "∧", "²", "٣", "½", "$", ".", "?²"])

SEPARATORS = st.sampled_from([" ", " ", " ", "", "\n", "\t"])


@st.composite
def token_texts(draw):
    words = draw(st.lists(st.tuples(st.sampled_from(VOCAB), SEPARATORS),
                          max_size=40))
    return "".join(w + sep for w, sep in words)


@settings(max_examples=600, deadline=None)
@given(token_texts())
def test_random_token_strings_parse_alike(text):
    _same(text)


BINARY = ["<->", "->", "\\/", "/\\", "=", "!=", "<", "<=", ">", ">=", "in",
          "dvd", "+", "-", "*", "/", "%", "^"]
LEAVES = ["x", "y", "1", "2.5", "?w", "True", "S", "f x", "g x y"]
PREFIXES = ["not ", "- ", "forall (v : Int), ", "exists (u v : Nat), ",
            "fun (v : Int) => ", "sum v in S, ", "sum v in x - S, "]


@st.composite
def operator_texts(draw, depth=3):
    """Operands joined by operators of every level, some operands under
    prefixes or brackets; mostly well-formed, so the precedence and
    associativity of each pair of operators gets exercised."""
    parts = []
    for k in range(draw(st.integers(1, 4))):
        if k:
            parts.append(draw(st.sampled_from(BINARY)))
        kind = draw(st.integers(0, 6 if depth else 1))
        if kind <= 1:
            operand = draw(st.sampled_from(LEAVES))
        elif kind == 2:
            operand = draw(st.sampled_from(PREFIXES)) \
                + draw(operator_texts(depth - 1))
        elif kind == 3:
            operand = f"({draw(operator_texts(depth - 1))})"
        elif kind == 4:
            operand = f"({draw(operator_texts(depth - 1))} : Int)"
        elif kind == 5:
            operand = "{" + draw(operator_texts(depth - 1)) + ", x}"
        else:
            operand = "{v : Int | " + draw(operator_texts(depth - 1)) + "}"
        parts.append(operand)
    return " ".join(parts)


# where a binder body or a comparison stops early, the operators after
# it attach at the level of the form that holds it
QUIRKS = [
    "x = y = x", "x < y in S", "not x = y = x", "not x + y",
    "True /\\ forall (v : Int), x = y = x",
    "True -> not forall (v : Int), x = y = x -> True",
    "x + sum v in S, v = y = x", "x * fun (v : Int) => v = y + x",
    "- sum v in S, v ^ 2 = 3 = 4", "- x ^ y ^ - x", "x ^ - y * x",
    "sum v in S + S, v", "sum v in x - y * 2, v", "sum v in S = S, v",
    "f x ^ 2 y", "forall (v : Int) (x), x", "forall (v w : Int) (u : Nat),"
    " True", "{x : Int | x = x = x}", "{x, y = x}", "(x : Int) : Int",
    "exists (v : Int), v = x <-> True", "not not x = y /\\ True",
]


@pytest.mark.parametrize("text", QUIRKS)
def test_quirks_parse_alike(text):
    _same(text)
    words = text.split(" ")
    for k in range(len(words)):
        _same(" ".join(words[:k] + words[k + 1:]))


@settings(max_examples=300, deadline=None)
@given(operator_texts(), st.data())
def test_operator_chains_parse_alike(text, data):
    _same(text)
    # and with one token dropped, for the error paths
    words = text.split(" ")
    k = data.draw(st.integers(0, len(words) - 1))
    _same(" ".join(words[:k] + words[k + 1:]))


CHARS = "xy1 2.(){}<->/\\=!?_':,|^*%+-\n\t" + "²٣½∀≤∧ \x1c$"


@settings(max_examples=600, deadline=None)
@given(st.text(alphabet=CHARS, max_size=30))
def test_random_characters_lex_alike(text):
    _same(text)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 4))
def test_printed_terms_parse_alike(seed, depth):
    term = TermFuzzer(random.Random(seed)).term(depth)
    text = print_term(term)
    _same(text)
    assert _outcome(_New, _term, text)[0] == "ok"


def test_raw_trees_print_their_fields():
    # what `_same` shows when the two parsers disagree
    raw = _New("x + -1").term()
    assert repr(raw) == "RBin('add', RName('x'), RNeg(RNum(Fraction(1, 1))))"


def test_bundled_texts_parse_alike():
    from importlib import resources
    import json
    root = resources.files("holebox.data")
    texts = [ln for ln in (root / "lemmas.txt").read_text().splitlines()]
    for line in (root / "corpus.jsonl").read_text().splitlines():
        entry = json.loads(line)
        prob = entry["formalProblem"]
        texts += [entry["formalAnswer"], *prob["conclusions"]]
        texts += [h for _, h in prob["hypotheses"]]
        texts += [s for _, s in prob["vars"]] + [prob["queriable"][1]]
    for text in texts:
        _same(text)


# nesting shapes, each `n` levels deep
NESTING = {
    "parens": lambda n: "(" * n + "x" + ")" * n,
    "not": lambda n: "not " * n + "True",
    "neg": lambda n: "- " * n + "x",
    "imp": lambda n: " -> ".join(["True"] * (n + 1)),
    "iff": lambda n: " <-> ".join(["True"] * (n + 1)),
    "and": lambda n: " /\\ ".join(["True"] * (n + 1)),
    "or": lambda n: " \\/ ".join(["True"] * (n + 1)),
    "pow": lambda n: " ^ ".join(["x"] * (n + 1)),
    "pow-neg": lambda n: "x ^ - " * (n // 2) + "x",
    "forall": lambda n: "forall (v : Int), " * n + "True",
    "and-forall": lambda n: "True /\\ forall (v : Int), " * (n // 3)
    + "True",
    "fun": lambda n: "fun (v : Int) => " * n + "x",
    "sum": lambda n: "sum v in S, " * n + "x",
    "add-sum": lambda n: "x + sum v in S, " * (n // 2) + "x",
    "setlit": lambda n: "{" * n + "x" + "}" * n,
    "setb": lambda n: "{v : Int | " * n + "True" + "}" * n,
    "ascribe": lambda n: "(" * n + "x" + " : Int)" * n,
    "sort-fn": lambda n: "(x : " + " -> ".join(["Int"] * (n + 1)) + ")",
    "sort-set": lambda n: "(x : " + "Set (" * (n // 2) + "Int"
    + ")" * (n // 2) + ")",
}


@pytest.mark.parametrize("shape", sorted(NESTING))
def test_nesting_limit_is_where_it_was(shape):
    for n in range(MAX_NESTING - 3, MAX_NESTING + 4):
        _same(NESTING[shape](n))


def _frames() -> int:
    f, n = sys._getframe(), 0
    while f is not None:
        n += 1
        f = f.f_back
    return n


# the parser's own frames per nesting level, at most (measured: 50
# nested parentheses, braces or ascriptions take 258 frames)
FRAMES_PER_LEVEL = 5


@pytest.mark.parametrize("shape", sorted(NESTING))
def test_nesting_limit_fits_a_small_stack(shape):
    deepest = max(n for n in range(1, MAX_NESTING + 2)
                  if _outcome(_New, _term, NESTING[shape](n))[0] == "ok")
    text = NESTING[shape](deepest)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + FRAMES_PER_LEVEL * MAX_NESTING + 20)
    try:
        _term(_New(text))
    finally:
        sys.setrecursionlimit(limit)
