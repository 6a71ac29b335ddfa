import os
import random

import pytest

from holebox.expr import (
    INT, LocalDecl, NAT, RAT, REAL, BVar, Binder, Sort, Telescope,
    Term, Var, _rebuild, children, fn, mk_app, mk_atom, mk_binder, mk_conn,
    mk_lit, mk_var, set_of,
)

FUZZ_SEED = int(os.environ.get("HOLEBOX_SEED", "20250810"))


def abstract_var(t: Term, name: str, depth: int = 0) -> Term:
    """Turn free occurrences of Var(name) into BVar(depth)."""
    if isinstance(t, Var) and t.name == name:
        return BVar(t.sort, depth)
    if isinstance(t, Binder):
        return _rebuild(t, (abstract_var(t.body, name, depth + 1),))
    kids = children(t)
    if not kids:
        return t
    return _rebuild(t, tuple(abstract_var(k, name, depth) for k in kids))


def bind(kind: str, name: str, vsort: Sort, body_open: Term) -> Binder:
    """Build a binder from a body written with a free Var(name)."""
    return mk_binder(kind, name, vsort, abstract_var(body_open, name))


@pytest.fixture
def rng():
    return random.Random(FUZZ_SEED)


STD_TELE = Telescope((
    LocalDecl("x", INT),
    LocalDecl("y", INT),
    LocalDecl("q", RAT),
    LocalDecl("r", REAL),
    LocalDecl("k", NAT),
    LocalDecl("S", set_of(INT)),
    LocalDecl("f", fn(INT, INT)),
))


@pytest.fixture
def tele():
    return STD_TELE


class TermFuzzer:
    """Random well-sorted terms over the standard telescope."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def numeric(self, sort, depth: int) -> Term:
        r = self.rng
        if depth <= 0 or r.random() < 0.35:
            if sort == INT and r.random() < 0.5:
                return mk_var(r.choice(["x", "y"]), INT)
            if sort == RAT and r.random() < 0.4:
                return mk_var("q", RAT)
            if sort == REAL and r.random() < 0.4:
                return mk_var("r", REAL)
            if sort == NAT and r.random() < 0.4:
                return mk_var("k", NAT)
            lo = 0 if sort == NAT else -9
            val = r.randint(lo, 9)
            if sort == RAT and r.random() < 0.3:
                val = val + r.randint(1, 4) / 5  # decimal-ish rational
                from fractions import Fraction
                return mk_lit(Fraction(val).limit_denominator(100), RAT)
            return mk_lit(val, sort)
        op = r.choice(["add", "sub", "mul", "neg", "abs", "pow"])
        if op == "neg" and sort == NAT:
            op = "add"
        if op == "pow":
            exp_sort = REAL if sort == REAL else NAT
            return mk_app("pow", (self.numeric(sort, depth - 1),
                                  mk_lit(r.randint(0, 3), exp_sort)))
        if op in ("neg", "abs"):
            return mk_app(op, (self.numeric(sort, depth - 1),))
        return mk_app(op, (self.numeric(sort, depth - 1),
                           self.numeric(sort, depth - 1)))

    def atom(self, depth: int) -> Term:
        from holebox.expr import free_vars
        r = self.rng
        sort = r.choice([INT, INT, NAT, RAT, REAL])
        rel = r.choice(["eq", "ne", "lt", "le"])
        a = self.numeric(sort, depth)
        b = self.numeric(sort, depth)
        if sort != INT and not (free_vars(a) | free_vars(b)):
            # a fully closed atom has no sort anchor when reparsed
            sort = INT
            a = self.numeric(sort, depth)
            b = self.numeric(sort, depth)
        return mk_atom(rel, (a, b))

    def prop(self, depth: int) -> Term:
        r = self.rng
        if depth <= 0 or r.random() < 0.4:
            return self.atom(depth)
        op = r.choice(["and", "or", "imp", "iff", "not", "forall", "exists"])
        if op == "not":
            return mk_conn("not", (self.prop(depth - 1),))
        if op in ("forall", "exists"):
            name = f"v{r.randint(0, 2)}"
            body = mk_atom("le", (mk_var(name, INT),
                                  self.numeric(INT, depth - 1)))
            return bind(op, name, INT, body)
        return mk_conn(op, (self.prop(depth - 1), self.prop(depth - 1)))

    def term(self, depth: int = 3) -> Term:
        if self.rng.random() < 0.5:
            return self.prop(depth)
        return self.numeric(self.rng.choice([INT, NAT, RAT, REAL]), depth)


@pytest.fixture
def fuzzer(rng):
    return TermFuzzer(rng)


def load_corpus_entries():
    from importlib import resources
    from holebox.bench import load_benchmark
    path = resources.files("holebox.data") / "corpus.jsonl"
    return load_benchmark(str(path))


@pytest.fixture(scope="session")
def corpus():
    return load_corpus_entries()


def linear_rows(names, lins):
    """`(lin, rel)` pairs, each lin a map from `names` and linarith's
    `CONST` to numbers, as the integer rows of one system over the
    columns `(CONST, *names)`, scaled as linear_arith scales them."""
    from holebox.tactics.linarith import CONST, Atomizer, _mk_con
    az = Atomizer(RAT, {CONST: 0, **{n: i for i, n in enumerate(names, 1)}})
    return [az.row(_mk_con(lin, rel)) for lin, rel in lins]


# ---------------------------------------------------------------------------
# Independent evaluation oracle (no engine imports beyond node types)


def brute_eval(t):
    """Straight-line recursive evaluator, independent of the engine's
    normalization, budgets, and decision procedures."""
    from fractions import Fraction
    from holebox.expr import App, Atom, Binder, Conn, Lit, NAT, RAT

    if isinstance(t, Lit):
        return t.val
    if isinstance(t, App):
        if t.op == "setlit":
            return frozenset(brute_eval(x) for x in t.args)
        a = [brute_eval(x) for x in t.args]
        op = t.op
        if op == "add":
            return a[0] + a[1]
        if op == "sub":
            r = a[0] - a[1]
            return max(r, 0) if t.sort == NAT else r
        if op == "mul":
            return a[0] * a[1]
        if op == "neg":
            return -a[0]
        if op == "abs":
            return abs(a[0])
        if op == "pow":
            return a[0] ** int(a[1])
        if op == "div":
            if t.sort == RAT:
                return a[0] / a[1] if a[1] else Fraction(0)
            return Fraction(a[0].numerator // a[1].numerator) \
                if a[1] else Fraction(0)
        if op == "mod":
            return Fraction(a[0].numerator % a[1].numerator) \
                if a[1] else a[0]
        raise AssertionError(op)
    if isinstance(t, Atom):
        a = [brute_eval(x) for x in t.args]
        rel = t.rel
        if rel == "eq":
            return a[0] == a[1]
        if rel == "ne":
            return a[0] != a[1]
        if rel == "lt":
            return a[0] < a[1]
        if rel == "le":
            return a[0] <= a[1]
        if rel == "mem":
            return a[0] in a[1]
        if rel == "dvd":
            return a[1] == 0 if a[0] == 0 else a[1] % a[0] == 0
        if rel == "even":
            return int(a[0]) % 2 == 0
        if rel == "odd":
            return int(a[0]) % 2 == 1
        raise AssertionError(rel)
    if isinstance(t, Conn):
        op = t.op
        if op == "true":
            return True
        if op == "false":
            return False
        a = [brute_eval(x) for x in t.args]
        if op == "not":
            return not a[0]
        if op == "and":
            return a[0] and a[1]
        if op == "or":
            return a[0] or a[1]
        if op == "imp":
            return (not a[0]) or a[1]
        if op == "iff":
            return a[0] == a[1]
    raise AssertionError(t)
