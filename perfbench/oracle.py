"""Oracles that share no code with the engine.

* `LinearProblem`: the dfps-oracle problem shape, kept as plain data, with
  its solution set found by brute force over the bounded box.
* `eval_prop`: a straight-line evaluator for the answer terms the engine
  hands back (literals, one variable, + - *, comparisons, finite-set
  membership and the connectives).  It reads the term's fields only; any
  other construct is an oracle error, never a guess.
* `Poly`: sparse polynomials with `Fraction` coefficients, printed in
  expanded or factored surface syntax and evaluated exactly.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

BOUND = 8
RELS = ("<=", "<", "=", ">=")


class OracleError(Exception):
    """The oracle met a construct it does not evaluate."""


# ---------------------------------------------------------------------------
# dfps-oracle problems


@dataclass(frozen=True)
class LinearAtom:
    coef: int
    rel: str
    const: int

    def holds(self, x: int) -> bool:
        lhs = self.coef * x
        return {"<=": lhs <= self.const, "<": lhs < self.const,
                "=": lhs == self.const, ">=": lhs >= self.const}[self.rel]

    def text(self) -> str:
        lhs = "x" if self.coef == 1 else f"{self.coef} * x"
        return f"{lhs} {self.rel} {self.const}"


COEFS = (1, 1, 2, 3)
CONSTS = range(-10, 11)


@dataclass(frozen=True)
class LinearProblem:
    """psi is one atom, or two atoms joined by /\\ or \\/, over x in
    [-BOUND, BOUND]."""
    shape: str                      # atom | and | or
    atoms: tuple[LinearAtom, ...]

    @staticmethod
    def draw(rng: random.Random, shape: str) -> "LinearProblem":
        def atom() -> LinearAtom:
            return LinearAtom(rng.choice(COEFS), rng.choice(RELS),
                              rng.choice(CONSTS))
        n = 1 if shape == "atom" else 2
        return LinearProblem(shape, tuple(atom() for _ in range(n)))

    @staticmethod
    def draw_with(rng: random.Random, shape: str, u: float
                  ) -> "LinearProblem":
        """A problem of the given shape whose number of solutions is the
        u-quantile of that number over all draws, otherwise distributed
        as `draw` gives it (rejection sampling).  With u spread evenly
        over [0, 1), a stretch of ops gets each solution count in its
        natural share, and the engine's cost per op depends mostly on
        that count."""
        cdf = _solution_count_cdf(shape)
        target = next(n for n, c in enumerate(cdf) if u < c)
        while True:
            prob = LinearProblem.draw(rng, shape)
            if len(prob.solutions()) == target:
                return prob

    def holds(self, x: int) -> bool:
        if self.shape == "atom":
            return self.atoms[0].holds(x)
        a, b = (t.holds(x) for t in self.atoms)
        return (a and b) if self.shape == "and" else (a or b)

    def solutions(self) -> list[int]:
        return [x for x in range(-BOUND, BOUND + 1) if self.holds(x)]

    def psi_text(self) -> str:
        if self.shape == "atom":
            return self.atoms[0].text()
        op = "/\\" if self.shape == "and" else "\\/"
        return f"({self.atoms[0].text()}) {op} ({self.atoms[1].text()})"

    def document(self) -> dict:
        return {"format_version": "1", "framework": "dfps",
                "vars": [["x", "Int"]], "queriable": ["A", "Prop"],
                "hypotheses": [["hlb", f"-{BOUND} <= x"],
                               ["hub", f"x <= {BOUND}"]],
                "conclusions": [f"({self.psi_text()}) <-> A"]}

    def answer_text(self) -> str:
        sols = self.solutions()
        if not sols:
            return "False"
        return "x in ({" + ", ".join(map(str, sols)) + "} : Set Int)"


_CDF: dict[str, list[float]] = {}


def _solution_count_cdf(shape: str) -> list[float]:
    """P(number of solutions <= n) for n = 0..2*BOUND+1, over all draws."""
    if shape not in _CDF:
        masks = Counter()
        for c in COEFS:
            for r in RELS:
                for k in CONSTS:
                    a = LinearAtom(c, r, k)
                    masks[sum(a.holds(x) << (x + BOUND)
                              for x in range(-BOUND, BOUND + 1))] += 1
        counts = Counter()
        if shape == "atom":
            for m, w in masks.items():
                counts[bin(m).count("1")] += w
        else:
            for m1, w1 in masks.items():
                for m2, w2 in masks.items():
                    m = m1 & m2 if shape == "and" else m1 | m2
                    counts[bin(m).count("1")] += w1 * w2
        total = sum(counts.values())
        acc, cdf = 0, []
        for n in range(2 * BOUND + 2):
            acc += counts[n]
            cdf.append(acc / total)
        cdf[-1] = 1.0
        _CDF[shape] = cdf
    return _CDF[shape]


def _num(t, env: dict[str, Fraction]) -> Fraction:
    kind = type(t).__name__
    if kind == "Lit":
        return Fraction(t.val)
    if kind == "Var":
        if t.name not in env:
            raise OracleError(f"unbound variable {t.name}")
        return env[t.name]
    if kind == "App" and t.op in ("add", "sub", "mul", "neg"):
        a = [_num(x, env) for x in t.args]
        if t.op == "neg":
            return -a[0]
        return {"add": a[0] + a[1], "sub": a[0] - a[1],
                "mul": a[0] * a[1]}[t.op]
    raise OracleError(f"cannot evaluate {kind} {getattr(t, 'op', '')}")


def _members(s, env: dict[str, Fraction]) -> set[Fraction]:
    if type(s).__name__ == "App" and s.op == "setlit":
        return {_num(e, env) for e in s.args}
    raise OracleError(f"cannot enumerate set {type(s).__name__}")


def eval_prop(t, env: dict[str, Fraction]) -> bool:
    kind = type(t).__name__
    if kind == "Conn":
        if t.op == "true":
            return True
        if t.op == "false":
            return False
        a = t.args
        if t.op == "not":
            return not eval_prop(a[0], env)
        if t.op == "and":
            return eval_prop(a[0], env) and eval_prop(a[1], env)
        if t.op == "or":
            return eval_prop(a[0], env) or eval_prop(a[1], env)
        if t.op == "imp":
            return (not eval_prop(a[0], env)) or eval_prop(a[1], env)
        if t.op == "iff":
            return eval_prop(a[0], env) == eval_prop(a[1], env)
    if kind == "Atom":
        if t.rel == "mem":
            return _num(t.args[0], env) in _members(t.args[1], env)
        if t.rel in ("eq", "ne", "lt", "le"):
            a, b = (_num(x, env) for x in t.args)
            return {"eq": a == b, "ne": a != b, "lt": a < b,
                    "le": a <= b}[t.rel]
    raise OracleError(f"cannot evaluate {kind} {getattr(t, 'op', '')}"
                      f"{getattr(t, 'rel', '')}")


def truth_table(t) -> tuple[bool, ...]:
    """The proposition's truth at every x in the box."""
    return tuple(eval_prop(t, {"x": Fraction(v)})
                 for v in range(-BOUND, BOUND + 1))


# ---------------------------------------------------------------------------
# Polynomials for rpe-pairs


@dataclass(frozen=True)
class Poly:
    """coefficient by exponent tuple, one exponent per variable"""
    terms: tuple[tuple[tuple[int, ...], Fraction], ...]

    @staticmethod
    def of(d: dict) -> "Poly":
        return Poly(tuple(sorted((e, c) for e, c in d.items() if c != 0)))

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly.of(out)

    def shifted(self, delta: Fraction) -> "Poly":
        nvars = len(self.terms[0][0]) if self.terms else 0
        out = dict(self.terms)
        zero = (0,) * nvars
        out[zero] = out.get(zero, 0) + delta
        return Poly.of(out)

    def at(self, env: tuple[Fraction, ...]) -> Fraction:
        total = Fraction(0)
        for exps, c in self.terms:
            v = c
            for x, e in zip(env, exps):
                v *= x ** e
            total += v
        return total

    def text(self, names: tuple[str, ...]) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.terms:
            factors = [_coef_text(c)] + [
                n if e == 1 else f"{n}^{e}"
                for n, e in zip(names, exps) if e]
            parts.append(" * ".join(factors))
        return " + ".join(parts)


def _coef_text(c: Fraction) -> str:
    body = str(c.numerator) if c.denominator == 1 \
        else f"{c.numerator}/{c.denominator}"
    return f"({body})" if c < 0 or c.denominator != 1 else body


def linear_factor(rng: random.Random, nvars: int) -> Poly:
    """a*v + b for one variable v, with small integer a != 0 and b."""
    i = rng.randrange(nvars)
    e = tuple(1 if j == i else 0 for j in range(nvars))
    return Poly.of({e: Fraction(rng.choice([1, 2, 3, -1])),
                    (0,) * nvars: Fraction(rng.randint(-4, 4))})


def factored_text(factors: list[Poly], names: tuple[str, ...]) -> str:
    return " * ".join(f"({f.text(names)})" for f in factors)


def random_point(rng: random.Random, nvars: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 9))
                 for _ in range(nvars))
