"""Expression core: sorts, terms, substitution, and metavariable plumbing.

Terms live in a many-sorted first-order language with exact rational
literals (Nat/Int/Rat), opaque symbolic reals, sets with set-builder
notation, and binders.  Bound variables use de Bruijn indices internally
(locally nameless), so alpha-equivalence is structural equality modulo
the display names kept on binders for printing.

All values are immutable; construction goes through the `mk_*` smart
constructors, which enforce well-sortedness.  The one exception is a
term's three memo slots: `_nf_memo` and `_fold_memo`, which `norm` fills
with the node's normal forms, and `_eval_memo`, which `tactics.decide`
fills with a closed node's value and the steps evaluating it charged.
Each starts empty and, once written, never changes, because its value is
a pure function of the node; two threads that race write the same value.

Sorts and terms are hash-consed: every one is built through one weak
table, so two equal terms are the same object and `==` (`syntactic_eq`,
sensitive to binder display names) is an identity test.  `alpha_eq`,
which ignores those names, stays a separate check.

Every term node carries four facts, computed once when it is built from
its children's cached values (as Lean 4's `Expr.Data` does): its hash,
its loose-bvar bound, a has-meta flag and its size in nodes.  So hashing
a term, asking whether it has loose bound variables or metavariables,
and skipping a closed or meta-free subterm in `shift`, `instantiate_bvar`,
`_inst` and `metavars_of` cost one attribute read, never a walk; `size`
lets `alpha_eq` and occurrence search skip terms that cannot match.
`_rebuild` returns the node itself when every child is the same object,
so a traversal that changes nothing allocates nothing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional
from weakref import WeakValueDictionary


class ExprError(Exception):
    """Base class for expression-level failures."""


class SortError(ExprError):
    """An operator was applied to arguments of the wrong sort."""


class SubstitutionSortError(SortError):
    """Replacement term does not match the substituted variable's sort."""


class OccursCheckError(ExprError):
    """A metavariable assignment would be cyclic."""


# ---------------------------------------------------------------------------
# The intern table
#
# Sorts and terms are hash-consed (Filliâtre & Conchon 2006): each class's
# `__new__` looks its key up in `_INTERNED` and returns the live object on
# a hit, so two equal sorts or terms are one object and `==` is identity.
# The table holds its objects weakly, so one nobody references leaves it.

_INTERNED: "WeakValueDictionary[tuple, Sort | Term]" = WeakValueDictionary()
_INTERN_LOCK = threading.Lock()
# The table's own dict of weak references, read directly: its `get`
# costs a Python call and a caught KeyError on every miss, and a term
# that lives for one tactic call misses each time it is built again.
_REFS = _INTERNED.data


def _lookup(key: tuple):
    """The live object interned under `key`, else None."""
    ref = _REFS.get(key)
    return None if ref is None else ref()


def _intern(key: tuple, obj):
    """Store an object just built for `key`, unless another thread stored
    one first; return the stored one."""
    with _INTERN_LOCK:
        old = _lookup(key)
        if old is not None:
            return old
        _INTERNED[key] = obj
        return obj


# ---------------------------------------------------------------------------
# Sorts


class Sort:
    """A sort: an atomic kind, or `Set`/`Fn` over argument sorts.  Interned,
    and never assigned to after it is built, so its cached hash stays true."""
    __slots__ = ("kind", "args", "_hash", "__weakref__")

    def __new__(cls, kind: str, args: tuple["Sort", ...] = ()):
        key = (Sort, kind, args)
        sort = _lookup(key)
        if sort is None:
            sort = object.__new__(cls)
            sort.kind = kind
            sort.args = args
            sort._hash = hash((kind, args))
            sort = _intern(key, sort)
        return sort

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Sort(kind={self.kind!r}, args={self.args!r})"

    def __str__(self) -> str:
        if self.kind == "Set":
            return f"Set {_sort_atom_str(self.args[0])}"
        if self.kind == "Fn":
            return f"{_sort_atom_str(self.args[0])} -> {self.args[1]}"
        return self.kind


def _sort_atom_str(s: Sort) -> str:
    return f"({s})" if s.args else str(s)


NAT = Sort("Nat")
INT = Sort("Int")
RAT = Sort("Rat")
REAL = Sort("Real")
BOOL = Sort("Bool")
PROP = Sort("Prop")

ATOMIC_SORTS = {"Nat": NAT, "Int": INT, "Rat": RAT, "Real": REAL,
                "Bool": BOOL, "Prop": PROP}

NUMERIC = (NAT, INT, RAT, REAL)
EXACT_NUMERIC = (NAT, INT, RAT)   # literal arithmetic folds here, never on Real


def set_of(elem: Sort) -> Sort:
    return Sort("Set", (elem,))


def fn(dom: Sort, cod: Sort) -> Sort:
    return Sort("Fn", (dom, cod))


# ---------------------------------------------------------------------------
# Terms
#
# A term's intern key is the tuple its hash is computed from,
# `(cls, sort, <fields>)` with the children as objects; binder display
# names are part of it.
#
# Each node computes four facts when it is built, from its children's
# cached values: its hash, `bvar_bound` (the largest loose de Bruijn index
# plus one, 0 when the node is closed), `has_meta` (a metavariable occurs
# in it) and `size` (its number of nodes).  Nodes are never assigned to
# after they are built, so the facts stay true.
#
# The exception is the three memo slots, `_nf_memo` (for
# `norm.normalize`), `_fold_memo` (for `norm.fold_literals`) and
# `_eval_memo` (for `tactics.decide.eval_term`).  They start as None, and
# each has one writer (`norm` for the first two, `tactics.decide` for the
# third), which writes one value that depends on the node alone; the
# memo lives exactly as long as its node.


class Term:
    __slots__ = ("sort", "_hash", "bvar_bound", "has_meta", "size",
                 "_nf_memo", "_fold_memo", "_eval_memo", "__weakref__")
    _FIELDS: tuple[str, ...] = ("sort",)
    sort: Sort
    bvar_bound: int
    has_meta: bool
    size: int

    # `==` is object identity, inherited from `object`: terms are interned.

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._FIELDS)
        return f"{type(self).__name__}({fields})"


class _Leaf(Term):
    """A node with one field besides its sort: Var, BVar, Meta and Lit."""
    __slots__ = ()

    def __new__(cls, sort: Sort, value, key: Optional[tuple] = None):
        """The node for `value`, interned under `key`, by default
        `(cls, sort, value)`."""
        if key is None:
            key = (cls, sort, value)
        node = _lookup(key)
        if node is None:
            node = object.__new__(cls)
            node.sort = sort
            setattr(node, cls._FIELDS[1], value)
            node._hash = hash(key)
            node.bvar_bound = value + 1 if cls is BVar else 0
            node.has_meta = cls is Meta
            node.size = 1
            node._nf_memo = node._fold_memo = node._eval_memo = None
            node = _intern(key, node)
        return node


class Var(_Leaf):
    __slots__ = ("name",)
    _FIELDS = ("sort", "name")
    name: str


class BVar(_Leaf):
    __slots__ = ("idx",)
    _FIELDS = ("sort", "idx")
    idx: int


class Meta(_Leaf):
    __slots__ = ("mid",)
    _FIELDS = ("sort", "mid")
    mid: str


class Lit(_Leaf):
    __slots__ = ("val",)
    _FIELDS = ("sort", "val")
    val: Fraction

    def __new__(cls, sort: Sort, val):
        if type(val) is not Fraction:
            val = Fraction(val)
        # An integral value is keyed by its int: equal to the Fraction and
        # hashed alike, so the key matches and the node's hash is the same,
        # but hashed and compared in C, not in Fraction's Python methods.
        n = val.numerator if val.denominator == 1 else val
        return _Leaf.__new__(cls, sort, val, (cls, sort, n))


class _Node(Term):
    """A node with an argument tuple: App, Conn and Atom."""
    __slots__ = ("args",)
    args: tuple[Term, ...]

    def __new__(cls, sort: Sort, head: str, args: tuple[Term, ...]):
        key = (cls, sort, head, args)
        node = _lookup(key)
        if node is None:
            node = object.__new__(cls)
            node.sort = sort
            setattr(node, cls._FIELDS[1], head)
            node.args = args
            node._hash = hash(key)
            bound = 0
            meta = False
            size = 1
            for a in args:
                if a.bvar_bound > bound:
                    bound = a.bvar_bound
                meta = meta or a.has_meta
                size += a.size
            node.bvar_bound = bound
            node.has_meta = meta
            node.size = size
            node._nf_memo = node._fold_memo = node._eval_memo = None
            node = _intern(key, node)
        return node


class App(_Node):
    __slots__ = ("op",)
    _FIELDS = ("sort", "op", "args")
    op: str


class Conn(_Node):
    __slots__ = ("op",)
    _FIELDS = ("sort", "op", "args")
    op: str            # and | or | not | imp | iff | true | false


class Atom(_Node):
    __slots__ = ("rel",)
    _FIELDS = ("sort", "rel", "args")
    rel: str           # eq | ne | lt | le | mem | dvd | even | odd | prime


class Binder(Term):
    __slots__ = ("kind", "var", "vsort", "body")
    _FIELDS = ("sort", "kind", "var", "vsort", "body")
    kind: str          # forall | exists | lam | setb
    var: str           # display name only
    vsort: Sort
    body: Term

    def __new__(cls, sort: Sort, kind: str, var: str, vsort: Sort,
                body: Term):
        key = (Binder, sort, kind, var, vsort, body)
        node = _lookup(key)
        if node is None:
            node = object.__new__(cls)
            node.sort = sort
            node.kind = kind
            node.var = var
            node.vsort = vsort
            node.body = body
            node._hash = hash(key)
            node.bvar_bound = max(body.bvar_bound - 1, 0)
            node.has_meta = body.has_meta
            node.size = body.size + 1
            node._nf_memo = node._fold_memo = node._eval_memo = None
            node = _intern(key, node)
        return node


# ---------------------------------------------------------------------------
# Operator signatures.  `None` entries are filled per-instance by the smart
# constructors (polymorphic operators).

ARITH_OPS = {"add", "sub", "mul", "div", "mod", "neg", "abs", "pow"}
REAL_FNS = {"sqrt", "log"}
SET_OPS = {"union", "inter", "setlit", "Iio", "Ioi", "Icc", "Ico", "Ioc",
           "range", "divisors", "card", "sum"}

CONN_ARITY = {"and": 2, "or": 2, "imp": 2, "iff": 2, "not": 1,
              "true": 0, "false": 0}


def mk_var(name: str, sort: Sort) -> Var:
    return Var(sort, name)


def mk_meta(mid: str, sort: Sort) -> Meta:
    return Meta(sort, mid)


# Every term gets printed somewhere, and Python prints an int of more
# than 4300 digits only on request: the engine builds no literal of more
# than 13000 bits.  The parser bounds numerals and `norm.fold_arith`
# leaves a larger result unfolded.
MAX_LIT_BITS = 13_000


def lit_bits(v: Fraction) -> int:
    """The size of a literal value: its numerator's or denominator's bits."""
    return max(v.numerator.bit_length(), v.denominator.bit_length())


def mk_lit(val, sort: Sort = INT) -> Lit:
    v = val if type(val) is Fraction else Fraction(val)
    if sort == NAT and (v < 0 or v.denominator != 1):
        raise SortError(f"literal {v} is not a Nat")
    if sort == INT and v.denominator != 1:
        raise SortError(f"literal {v} is not an Int")
    if sort not in NUMERIC:
        raise SortError(f"literal of non-numeric sort {sort}")
    return Lit(sort, v)


def mk_app(op: str, args: tuple[Term, ...]) -> App:
    args = tuple(args)
    if op in ("add", "sub", "mul"):
        s = _same_numeric(op, args, 2)
        return App(s, op, args)
    if op == "neg":
        s = _same_numeric(op, args, 1)
        if s == NAT:
            raise SortError("neg is not defined on Nat")
        if isinstance(args[0], Lit):
            # negated numerals are literals, keeping printing injective
            return Lit(s, -args[0].val)
        return App(s, op, args)
    if op == "abs":
        s = _same_numeric(op, args, 1)
        return App(s, op, args)
    if op == "div":
        s = _same_numeric(op, args, 2)
        return App(s, op, args)
    if op == "mod":
        s = _same_numeric(op, args, 2)
        if s not in (NAT, INT):
            raise SortError("mod requires Nat or Int arguments")
        return App(s, op, args)
    if op == "pow":
        base, exp = _arity(op, args, 2)
        if base.sort == REAL:
            if exp.sort != REAL:
                raise SortError("Real pow requires a Real exponent")
            return App(REAL, op, args)
        if base.sort in (NAT, INT, RAT) and exp.sort == NAT:
            return App(base.sort, op, args)
        raise SortError(f"pow of {base.sort} by {exp.sort}")
    if op in REAL_FNS:
        (a,) = _arity(op, args, 1)
        if a.sort != REAL:
            raise SortError(f"{op} requires a Real argument")
        return App(REAL, op, args)
    if op == "pi":
        _arity(op, args, 0)
        return App(REAL, op, args)
    if op == "rat":
        (a,) = _arity(op, args, 1)
        if a.sort not in (NAT, INT):
            raise SortError("rat coerces Nat/Int only")
        return App(RAT, op, args)
    if op in ("union", "inter"):
        a, b = _arity(op, args, 2)
        if a.sort != b.sort or a.sort.kind != "Set":
            raise SortError(f"{op} requires two sets of the same sort")
        return App(a.sort, op, args)
    if op == "setlit":
        if not args:
            raise SortError("empty set literal is not supported")
        elem = args[0].sort
        if any(a.sort != elem for a in args):
            raise SortError("set literal elements must share one sort")
        return App(set_of(elem), op, args)
    if op in ("Iio", "Ioi"):
        (a,) = _arity(op, args, 1)
        if a.sort not in NUMERIC:
            raise SortError(f"{op} requires a numeric endpoint")
        return App(set_of(a.sort), op, args)
    if op in ("Icc", "Ico", "Ioc"):
        a, b = _arity(op, args, 2)
        if a.sort != b.sort or a.sort not in NUMERIC:
            raise SortError(f"{op} requires numeric endpoints of one sort")
        return App(set_of(a.sort), op, args)
    if op == "range":
        a, b = _arity(op, args, 2)
        if a.sort != b.sort or a.sort not in (NAT, INT):
            raise SortError("range requires Nat or Int endpoints")
        return App(set_of(a.sort), op, args)
    if op == "divisors":
        (a,) = _arity(op, args, 1)
        if a.sort != NAT:
            raise SortError("divisors requires a Nat argument")
        return App(set_of(NAT), op, args)
    if op == "card":
        (a,) = _arity(op, args, 1)
        if a.sort.kind != "Set":
            raise SortError("card requires a set argument")
        return App(NAT, op, args)
    if op == "sum":
        s, f = _arity(op, args, 2)
        if s.sort.kind != "Set" or f.sort.kind != "Fn" \
                or f.sort.args[0] != s.sort.args[0]:
            raise SortError("sum requires a set and a function on its elements")
        if f.sort.args[1] not in NUMERIC:
            raise SortError("sum body must be numeric")
        return App(f.sort.args[1], op, args)
    if op == "@":
        f, a = _arity(op, args, 2)
        if f.sort.kind != "Fn" or f.sort.args[0] != a.sort:
            raise SortError(f"cannot apply {f.sort} to {a.sort}")
        return App(f.sort.args[1], op, args)
    raise SortError(f"unknown operator {op!r}")


def _arity(op: str, args: tuple[Term, ...], n: int) -> tuple[Term, ...]:
    if len(args) != n:
        raise SortError(f"{op} expects {n} argument(s), got {len(args)}")
    return args


def _same_numeric(op: str, args: tuple[Term, ...], n: int) -> Sort:
    _arity(op, args, n)
    s = args[0].sort
    if s not in NUMERIC or any(a.sort != s for a in args):
        raise SortError(
            f"{op} requires numeric arguments of one sort, got "
            f"{[str(a.sort) for a in args]}")
    return s


def mk_conn(op: str, args: tuple[Term, ...]) -> Conn:
    args = tuple(args)
    if op not in CONN_ARITY:
        raise SortError(f"unknown connective {op!r}")
    _arity(op, args, CONN_ARITY[op])
    for a in args:
        if a.sort != PROP:
            raise SortError(f"{op} requires Prop arguments, got {a.sort}")
    return Conn(PROP, op, args)


TRUE = mk_conn("true", ())
FALSE = mk_conn("false", ())


def mk_atom(rel: str, args: tuple[Term, ...]) -> Atom:
    args = tuple(args)
    if rel in ("eq", "ne"):
        a, b = _arity(rel, args, 2)
        if a.sort != b.sort:
            raise SortError(f"{rel} on {a.sort} vs {b.sort}")
        if a.sort == PROP:
            raise SortError("use iff to compare propositions")
        return Atom(PROP, rel, args)
    if rel in ("lt", "le"):
        _same_numeric(rel, args, 2)
        return Atom(PROP, rel, args)
    if rel == "mem":
        x, s = _arity(rel, args, 2)
        if s.sort.kind != "Set" or s.sort.args[0] != x.sort:
            raise SortError(f"mem of {x.sort} in {s.sort}")
        return Atom(PROP, rel, args)
    if rel == "dvd":
        a, b = _arity(rel, args, 2)
        if a.sort != b.sort or a.sort not in (NAT, INT):
            raise SortError("dvd requires Nat or Int arguments")
        return Atom(PROP, rel, args)
    if rel in ("even", "odd", "prime"):
        (a,) = _arity(rel, args, 1)
        if a.sort not in (NAT, INT):
            raise SortError(f"{rel} requires a Nat or Int argument")
        return Atom(PROP, rel, args)
    raise SortError(f"unknown relation {rel!r}")


def mk_binder(kind: str, var: str, vsort: Sort, body: Term) -> Binder:
    if kind in ("forall", "exists", "setb"):
        if body.sort != PROP:
            raise SortError(f"{kind} body must be Prop, got {body.sort}")
        sort = PROP if kind in ("forall", "exists") else set_of(vsort)
    elif kind == "lam":
        sort = fn(vsort, body.sort)
    else:
        raise SortError(f"unknown binder {kind!r}")
    return Binder(sort, kind, var, vsort, body)


# ---------------------------------------------------------------------------
# Traversal and de Bruijn machinery


def children(t: Term) -> tuple[Term, ...]:
    if isinstance(t, (App, Conn, Atom)):
        return t.args
    if isinstance(t, Binder):
        return (t.body,)
    return ()


def _rebuild(t: Term, args: tuple[Term, ...]) -> Term:
    for new, old in zip(args, children(t)):
        if new is not old:
            break
    else:
        return t
    if isinstance(t, App):
        return mk_app(t.op, args)
    if isinstance(t, Conn):
        return mk_conn(t.op, args)
    if isinstance(t, Atom):
        return mk_atom(t.rel, args)
    if isinstance(t, Binder):
        return mk_binder(t.kind, t.var, t.vsort, args[0])


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Shift loose bound indices >= cutoff by `by`."""
    if t.bvar_bound <= cutoff or not by:
        return t
    if isinstance(t, BVar):
        return BVar(t.sort, t.idx + by)
    if isinstance(t, Binder):
        return _rebuild(t, (shift(t.body, by, cutoff + 1),))
    return _rebuild(t, tuple(shift(k, by, cutoff) for k in children(t)))


def instantiate_bvar(body: Term, repl: Term, depth: int = 0) -> Term:
    """Replace BVar(depth) in `body` by `repl` (shifted under binders)."""
    if body.bvar_bound <= depth:
        return body
    if isinstance(body, BVar):
        if body.idx == depth:
            return shift(repl, depth)
        return BVar(body.sort, body.idx - 1)
    if isinstance(body, Binder):
        return _rebuild(body, (instantiate_bvar(body.body, repl, depth + 1),))
    return _rebuild(body, tuple(instantiate_bvar(k, repl, depth)
                                for k in children(body)))


def has_loose_bvars(t: Term, depth: int = 0) -> bool:
    return t.bvar_bound > depth


def subterms(t: Term) -> Iterator[Term]:
    """Every subterm of `t`, pre-order, left to right."""
    todo = [t]
    while todo:
        s = todo.pop()
        yield s
        todo.extend(reversed(children(s)))


# ---------------------------------------------------------------------------
# Term-level operations


def substitute(t: Term, name: str, repl: Term) -> Term:
    """Capture-avoiding substitution of `repl` for the free variable `name`."""
    if isinstance(t, Var) and t.name == name:
        if repl.sort != t.sort:
            raise SubstitutionSortError(
                f"substituting {repl.sort} for {name} : {t.sort}")
        return repl
    if isinstance(t, Binder):
        # Bound occurrences are BVars, so shadowing cannot capture; the
        # replacement's own free vars stay free because they are Vars too.
        return _rebuild(t, (substitute(t.body, name, repl),))
    kids = children(t)
    if not kids:
        return t
    return _rebuild(t, tuple(substitute(k, name, repl) for k in kids))


def free_vars(t: Term) -> set[str]:
    out: set[str] = set()
    todo = [t]
    while todo:
        s = todo.pop()
        if isinstance(s, Var):
            out.add(s.name)
        elif isinstance(s, Binder):
            todo.append(s.body)
        elif isinstance(s, _Node):
            todo.extend(s.args)
    return out


def metavars_of(t: Term) -> set[str]:
    out: set[str] = set()
    todo = [t]
    while todo:
        s = todo.pop()
        if not s.has_meta:
            continue
        if isinstance(s, Meta):
            out.add(s.mid)
        else:
            todo.extend(children(s))
    return out


def eq_sides(t: Term) -> Optional[tuple[Term, Term]]:
    """The two sides of an equation `a = b` or an iff `p <-> q`, else None."""
    if (isinstance(t, Atom) and t.rel == "eq") \
            or (isinstance(t, Conn) and t.op == "iff"):
        return t.args[0], t.args[1]
    return None


def syntactic_eq(t1: Term, t2: Term) -> bool:
    """Structural identity of parsed trees, sensitive to bound names:
    terms are interned, so this is object identity."""
    return t1 is t2


def alpha_eq(t1: Term, t2: Term) -> bool:
    """Structural identity ignoring binder display names.  Renaming a
    binder keeps a term's size, so terms of different sizes differ."""
    if t1 is t2:
        return True
    if t1.size != t2.size or type(t1) is not type(t2) or t1.sort != t2.sort:
        return False
    if isinstance(t1, Binder):
        return (t1.kind == t2.kind and t1.vsort == t2.vsort
                and alpha_eq(t1.body, t2.body))
    if isinstance(t1, App):
        return t1.op == t2.op and _alpha_all(t1.args, t2.args)
    if isinstance(t1, Conn):
        return t1.op == t2.op and _alpha_all(t1.args, t2.args)
    if isinstance(t1, Atom):
        return t1.rel == t2.rel and _alpha_all(t1.args, t2.args)
    return False                        # equal leaves are one node


def _alpha_all(xs: tuple[Term, ...], ys: tuple[Term, ...]) -> bool:
    return len(xs) == len(ys) and all(alpha_eq(a, b) for a, b in zip(xs, ys))


def instantiate_metas(t: Term, asg: dict[str, Term]) -> Term:
    """Replace assigned metavariables, transitively; unassigned stay."""
    _check_acyclic(asg)
    return _inst(t, asg)


def _inst(t: Term, asg: dict[str, Term]) -> Term:
    if not t.has_meta:
        return t
    if isinstance(t, Meta):
        if t.mid in asg:
            val = asg[t.mid]
            if val.sort != t.sort:
                raise SortError(
                    f"assignment for ?{t.mid} has sort {val.sort}, "
                    f"expected {t.sort}")
            return _inst(val, asg)
        return t
    if isinstance(t, Binder):
        return _rebuild(t, (_inst(t.body, asg),))
    return _rebuild(t, tuple(_inst(k, asg) for k in children(t)))


def _check_acyclic(asg: dict[str, Term]) -> None:
    # DFS over the dependency graph mid -> metavars_of(asg[mid]) on an
    # explicit stack; a mid is marked 1 while on the path, 2 when done
    mark: dict[str, int] = {}
    for root in sorted(asg):
        todo = [(root, False)]          # (mid, leaving it)
        while todo:
            mid, leaving = todo.pop()
            if leaving:
                mark[mid] = 2
            elif mark.get(mid) == 1:
                raise OccursCheckError(
                    f"cyclic metavariable assignment at ?{mid}")
            elif mid in asg and mid not in mark:
                mark[mid] = 1
                todo.append((mid, True))
                todo += [(dep, False) for dep in
                         sorted(metavars_of(asg[mid]), reverse=True)]


# ---------------------------------------------------------------------------
# Telescopes


@dataclass(frozen=True)
class LocalDecl:
    name: str
    sort: Sort
    prop: Optional[Term] = None    # set for hypotheses; sort is then Prop

    def __post_init__(self):
        if self.prop is not None and self.sort != PROP:
            raise SortError(f"hypothesis {self.name} must have sort Prop")


@dataclass(frozen=True)
class Telescope:
    decls: tuple[LocalDecl, ...] = ()

    def __post_init__(self):
        names: set[str] = set()
        for d in self.decls:
            _check_decl(d, names)
            names.add(d.name)

    def lookup(self, name: str) -> Optional[LocalDecl]:
        for d in self.decls:
            if d.name == name:
                return d
        return None

    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.decls)

    def extended(self, decl: LocalDecl) -> "Telescope":
        """This telescope with `decl` appended.  The declarations already
        here were checked when it was built, so only `decl` is checked."""
        _check_decl(decl, set(self.names()))
        out = object.__new__(Telescope)
        object.__setattr__(out, "decls", self.decls + (decl,))
        return out

    def replaced(self, decl: LocalDecl) -> "Telescope":
        """This telescope with the declaration named `decl.name` replaced
        by `decl`, in place.  Only `decl` is checked, against the names
        before it; without such a declaration the telescope is returned."""
        for i, d in enumerate(self.decls):
            if d.name == decl.name:
                return self.restated(self.decls[:i] + (decl,)
                                     + self.decls[i + 1:])
        return self

    def restated(self, decls: tuple[LocalDecl, ...]) -> "Telescope":
        """A telescope of `decls`: this one's declarations in their order,
        some left out and some restated.  A declaration that is one of
        this telescope's own objects was checked when this one was built
        and is taken as it is (its name must still be new); every other
        one is checked.  The caller keeps a left-out name out of the
        declarations taken as they are."""
        own = {id(d) for d in self.decls}
        names: set[str] = set()
        for d in decls:
            if id(d) not in own:
                _check_decl(d, names)
            elif d.name in names:
                raise ExprError(f"duplicate declaration {d.name!r}")
            names.add(d.name)
        out = object.__new__(Telescope)
        object.__setattr__(out, "decls", decls)
        return out

    def fresh(self, base: str) -> str:
        if self.lookup(base) is None:
            return base
        i = 1
        while self.lookup(f"{base}{i}") is not None:
            i += 1
        return f"{base}{i}"


def _check_decl(decl: LocalDecl, names: set[str]) -> None:
    """`decl` may follow declarations named `names`: its name is new, and
    its proposition mentions only those names."""
    if decl.name in names:
        raise ExprError(f"duplicate declaration {decl.name!r}")
    if decl.prop is not None and not free_vars(decl.prop) <= names:
        raise ExprError(f"declaration {decl.name!r} references later names")
