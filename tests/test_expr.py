"""Expression core: substitution, variables, metavariables, telescopes."""

import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from conftest import abstract_var
from holebox.expr import (
    App, Atom, BVar, Binder, Conn, ExprError, INT, Lit, LocalDecl, Meta, NAT,
    OccursCheckError, PROP, RAT, REAL, Sort, SortError, SubstitutionSortError,
    Telescope, Var, _INTERNED, _rebuild, alpha_eq, children, fn,
    free_vars, has_loose_bvars, instantiate_bvar, instantiate_metas,
    metavars_of, mk_app, mk_atom, mk_binder, mk_conn, mk_lit, mk_meta, mk_var,
    set_of, shift, substitute, subterms, syntactic_eq,
)
from holebox.kernel import Goal
from holebox.syntax import parse_term, print_term
from holebox.tactics.rewrite import replace_all
from holebox.tactics.structural import replace_hyp


def t(text, tele=Telescope(), expected=None):
    return parse_term(text, tele, expected)


X_INT = Telescope((LocalDecl("x", INT),))


def test_substitute_direct():
    body = t("x + 1", X_INT)
    out = substitute(body, "x", mk_lit(2, INT))
    assert print_term(out) == "2 + 1"


def test_substitute_no_free_occurrence_under_binder():
    body = t("forall (x : Int), x = x")
    out = substitute(body, "x", mk_lit(5, INT))
    assert syntactic_eq(out, body)


def test_substitute_equation_example():
    tele = Telescope((LocalDecl("a", REAL),))
    body = t("a^2 - 1 = 0", tele)
    out = substitute(body, "a", mk_lit(-1, REAL))
    assert print_term(out) == "(-1) ^ 2 - 1 = 0"


def test_substitute_sort_mismatch():
    body = t("x + 1", X_INT)
    with pytest.raises(SubstitutionSortError):
        substitute(body, "x", mk_lit(Fraction(1, 2), RAT))


def test_substitution_lemma_fuzzed(fuzzer):
    # substitute(substitute(t,x,r),y,s) == substitute(substitute(t,y,s),x,
    # substitute(r,y,s)) when x not free in s and x != y
    for _ in range(200):
        base = fuzzer.numeric(INT, 3)
        r = fuzzer.numeric(INT, 2)
        s = substitute(fuzzer.numeric(INT, 2), "x", mk_lit(3, INT))
        assert "x" not in free_vars(s)
        lhs = substitute(substitute(base, "x", r), "y", s)
        rhs = substitute(substitute(base, "y", s), "x",
                         substitute(r, "y", s))
        assert syntactic_eq(lhs, rhs)


def test_free_vars():
    tele = Telescope((LocalDecl("x", INT), LocalDecl("y", INT)))
    assert free_vars(t("x + y", tele)) == {"x", "y"}
    assert free_vars(t("forall (x : Int), x = y", tele)) == {"y"}
    assert free_vars(t("42", expected=INT)) == set()


def test_metavars_of():
    w = mk_meta("w", REAL)
    sq = mk_app("pow", (w, mk_lit(2, REAL)))
    eq = mk_atom("eq", (mk_app("sub", (sq, mk_lit(1, REAL))),
                        mk_lit(0, REAL)))
    assert metavars_of(eq) == {"w"}
    assert metavars_of(t("3 = 3", expected=None)) == set()
    two = mk_app("add", (mk_meta("w", INT), mk_meta("w", INT)))
    assert metavars_of(two) == {"w"}


def test_instantiate_metas():
    w = mk_meta("w", INT)
    eq = mk_atom("eq", (w, mk_lit(2017, INT)))
    out = instantiate_metas(eq, {"w": mk_lit(2018, INT)})
    assert print_term(out) == "2018 = 2017"
    assert syntactic_eq(instantiate_metas(eq, {}), eq)


def test_instantiate_transitive():
    a = mk_meta("a", INT)
    out = instantiate_metas(a, {"a": mk_meta("b", INT),
                                "b": mk_lit(5, INT)})
    assert print_term(out) == "5"


def test_instantiate_cyclic_rejected():
    a = mk_meta("a", INT)
    with pytest.raises(OccursCheckError):
        instantiate_metas(a, {"a": mk_app("add", (mk_meta("a", INT),
                                                  mk_lit(1, INT)))})


def test_telescope_rejects_duplicates_and_forward_refs():
    with pytest.raises(ExprError):
        Telescope((LocalDecl("x", INT), LocalDecl("x", INT)))
    with pytest.raises(ExprError):
        Telescope((
            LocalDecl("h", PROP, prop=mk_atom("eq", (mk_var("z", INT),
                                                     mk_lit(0, INT)))),
            LocalDecl("z", INT),
        ))


def test_extended_checks_the_new_declaration_as_construction_does():
    h = LocalDecl("h", PROP, prop=mk_atom("eq", (mk_var("x", INT),
                                                 mk_lit(0, INT))))
    assert X_INT.extended(h) == Telescope(X_INT.decls + (h,))
    for bad in (LocalDecl("x", INT),
                LocalDecl("g", PROP, prop=mk_atom(
                    "eq", (mk_var("z", INT), mk_lit(0, INT))))):
        with pytest.raises(ExprError) as built:
            Telescope(X_INT.decls + (bad,))
        with pytest.raises(ExprError) as extended:
            X_INT.extended(bad)
        assert str(extended.value) == str(built.value)


def test_replace_hyp_checks_the_replaced_declaration_as_construction_does():
    # x, h : x = 0, y: the replaced h may name x only
    tele = Telescope(X_INT.decls + (
        LocalDecl("h", PROP, prop=mk_atom("eq", (mk_var("x", INT),
                                                 mk_lit(0, INT)))),
        LocalDecl("y", INT)))
    goal = Goal("h", tele, mk_conn("true", ()))
    ok = mk_atom("le", (mk_var("x", INT), mk_lit(1, INT)))
    got = replace_hyp(goal, "h", ok, "h.l")
    assert got.case == "h.l" and got.concl == goal.concl
    assert got.ctx == Telescope((tele.decls[0], LocalDecl("h", PROP, prop=ok),
                                 tele.decls[2]))
    assert replace_hyp(goal, "g", ok).ctx == tele
    for name in ("y", "z"):          # a later variable, an unknown one
        bad = mk_atom("eq", (mk_var(name, INT), mk_lit(0, INT)))
        with pytest.raises(ExprError) as built:
            Telescope((tele.decls[0], LocalDecl("h", PROP, prop=bad),
                       tele.decls[2]))
        with pytest.raises(ExprError) as replaced:
            replace_hyp(goal, "h", bad)
        assert str(replaced.value) == str(built.value)


def test_restated_checks_what_it_restates_as_construction_does():
    # x, h : x = 0, y, g : y = 0: restate h, drop y and g
    h = LocalDecl("h", PROP, prop=mk_atom("eq", (mk_var("x", INT),
                                                 mk_lit(0, INT))))
    g = LocalDecl("g", PROP, prop=mk_atom("eq", (mk_var("y", INT),
                                                 mk_lit(0, INT))))
    tele = Telescope(X_INT.decls + (h, LocalDecl("y", INT), g))
    ok = LocalDecl("h", PROP, prop=mk_atom("le", (mk_var("x", INT),
                                                  mk_lit(1, INT))))
    assert tele.restated((tele.decls[0], ok)) == Telescope(
        (tele.decls[0], ok))
    assert tele.restated(tele.decls) == tele
    # g restated (a new object) without y; h twice; a variable named h
    for decls in ((tele.decls[0], LocalDecl("g", PROP, prop=g.prop)),
                  (tele.decls[0], h, h),
                  (LocalDecl("x", INT), h, LocalDecl("h", INT))):
        with pytest.raises(ExprError) as built:
            Telescope(decls)
        with pytest.raises(ExprError) as restated:
            tele.restated(decls)
        assert str(restated.value) == str(built.value)


def test_free_vars_and_subterms_walk_deep_terms_without_recursion():
    deep = mk_var("x", INT)
    for k in range(3 * sys.getrecursionlimit()):
        deep = mk_app("add", (deep, mk_var(f"v{k % 3}", INT)))
    assert free_vars(deep) == {"x", "v0", "v1", "v2"}
    walk = list(subterms(deep))
    assert len(walk) == deep.size and walk[0] is deep
    assert walk[1] is deep.args[0] and walk[-1] is deep.args[1]


def test_telescope_fresh_names():
    tele = Telescope((LocalDecl("h", INT), LocalDecl("h1", INT)))
    assert tele.fresh("h") == "h2"
    assert tele.fresh("g") == "g"


def test_alpha_sensitivity_of_syntactic_eq():
    a = t("forall (m : Int), m = m")
    b = t("forall (p : Int), p = p")
    assert not syntactic_eq(a, b)
    from holebox.expr import alpha_eq
    assert alpha_eq(a, b)


# -- cached per-node facts -----------------------------------------------

FACT_TELE = Telescope((LocalDecl("x", INT), LocalDecl("y", INT)))


@st.composite
def int_text(draw, scope, depth):
    leaves = ["x", "y", "?w", "0", "1", "2"] + list(scope)
    if depth == 0:
        return draw(st.sampled_from(leaves))
    kind = draw(st.sampled_from(["leaf", "op", "op", "lam"]))
    if kind == "leaf":
        return draw(st.sampled_from(leaves))
    if kind == "op":
        op = draw(st.sampled_from(["+", "-", "*"]))
        return (f"({draw(int_text(scope, depth - 1))} {op} "
                f"{draw(int_text(scope, depth - 1))})")
    v = f"l{depth}"
    return (f"((fun ({v} : Int) => {draw(int_text(scope + (v,), depth - 1))})"
            f" {draw(int_text(scope, depth - 1))})")


@st.composite
def prop_text(draw, scope=(), depth=3):
    kind = draw(st.sampled_from(
        ["rel", "rel", "conn", "not", "quant", "setb"] if depth else ["rel"]))
    if kind == "rel":
        rel = draw(st.sampled_from(["=", "<", "<="]))
        return (f"{draw(int_text(scope, 2))} {rel} "
                f"{draw(int_text(scope, 2))}")
    if kind == "conn":
        op = draw(st.sampled_from(["/\\", "\\/", "->"]))
        return (f"({draw(prop_text(scope, depth - 1))}) {op} "
                f"({draw(prop_text(scope, depth - 1))})")
    if kind == "not":
        return f"not ({draw(prop_text(scope, depth - 1))})"
    v = f"b{depth}"
    body = draw(prop_text(scope + (v,), depth - 1))
    if kind == "quant":
        q = draw(st.sampled_from(["forall", "exists"]))
        return f"{q} ({v} : Int), {body}"
    return f"{draw(int_text(scope, 1))} in {{{v} : Int | {body}}}"


def elaborated_props():
    return prop_text().map(
        lambda text: parse_term(text, FACT_TELE, PROP, metas={"w": INT}))


def ref_bound(t, depth=0):
    """1 + the largest loose index of `t` under `depth` binders, else 0."""
    if isinstance(t, BVar):
        return t.idx - depth + 1 if t.idx >= depth else 0
    inner = depth + 1 if isinstance(t, Binder) else depth
    return max((ref_bound(k, inner) for k in children(t)), default=0)


def ref_meta(t):
    return isinstance(t, Meta) or any(ref_meta(k) for k in children(t))


class _Hashed:
    """Stands in for a child whose hash is already known."""

    def __init__(self, h):
        self.h = h

    def __hash__(self):
        return self.h


def ref_hash(t):
    """The hash recipe, applied by a full recursive walk."""
    if isinstance(t, (App, Conn)):
        return hash((type(t), t.sort, t.op,
                     tuple(_Hashed(ref_hash(k)) for k in t.args)))
    if isinstance(t, Atom):
        return hash((Atom, t.sort, t.rel,
                     tuple(_Hashed(ref_hash(k)) for k in t.args)))
    if isinstance(t, Binder):
        return hash((Binder, t.sort, t.kind, t.var, t.vsort,
                     _Hashed(ref_hash(t.body))))
    field = {Var: "name", BVar: "idx", Meta: "mid", Lit: "val"}[type(t)]
    return hash((type(t), t.sort, getattr(t, field)))


def rebuilt(t):
    """`t` built again, node by node, through the class constructors."""
    if isinstance(t, Binder):
        return Binder(t.sort, t.kind, t.var, t.vsort, rebuilt(t.body))
    if isinstance(t, (App, Conn, Atom)):
        head = t.rel if isinstance(t, Atom) else t.op
        return type(t)(t.sort, head, tuple(rebuilt(k) for k in t.args))
    return type(t)(t.sort, getattr(t, type(t)._FIELDS[1]))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(elaborated_props())
def test_cached_facts_match_their_recursive_definitions(prop):
    for s in subterms(prop):
        assert s.bvar_bound == ref_bound(s)
        assert has_loose_bvars(s) == (ref_bound(s) > 0)
        assert s.has_meta == ref_meta(s)
        assert (metavars_of(s) != set()) == ref_meta(s)
        assert hash(s) == ref_hash(s)
        copy = rebuilt(s)
        assert copy is s and copy == s and hash(copy) == hash(s)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(elaborated_props())
def test_traversals_return_unchanged_nodes_themselves(prop):
    x = mk_var("x", INT)
    for s in subterms(prop):
        assert _rebuild(s, children(s)) is s
        assert shift(s, 2, s.bvar_bound) is s
        assert instantiate_bvar(s, x, s.bvar_bound) is s
        if not s.has_meta:
            assert instantiate_metas(s, {"w": x}) is s
        if s.bvar_bound:
            # the outermost loose index moves, so a new node comes back
            assert shift(s, 1) is not s and shift(s, 1) != s


# -- interning --------------------------------------------------------------


def table_key(t):
    """The key the node `t` was interned under."""
    return (type(t),) + tuple(getattr(t, f) for f in t._FIELDS)


def is_tables_node(t):
    return all(_INTERNED.get(table_key(s)) is s for s in subterms(t))


def test_constructors_return_the_tables_node():
    x = mk_var("x", INT)
    one = mk_lit(1, INT)
    body = mk_atom("eq", (BVar(INT, 0), one))
    built = [
        (x, Var(INT, "x")),
        (mk_meta("w", INT), Meta(INT, "w")),
        (one, Lit(INT, Fraction(1))),
        (mk_lit(-1, INT), mk_app("neg", (one,))),
        (mk_app("add", (x, one)), App(INT, "add", (x, one))),
        (mk_app("setlit", (x,)), App(set_of(INT), "setlit", (x,))),
        (mk_atom("lt", (x, one)), Atom(PROP, "lt", (x, one))),
        (mk_conn("not", (body,)), Conn(PROP, "not", (body,))),
        (mk_binder("forall", "n", INT, body),
         Binder(PROP, "forall", "n", INT, body)),
    ]
    for a, b in built:
        assert a is b and is_tables_node(a)
    # the display name is part of the key
    assert mk_binder("forall", "m", INT, body) \
        is not mk_binder("forall", "n", INT, body)
    # sorts are interned in the same table
    assert Sort("Int") is INT and set_of(INT) is Sort("Set", (Sort("Int"),))
    assert fn(INT, PROP) is fn(Sort("Int"), Sort("Prop"))
    assert _INTERNED.get((Sort, "Set", (INT,))) is set_of(INT)


def test_parsing_twice_returns_the_same_node():
    text = ("forall (n : Int), n * x = x * n"
            " /\\ {m : Int | m < 2} = {m : Int | m < 2}")
    once = parse_term(text, X_INT, PROP)
    assert parse_term(text, X_INT, PROP) is once
    assert is_tables_node(once)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(elaborated_props())
def test_shift_and_instantiate_round_trips_return_the_same_node(prop):
    assert is_tables_node(prop)
    fresh = "fresh_v"
    for s in subterms(prop):
        assert shift(shift(s, 2), -2) is s
        if isinstance(s, Binder) and not s.bvar_bound:
            opened = instantiate_bvar(s.body, mk_var(fresh, s.vsort))
            assert is_tables_node(opened)
            assert abstract_var(opened, fresh) is s.body


def test_unreferenced_terms_leave_the_table():
    name = "only_referenced_here"
    term = mk_app("add", (mk_var(name, INT), mk_lit(7, INT)))
    assert table_key(term) in _INTERNED
    refs = [weakref.ref(s) for s in subterms(term)]
    del term
    gc.collect()
    assert refs[0]() is None and refs[1]() is None
    assert (Var, INT, name) not in _INTERNED
    assert not any(isinstance(v, Var) and v.name == name
                   for v in _INTERNED.values())


def test_literal_values_are_fractions():
    lits = [Lit(INT, 3), Lit(RAT, Fraction(1, 2)), mk_lit(3, NAT),
            mk_lit("7", INT), mk_app("neg", (mk_lit(2, INT),)),
            parse_term("2 / 4 + 3", expected=RAT)]
    for t in lits:
        for s in subterms(t):
            if isinstance(s, Lit):
                assert type(s.val) is Fraction
    assert Lit(INT, 3) is mk_lit(Fraction(3), INT)


def test_threads_racing_to_build_a_term_get_one_node():
    # a lookup that misses and a store are two steps; two threads that
    # both miss must still end with the same node
    def build(_):
        out = []
        for k in range(400):
            v = mk_var(f"race{k}", INT)
            out.append(mk_atom("le", (v, mk_app("add", (v, mk_lit(k, INT))))))
        return out

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(build, i) for i in range(8)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(old)
    first = results[0]
    for other in results[1:]:
        assert all(a is b for a, b in zip(first, other))
        assert len(other) == len(first) == 400


# -- size, and what it prunes ----------------------------------------------


def ref_size(t):
    return 1 + sum(ref_size(k) for k in children(t))


def ref_alpha_eq(a, b):
    """Structural equality ignoring binder names, by a full walk."""
    if type(a) is not type(b) or a.sort != b.sort:
        return False
    if isinstance(a, Binder):
        return (a.kind == b.kind and a.vsort == b.vsort
                and ref_alpha_eq(a.body, b.body))
    if isinstance(a, (App, Conn, Atom)):
        return (a._FIELDS[1] == b._FIELDS[1]
                and getattr(a, a._FIELDS[1]) == getattr(b, b._FIELDS[1])
                and len(a.args) == len(b.args)
                and all(ref_alpha_eq(x, y) for x, y in zip(a.args, b.args)))
    field = a._FIELDS[1]
    return getattr(a, field) == getattr(b, field)


def ref_replace_all(t, old, new):
    """`replace_all` without the size pruning: `alpha_eq` at every node."""
    if not has_loose_bvars(t) and ref_alpha_eq(t, old):
        return new
    kids = children(t)
    if not kids:
        return t
    return _rebuild(t, tuple(ref_replace_all(k, old, new) for k in kids))


def renamed(t):
    """`t` with every binder's display name changed."""
    if isinstance(t, Binder):
        return Binder(t.sort, t.kind, t.var + "_r", t.vsort, renamed(t.body))
    if isinstance(t, (App, Conn, Atom)):
        return _rebuild(t, tuple(renamed(k) for k in t.args))
    return t


@settings(max_examples=150, derandomize=True, deadline=None)
@given(elaborated_props(), elaborated_props())
def test_size_alpha_eq_and_replace_all_match_their_references(p, q):
    subs = list(subterms(p))
    others = list(subterms(q))
    for s in subs:
        assert s.size == ref_size(s)
        copy = renamed(s)
        assert copy.size == s.size
        assert alpha_eq(s, copy) and ref_alpha_eq(s, copy)
        for o in others:
            assert alpha_eq(s, o) == ref_alpha_eq(s, o)
            assert alpha_eq(s, renamed(o)) == ref_alpha_eq(s, o)
    for old in subs + [renamed(s) for s in subs if s.bvar_bound == 0]:
        new = mk_meta("replaced", old.sort)
        for t in (p, q):
            assert replace_all(t, old, new) is ref_replace_all(t, old, new)


# -- the constructors' sort checks --------------------------------------------

_I, _Q, _R = mk_var("i", INT), mk_var("q", RAT), mk_var("r", REAL)
_N = mk_var("n", NAT)
_S = mk_var("s", set_of(INT))
_TRUE = mk_conn("true", ())


@pytest.mark.parametrize("build, message", [
    (lambda: mk_lit(-1, NAT), "is not a Nat"),
    (lambda: mk_lit(Fraction(1, 2), INT), "is not an Int"),
    (lambda: mk_lit(1, PROP), "literal of non-numeric sort"),
    (lambda: mk_app("neg", (_N,)), "neg is not defined on Nat"),
    (lambda: mk_app("mod", (_Q, _Q)), "mod requires Nat or Int"),
    (lambda: mk_app("pow", (_R, _N)), "Real pow requires a Real exponent"),
    (lambda: mk_app("pow", (_I, _I)), "pow of Int by Int"),
    (lambda: mk_app("sqrt", (_Q,)), "sqrt requires a Real argument"),
    (lambda: mk_app("rat", (_Q,)), "rat coerces Nat/Int only"),
    (lambda: mk_app("setlit", ()), "empty set literal"),
    (lambda: mk_app("setlit", (_I, _Q)), "must share one sort"),
    (lambda: mk_app("range", (_Q, _Q)), "range requires Nat or Int"),
    (lambda: mk_app("divisors", (_I,)), "divisors requires a Nat"),
    (lambda: mk_app("card", (_I,)), "card requires a set"),
    (lambda: mk_app("sum", (_S, mk_var("f", fn(RAT, INT)))),
     "sum requires a set and a function on its elements"),
    (lambda: mk_app("sum", (_S, mk_var("p", fn(INT, PROP)))),
     "sum body must be numeric"),
    (lambda: mk_app("@", (mk_var("f", fn(INT, INT)), _Q)),
     "cannot apply Int -> Int to Rat"),
    (lambda: mk_app("frob", ()), "unknown operator 'frob'"),
    (lambda: mk_app("pi", (_I,)), "pi expects 0 argument(s), got 1"),
    (lambda: mk_conn("xor", ()), "unknown connective 'xor'"),
    (lambda: mk_conn("not", (_I,)), "not requires Prop arguments"),
    (lambda: mk_atom("eq", (_I, _Q)), "eq on Int vs Rat"),
    (lambda: mk_atom("eq", (_TRUE, _TRUE)), "use iff"),
    (lambda: mk_atom("mem", (_Q, _S)), "mem of Rat in Set Int"),
    (lambda: mk_atom("frob", ()), "unknown relation 'frob'"),
    (lambda: mk_binder("forall", "x", INT, _I), "forall body must be Prop"),
    (lambda: mk_binder("sigma", "x", INT, _TRUE), "unknown binder 'sigma'"),
    (lambda: instantiate_metas(mk_meta("a", INT), {"a": mk_lit(1, RAT)}),
     "assignment for ?a has sort Rat, expected Int"),
    (lambda: LocalDecl("h", INT, prop=_TRUE), "h must have sort Prop"),
])
def test_constructors_reject_ill_sorted_arguments(build, message):
    with pytest.raises(SortError) as err:
        build()
    assert message in str(err.value)


def test_terms_print_their_fields():
    # what an assertion shows when two terms differ
    assert repr(mk_app("neg", (mk_var("x", INT),))) == (
        "App(sort=Sort(kind='Int', args=()), op='neg', "
        "args=(Var(sort=Sort(kind='Int', args=()), name='x'),))")
