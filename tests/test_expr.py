"""Expression core: substitution, variables, metavariables, telescopes."""

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from holebox.expr import (
    App, Atom, BVar, Binder, Conn, ExprError, INT, Lit, LocalDecl, Meta, NAT,
    OccursCheckError, PROP, RAT, REAL, SubstitutionSortError, Telescope, Var,
    _rebuild, children, free_vars, has_loose_bvars, instantiate_bvar,
    instantiate_metas, metavars_of, mk_app, mk_atom, mk_lit, mk_meta, mk_var,
    shift, substitute, subterms, syntactic_eq,
)
from holebox.syntax import parse_term, print_term


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
    """A structurally equal copy of `t` that shares no node with it."""
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
        assert copy is not s and copy == s and hash(copy) == hash(s)


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
