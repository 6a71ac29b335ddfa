"""Property tests over strategy-generated terms."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import abstract_var
from holebox.expr import (
    INT, PROP, ExprError, LocalDecl, Telescope, alpha_eq, fn, free_vars,
    instantiate_bvar, mk_app, mk_atom, mk_binder, mk_lit, mk_var, set_of,
    substitute, syntactic_eq,
)
from holebox.norm import definitional_eq, normalize
from holebox.syntax import ParseError, parse_term, print_term
from test_parser_reference import operator_texts, token_texts

TELE = Telescope((LocalDecl("x", INT), LocalDecl("y", INT),
                  LocalDecl("z", INT)))


def int_terms(max_leaves=8):
    leaf = st.one_of(
        st.integers(-30, 30).map(lambda v: mk_lit(v, INT)),
        st.sampled_from(["x", "y", "z"]).map(lambda n: mk_var(n, INT)),
    )
    return st.recursive(
        leaf,
        lambda sub: st.tuples(st.sampled_from(["add", "sub", "mul"]),
                              sub, sub).map(
            lambda t: mk_app(t[0], (t[1], t[2]))),
        max_leaves=max_leaves)


@settings(max_examples=200, derandomize=True)
@given(int_terms())
def test_print_parse_round_trip(term):
    assert syntactic_eq(parse_term(print_term(term), TELE, INT), term)


@settings(max_examples=200, derandomize=True)
@given(int_terms())
def test_normalize_idempotent(term):
    once = normalize(term)
    assert syntactic_eq(normalize(once), once)


@settings(max_examples=200, derandomize=True)
@given(int_terms())
def test_syntactic_implies_definitional(term):
    assert definitional_eq(term, term)


@settings(max_examples=200, derandomize=True)
@given(int_terms(), int_terms(4), int_terms(4))
def test_substitution_lemma(term, r, s_raw):
    # t[x:=r][y:=s] == t[y:=s][x:=r[y:=s]] when x is not free in s
    s = substitute(s_raw, "x", mk_lit(0, INT))
    assert "x" not in free_vars(s)
    lhs = substitute(substitute(term, "x", r), "y", s)
    rhs = substitute(substitute(term, "y", s), "x", substitute(r, "y", s))
    assert syntactic_eq(lhs, rhs)


@settings(max_examples=150, derandomize=True)
@given(int_terms(), st.integers(-9, 9))
def test_normalization_respects_evaluation(term, xval):
    """Normalizing then substituting equals substituting then folding."""
    inst = substitute(substitute(substitute(
        term, "x", mk_lit(xval, INT)), "y", mk_lit(2, INT)),
        "z", mk_lit(-3, INT))
    n1 = normalize(inst)
    n2 = normalize(substitute(substitute(substitute(
        normalize(term), "x", mk_lit(xval, INT)), "y", mk_lit(2, INT)),
        "z", mk_lit(-3, INT)))
    assert syntactic_eq(n1, n2)


# Terms in which a binder sits over a free variable of its own name, as
# `intro x` leaves `sum x in S, x + y` when it opens `forall y` at `x`:
# a binder's body instantiated with a Var named like a binder inside it.
# Inner binders bind the placeholders `i` and `j`, the outer one `o`.
PLACEHOLDER_TERMS = st.recursive(
    st.one_of(st.integers(-3, 3).map(lambda v: mk_lit(v, INT)),
              st.sampled_from(["x", "y", "z", "i", "j", "o"]).map(
                  lambda n: mk_var(n, INT))),
    lambda sub: st.tuples(st.sampled_from(["add", "sub", "mul"]),
                          sub, sub).map(lambda t: mk_app(t[0], (t[1], t[2]))),
    max_leaves=6)
COLL = parse_term("{k : Int | 0 <= k /\\ k <= 2}", TELE, set_of(INT))


@st.composite
def captured_terms(draw):
    name, other = draw(st.sampled_from(["x", "y", "z"])), \
        draw(st.sampled_from(["x", "y", "z"]))
    kind = draw(st.sampled_from(["forall", "exists", "sum"]))
    e1, e2 = draw(PLACEHOLDER_TERMS), draw(PLACEHOLDER_TERMS)
    if kind == "sum":
        lam = mk_binder("lam", name, INT,
                        abstract_var(substitute(e1, "j", mk_lit(1, INT)),
                                     "i"))
        rest = substitute(substitute(e2, "i", mk_lit(0, INT)), "j",
                          mk_lit(1, INT))
        inner = mk_atom("eq", (mk_app("sum", (COLL, lam)), rest))
    else:
        # a binder group of two names: each is checked against the body
        body = mk_atom("eq", (e1, e2))
        inner = mk_binder(kind, name, INT, abstract_var(
            mk_binder(kind, other, INT, abstract_var(body, "j")), "i"))
    outer = mk_binder("forall", "o", INT, abstract_var(inner, "o"))
    return instantiate_bvar(outer.body, mk_var(draw(st.sampled_from(
        [name, other])), INT))


@settings(max_examples=200, derandomize=True)
@given(captured_terms())
def test_printing_never_captures_a_free_variable(term):
    assert alpha_eq(parse_term(print_term(term), TELE, PROP), term)


# -- the print/parse contract on parsed input -------------------------------

# `print_term`'s contract: the text reads back `alpha_eq` to the term.  A
# binder that shadows a name in scope may read back under another
# display name, so identity of the node is not promised.
READ_BACK_TELE = Telescope((LocalDecl("x", INT), LocalDecl("y", INT),
                            LocalDecl("S", set_of(INT)),
                            LocalDecl("f", fn(INT, INT))))
BINDER_NAMES = ["x", "y", "v"]      # reused, so binders nest and shadow
CONNECTIVES = ["/\\", "\\/", "->"]


@st.composite
def int_texts(draw, bound=(), depth=3):
    kind = draw(st.integers(0, 4 if depth else 0))
    if kind == 0:
        leaf = draw(st.sampled_from(["x", "y", "1"] + list(bound)))
        return draw(st.sampled_from([leaf, f"f {leaf}"]))
    if kind == 1:
        return f"{draw(int_texts(bound, depth - 1))} " \
            f"{draw(st.sampled_from(['+', '-', '*']))} " \
            f"{draw(int_texts(bound, depth - 1))}"
    if kind == 2:
        return f"f ({draw(int_texts(bound, depth - 1))})"
    if kind == 3:
        name = draw(st.sampled_from(BINDER_NAMES))
        return f"(sum {name} in S, " \
            f"{draw(int_texts(bound + (name,), depth - 1))})"
    return f"({draw(int_texts(bound, depth - 1))})"


@st.composite
def shadowing_texts(draw, bound=(), depth=3):
    """Propositions whose binders reuse the names of the telescope and
    of each other."""
    kind = draw(st.integers(0, 4 if depth else 0))
    name = draw(st.sampled_from(BINDER_NAMES))
    inner = bound + (name,)
    if kind == 0:
        return f"{draw(int_texts(bound, depth))} " \
            f"{draw(st.sampled_from(['=', '<=', '<', '!=']))} " \
            f"{draw(int_texts(bound, depth))}"
    if kind == 1:
        return f"{draw(st.sampled_from(['forall', 'exists']))} " \
            f"({name} : Int), {draw(shadowing_texts(inner, depth - 1))}"
    if kind == 2:
        left, right = draw(shadowing_texts(bound, depth - 1)), \
            draw(shadowing_texts(bound, depth - 1))
        return f"({left}) {draw(st.sampled_from(CONNECTIVES))} ({right})"
    if kind == 3:
        return f"{draw(int_texts(bound, depth - 1))} in " \
            f"{{{name} : Int | {draw(shadowing_texts(inner, depth - 1))}}}"
    return f"(fun ({name} : Int) => {draw(int_texts(inner, depth - 1))}) " \
        f"= (fun ({name} : Int) => {draw(int_texts(inner, depth - 1))})"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(shadowing_texts(), operator_texts(), token_texts()))
def test_parsed_text_prints_to_text_that_reads_back(text):
    try:
        term = parse_term(text, READ_BACK_TELE, metas={"w": INT})
    except (ParseError, ExprError):
        return
    printed = print_term(term)
    back = parse_term(printed, READ_BACK_TELE, term.sort, metas={"w": INT})
    assert alpha_eq(back, term), (text, printed)
    assert print_term(back) == printed
