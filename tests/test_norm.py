"""Normalization and the definitional equality level."""

import gc
import weakref

import pytest

from holebox.expr import (
    App, BVar, INT, Lit, LocalDecl, NAT, RAT, REAL, SortError, Telescope,
    Term, Var, _INTERNED, _rebuild, children, fn, free_vars, metavars_of,
    mk_app, mk_atom, mk_binder, mk_lit, mk_var, substitute, subterms,
    syntactic_eq,
)
from holebox.norm import (
    NORM_MEMO_ENTRIES, _norm, _step, definitional_eq, fold_literals,
    normalize,
)
from holebox.syntax import parse_term, print_term


def norm_reference(t, unfold):
    """Normalization without the memo on the node, as it was before the
    memo: children first, then reduce at the head until fixed, walking
    every subterm again on every call."""
    kids = children(t)
    if kids:
        t = _rebuild(t, tuple(norm_reference(k, unfold) for k in kids))
    while True:
        nxt = _step(t, unfold)
        if nxt is None:
            return t
        t = norm_reference(nxt, unfold) if children(nxt) else nxt


def t(text, tele=Telescope(), expected=None):
    return parse_term(text, tele, expected)


def test_literal_reduction_nat():
    assert definitional_eq(t("2 + 1", expected=NAT), t("3", expected=NAT))


def test_real_arithmetic_is_opaque():
    assert not definitional_eq(t("2 + 1", expected=REAL),
                               t("1 + 2", expected=REAL))


def test_eta_contraction():
    f = mk_var("f", fn(NAT, NAT))
    lam = mk_binder("lam", "y", NAT,
                    mk_app("@", (f, BVar(NAT, 0))))
    assert definitional_eq(lam, f)
    assert print_term(normalize(lam)) == "f"


def test_eta_keeps_a_head_that_mentions_the_bound_variable():
    # neither is an eta redex: the head `f y`, or `g (fun z => z + y)`
    # under a binder of its own, mentions y
    tele = Telescope((LocalDecl("f", fn(INT, fn(INT, INT))),
                      LocalDecl("g", fn(fn(INT, INT), fn(INT, INT)))))
    for text in ("fun (y : Int) => f y y",
                 "fun (y : Int) => g (fun (z : Int) => z + y) y"):
        lam = parse_term(text, tele)
        assert normalize(lam) is lam, text


def test_beta_reduction():
    applied = t("(fun (y : Int) => y) 7", expected=INT)
    assert print_term(normalize(applied)) == "7"


def test_int_literal_arithmetic():
    assert print_term(normalize(t("2*3 + 1", expected=INT))) == "7"


def test_symbolic_atoms_fixed():
    term = t("sqrt 2 + 1", expected=REAL)
    assert syntactic_eq(normalize(term), term)


def test_sort_mismatch_rejected():
    with pytest.raises(SortError):
        definitional_eq(t("1", expected=INT), t("1", expected=RAT))


def test_interval_unfolds_to_set_builder():
    iio = parse_term("Iio ((-4/3 : Real))")
    sb = parse_term("{y : Real | y < -4/3}")
    assert definitional_eq(iio, sb)


@pytest.mark.parametrize("text, unfolded", [
    ("x in Ico 1 5", "1 <= x /\\ x < 5"),
    ("x in Ioc 1 5", "1 < x /\\ x <= 5"),
])
def test_half_open_intervals_unfold(text, unfolded):
    tele = Telescope((LocalDecl("x", INT),))
    assert print_term(normalize(parse_term(text, tele))) == unfolded


def test_finite_set_literal_membership():
    tele = Telescope((LocalDecl("x", REAL),))
    mem = parse_term("x in {-1, 1}", tele)
    disj = parse_term("x = -1 \\/ x = 1", tele)
    assert definitional_eq(mem, disj)


def test_nat_subtraction_truncates():
    assert print_term(normalize(t("2 - 5", expected=NAT))) == "0"


def test_division_and_mod_conventions():
    assert print_term(normalize(t("28 / 5", expected=INT))) == "5"
    assert print_term(normalize(t("-11213141 % 18", expected=INT))) == "13"
    assert print_term(normalize(t("3 / 0", expected=RAT))) == "0"
    assert print_term(normalize(t("7 % 0", expected=INT))) == "7"


def test_normalize_idempotent_fuzzed(fuzzer):
    for _ in range(200):
        term = fuzzer.term(3)
        once = normalize(term)
        assert syntactic_eq(normalize(once), once)


def test_normalize_preserves_variables_fuzzed(fuzzer):
    # no variable-dropping redexes in the fuzzed fragment, so exact
    for _ in range(200):
        term = fuzzer.term(3)
        out = normalize(term)
        assert free_vars(out) == free_vars(term)
        assert metavars_of(out) == metavars_of(term)


def test_defeq_equivalence_relation(fuzzer):
    from holebox.expr import mk_binder, BVar
    for _ in range(100):
        base = fuzzer.numeric(INT, 3)
        expanded = mk_app("@", (mk_binder("lam", "z", INT, BVar(INT, 0)),
                                base))
        normed = normalize(base)
        assert definitional_eq(base, base)            # reflexive
        assert definitional_eq(base, expanded)        # beta step
        assert definitional_eq(expanded, base)        # symmetric
        assert definitional_eq(expanded, normed)      # and to the nf
        assert definitional_eq(base, normed)          # transitive closure


def test_syntactic_implies_definitional(fuzzer):
    for _ in range(100):
        term = fuzzer.term(3)
        assert definitional_eq(term, term)


def test_fold_literals_keeps_definitions():
    folded = fold_literals(parse_term("Iio ((3 : Int)) \\/ Ioi ((2 + 3 : Int))"))
    assert print_term(folded) == "Iio 3 \\/ Ioi 5"


def test_fold_declines_oversized_results():
    # 10^3000 (9966 bits) folds; the product (19932 bits) stays a node
    # and prints
    prod = normalize(t("10^3000 * 10^3000", expected=INT))
    assert isinstance(prod, App) and prod.op == "mul"
    assert all(isinstance(a, Lit) for a in prod.args)
    assert print_term(prod) == f"{10 ** 3000} * {10 ** 3000}"
    assert isinstance(normalize(t("2^4096^4096", expected=INT)), App)


# -- the bounded memo ----------------------------------------------------

MEMO_INPUTS = [
    "2 + 3 * 4", "(fun (y : Int) => y + 1) 4", "x + (2 - 2)",
    "3 in Icc 1 5", "x in {y : Int | y = 1 \\/ y = 2}",
    "forall (y : Int), (fun (z : Int) => z * 2) y = y + y",
    "card (range 1 4) = 4", "(1 : Rat) / 3 + 1 / 6 = 1 / 2",
]


@pytest.mark.parametrize("text", MEMO_INPUTS)
def test_memoized_normal_forms_equal_the_uncached_ones(text):
    tele = Telescope((LocalDecl("x", INT),))
    term = t(text, tele)
    for _ in range(2):                  # a miss, then a hit
        assert normalize(term) == norm_reference(term, unfold=True)
        assert fold_literals(term) == norm_reference(term, unfold=False)
    # an equal term built separately hits the same entry
    assert normalize(t(text, tele)) is normalize(term)


def test_memo_stays_within_its_bound():
    for memo in (normalize, fold_literals):
        for k in range(3 * NORM_MEMO_ENTRIES):
            memo(mk_app("add", (mk_lit(k, INT), mk_lit(1, INT))))
        assert memo.cache_info().currsize == NORM_MEMO_ENTRIES


# -- the memo on the node ------------------------------------------------

def renamed_apart(term, suffix):
    """`term` with each free variable renamed by `suffix`: none of its
    open subterms was built, so none was normalized, before."""
    for v in {s for s in subterms(term) if isinstance(s, Var)}:
        term = substitute(term, v.name, mk_var(v.name + suffix, v.sort))
    return term


MEMOS = [(normalize, True, "_nf_memo"), (fold_literals, False, "_fold_memo")]


@pytest.mark.parametrize("memo, unfold, slot", MEMOS)
def test_memo_on_the_node_equals_the_reference(fuzzer, rng, memo, unfold,
                                               slot):
    for i in range(150):
        base = fuzzer.term(3)
        # cold: the node and its open subterms were never normalized
        term = renamed_apart(base, f"_cold{slot}{i}")
        if free_vars(term):
            assert getattr(term, slot) is None
        want = norm_reference(term, unfold)
        assert memo(term) is want
        # warm: through the LRU table, then through the slot alone
        assert memo(term) is want
        assert _norm(term, unfold) is want
        # after one of its subterms was normalized first
        term = renamed_apart(base, f"_sub{slot}{i}")
        sub = rng.choice(list(subterms(term)))
        assert memo(sub) is norm_reference(sub, unfold)
        assert memo(term) is norm_reference(term, unfold)
        # a normal form is its own
        assert memo(memo(term)) is memo(term)


def test_the_memo_makes_no_reference_cycle():
    # with the cyclic collector off, reference counting alone must take a
    # term and both of its normal forms out of the intern table
    name = "held_only_here"
    gc.disable()
    try:
        x = mk_var(name, INT)
        term = mk_atom("mem", (x, mk_app("Icc", (
            mk_app("add", (mk_lit(1, INT), mk_lit(2, INT))), x))))
        nf, folded = normalize(term), fold_literals(term)
        assert print_term(nf) == f"3 <= {name} /\\ {name} <= {name}"
        assert print_term(folded) == f"{name} in Icc 3 {name}"
        refs = [weakref.ref(s) for s in (term, nf, folded)]
        del x, term, nf, folded
        normalize.cache_clear()
        fold_literals.cache_clear()
        assert all(r() is None for r in refs)
        assert not any(isinstance(v, Term) and name in free_vars(v)
                       for v in list(_INTERNED.values()))
    finally:
        gc.enable()
