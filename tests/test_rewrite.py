"""Rewriting: the tactic, the lemma library, and bounded rewrite search."""

import pytest

from holebox.expr import INT, LocalDecl, PROP, REAL, Telescope, fn
from holebox.kernel import (
    Certificate, CertificateError, Goal, SolutionState, apply_tactic,
    goal_blob,
)
from holebox.syntax import ParseError, parse_term, print_term
from holebox.tactics.rewrite import (
    NoMatch, SearchExhausted, default_library, load_lemma_library,
    parse_lemma_line, revalidate_rw_search,
)


def setup_state(concl, named_props, var_decls=()):
    tele = Telescope(tuple(var_decls))
    for name, text in named_props:
        tele = tele.extended(
            LocalDecl(name, PROP, prop=parse_term(text, tele, PROP)))
    return SolutionState(goals=(
        Goal("h", tele, parse_term(concl, tele, PROP)),))


F = LocalDecl("f", fn(REAL, REAL))


def test_rewrite_with_hypothesis():
    st = setup_state("f (f 9) = 0",
                     [("h9", "f 9 = 3"), ("h3", "f 3 = 0")], (F,))
    out = apply_tactic(st, "h", "rewrite", "h9")
    assert print_term(out.goals[0].concl) == "f 3 = 0"
    out = apply_tactic(out, "h", "rewrite", "h3")
    assert print_term(out.goals[0].concl) == "0 = 0"


def test_rewrite_reverse_direction():
    st = setup_state("f 9 = 3", [("h2", "g 3 = 9")],
                     (F, LocalDecl("g", fn(REAL, REAL))))
    out = apply_tactic(st, "h", "rewrite", "<- h2")
    assert print_term(out.goals[0].concl) == "f (g 3) = 3"


def test_rewrite_with_lemma():
    st = setup_state("sqrt (1 + 8) = (1 + 8) ^ (1/2)", [])
    out = apply_tactic(st, "h", "rewrite", "sqrt_eq_rpow")
    out = apply_tactic(out, "h", "rfl", "")
    assert not out.goals


def test_rewrite_no_match():
    st = setup_state("f 2 = f 2", [("h9", "f 9 = 3")], (F,))
    with pytest.raises(NoMatch):
        apply_tactic(st, "h", "rewrite", "h9")


def test_rewrite_quantified_hypothesis_with_guard():
    f = LocalDecl("f", fn(__import__("holebox.expr",
                                     fromlist=["NAT"]).NAT,
                          __import__("holebox.expr",
                                     fromlist=["RAT"]).RAT))
    st = setup_state(
        "f 9 = f 7 + 2",
        [("h2", "forall (m : Nat), 1 < m /\\ odd m -> f m = f (m - 2) + 2")],
        (f,))
    out = apply_tactic(st, "h", "rewrite", "h2")
    assert print_term(out.goals[0].concl) == "f 7 + 2 = f 7 + 2"


# The bundled library in load order: (name, lhs, rhs, sort instances).
BUNDLED_LEMMAS = [
    ("sqrt_eq_rpow", "sqrt ?x", "?x ^ (1 / 2)", 1),
    ("add_zero", "?x + 0", "?x", 4),
    ("zero_add", "0 + ?x", "?x", 4),
    ("mul_one", "?x * 1", "?x", 4),
    ("one_mul", "1 * ?x", "?x", 4),
    ("abs_le", "abs ?x <= ?c", "0 - ?c <= ?x /\\ ?x <= ?c", 4),
    ("abs_lt", "abs ?x < ?c", "0 - ?c < ?x /\\ ?x < ?c", 4),
    ("mem_union", "?x in (?A \\/ ?B)", "?x in ?A \\/ ?x in ?B", 4),
    ("mem_inter", "?x in (?A /\\ ?B)", "?x in ?A /\\ ?x in ?B", 4),
    ("mem_Iio", "?x in Iio ?a", "?x < ?a", 4),
    ("mem_Ioi", "?x in Ioi ?a", "?a < ?x", 4),
    ("mem_Icc", "?x in Icc ?a ?b", "?a <= ?x /\\ ?x <= ?b", 4),
    ("dvd_iff_mod", "?m dvd ?x", "?x % ?m = 0", 2),
    ("even_iff_mod", "even ?x", "?x % 2 = 0", 2),
    ("odd_iff_mod", "odd ?x", "?x % 2 = 1", 2),
    ("and_or_left", "?a /\\ (?b \\/ ?c)", "?a /\\ ?b \\/ ?a /\\ ?c", 4),
    ("or_and_right", "(?a \\/ ?b) /\\ ?c", "?a /\\ ?c \\/ ?b /\\ ?c", 4),
]


def test_lemma_library_loads_and_versions():
    lib = default_library()
    names = {l.name for l in lib}
    assert {"sqrt_eq_rpow", "add_zero", "mem_union", "abs_le",
            "dvd_iff_mod"} <= names
    # radical factoring is deliberately absent
    assert not any("sqrt_mul" in n or "sqrt_sq" in n for n in names)
    # every sort instance that elaborates is kept, in order
    assert [(l.name, print_term(l.lhs), print_term(l.rhs)) for l in lib] \
        == [(name, lhs, rhs) for name, lhs, rhs, n in BUNDLED_LEMMAS
            for _ in range(n)]
    assert len(lib.lemmas) == 59
    with pytest.raises(ParseError):
        load_lemma_library("add_zero : ?x + 0 <-> ?x\n")   # no version line


def test_lemma_line_sort_instances():
    lemmas = parse_lemma_line("add_zero : ?x + 0 <-> ?x")
    sorts = {l.lhs.sort.kind for l in lemmas}
    assert sorts == {"Nat", "Int", "Rat", "Real"}


def test_rw_search_closes_sqrt_pair():
    n = LocalDecl("n", REAL)
    st = setup_state("(1 + sqrt (1 + 8*n)) / 2 = (1 + (1 + 8*n)^(1/2)) / 2",
                     [], (n,))
    out = apply_tactic(st, "h", "rw_search", "")
    assert not out.goals


def test_rw_search_exhausts_on_radical_factoring():
    st = setup_state("sqrt 180 / 2 = 3 * sqrt 5", [])
    with pytest.raises(SearchExhausted):
        apply_tactic(st, "h", "rw_search", "")


def test_rw_search_depth_zero_reflexivity():
    st = setup_state("(2 : Int) + 2 = 4", [])
    out = apply_tactic(st, "h", "rw_search", "0")
    assert not out.goals


def test_rw_search_deterministic_trace():
    n = LocalDecl("n", REAL)

    def run():
        st = setup_state(
            "(1 + sqrt (1 + 8*n)) / 2 = (1 + (1 + 8*n)^(1/2)) / 2",
            [], (n,))
        out = apply_tactic(st, "h", "rw_search", "")
        return out.trace[-1].cert.detail["path"]

    assert run() == run()


@pytest.mark.parametrize("concl", ["x = 1 /\\ x = 1", "x < x"])
def test_rw_search_certificate_closes_only_equations(concl):
    # an rfl closer compares the two sides of an equation or iff; the
    # arguments of any other connective or relation are not sides
    tele = Telescope((LocalDecl("x", INT),))
    goal = Goal("h", tele, parse_term(concl, tele, PROP))
    cert = Certificate("rw_search", {
        "goal": goal_blob(goal), "path": [], "closer": "rfl",
        "assigned": {}})
    with pytest.raises(CertificateError):
        revalidate_rw_search(cert)
