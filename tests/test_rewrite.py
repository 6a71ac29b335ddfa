"""Rewriting: the tactic, the lemma library, and bounded rewrite search."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import STD_TELE, TermFuzzer
from holebox.expr import (
    INT, NUMERIC, LocalDecl, Meta, PROP, REAL, Telescope, children,
    instantiate_metas, mk_app, mk_atom, mk_conn, mk_lit, mk_meta, mk_var,
    fn, set_of, subterms,
)
from holebox.fps import session_init
from holebox.kernel import (
    Certificate, CertificateError, Goal, SolutionState, TacticFailed,
    TraceStep, apply_tactic, replay_step, revalidate,
)
from holebox.norm import normalize
from holebox.syntax import ParseError, parse_problem, parse_term, print_term
from holebox.tactics.auto import _SIMP_ROUNDS, _simp
from holebox.tactics.decide import DEFAULT_BUDGET
from holebox.tactics import rewrite
from holebox.tactics.rewrite import (
    LemmaLibrary, NoMatch, RewriteLemma, RuleDispatch, SearchExhausted,
    SubtermIndex, _hyp_rules, _searchable, _try_close, apply_rule,
    default_library, first_rewrite, load_lemma_library, match,
    parse_lemma_line, revalidate_rw_search, rewrite_at, rule_from_prop,
    set_default_library,
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


NICKELS = {"format_version": "1", "framework": "fps",
           "vars": [["d", "Int"], ["n", "Int"]], "queriable": ["a", "Int"],
           "hypotheses": [["h2", "d + n = 11"]], "conclusions": ["n = a"]}


def test_rewrite_citing_a_pending_hole_fails():
    # a pending `?w` in the rule would match as a pattern variable, so
    # `rewrite hr ?w` would rewrite `n`, the first subterm, not the hole
    state = session_init(parse_problem(NICKELS)).state
    for tactic, arg in (("have", "hr : forall (k : Int), k = n + (k - n)"),
                        ("intro", "k"), ("linear_arith", ""),
                        ("have", "hx : ?w = 7")):
        state = apply_tactic(state, None, tactic, arg)
    for arg in ("hr ?w", "hx", "<- hx"):
        with pytest.raises(TacticFailed, match="holds a hole"):
            apply_tactic(state, "h", "rewrite", arg)
    # once assigned, `?w` reads as its value
    filled = apply_tactic(state, "w", "exact", "7")
    out = apply_tactic(filled, "h", "rewrite", "hr ?w")
    assert print_term(out.goal("h").concl) == "n = n + (7 - n)"


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


@pytest.mark.parametrize("line, message", [
    ("no colon here", "malformed lemma line"),
    ("bare : ?x + 0", "lemma 'bare' has no rewrite arrow"),
    ("bad : ?x + True <-> ?x", "lemma 'bad' does not elaborate at any sort"),
    ("format_version: 2", "unsupported lemma library version '2'"),
], ids=["no-colon", "no-arrow", "ill-sorted", "version"])
def test_malformed_lemma_library_rejected(line, message):
    with pytest.raises(ParseError, match=message):
        load_lemma_library(f"format_version: 1\n{line}\n")


def test_a_ground_lemma_has_one_instance_and_sides_are_read():
    assert len(parse_lemma_line("two : 1 + 1 <-> 2")) == 1
    (div_self, *_) = parse_lemma_line("div_self : ?x / ?x <-> 1 if ?x != 0")
    assert [print_term(s) for s in div_self.sides] == ["?x != 0"]


@pytest.mark.parametrize("lemma", [
    "pad : ?x <-> ?x + ?y",                      # ?y unbound in the target
    "guarded : ?x / ?x <-> 1 if ?y != 0",        # and in the guard
    "div_self : ?x / ?x <-> 1 if ?x != 0",       # the guard holds ?w
])
def test_a_rule_that_cannot_fill_a_guard_or_its_target_does_not_rewrite(
        lemma):
    lib = load_lemma_library(f"format_version: 1\n{lemma}\n")
    bundled = default_library()
    tele = Telescope((LocalDecl("x", INT),))
    st = SolutionState(goals=(Goal("h", tele, parse_term(
        "x = ?w / ?w", tele, PROP, metas={"w": INT})),))
    try:
        set_default_library(lib)
        with pytest.raises(NoMatch, match="does not match"):
            apply_tactic(st, "h", "rewrite", lemma.split()[0])
    finally:
        set_default_library(bundled)


def test_rw_search_closes_no_rewrite_that_is_no_equation():
    # `even_iff_mod` backward turns `x % 2 = 0` into `even x`, which no
    # closer takes
    st = setup_state("x % 2 = 0", [], (LocalDecl("x", INT),))
    with pytest.raises(SearchExhausted):
        apply_tactic(st, "h", "rw_search", "1")


def test_rewrite_matches_under_a_binder_and_set_literals_by_length():
    n, x = LocalDecl("n", INT), LocalDecl("x", INT)
    st = setup_state("(sum k in Icc 1 n, k) = n /\\ "
                     "card {x, n, 1} = card {x, n}",
                     [("hs", "(sum k in Icc 1 n, k) = 2 * n"),
                      ("hc", "card {x, n} = 2")], (n, x))
    out = apply_tactic(apply_tactic(st, "h", "rewrite", "hs"), "h",
                       "rewrite", "hc")
    assert print_term(out.goals[0].concl) == \
        "2 * n = n /\\ card {x, n, 1} = 2"


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
    cert = Certificate("rw_search", goal, {"path": [],
                                           "closer": ("rfl", {})})
    with pytest.raises(CertificateError):
        revalidate_rw_search(cert)


# ---------------------------------------------------------------------------
# The head index against a reference walk


def reference_occurrences(t, pat):
    """`match` tried at every subterm, leftmost-innermost."""
    for k in children(t):
        yield from reference_occurrences(k, pat)
    sub = {}
    if match(pat, t, sub):
        yield sub


def _instance(pat, fuzzer):
    """`pat` with its pattern variables replaced by random terms, or None
    when one of them has a sort the fuzzer does not build."""
    sub = {}
    for m in subterms(pat):
        if not isinstance(m, Meta) or m.mid in sub:
            continue
        if m.sort in NUMERIC:
            sub[m.mid] = fuzzer.numeric(m.sort, 2)
        elif m.sort == set_of(INT):
            sub[m.mid] = mk_var("S", m.sort)
        else:
            return None
    return instantiate_metas(pat, sub)


def _embed(inst, fuzzer):
    """A term with `inst` at two positions among random subterms."""
    if inst.sort == PROP:
        return mk_conn("and", (mk_conn("or", (fuzzer.prop(2), inst)), inst))
    if inst.sort in NUMERIC:
        return mk_atom("le", (inst, mk_app("add", (
            inst, fuzzer.numeric(inst.sort, 2)))))
    return mk_atom("eq", (inst, inst))


# rules from local hypotheses: a Var left side, a Lit left side, and a
# guarded one
HYP_RULES = [
    RewriteLemma("hv", mk_var("x", INT), mk_lit(3, INT), True),
    RewriteLemma("hl", mk_lit(0, INT), mk_var("y", INT), True),
    rule_from_prop("hg", parse_term(
        "forall (m : Int), 0 < m -> m * 1 = m", STD_TELE, PROP)),
]


def _all_rules():
    return [(r, back) for r in (*default_library(), *HYP_RULES)
            for back in (False, True)]


def _terms(seed, embedded=None):
    """A random term, one with a hole, and random instances of rule sides
    (`embedded` of them, or every one) placed in random terms."""
    rng = random.Random(seed)
    fuzzer = TermFuzzer(rng)
    sides = [r.rhs if back else r.lhs for r, back in _all_rules()]
    if embedded is not None:
        sides = rng.sample(sides, embedded)
    out = [fuzzer.term(3),
           mk_atom("eq", (mk_meta("w", INT), fuzzer.numeric(INT, 2)))]
    for side in sides:
        inst = _instance(side, fuzzer)
        if inst is not None:
            out.append(_embed(inst, fuzzer))
    return out


def _check_occurrences(terms):
    matched = []
    for t in terms:
        for rule, back in _all_rules():
            pat = rule.rhs if back else rule.lhs
            subs = list(SubtermIndex(t).occurrences(pat))
            assert subs == list(reference_occurrences(t, pat))
            matched.append(len(subs))
    return matched


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 2**32))
def test_indexed_occurrences_equal_reference_walk(seed):
    _check_occurrences(_terms(seed, embedded=6))


def test_indexed_occurrences_on_every_rule_side():
    # every rule side, instantiated, is found where it was placed: the
    # comparison above is not between two empty lists
    matched = _check_occurrences(_terms(20250810))
    assert sum(matched) > 1000 and max(matched) >= 4


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.integers(0, 2**32))
def test_apply_rule_rewrites_at_the_kth_match(seed):
    for t in _terms(seed, embedded=4):
        for rule, back in _all_rules():
            subs = list(reference_occurrences(t, rule.rhs if back
                                              else rule.lhs))
            at = [rewrite_at(t, rule, back, sub) for sub in subs]
            for k, new in enumerate(at, 1):
                assert apply_rule(t, rule, back, k) == new
            assert apply_rule(t, rule, back, len(subs) + 1) is None
            assert apply_rule(t, rule, back, 0) is None
            first = next((new for new in at if new is not None), None)
            assert apply_rule(t, rule, back) == first


# ---------------------------------------------------------------------------
# Rule dispatch against the loop over every rule


def _has_occurrence(index, rule, back):
    return next(index.occurrences(rule.rhs if back else rule.lhs),
                None) is not None


def _check_dispatch(dispatch, terms):
    for t in terms:
        index = SubtermIndex(t)
        got = dispatch.for_index(index)
        # in list order, and every rule left out has no occurrence
        rest = iter(dispatch.rules)
        assert all(any(rb == r for r in rest) for rb in got)
        assert [rb for rb in got if _has_occurrence(index, *rb)] \
            == [rb for rb in dispatch.rules if _has_occurrence(index, *rb)]


def _library_dispatches():
    lib = default_library()
    search = [(lem, back) for lem in lib for back in (False, True)
              if (back is False or lem.bidirectional)
              and not isinstance(lem.rhs if back else lem.lhs, Meta)]
    assert lib.simp_rules.rules == [(lem, False) for lem in lib]
    assert lib.search_rules.rules == search
    assert lib.simp_rules is lib.simp_rules     # grouped once
    # every rule in both directions, bare-variable patterns included
    return [lib.simp_rules, lib.search_rules, RuleDispatch(_all_rules())]


def reference_simp(t):
    """`auto._simp` trying every library lemma each round."""
    t = normalize(t)
    for _ in range(_SIMP_ROUNDS):
        index = SubtermIndex(t)
        for lemma in default_library():
            new = first_rewrite(index, lemma, back=False)
            if new is not None and new != t:
                t = normalize(new)
                break
        else:
            return t
    return t


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(0, 2**32))
def test_dispatch_equals_the_full_rule_loop(seed):
    terms = _terms(seed, embedded=6)
    for dispatch in _library_dispatches():
        _check_dispatch(dispatch, terms)
    for t in terms:
        assert _simp(t) == reference_simp(t)


def test_dispatch_on_every_rule_side():
    terms = _terms(20250810)
    for dispatch in _library_dispatches():
        _check_dispatch(dispatch, terms)
    simplified = [t for t in terms if _simp(t) != normalize(t)]
    assert len(simplified) > 20
    for t in terms:
        assert _simp(t) == reference_simp(t)


# ---------------------------------------------------------------------------
# Certificate stability: a path names each step's occurrence by its
# leftmost-innermost number, so the numbering is part of the format


X, Y = LocalDecl("x", REAL), LocalDecl("y", REAL)
PINNED_PATHS = [
    ("(1 + sqrt (1 + 8*n)) / 2 = (1 + (1 + 8*n)^(1/2)) / 2", [], (
        LocalDecl("n", REAL),),
     [["sqrt_eq_rpow", False, 1]]),
    ("sqrt x + sqrt y + sqrt n = sqrt x + y ^ (1/2) + n ^ (1/2)", [], (
        X, Y, LocalDecl("n", REAL)),
     [["sqrt_eq_rpow", False, 2], ["sqrt_eq_rpow", False, 2]]),
    ("sqrt x + f y + sqrt n = sqrt x + y + n ^ (1/2)", [("h1", "f y = y")],
     (F, X, Y, LocalDecl("n", REAL)),
     [["sqrt_eq_rpow", False, 2], ["h1", False, 1]]),
    ("f y + sqrt x = y + x ^ (1/2)", [("h1", "y = f y")], (F, X, Y),
     [["sqrt_eq_rpow", False, 1], ["h1", True, 1]]),
]


@pytest.mark.parametrize("concl,hyps,decls,path", PINNED_PATHS,
                         ids=["golden-sqrt", "third-of-three", "lemma-hyp",
                              "backward-hyp"])
def test_rw_search_certificate_paths_pinned(concl, hyps, decls, path):
    st_ = setup_state(concl, hyps, decls)
    cert = apply_tactic(st_, "h", "rw_search", "").trace[-1].cert
    assert [[rule.name, back, occ] for rule, back, occ
            in cert.detail["path"]] == path
    assert cert.detail["closer"] == ("rfl", {})
    revalidate_rw_search(cert)


def test_rw_search_step_replays_the_rule_it_applied():
    # a hypothesis may share a library lemma's name: the step holds the
    # hypothesis' rule, and replays it, not the lemma of that name
    from dataclasses import replace
    n = LocalDecl("n", INT)
    st_ = setup_state("n + 1 = 3", [("add_zero", "n = 2")], (n,))
    cert = apply_tactic(st_, "h", "rw_search", "").trace[-1].cert
    [[rule, back, occ]] = cert.detail["path"]
    assert (rule.name, back, occ) == ("add_zero", False, 1)
    assert rule not in default_library().lemmas
    revalidate_rw_search(cert)
    # in a context without that hypothesis the rule is neither a lemma
    # nor a hypothesis' rule, though the path would replay and close
    bare = Goal("h", Telescope((n,)), cert.goal.concl)
    with pytest.raises(CertificateError, match="no lemma or hypothesis"):
        revalidate_rw_search(replace(cert, goal=bare))


def test_rw_search_certificate_checks_its_assignment():
    # an assigning rw_search certificate holds only when the replayed
    # conclusion is `?hole = t` and t evaluates to the stored value
    from dataclasses import replace
    tele = Telescope((LocalDecl("x", INT),))
    open_goal = Goal("h", tele, parse_term("x = 1", tele, PROP))
    eval_closer = ("eval_decide", {"budget": DEFAULT_BUDGET})
    forged = Certificate("rw_search", open_goal, {
        "path": [], "closer": eval_closer}, (("w", mk_lit(1)),))
    with pytest.raises(CertificateError):
        revalidate_rw_search(forged)
    hole_goal = Goal("h", Telescope(), parse_term(
        "?w = 2 + 3", Telescope(), PROP, metas={"w": INT}))
    state = SolutionState(goals=(hole_goal, Goal("w", Telescope(), INT)))
    cert = apply_tactic(state, "h", "rw_search", "").trace[-1].cert
    assert cert.detail["closer"] == eval_closer
    assert cert.assigns == (("w", mk_lit(5)),)
    revalidate_rw_search(cert)
    # the closer fills the step's holes, so its own check rejects
    # another value, another hole, no fill, and a closer that fills none
    for forged in (replace(cert, assigns=(("w", mk_lit(6)),)),
                   replace(cert, assigns=(("v", mk_lit(5)),)),
                   replace(cert, assigns=()),
                   replace(cert, detail={**cert.detail,
                                         "closer": ("rfl", {})})):
        with pytest.raises(CertificateError):
            revalidate_rw_search(forged)


@pytest.mark.parametrize("tamper, match", [
    ("hole-goal", "rw_search on a hole goal"),
    ("occurrence", "step 'add_zero' fails to replay"),
], ids=["hole-goal", "occurrence"])
def test_replaying_a_tampered_rw_search_step_is_rejected(tamper, match):
    # the replay checks the recorded certificate, not the search: a goal
    # that is a hole's, or a step at an occurrence the rule does not
    # have, is rejected though the line agrees with the certificate
    from dataclasses import replace
    st_ = setup_state("x + 0 = x", [], (LocalDecl("x", INT),))
    cert = apply_tactic(st_, "h", "rw_search", "").trace[-1].cert
    [[rule, back, occ]] = cert.detail["path"]
    replay_step(st_, TraceStep("h", "rw_search", "", cert))
    if tamper == "hole-goal":
        forged = replace(cert, goal=Goal("h", cert.goal.ctx, INT))
    else:
        forged = replace(cert, detail={**cert.detail,
                                       "path": [[rule, back, occ + 1]]})
    with pytest.raises(CertificateError, match=match):
        replay_step(st_, TraceStep("h", "rw_search", "", forged))


@pytest.mark.parametrize("tactic", ["ring_nf", "auto"])
def test_rw_search_closer_is_rfl_or_eval_decide(tactic):
    # the closer of an empty path closes the step's own goal; another
    # kind that closes it too is still not a closer rw_search may name
    from dataclasses import replace
    st_ = setup_state("x = x", [], (LocalDecl("x", INT),))
    cert = apply_tactic(st_, "h", "rw_search", "").trace[-1].cert
    assert cert.detail["path"] == []
    other = apply_tactic(st_, "h", tactic, "").trace[-1].cert
    revalidate(other)
    with pytest.raises(CertificateError, match="neither rfl nor eval_decide"):
        revalidate_rw_search(replace(cert, detail={
            **cert.detail, "closer": (tactic, other.detail)}))


@pytest.mark.parametrize("concl,key,forged", [
    ("?w = 2 + 3", "assigns", (("w", mk_lit(6)),)),
    ("card {k : Int | 0 <= k /\\ k <= 9} = 10", "budget", 5),
], ids=["eval-assigned", "eval-budget"])
def test_rw_search_rejects_a_tampered_closer_detail(concl, key, forged):
    # the eval_decide closer fills the step's holes and evaluates under
    # the budget its detail names
    from dataclasses import replace
    tele = Telescope((LocalDecl("n", REAL),))
    goal = Goal("h", tele, parse_term(concl, tele, PROP, metas={"w": INT}))
    holes = (Goal("w", tele, INT),) if "?w" in concl else ()
    state = SolutionState(goals=(goal,) + holes)
    cert = apply_tactic(state, "h", "rw_search", "").trace[-1].cert
    kind, detail = cert.detail["closer"]
    assert kind == "eval_decide"
    revalidate_rw_search(cert)
    if key == "assigns":
        assert cert.assigns == (("w", mk_lit(5)),)
        tampered = replace(cert, assigns=forged)
    else:
        tampered = replace(cert, detail={
            **cert.detail, "closer": (kind, {**detail, key: forged})})
    with pytest.raises(CertificateError):
        revalidate_rw_search(tampered)


# ---------------------------------------------------------------------------
# The failure memo of rw_search_term, against the search without it


def reference_rw_search(concl, goal, pending, max_depth):
    """`rw_search_term` without its failure memo: BFS from scratch."""
    library = default_library().search_rules
    hyps = _hyp_rules(goal)
    local = RuleDispatch(_searchable(
        [(rule, False) for rule in hyps] + [(rule, True) for rule in hyps]))
    seen = {concl}
    frontier = [(concl, ())]
    nodes = 0
    for depth in range(max_depth + 1):
        for term, path in frontier:
            hit = _try_close(term, pending)
            if hit is not None:
                return (path, *hit)
        if depth == max_depth:
            break
        nxt = []
        for term, path in frontier:
            index = SubtermIndex(term)
            for rule, back in library.for_index(index) \
                    + local.for_index(index):
                pat = rule.rhs if back else rule.lhs
                for occ, sub in enumerate(index.occurrences(pat), 1):
                    new = rewrite_at(term, rule, back, sub)
                    if new is None or new == term or new in seen:
                        continue
                    seen.add(new)
                    nodes += 1
                    if nodes > rewrite.RW_SEARCH_NODES:
                        return None
                    nxt.append((new, path + ((rule, back, occ),)))
        frontier = nxt
        if not frontier:
            break
    return None


XI, YI, XR = LocalDecl("x", INT), LocalDecl("y", INT), LocalDecl("x", REAL)

# (conclusion, hypotheses, declarations): searches that close at depth
# 0, 1 or 2, fail at every depth on an empty frontier, or fail at each
# depth they reach; each is searched with and without its hypotheses
MEMO_GOALS = [
    ("x = y", [("h", "x = x + 0")], (XI, YI)),
    ("x * 1 = y + 0", [("h", "y = x * 1")], (XI, YI)),
    ("x + 1 = 3", [("h", "x = 2")], (XI,)),
    ("?w = x + 0", [("h", "x = 2")], (XI,)),
    ("?w = 2 + 3", [], ()),
    ("f (f 9) = 0", [("h9", "f 9 = 3"), ("h3", "f 3 = 0")], (F,)),
    ("sqrt x + sqrt y + sqrt n = sqrt x + y ^ (1/2) + n ^ (1/2)", [],
     (X, Y, LocalDecl("n", REAL))),
    ("f (x + 0) * 1 = f x + 1", [], (F, XR)),
    ("x = 1", [], (XI,)),
]


def memo_goal(concl, hyps, decls):
    tele = Telescope(tuple(decls))
    for name, text in hyps:
        tele = tele.extended(
            LocalDecl(name, PROP, prop=parse_term(text, tele, PROP)))
    return Goal("h", tele, parse_term(concl, tele, PROP, metas={"w": INT}))


@pytest.fixture
def fresh_memo():
    rewrite._FAILED.clear()
    yield rewrite._FAILED
    rewrite._FAILED.clear()


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 2**32))
def test_failure_memo_answers_as_the_search_without_it(seed):
    # a sequence of searches mixing depths, contexts and pending holes
    # returns what each search would return from scratch
    rng = random.Random(seed)
    goals = [memo_goal(c, h if with_hyps else [], d)
             for c, h, d in MEMO_GOALS for with_hyps in (True, False)]
    rewrite._FAILED.clear()
    try:
        for _ in range(12):
            goal = rng.choice(goals)
            pending = rng.choice((frozenset(), frozenset({"w"})))
            depth = rng.randint(0, 6)
            assert rewrite.rw_search_term(goal.concl, goal, pending, depth) \
                == reference_rw_search(goal.concl, goal, pending, depth)
    finally:
        rewrite._FAILED.clear()


def _no_index(t):
    raise AssertionError("searched although the memo holds the failure")


def test_failure_memo_answers_a_shallower_call(fresh_memo, monkeypatch):
    goal = memo_goal(*MEMO_GOALS[0])
    assert rewrite.rw_search_term(goal.concl, goal, frozenset(), 6) is None
    assert list(fresh_memo.values()) == [6]
    monkeypatch.setattr(rewrite, "SubtermIndex", _no_index)
    assert rewrite.rw_search_term(goal.concl, goal, frozenset(), 3) is None


def test_failure_memo_on_an_empty_frontier_answers_deeper(fresh_memo,
                                                           monkeypatch):
    goal = memo_goal(*MEMO_GOALS[-1])
    assert rewrite.rw_search_term(goal.concl, goal, frozenset(), 2) is None
    assert list(fresh_memo.values()) == [math.inf]
    monkeypatch.setattr(rewrite, "SubtermIndex", _no_index)
    assert rewrite.rw_search_term(goal.concl, goal, frozenset(), 6) is None


def test_failure_memo_on_the_node_cap_answers_deeper(fresh_memo,
                                                     monkeypatch):
    # under a cap of 2 nodes the first level overflows; under the usual
    # cap this search closes at depth 2
    goal = memo_goal(*MEMO_GOALS[1])
    monkeypatch.setattr(rewrite, "RW_SEARCH_NODES", 2)
    assert rewrite.rw_search_term(goal.concl, goal, frozenset(), 1) is None
    assert list(fresh_memo.values()) == [math.inf]
    with monkeypatch.context() as m:
        m.setattr(rewrite, "SubtermIndex", _no_index)
        assert rewrite.rw_search_term(goal.concl, goal, frozenset(), 6) \
            is None
    assert reference_rw_search(goal.concl, goal, frozenset(), 6) is None


def test_failure_memo_does_not_answer_a_deeper_call(fresh_memo, monkeypatch):
    goal = memo_goal(*MEMO_GOALS[0])
    assert rewrite.rw_search_term(goal.concl, goal, frozenset(), 3) is None
    built = []
    monkeypatch.setattr(rewrite, "SubtermIndex",
                        lambda t: built.append(t) or SubtermIndex(t))
    assert rewrite.rw_search_term(goal.concl, goal, frozenset(), 6) is None
    assert built
    assert list(fresh_memo.values()) == [6]
    # a search that fails at depth 1 still closes at depth 2
    goal = memo_goal(*MEMO_GOALS[6])
    assert rewrite.rw_search_term(goal.concl, goal, frozenset(), 1) is None
    path, _, _ = rewrite.rw_search_term(goal.concl, goal, frozenset(), 2)
    assert [rule.name for rule, _, _ in path] == ["sqrt_eq_rpow"] * 2


def test_failure_memo_follows_the_default_library(fresh_memo, monkeypatch):
    goal = memo_goal("sqrt x = x ^ (1/2)", [], (XR,))
    bundled, empty = default_library(), LemmaLibrary()
    try:
        set_default_library(empty)
        assert rewrite.rw_search_term(goal.concl, goal, frozenset()) is None
        set_default_library(bundled)
        path, _, _ = rewrite.rw_search_term(goal.concl, goal, frozenset())
        assert [rule.name for rule, _, _ in path] == ["sqrt_eq_rpow"]
        set_default_library(empty)
        monkeypatch.setattr(rewrite, "SubtermIndex", _no_index)
        assert rewrite.rw_search_term(goal.concl, goal, frozenset()) is None
    finally:
        set_default_library(bundled)


def test_failure_memo_keeps_no_success(fresh_memo):
    for concl, hyps, decls in MEMO_GOALS[1:3]:
        goal = memo_goal(concl, hyps, decls)
        assert rewrite.rw_search_term(goal.concl, goal, frozenset()) \
            is not None
    assert not fresh_memo


def test_failure_memo_drops_the_least_recently_used(fresh_memo, monkeypatch):
    monkeypatch.setattr(rewrite, "RW_SEARCH_MEMO_ENTRIES", 2)
    a, b, c = (memo_goal(*MEMO_GOALS[i]) for i in (0, 7, 8))
    for goal in (a, b, a, c):
        assert rewrite.rw_search_term(goal.concl, goal, frozenset()) is None
    assert [key[0] for key in fresh_memo] == [a.concl, c.concl]
