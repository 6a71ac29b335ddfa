"""Structural tactic behaviour on handcrafted goals."""

import pytest

from holebox.expr import INT, LocalDecl, NAT, PROP, REAL, Telescope
from holebox.kernel import (
    Goal, SolutionState, TacticFailed, apply_tactic,
)
from holebox.syntax import parse_term, print_term


def goal_state(text, decls=(), case="h"):
    tele = Telescope(tuple(decls))
    concl = parse_term(text, tele, PROP)
    return SolutionState(goals=(Goal(case, tele, concl),))


def the_goal(state, case="h"):
    return state.goal(case)


def test_intro_forall():
    st = goal_state("forall (x : Int), x = x")
    out = apply_tactic(st, "h", "intro", "x")
    g = the_goal(out)
    assert g.ctx.names() == ("x",)
    assert print_term(g.concl) == "x = x"


def test_intro_implication():
    st = goal_state("1 = 1 -> 2 = 2")
    out = apply_tactic(st, "h", "intro", "hp")
    g = the_goal(out)
    assert g.ctx.lookup("hp").prop is not None
    assert print_term(g.concl) == "2 = 2"


def test_intro_fails_on_atom():
    st = goal_state("3 = 3")
    with pytest.raises(TacticFailed):
        apply_tactic(st, "h", "intro", "")


def test_exists_intro_creates_coupled_hole():
    st = goal_state("exists (a : Real), a^2 - 1 = 0")
    out = apply_tactic(st, "h", "exists_intro", "")
    assert [g.case for g in out.goals] == ["h", "a"]
    assert print_term(the_goal(out).concl) == "?a ^ 2 - 1 = 0"
    assert out.goal("a").concl == REAL


def test_exists_intro_fails_on_forall():
    st = goal_state("forall (a : Int), a = a")
    with pytest.raises(TacticFailed):
        apply_tactic(st, "h", "exists_intro", "")


def test_iff_split_names():
    st = goal_state("1 = 1 <-> 2 = 2")
    out = apply_tactic(st, "h", "iff_split", "")
    assert [g.case for g in out.goals] == ["h.mp", "h.mpr"]
    assert print_term(out.goal("h.mp").concl) == "1 = 1 -> 2 = 2"
    assert print_term(out.goal("h.mpr").concl) == "2 = 2 -> 1 = 1"


def test_iff_split_rejects_conjunction():
    st = goal_state("1 = 1 /\\ 2 = 2")
    with pytest.raises(TacticFailed):
        apply_tactic(st, "h", "iff_split", "")


def test_exact_hypothesis():
    x = LocalDecl("x", INT)
    h = LocalDecl("h", PROP, prop=parse_term(
        "x = 3", Telescope((x,)), PROP))
    st = goal_state("x = 3", (x, h))
    out = apply_tactic(st, "h", "exact", "h")
    assert not out.goals


def test_exact_mismatch():
    x = LocalDecl("x", INT)
    h = LocalDecl("h", PROP, prop=parse_term("x = 3", Telescope((x,)), PROP))
    st = goal_state("x = 4", (x, h))
    with pytest.raises(TacticFailed):
        apply_tactic(st, "h", "exact", "h")


def test_exact_with_instantiation_args():
    from holebox.expr import NAT, RAT, fn
    s = LocalDecl("s", fn(NAT, RAT))
    tele = Telescope((s,))
    h0 = LocalDecl("h0", PROP, prop=parse_term(
        "forall (m : Nat), s (m + 2) = s (m + 1) + s m", tele, PROP))
    st = goal_state("s 9 = s 8 + s 7", (s, h0))
    out = apply_tactic(st, "h", "exact", "h0 7")
    assert not out.goals


def test_rfl_definitional():
    st = goal_state("(3 : Nat) = 2 + 1")
    out = apply_tactic(st, "h", "rfl", "")
    assert not out.goals


def test_rfl_real_opaque():
    st = goal_state("(2 + 1 : Real) = 1 + 2")
    with pytest.raises(TacticFailed):
        apply_tactic(st, "h", "rfl", "")


def test_rfl_interval_unfolding():
    st = goal_state("Iio ((-4/3 : Real)) = {x : Real | x < -4/3}")
    out = apply_tactic(st, "h", "rfl", "")
    assert not out.goals


def test_have_then_exact():
    st = goal_state("1 = 1")
    out = apply_tactic(st, "h", "have", "k : 2 + 2 = 4")
    assert [g.case for g in out.goals] == ["h.k", "h"]
    out = apply_tactic(out, "h.k", "eval_decide", "")
    out = apply_tactic(out, "h", "rfl", "")
    assert not out.goals


def test_cases_disjunction_and_false():
    x = LocalDecl("x", INT)
    h = LocalDecl("h", PROP, prop=parse_term(
        "x = 1 \\/ x = 2", Telescope((x,)), PROP))
    st = goal_state("0 <= x", (x, h))
    out = apply_tactic(st, "h", "cases", "h")
    assert [g.case for g in out.goals] == ["h.l", "h.r"]
    assert print_term(out.goal("h.l").ctx.lookup("h").prop) == "x = 1"
    hf = LocalDecl("hf", PROP, prop=parse_term("False", Telescope(), PROP))
    st2 = goal_state("1 = 2", (hf,))
    out2 = apply_tactic(st2, "h", "cases", "hf")
    assert not out2.goals


def test_cases_conjunction_destructures():
    h = LocalDecl("h", PROP, prop=parse_term("1 = 1 /\\ 2 = 2",
                                             Telescope(), PROP))
    st = goal_state("2 = 2", (h,))
    out = apply_tactic(st, "h", "cases", "h")
    g = the_goal(out)
    assert print_term(g.ctx.lookup("h").prop) == "1 = 1"
    assert g.ctx.lookup("h.r") is not None


def test_int_cases_bounded_split():
    x = LocalDecl("x", INT)
    tele = Telescope((x,))
    lb = LocalDecl("lb", PROP, prop=parse_term("-1 <= x", tele, PROP))
    ub = LocalDecl("ub", PROP, prop=parse_term("x <= 1", tele, PROP))
    st = goal_state("x * x <= 1", (x, lb, ub))
    out = apply_tactic(st, "h", "int_cases", "x")
    assert [g.case for g in out.goals] == \
        ["h.case_1", "h.case_2", "h.case_3"]
    assert print_term(out.goal("h.case_1").concl) == "1 <= 1"
    for case in ("h.case_1", "h.case_2", "h.case_3"):
        out = apply_tactic(out, case, "eval_decide", "")
    assert not out.goals


def test_int_cases_needs_bounds():
    x = LocalDecl("x", INT)
    st = goal_state("x = x", (x,))
    with pytest.raises(TacticFailed):
        apply_tactic(st, "h", "int_cases", "x")


def test_int_cases_on_an_empty_range_fails():
    # no case to split into would close `x = 100` with no certificate;
    # contradictory bounds are linear_arith's to refute, with one
    x = LocalDecl("x", INT)
    tele = Telescope((x,))
    lb = LocalDecl("lb", PROP, prop=parse_term("5 <= x", tele, PROP))
    ub = LocalDecl("ub", PROP, prop=parse_term("x <= 3", tele, PROP))
    st = goal_state("x = 100", (x, lb, ub))
    with pytest.raises(TacticFailed, match="linear_arith"):
        apply_tactic(st, "h", "int_cases", "x")
    out = apply_tactic(st, "h", "linear_arith", "")
    assert not out.goals and out.trace[-1].cert is not None


def test_int_cases_starts_a_nat_at_zero():
    n = LocalDecl("n", NAT)
    tele = Telescope((n,))
    ub = LocalDecl("ub", PROP, prop=parse_term("n <= 2", tele, PROP))
    other = LocalDecl("other", PROP, prop=parse_term("1 <= 2", tele, PROP))
    out = apply_tactic(goal_state("n * n <= 4", (n, ub, other)), "h",
                       "int_cases", "n")
    assert [print_term(g.concl) for g in out.goals] == \
        ["0 <= 4", "1 <= 4", "4 <= 4"]


@pytest.mark.parametrize("name, message", [
    ("r", "int_cases needs an Int or Nat variable"),
    ("ub", "no variable named 'ub'"),
    ("x", "case split of width 201 refused"),
])
def test_int_cases_refuses(name, message):
    x, r = LocalDecl("x", INT), LocalDecl("r", REAL)
    tele = Telescope((x, r))
    lb = LocalDecl("lb", PROP, prop=parse_term("-100 <= x", tele, PROP))
    ub = LocalDecl("ub", PROP, prop=parse_term("x <= 100", tele, PROP))
    with pytest.raises(TacticFailed, match=message):
        apply_tactic(goal_state("x = x", (x, r, lb, ub)), "h", "int_cases",
                     name)


@pytest.mark.parametrize("tactic, goal", [
    ("rfl", "1 + 1 = 2"),
    ("ring_nf", "x * 1 = x"),
    ("linear_arith", "x <= x + 1"),
    ("iff_split", "x = 1 <-> 1 = x"),
    ("and_split", "x = x /\\ 1 = 1"),
])
def test_a_tactic_that_takes_no_argument_refuses_one(tactic, goal):
    st = goal_state(goal, (LocalDecl("x", INT),))
    assert apply_tactic(st, "h", tactic, " ").trace
    with pytest.raises(TacticFailed,
                       match=f"{tactic} takes no argument, got 'junk words'"):
        apply_tactic(st, "h", tactic, "junk words")


# -- provability preservation of the safe tactics -----------------------------
#
# On goals over small bounded Int domains, model-checking the conjunction
# of the subgoals equals model-checking the original goal: truth of
# (ctx hypotheses -> conclusion) over all variable assignments is
# preserved by intro, iff_split, and_split, cases, and equality rewrite.

import itertools

from conftest import brute_eval
from holebox.expr import free_vars, mk_conn, substitute

DOMAIN = range(-2, 3)


def _goal_truth(goal):
    names = [d.name for d in goal.ctx.decls if d.prop is None]
    hyps = [d.prop for d in goal.ctx.decls if d.prop is not None]
    concl = goal.concl
    for vals in itertools.product(DOMAIN, repeat=len(names)):
        h = hyps
        c = concl
        for name, v in zip(names, vals):
            lit = parse_term(str(v), expected=INT)
            h = [substitute(p, name, lit) for p in h]
            c = substitute(c, name, lit)
        if all(brute_eval(p) for p in h) and not brute_eval(c):
            return False
    return True


def _state_truth(state):
    return all(_goal_truth(g) for g in state.goals)


def test_safe_tactics_preserve_model_checking(rng):
    from holebox.expr import mk_atom, mk_lit, mk_var

    def rand_atom(names):
        lhs = mk_var(rng.choice(names), INT)
        rhs = mk_lit(rng.randint(-2, 2), INT)
        return mk_atom(rng.choice(["eq", "ne", "lt", "le"]), (lhs, rhs))

    checked = 0
    for _ in range(120):
        names = ["x", "y"]
        decls = [LocalDecl(n, INT) for n in names]
        shape = rng.choice(["imp", "iff", "and", "or_hyp", "rewrite"])
        if shape in ("imp", "iff", "and"):
            concl = mk_conn(shape, (rand_atom(names), rand_atom(names)))
            hyp = rand_atom(names)
        elif shape == "or_hyp":
            concl = rand_atom(names)
            hyp = mk_conn("or", (rand_atom(names), rand_atom(names)))
        else:
            concl = rand_atom(names)
            hyp = mk_atom("eq", (mk_var("x", INT),
                                 mk_lit(rng.randint(-2, 2), INT)))
        tele = Telescope(tuple(decls) + (LocalDecl("hp", PROP, prop=hyp),))
        state = SolutionState(goals=(Goal("h", tele, concl),))
        tactic, args = {
            "imp": ("intro", "hq"), "iff": ("iff_split", ""),
            "and": ("and_split", ""), "or_hyp": ("cases", "hp"),
            "rewrite": ("rewrite", "hp"),
        }[shape]
        try:
            out = apply_tactic(state, "h", tactic, args)
        except TacticFailed:
            continue   # e.g. the rewrite pattern does not occur
        assert _state_truth(state) == _state_truth(out), shape
        checked += 1
    assert checked >= 80


@pytest.mark.parametrize("tactic, argtext, hole", [
    ("exact", "1", True), ("have", "k : 1 = 1", False),
], ids=["exact", "have"])
def test_non_engine_parse_exception_is_not_a_tactic_failure(
        monkeypatch, tactic, argtext, hole):
    # only parse and expression errors mean "the tactic does not apply";
    # anything else is a bug and must surface as one
    from holebox.tactics import structural

    def broken(*args, **kwargs):
        raise RuntimeError("bug while parsing")

    monkeypatch.setattr(structural, "parse_term", broken)
    if hole:
        st = SolutionState(goals=(Goal("w", Telescope(), INT),))
        case = "w"
    else:
        st, case = goal_state("1 = 1"), "h"
    with pytest.raises(RuntimeError, match="bug while parsing"):
        apply_tactic(st, case, tactic, argtext)


def _exact_cert(state, case, argtext):
    return apply_tactic(state, case, "exact", argtext).trace[-1].cert


def test_exact_certificate_terms_must_fit_their_goal():
    # the stored hole value and citation arguments are terms; each must
    # have its binder's sort and use only the goal's variables, and the
    # stored assignment must equal the re-instantiated citation
    from dataclasses import replace
    from holebox.expr import NAT, mk_lit, mk_meta, mk_var
    from holebox.kernel import CertificateError
    from holebox.tactics.structural import revalidate_exact
    x = LocalDecl("x", INT)
    tele = Telescope((x,))
    hole = SolutionState(goals=(Goal("w", tele, INT),))
    filled = _exact_cert(hole, "w", "x + 1")
    h0 = LocalDecl("h0", PROP, prop=parse_term(
        "forall (m : Int), m + 0 = m", tele, PROP))
    cited = _exact_cert(goal_state("x + 0 = x", (x, h0)), "h", "h0 x")
    revalidate_exact(filled)
    revalidate_exact(cited)
    for value in (mk_lit(1, REAL), mk_var("y", INT), mk_meta("w", INT)):
        with pytest.raises(CertificateError):
            revalidate_exact(replace(filled, assigns=(("w", value),)))
    # the fill must name the hole the goal asks for, once
    for assigns in ((("v", mk_lit(1, INT)),), (), filled.assigns * 2):
        with pytest.raises(CertificateError):
            revalidate_exact(replace(filled, assigns=assigns))
    for arg in (mk_lit(2, NAT), mk_var("y", INT)):
        with pytest.raises(CertificateError):
            revalidate_exact(replace(
                cited, detail={**cited.detail, "args": (arg,)}))
    hp = LocalDecl("hp", PROP, prop=parse_term("x = 1", tele, PROP))
    bare = SolutionState(
        goals=(Goal("h", Telescope((x, hp)), mk_meta("w", PROP)),
               Goal("w", tele, PROP)))
    fill = _exact_cert(bare, "h", "hp")
    revalidate_exact(fill)
    other = parse_term("x = 2", tele, PROP)
    instance = fill.assigns[0][1]
    for forged in (replace(fill, assigns=(("w", other),)),
                   replace(fill, assigns=(("v", instance),)),
                   replace(fill, assigns=()),
                   replace(cited, assigns=(("w", other),))):
        with pytest.raises(CertificateError):
            revalidate_exact(forged)


@pytest.mark.parametrize("tamper, match", [
    ("context", "cited hypothesis is gone"),
    ("args", "over-instantiated hypothesis"),
    ("goal", "instance no longer matches the goal"),
], ids=["hypothesis-gone", "over-instantiated", "goal-changed"])
def test_a_tampered_citation_is_rejected(tamper, match):
    # `exact hp` closes `x = 1` from `hp : x = 1`; its check rejects a
    # context without `hp`, an argument `hp` has no binder for, and a
    # goal the cited instance no longer matches
    from dataclasses import replace
    from holebox.expr import mk_lit
    from holebox.kernel import CertificateError, revalidate
    x = LocalDecl("x", INT)
    tele = Telescope((x,))
    hp = LocalDecl("hp", PROP, prop=parse_term("x = 1", tele, PROP))
    cert = _exact_cert(goal_state("x = 1", (x, hp)), "h", "hp")
    revalidate(cert)
    forged = {
        "context": replace(cert, goal=Goal("h", tele, cert.goal.concl)),
        "args": replace(cert, detail={**cert.detail,
                                      "args": (mk_lit(1, INT),)}),
        "goal": replace(cert, goal=Goal("h", cert.goal.ctx, parse_term(
            "x = 2", tele, PROP))),
    }[tamper]
    with pytest.raises(CertificateError, match=match):
        revalidate(forged)


@pytest.mark.parametrize("prop, match", [
    (None, "false hypothesis is gone"),
    ("1 = 1", "hypothesis is not False"),
], ids=["hypothesis-gone", "not-false"])
def test_a_tampered_false_hypothesis_is_rejected(prop, match):
    # `cases hf` closes a goal from `hf : False`; its check rejects a
    # context without `hf` and one where `hf` states something else
    from dataclasses import replace
    from holebox.kernel import CertificateError, revalidate
    hf = LocalDecl("hf", PROP, prop=parse_term("False", Telescope(), PROP))
    cert = apply_tactic(goal_state("1 = 2", (hf,)), "h", "cases",
                        "hf").trace[-1].cert
    revalidate(cert)
    decls = () if prop is None else (LocalDecl(
        "hf", PROP, prop=parse_term(prop, Telescope(), PROP)),)
    forged = replace(cert, goal=Goal("h", Telescope(decls), cert.goal.concl))
    with pytest.raises(CertificateError, match=match):
        revalidate(forged)


def test_normal_form_certificates_hold_no_normal_form():
    # rfl's and ring_nf's checks compare the normal forms of the goal's
    # two sides, so neither certificate holds one, and each check fails
    # on a goal whose sides differ
    from dataclasses import replace
    from holebox.kernel import CertificateError
    from holebox.kernel import revalidate
    x = LocalDecl("x", INT)
    unequal = parse_term("x + 1 = x + 2", Telescope((x,)), PROP)
    for concl, tactic in (("x + 1 = x + 1", "rfl"),
                          ("(x + 1) * 2 = 2 * x + 2", "ring_nf")):
        cert = apply_tactic(goal_state(concl, (x,)), "h", tactic,
                            "").trace[-1].cert
        assert cert.detail == {}
        revalidate(cert)
        with pytest.raises(CertificateError):
            revalidate(replace(cert, goal=replace(cert.goal, concl=unequal)))


def _certificates_with_details():
    """A certificate of each kind, and of each shape of detail."""
    from holebox.expr import mk_meta

    def cert(state, tactic, argtext=""):
        return apply_tactic(state, "h", tactic, argtext).trace[-1].cert

    x, y = LocalDecl("x", INT), LocalDecl("y", REAL)
    tele = Telescope((x,))
    h0 = LocalDecl("h0", PROP, prop=parse_term(
        "forall (m : Int), m + 0 = m", tele, PROP))
    hp = LocalDecl("hp", PROP, prop=parse_term("x = 1", tele, PROP))
    hf = LocalDecl("hf", PROP, prop=parse_term("False", Telescope(), PROP))
    bare = SolutionState(
        goals=(Goal("h", Telescope((x, hp)), mk_meta("w", PROP)),
               Goal("w", tele, PROP)))
    pinned = SolutionState(
        goals=(Goal("h", Telescope(), parse_term(
            "?w = 2 + 2", Telescope(), PROP, metas={"w": INT})),
               Goal("w", Telescope(), INT)))
    hole = SolutionState(goals=(Goal("h", tele, INT),))
    return [
        cert(goal_state("x + 0 = x", (x, h0)), "exact", "h0 x"),
        cert(bare, "exact", "hp"),
        cert(hole, "exact", "x + 1"),
        cert(goal_state("x + 1 = x + 1", (x,)), "rfl"),
        cert(goal_state("1 = 2", (hf,)), "cases", "hf"),
        cert(goal_state("2 + 2 = 4"), "eval_decide"),
        cert(pinned, "eval_decide"),
        cert(goal_state("(x + 1) * 2 = 2 * x + 2", (x,)), "ring_nf"),
        cert(goal_state("y < y + 1", (y,)), "linear_arith"),
        cert(goal_state("x < x + 1", (x,)), "linear_arith"),
        cert(goal_state("x + 0 = x", (x,)), "rw_search"),
        cert(goal_state("x + 0 = x", (x,)), "auto"),
    ]


# The keys of each certificate of `_certificates_with_details`, in order:
# evidence a check reads, or the line's budget, and nothing the goal
# determines.
DETAIL_KEYS = [
    {"hyp", "args"}, {"hyp", "args"}, set(),       # exact; a hole fill
    set(),                                        # rfl
    {"false_hyp"},                                # cases
    {"budget"}, {"budget"},                       # eval_decide
    set(),                                        # ring_nf
    {"branches"}, {"branches"},                   # linear_arith
    {"path", "closer"},                           # rw_search
    {"budget"},                                   # auto
]


def test_a_missing_or_mistyped_detail_key_is_a_certificate_error():
    # every check reads a detail through one checked accessor, so a key
    # dropped or of the wrong type fails the check, never with KeyError
    from dataclasses import replace
    from holebox.kernel import (
        REPLAY_LINES, CertificateError, TraceStep, replay_step, revalidate,
    )
    certs = _certificates_with_details()
    assert {c.tactic for c in certs} == {
        "exact", "rfl", "cases", "eval_decide", "ring_nf", "linear_arith",
        "rw_search", "auto"}
    assert [c.detail.keys() for c in certs] == DETAIL_KEYS
    # a rational branch with no `!=` holds its Farkas multipliers, an
    # integer one nothing; an rw_search closer is a (kind, detail) pair,
    # and a path step holds its rule, so a rule's name is a mistyped step
    farkas, omega = [c for c in certs if c.tactic == "linear_arith"]
    assert [b.keys() for b in farkas.detail["branches"]] == [{"multipliers"}]
    assert omega.detail["branches"] == [{}]
    branch = farkas.detail["branches"][0]
    rw = next(c for c in certs if c.tactic == "rw_search")
    assert rw.detail["closer"] == ("rfl", {})
    bad = [replace(rw, detail={**rw.detail,
                               "path": [["add_zero", False, 1]]})]
    for cert in certs:
        revalidate(cert)
        for key in cert.detail:
            bad += [replace(cert, detail={k: v for k, v in cert.detail.items()
                                          if k != key}),
                    replace(cert, detail={**cert.detail, key: object()})]
    for key in branch:
        for changed in ({k: v for k, v in branch.items() if k != key},
                        {**branch, key: object()}):
            bad.append(replace(farkas, detail={"branches": [changed]}))
    assert len(bad) == 1 + 2 * 12 + 2 * 1
    for cert in bad:
        with pytest.raises(CertificateError):
            revalidate(cert)
        if cert.tactic in REPLAY_LINES:
            with pytest.raises(CertificateError):
                replay_step(SolutionState(),
                            TraceStep("h", cert.tactic, "", cert))
