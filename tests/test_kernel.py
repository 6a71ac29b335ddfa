"""Kernel: states, assignment, immutability, replay determinism."""

import gc
import json
from dataclasses import replace
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from holebox.expr import (
    INT, ExprError, LocalDecl, Meta, NAT, OccursCheckError, PROP, SortError,
    Telescope, instantiate_metas, metavars_of, mk_app, mk_lit, mk_var,
)
from holebox.kernel import (
    CHECKS, TACTICS, Certificate, CertificateError, EngineError, Goal,
    KernelError, OutOfContextError, SolutionState, TacticFailed,
    TacticResult, TraceStep,
    apply_tactic, assign_metavar, is_terminal, recheck, render_state,
    replay_step, revalidate, run_script,
)
from holebox.fps import init_prove, replay_check, session_init
from holebox.syntax import parse_problem, parse_script, parse_term, print_term

NICKELS = {
    "format_version": "1", "framework": "fps",
    "vars": [["d", "Int"], ["n", "Int"]],
    "queriable": ["a", "Int"],
    "hypotheses": [["h0", "d >= 0"], ["h1", "n >= 0"],
                   ["h2", "d + n = 11"], ["h3", "10*d + 5*n = 75"]],
    "conclusions": ["n = a"],
    "answer": "7",
}

FERMAT = {
    "format_version": "1", "framework": "fps",
    "vars": [], "queriable": ["a", "Nat"], "hypotheses": [],
    "conclusions": ["not prime (2^(2^a) + 1)"], "answer": "5",
}


def prob(doc):
    return parse_problem(json.dumps(doc))


def test_init_generic_shape():
    state = session_init(prob(NICKELS)).state
    assert [g.case for g in state.goals] == ["h", "w"]
    goal = state.goal("h")
    assert print_term(goal.concl) == "n = ?w"
    assert goal.ctx.names() == ("d", "n", "h0", "h1", "h2", "h3")
    assert state.goal("w").concl == INT
    assert not is_terminal(state)


def test_init_no_hypotheses():
    state = session_init(prob(FERMAT)).state
    assert state.goal("h").ctx.names() == ()
    assert print_term(state.goal("h").concl) == \
        "not prime (2 ^ 2 ^ ?w + 1)"
    assert state.goal("w").concl == NAT


def test_assign_metavar_rewrites_goals():
    state = session_init(prob(FERMAT)).state
    out = assign_metavar(state, "w", mk_lit(5, NAT))
    assert print_term(out.goal("h").concl) == "not prime (2 ^ 2 ^ 5 + 1)"
    assert [g.case for g in out.goals] == ["h"]


def test_assign_metavar_keeps_goals_without_the_hole():
    state = session_init(prob(NICKELS)).state
    state = apply_tactic(state, "h", "have", "hd : d = 4")
    goal = state.goal("h.hd")
    out = assign_metavar(state, "w", mk_lit(7, INT))
    assert out.goal("h.hd") is goal
    assert print_term(out.goal("h").concl) == "n = 7"
    assert out.goal("h").ctx is state.goal("h").ctx


def test_assign_out_of_context():
    state = session_init(prob(FERMAT)).state
    with pytest.raises(OutOfContextError):
        assign_metavar(state, "w", mk_var("z", NAT))


def test_assign_occurs_check():
    state = session_init(prob(FERMAT)).state
    with pytest.raises(OccursCheckError):
        assign_metavar(state, "w",
                       mk_app("add", (Meta(NAT, "w"), mk_lit(1, NAT))))


def test_assign_sort_mismatch():
    state = session_init(prob(FERMAT)).state
    with pytest.raises(SortError):
        assign_metavar(state, "w", mk_lit(5, INT))


def test_assign_twice_rejected():
    state = session_init(prob(FERMAT)).state
    out = assign_metavar(state, "w", mk_lit(5, NAT))
    from holebox.kernel import KernelError
    with pytest.raises(KernelError):
        assign_metavar(out, "w", mk_lit(6, NAT))


def test_assign_unknown_hole_rejected():
    state = session_init(prob(FERMAT)).state
    with pytest.raises(KernelError, match=r"no hole \?v"):
        assign_metavar(state, "v", mk_lit(5, NAT))


def test_new_goal_named_like_an_open_goal_rejected():
    # `have l` leaves the goal `h.l` open; splitting `h` would open a
    # second `h.l`
    doc = dict(NICKELS, conclusions=["n = a", "d = 4"])
    state = apply_tactic(session_init(prob(doc)).state, "h", "have",
                         "l : n = 7")
    with pytest.raises(KernelError, match="duplicate goal name 'h.l'"):
        apply_tactic(state, "h", "and_split", "")


def _hole_goals(state):
    return [g.case for g in state.goals if g.is_hole_goal()]


def test_a_new_hole_is_numbered_past_the_names_taken():
    doc = dict(NICKELS, conclusions=["exists (w : Int), w = a"])
    state = apply_tactic(session_init(prob(doc)).state, "h", "exists_intro",
                         "")
    assert _hole_goals(state) == ["w", "w1"]
    state = apply_tactic(state, "h", "have", "e : exists (w : Int), w = 1")
    state = apply_tactic(state, "h.e", "exists_intro", "")
    assert _hole_goals(state) == ["w", "w1", "w2"]


def test_tactic_immutability():
    state = session_init(prob(NICKELS)).state
    before = render_state(state)
    out = apply_tactic(state, "h", "linear_arith", "")
    assert render_state(state) == before
    assert render_state(out) != before
    assert is_terminal(out)


def test_tactic_failure_leaves_state():
    state = session_init(prob(NICKELS)).state
    before = render_state(state)
    with pytest.raises(TacticFailed):
        apply_tactic(state, "h", "intro", "")
    assert render_state(state) == before


def test_unknown_goal_and_tactic():
    state = session_init(prob(NICKELS)).state
    with pytest.raises(TacticFailed):
        apply_tactic(state, "zz", "rfl", "")
    with pytest.raises(TacticFailed):
        apply_tactic(state, "h", "made_up", "")


def test_replay_check_accepts_and_certifies():
    report = replay_check(prob(NICKELS),
                          parse_script(["@goal w exact 7", "linear_arith"]))
    assert report.accepted


def test_replay_rejects_mutants():
    script = parse_script(["@goal w exact 7", "linear_arith"])
    from holebox.syntax import ProofScript
    dropped = ProofScript(script.lines[:1])   # answer filled, goal open
    report = replay_check(prob(NICKELS), dropped)
    assert not report.accepted
    empty = ProofScript(())
    assert not replay_check(prob(NICKELS), empty).accepted


def test_replay_reports_failing_line():
    script = parse_script(["@goal w exact 7", "rfl", "linear_arith"])
    report = replay_check(prob(NICKELS), script)
    assert not report.accepted
    assert report.failed_line == 2


def test_replay_deterministic():
    p = prob(NICKELS)
    script = parse_script(["@goal w exact 7", "linear_arith"])
    r1 = replay_check(p, script)
    r2 = replay_check(p, script)
    assert r1.final == r2.final
    assert render_state(r1.final) == render_state(r2.final)


def test_terminal_requires_assignment():
    # terminal means no goal open: the answer hole of init_prove is
    # assigned from the start, and a filled hole leaves `h` open
    p = prob(FERMAT)
    state = init_prove(p, parse_term("5", expected=NAT))
    closed = apply_tactic(state, "h", "eval_decide", "")
    assert is_terminal(closed)
    sess_state = session_init(p).state
    only_goal = apply_tactic(sess_state, "w", "exact", "5")
    # hole assigned, main goal open
    assert not is_terminal(only_goal)


def test_hole_assignment_is_permanent():
    state = session_init(prob(FERMAT)).state
    out = apply_tactic(state, "w", "exact", "5")
    assert out.assigned_value("w") is not None
    with pytest.raises(TacticFailed):
        apply_tactic(out, "w", "exact", "6")


def test_concurrent_tactics_on_shared_state():
    # immutable snapshots: many workers apply tactics to one state
    from concurrent.futures import ThreadPoolExecutor
    state = session_init(prob(NICKELS)).state
    before = render_state(state)

    def work(i):
        out = apply_tactic(state, "h", "linear_arith", "")
        return render_state(out)

    with ThreadPoolExecutor(max_workers=8) as pool:
        rendered = list(pool.map(work, range(16)))
    assert render_state(state) == before
    assert len(set(rendered)) == 1


# -- no goal holds an assigned hole ------------------------------------------

# Blocks of lines for random scripts on NICKELS that name the answer
# hole before and after `@goal w exact c` fills it, and the closers; one
# opens a second hole and a closer fills it.
HOLE_BLOCKS = [
    ("have hr : forall (k : Int), k = k", "intro k", "rfl"),
    ("have hr : forall (k : Int), k = k", "intro k", "rfl",
     "have hz : ?w = ?w", "exact hr ?w"),
    ("have hs : forall (k : Int), k = n + (k - n)", "intro k",
     "linear_arith"),
    ("have hx : ?w = 7",), ("have hy : n = ?w",),
    ("have hz : ?w = ?w", "exact hr ?w"), ("exact hr ?w",), ("exact hy",),
    ("exact hx",), ("rewrite hs ?w",), ("rewrite hy",), ("rfl",),
    ("linear_arith",), ("auto",), ("eval_decide",), ("ring_nf",),
    ("rw_search 2",),
    ("have he : exists (k : Int), k = n", "exists_intro", "linear_arith"),
]


def _holes_in_goals(state):
    terms = [g.concl for g in state.goals if not g.is_hole_goal()]
    terms += [d.prop for g in state.goals for d in g.ctx.decls
              if d.prop is not None]
    return {m for t in terms for m in metavars_of(t)}


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(HOLE_BLOCKS), max_size=8),
       st.integers(0, 8), st.sampled_from([6, 7, 8]))
def test_no_goal_holds_an_assigned_hole(blocks, at, value):
    blocks = blocks[:at] + [(f"@goal w exact {value}",)] + blocks[at:]
    lines = [text for block in blocks for text in block]
    start = state = session_init(prob(NICKELS)).state
    kept = []
    for text in lines:
        ln, = parse_script([text]).lines
        try:
            state = apply_tactic(state, ln.goal, ln.tactic, ln.argtext)
        except (KernelError, ExprError):
            continue
        kept.append(text)
        holes = _holes_in_goals(state)
        assigned = {mid for mid, _ in state.assignment}
        assert not holes & assigned, (kept, render_state(state))
        # every hole an open goal names is open: it has its hole goal
        assert holes <= state.pending_holes(), (kept, render_state(state))
    # the lines that applied make a script, accepted or not, and every
    # certificate it records rechecks
    report = run_script(start, parse_script(kept))
    assert report.final == state
    recheck(state)


def test_rewrite_reads_an_assigned_hole_as_its_value():
    # `?w` in the argument is the value 7, not a pattern variable that
    # matches the first subterm (`n`)
    script = parse_script(["@goal w exact 7",
                           "have hr : forall (k : Int), k = n + (k - n)",
                           "intro k", "linear_arith", "rewrite hr ?w"])
    report = run_script(session_init(prob(NICKELS)).state, script,
                        done=lambda s: True)
    assert report.accepted
    assert print_term(report.final.goal("h").concl) == "n = n + (7 - n)"


def test_closers_make_no_reference_cycle():
    # with the cyclic collector off, the occurs check and a linear_arith
    # call that splits disequalities leave no garbage behind
    tele = Telescope((LocalDecl("x", INT),))
    tele = tele.extended(LocalDecl("hx", PROP, prop=parse_term(
        "1 <= x /\\ x <= 3", tele, PROP)))
    concl = parse_term("x = 1 \\/ x = 2 \\/ x = 3", tele, PROP)
    state = SolutionState(goals=(Goal("h", tele, concl),))
    chain = {"a": mk_app("add", (Meta(INT, "b"), mk_lit(1, INT))),
             "b": mk_var("x", INT)}
    gc.collect()
    gc.disable()
    try:
        out = instantiate_metas(Meta(INT, "a"), chain)
        closed = apply_tactic(state, "h", "linear_arith", "")
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert print_term(out) == "x + 1" and is_terminal(closed)


# -- a closing step is its certificate ----------------------------------------


@pytest.mark.parametrize("broken", [
    lambda goal: TacticResult(),
    lambda goal: TacticResult(new_goals=(goal,),
                              cert=Certificate("rfl", goal, {})),
], ids=["closes-without-certificate", "certificate-and-new-goals"])
def test_a_tactic_breaking_the_protocol_is_an_engine_bug(monkeypatch, broken):
    # neither the script runner nor the search takes it for a failed line
    from holebox.search import PolicySuggestion, SearchNode, expand
    monkeypatch.setitem(TACTICS, "rfl",
                        lambda state, goal, argtext: broken(goal))
    state = session_init(prob(NICKELS)).state
    with pytest.raises(EngineError):
        apply_tactic(state, "h", "rfl")
    with pytest.raises(EngineError):
        run_script(state, parse_script(["rfl"]))
    root = SearchNode(state, 0.0, 0)
    with pytest.raises(EngineError):
        expand(root, lambda s, goal, k: [
            PolicySuggestion(goal.case, "rfl", "", -1.0, 3)], 1)


def test_a_hole_goal_closed_without_its_fill_is_an_engine_bug(monkeypatch):
    # the hole goal is the hole's one record: a step that closes `w`
    # with a certificate that fills nothing would lose the hole
    monkeypatch.setitem(TACTICS, "exact", lambda state, goal, argtext:
                        TacticResult(cert=Certificate("exact", goal, {})))
    state = session_init(prob(NICKELS)).state
    with pytest.raises(EngineError):
        apply_tactic(state, "w", "exact", "7")


@pytest.mark.parametrize("forge", [
    lambda goal: Certificate("rfl", replace(goal, concl=parse_term(
        "x = x", goal.ctx, PROP)), {}),
    lambda goal: Certificate("ring_nf", goal, {}),
], ids=["of-another-goal", "of-another-kind"])
def test_a_certificate_not_of_its_step_is_an_engine_bug(monkeypatch, forge):
    # `rfl` fails on `x + x = 2 * x`; a broken `rfl` that closes it with
    # a valid certificate of an easier goal, or of another kind, is a
    # bug the kernel refuses to commit, not a failed line
    ctx = Telescope((LocalDecl("x", INT),))
    goal = Goal("h", ctx, parse_term("x + x = 2 * x", ctx, PROP))
    revalidate(forge(goal))
    monkeypatch.setitem(TACTICS, "rfl", lambda state, goal, argtext:
                        TacticResult(cert=forge(goal)))
    state = SolutionState(goals=(goal,))
    with pytest.raises(EngineError):
        apply_tactic(state, "h", "rfl")
    with pytest.raises(EngineError):
        run_script(state, parse_script(["rfl"]))


@pytest.mark.parametrize("tactic", sorted(TACTICS))
def test_only_exact_acts_on_a_hole_goal(tactic):
    # the kernel's one rule: `exact <term>` fills a hole goal, and every
    # other tactic fails on one, whatever its argument text
    text = (resources.files("holebox.data") / "problems" / "nickels.json")
    state = session_init(parse_problem(text.read_text())).state
    if tactic == "exact":
        out = apply_tactic(state, "w", "exact", "7")
        assert out.assignment == (("w", mk_lit(7, INT)),)
        assert out.pending_holes() == frozenset()
        return
    for argtext in ("", "junk ?w 3"):
        with pytest.raises(TacticFailed,
                           match=f"^{tactic} does not apply to a hole goal$"):
            apply_tactic(state, "w", tactic, argtext)


@pytest.mark.parametrize("kind", sorted(set(CHECKS) - {"exact"}))
def test_a_certificate_on_a_hole_goal_is_rejected(kind):
    # only `exact` fills a hole, so the kernel rejects a certificate of
    # any other kind on a hole goal before its check reads the detail,
    # which holds what each check would read: a `cases` certificate
    # citing a false hypothesis would otherwise close `w` unfilled
    ctx = Telescope((LocalDecl("h", PROP, prop=parse_term("False")),))
    detail = {"budget": 500, "false_hyp": "h", "branches": [{}],
              "path": [], "closer": ("rfl", {})}
    cert = Certificate(kind, Goal("w", ctx, INT), detail)
    with pytest.raises(CertificateError, match=f"^{kind} on a hole goal$"):
        revalidate(cert)
    trace = (TraceStep("w", kind, "", cert),)
    with pytest.raises(CertificateError, match=f"^{kind} on a hole goal$"):
        recheck(SolutionState(trace=trace))


def test_holes_are_filled_from_the_certificate_alone():
    state = session_init(prob(NICKELS)).state
    out = apply_tactic(state, "h", "linear_arith")
    cert = out.trace[-1].cert
    assert out.assignment == cert.assigns == (("w", mk_lit(7, INT)),)
    assert out.trace == (TraceStep("h", "linear_arith", "", cert),)


def test_a_certificate_of_an_unknown_kind_is_rejected():
    # the kernel checks a certificate only with a check registered for
    # its kind, and a recheck of a trace holding any other rejects it
    state = session_init(prob(NICKELS)).state
    ran = apply_tactic(state, "h", "linear_arith")
    step = ran.trace[-1]
    forged = replace(step, cert=replace(step.cert, tactic="linarith"))
    with pytest.raises(CertificateError, match="no revalidator for "
                       "certificate kind 'linarith'"):
        revalidate(forged.cert)
    with pytest.raises(CertificateError, match="no revalidator"):
        recheck(replace(ran, trace=(forged,)))


def test_replay_step_commits_a_certificate_of_the_goal_as_it_stands(
        monkeypatch):
    # a recorded closing step, committed without running its tactic,
    # reaches the state the tactic reached, hole fills included
    state = session_init(prob(NICKELS)).state
    ran = apply_tactic(state, "h", "linear_arith")
    step = ran.trace[-1]
    with monkeypatch.context() as m:
        m.delitem(TACTICS, "linear_arith")
        assert replay_step(state, step) == ran
    # a step recorded without a certificate runs its line again
    assert replay_step(state, replace(step, cert=None)) == ran
    other = apply_tactic(state, "w", "exact", "7")    # `h` now reads `n = 7`
    with pytest.raises(CertificateError, match="does not close goal"):
        replay_step(other, step)
