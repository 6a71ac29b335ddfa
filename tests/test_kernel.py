"""Kernel: states, assignment, immutability, replay determinism."""

import json

import pytest

from holebox.expr import (
    INT, Meta, NAT, OccursCheckError, SortError, mk_app, mk_lit, mk_var,
)
from holebox.kernel import (
    OutOfContextError, TacticFailed, apply_tactic, assign_metavar,
    init_prove, is_terminal, render_state,
)
from holebox.fps import replay_check, session_init
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
    hole = state.hole("w")
    assert hole.target == INT
    assert not is_terminal(state)


def test_init_no_hypotheses():
    state = session_init(prob(FERMAT)).state
    assert state.goal("h").ctx.names() == ()
    assert print_term(state.goal("h").concl) == \
        "not prime (2 ^ 2 ^ ?w + 1)"
    assert state.hole("w").target == NAT


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
    # goals empty but hole unassigned is not terminal
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
