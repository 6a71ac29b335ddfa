"""Best-first search: value function, allocation, determinism, policies."""

import json
import math
import sys
import textwrap

import pytest

from holebox.fps import session_init
from holebox.search import (
    ExternalPolicy, PolicyError, PolicySuggestion, SearchConfig, SearchNode,
    allocate, best_first_search, builtin_policy, expand, node_value,
)
from holebox.syntax import parse_problem, print_term


def prob(doc):
    return parse_problem(json.dumps(doc))


NICKELS = prob({
    "format_version": "1", "framework": "fps",
    "vars": [["d", "Int"], ["n", "Int"]], "queriable": ["a", "Int"],
    "hypotheses": [["h0", "d >= 0"], ["h1", "n >= 0"],
                   ["h2", "d + n = 11"], ["h3", "10*d + 5*n = 75"]],
    "conclusions": ["n = a"], "answer": "7"})

UNITS = prob({
    "format_version": "1", "framework": "fps", "vars": [],
    "queriable": ["a", "Nat"], "hypotheses": [],
    "conclusions": ["a = (16^17 * 17^18 * 18^19) % 10"], "answer": "8"})


def test_node_value_formula():
    root = SearchNode(None, 0.0, 0)
    assert node_value(root) == 0.0
    s1 = PolicySuggestion("h", "rfl", "", math.log(0.5), 4)
    s2 = PolicySuggestion("h", "auto", "", math.log(0.25), 8)
    child = SearchNode(None,
                       root.path_log_score + s1.logprob / s1.tactic_length, 1)
    grand = SearchNode(None,
                       child.path_log_score + s2.logprob / s2.tactic_length, 2)
    expected = math.log(0.5) / 4 + math.log(0.25) / 8
    assert abs(node_value(grand) - expected) < 1e-12
    assert abs(expected - (-0.34657)) < 1e-4
    assert node_value(child) <= node_value(root)
    assert node_value(grand) <= node_value(child)


def test_allocation_splits():
    assert allocate(32, 2) == [16, 16]
    assert allocate(32, 3) == [11, 11, 10]
    assert allocate(3, 5) == [1, 1, 1, 0, 0]


def test_suggestions_reject_bad_fields():
    with pytest.raises(PolicyError):
        PolicySuggestion("h", "rfl", "", 0.5, 3)         # positive logprob
    with pytest.raises(PolicyError):
        PolicySuggestion("h", "rfl", "", -1.0, 0)        # zero length


def test_builtin_policy_menu_order():
    sess = session_init(prob({
        "format_version": "1", "framework": "fps", "vars": [],
        "queriable": ["a", "Int"], "hypotheses": [],
        "conclusions": ["forall (z : Int), z = z \\/ a = 0"]}))
    out = builtin_policy(sess.state, sess.state.goal("h"), 4)
    assert out[0].tactic == "intro"
    assert builtin_policy(sess.state, sess.state.goal("h"), 1) == out[:1]
    # hole goals take no suggestions
    assert builtin_policy(sess.state, sess.state.goal("w"), 4) == []


def test_expand_failed_suggestions_yield_no_children():
    sess = session_init(NICKELS)
    root = SearchNode(sess.state, 0.0, 0)

    def all_fail(state, goal, k):
        return [PolicySuggestion(goal.case, "rfl", "", math.log(0.5), 3)]

    assert expand(root, all_fail, 4) == []


def test_monotone_popped_values_and_determinism():
    r1 = best_first_search(NICKELS, builtin_policy, SearchConfig(8, 200))
    r2 = best_first_search(NICKELS, builtin_policy, SearchConfig(8, 200))
    assert r1.status == "solved" == r2.status
    assert print_term(r1.answer) == print_term(r2.answer) == "7"
    assert r1.stats == r2.stats
    values = r1.stats["popped_values"]
    # the queue pops in non-increasing value order
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_zero_budget_exhausts():
    r = best_first_search(UNITS, builtin_policy, SearchConfig(8, 0))
    assert r.status == "exhausted"
    assert r.stats["popped"] == 0


def test_unsolvable_goal_exhausts_with_stats():
    p = prob({"format_version": "1", "framework": "fps",
              "vars": [["x", "Real"]], "queriable": ["a", "Real"],
              "hypotheses": [], "conclusions": ["a = sqrt x"]})
    r = best_first_search(p, builtin_policy, SearchConfig(4, 20))
    assert r.status == "exhausted"
    assert r.stats["frontier"] == 0 and r.stats["popped"] >= 1


def test_budget_spent_when_progress_never_closes():
    # a policy that keeps adding trivia never reaches terminal, so the
    # search pops exactly K nodes before giving up
    p = prob({"format_version": "1", "framework": "fps",
              "vars": [["x", "Real"]], "queriable": ["a", "Real"],
              "hypotheses": [], "conclusions": ["a = sqrt x"]})

    def busywork(state, goal, k):
        if goal.is_hole_goal():
            return []
        name = goal.ctx.fresh("pad")
        return [PolicySuggestion(goal.case, "have", f"{name} : 1 = 1",
                                 math.log(0.5), 10)]

    r = best_first_search(p, busywork, SearchConfig(4, 20))
    assert r.status == "exhausted"
    assert r.stats["popped"] == 20


def test_solved_search_certifies():
    r = best_first_search(UNITS, builtin_policy, SearchConfig(8, 200))
    assert r.status == "solved"
    assert print_term(r.answer) == "8"
    assert r.certificate["forward"] and r.certificate["backward"]
    from holebox.fps import replay_check
    assert replay_check(UNITS, r.script).accepted


# -- external policy ----------------------------------------------------------

ECHO_POLICY = textwrap.dedent("""
    import json, sys
    for line in sys.stdin:
        req = json.loads(line)
        case = req["goals"][0]["case"]
        out = {"id": req["id"], "suggestions": [
            {"case": case, "tactic": "linear_arith", "logprob": -0.7},
            {"case": case, "tactic": "eval_decide", "logprob": -1.2},
        ][: req["k"]]}
        print(json.dumps(out), flush=True)
""")

BROKEN_POLICY = textwrap.dedent("""
    import sys
    for line in sys.stdin:
        print("not json", flush=True)
""")

SLEEPY_POLICY = textwrap.dedent("""
    import sys, time
    for line in sys.stdin:
        time.sleep(10)
""")


def test_external_policy_roundtrip():
    policy = ExternalPolicy([sys.executable, "-c", ECHO_POLICY])
    try:
        sess = session_init(NICKELS)
        out = policy(sess.state, sess.state.goal("h"), 4)
        assert [s.tactic for s in out] == ["linear_arith", "eval_decide"]
        assert out[0].logprob == -0.7
        result = best_first_search(NICKELS, policy, SearchConfig(4, 50))
        assert result.status == "solved"
        assert print_term(result.answer) == "7"
    finally:
        policy.close()


def test_external_policy_protocol_error():
    policy = ExternalPolicy([sys.executable, "-c", BROKEN_POLICY])
    try:
        sess = session_init(NICKELS)
        with pytest.raises(PolicyError):
            policy(sess.state, sess.state.goal("h"), 2)
    finally:
        policy.close()


def test_external_policy_timeout_returns_empty(capsys):
    policy = ExternalPolicy([sys.executable, "-c", SLEEPY_POLICY],
                            timeout=0.3)
    try:
        sess = session_init(NICKELS)
        out = policy(sess.state, sess.state.goal("h"), 2)
        assert out == []
    finally:
        policy.close()
