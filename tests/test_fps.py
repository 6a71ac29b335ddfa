"""Sessions: initialization shapes, extraction guards, certification,
and the find-all injection."""

import json
from importlib import resources

import pytest

from holebox.expr import PROP, SortError, set_of, INT, mk_lit
from holebox.fps import (
    CertifyFailed, DependsOnNonV, NotFinished, ScriptRejected, SessionError,
    certify, extract_answer, forward_finished, fps_to_dfps, init_prove,
    prove_by_script, replay_check, session_init, solve_certified,
)
from holebox import kernel
from holebox.kernel import CertificateError, is_terminal, run_script
from holebox.syntax import parse_problem, parse_script, print_term
from dataclasses import replace


def prob(doc):
    return parse_problem(json.dumps(doc))


EQ_ONE = prob({
    "format_version": "1", "framework": "fps", "vars": [],
    "queriable": ["a", "Real"], "hypotheses": [],
    "conclusions": ["a^2 - 1 = 0"], "answer": "1"})

NICKELS_D = prob({
    "format_version": "1", "framework": "dfps",
    "vars": [["d", "Int"], ["n", "Int"], ["t", "Int"]],
    "queriable": ["A", "Prop"],
    "hypotheses": [["h0", "d >= 0"], ["h1", "n >= 0"],
                   ["h2", "d + n = 11"], ["h3", "10*d + 5*n = 75"]],
    "conclusions": ["t = n <-> A"], "answer": "t = 7"})

DFPS_SCRIPT = parse_script([
    "@goal h.mp have hans : t = 7",
    "@goal h.mp.hans linear_arith",
    "@goal h.mp exact hans",
    "@goal h.mpr linear_arith",
])


def test_fps_init_shape():
    sess = session_init(EQ_ONE)
    assert [g.case for g in sess.state.goals] == ["h", "w"]
    assert print_term(sess.state.goal("h").concl) == "?w ^ 2 - 1 = 0"
    assert sess.state.goal("w").concl == EQ_ONE.queriable[1]


def test_dfps_init_shape():
    sess = session_init(NICKELS_D)
    cases = [g.case for g in sess.state.goals]
    assert cases == ["h.mp", "h.mpr", "w"]
    mp = sess.state.goal("h.mp")
    assert mp.ctx.lookup("h_p_1") is not None
    assert print_term(mp.ctx.lookup("h_p_1").prop) == "t = n"
    assert print_term(mp.concl) == "?w"
    mpr = sess.state.goal("h.mpr")
    assert print_term(mpr.ctx.lookup("h_a").prop) == "?w"
    assert print_term(mpr.concl) == "t = n"
    assert sess.state.goal("w").concl == PROP


def test_forward_finished_flow():
    sess = session_init(NICKELS_D)
    assert not forward_finished(sess)
    sess = sess.apply("h.mp", "have", "hans : t = 7")
    sess = sess.apply("h.mp.hans", "linear_arith", "")
    assert not forward_finished(sess)       # hole still empty
    sess = sess.apply("h.mp", "exact", "hans")
    assert forward_finished(sess)
    assert print_term(extract_answer(sess)) == "t = 7"
    assert not is_terminal(sess.state)      # backward still open
    cert = certify(sess)
    assert cert.forward and not cert.backward and cert.early_exit
    sess = sess.apply("h.mpr", "linear_arith", "")
    cert = certify(sess)
    assert cert.backward and not cert.early_exit


def test_fps_init_rejects_a_problem_it_cannot_open():
    with pytest.raises(SessionError, match="applies to dfps sessions"):
        forward_finished(session_init(EQ_ONE))


def test_init_prove_rejects_an_answer_of_another_sort():
    with pytest.raises(SortError, match="answer sort Int, expected Real"):
        init_prove(EQ_ONE, mk_lit(1, INT))


def test_a_forward_answer_holding_an_open_hole_is_not_extracted():
    # the forward case closes on a hypothesis that names the hole ?k,
    # still open: the answer `?k = 1` is no answer yet
    script = parse_script([
        "@goal h.mp have e : exists (k : Int), k = 1",
        "@goal h.mp.e exists_intro",
        "@goal h.mp have hk : ?k = 1",
        "@goal h.mp exact hk",
    ])
    with pytest.raises(NotFinished, match="still contains metavariables"):
        solve_certified(NICKELS_D, script)


def test_the_statement_recheck_rejects_a_line_it_cannot_replay():
    # before the fill, `rewrite hx` turns `x = ?w` into `1 = ?w`; with the
    # answer `x` in from the start it rewrites both sides, so the second
    # `rewrite hx` of the re-proof finds no `x`
    prob_x = prob({"format_version": "1", "framework": "fps",
                   "vars": [["x", "Int"]], "queriable": ["a", "Int"],
                   "hypotheses": [["hx", "x = 1"]], "conclusions": ["x = a"]})
    script = parse_script(["rewrite hx", "@goal w exact x", "rewrite hx",
                           "rfl"])
    with pytest.raises(CertifyFailed,
                       match="statement recheck failed at line 3: rewrite"):
        solve_certified(prob_x, script)


NICKELS = parse_problem((resources.files("holebox.data") / "problems"
                         / "nickels.json").read_bytes())
CHECKED_LINES = ["have k : d + n = 11", "@goal h.k linear_arith",
                 "@goal w exact 7", "linear_arith"]


def test_a_rejected_certificate_stops_the_run_at_its_line(monkeypatch):
    # a script line's certificate is checked before the next line runs:
    # the rejected `linear_arith` of line 2 ends every script path
    # there, and the `exact` of line 3 never runs
    def reject(cert):
        raise CertificateError("linear_arith certificate rejected")

    ran = []
    exact = kernel.TACTICS["exact"]

    def spy(state, goal, argtext):
        ran.append(argtext)
        return exact(state, goal, argtext)

    monkeypatch.setitem(kernel.CHECKS, "linear_arith", reject)
    monkeypatch.setitem(kernel.TACTICS, "exact", spy)
    report = replay_check(NICKELS, parse_script(CHECKED_LINES))
    assert not report.accepted and report.failed_line == 2
    assert report.reason == "linear_arith: linear_arith certificate rejected"
    with pytest.raises(ScriptRejected) as e:
        solve_certified(NICKELS, parse_script(CHECKED_LINES))
    assert e.value.line == 2
    proving = [ln for ln in CHECKED_LINES if not ln.startswith("@goal w")]
    report = prove_by_script(NICKELS, mk_lit(7, INT), parse_script(proving))
    assert not report.accepted and report.failed_line == 2
    assert ran == []


def test_extract_unfinished_raises():
    with pytest.raises(NotFinished):
        extract_answer(session_init(EQ_ONE))


def test_extract_rejects_out_of_scope_vars():
    # the extraction guard refuses answers with variables outside V
    from holebox.expr import Var
    doc = {"format_version": "1", "framework": "fps", "vars": [],
           "queriable": ["a", "Int"], "hypotheses": [],
           "conclusions": ["a = 0"]}
    sess = session_init(prob(doc))
    done = replace(sess.state, goals=(),
                   assignment=(("w", Var(INT, "z")),))
    with pytest.raises(DependsOnNonV):
        extract_answer(replace(sess, state=done))


def test_certify_fps_and_statement_recheck():
    sess = session_init(EQ_ONE)
    sess = sess.apply("w", "exact", "1")
    sess = sess.apply("h", "ring_nf", "")
    cert = certify(sess)
    assert cert.forward and cert.backward
    assert cert.to_json()["answer"] == "1"


def test_certify_rejects_tampered_trace():
    sess = session_init(EQ_ONE)
    sess = sess.apply("w", "exact", "1")
    sess = sess.apply("h", "ring_nf", "")
    step = sess.state.trace[0]
    tampered = replace(sess, state=replace(
        sess.state,
        trace=(replace(step, argtext="2"),) + sess.state.trace[1:]))
    with pytest.raises(CertifyFailed):
        certify(tampered)


def _altered(sess, step, **changes):
    """`sess` with the recorded certificate of trace step `step` altered."""
    trace = list(sess.state.trace)
    trace[step] = replace(trace[step],
                          cert=replace(trace[step].cert, **changes))
    return replace(sess, state=replace(sess.state, trace=tuple(trace)))


def test_certify_rejects_an_altered_recorded_certificate():
    # the replay reproduces the trace it is handed, certificates included,
    # so what certify rechecks is what was recorded
    nickels = prob(json.loads((resources.files("holebox.data") / "problems"
                               / "nickels.json").read_text()))
    solved = session_init(nickels).apply("w", "exact", "7") \
        .apply("h", "linear_arith", "")
    assert solved.state.trace[1].cert.detail["branches"] == [{}]
    by_auto = session_init(EQ_ONE).apply("w", "exact", "1").apply("h", "auto", "")
    for sess in (solved, by_auto):
        assert certify(sess).backward
    auto_detail = by_auto.state.trace[1].cert.detail
    altered = [
        (_altered(solved, 1, detail={"branches": [{}, {}]}),
         "has 2 branches"),
        (_altered(by_auto, 1, detail={**auto_detail, "budget": 1}),
         "differs"),
        (_altered(solved, 0, assigns=(("w", mk_lit(8, INT)),)), "differs"),
        (_altered(solved, 0, assigns=(("v", mk_lit(7, INT)),)), "differs"),
    ]
    for sess, match in altered:
        with pytest.raises(CertifyFailed, match=match):
            certify(sess)


def test_certify_rejects_a_certificate_that_lacks_a_detail_key():
    # the line check reads the budget through the checked accessor, so
    # the session fails certification rather than raise KeyError
    by_auto = session_init(EQ_ONE).apply("w", "exact", "1").apply("h", "auto", "")
    lacking = _altered(by_auto, 1, detail={})
    with pytest.raises(CertifyFailed, match="has no 'budget'"):
        certify(lacking)


def _with_line(sess, step, argtext):
    """`sess` with the line of trace step `step` given `argtext`."""
    trace = list(sess.state.trace)
    trace[step] = replace(trace[step], argtext=argtext)
    return replace(sess, state=replace(sess.state, trace=tuple(trace)))


def _counting(calls, fn):
    def counted(*args):
        calls.append(fn)
        return fn(*args)
    return counted


def _by_auto_both_ways():
    sess = session_init(NICKELS_D).apply("h.mp", "have", "hans : t = 7") \
        .apply("h.mp.hans", "auto", "").apply("h.mp", "exact", "hans")
    return sess.apply("h.mpr", "auto", "")


def test_certify_replays_a_searching_step_from_its_certificate(monkeypatch):
    # each recorded `auto` certificate is revalidated once, in the
    # replay, and the search that found it does not run again
    sess = _by_auto_both_ways()
    runs, checks = [], []
    monkeypatch.setitem(kernel.TACTICS, "auto",
                        _counting(runs, kernel.TACTICS["auto"]))
    monkeypatch.setitem(kernel.CHECKS, "auto",
                        _counting(checks, kernel.CHECKS["auto"]))
    cert = certify(sess)
    assert cert.forward and cert.backward
    assert len(runs) == 0
    assert len(checks) == sum(st.tactic == "auto" for st in sess.state.trace)
    assert len(checks) == 2


TRANSITIVE = prob({
    "format_version": "1", "framework": "fps",
    "vars": [["x", "Int"], ["y", "Int"], ["z", "Int"]],
    "queriable": ["a", "Int"],
    "hypotheses": [["hx", "x = y"], ["hy", "y = z"]],
    "conclusions": ["x = z"]})

SQUARE = prob({
    "format_version": "1", "framework": "fps", "vars": [],
    "queriable": ["a", "Int"], "hypotheses": [],
    "conclusions": ["a * a = 49"]})


def test_certify_checks_a_line_against_its_certificate():
    # the certificate alone would validate, but the line asks for
    # another budget or depth than the certificate records
    by_600 = session_init(EQ_ONE).apply("w", "exact", "1").apply("h", "auto", "600")
    by_rw = session_init(TRANSITIVE).apply("w", "exact", "0") \
        .apply("h", "rw_search", "")
    by_eval = session_init(SQUARE).apply("w", "exact", "7") \
        .apply("h", "eval_decide", "5000")
    assert len(by_rw.state.trace[1].cert.detail["path"]) == 2
    for sess in (by_600, by_rw, by_eval):
        assert certify(sess).backward
    mismatched = [_with_line(by_600, 1, ""), _with_line(by_rw, 1, "1"),
                  _with_line(by_eval, 1, "")]
    for sess in mismatched:
        step = sess.state.trace[1]
        kernel.revalidate(step.cert)
        with pytest.raises(CertificateError, match="differs"):
            kernel.replay_step(sess.state, step)
        with pytest.raises(CertifyFailed,
                           match="differs from its certificate"):
            certify(sess)


TWO_CONCLUSIONS = prob({
    "format_version": "1", "framework": "fps", "vars": [],
    "queriable": ["a", "Int"], "hypotheses": [],
    "conclusions": ["a * a = 49", "a + a = 14"]})


@pytest.mark.parametrize("problem, lines", [
    (SQUARE, ["rfl"]),
    (SQUARE, ["ring_nf"]),
    (SQUARE, ["linear_arith"]),
    (TWO_CONCLUSIONS, ["and_split", "@goal h.l rfl", "@goal h.r rfl"]),
], ids=["rfl", "ring_nf", "linear_arith", "and_split"])
def test_certify_rejects_text_on_a_line_that_takes_no_argument(problem,
                                                               lines):
    # the line after the fill is given text it does not take
    sess = session_init(problem)
    for line in parse_script(["@goal w exact 7", *lines]).lines:
        sess = sess.apply(line.goal, line.tactic, line.argtext)
    assert certify(sess).backward
    with pytest.raises(CertifyFailed):
        certify(_with_line(sess, 1, "junk"))


def test_certify_rejects_swapped_certificates():
    sess = _by_auto_both_ways()
    trace = list(sess.state.trace)
    fwd, bwd = (i for i, st in enumerate(trace) if st.tactic == "auto")
    trace[fwd], trace[bwd] = (replace(trace[fwd], cert=trace[bwd].cert),
                              replace(trace[bwd], cert=trace[fwd].cert))
    swapped = replace(sess, state=replace(sess.state, trace=tuple(trace)))
    with pytest.raises(CertifyFailed, match="does not close goal"):
        certify(swapped)


def test_fps_to_dfps_injection():
    find_all = prob({
        "format_version": "1", "framework": "fps",
        "vars": [["x", "Int"]], "queriable": ["a", "Set Int"],
        "hypotheses": [["hlb", "-2 <= x"], ["hub", "x <= 2"]],
        "conclusions": ["x in a <-> x^2 - 1 = 0"], "answer": "{-1, 1}"})
    d = fps_to_dfps(find_all)
    assert d.framework == "dfps"
    assert d.queriable == ("A", PROP)
    assert ("a", set_of(INT)) in d.vars
    assert print_term(d.concls[0]) == \
        "(x in a <-> x ^ 2 - 1 = 0) <-> A"
    assert print_term(d.answer) == "a = {-1, 1}"
    # shape validates under the parser rules
    from holebox.syntax import _check_dfps_shape
    _check_dfps_shape(d)


def test_fps_to_dfps_ground_truth_220():
    p = prob({"format_version": "1", "framework": "fps", "vars": [],
              "queriable": ["a", "Nat"], "hypotheses": [],
              "conclusions": ["a = 220"], "answer": "220"})
    d = fps_to_dfps(p)
    assert print_term(d.answer) == "a = 220"


def test_dfps_replay_and_prove_script():
    from holebox.fps import dfps_prove_script, init_prove
    from holebox.kernel import run_script
    sess = session_init(NICKELS_D)
    state = sess.state
    for ln in DFPS_SCRIPT.lines:
        from holebox.kernel import apply_tactic
        state = apply_tactic(state, ln.goal, ln.tactic, ln.argtext)
    assert is_terminal(state)
    # the prefixed script proves the it-statement for the ground truth
    ground = init_prove(NICKELS_D, NICKELS_D.answer)
    report = run_script(ground, dfps_prove_script(DFPS_SCRIPT))
    assert report.accepted
