"""Tactic repertoire: structural rules, rewriting, and decision procedures.

Importing this package registers every tactic with the kernel, and the
check of each certificate kind beside it (`kernel.register_check`);
`kernel.revalidate` re-checks a recorded closure certificate with the
check of its kind, and replay uses it to confirm that each goal the
trace closed really was closed for the reason stated.  No tactic or
check guards holes: the kernel lets only `exact` act on a hole goal.

A certificate's detail holds only evidence that its check reads, or the
line's own parameter, never a value its goal determines:

    exact         {"hyp", "args"}, or {} for a hole fill
    cases         {"false_hyp"}
    rfl, ring_nf  {}
    eval_decide   {"budget"}
    auto          {"budget"}
    linear_arith  {"branches"}: {"multipliers"} for a rational branch
                  with no `!=`, {} for any other
    rw_search     {"path", "closer"}, the closer a (kind, detail) pair

Each computational closer decides closure in one function, which its
tactic and its check both call: `structural.rfl_check`,
`decide.eval_fills` (deciding and hole-assigning) and
`ring.ring_sides`.  `auto` tests rfl and ring closure through them,
and `rw_search` closes through the rfl and eval_decide ones: its
check builds the closer's certificate of the term its path ends at,
and `kernel.revalidate` checks that with the closer's own check.

Certification replays a recorded closing step from its certificate,
without running its line, when the tactic registered a replay rule with
its check: a line that takes no argument or only an optional number,
which must agree with what the certificate records
(`kernel.replay_step`).  So a searching line replays under its own
parameters, and its search is not run again.
"""

from . import structural, decide, linarith, ring, rewrite, auto  # noqa: F401
