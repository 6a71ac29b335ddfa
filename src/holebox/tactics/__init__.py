"""Tactic repertoire: structural rules, rewriting, and decision procedures.

Importing this package registers every tactic with the kernel registry.
`revalidate` re-checks a recorded closure certificate with the
revalidator of its kind; replay uses it to confirm that each goal the
trace closed really was closed for the reason stated.

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
tactic and its revalidator both call: `structural.rfl_check`,
`decide.eval_fills` (deciding and hole-assigning) and
`ring.ring_sides`.  `auto` tests rfl and ring closure through them,
and `rw_search` closes through the rfl and eval_decide ones: its
revalidator builds the closer's certificate of the term its path ends
at, which that kind's revalidator checks.

Certification replays a recorded closing step from its certificate,
without running its line, when the tactic has a line check here: a line
that takes no argument or only an optional number, which must agree
with what the certificate records (`revalidate_step`).  So a searching
line replays under its own parameters, and its search is not run again.
"""

from __future__ import annotations

from ..kernel import (
    Certificate, CertificateError, TraceStep, detail_value, int_arg,
)

from . import structural, decide, linarith, ring, rewrite, auto  # noqa: F401

from .structural import (  # noqa: F401
    revalidate_cases, revalidate_exact, revalidate_rfl,
)
from .decide import DEFAULT_BUDGET, revalidate_eval_decide  # noqa: F401
from .linarith import revalidate_linear_arith  # noqa: F401
from .ring import revalidate_ring_nf  # noqa: F401
from .rewrite import RW_SEARCH_DEPTH, revalidate_rw_search  # noqa: F401
from .auto import AUTO_BUDGET, revalidate_auto  # noqa: F401

_REVALIDATORS = {
    "exact": revalidate_exact,
    "rfl": revalidate_rfl,
    "cases": revalidate_cases,
    "eval_decide": revalidate_eval_decide,
    "linear_arith": revalidate_linear_arith,
    "ring_nf": revalidate_ring_nf,
    "rw_search": revalidate_rw_search,
    "auto": revalidate_auto,
}


def revalidate(cert: Certificate) -> None:
    fn = _REVALIDATORS.get(cert.tactic)
    if fn is None:
        raise CertificateError(
            f"no revalidator for certificate kind {cert.tactic!r}")
    fn(cert)


def _auto_line(detail: dict, argtext: str) -> bool:
    return detail_value("auto", detail, "budget", int) \
        == int_arg(argtext, AUTO_BUDGET)


def _eval_decide_line(detail: dict, argtext: str) -> bool:
    return detail_value("eval_decide", detail, "budget", int) \
        == int_arg(argtext, DEFAULT_BUDGET)


def _rw_search_line(detail: dict, argtext: str) -> bool:
    return len(detail_value("rw_search", detail, "path", list)) \
        <= int_arg(argtext, RW_SEARCH_DEPTH)


def _reads_no_argument(detail: dict, argtext: str) -> bool:
    return True


# Whether a line's parameter agrees with the certificate of the step
# it closed, for the closing lines replayed from their certificate.
_LINE_CHECKS = {
    "auto": _auto_line,
    "eval_decide": _eval_decide_line,
    "rw_search": _rw_search_line,
    "linear_arith": _reads_no_argument,
    "ring_nf": _reads_no_argument,
    "rfl": _reads_no_argument,
}


def replays_from_certificate(step: TraceStep) -> bool:
    """A recorded step that closed its goal with a line that has a line
    check: certification replays it from its certificate."""
    return step.cert is not None and step.tactic in _LINE_CHECKS


def revalidate_step(step: TraceStep) -> None:
    """Check a recorded closing step without running its line: the
    certificate is of the line's tactic, agrees with the line's
    parameter, and revalidates."""
    cert = step.cert
    if cert.tactic != step.tactic \
            or not _LINE_CHECKS[step.tactic](cert.detail, step.argtext):
        raise CertificateError(f"the line {step.tactic} {step.argtext!r} "
                               "differs from its certificate")
    revalidate(cert)
