"""Tactic repertoire: structural rules, rewriting, and decision procedures.

Importing this package registers every tactic with the kernel registry.
`revalidate` re-checks a recorded closure certificate with the
revalidator of its kind; replay uses it to confirm that each goal the
trace closed really was closed for the reason stated.

Each computational closer decides closure in one function, which its
tactic and its revalidator both call: `structural.rfl_evidence`,
`decide.eval_evidence` (deciding and hole-assigning) and
`ring.ring_sides`.  `auto` tests rfl and ring closure through them,
and `rw_search` closes through the rfl and eval_decide ones: its
certificate carries the closer's own certificate, which that kind's
revalidator checks.
"""

from __future__ import annotations

from ..kernel import Certificate, CertificateError

from . import structural, decide, linarith, ring, rewrite, auto  # noqa: F401

from .structural import (  # noqa: F401
    revalidate_cases, revalidate_exact, revalidate_rfl,
)
from .decide import revalidate_eval_decide  # noqa: F401
from .linarith import revalidate_linear_arith  # noqa: F401
from .ring import revalidate_ring_nf  # noqa: F401
from .rewrite import revalidate_rw_search  # noqa: F401
from .auto import revalidate_auto  # noqa: F401

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
