"""holebox: a self-contained formal problem-solving engine.

A miniature tactic-style proof kernel over many-sorted first-order
logic with exact arithmetic, plus: constructive and deductive
problem-solving sessions with executable soundness and completeness
checks, restricted propositional equivalence for answer checking,
best-first proof search with a pluggable policy boundary, and a
deterministic benchmark pipeline.
"""

from . import tactics  # noqa: F401  (registers the tactic repertoire)

from .expr import (  # noqa: F401
    BOOL, INT, NAT, PROP, RAT, REAL, LocalDecl, Sort, Telescope, Term,
    free_vars, instantiate_metas, metavars_of, substitute, syntactic_eq,
)
from .norm import definitional_eq, normalize  # noqa: F401
from .syntax import (  # noqa: F401
    ParseError, Problem, ProofScript, SchemaError, parse_problem,
    parse_script, parse_term, print_term,
)
from .kernel import (  # noqa: F401
    Goal, Hole, SolutionState, TacticFailed, apply_tactic, assign_metavar,
    is_terminal,
)
from .fps import (  # noqa: F401
    Session, certify, dfps_init, extract_answer, forward_finished, fps_init,
    fps_to_dfps, init_prove, prove_by_script, replay_check, session_init,
)
from .rpe import RpeVerdict, build_rpe_goal, rpe_check  # noqa: F401
from .search import (  # noqa: F401
    ExternalPolicy, SearchConfig, best_first_search, builtin_policy,
    node_value,
)
from .bench import (  # noqa: F401
    BenchmarkEntry, aggregate_metrics, evaluate_entry, load_benchmark,
    run_benchmark,
)

__version__ = "0.1.0"
