"""Best-first proof search over solution states.

Nodes are states, tactic applications are edges, and the value of a
node is the running sum of length-normalized log-probabilities along
its path (root 0, always non-increasing).  The policy boundary is
pluggable: the builtin policy enumerates a fixed tactic menu with
uniform log-probabilities so the engine runs standalone, and an
external policy speaks a line-delimited JSON protocol over a child
process's standard streams.
"""

from __future__ import annotations

import heapq
import json
import math
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

from .expr import Binder, Conn, ExprError, Term
from .fps import (
    Session, certify, extract_answer, init_prove, run_trace, session_init,
)
from .kernel import (
    Goal, KernelError, ReplayReport, SolutionState, apply_tactic,
    is_terminal, render_goal, script_of_trace,
)
from .syntax import Problem, ProofScript

MAX_SEARCH_DEPTH = 40   # tactic applications along one search path


class PolicyError(Exception):
    def __init__(self, kind: str, msg: str):
        super().__init__(f"{kind}: {msg}")
        self.kind = kind


@dataclass(frozen=True)
class PolicySuggestion:
    goal: str
    tactic: str
    argtext: str
    logprob: float
    tactic_length: int

    def __post_init__(self):
        if not (self.logprob <= 0 and math.isfinite(self.logprob)):
            raise PolicyError("protocol", f"logprob {self.logprob} > 0")
        if self.tactic_length < 1:
            raise PolicyError("protocol", "tacticLength must be positive")


@dataclass(frozen=True)
class SearchConfig:
    width: int = 8          # S: suggestions per expansion
    budget: int = 200       # K: nodes popped

    def __post_init__(self):
        if self.width < 1 or self.budget < 0:
            raise ValueError("width must be >= 1 and budget >= 0")


@dataclass
class SearchNode:
    state: SolutionState
    path_log_score: float
    depth: int


def node_value(node: SearchNode) -> float:
    return node.path_log_score


@dataclass
class SearchResult:
    status: str                      # solved | exhausted
    script: Optional[ProofScript] = None
    answer: Optional[Term] = None
    certificate: Optional[dict] = None
    stats: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Builtin policy

BUILTIN_MENU = ("intro", "iff_split", "exists_intro", "exact",
                "eval_decide", "ring_nf", "linear_arith", "rw_search", "auto")


def builtin_policy(state: SolutionState, goal: Goal, k: int
                   ) -> list[PolicySuggestion]:
    """Fixed menu with uniform log-probabilities, deterministic order.

    Menu items whose conclusion shape rules them out are skipped, and k
    counts menu items, so small allocations still reach the closers;
    `exact` expands to one suggestion per hypothesis inside its single
    menu slot.  A hole goal takes no menu suggestions: answer holes are
    filled by the decision procedures' assignment modes.
    """
    if goal.is_hole_goal():
        return []
    logp = math.log(1.0 / len(BUILTIN_MENU))
    concl = goal.concl
    out: list[PolicySuggestion] = []
    taken = 0
    for tactic in BUILTIN_MENU:
        if taken >= k:
            break
        if tactic == "intro" and not (
                (isinstance(concl, Binder) and concl.kind == "forall")
                or (isinstance(concl, Conn) and concl.op == "imp")):
            continue
        if tactic == "iff_split" and not (
                isinstance(concl, Conn) and concl.op == "iff"):
            continue
        if tactic == "exists_intro" and not (
                isinstance(concl, Binder) and concl.kind == "exists"):
            continue
        if tactic == "exact":
            hyps = [d for d in goal.ctx.decls if d.prop is not None]
            if not hyps:
                continue
            taken += 1
            for d in hyps:
                out.append(PolicySuggestion(goal.case, "exact", d.name,
                                            logp, len(f"exact {d.name}")))
            continue
        taken += 1
        out.append(PolicySuggestion(goal.case, tactic, "", logp,
                                    len(tactic)))
    return out


Policy = Callable[[SolutionState, Goal, int], list[PolicySuggestion]]


# ---------------------------------------------------------------------------
# Expansion and the search loop


def allocate(total: int, goals: int) -> list[int]:
    """Even split with the remainder on the earliest goals."""
    base, rem = divmod(total, goals)
    return [base + (1 if i < rem else 0) for i in range(goals)]


def expand(node: SearchNode, policy: Policy, width: int
           ) -> list[SearchNode]:
    """Apply up to `width` policy suggestions, split evenly across the open
    goals with the remainder on the earliest goals; shares a goal leaves
    unused are redistributed in goal order."""
    state = node.state
    if is_terminal(state):
        return []
    goals = state.goals
    shares = allocate(width, len(goals))
    offered = [policy(state, g, width) for g in goals]
    counts = [min(share, len(o)) for share, o in zip(shares, offered)]
    leftover = width - sum(counts)
    while leftover > 0:
        progressed = False
        for i in range(len(goals)):
            if leftover > 0 and counts[i] < len(offered[i]):
                counts[i] += 1
                leftover -= 1
                progressed = True
        if not progressed:
            break
    chosen: list[PolicySuggestion] = []
    for o, c in zip(offered, counts):
        chosen.extend(o[:c])
    children: list[SearchNode] = []
    for sug in chosen:
        try:
            nxt = apply_tactic(state, sug.goal, sug.tactic, sug.argtext)
        except (KernelError, ExprError):
            continue
        children.append(SearchNode(
            nxt, node.path_log_score + sug.logprob / sug.tactic_length,
            node.depth + 1))
    return children


def search_states(root_state: SolutionState, policy: Policy,
                  cfg: SearchConfig,
                  success: Callable[[SolutionState], bool]
                  ) -> tuple[Optional[SearchNode], dict]:
    """Core loop: pop up to K nodes by value, expand, stop on success."""
    root = SearchNode(root_state, 0.0, 0)
    counter = 0
    heap: list[tuple[float, int, SearchNode]] = [(0.0, counter, root)]
    popped = 0
    generated = 0
    popped_values: list[float] = []

    def stats(frontier: int) -> dict:
        return {"popped": popped, "generated": generated,
                "frontier": frontier, "popped_values": popped_values}

    while heap and popped < cfg.budget:
        value, _, node = heapq.heappop(heap)
        popped += 1
        popped_values.append(-value)
        if success(node.state):
            return node, stats(len(heap))
        if node.depth >= MAX_SEARCH_DEPTH:
            continue
        for child in expand(node, policy, cfg.width):
            counter += 1
            generated += 1
            if success(child.state):
                popped_values.append(node_value(child))
                return child, stats(len(heap))
            heapq.heappush(heap, (-node_value(child), counter, child))
    return None, stats(len(heap))


def public_stats(stats: dict) -> dict:
    """Search stats for reports and output: without `popped_values`."""
    return {k: v for k, v in stats.items() if k != "popped_values"}


def best_first_search(problem: Problem, policy: Policy,
                      cfg: SearchConfig = SearchConfig()) -> SearchResult:
    sess = session_init(problem)
    node, stats = search_states(sess.state, policy, cfg,
                                lambda s: Session(problem, s).answer_ready())
    if node is None:
        return SearchResult("exhausted", stats=stats)
    return _finish(problem, node, stats)


def prove_by_search(problem: Problem, answer: Term, cfg: SearchConfig
                    ) -> tuple[Optional[ReplayReport], dict]:
    """Search for a proof of P(answer) with the builtin policy and
    replay it from `init_prove`, as `certify` replays a found session
    (`fps.run_trace`); the replay's report, or None when the budget runs
    out, and the search stats."""
    start = init_prove(problem, answer)
    node, stats = search_states(start, builtin_policy, cfg, is_terminal)
    if node is None:
        return None, stats
    return run_trace(start, node.state), stats


def _finish(problem: Problem, node: SearchNode, stats: dict) -> SearchResult:
    sess = Session(problem, node.state)
    answer = extract_answer(sess)
    cert = certify(sess)
    stats = dict(stats)
    stats["depth"] = node.depth
    return SearchResult(
        "solved",
        script=script_of_trace(node.state),
        answer=answer,
        certificate=cert.to_json(),
        stats=stats,
    )


# ---------------------------------------------------------------------------
# External policy protocol (line-delimited JSON over a child process)


class ExternalPolicy:
    """`request {"id","goals":[{case,pretty}],"k"}` per line; one response
    line with suggestions.  Malformed responses raise a protocol error;
    timeouts yield no suggestions (with a warning on stderr)."""

    def __init__(self, cmd: list[str], timeout: float = 5.0):
        self.timeout = timeout
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, bufsize=1)
        self._id = 0

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=2)
            except subprocess.TimeoutExpired:
                self.proc.kill()

    def __call__(self, state: SolutionState, goal: Goal, k: int
                 ) -> list[PolicySuggestion]:
        self._id += 1
        req = {"id": self._id,
               "goals": [{"case": goal.case, "pretty": render_goal(goal)}],
               "k": k}
        line = self._roundtrip(json.dumps(req))
        if line is None:
            return []
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise PolicyError("protocol", f"non-JSON response: {e}")
        if obj.get("id") != self._id:
            raise PolicyError("protocol", "response id mismatch")
        out: list[PolicySuggestion] = []
        for s in obj.get("suggestions", [])[:k]:
            try:
                tactic_text = s["tactic"]
                parts = tactic_text.split(None, 1)
                out.append(PolicySuggestion(
                    s.get("case", goal.case), parts[0],
                    parts[1] if len(parts) > 1 else "",
                    float(s["logprob"]),
                    int(s.get("length", len(tactic_text)))))
            except (KeyError, ValueError, TypeError) as e:
                raise PolicyError("protocol", f"bad suggestion: {e}")
        return out

    def _roundtrip(self, line: str) -> Optional[str]:
        assert self.proc.stdin and self.proc.stdout
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        result: list[Optional[str]] = [None]

        def read() -> None:
            result[0] = self.proc.stdout.readline()

        t = threading.Thread(target=read, daemon=True)
        t.start()
        t.join(self.timeout)
        if t.is_alive() or result[0] is None:
            print("warning: policy timed out; no suggestions",
                  file=sys.stderr)
            return None
        if result[0] == "":
            raise PolicyError("protocol", "policy process closed its stream")
        return result[0]
