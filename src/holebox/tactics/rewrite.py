"""Rewriting: first-order matching, the bundled lemma library, the
`rewrite` tactic, and `rw_search` (bounded breadth-first rewriting).

Rewrite rules come from the lemma library (which stands in for a proof
assistant's lemma collections) and from local equational hypotheses.
Universally
quantified sources turn their leading binders into pattern variables;
guard conditions are discharged by exact evaluation on the matched
instance.  The matched occurrence is located leftmost-innermost, and all
occurrences of the instantiated left side are replaced, so traces are
deterministic and replayable.  `replace_all` finds those occurrences by
their cached size: it descends only into subtrees larger than the left
side and compares (`alpha_eq`) only those of exactly its size.

Matching goes through a one-level head index (`SubtermIndex`): one
post-order walk of a term buckets its subterms by head, the node type
with its operator, relation or binder kind and its sort.  `match` fails
at the root on any other head, so each pattern is tried only against
its own bucket, in walk order; a bare pattern variable is tried against
every subterm.  `auto`'s simplifier builds one index per round and
`rw_search` one per frontier term, and both rewrite each match straight
from its substitution (`rewrite_at`).

Rules are dispatched on the same heads (`RuleDispatch`): a rule list is
grouped once by the head of each rule's source pattern, and for one
index only the rules whose head has a bucket there, plus those whose
pattern is a bare variable, are visited, still in list order.  A rule
left out has no occurrence, so a round rewrites exactly as a loop over
every rule would.  A `LemmaLibrary` groups its own rules on first use,
once for the simplifier (every lemma left to right) and once for
`rw_search` (both directions, bare-variable patterns skipped); the
local hypotheses' rules are grouped per search.

`rw_search_term` searches to a depth bound, and remembers its failures
in a bounded LRU table (`RW_SEARCH_MEMO_ENTRIES`) keyed on the
conclusion, the hypotheses' rules, the pending holes and the library
object, with the largest depth at which the search is known to fail.
BFS builds levels 1..d the same way whatever its bound and reaches the
node cap (`RW_SEARCH_NODES`) at the same node, so a failure at depth D
is a failure at every depth up to D, and one that ran out of nodes or
of terms to rewrite is a failure at every depth.  A call at or below
the stored depth returns None without searching.  Only failures are
kept: a remembered answer is one the search would give anyway, so the
table can never close a goal, and a success, whose closer holds a
detail dict, is always searched again.

An `rw_search` certificate's goal is the conclusion the search started
from, and its detail holds two items:

    "path":   [[rule, backward?, occurrence], ...], one per step
    "closer": ("rfl", {}) or ("eval_decide", {"budget": n})

A step holds the `RewriteLemma` it applied, as certificates never leave
the process.  The closer is the kind and detail its tactic would record
for the term the path ends at; the holes an `eval_decide` closer fills
are the step's own `assigns`.  `revalidate_rw_search` replays the path,
each rule a library lemma or a hypothesis' rule in the step's context,
requires it to end at an equation or iff, and builds the closer's
certificate from that term, in the step's case and context, with the
step's `assigns`, which `kernel.revalidate` checks with the closer's
own check.
"""

from __future__ import annotations

import math
import re
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from itertools import product
from typing import Iterator, Optional

from ..expr import (
    App, Atom, BVar, Binder, Conn, ExprError, Lit, Meta, NUMERIC, PROP, Sort,
    Term, Var, alpha_eq, children, eq_sides, has_loose_bvars,
    instantiate_bvar, instantiate_metas, metavars_of, mk_meta, set_of,
    _rebuild,
)
from ..norm import fold_literals
from ..kernel import (
    Certificate, CertificateError, Goal, SolutionState, TacticFailed,
    TacticResult, detail_value, int_arg, register_check, register_tactic,
    revalidate,
)
from ..syntax import ParseError, parse_term
from .decide import DEFAULT_BUDGET, decide_prop, eval_fills
from .structural import _instantiate_hyp, _parse_citation, rfl_check

RW_SEARCH_DEPTH = 6
RW_SEARCH_NODES = 2000
RW_SEARCH_MEMO_ENTRIES = 128


class NoMatch(TacticFailed):
    pass


class SearchExhausted(TacticFailed):
    pass


# ---------------------------------------------------------------------------
# Matching


def match(pat: Term, t: Term, sub: dict[str, Term]) -> bool:
    """First-order match; pattern variables are Meta nodes."""
    if isinstance(pat, Meta):
        if has_loose_bvars(t):
            return False
        if pat.sort != t.sort:
            return False
        if pat.mid in sub:
            return alpha_eq(sub[pat.mid], t)
        sub[pat.mid] = t
        return True
    if type(pat) is not type(t) or pat.sort != t.sort:
        return False
    if isinstance(pat, (Lit, Var, BVar)):
        return pat == t
    if isinstance(pat, App):
        return pat.op == t.op and _match_all(pat.args, t.args, sub)
    if isinstance(pat, Conn):
        return pat.op == t.op and _match_all(pat.args, t.args, sub)
    if isinstance(pat, Atom):
        return pat.rel == t.rel and _match_all(pat.args, t.args, sub)
    # a Binder, the last kind of term
    return (pat.kind == t.kind and pat.vsort == t.vsort
            and match(pat.body, t.body, sub))


def _match_all(ps: tuple[Term, ...], ts: tuple[Term, ...],
               sub: dict[str, Term]) -> bool:
    if len(ps) != len(ts):
        return False
    return all(match(p, x, sub) for p, x in zip(ps, ts))


def subst_pattern(pat: Term, sub: dict[str, Term]) -> Term:
    missing = metavars_of(pat) - sub.keys()
    if missing:
        raise NoMatch(f"unbound pattern variables {sorted(missing)}")
    return instantiate_metas(pat, sub)


def _head(t: Term) -> tuple:
    """What `match` compares at the root before it recurses."""
    cls = type(t)
    if cls is App or cls is Conn:
        return (cls, t.op, t.sort)
    if cls is Atom:
        return (cls, t.rel, t.sort)
    if cls is Binder:
        return (cls, t.kind, t.sort)
    return (cls, None, t.sort)


class SubtermIndex:
    """The subterm occurrences of one term, bucketed by head.

    `walk` lists the occurrences leftmost-innermost (post-order), and
    each bucket keeps that order, so `occurrences` yields the same
    substitutions in the same order as a full walk calling `match` at
    every node.  The index lives as long as the term it was built for.
    """

    def __init__(self, t: Term):
        self.term = t
        self.walk: list[Term] = []
        self._post_order(t)
        self.buckets: dict[tuple, list[Term]] = {}
        for s in self.walk:
            self.buckets.setdefault(_head(s), []).append(s)

    def _post_order(self, t: Term) -> None:
        for k in children(t):
            self._post_order(k)
        self.walk.append(t)

    def occurrences(self, pat: Term) -> Iterator[dict[str, Term]]:
        """Match substitutions at subterm occurrences, leftmost-innermost,
        tried only where the subterm's head is the pattern's."""
        cands = self.walk if isinstance(pat, Meta) \
            else self.buckets.get(_head(pat), ())
        for s in cands:
            sub: dict[str, Term] = {}
            if match(pat, s, sub):
                yield sub


def replace_all(t: Term, old: Term, new: Term) -> Term:
    """`t` with every closed occurrence of `old` (up to binder names)
    replaced; `t` itself when nothing was.  An occurrence has `old`'s
    size, so a subtree smaller than that is returned as it is, and
    `alpha_eq` is tried only on subtrees of exactly that size."""
    if t.size <= old.size:
        if t.size == old.size and not has_loose_bvars(t) \
                and alpha_eq(t, old):
            return new
        return t
    return _rebuild(t, tuple(replace_all(k, old, new) for k in children(t)))


# ---------------------------------------------------------------------------
# Rewrite rules


@dataclass(frozen=True)
class RewriteLemma:
    name: str
    lhs: Term
    rhs: Term
    bidirectional: bool
    sides: tuple[Term, ...] = ()


def rule_from_prop(name: str, prop: Term) -> Optional[RewriteLemma]:
    """Turn a (possibly quantified, guarded) proposition into a rule."""
    metas: list[tuple[str, Sort]] = []
    i = 0
    while isinstance(prop, Binder) and prop.kind == "forall":
        mid = f"_p{i}"
        i += 1
        metas.append((mid, prop.vsort))
        prop = instantiate_bvar(prop.body, mk_meta(mid, prop.vsort))
    sides: list[Term] = []
    while isinstance(prop, Conn) and prop.op == "imp":
        sides.append(prop.args[0])
        prop = prop.args[1]
    pair = eq_sides(prop)
    if pair is None:
        return None
    return RewriteLemma(name, pair[0], pair[1], True, tuple(sides))


def _discharge_sides(rule: RewriteLemma, sub: dict[str, Term]) -> bool:
    for side in rule.sides:
        try:
            inst = subst_pattern(side, sub)
        except NoMatch:
            return False
        if metavars_of(inst):
            return False
        try:
            ok, _ = decide_prop(inst)
        except TacticFailed:
            return False
        if not ok:
            return False
    return True


def rewrite_at(t: Term, rule: RewriteLemma, back: bool,
               sub: dict[str, Term]) -> Optional[Term]:
    """Rewrite `t` at one match `sub` of the rule's source side: discharge
    the guards, instantiate both sides and replace every occurrence of
    the instantiated source.  None when a guard or instantiation fails."""
    if not _discharge_sides(rule, sub):
        return None
    lhs, rhs = (rule.rhs, rule.lhs) if back else (rule.lhs, rule.rhs)
    try:
        old = subst_pattern(lhs, sub)
        new = subst_pattern(rhs, sub)
    except NoMatch:
        return None
    return fold_literals(replace_all(t, old, new))


def first_rewrite(index: SubtermIndex, rule: RewriteLemma,
                  back: bool) -> Optional[Term]:
    """Rewrite the indexed term at the first match that applies."""
    pat = rule.rhs if back else rule.lhs
    for sub in index.occurrences(pat):
        new = rewrite_at(index.term, rule, back, sub)
        if new is not None:
            return new
    return None


def apply_rule(t: Term, rule: RewriteLemma, back: bool,
               occurrence: Optional[int] = None) -> Optional[Term]:
    """Rewrite with one rule at its first match that applies, or at its
    `occurrence`-th match (counted from 1) only; the new term or None."""
    index = SubtermIndex(t)
    if occurrence is None:
        return first_rewrite(index, rule, back)
    pat = rule.rhs if back else rule.lhs
    for k, sub in enumerate(index.occurrences(pat), 1):
        if k == occurrence:
            return rewrite_at(t, rule, back, sub)
    return None


Rule = tuple[RewriteLemma, bool]      # a rule and whether it runs backward


class RuleDispatch:
    """A list of rules grouped by the head of each one's source pattern.

    `for_index` keeps the list order, and leaves out only rules whose
    pattern head has no bucket in the index, which therefore have no
    occurrence there."""

    def __init__(self, rules: list[Rule]):
        self.rules = rules
        self._anywhere: list[int] = []
        self._by_head: dict[tuple, list[int]] = {}
        for i, (rule, back) in enumerate(rules):
            pat = rule.rhs if back else rule.lhs
            if isinstance(pat, Meta):
                self._anywhere.append(i)
            else:
                self._by_head.setdefault(_head(pat), []).append(i)

    def for_index(self, index: SubtermIndex) -> list[Rule]:
        """The rules that can match somewhere in the indexed term."""
        hits = list(self._anywhere)
        for head in index.buckets:
            hits.extend(self._by_head.get(head, ()))
        hits.sort()
        return [self.rules[i] for i in hits]


# ---------------------------------------------------------------------------
# Lemma library


class LemmaLibrary:
    def __init__(self, lemmas: tuple[RewriteLemma, ...] = ()):
        self.lemmas = lemmas

    def named(self, name: str) -> list[RewriteLemma]:
        return [l for l in self.lemmas if l.name == name]

    def __iter__(self):
        return iter(self.lemmas)

    @cached_property
    def simp_rules(self) -> RuleDispatch:
        """Every lemma, left to right: `auto`'s simplifier."""
        return RuleDispatch([(lem, False) for lem in self.lemmas])

    @cached_property
    def search_rules(self) -> RuleDispatch:
        """Each lemma forward, then backward when it is bidirectional:
        `rw_search`'s library rules."""
        return RuleDispatch(_searchable(
            (lem, back) for lem in self.lemmas
            for back in ((False, True) if lem.bidirectional else (False,))))


_PATTERN_SORT_TRIALS = NUMERIC


def parse_lemma_line(line: str) -> list[RewriteLemma]:
    """`name : lhs <-> rhs [if side, side]`.

    Patterns are sort-polymorphic over the numeric sorts; every meta
    assignment at one element sort (with each pattern variable either at
    the sort or at sets over it) that elaborates yields one instance.
    """
    name, _, rest = line.partition(":")
    name = name.strip()
    rest = rest.strip()
    if not name or not rest:
        raise ParseError(f"malformed lemma line {line!r}")
    if " if " in rest:
        rest, _, sides_text = rest.rpartition(" if ")
        side_texts = [s.strip() for s in sides_text.split(",")]
    else:
        side_texts = []
    arrow = " <-> " if " <-> " in rest else " -> "
    lhs_text, _, rhs_text = rest.partition(arrow)
    if not rhs_text:
        raise ParseError(f"lemma {name!r} has no rewrite arrow")
    meta_names = sorted(set(_meta_tokens(rest + " " + " ".join(side_texts))))
    out: list[RewriteLemma] = []
    seen: set[str] = set()
    for sort in _PATTERN_SORT_TRIALS:
        for shape in product((False, True), repeat=len(meta_names)):
            menv = {m: (set_of(sort) if as_set else sort)
                    for m, as_set in zip(meta_names, shape)}
            try:
                lhs = parse_term(lhs_text, metas=menv)
                rhs = parse_term(rhs_text, expected=lhs.sort, metas=menv)
                sides = tuple(parse_term(s, expected=PROP, metas=menv)
                              for s in side_texts)
            except (ParseError, ExprError):
                continue
            key = ";".join(f"{m}:{menv[m]}" for m in meta_names)
            if key in seen:
                continue
            seen.add(key)
            out.append(RewriteLemma(name, lhs, rhs, arrow == " <-> ", sides))
    if not out:
        raise ParseError(f"lemma {name!r} does not elaborate at any sort")
    return out


def _meta_tokens(text: str) -> list[str]:
    return re.findall(r"\?([A-Za-z_][A-Za-z0-9_']*)", text)


def load_lemma_library(text: str) -> LemmaLibrary:
    lemmas: list[RewriteLemma] = []
    version_seen = False
    for raw in text.splitlines():
        line = raw.split("--", 1)[0].strip()
        if not line:
            continue
        if line.startswith("format_version"):
            ver = line.split(":", 1)[-1].strip()
            if ver != "1":
                raise ParseError(f"unsupported lemma library version {ver!r}")
            version_seen = True
            continue
        lemmas.extend(parse_lemma_line(line))
    if not version_seen:
        raise ParseError("lemma library is missing its format_version line")
    return LemmaLibrary(tuple(lemmas))


_DEFAULT_LIBRARY: Optional[LemmaLibrary] = None


def default_library() -> LemmaLibrary:
    global _DEFAULT_LIBRARY
    if _DEFAULT_LIBRARY is None:
        text = (resources.files("holebox.data") / "lemmas.txt").read_text()
        _DEFAULT_LIBRARY = load_lemma_library(text)
    return _DEFAULT_LIBRARY


def set_default_library(lib: LemmaLibrary) -> None:
    global _DEFAULT_LIBRARY
    _DEFAULT_LIBRARY = lib


# ---------------------------------------------------------------------------
# The rewrite tactic


def _hyp_rules(goal: Goal) -> list[RewriteLemma]:
    out = []
    for d in goal.ctx.decls:
        if d.prop is None or d.prop.has_meta:
            continue
        rule = rule_from_prop(d.name, d.prop)
        if rule is not None:
            out.append(rule)
    return out


@register_tactic("rewrite")
def rewrite(state: SolutionState, goal: Goal, argtext: str) -> TacticResult:
    back = False
    text = argtext.strip()
    if text.startswith("<-"):
        back = True
        text = text[2:].strip()
    occurrence: Optional[int] = None
    if "@" in text:
        text, _, occ_text = text.rpartition("@")
        text = text.strip()
        if not occ_text.strip():
            raise TacticFailed("`@` needs an occurrence number")
        occurrence = int_arg(occ_text, 0)
    name, raw_args = _parse_citation(text)
    rules: list[RewriteLemma] = []
    decl = goal.ctx.lookup(name)
    if decl is not None and decl.prop is not None:
        prop = decl.prop
        if raw_args:
            prop, _ = _instantiate_hyp(prop, raw_args, goal.ctx, state)
        if prop.has_meta:
            # a pending hole would match as a pattern variable: any
            # subterm, not the hole (as `_hyp_rules` skips such rules)
            raise TacticFailed(f"{name}: the cited instance holds a hole")
        rule = rule_from_prop(name, prop)
        if rule is None:
            raise TacticFailed(f"{name} is not an equation or iff")
        rules.append(rule)
    else:
        rules = default_library().named(name)
        if not rules:
            raise TacticFailed(f"no hypothesis or lemma named {name!r}")
    concl = goal.concl
    for rule in rules:
        new = apply_rule(concl, rule, back, occurrence)
        if new is not None and new != concl:
            return TacticResult(new_goals=(Goal(goal.case, goal.ctx, new),))
    raise NoMatch(f"{name} does not match the conclusion")


# ---------------------------------------------------------------------------
# rw_search


def _searchable(rules) -> list[Rule]:
    # a direction whose pattern is a bare variable matches every subterm
    # and only inflates the frontier, so it is skipped
    return [(rule, back) for rule, back in rules
            if not isinstance(rule.rhs if back else rule.lhs, Meta)]


def _try_close(concl: Term, pending: frozenset[str]
               ) -> Optional[tuple[tuple[str, dict], tuple]]:
    """The closer of an equation or iff, as `(kind, detail)`, and its
    fills: rfl, then eval_decide; on a conclusion with a hole, only
    eval_decide's fill of one of the `pending` holes."""
    if eq_sides(concl) is None:
        return None
    if not metavars_of(concl):
        try:
            rfl_check(concl)
            return ("rfl", {}), ()
        except TacticFailed:
            pass
    try:
        fills = eval_fills(concl, pending, DEFAULT_BUDGET)
    except TacticFailed:
        return None
    return ("eval_decide", {"budget": DEFAULT_BUDGET}), fills


# (conclusion, hypothesis rules, pending holes, library) -> the largest
# depth at which that search is known to fail, least recently used first
_FAILED: OrderedDict[tuple, float] = OrderedDict()


def rw_search_term(concl: Term, goal: Goal, pending: frozenset[str],
                   max_depth: int = RW_SEARCH_DEPTH):
    """BFS over rewrites, to `max_depth` steps; returns (path, closer,
    assignments) or None.

    `closer` is the `(kind, detail)` of the closer of the last term of
    the path, and `assignments` are the fills of `pending` holes it
    makes.

    A failure is remembered (`_FAILED`) with the largest depth at which
    it is known: `max_depth`, or every depth when the search ran out of
    nodes or of terms to rewrite.  BFS builds levels 1..d the same way
    whatever its depth bound, and reaches the node cap at the same
    node, so a search that fails at depth D fails at every d <= D, and
    a later call at such a depth returns None without searching.  Only
    failures are kept: a remembered answer is one the search would give
    anyway, so it can never close a goal."""
    hyps = tuple(_hyp_rules(goal))
    library = default_library()
    key = (concl, hyps, pending, library)
    failed = _FAILED.get(key)
    if failed is not None and max_depth <= failed:
        _FAILED.move_to_end(key)
        return None
    hit, failed = _bfs(concl, library, hyps, pending, max_depth)
    if hit is None:
        _FAILED[key] = failed
        _FAILED.move_to_end(key)
        if len(_FAILED) > RW_SEARCH_MEMO_ENTRIES:
            _FAILED.popitem(last=False)
    return hit


def _bfs(concl: Term, library: LemmaLibrary,
         hyps: tuple[RewriteLemma, ...], pending: frozenset[str],
         max_depth: int) -> tuple[Optional[tuple], float]:
    """BFS from `concl` over the library's search rules and the
    hypotheses' (all forward, then all backward): the first closed path
    and `max_depth`, or None and the largest depth at which the search
    is known to fail: `max_depth` when it stopped there, infinity when
    it ran out of nodes or of terms to rewrite."""
    lemmas = library.search_rules
    local = RuleDispatch(_searchable(
        [(rule, False) for rule in hyps] + [(rule, True) for rule in hyps]))
    seen = {concl}
    frontier: list[tuple[Term, tuple]] = [(concl, ())]
    nodes = 0
    for depth in range(max_depth + 1):
        for term, path in frontier:
            hit = _try_close(term, pending)
            if hit is not None:
                return (path, *hit), max_depth
        if depth == max_depth:
            break
        nxt: list[tuple[Term, tuple]] = []
        for term, path in frontier:
            index = SubtermIndex(term)
            for rule, back in lemmas.for_index(index) \
                    + local.for_index(index):
                pat = rule.rhs if back else rule.lhs
                for occ, sub in enumerate(index.occurrences(pat), 1):
                    new = rewrite_at(term, rule, back, sub)
                    if new is None or new == term:
                        continue
                    if new in seen:
                        continue
                    seen.add(new)
                    nodes += 1
                    if nodes > RW_SEARCH_NODES:
                        return None, math.inf
                    nxt.append((new, path + ((rule, back, occ),)))
        frontier = nxt
        if not frontier:
            return None, math.inf
    return None, max_depth


@register_tactic("rw_search")
def rw_search(state: SolutionState, goal: Goal, argtext: str) -> TacticResult:
    max_depth = int_arg(argtext, RW_SEARCH_DEPTH)
    concl = goal.concl
    if eq_sides(concl) is None:
        raise TacticFailed("rw_search needs an equality or iff goal")
    hit = rw_search_term(concl, goal, state.pending_holes(), max_depth)
    if hit is None:
        raise SearchExhausted(f"no rewrite proof within depth {max_depth}")
    path, closer, fills = hit
    cert = Certificate("rw_search", goal, {
        "path": [list(step) for step in path],
        "closer": closer,
    }, fills)
    return TacticResult(cert=cert)


def _rw_search_line(detail: dict, argtext: str) -> bool:
    return len(detail_value("rw_search", detail, "path", list)) \
        <= int_arg(argtext, RW_SEARCH_DEPTH)


@register_check("rw_search", line=_rw_search_line)
def revalidate_rw_search(cert: Certificate) -> None:
    """Replay the path from the searched conclusion, then check the
    closer's certificate of the replayed equation, which fills the
    step's holes."""
    goal = cert.goal
    term = goal.concl
    lemmas = default_library().lemmas
    for step in detail_value("rw_search", cert.detail, "path", list):
        if not (isinstance(step, list) and len(step) == 3 and all(
                isinstance(x, k) for x, k in
                zip(step, (RewriteLemma, bool, int)))):
            raise CertificateError(f"rw_search step {step!r} is malformed")
        rule, back, occ = step
        if rule not in lemmas and rule not in _hyp_rules(goal):
            raise CertificateError(f"rw_search rule {rule.name!r} is "
                                   "no lemma or hypothesis")
        term = apply_rule(term, rule, back, occ)
        if term is None:
            raise CertificateError(
                f"rw_search step {rule.name!r} fails to replay")
    if eq_sides(term) is None:
        raise CertificateError("rw_search closer on a non-equation")
    closer = detail_value("rw_search", cert.detail, "closer", tuple)
    if len(closer) != 2 or closer[0] not in ("rfl", "eval_decide"):
        raise CertificateError(f"rw_search closer {closer!r} is neither "
                               "rfl nor eval_decide")
    kind, detail = closer
    revalidate(Certificate(
        kind, Goal(goal.case, goal.ctx, term), detail, cert.assigns))
