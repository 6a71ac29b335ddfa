"""Span tracer that wraps holebox's public functions from outside.

The tracer never edits the engine.  It replaces each target function,
at every module (and module-level registry dict) that binds the same
function object, with a wrapper that records one span per call: name,
parent span, start, end and a few flag bits.  Functions that modules
import inside a function body (`from .kernel import apply_tactic`) are
covered because that import reads the patched module attribute.

Spans stay in compact arrays in memory while the workload runs and are
written out once, at the end: a JSON header line, then the five arrays
in machine byte order.  Self time is a span's duration minus the
durations of its direct child spans; inclusive time of a recursive
function counts only its outermost spans.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

RAISED = 1      # the call raised
HIT = 2         # the call returned a useful result (closers, searches)
REPEAT = 4      # normalize: argument already seen within the same op
OUTER = 8       # no enclosing span of the same name was open

# (module, function) pairs traced under the name "<layer>.<function>".
# `apply_tactic` spans are named per tactic.
TARGETS = (
    ("syntax", "parse_problem"), ("syntax", "parse_term"),
    ("syntax", "print_term"),
    ("norm", "normalize"), ("norm", "fold_literals"),
    ("norm", "definitional_eq"),
    ("kernel", "apply_tactic"), ("kernel", "recheck"),
    ("tactics.decide", "decide_prop"),
    ("tactics.linarith", "prove_linear"), ("tactics.linarith", "omega_sat"),
    ("tactics.linarith", "fm_refute"),
    ("tactics.ring", "ring_closes"),
    ("tactics.rewrite", "rw_search_term"),
    ("tactics.auto", "revalidate_auto"),
    ("fps", "certify"), ("fps", "run_trace"), ("fps", "_recheck_statement"),
    ("rpe", "rpe_check"),
    ("search", "best_first_search"), ("search", "search_states"),
    ("search", "expand"),
    ("bench", "evaluate_entry"), ("bench", "_prove_ground_truth"),
    ("cli", "cli_main"),
)

# Bindings inside one module that get an extra span of their own, so a
# caller-side view exists next to the callee's: the closers as `auto`
# calls them, the RPE stages, and `recheck` as `certify` calls it.
CALLER_VIEWS = (
    ("tactics.auto", "decide_prop", "auto.closer.decide_prop"),
    ("tactics.auto", "ring_closes", "auto.closer.ring_closes"),
    ("tactics.auto", "prove_linear", "auto.closer.prove_linear"),
    ("tactics.auto", "rw_search_term", "auto.closer.rw_search_term"),
    ("rpe", "apply_tactic", "rpe.stage"),
    ("fps", "recheck", "fps.certify.recheck"),
)


def _layer(module: str) -> str:
    return module.rsplit(".", 1)[-1]


def _hit_of(name: str):
    """Which results count as a hit, for the functions that have one."""
    if name.endswith("decide_prop"):
        return lambda r: bool(r[0])
    if name.endswith("ring_closes"):
        return bool
    if name.endswith("prove_linear"):
        return lambda r: True
    if name.endswith("rw_search_term"):
        return lambda r: r is not None and not r[2]
    if name == "rpe.stage":
        return lambda r: not r.goals
    if name == "rpe.rpe_check":
        return lambda r: r.equivalent
    return None


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.flags = array("b")
        self.search_nodes = [0, 0]      # popped, generated
        self._stack: list[int] = []
        self._open: dict[int, int] = defaultdict(int)
        self._seen: set = set()

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_op(self) -> None:
        """Start a new op: `repeat_ratio` counts repeats within one op."""
        self._seen = set()

    def wrap(self, name: str, fn, keyed: bool = False):
        tracer = self
        hit_of = _hit_of(name)
        is_normalize = name == "norm.normalize"
        is_search_states = name == "search.search_states"

        def wrapper(*args, **kwargs):
            span_name = name
            if keyed:
                tactic = args[2] if len(args) > 2 else kwargs["tactic"]
                span_name = f"{name}.{tactic}"
            nid = tracer._nid(span_name)
            flags = 0
            if is_normalize:
                key = args[0]
                if key in tracer._seen:
                    flags |= REPEAT
                else:
                    tracer._seen.add(key)
            if tracer._open[nid] == 0:
                flags |= OUTER
            tracer._open[nid] += 1
            sid = len(tracer.start)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.name.append(nid)
            tracer.end.append(0)
            tracer.flags.append(0)
            tracer._stack.append(sid)
            tracer.start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end[sid] = time.perf_counter_ns()
                tracer.flags[sid] = flags | RAISED
                raise
            else:
                tracer.end[sid] = time.perf_counter_ns()
                if hit_of is not None and hit_of(result):
                    flags |= HIT
                if is_search_states:
                    tracer.search_nodes[0] += result[1]["popped"]
                    tracer.search_nodes[1] += result[1]["generated"]
                tracer.flags[sid] = flags
                return result
            finally:
                tracer._stack.pop()
                tracer._open[nid] -= 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Patch every binding of every target in the loaded holebox
        modules."""
        mods = {k: m for k, m in sys.modules.items()
                if k == "holebox" or k.startswith("holebox.")}
        for module, fname in TARGETS:
            fn = getattr(mods["holebox." + module], fname)
            w = self.wrap(f"{_layer(module)}.{fname.lstrip('_')}", fn,
                          keyed=fname == "apply_tactic")
            _rebind(mods.values(), fn, w)
        for module, fname, span in CALLER_VIEWS:
            mod = mods["holebox." + module]
            setattr(mod, fname, self.wrap(span, getattr(mod, fname),
                                          keyed=span == "rpe.stage"))

    def dump(self) -> dict:
        return {"names": self.names, "search_nodes": list(self.search_nodes),
                **{k: getattr(self, k) for k in _ARRAYS}}

    def write(self, path: str) -> None:
        header = {"names": self.names, "spans": len(self.start),
                  "search_nodes": list(self.search_nodes)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for k in _ARRAYS:
                getattr(self, k).tofile(fh)


_ARRAYS = ("parent", "name", "start", "end", "flags")


def read_spans(path: str) -> dict:
    """Load a file written by `Tracer.write` into the `dump` layout."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        out = {"names": header["names"],
               "search_nodes": header["search_nodes"]}
        for k in _ARRAYS:
            arr = array("b" if k == "flags" else "q")
            arr.fromfile(fh, header["spans"])
            out[k] = arr
    return out


def _rebind(modules, fn, wrapper) -> None:
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is fn:
                setattr(mod, attr, wrapper)
            elif isinstance(val, dict):
                for k, v in list(val.items()):
                    if v is fn:
                        val[k] = wrapper


class Totals:
    """Per-name sums over one or more span dumps."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.raised: dict[str, int] = defaultdict(int)
        self.hits: dict[str, int] = defaultdict(int)
        self.repeats: dict[str, int] = defaultdict(int)
        self.child_of: dict[tuple[str, str], list[int]] = \
            defaultdict(lambda: [0, 0, 0])     # calls, raised, incl ns
        self.search_nodes = [0, 0]
        self.spans = 0

    def add(self, dump: dict) -> None:
        names = dump["names"]
        parent, name = dump["parent"], dump["name"]
        dur = array("q", (e - s for s, e in zip(dump["start"], dump["end"])))
        child_ns = array("q", bytes(8 * len(dur)))
        for i, p in enumerate(parent):
            if p >= 0:
                child_ns[p] += dur[i]
        for i, nid in enumerate(name):
            n = names[nid]
            f = dump["flags"][i]
            self.calls[n] += 1
            self.self_ns[n] += dur[i] - child_ns[i]
            if f & OUTER:
                self.incl_ns[n] += dur[i]
            if f & RAISED:
                self.raised[n] += 1
            if f & HIT:
                self.hits[n] += 1
            if f & REPEAT:
                self.repeats[n] += 1
            p = parent[i]
            if p >= 0:
                c = self.child_of[(names[name[p]], n)]
                c[0] += 1
                c[1] += bool(f & RAISED)
                c[2] += dur[i]
        self.search_nodes[0] += dump["search_nodes"][0]
        self.search_nodes[1] += dump["search_nodes"][1]
        self.spans += len(dur)

    def under(self, parent: str, prefix: str) -> tuple[int, int, int]:
        """Calls, raised calls and ns of spans named `prefix*` directly
        below spans named `parent`."""
        out = [0, 0, 0]
        for (p, n), c in self.child_of.items():
            if p == parent and n.startswith(prefix):
                out = [a + b for a, b in zip(out, c)]
        return out[0], out[1], out[2]
