"""Module layering and the names the traced benchmark wraps."""

import ast
import importlib
import importlib.util
import inspect
import textwrap
from pathlib import Path

import holebox
import holebox.tactics  # noqa: F401  (registers every tactic)
from holebox.expr import Term
from holebox.kernel import TACTICS

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE = Path(holebox.__file__).resolve().parent

LOWER = ("expr", "syntax", "norm", "kernel")
UPPER = {"fps", "search", "bench", "cli"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_targets_resolve():
    tracer = _load_tracer()
    pairs = list(tracer.TARGETS) + [(m, f) for m, f, _ in tracer.CALLER_VIEWS]
    missing = [f"{m}.{f}" for m, f in pairs
               if not callable(getattr(
                   importlib.import_module("holebox." + m), f, None))]
    assert not missing


def _imported_modules(path):
    """Sibling holebox modules named by any `from ... import` in the file."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if not node.level:
            if module.split(".")[0] != "holebox":
                continue
            module = module[len("holebox"):].lstrip(".")
        if module:
            out.add(module.split(".")[0])
        else:
            out.update(a.name for a in node.names)
    return out


def test_lower_layers_import_no_upper_layer():
    bad = {m: sorted(_imported_modules(PACKAGE / f"{m}.py") & UPPER)
           for m in LOWER}
    assert not any(bad.values()), bad


# No import sits inside a function: the kernel holds the check registry
# that each tactic module fills at import.
ALLOWED_LOCAL_IMPORTS = set()


def _local_imports(path):
    """(function, module) for every import inside a function body."""
    out = []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Import):
                out += [(fn.name, a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                out.append((fn.name, "." * node.level + (node.module or "")))
    return out


def test_imports_sit_at_module_top():
    found = {(str(path.relative_to(PACKAGE)), fn, module)
             for path in sorted(PACKAGE.rglob("*.py"))
             for fn, module in _local_imports(path)}
    assert found == ALLOWED_LOCAL_IMPORTS


def _called_names(fn):
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            yield f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")


# The text the functions a revalidator reaches in its own module still
# read or print: rw_search parses the lemma library the first time it is
# loaded.  Nothing on a check path prints.
TEXT_ON_CHECK_PATH = {("tactics/rewrite.py", "parse_lemma_line", "parse_term")}


# The line checks certification runs instead of a searching line.
LINE_CHECKS = {fn.__name__ for fn in
               importlib.import_module("holebox.kernel").REPLAY_LINES.values()}


def _is_check(name):
    return name.startswith("revalidate") or name in LINE_CHECKS


def _text_reached_by_revalidators(rel, tree):
    """(module, function, parse_term or print_term) for every function
    that a `revalidate*` function or a line check of `tree` reaches
    through calls by name to the module's own functions (methods
    included), and that calls the parser or the printer itself."""
    fns = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            fns.setdefault(fn.name, []).append(fn)
    todo = [name for name in fns if _is_check(name)]
    seen = set(todo)
    found = set()
    while todo:
        name = todo.pop()
        for fn in fns[name]:
            for called in _called_names(fn):
                if called in ("parse_term", "print_term"):
                    found.add((rel, name, called))
                elif called in fns and called not in seen:
                    seen.add(called)
                    todo.append(called)
    return found


def test_certificates_are_checked_without_the_parser():
    # a certificate carries its goal and details as the engine's values,
    # so neither the kernel nor any revalidator or line check reads or
    # prints text, and nothing hashes text except the reported script hash
    trees = {path.relative_to(PACKAGE).as_posix():
             ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.rglob("*.py"))}
    imported = {a.name for node in ast.walk(trees["kernel.py"])
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert "parse_term" not in imported
    callers = sorted(
        (fn.name, name) for tree in trees.values()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and _is_check(fn.name)
        for name in ("parse_term", "print_term")
        if name in _called_names(fn))
    assert not callers, callers
    assert LINE_CHECKS <= {fn.name for tree in trees.values()
                           for fn in ast.walk(tree)
                           if isinstance(fn, ast.FunctionDef)}
    # ring and linear_arith atoms are keyed by their interned node, so
    # neither ring_nf's check (`ring_sides`, `poly_of`, `AtomTable.key`)
    # nor linear_arith's (`Atomizer.key_for`, `_mod_key`) prints
    for rel in ("tactics/ring.py", "tactics/linarith.py"):
        names = {a.name for node in ast.walk(trees[rel])
                 if isinstance(node, ast.ImportFrom) for a in node.names}
        assert not names & {"parse_term", "print_term"}, rel
    reached = set().union(*(_text_reached_by_revalidators(rel, tree)
                            for rel, tree in trees.items()))
    assert reached == TEXT_ON_CHECK_PATH
    hashing = sorted(
        rel for rel, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        and any(a.name == "hashlib" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "hashlib")
    assert hashing == ["fps.py"]


# The closure tests rw_search must reach only through the closers' own
# functions (`rfl_check`, `eval_fills`) and their revalidators.
CLOSURE_INTERNALS = {"definitional_eq", "decide_prop", "eval_term",
                     "_value_term", "_check_assignment"}


def test_rw_search_closes_only_through_the_closers():
    tree = ast.parse((PACKAGE / "tactics" / "rewrite.py").read_text(
        encoding="utf-8"))
    fns = {fn.name: fn for fn in ast.walk(tree)
           if isinstance(fn, ast.FunctionDef)}
    direct = {name: sorted(set(_called_names(fns[name])) & CLOSURE_INTERNALS)
              for name in ("_try_close", "revalidate_rw_search")}
    assert direct == {"_try_close": [], "revalidate_rw_search": []}


# -- a state's assignment ----------------------------------------------------

# The modules that read a state's assignment as a map: the kernel, which
# keeps every goal free of assigned holes, and `fps.extract_answer`.  A
# tactic reads its goal, and text through `SolutionState.instantiated`.
ASG_MAP_READERS = {"kernel.py", "fps.py"}


def assignment_reads(source, filename="<source>"):
    """Calls of `asg_map`, and `instantiate_metas` calls handed a state's
    assignment (an argument that calls `asg_map` or reads `.assignment`),
    in `source`, as `file:line: asg_map` or `file:line: instantiate_metas`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = _name_of(node)
        args = node.args[1:] + [k.value for k in node.keywords]
        if name == "asg_map" or name == "instantiate_metas" and any(
                isinstance(sub, ast.Attribute)
                and sub.attr in ("asg_map", "assignment")
                for arg in args for sub in ast.walk(arg)):
            found.append(f"{filename}:{node.lineno}: {name}")
    return sorted(found)


def test_assignment_read_check_catches_planted_calls():
    assert assignment_reads(
        "x = 1\nconcl = instantiate_metas(goal.concl, state.asg_map())\n",
        "tactics/auto.py") == ["tactics/auto.py:2: asg_map",
                               "tactics/auto.py:2: instantiate_metas"]
    assert assignment_reads("instantiate_metas(t, dict(s.assignment))\n") \
        == ["<source>:1: instantiate_metas"]
    assert assignment_reads("asg = s.asg_map()\n") == ["<source>:1: asg_map"]
    assert not assignment_reads("instantiate_metas(pat, sub)\n")
    assert not assignment_reads("instantiate_metas(t, {m: v})\n")
    assert not assignment_reads("arg = state.instantiated(arg)\n")


def test_only_the_kernel_and_fps_read_the_assignment():
    found = [hit for path in sorted(PACKAGE.rglob("*.py"))
             for hit in assignment_reads(path.read_text(encoding="utf-8"),
                                         path.relative_to(PACKAGE).as_posix())]
    stray = [hit for hit in found
             if hit.split(":", 1)[0] not in ASG_MAP_READERS]
    assert not stray, stray


# -- hole assignment ---------------------------------------------------------

# Only the kernel assigns a hole: its one commit step, behind
# `apply_tactic` and `replay_step`, from the `assigns` of the certificate
# a closing step brings.


def assign_calls(source, filename="<source>"):
    """Calls of `assign_metavar` in `source`, as `file:line: assign_metavar`."""
    return sorted(f"{filename}:{node.lineno}: assign_metavar"
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and _name_of(node) == "assign_metavar")


def test_assign_check_catches_planted_calls():
    assert assign_calls("x = 1\nout = assign_metavar(s, 'w', v)\n",
                        "fps.py") == ["fps.py:2: assign_metavar"]
    assert assign_calls("kernel.assign_metavar(s, mid, value)\n") \
        == ["<source>:1: assign_metavar"]
    assert not assign_calls("from .kernel import assign_metavar\n")
    assert not assign_calls("out = apply_tactic(s, 'w', 'exact', '7')\n")


def test_only_the_kernel_assigns_holes():
    found = [hit for path in sorted(PACKAGE.rglob("*.py"))
             for hit in assign_calls(path.read_text(encoding="utf-8"),
                                     path.relative_to(PACKAGE).as_posix())]
    assert found and {hit.split(":", 1)[0] for hit in found} \
        == {"kernel.py"}, found


# -- hole goals --------------------------------------------------------------

# Only `exact <term>` acts on a hole goal, a rule the kernel states once
# on each path (`apply_tactic`, `revalidate`).  Outside the kernel only
# `exact` and its check, which fill a hole, and the builtin policy, which
# offers no menu on one, ask whether a goal is a hole's.
HOLE_GOAL_ASKERS = {"search.py: builtin_policy",
                    "tactics/structural.py: exact",
                    "tactics/structural.py: revalidate_exact"}


def hole_goal_calls(source, filename="<source>"):
    """Calls of `is_hole_goal` in `source`, as `file: function`, the
    outermost function around the call, or `file: <module>`."""
    tree = ast.parse(source)
    owner = {}
    for fn in ast.walk(tree):     # breadth first: outer functions first
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner.setdefault(node, fn.name)
    return sorted(f"{filename}: {owner.get(node, '<module>')}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and _name_of(node) == "is_hole_goal")


def test_hole_goal_check_catches_planted_calls():
    planted = ("def ring_nf(state, goal, argtext):\n"
               "    def guard():\n"
               "        return goal.is_hole_goal()\n"
               "    if guard():\n"
               "        raise TacticFailed('no')\n")
    assert hole_goal_calls(planted, "tactics/ring.py") \
        == ["tactics/ring.py: ring_nf"]
    assert hole_goal_calls("hole = g.is_hole_goal()\n") \
        == ["<source>: <module>"]
    assert not hole_goal_calls("def is_hole_goal(self):\n    return 1\n")
    assert not hole_goal_calls("holes = state.pending_holes()\n")


def test_only_the_kernel_exact_and_the_builtin_policy_ask_for_hole_goals():
    found = {hit for path in sorted(PACKAGE.rglob("*.py"))
             for hit in hole_goal_calls(path.read_text(encoding="utf-8"),
                                        path.relative_to(PACKAGE).as_posix())}
    outside = found - {hit for hit in found if hit.startswith("kernel.py:")}
    assert outside == HOLE_GOAL_ASKERS and found != outside, found


# -- one statement prover ----------------------------------------------------

# Above the kernel only `fps` runs scripts, and no module calls
# `recheck`: every proof is checked by the one replay.
# The benchmark's proven flag and `holebox prove` prove through
# `fps.prove_by_script` and `search.prove_by_search`, on the path that
# certification re-proves a statement on, so neither builds a proving
# state or runs a search of its own.
PROVING_STEPS = {"run_script", "recheck"}
PROVING_INTERNALS = PROVING_STEPS | {"init_prove", "search_states"}
SCRIPT_RUNNERS = {"kernel.py", "fps.py"}
PROVER_CLIENTS = {"bench.py", "cli.py"}


def proving_uses(source, filename="<source>"):
    """Calls of `run_script` or `recheck`, and `from` imports of them or
    of `init_prove` or `search_states`, in `source`, as
    `file:line: call name` or `file:line: import name`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _name_of(node) in PROVING_STEPS:
            found.append(f"{filename}:{node.lineno}: call {_name_of(node)}")
        elif isinstance(node, ast.ImportFrom):
            found += [f"{filename}:{node.lineno}: import {a.name}"
                      for a in node.names if a.name in PROVING_INTERNALS]
    return sorted(found)


def test_proving_check_catches_planted_calls():
    assert proving_uses("x = 1\nreport = run_script(state, script)\n",
                        "bench.py") == ["bench.py:2: call run_script"]
    assert proving_uses("kernel.recheck(final)\n") \
        == ["<source>:1: call recheck"]
    assert proving_uses("from .kernel import init_prove, is_terminal\n") \
        == ["<source>:1: import init_prove"]
    assert proving_uses("from .search import search_states as run\n") \
        == ["<source>:1: import search_states"]
    assert not proving_uses("report = prove_by_script(p, answer, s)\n")
    assert not proving_uses("from .fps import rechecked\n")


def test_only_fps_runs_scripts_and_rechecks():
    found = [hit for path in sorted(PACKAGE.rglob("*.py"))
             for hit in proving_uses(path.read_text(encoding="utf-8"),
                                     path.relative_to(PACKAGE).as_posix())]
    stray = [hit for hit in found
             if " call " in hit
             and hit.split(":", 1)[0] not in SCRIPT_RUNNERS
             or " import " in hit
             and hit.split(":", 1)[0] in PROVER_CLIENTS]
    assert not stray, stray
    rechecks = [hit for hit in found if hit.endswith(" call recheck")]
    assert not rechecks, rechecks


# -- tactic arguments ------------------------------------------------------

# Every tactic reads its argument text, if only to refuse it
# (`kernel.no_arg`), so that text a tactic ignores is never recorded in
# a trace as if it had been read.


def ignores_its_argument(fn):
    """Whether the tactic `fn` never reads its third parameter, the
    argument text."""
    func = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]
    name = func.args.args[2].arg
    return not any(isinstance(node, ast.Name) and node.id == name
                   and isinstance(node.ctx, ast.Load)
                   for node in ast.walk(func))


def test_argument_check_catches_a_tactic_that_ignores_its_text():
    def ignores(state, goal, argtext):
        return goal

    def reads(state, goal, text):
        return goal if text else state

    assert ignores_its_argument(ignores)
    assert not ignores_its_argument(reads)


def test_every_tactic_reads_its_argument():
    ignoring = sorted(name for name, fn in TACTICS.items()
                      if ignores_its_argument(fn))
    assert len(TACTICS) == 15 and not ignoring, ignoring


# -- the memo slots ---------------------------------------------------------

# The memo slots on every term, each with the one module that writes it:
# `norm` memoizes its normal forms, `decide` a closed node's value.
MEMO_SLOT_WRITERS = {"_nf_memo": "norm.py", "_fold_memo": "norm.py",
                     "_eval_memo": "tactics/decide.py"}
MEMO_SLOTS = tuple(MEMO_SLOT_WRITERS)


def memo_slot_writes(source, filename="<source>"):
    """Stores to or deletions of a memo slot, and `setattr` calls naming
    one, in `source`, as `file:line: slot`.  `expr.py` declares the
    slots and may only start them empty, by assigning None."""
    tree = ast.parse(source)
    starts = set()
    if filename == "expr.py":
        starts = {id(t) for node in ast.walk(tree)
                  if isinstance(node, ast.Assign)
                  and isinstance(node.value, ast.Constant)
                  and node.value.value is None
                  for t in node.targets}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in MEMO_SLOTS \
                and isinstance(node.ctx, (ast.Store, ast.Del)) \
                and id(node) not in starts:
            found.append(f"{filename}:{node.lineno}: {node.attr}")
        elif isinstance(node, ast.Call) and _name_of(node) in (
                "setattr", "__setattr__", "delattr", "__delattr__"):
            found += [f"{filename}:{node.lineno}: {a.value}"
                      for a in node.args if isinstance(a, ast.Constant)
                      and a.value in MEMO_SLOTS]
    return found


def test_memo_slot_check_catches_writes():
    assert memo_slot_writes("t._nf_memo = None\n", "expr.py") == []
    assert memo_slot_writes("a.x = t._nf_memo = None\n", "expr.py") == []
    assert memo_slot_writes("t._nf_memo = t\n", "expr.py")
    assert memo_slot_writes("t._fold_memo = None\n", "auto.py")
    assert memo_slot_writes("setattr(t, '_fold_memo', u)\n")
    assert memo_slot_writes("object.__setattr__(t, '_nf_memo', u)\n")
    assert memo_slot_writes("del t._nf_memo\n")
    assert memo_slot_writes("a, t._nf_memo = u\n", "expr.py")
    assert not memo_slot_writes("u = t._nf_memo\n", "auto.py")
    assert not memo_slot_writes("t._eval_memo = None\n", "expr.py")
    assert memo_slot_writes("t._eval_memo = (v, 0)\n", "norm.py") \
        == ["norm.py:1: _eval_memo"]
    assert memo_slot_writes("setattr(t, '_eval_memo', m)\n")


def test_each_memo_slot_has_one_writer():
    assert set(MEMO_SLOTS) <= set(Term.__slots__)
    found = [hit for path in sorted(PACKAGE.rglob("*.py"))
             for hit in memo_slot_writes(path.read_text(encoding="utf-8"),
                                         path.relative_to(PACKAGE).as_posix())]
    stray = [hit for hit in found
             if MEMO_SLOT_WRITERS[hit.rsplit(": ", 1)[1]]
             != hit.split(":", 1)[0]]
    assert not stray, stray
    # and each writer does write its slot
    assert {(hit.split(":", 1)[0], hit.rsplit(": ", 1)[1])
            for hit in found} == {(w, s) for s, w in MEMO_SLOT_WRITERS.items()}


# -- no cache in the engine grows without bound -----------------------------

# A memo may hold at most this many entries.  The engine runs long
# searches in one process, and peak memory is a benchmark metric.
MEMO_CEILING = 1024

# Module-level tables that functions add to but never shrink, allowed
# because they are filled once, at import: the tactic registry, and the
# certificate checks and replay rules registered beside the tactics.
IMPORT_TIME_REGISTRIES = {("kernel.py", "TACTICS"), ("kernel.py", "CHECKS"),
                          ("kernel.py", "REPLAY_LINES")}

# The one table allowed to grow with what is alive: the intern table of
# sorts and terms, whose entries leave it when their object dies.  It is
# allowed only while it is a WeakValueDictionary.
WEAK_INTERN_TABLES = {("expr.py", "_INTERNED")}

_GROW = {"add", "append", "extend", "insert", "setdefault", "update"}
_SHRINK = {"clear", "discard", "pop", "popitem", "remove"}
_TABLE_CALLS = {"dict", "set", "list", "defaultdict", "OrderedDict",
                "WeakValueDictionary"}


def _name_of(node):
    """The name a decorator or call refers to: `f`, `mod.f` or `f(...)`."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def _int_constants(tree):
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            value = node.value
            if isinstance(value, ast.Constant) and type(value.value) is int:
                out.update((t.id, value.value) for t in targets
                           if isinstance(t, ast.Name))
    return out


def _module_tables(tree):
    """Module-level tables, and which of them are weak-valued."""
    names, weak = set(), set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target] if isinstance(node, ast.AnnAssign) else []
        value = getattr(node, "value", None)
        bound = {t.id for t in targets if isinstance(t, ast.Name)}
        if isinstance(value, (ast.Dict, ast.Set, ast.List, ast.DictComp,
                              ast.SetComp, ast.ListComp)) \
                or isinstance(value, ast.Call) \
                and _name_of(value) in _TABLE_CALLS:
            names |= bound
            if isinstance(value, ast.Call) \
                    and _name_of(value) == "WeakValueDictionary":
                weak |= bound
    return names, weak


def unbounded_caches(source, filename="<source>"):
    """Caches in `source` that can grow past MEMO_CEILING entries:
    `functools.cache`, an `lru_cache` whose bound is None, too large or
    not a literal or module constant, and module-level tables that some
    function adds to and none takes from.  A WeakValueDictionary counts
    as such a table unless it is one of WEAK_INTERN_TABLES."""
    tree = ast.parse(source)
    consts = _int_constants(tree)
    found = []
    bare = [d for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for d in fn.decorator_list if not isinstance(d, ast.Call)]
    for node in bare + [n for n in ast.walk(tree)
                        if isinstance(n, ast.Call)]:
        if _name_of(node) == "cache":
            found.append(f"{filename}:{node.lineno}: functools.cache")
        if not isinstance(node, ast.Call) or _name_of(node) != "lru_cache":
            continue
        bound = node.args[0] if node.args else next(
            (k.value for k in node.keywords if k.arg == "maxsize"), None)
        if bound is None:
            continue                    # the default bound, 128
        if isinstance(bound, ast.Name):
            size = consts.get(bound.id)
        else:
            size = getattr(bound, "value", None)
        if type(size) is not int or size > MEMO_CEILING:
            found.append(f"{filename}:{node.lineno}: lru_cache bound "
                         f"{ast.unparse(bound)}")
    tables, weak = _module_tables(tree)
    grown, shrunk = set(), set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript) \
                    and isinstance(node.value, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    grown.add(node.value.id)
                elif isinstance(node.ctx, ast.Del):
                    shrunk.add(node.value.id)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name):
                name = node.func.value.id
                if node.func.attr in _GROW:
                    grown.add(name)
                elif node.func.attr in _SHRINK:
                    shrunk.add(name)
    found += [f"{filename}: module table {name} only grows"
              for name in sorted((grown - shrunk) & tables)
              if (filename, name) not in IMPORT_TIME_REGISTRIES
              and not (name in weak
                       and (filename, name) in WEAK_INTERN_TABLES)]
    return found


def test_unbounded_cache_check_catches_growth():
    assert unbounded_caches(
        "from functools import lru_cache\n"
        "@lru_cache(maxsize=50_000)\ndef f(t):\n    return t\n")
    assert unbounded_caches("import functools\n"
                            "@functools.cache\ndef f(t):\n    return t\n")
    assert unbounded_caches("@lru_cache(None)\ndef f(t):\n    return t\n")
    assert unbounded_caches("_MEMO = {}\n"
                            "def f(t):\n    _MEMO[t] = t\n    return t\n")
    assert not unbounded_caches(
        "N = 64\n@lru_cache(maxsize=N)\ndef f(t):\n    return t\n")
    assert not unbounded_caches(
        "_MEMO = {}\ndef f(t):\n    if len(_MEMO) > 9:\n"
        "        _MEMO.clear()\n    _MEMO[t] = t\n")


def test_unbounded_cache_check_allows_only_the_weak_intern_table():
    weak = ("from weakref import WeakValueDictionary\n"
            "_INTERNED = WeakValueDictionary()\n"
            "def f(key, node):\n    return _INTERNED.setdefault(key, node)\n")
    strong = weak.replace("WeakValueDictionary()", "{}")
    assert not unbounded_caches(weak, "expr.py")
    assert unbounded_caches(strong, "expr.py")
    assert unbounded_caches(weak, "norm.py")
    assert unbounded_caches(weak.replace("_INTERNED", "_TERMS"), "expr.py")


def test_no_engine_module_has_an_unbounded_cache():
    found = [hit for path in sorted(PACKAGE.rglob("*.py"))
             for hit in unbounded_caches(path.read_text(encoding="utf-8"),
                                         path.relative_to(PACKAGE).as_posix())]
    assert not found, found
