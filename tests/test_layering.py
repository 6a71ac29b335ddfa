"""Module layering and the names the traced benchmark wraps."""

import ast
import importlib
import importlib.util
from pathlib import Path

import holebox

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


# The one import that must stay inside a function: the tactic package
# imports the kernel, so the kernel reaches the revalidator registry late.
ALLOWED_LOCAL_IMPORTS = {("kernel.py", "recheck", ".tactics")}


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


def test_certificates_are_checked_without_the_parser():
    # a certificate carries its goal and details as the engine's values,
    # so neither the kernel nor any revalidator reads or prints text, and
    # nothing hashes text except the reported script hash
    trees = {path.relative_to(PACKAGE).as_posix():
             ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.rglob("*.py"))}
    imported = {a.name for node in ast.walk(trees["kernel.py"])
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert "parse_term" not in imported
    callers = sorted(
        (fn.name, name) for tree in trees.values()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and fn.name.startswith("revalidate")
        for name in ("parse_term", "print_term")
        if name in _called_names(fn))
    assert not callers, callers
    hashing = sorted(
        rel for rel, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        and any(a.name == "hashlib" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "hashlib")
    assert hashing == ["fps.py"]
