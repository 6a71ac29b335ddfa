"""Line coverage with the standard library: the statements of some
source files that a pytest run never reaches.

    PYTHONPATH=src python3 tools/linecov.py FILE... [-- PYTEST_ARGS...]

A statement is one that `ast` finds and the compiler gives bytecode,
keyed by its first line; a docstring is not one, nor is a statement
that compiles to nothing (`global`, a body under `while False`).  A
statement is reached when its first line runs.  Tracing (`sys.settrace`,
for every thread) starts before pytest does, so before the files under
test are imported, and module-level statements count as reached when
their import runs them.

Prints, per file, its statement count, how many were not reached, and
each of those as `path:line: text`; then one line with the totals over
all the files.  Exits with pytest's status.  The
trace slows the run several times over.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types

import pytest


def statements(path: str) -> set[int]:
    """The first lines of the statements of the source file `path` that
    have bytecode, docstrings left out."""
    with open(path, encoding="utf-8") as f:
        source = f.read()
    tree = ast.parse(source, path)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.add(first)
    lines = {node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.stmt) and node not in docstrings}
    return lines & _code_lines(compile(source, path, "exec"))


def _code_lines(code: types.CodeType) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


class Recorder:
    """The lines run in each of `paths`, recorded by a trace function
    that follows only the frames of those files."""

    def __init__(self, paths: list[str]):
        self.hits: dict[str, set[int]] = {
            os.path.realpath(p): set() for p in paths}
        self._by_name: dict[str, object] = {}
        self._outer: tuple = (None, None)

    def _tracer_for(self, filename: str):
        """The local trace function for frames of `filename`, or None
        when it is not a file being recorded."""
        hits = self.hits.get(os.path.realpath(filename))
        if hits is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local
        return local

    def trace(self, frame, event, arg):
        name = frame.f_code.co_filename
        try:
            return self._by_name[name]
        except KeyError:
            local = self._by_name[name] = self._tracer_for(name)
            return local

    def start(self) -> None:
        """Trace from here on; a trace already set (say, an outer
        recorder's) is put back by `stop`."""
        self._outer = (sys.gettrace(), threading.gettrace())
        threading.settrace(self.trace)
        sys.settrace(self.trace)

    def stop(self) -> None:
        outer, outer_threads = self._outer
        sys.settrace(outer)
        threading.settrace(outer_threads)


def report(recorder: Recorder, paths: list[str]) -> str:
    out = []
    total = unreached = 0
    for path in paths:
        lines = statements(path)
        missed = sorted(lines - recorder.hits[os.path.realpath(path)])
        total += len(lines)
        unreached += len(missed)
        with open(path, encoding="utf-8") as f:
            text = f.read().split("\n")
        out.append(f"{path}: {len(lines)} statements, "
                   f"{len(missed)} unreached")
        out.extend(f"{path}:{line}: {text[line - 1].strip()}"
                   for line in missed)
    out.append(f"total: {total} statements, {unreached} unreached")
    return "\n".join(out)


def main(argv: list[str]) -> int:
    if "--" in argv:
        cut = argv.index("--")
        paths, pytest_args = argv[:cut], argv[cut + 1:]
    else:
        paths, pytest_args = argv, []
    if not paths:
        print("usage: linecov.py FILE... [-- PYTEST_ARGS...]",
              file=sys.stderr)
        return 2
    recorder = Recorder(paths)
    recorder.start()
    try:
        status = pytest.main(pytest_args)
    finally:
        recorder.stop()
    print(report(recorder, paths))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
