"""tools/linecov.py: the statements a run reaches, on a toy module."""

import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "linecov.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


linecov = _load("linecov", TOOL)

TOY = textwrap.dedent('''\
    """A toy module."""
    import math

    LIMIT = 3


    def clamp(x):
        """The docstring is not a statement."""
        global LIMIT
        if x > LIMIT:
            return LIMIT
        while False:
            x += 1
        return max(x, -LIMIT)


    def unused():
        return math.pi
    ''')


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_statements_leave_out_docstrings_and_code_compiled_away(tmp_path):
    path = _write(tmp_path, "toy.py", TOY)
    # the imports, LIMIT, both defs and the function bodies; not the
    # docstrings, `global` or the body of `while False`
    assert linecov.statements(path) == {2, 4, 7, 10, 11, 12, 14, 17, 18}


def test_module_level_statements_count_once_traced_before_import(tmp_path):
    path = _write(tmp_path, "toy_traced.py", TOY)
    recorder = linecov.Recorder([path])
    recorder.start()
    try:
        assert _load("toy_traced", path).clamp(1) == 1
    finally:
        recorder.stop()
    hits = recorder.hits[os.path.realpath(path)]
    assert sorted(linecov.statements(path) - hits) == [11, 18]


def test_an_outer_recorder_records_after_a_nested_one_stops(tmp_path):
    # a test that runs a recorder of its own must not end the trace of
    # the run that records the whole suite
    path = _write(tmp_path, "toy_nested.py", TOY)
    before = sys.gettrace()
    outer, inner = linecov.Recorder([path]), linecov.Recorder([path])
    outer.start()
    try:
        toy = _load("toy_nested", path)
        inner.start()
        inner.stop()
        assert sys.gettrace() == outer.trace
        assert toy.clamp(5) == 3
    finally:
        outer.stop()
    assert sys.gettrace() is before
    assert 11 in outer.hits[os.path.realpath(path)]
    assert 11 not in inner.hits[os.path.realpath(path)]


def test_the_tool_reports_each_unreached_statement(tmp_path):
    path = _write(tmp_path, "toy_cli.py", TOY)
    _write(tmp_path, "test_toy_cli.py",
           "from toy_cli import clamp\n\n\n"
           "def test_clamp():\n    assert clamp(5) == 3\n")
    out = subprocess.run(
        [sys.executable, str(TOOL), path,
         "--", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[-4:] == [
        f"{path}: 9 statements, 3 unreached",
        f"{path}:12: while False:",
        f"{path}:14: return max(x, -LIMIT)",
        f"{path}:18: return math.pi"]
