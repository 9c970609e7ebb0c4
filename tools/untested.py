"""List the statements of src/spspec that a pytest run never executes.

Usage:

    python3 tools/untested.py [PYTEST_ARG ...]

It runs pytest in this process, with the given arguments (none: the suite as
pyproject.toml configures it), under sys.settrace, and records the lines
executed in the files of src/spspec.  Then it prints `file:line  source` for
each statement that never ran, and their count, and exits with pytest's
status.  A statement is counted at
its first line, where the tracer reports it.  Strings that stand alone as
statements (docstrings) and nonlocal and global declarations compile to no
code, so they are left out.  Code that the tests run in a child process is
not traced.  Only the standard library and pytest are used.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spspec"


def statement_lines(source: str) -> set[int]:
    """The first line of each statement of source that compiles to code."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        lines.add(node.lineno)
    return lines


def untested(source: str, executed: set[int]) -> list[tuple[int, str]]:
    """(line, text) of each statement of source whose first line is not in
    executed, in line order."""
    text = source.splitlines()
    return [(n, text[n - 1].strip()) for n in sorted(statement_lines(source) - executed)]


def traced(run, root: Path) -> tuple[object, dict[str, set[int]]]:
    """Call run() and return what it returns, with the lines it executed in
    each file under root, by absolute path."""
    hits: set[tuple[str, int]] = set()
    inside: dict[str, bool] = {}
    prefix = str(root) + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.abspath(name).startswith(prefix)
        return local if inside[name] else None

    outer = sys.gettrace(), threading.gettrace()  # restored after the run
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(outer[0])
        threading.settrace(outer[1])
    executed: dict[str, set[int]] = {}
    for name, line in hits:
        executed.setdefault(os.path.abspath(name), set()).add(line)
    return result, executed


def main(argv: list[str]) -> int:
    import pytest

    os.chdir(ROOT)
    status, executed = traced(lambda: pytest.main(argv), SRC)
    missed = 0
    for path in sorted(SRC.glob("*.py")):
        for line, text in untested(path.read_text(), executed.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}  {text}")
            missed += 1
    print(f"{missed} statements never executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
