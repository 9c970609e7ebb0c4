"""tools/untested.py on a synthetic module."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "untested.py"
_spec = importlib.util.spec_from_file_location("untested", TOOL)
untested = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(untested)

SOURCE = '''"""Module docstring."""

import functools


@functools.lru_cache
def f(n):
    """Docstring."""
    total = 0
    try:
        pass
    except ValueError:
        raise
    while True:
        total += 1
        if total > n:
            break
    def inner():
        nonlocal total
        total += (
            1
        )
    inner()
    if n < 0:
        return -1
    return total


f(2)
'''


def test_statement_lines_leave_out_docstrings_and_declarations():
    # every statement but the two docstrings and the nonlocal line
    assert untested.statement_lines(SOURCE) == {
        3, 7, 9, 10, 11, 13, 14, 15, 16, 17, 18, 20, 23, 24, 25, 26, 29
    }


def test_a_traced_run_misses_only_the_branches_not_taken(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SOURCE)
    sys.path.insert(0, str(tmp_path))
    try:
        module, executed = untested.traced(lambda: importlib.import_module("synthetic"), tmp_path)
    finally:
        sys.path.remove(str(tmp_path))
        sys.modules.pop("synthetic", None)
    assert module.f(2) == 4
    assert set(executed) == {str(path)}
    assert untested.untested(SOURCE, executed[str(path)]) == [(13, "raise"), (25, "return -1")]
