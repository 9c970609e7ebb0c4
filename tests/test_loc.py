"""tools/loc.py on a synthetic module."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "loc.py"
_spec = importlib.util.spec_from_file_location("loc", TOOL)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SOURCE = '''"""Module docstring
over two lines."""

import math  # a comment beside code counts


def f(x):
    """One-line docstring."""
    # a comment line does not count
    s = """a string that is
    assigned is code"""
    return math.sqrt(
        x
    )
'''


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    # import, def, both lines of the assignment, and the three lines of the return
    assert loc.code_lines(SOURCE) == 7


def test_count_reads_a_file(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(SOURCE)
    assert loc.count(path) == (len(SOURCE.splitlines()), 7)
    assert loc.main([str(tmp_path)]) == 0
