"""The Python floor: pyproject.toml and the README state the same one, and
the running interpreter meets it."""

import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_python_floor_is_stated_once_and_met():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        spec = tomllib.load(fh)["project"]["requires-python"]
    floor = re.fullmatch(r">=(\d+)\.(\d+)", spec)
    assert floor, spec
    readme = re.search(r"^Needs Python >= (\d+)\.(\d+),", (ROOT / "README.md").read_text(), re.M)
    assert readme, "README names no Python floor"
    assert readme.groups() == floor.groups()
    assert sys.version_info[:2] >= tuple(map(int, floor.groups()))
