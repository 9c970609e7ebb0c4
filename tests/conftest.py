"""Fixtures shared by the test modules."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
CHILD_ADDRESS_SPACE = 2**30  # bytes; importing spspec with numpy and scipy takes under half


def _cap_address_space() -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = CHILD_ADDRESS_SPACE if hard == resource.RLIM_INFINITY else min(CHILD_ADDRESS_SPACE, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


@pytest.fixture
def run_capped():
    """run(*args): `python args...` in a child with src on its path and its
    address space capped, so a case that asks for gigabytes fails there."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env,
            preexec_fn=_cap_address_space, timeout=120,
        )

    return run
