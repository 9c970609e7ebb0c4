"""Machine-speed calibration for the benchmark's timings.

On a shared host the same Python code runs at one of a few speeds that
switch every few seconds: on a shared 2-vCPU Xeon virtual machine a fixed
loop took 13 ms or 20 ms, with CPU time equal to wall time in both.
Medians over a 20-second run then depend on how much of it the host spent
slow, and moved run to run by 20-45%.

So every timed interval is bracketed by a fixed interpreter-bound kernel
(dict, text-parsing and recursive work, like spspec's own), and reported as

    wall seconds * REFERENCE_S / kernel seconds around the interval

that is, in seconds of a machine on which the kernel takes REFERENCE_S,
about that virtual machine's fast state.  The raw wall times stay in the
raw record.  The kernel shares no code with spspec, so a change to spspec
moves the reported times exactly as it moves the wall times at a fixed
machine speed.
"""

from __future__ import annotations

import time

REFERENCE_S = 1.5e-3
_KEYS = [(i, (7 * i) % 1009, i % 13) for i in range(3000)]
_TEXT = "\n".join(f"{i} {(7 * i) % 1009} {i % 13}\t{1.0 / (i + 1)!r}" for i in range(300))


def _descend(depth: int, budget: int) -> int:
    if depth == 0:
        return 1
    total = 0
    for k in range(1, budget + 1):
        total += k * _descend(depth - 1, budget // k)
    return total


def _kernel() -> float:
    """Dict updates on tuple keys, parsing key/value text lines, and a
    recursive budget descent with integer arithmetic.

    The parts mirror what spspec's operations spend their time on: tuple
    and dict traffic, the text formats, and recursive walkers.  In the
    slow phases each part alone slowed down by a different factor from the
    operations; their sum tracks them more closely than any one.
    """
    table: dict = {}
    for key in _KEYS:
        table[key] = table.get(key, 0.0) + 1.5
    for line in _TEXT.splitlines():
        key, value = line.split("\t")
        table[tuple(int(c) for c in key.split())] = float(value)
    return sum(table.values()) + _descend(3, 150)


def sample() -> float:
    """Seconds the kernel takes now: the faster of two runs."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(wall_s: float, before: float, after: float) -> float:
    """wall_s in reference seconds, given kernel samples on either side."""
    return wall_s * REFERENCE_S * 2.0 / (before + after)
