"""The spspec names that the benchmark harness in perfbench/ reads.

perfbench/selftest.py checks the harness end to end but takes seconds;
this imports what it imports and looks up what its traced run wraps, so a
change that drops one of those names fails here first.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_imports_and_wraps_its_spspec_names(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("workloads")  # imports every spspec name the workloads call
    instrument = importlib.import_module("instrument")
    for module in instrument.BINDERS:
        for name in ("gauss_hermite_rule", "hermite_batch"):
            assert callable(instrument._require(module, name))
    assert isinstance(instrument.rule_cache_misses(), int)
