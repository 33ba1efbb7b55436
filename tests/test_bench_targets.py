"""The benchmark's tracing patches call sites by name: every (owner,
attribute) that `bench/tracing.py` wraps must exist on the owner itself, or
a traced benchmark run fails only after a whole workload."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_call_sites_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in ("tracing", "timing"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    tracing = importlib.import_module("tracing")
    targets = tracing._targets()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in targets if attr not in vars(owner)]
    assert targets and not missing
