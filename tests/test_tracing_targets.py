"""The benchmark's tracer patches avoidkit's module attributes by name.

A refactor that drops or renames one of them would only crash the traced
benchmark run, so check every patched name here.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_attribute_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracing.TARGETS if attr not in owner.__dict__]
    assert missing == []
    assert "Xoshiro256" in tracing.couplers.__dict__
