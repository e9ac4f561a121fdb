"""Tests for ``tools/loadgen.py``, the seeded load generator."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _percentile():
    tools = str(ROOT / "tools")
    sys.path.insert(0, tools)
    try:
        import loadgen

        return loadgen.percentile
    finally:
        # loadgen puts src/ on the path too, so pop by value.
        sys.path.remove(tools)


def test_percentile_interpolates_linearly():
    percentile = _percentile()
    assert percentile([], 99.0) == 0.0
    assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0
    assert percentile([1.0, 2.0], 100.0) == 2.0
