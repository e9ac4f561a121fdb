"""REP015 fixture: checkpoint sites outside the repro.obs.names registry."""

from __future__ import annotations

from repro.runtime import checkpoint, fault_point


def drain(items: list[int]) -> int:
    total = 0
    for item in items:
        checkpoint("core.agglomerativ.merge")  # REP015: misspelled site
        total += item
    fault_point("core.scalable.block")  # registered site — not flagged
    return total
