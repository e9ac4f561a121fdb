"""Measure registry: look up loss measures by name.

The experiment harness and CLI refer to measures by short string names
("entropy"/"em", "lm", "tree", "mw"/"suppression"); this module
resolves them.
"""

from __future__ import annotations

from repro.errors import ExperimentError
from repro.measures.base import LossMeasure
from repro.measures.entropy import EntropyMeasure
from repro.measures.lm import LMMeasure
from repro.measures.suppression import SuppressionMeasure
from repro.measures.tree import TreeMeasure

_MEASURES: dict[str, type[LossMeasure]] = {
    "entropy": EntropyMeasure,
    "em": EntropyMeasure,
    "lm": LMMeasure,
    "tree": TreeMeasure,
    "mw": SuppressionMeasure,
    "suppression": SuppressionMeasure,
}


def get_measure(name: str) -> LossMeasure:
    """Instantiate the node-decomposable loss measure called ``name``.

    Accepted names: ``entropy`` (alias ``em``), ``lm``, ``tree``,
    ``mw`` (alias ``suppression``).

    Raises
    ------
    ExperimentError
        For unknown names, listing the known ones.
    """
    try:
        cls = _MEASURES[name.lower()]
    except KeyError:
        known = sorted(set(_MEASURES))
        raise ExperimentError(
            f"unknown measure {name!r}; known measures: {known}"
        ) from None
    return cls()


def measure_names() -> list[str]:
    """Canonical measure names (without aliases)."""
    return ["entropy", "lm", "tree", "mw"]
