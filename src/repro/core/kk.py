"""(k,k)-anonymization: the Section V-B coupling.

A (k,k)-anonymizer is either (k,1)-anonymizer (Algorithm 3 or 4)
followed by the (1,k)-anonymizer (Algorithm 5).  The first stage makes
every *generalized* record consistent with ≥ k originals; the second
makes every *original* record consistent with ≥ k generalized ones and,
because it only generalizes further, preserves the first property.
The paper found the Algorithm 4 + Algorithm 5 coupling uniformly better.
"""

from __future__ import annotations

import numpy as np

from repro.core.k1 import k1_expansion, k1_nearest_neighbors
from repro.core.one_k import one_k_anonymize
from repro.errors import AnonymityError
from repro.measures.base import CostModel
from repro.runtime import checkpoint

#: The two (k,1) stages selectable by name.
EXPANDERS = ("expansion", "nearest")


def kk_anonymize(
    model: CostModel,
    k: int,
    expander: str = "expansion",
    join_with: str = "generalized",
) -> np.ndarray:
    """Produce a (k,k)-anonymization of the model's table.

    Parameters
    ----------
    model:
        Cost model (measure bound to the table).
    k:
        The anonymity parameter.
    expander:
        ``"expansion"`` (Algorithm 4, the paper's best) or ``"nearest"``
        (Algorithm 3, the (k−1)-approximation).
    join_with:
        Passed to Algorithm 5; see
        :func:`repro.core.one_k.one_k_anonymize`.

    Returns
    -------
    ``[n, r]`` node matrix satisfying (k,k)-anonymity.
    """
    checkpoint("core.kk.couple")
    if expander == "expansion":
        base = k1_expansion(model, k)
    elif expander == "nearest":
        base = k1_nearest_neighbors(model, k)
    else:
        raise AnonymityError(
            f"unknown (k,1) expander {expander!r}; expected one of {EXPANDERS}"
        )
    checkpoint("core.kk.couple")
    return one_k_anonymize(model, base, k, join_with=join_with)

