"""Request/response envelopes of the anonymization service.

"The Role of Quasi-identifiers in k-Anonymity Revisited" (Bettini et
al.) shows that a k-anonymous release is only as meaningful as the QI
configuration it was computed against, and degradation chains can serve
a *different* notion than the one requested.  The response envelope
therefore carries an explicit ``guarantee`` block — the notion, k,
quasi-identifier list and winning rung the result actually satisfies —
so a degraded answer is never silently mistaken for the requested one.

Envelopes split into a deterministic ``body`` (cacheable, byte-stable
across runs and restarts — the chaos drill compares these) and a
volatile ``meta`` block (elapsed time, request id, cache hit), so crash
recovery can assert byte-identical bodies without fighting wall-clock
noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.notions import NOTIONS, normalize_notion
from repro.errors import (
    AnonymityError,
    DatasetError,
    FallbackExhausted,
    ReproError,
    RequestError,
    ServiceOverloaded,
)
from repro.measures.registry import get_measure
from repro.runtime.fallback import FallbackReport
from repro.tabular.table import Table

#: Envelope schema version (bump on breaking layout changes).
ENVELOPE_VERSION = 1

_REQUEST_FIELDS = frozenset(
    {"dataset", "n", "seed", "k", "notion", "measure", "timeout"}
)


@dataclass(frozen=True)
class AnonymizeRequest:
    """One validated ``POST /anonymize`` request."""

    k: int  #: anonymity parameter
    dataset: str = "art"  #: registry dataset name
    n: int | None = None  #: table size (None = the paper's default)
    seed: int = 0  #: dataset generator seed
    notion: str = "kk"  #: requested anonymity notion (normalized)
    measure: str = "entropy"  #: loss measure (normalized canonical name)
    timeout: float | None = None  #: client latency budget, seconds

    @classmethod
    def from_json(cls, payload: Any) -> "AnonymizeRequest":
        """Parse and validate a JSON payload into a request.

        Strict: unknown keys are rejected (a typoed ``"notions"`` must
        not silently fall back to the default), notion and measure
        names are normalized so equivalent spellings share one cache
        key.
        """
        if not isinstance(payload, dict):
            raise RequestError(
                f"request must be a JSON object, got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - _REQUEST_FIELDS)
        if unknown:
            raise RequestError(
                f"unknown request fields {unknown}; "
                f"expected a subset of {sorted(_REQUEST_FIELDS)}"
            )
        if "k" not in payload:
            raise RequestError("request is missing the required field 'k'")
        k = _as_int(payload["k"], "k")
        if k < 1:
            raise RequestError(f"k must be a positive integer, got {k}")
        n = payload.get("n")
        if n is not None:
            n = _as_int(n, "n")
            if n < 1:
                raise RequestError(f"n must be a positive integer, got {n}")
        seed = _as_int(payload.get("seed", 0), "seed")
        dataset = payload.get("dataset", "art")
        if not isinstance(dataset, str) or not dataset:
            raise RequestError(f"dataset must be a non-empty string, got {dataset!r}")
        notion = payload.get("notion", "kk")
        if not isinstance(notion, str):
            raise RequestError(f"notion must be a string, got {notion!r}")
        try:
            notion = normalize_notion(notion)
        except AnonymityError:
            raise RequestError(
                f"unknown notion {notion.lower()!r}; "
                f"expected one of {list(NOTIONS)}"
            ) from None
        measure = payload.get("measure", "entropy")
        if not isinstance(measure, str):
            raise RequestError(f"measure must be a string, got {measure!r}")
        try:
            measure = get_measure(measure).name
        except ReproError as exc:
            raise RequestError(str(exc)) from exc
        timeout = payload.get("timeout")
        if timeout is not None:
            try:
                timeout = float(timeout)
            except (TypeError, ValueError) as exc:
                raise RequestError(
                    f"timeout must be a number, got {timeout!r}"
                ) from exc
            if timeout <= 0:
                raise RequestError(f"timeout must be positive, got {timeout}")
        return cls(
            k=k,
            dataset=dataset,
            n=n,
            seed=seed,
            notion=notion,
            measure=measure,
            timeout=timeout,
        )

    def to_json(self) -> dict[str, Any]:
        """JSON form of the normalized request (echoed in responses)."""
        return {
            "dataset": self.dataset,
            "n": self.n,
            "seed": self.seed,
            "k": self.k,
            "notion": self.notion,
            "measure": self.measure,
            "timeout": self.timeout,
        }


def _as_int(value: Any, name: str) -> int:
    """An exact integer (bools and floats with fractions rejected)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"{name} must be an integer, got {value!r}")
    return value


def request_mix(seed: int, count: int) -> list[AnonymizeRequest]:
    """A deterministic, varied request stream shared by drills and tools.

    The same ``(seed, count)`` always yields the same sequence — the
    chaos drill and the load generator both replay identical traffic,
    so their results are comparable and recovered responses can be
    checked request-by-request against a reference.
    """
    from random import Random

    rng = Random(seed)
    notions = ("kk", "k", "1k", "k1")
    measures = ("entropy", "lm")
    out: list[AnonymizeRequest] = []
    for _ in range(count):
        out.append(
            AnonymizeRequest(
                k=rng.choice((2, 3, 4)),
                dataset="art",
                n=rng.choice((30, 40, 50)),
                seed=rng.choice((0, 1)),
                notion=rng.choice(notions),
                measure=rng.choice(measures),
            )
        )
    return out


# ---------------------------------------------------------------------- #
# response envelopes
# ---------------------------------------------------------------------- #


def build_body(
    request: AnonymizeRequest,
    table: Table,
    result: Any,
    report: FallbackReport,
    primary_rung: str,
) -> dict[str, Any]:
    """The deterministic (cacheable) part of a success response.

    Everything here is a pure function of the request and the winning
    result: per-attempt timings are deliberately excluded (they live in
    the volatile ``meta`` block) so two runs that degrade identically
    produce byte-identical bodies.  The rows are rendered straight from
    ``result.node_matrix`` through each collection's per-node label
    memo, the same strings ``result.generalized.labels()`` gives,
    without decoding the result into record objects.
    """
    degraded = report.winner is not None and report.winner != primary_rung
    columns = [
        [collection.node_label(node) for node in column]
        for collection, column in zip(
            table.schema.collections, result.node_matrix.T.tolist()
        )
    ]
    return {
        "guarantee": {
            "requested_notion": request.notion,
            "notion": result.notion,
            "k": request.k,
            "quasi_identifiers": list(table.schema.attribute_names),
            "algorithm": result.algorithm,
            "winner": report.winner,
            "degraded": degraded,
        },
        "result": {
            "num_records": table.num_records,
            "measure": result.measure,
            "cost": result.cost,
            "rows": [list(row) for row in zip(*columns)],
            "stats": dict(result.stats),
        },
        "fallback": {
            "winner": report.winner,
            "attempts": [
                {"name": a.name, "status": a.status} for a in report.attempts
            ],
        },
    }


def ok_envelope(
    request: AnonymizeRequest,
    body: dict[str, Any],
    *,
    cache_hit: bool,
) -> dict[str, Any]:
    """A success response around a (possibly cached) body."""
    return {
        "v": ENVELOPE_VERSION,
        "status": "ok",
        "request": request.to_json(),
        "body": body,
        "meta": {"cache_hit": cache_hit},
    }


def shed_envelope(
    request: AnonymizeRequest, shed: ServiceOverloaded
) -> dict[str, Any]:
    """A typed 429-style load-shed response (never a hang)."""
    return {
        "v": ENVELOPE_VERSION,
        "status": "shed",
        "request": request.to_json(),
        "shed": {
            "reason": shed.reason,
            "detail": str(shed),
            "retry_after": shed.retry_after,
        },
        "meta": {"cache_hit": False},
    }


def error_envelope(
    request: AnonymizeRequest | None, error: BaseException
) -> dict[str, Any]:
    """A typed failure response (bad request, infeasible k, exhaustion)."""
    return {
        "v": ENVELOPE_VERSION,
        "status": "error",
        "request": request.to_json() if request is not None else None,
        "error": {
            "type": type(error).__name__,
            "kind": _error_kind(error),
            "message": str(error),
        },
        "meta": {"cache_hit": False},
    }


def _error_kind(error: BaseException) -> str:
    if isinstance(error, RequestError):
        return "request"
    if isinstance(error, (AnonymityError, DatasetError)):
        return "infeasible"
    if isinstance(error, FallbackExhausted):
        return "exhausted"
    return "internal"


def http_status(envelope: dict[str, Any]) -> int:
    """The HTTP status code an envelope maps to."""
    status = envelope.get("status")
    if status == "ok":
        return 200
    if status == "shed":
        return 429
    kind = envelope.get("error", {}).get("kind", "internal")
    if kind in ("request", "infeasible"):
        return 400
    if kind == "exhausted":
        return 503
    return 500
