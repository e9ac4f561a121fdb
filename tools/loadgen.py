#!/usr/bin/env python3
"""Seeded open-loop load generator for the ``repro.serve`` HTTP service.

Open-loop means the arrival schedule is fixed *before* the run: request
i is launched at its precomputed offset whether or not earlier requests
have finished, so an overloaded server sees mounting concurrency (and
must shed) instead of the generator politely slowing down to match it.
Both the schedule (``Random(seed).expovariate``) and the request mix
(:func:`repro.serve.protocol.request_mix`) are seeded, so two runs
against equivalent servers are comparable request-for-request.

Per request the report records the HTTP status, envelope status, wall
latency, and — for ``ok`` responses — the SHA-256 of the canonical
body, which is the hook crash-recovery drills use to assert
byte-identical answers across a server restart (``tools/serve_smoke.py``).

Usage::

    python tools/loadgen.py http://127.0.0.1:8077 --requests 50 \
        --seed 0 --rate 200 --out /tmp/load.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.serve.drill import canonical_body  # noqa: E402
from repro.serve.protocol import AnonymizeRequest, request_mix  # noqa: E402

DEFAULT_RATE = 100.0  #: mean arrivals per second for the Poisson schedule


def body_sha256(envelope: dict[str, Any]) -> str:
    """SHA-256 over the canonical (deterministic) body of an envelope."""
    return hashlib.sha256(canonical_body(envelope).encode("utf-8")).hexdigest()


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def arrival_schedule(seed: int, count: int, rate: float) -> list[float]:
    """Launch offsets (seconds from start) for an open-loop Poisson run."""
    rng = random.Random(seed)
    offsets: list[float] = []
    at = 0.0
    for _ in range(count):
        at += rng.expovariate(rate)
        offsets.append(at)
    return offsets


def post_request(
    base_url: str, request: AnonymizeRequest, timeout: float = 60.0
) -> tuple[int, dict[str, Any]]:
    """POST one request; return ``(http_status, envelope)``.

    Non-2xx responses still carry a JSON envelope (shed/error), so
    HTTPError bodies are parsed rather than raised.
    """
    data = json.dumps(request.to_json()).encode("utf-8")
    req = urllib.request.Request(
        base_url.rstrip("/") + "/anonymize",
        data=data,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as err:
        payload = err.read().decode("utf-8")
        try:
            return err.code, json.loads(payload)
        except json.JSONDecodeError:
            return err.code, {"status": "error", "raw": payload}


def run_load(
    base_url: str,
    requests: int = 50,
    seed: int = 0,
    rate: float = DEFAULT_RATE,
    timeout: float = 60.0,
) -> dict[str, Any]:
    """Drive the seeded mix open-loop; return the run report."""
    mix = request_mix(seed, requests)
    offsets = arrival_schedule(seed, requests, rate)
    records: list[dict[str, Any] | None] = [None] * requests
    lock = threading.Lock()

    def fire(index: int, request: AnonymizeRequest) -> None:
        begun = time.monotonic()
        try:
            status, envelope = post_request(base_url, request, timeout=timeout)
        except (OSError, urllib.error.URLError) as err:
            record: dict[str, Any] = {
                "index": index,
                "request": request.to_json(),
                "http_status": 0,
                "status": "transport_error",
                "latency_seconds": time.monotonic() - begun,
                "detail": str(err),
            }
        else:
            record = {
                "index": index,
                "request": request.to_json(),
                "http_status": status,
                "status": envelope.get("status", "error"),
                "latency_seconds": time.monotonic() - begun,
            }
            if envelope.get("status") == "ok":
                record["body_sha256"] = body_sha256(envelope)
                record["cache_hit"] = envelope["meta"].get("cache_hit")
            elif envelope.get("status") == "shed":
                record["shed_reason"] = envelope["shed"]["reason"]
        with lock:
            records[index] = record

    threads: list[threading.Thread] = []
    start = time.monotonic()
    for index, (offset, request) in enumerate(zip(offsets, mix)):
        delay = offset - (time.monotonic() - start)
        if delay > 0:
            time.sleep(delay)
        worker = threading.Thread(target=fire, args=(index, request))
        worker.start()
        threads.append(worker)
    for worker in threads:
        worker.join()
    elapsed = time.monotonic() - start

    done = [r for r in records if r is not None]
    ok = [r for r in done if r["status"] == "ok"]
    latencies = [r["latency_seconds"] for r in ok]
    summary = {
        "requests": requests,
        "seed": seed,
        "rate": rate,
        "elapsed_seconds": elapsed,
        "ok": len(ok),
        "shed": sum(1 for r in done if r["status"] == "shed"),
        "errors": sum(
            1 for r in done if r["status"] not in ("ok", "shed")
        ),
        "throughput_rps": len(ok) / elapsed if elapsed > 0 else 0.0,
        "latency_p50_ms": percentile(latencies, 50.0) * 1000.0,
        "latency_p99_ms": percentile(latencies, 99.0) * 1000.0,
    }
    return {"summary": summary, "records": done}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("url", help="server base URL, e.g. http://127.0.0.1:8077")
    parser.add_argument("--requests", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--rate", type=float, default=DEFAULT_RATE,
        help="mean arrivals/second of the open-loop schedule",
    )
    parser.add_argument("--timeout", type=float, default=60.0)
    parser.add_argument("--out", default="", help="write the full report JSON here")
    args = parser.parse_args(argv)

    report = run_load(
        args.url,
        requests=args.requests,
        seed=args.seed,
        rate=args.rate,
        timeout=args.timeout,
    )
    summary = report["summary"]
    if args.out:
        Path(args.out).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    print(
        "loadgen: {ok}/{requests} ok, {shed} shed, {errors} errors; "
        "{throughput_rps:.1f} rps, p50 {latency_p50_ms:.1f} ms, "
        "p99 {latency_p99_ms:.1f} ms".format(**summary)
    )
    return 0 if summary["errors"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
