#!/usr/bin/env python3
"""Crash-recovery smoke drill for the serving layer (CI job).

The in-process chaos drill (``repro.serve.drill``) proves the recovery
invariants under injected faults; this script proves them across a
*real* process boundary, the only place a SIGKILL actually exists:

1. start ``repro-anon serve`` with a cache journal and a span trace,
   drive a seeded 50-request load (phase A) and record each response
   body's SHA-256;
2. SIGKILL the server mid-flight during a second burst — no shutdown
   hooks, no flushing grace;
3. restart on the same journal and re-drive the phase-A mix: every
   body hash must match byte-for-byte, and ``/metricz`` must show
   ``serve.execute.computed == 0`` — the restarted server recomputed
   nothing;
4. the fsynced span trace (written through both lives of the server)
   must still convert to a well-formed Chrome ``traceEvents`` file.

Exits non-zero on the first broken check.  Wall clock is a few seconds.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from loadgen import run_load  # noqa: E402
from repro.obs import load_trace, write_chrome_trace  # noqa: E402

REQUESTS = 50
SEED = 0
RATE = 200.0
STARTUP_PATTERN = re.compile(r"serving on (http://\S+)")
RECOVERED_PATTERN = re.compile(r"recovered (\d+) cached results")


class Server:
    """One life of the server subprocess."""

    def __init__(self, journal: Path, trace: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--cache-journal", str(journal),
                "--trace", str(trace),
                "--max-queue", "64",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self.url = ""
        self.recovered = 0
        deadline = time.monotonic() + 30.0
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise AssertionError("server exited before binding")
            recovered = RECOVERED_PATTERN.search(line)
            if recovered:
                self.recovered = int(recovered.group(1))
            started = STARTUP_PATTERN.search(line)
            if started:
                self.url = started.group(1)
                return
        raise AssertionError("server never printed its startup line")

    def kill(self) -> None:
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=10)


def metricz(url: str) -> dict:
    with urllib.request.urlopen(url.rstrip("/") + "/metricz", timeout=10) as resp:
        return json.loads(resp.read().decode("utf-8"))


def hashes_by_index(report: dict) -> dict[int, str]:
    return {
        r["index"]: r["body_sha256"]
        for r in report["records"]
        if r["status"] == "ok"
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "cache.jsonl"
        trace = Path(tmp) / "spans.jsonl"

        # Phase A: cold server, full seeded load.
        first = Server(journal, trace)
        assert first.recovered == 0, first.recovered
        phase_a = run_load(first.url, requests=REQUESTS, seed=SEED, rate=RATE)
        summary = phase_a["summary"]
        assert summary["errors"] == 0, phase_a["records"]
        assert summary["ok"] == REQUESTS, summary
        baseline = hashes_by_index(phase_a)
        computed_cold = metricz(first.url)["counters"].get(
            "serve.execute.computed", 0
        )
        assert computed_cold > 0, "cold run computed nothing?"
        print(
            f"ok   phase A: {summary['ok']}/{REQUESTS} ok, "
            f"{computed_cold} computed, p99 {summary['latency_p99_ms']:.1f} ms"
        )

        # Phase B: SIGKILL mid-flight — no grace, no flush.
        burst = threading.Thread(
            target=run_load,
            args=(first.url,),
            kwargs={"requests": 20, "seed": SEED + 1, "rate": RATE},
            daemon=True,
        )
        burst.start()
        time.sleep(0.05)  # let a few burst requests get in flight
        first.kill()
        burst.join(timeout=30)
        assert journal.exists(), "journal never materialized"
        print("ok   phase B: SIGKILLed mid-burst, journal on disk")

        # Phase C: restart on the same journal; replay must be free.
        second = Server(journal, trace)
        expected = len(set(baseline.values()))
        assert second.recovered >= expected, (
            f"recovered {second.recovered} < {expected} distinct phase-A bodies"
        )
        phase_c = run_load(second.url, requests=REQUESTS, seed=SEED, rate=RATE)
        assert phase_c["summary"]["errors"] == 0, phase_c["records"]
        replayed = hashes_by_index(phase_c)
        assert replayed == baseline, "recovered bodies differ from phase A"
        counters = metricz(second.url)["counters"]
        computed = counters.get("serve.execute.computed", 0)
        assert computed == 0, (
            f"restarted server recomputed {computed} results"
        )
        second.kill()
        print(
            f"ok   phase C: recovered {second.recovered} bodies, "
            f"{len(replayed)} responses byte-identical, 0 recomputed"
        )

        # Phase D: the trace survived both lives and converts cleanly.
        events, _skipped = load_trace(trace)
        assert events, "no spans survived in the trace file"
        chrome = Path(tmp) / "chrome.json"
        write_chrome_trace(events, chrome)
        payload = json.loads(chrome.read_text(encoding="utf-8"))
        assert payload["traceEvents"], payload.keys()
        names = {event["name"] for event in payload["traceEvents"]}
        assert "serve.request" in names, sorted(names)[:10]
        print(
            f"ok   phase D: {len(events)} spans -> well-formed Chrome trace"
        )

    print("serve smoke: all phases passed")
    return 0


def run() -> int:
    try:
        return main()
    except AssertionError as exc:
        print(f"FAIL: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(run())
