"""End-to-end benchmark of the anonymization library (see README.md).

Run from the repository root::

    python3 perfbench/run.py --workload paper-k --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines above it are a human-readable report and the provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("paper-k", "paper-g1k", "serve-mix")


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The default engine is what gets measured, whatever the caller's
    # environment says.
    os.environ.pop("REPRO_BACKEND", None)
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import numpy
        import repro
        import repro.core.api  # noqa: F401
        import repro.serve.service  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_wall_s = time.perf_counter() - start

    from common import SpeedProbe

    probe = SpeedProbe()
    probe.read()
    import_s = probe.scaled(start, import_wall_s)
    if args.workload == "serve-mix":
        import servemix

        outcome = servemix.run(args.seed, args.seconds, bool(args.trace), import_s, probe)
    else:
        import batch

        outcome = batch.run(
            args.workload, args.seed, args.seconds, bool(args.trace), import_s, probe
        )

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": outcome.backend,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(ROOT),
        "platform": platform.platform(),
    }
    for line in outcome.tables:
        print(line)
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:44s} {value:14.6f} {unit}")
    for problem in outcome.problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    print(f"attempted {outcome.attempted}, failed {outcome.failed}, "
          f"failed_ratio {outcome.failed / max(outcome.attempted, 1):.4f}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
