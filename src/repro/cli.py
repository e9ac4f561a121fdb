"""Command-line interface: ``repro-anon`` (or ``python -m repro``).

Subcommands
-----------
* ``datasets`` — list the built-in datasets and their paper sizes.
* ``anonymize`` — anonymize a built-in dataset or a CSV file and write
  the release (plus its self-describing schema JSON).
* ``audit`` — re-audit a written release against both adversaries.
* ``utility`` — COUNT-query utility comparison of k / forest / (k,k)
  releases on a built-in dataset.
* ``experiment`` — run one of the paper's experiments by its name in
  :data:`repro.experiments.catalogue.EXPERIMENTS` (which includes the
  complete reproduction report) and print it.  ``--timeout SECONDS``
  bounds the wall clock (exit code 3 on expiry), ``--journal PATH``
  appends every finished grid cell to a crash-safe JSONL journal,
  ``--resume`` preloads an existing journal so finished cells are
  never recomputed (see ``docs/robustness.md``), ``--workers N`` fans
  the grid cells over worker processes with results identical to a
  serial run (``docs/performance.md``), and ``--trace PATH`` /
  ``--metrics PATH`` record a span trace and a work-unit metrics
  snapshot without changing any result, and ``--obs-journal PATH``
  appends that snapshot as one stamped record to an ``OBS_*.jsonl``
  journal (``docs/observability.md``).
* ``obs`` — work with observability artifacts (``docs/observability.md``):
  ``summarize`` renders any combination of a span trace, a metrics
  snapshot (v1 cumulative or v2 windowed) and a flight-recorder dump;
  ``convert`` turns a span trace written by ``experiment --trace`` into
  Chrome ``trace_event`` JSON (chrome://tracing, Perfetto);
  ``export`` converts a snapshot JSON to the Prometheus text
  exposition; ``tail`` prints the last records of an ``OBS_*.jsonl``
  snapshot journal (or any tolerant JSONL artifact).
* ``fuzz`` — run the property-fuzzing and differential-verification
  harness (:mod:`repro.verify`) on random seeded instances; on failure
  prints a replay command that reproduces the case deterministically.
* ``lint`` — run the domain-aware static analysis
  (:mod:`repro.analysis`): the REP001–REP015 rule catalogue plus the
  import-layering DAG check, with inline suppressions and a committed
  baseline ratchet.
* ``serve`` — run the fault-hardened anonymization HTTP service
  (:mod:`repro.serve`): ``POST /anonymize`` with admission control and
  typed load shedding, per-request deadlines, a circuit breaker over
  the degradation chain, and a crash-safe result cache journal so a
  killed server restarts with zero recomputation
  (``docs/serving.md``).  ``--live-telemetry`` adds sliding-window
  metrics (``/metricz?window=N``), SLO burn-rate monitors on
  ``/healthz`` and a flight recorder on ``/debugz``.

Examples
--------
::

    repro-anon anonymize --dataset adult --n 500 --k 10 --notion kk \
        --out release.csv --schema-out schema.json
    repro-anon audit --schema schema.json --table original.csv \
        --release release.csv --k 10
    repro-anon experiment table1
    repro-anon fuzz --seed 42 --budget-seconds 30
    repro-anon lint --baseline lint-baseline.json
    repro-anon lint src/repro --select REP002,LAY001 --format json
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.api import anonymize
from repro.datasets.registry import dataset_names, default_size, load
from repro.errors import DeadlineExceeded, ReproError
from repro.tabular.encoding import EncodedTable
from repro.tabular.io import (
    read_generalized_csv,
    read_schema_json,
    read_table_csv,
    write_generalized_csv,
    write_schema_json,
    write_table_csv,
)


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}"
        )
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-anon",
        description="k-Anonymization Revisited (ICDE 2008) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    datasets_cmd = sub.add_parser("datasets", help="list built-in datasets")
    datasets_cmd.add_argument(
        "--verbose", action="store_true",
        help="describe every attribute, hierarchy and value distribution",
    )

    anon = sub.add_parser("anonymize", help="anonymize a dataset or CSV")
    anon.add_argument("--dataset", choices=dataset_names(), help="built-in dataset")
    anon.add_argument("--input", help="CSV file (requires --schema)")
    anon.add_argument("--schema", help="schema JSON for --input")
    anon.add_argument("--n", type=int, help="records to sample (built-in datasets)")
    anon.add_argument("--seed", type=int, default=0, help="sampling seed")
    anon.add_argument("--k", type=int, required=True, help="anonymity parameter")
    anon.add_argument(
        "--notion",
        default="kk",
        choices=["k", "1k", "k1", "kk", "global-1k"],
        help="anonymity notion (default kk)",
    )
    anon.add_argument(
        "--measure", default="entropy", help="loss measure (entropy, lm, tree)"
    )
    anon.add_argument(
        "--algorithm", default=None, help="for notion=k: agglomerative, forest, mondrian or datafly"
    )
    anon.add_argument(
        "--distance", default="d3", help="agglomerative distance (d1..d4, nc)"
    )
    anon.add_argument(
        "--modified", action="store_true", help="use the modified agglomerative"
    )
    anon.add_argument(
        "--expander",
        default="expansion",
        choices=["expansion", "nearest"],
        help="(k,1) stage (Algorithm 4 or 3)",
    )
    anon.add_argument("--out", help="output CSV for the release")
    anon.add_argument("--schema-out", help="also write the schema JSON here")
    anon.add_argument("--table-out", help="also write the original table CSV here")
    anon.add_argument(
        "--bundle-out",
        help="write a self-describing release bundle directory "
        "(release.csv + schema.json + manifest.json with risk summary)",
    )

    utility = sub.add_parser(
        "utility", help="COUNT-query utility comparison on a dataset"
    )
    utility.add_argument("--dataset", choices=dataset_names(), default="adult")
    utility.add_argument("--n", type=int, default=400)
    utility.add_argument("--k", type=int, default=10)
    utility.add_argument("--queries", type=int, default=150)
    utility.add_argument("--seed", type=int, default=0)

    audit = sub.add_parser("audit", help="audit a written release")
    audit.add_argument("--schema", required=True, help="schema JSON")
    audit.add_argument("--table", required=True, help="original table CSV")
    audit.add_argument("--release", required=True, help="generalized release CSV")
    audit.add_argument("--k", type=int, required=True, help="claimed k")

    from repro.experiments.catalogue import EXPERIMENTS

    exp = sub.add_parser("experiment", help="run a paper experiment")
    exp.add_argument("name", choices=list(EXPERIMENTS))
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument(
        "--out", help="also write the printed report to this file"
    )
    exp.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline; on expiry the run stops with exit "
        "code 3 (finished cells stay journaled with --journal)",
    )
    exp.add_argument(
        "--journal",
        help="crash-safe JSONL journal recording every finished grid cell",
    )
    exp.add_argument(
        "--resume",
        action="store_true",
        help="preload the --journal file from a previous (killed or "
        "timed-out) run; finished cells are not recomputed",
    )
    exp.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the grid cells (default 1 = serial); "
        "results and journal order are identical to a serial run",
    )
    exp.add_argument(
        "--trace",
        metavar="PATH",
        help="record a span trace (JSONL) of the run; convert with "
        "'repro-anon obs convert' for chrome://tracing / Perfetto",
    )
    exp.add_argument(
        "--metrics",
        metavar="PATH",
        help="write a JSON snapshot of work-unit counters/histograms "
        "(written even when the run hits --timeout)",
    )
    exp.add_argument(
        "--obs-journal",
        metavar="PATH",
        help="append the run's metrics snapshot as one record to an "
        "OBS_*.jsonl snapshot journal (implies metrics collection)",
    )

    obs_cmd = sub.add_parser(
        "obs",
        help="summarize, convert, export or tail observability artifacts "
        "(traces, metrics snapshots, flight dumps, OBS journals)",
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    obs_summarize = obs_sub.add_parser(
        "summarize",
        help="render traces / metrics snapshots / flight dumps as one "
        "report",
    )
    obs_summarize.add_argument(
        "--trace", metavar="PATH", help="span trace JSONL file"
    )
    obs_summarize.add_argument(
        "--metrics",
        metavar="PATH",
        help="metrics snapshot JSON (v1 cumulative or v2 windowed)",
    )
    obs_summarize.add_argument(
        "--flight",
        metavar="PATH",
        help="flight-recorder dump JSON (from /debugz or a breach dump)",
    )
    obs_convert = obs_sub.add_parser(
        "convert", help="convert a JSONL span trace to Chrome trace_event JSON"
    )
    obs_convert.add_argument("trace", help="span trace JSONL file")
    obs_convert.add_argument(
        "--out", required=True, help="output Chrome trace_event JSON path"
    )
    obs_export = obs_sub.add_parser(
        "export",
        help="convert a metrics snapshot JSON to Prometheus text "
        "exposition",
    )
    obs_export.add_argument("snapshot", help="metrics snapshot JSON file")
    obs_export.add_argument(
        "--out", help="write the text exposition here (default: stdout)"
    )
    obs_tail = obs_sub.add_parser(
        "tail",
        help="print the last records of an OBS_*.jsonl snapshot journal",
    )
    obs_tail.add_argument("journal", help="OBS_*.jsonl journal path")
    obs_tail.add_argument(
        "-n",
        "--records",
        type=_nonnegative_int,
        default=10,
        help="records to show (default 10)",
    )
    obs_tail.add_argument(
        "--raw",
        action="store_true",
        help="print full JSON records instead of one summary line each",
    )

    fuzz_cmd = sub.add_parser(
        "fuzz",
        help="run the property-fuzzing / differential-verification harness",
    )
    fuzz_cmd.add_argument(
        "--seed",
        type=_nonnegative_int,
        default=0,
        help="master seed (default 0)",
    )
    fuzz_cmd.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help="wall-clock budget; defaults to 10s when --max-cases is absent",
    )
    fuzz_cmd.add_argument(
        "--max-cases", type=int, default=None, help="hard cap on cases"
    )
    fuzz_cmd.add_argument(
        "--max-failures",
        type=int,
        default=3,
        help="stop after this many failing cases (default 3)",
    )
    fuzz_cmd.add_argument(
        "--verbose", action="store_true", help="print a line per case"
    )

    lint_cmd = sub.add_parser(
        "lint",
        help="run the domain-aware static analysis (repro.analysis)",
    )
    lint_cmd.add_argument(
        "paths",
        nargs="*",
        help="package directories or files to scan "
        "(default: the installed repro package)",
    )
    lint_cmd.add_argument(
        "--format",
        dest="output_format",
        default="text",
        choices=["text", "json", "github"],
        help="report format (default text; 'github' emits CI "
        "::error annotations)",
    )
    lint_cmd.add_argument(
        "--baseline",
        help="baseline JSON of reviewed findings "
        "(default: ./lint-baseline.json when it exists)",
    )
    lint_cmd.add_argument(
        "--select",
        help="comma-separated rule ids to run (default: all rules)",
    )
    lint_cmd.add_argument(
        "--no-layers",
        action="store_true",
        help="skip the import-layering DAG check",
    )
    lint_cmd.add_argument(
        "--prune-baseline",
        action="store_true",
        help="remove stale baseline entries instead of failing on them",
    )
    lint_cmd.add_argument(
        "--callgraph",
        metavar="PATH",
        help="also write the scanned tree's call graph (entry points, "
        "reachability) as deterministic JSON to PATH",
    )

    serve_cmd = sub.add_parser(
        "serve",
        help="run the fault-hardened anonymization HTTP service "
        "(repro.serve)",
    )
    serve_cmd.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_cmd.add_argument(
        "--port",
        type=int,
        default=8077,
        help="bind port (default 8077; 0 binds an ephemeral port, "
        "printed on startup)",
    )
    serve_cmd.add_argument(
        "--cache-journal",
        metavar="PATH",
        help="crash-safe JSONL journal for the result cache; an "
        "existing journal is replayed on startup so a restarted "
        "server serves cached results with zero recomputation",
    )
    serve_cmd.add_argument(
        "--max-inflight",
        type=int,
        default=4,
        help="concurrent executions before requests queue (default 4)",
    )
    serve_cmd.add_argument(
        "--max-queue",
        type=int,
        default=16,
        help="bounded wait-queue depth; beyond it requests are shed "
        "with a typed 429 (default 16)",
    )
    serve_cmd.add_argument(
        "--default-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-request budget when the request sets none (default 30)",
    )
    serve_cmd.add_argument(
        "--rung-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-rung cap inside the degradation chain (default: none)",
    )
    serve_cmd.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        help="consecutive backend failures that trip the circuit "
        "breaker (default 5)",
    )
    serve_cmd.add_argument(
        "--breaker-reset",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="breaker cooldown before a half-open probe (default 30)",
    )
    serve_cmd.add_argument(
        "--trace",
        metavar="PATH",
        help="record per-request span traces (JSONL); convert with "
        "'repro-anon obs convert'",
    )
    serve_cmd.add_argument(
        "--live-telemetry",
        action="store_true",
        help="enable sliding-window telemetry: /metricz?window=N, SLO "
        "burn-rate monitors on /healthz, flight recorder on /debugz",
    )
    serve_cmd.add_argument(
        "--slo-advisory",
        action="store_true",
        help="let SLO breaches advise the admission gate and circuit "
        "breaker (tighter shedding under confirmed burn; implies "
        "--live-telemetry)",
    )
    serve_cmd.add_argument(
        "--flight-journal",
        metavar="PATH",
        help="write an atomic flight-recorder dump here on the first "
        "SLO breach edge (implies --live-telemetry)",
    )
    serve_cmd.add_argument(
        "--window-bucket",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="window-bucket resolution for live telemetry (default 1)",
    )
    serve_cmd.add_argument(
        "--window-horizon",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="how far back /metricz?window may reach (default 300)",
    )
    return parser


def _load_input(args: argparse.Namespace):
    if args.dataset and args.input:
        raise ReproError("give either --dataset or --input, not both")
    if args.dataset:
        n = args.n if args.n is not None else default_size(args.dataset)
        return load(args.dataset, n=n, seed=args.seed, private=False)
    if args.input:
        if not args.schema:
            raise ReproError("--input requires --schema")
        schema = read_schema_json(args.schema)
        return read_table_csv(schema, args.input)
    raise ReproError("give --dataset or --input")


def _cmd_datasets(verbose: bool = False) -> int:
    if verbose:
        from repro.datasets.describe import describe_dataset

        for name in dataset_names():
            print(describe_dataset(name))
            print()
        return 0
    for name in dataset_names():
        print(f"{name:8s} paper size n = {default_size(name)}")
    return 0


def _cmd_anonymize(args: argparse.Namespace) -> int:
    if not args.out and not args.bundle_out:
        raise ReproError("give --out and/or --bundle-out")
    table = _load_input(args)
    result = anonymize(
        table,
        k=args.k,
        notion=args.notion,
        measure=args.measure,
        algorithm=args.algorithm,
        distance=args.distance,
        modified=args.modified,
        expander=args.expander,
    )
    if args.out:
        write_generalized_csv(result.generalized, args.out)
        print(
            f"wrote {args.out}: n={table.num_records}, notion={result.notion}, "
            f"k={args.k}, algorithm={result.algorithm}"
        )
    if args.schema_out:
        write_schema_json(table.schema, args.schema_out)
    if args.table_out:
        write_table_csv(table, args.table_out)
    if args.bundle_out:
        from repro.privacy.bundle import save_release

        directory = save_release(result, args.bundle_out)
        print(f"wrote release bundle {directory}")
    print(
        f"information loss Π_{result.measure} = {result.cost:.4f} "
        f"({result.elapsed_seconds:.2f}s)"
    )
    return 0


def _cmd_utility(args: argparse.Namespace) -> int:
    from repro.utility import compare_releases

    table = load(args.dataset, n=args.n, seed=args.seed)
    enc = EncodedTable(table)
    releases = {}
    for label, notion, kwargs in (
        ("k-anonymity", "k", {}),
        ("forest", "k", {"algorithm": "forest"}),
        ("(k,k)-anonymity", "kk", {}),
    ):
        result = anonymize(table, k=args.k, notion=notion, encoded=enc, **kwargs)
        releases[label] = result.node_matrix
    comparison = compare_releases(
        enc, releases, num_queries=args.queries, arity=2, seed=args.seed
    )
    print(
        f"{args.dataset}, n={args.n}, k={args.k}: query-answering utility"
    )
    print(comparison.format())
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.privacy.audit import audit_release

    schema = read_schema_json(args.schema)
    table = read_table_csv(schema, args.table)
    release = read_generalized_csv(schema, args.release)
    audit = audit_release(table, release, k=args.k)
    print(audit.format_report())
    return 0 if audit.safe_against_adversary1() else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.verify.harness import fuzz

    def progress(index: int, case_seed: int, violations) -> None:
        status = "FAIL" if violations else "ok"
        print(f"case {index} (seed {case_seed}): {status}")

    report = fuzz(
        seed=args.seed,
        budget_seconds=args.budget_seconds,
        max_cases=args.max_cases,
        max_failures=args.max_failures,
        on_case=progress if args.verbose else None,
    )
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.analysis import Baseline, build_tree_callgraph, run_lint

    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        # This module lives inside the package being linted.
        paths = [Path(__file__).resolve().parent]
    baseline = args.baseline
    if baseline is None and Path("lint-baseline.json").is_file():
        baseline = "lint-baseline.json"
    select = (
        # An explicit-but-empty --select is an error (caught by the
        # engine), not a silent run-everything.
        [part.strip() for part in args.select.split(",") if part.strip()]
        if args.select is not None
        else None
    )
    reports = run_lint(
        paths,
        select=select,
        baseline_path=baseline,
        check_layers=not args.no_layers,
    )
    if args.prune_baseline:
        if baseline is None:
            raise ReproError(
                "--prune-baseline requires a baseline (give --baseline or "
                "commit lint-baseline.json)"
            )
        stale = reports[-1].stale_baseline
        if stale:
            removed = Baseline.load(baseline).prune(stale)
            print(
                f"pruned {removed} stale "
                f"entr{'y' if removed == 1 else 'ies'} from {baseline}",
                file=sys.stderr,
            )
            for report in reports:
                report.stale_baseline = []
    if args.callgraph:
        root = next((p for p in paths if p.is_dir()), None)
        if root is None:
            raise ReproError(
                "--callgraph needs a package directory among the scanned "
                "paths"
            )
        graph = build_tree_callgraph(root)
        Path(args.callgraph).write_text(graph.to_json_text())
        print(f"call graph written to {args.callgraph}", file=sys.stderr)
    if args.output_format == "json":
        payload: object = (
            reports[0].to_json()
            if len(reports) == 1
            else [r.to_json() for r in reports]
        )
        print(json.dumps(payload, indent=2))
    elif args.output_format == "github":
        for report in reports:
            annotations = report.format_github()
            if annotations:
                print(annotations)
    else:
        for report in reports:
            print(report.format_text())
    return 0 if all(report.ok for report in reports) else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    import json
    from contextlib import ExitStack

    from repro.experiments.catalogue import get_experiment
    from repro.experiments.configs import ExperimentConfig
    from repro.experiments.runner import ExperimentRunner
    from repro.obs import MetricsRegistry, Tracer, metrics_scope, trace_scope
    from repro.runtime import Deadline, Journal, atomic_write_text, limit_scope

    if args.resume and not args.journal:
        raise ReproError("--resume requires --journal PATH")
    experiment = get_experiment(args.name)
    journal = None
    if args.journal:
        journal = Journal(args.journal)
        if journal.exists() and not args.resume:
            raise ReproError(
                f"journal {args.journal!r} already exists; pass --resume "
                "to continue it, or remove the file to start over"
            )
    config = ExperimentConfig(seed=args.seed)
    runner = ExperimentRunner(config, journal=journal, resume=args.resume)
    if args.resume:
        print(f"resumed {runner.resumed_cells} finished cells from {args.journal}")
    limits = [Deadline.after(args.timeout)] if args.timeout is not None else []
    registry = (
        MetricsRegistry() if (args.metrics or args.obs_journal) else None
    )
    try:
        with ExitStack() as scopes:
            if args.trace:
                scopes.enter_context(trace_scope(Tracer(args.trace)))
            if registry is not None:
                scopes.enter_context(metrics_scope(registry))
            with limit_scope(*limits):
                cells = experiment.cells(config)
                if args.workers > 1 and cells:
                    from repro.perf import run_parallel

                    stats = run_parallel(runner, cells, workers=args.workers)
                    print(f"parallel prefetch: {stats}")
                rendering = experiment.render(runner)
    finally:
        # Write the snapshot even when a deadline aborts the run: the
        # partial counters say where the time went before the cutoff.
        if registry is not None and args.metrics:
            atomic_write_text(
                args.metrics,
                json.dumps(registry.snapshot(), indent=2, sort_keys=True)
                + "\n",
            )
        if registry is not None and args.obs_journal:
            from repro.obs import append_obs_record, default_stamp

            append_obs_record(
                args.obs_journal,
                kind="experiment",
                stamp=default_stamp(),
                snapshot=registry.snapshot(),
                extra={"experiment": args.name, "seed": args.seed},
            )
    print(rendering.text)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(rendering.text)
        print(f"report written to {args.out}")
    if args.trace:
        print(f"trace written to {args.trace}")
    if args.metrics:
        print(f"metrics snapshot written to {args.metrics}")
    if args.obs_journal:
        print(f"obs record appended to {args.obs_journal}")
    if journal is not None:
        print(
            f"journal {args.journal}: {runner.computed_cells} cells computed, "
            f"{runner.resumed_cells} resumed"
        )
    return 0 if rendering.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs import Tracer
    from repro.runtime import Journal
    from repro.serve import (
        AnonymizationService,
        ResultCache,
        ServiceConfig,
        serve_http,
    )

    live = bool(
        args.live_telemetry or args.slo_advisory or args.flight_journal
    )
    config = ServiceConfig(
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        default_timeout=args.default_timeout,
        rung_timeout=args.rung_timeout,
        breaker_threshold=args.breaker_threshold,
        breaker_reset=args.breaker_reset,
        live_telemetry=live,
        slo_advisory=args.slo_advisory,
        flight_journal=args.flight_journal,
        window_bucket_seconds=args.window_bucket,
        window_horizon_seconds=args.window_horizon,
    )
    cache = ResultCache(
        Journal(args.cache_journal) if args.cache_journal else None,
        retry=config.retry,
    )
    tracer = Tracer(args.trace) if args.trace else None
    service = AnonymizationService(config, cache, tracer=tracer)
    recovered = service.recover()
    if args.cache_journal:
        print(
            f"cache journal {args.cache_journal}: "
            f"recovered {recovered} cached results"
        )
    server = serve_http(service, host=args.host, port=args.port)
    if live:
        print(
            "live telemetry on: /metricz?window=N, /debugz"
            + (", SLO advisory" if args.slo_advisory else "")
        )
    # The smoke harness parses this line to learn the bound port.
    print(f"serving on http://{args.host}:{server.port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _read_json(path: str, what: str) -> dict:
    import json
    from pathlib import Path

    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ReproError(f"{what} {path} is not a JSON object")
    return payload


def _cmd_obs(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.obs import (
        load_obs_journal,
        load_trace,
        render_prometheus,
        write_chrome_trace,
    )
    from repro.obs.summarize import summarize

    if args.obs_command == "convert":
        events = load_trace(args.trace)
        write_chrome_trace(events, args.out)
        print(f"{len(events)} spans converted to {args.out}")
        return 0
    if args.obs_command == "summarize":
        events = load_trace(args.trace) if args.trace else []
        snapshot = (
            _read_json(args.metrics, "metrics snapshot")
            if args.metrics
            else None
        )
        flight = (
            _read_json(args.flight, "flight dump") if args.flight else None
        )
        if not events and snapshot is None and flight is None:
            raise ReproError(
                "give at least one of --trace, --metrics, --flight"
            )
        print(summarize(events, snapshot, flight))
        return 0
    if args.obs_command == "export":
        text = render_prometheus(_read_json(args.snapshot, "snapshot"))
        if args.out:
            Path(args.out).write_text(text)
            print(f"exposition written to {args.out}", file=sys.stderr)
        else:
            print(text, end="")
        return 0
    # tail
    try:
        records = load_obs_journal(args.journal)
    except OSError as exc:
        raise ReproError(f"cannot read journal {args.journal}: {exc}") from exc
    shown = records[-args.records:] if args.records else []
    print(
        f"{args.journal}: {len(records)} records"
        + (f", showing last {len(shown)}" if shown else "")
    )
    for record in shown:
        if args.raw:
            print(json.dumps(record, sort_keys=True))
            continue
        snapshot = record.get("snapshot", {})
        counters = snapshot.get("counters", {}) if isinstance(snapshot, dict) else {}
        extras = [
            f"{key}={record[key]}"
            for key in sorted(record)
            if key not in ("schema", "kind", "stamp", "snapshot")
            and not isinstance(record[key], (dict, list))
        ]
        line = (
            f"  {record.get('kind', '?'):12s} stamp={record.get('stamp', '?')} "
            f"counters={len(counters)}"
        )
        if extras:
            line += " " + " ".join(extras)
        print(line)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "datasets":
            return _cmd_datasets(verbose=args.verbose)
        if args.command == "anonymize":
            return _cmd_anonymize(args)
        if args.command == "utility":
            return _cmd_utility(args)
        if args.command == "audit":
            return _cmd_audit(args)
        if args.command == "fuzz":
            return _cmd_fuzz(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "obs":
            return _cmd_obs(args)
        return _cmd_experiment(args)
    except DeadlineExceeded as exc:
        print(f"deadline exceeded: {exc}", file=sys.stderr)
        journal = getattr(args, "journal", None)
        if journal:
            print(
                f"finished cells are journaled; rerun with "
                f"--journal {journal} --resume to continue",
                file=sys.stderr,
            )
        return 3
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
