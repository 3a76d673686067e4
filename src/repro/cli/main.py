"""dbsynth command line interface.

The paper demonstrates DBSynth through a GUI wizard (Figures 10-12);
the library exposes the same workflows as CLI verbs:

* ``extract``   — build a model from a source database (Figure 12's
  elaborate extraction: schema, statistics, samples).
* ``preview``   — instant preview of generated rows (paper §4's
  "preview generation, which shows samples of the generated data
  instantaneously").
* ``generate``  — run PDGF over a model or a built-in suite.
* ``translate`` — print the target-database DDL for a model.
* ``verify``    — compare source vs. synthesized databases with SQL.
* ``update``    — print an update-epoch change batch summary.
* ``stats``     — summarize a trace log or list a model's generators.

Built-in suite models (``--suite tpch|ssb|bigbench``) correspond to the
demo's "default projects" (Figure 10).

``extract`` and ``generate`` accept ``--trace FILE`` (JSONL span log)
and ``--metrics FILE`` (Prometheus text dump); ``--summary`` prints the
human-readable telemetry digest after the run.

Start-up is part of every command's latency, so the module top imports
only what :func:`build_parser` needs; each sub-command imports its own
heavy packages (the engine and output system, extraction, databases,
schedulers, the update black box) in its body.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from repro import __version__, obs
from repro.config import apply_overrides
from repro.exceptions import ReproError
from repro.suites import SUITE_NAMES, suite_model, suite_schema

if TYPE_CHECKING:
    from repro.engine import GenerationEngine


def _load_engine(args: argparse.Namespace) -> GenerationEngine:
    """The command's one bound engine: the model from --suite or
    --model, with -p overrides applied. Every component a command runs
    takes this engine; none binds the model again."""
    from repro.engine import GenerationEngine

    if args.suite:
        schema, artifacts = suite_model(args.suite, args.scale_factor)
    else:
        if not args.model:
            raise ReproError("either --suite or --model is required")
        from repro.config.saved_model import load_saved

        schema, artifacts = load_saved(args.model)
        schema.properties.override("SF", args.scale_factor)
    if args.property:
        apply_overrides(schema.properties, args.property)
    return GenerationEngine(schema, artifacts)


class _KnownFormats:
    """``--format``'s choices: the format registry, read when a value is
    checked or the help lists them, so building the parser loads no
    output package (``extract`` never does)."""

    def __iter__(self):
        from repro.output.formats import known_formats

        return iter(known_formats())

    def __contains__(self, name: object) -> bool:
        return name in tuple(self)


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="FILE",
        help="write a JSONL span log of the run (.gz compresses)",
    )
    parser.add_argument(
        "--metrics", metavar="FILE", help="write a Prometheus-style metrics dump"
    )
    parser.add_argument(
        "--summary", action="store_true", help="print a telemetry summary after the run"
    )
    parser.add_argument(
        "--obs-port", type=int, metavar="PORT",
        help="serve live /metrics, /progress and /trace on this loopback "
        "port while the run is in flight (0 picks a free port)",
    )
    parser.add_argument(
        "--profile", metavar="FILE",
        help="run a sampling profiler and write collapsed stacks to FILE "
        "(flamegraph input); also adds per-stage attribution to --summary",
    )


def _telemetry_begin(args: argparse.Namespace):
    """Enable collectors per the CLI flags.

    Returns ``(tracer, registry, profiler, server)`` — ``--obs-port``
    implies tracing and metrics (the live endpoint would otherwise have
    nothing to serve) and prints the bound URL to stderr.
    """
    wants_live = getattr(args, "obs_port", None) is not None
    wants_trace = bool(args.trace or args.summary) or wants_live
    wants_metrics = bool(args.metrics or args.summary) or wants_live
    tracer = obs.enable_tracing() if wants_trace else None
    registry = obs.enable_metrics() if wants_metrics else None
    profiler = (
        obs.enable_profiling() if getattr(args, "profile", None) else None
    )
    server = None
    if wants_live:
        server = obs.ObsServer(port=args.obs_port).start()
        print(f"obs endpoint: {server.url}", file=sys.stderr)
    return tracer, registry, profiler, server


def _telemetry_end(
    args: argparse.Namespace, tracer, registry, profiler=None, server=None
) -> None:
    """Export telemetry per the CLI flags, then reset the global state."""
    try:
        if server is not None:
            server.stop()
        if tracer is not None and args.trace:
            spans = obs.write_trace_jsonl(tracer, args.trace)
            print(f"trace: {spans} spans written to {args.trace}")
        if registry is not None and args.metrics:
            obs.write_metrics_text(registry, args.metrics)
            print(f"metrics written to {args.metrics}")
        if profiler is not None:
            profiler.stop()
            samples = profiler.write_collapsed(args.profile)
            print(f"profile: {samples} samples written to {args.profile}")
        if args.summary:
            for line in obs.summary_lines(registry, tracer):
                print(line)
            if profiler is not None:
                for stage in profiler.stage_attribution():
                    print(
                        f"profile {stage.stage:<16} {stage.fraction:6.1%} "
                        f"wall {stage.wall_seconds:.2f} s "
                        f"cpu {stage.cpu_seconds:.2f} s "
                        f"({stage.samples} samples)"
                    )
    finally:
        obs.reset()


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", help="saved project directory (from extract)")
    parser.add_argument(
        "--suite", choices=SUITE_NAMES, help="built-in suite model"
    )
    parser.add_argument(
        "--scale-factor", "--sf", type=float, default=1.0, dest="scale_factor"
    )
    parser.add_argument(
        "-p",
        "--property",
        action="append",
        metavar="NAME=VALUE",
        help="override a model property (repeatable)",
    )


def _cmd_extract(args: argparse.Namespace) -> int:
    from repro.core import DBSynthProject, SampleConfig
    from repro.core.model_builder import BuildOptions
    from repro.db import SQLiteAdapter

    source = SQLiteAdapter(args.source)
    options = BuildOptions(
        sample_data=not args.no_sample,
        sample_config=SampleConfig(
            fraction=args.sample_fraction, strategy=args.strategy
        ),
    )
    tracer, registry, profiler, server = _telemetry_begin(args)
    try:
        project = DBSynthProject(name=args.name, source=source, build_options=options)
        project.extract()
        if not args.no_profile:
            project.profile()
        result = project.build_model()
        paths = project.save(args.output)
        timings = project.extracted.timings if project.extracted else None

        print(f"model written to {paths.model_xml}")
        print(f"artifacts: {len(result.artifacts.names())}, DDL: {paths.ddl_sql}")
        if timings:
            print(
                f"timings: schema {timings.schema_seconds * 1000:.0f} ms, "
                f"sizes {timings.sizes_seconds * 1000:.0f} ms, "
                f"nulls {timings.null_seconds * 1000:.0f} ms, "
                f"min/max {timings.minmax_seconds * 1000:.0f} ms, "
                f"distinct {timings.distinct_seconds * 1000:.0f} ms, "
                f"sampling {timings.sampling_seconds * 1000:.0f} ms"
            )
        if args.verbose:
            for decision in result.decisions:
                print(
                    f"  {decision.table}.{decision.column}: "
                    f"{decision.generator} ({decision.reason})"
                )
        source.close()
        return 0
    finally:
        _telemetry_end(args, tracer, registry, profiler, server)


def _cmd_preview(args: argparse.Namespace) -> int:
    engine = _load_engine(args)
    tables = [args.table] if args.table else list(engine.sizes)
    for table in tables:
        columns = engine.bound_table(table).column_names
        print(f"-- {table} ({engine.sizes[table]} rows)")
        print(" | ".join(columns))
        for row in engine.preview(table, args.rows):
            print(" | ".join(row))
        print()
    return 0


def _print_report(report, quiet: bool) -> None:
    """The run summary, one shape for every runtime."""
    pool = "inline worker" if report.backend == "inline" else "process workers"
    print(
        f"{report.rows:,} rows, {report.bytes_written / 1048576:.2f} MiB "
        f"in {report.seconds:.2f} s ({report.mb_per_second:.2f} MB/s, "
        f"{report.workers} {pool})"
    )
    if report.resumed_packages:
        print(f"resumed: {report.resumed_packages} checkpointed packages skipped")
    if report.worker_restarts:
        print(
            f"recovered: {report.worker_restarts} crashed workers replaced, "
            f"{report.requeued_packages} packages requeued"
        )
    if quiet:
        return
    for table in report.tables:
        print(
            f"  {table.name:<16} {table.rows:>12,} rows "
            f"{table.bytes_written / 1048576:>9.2f} MiB "
            f"{table.mb_per_second:>8.2f} MB/s "
            f"({table.seconds:.2f} s)"
        )


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.output.config import OutputConfig
    from repro.scheduler import ProgressMonitor, generate

    if args.nodes < 1:
        raise ReproError(f"--nodes must be >= 1, got {args.nodes}")
    if args.resume and not args.checkpoint:
        raise ReproError("--resume requires --checkpoint DIR")
    if (args.distributed or args.nodes > 1) and args.workers != 1:
        raise ReproError(
            "--workers does not apply next to --nodes/--distributed: "
            "--nodes N means -w N, give one of them"
        )
    tracer, registry, profiler, server = _telemetry_begin(args)
    try:
        engine = _load_engine(args)
        output = OutputConfig(
            kind=args.kind,
            format=args.format,
            directory=args.directory,
            database=args.database or "",
            delimiter=args.delimiter,
            include_header=args.header,
        )

        def print_progress(snapshot) -> None:
            print(
                f"\r{snapshot.fraction:6.1%} {snapshot.rows_per_second:12,.0f} rows/s "
                f"{snapshot.mb_per_second:8.2f} MB/s",
                end="",
                file=sys.stderr,
            )

        progress = ProgressMonitor(
            engine.total_rows(),
            engine.sizes,
            callback=print_progress if not args.quiet else None,
        )
        if server is not None:
            server.attach_progress(progress)
        if args.kind == "sqlite" and not args.resume:
            from repro.db import SQLiteAdapter, create_schema_sql

            # The SQL stream needs the target schema in place first; a
            # resumed run finds it there, with the rows already loaded.
            with SQLiteAdapter(output.database) as target:
                target.execute_script(create_schema_sql(engine.schema, "sqlite"))
        report = generate(
            engine, output, workers=args.nodes if args.nodes > 1 else args.workers,
            progress=progress, checkpoint=args.checkpoint,
            resume_from=args.checkpoint if args.resume else None,
        )
        if not args.quiet:
            print(file=sys.stderr)
        _print_report(report, args.quiet)
        return 0
    finally:
        _telemetry_end(args, tracer, registry, profiler, server)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve deterministic slices of a model over loopback HTTP."""
    from repro.api import Dataset
    from repro.serve import DataServer

    registry = obs.enable_metrics()  # backs the /metrics endpoint
    dataset = Dataset(_load_engine(args), package_size=args.package_size)
    server = DataServer(
        dataset,
        host=args.host,
        port=args.port,
        workers=args.workers,
        registry=registry,
    )
    server.start()
    print(f"serving {len(dataset.tables)} tables at {server.url}", file=sys.stderr)
    print(
        f"try: curl '{server.url}/table/{next(iter(dataset.tables))}"
        "/rows/0-10?format=csv'",
        file=sys.stderr,
    )
    try:
        server.join()
    except KeyboardInterrupt:
        print("\nshutting down", file=sys.stderr)
        server.stop()
    finally:
        obs.reset()
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    from repro.config.saved_model import saved_schema
    from repro.db import create_schema_sql

    if args.suite:
        schema = suite_schema(args.suite, args.scale_factor)
    else:
        schema = saved_schema(args.model)
    print(create_schema_sql(schema, args.dialect))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.config.saved_model import saved_schema
    from repro.core.fidelity import FidelityChecker, default_queries
    from repro.db import SQLiteAdapter

    schema = saved_schema(args.model)
    with SQLiteAdapter(args.source) as source, SQLiteAdapter(args.target) as target:
        report = FidelityChecker(source, target).run(default_queries(schema))
    for line in report.summary_lines():
        print(line)
    print(f"pass rate: {report.pass_rate:.0%}")
    return 0 if report.passed else 1


def _workload_spec(args: argparse.Namespace, engine: GenerationEngine):
    """The stream spec for the loaded model: TPC-H preset or auto-derived."""
    from repro.workload import ArrivalSpec, auto_spec

    arrival = ArrivalSpec(
        process=args.arrival, rate=args.rate,
        period=args.period, amplitude=args.amplitude,
    )
    if args.suite == "tpch":
        from repro.suites.tpch.workload import tpch_workload_spec

        return tpch_workload_spec(
            count=args.queries, repetition=args.repetition, arrival=arrival
        )
    return auto_spec(
        engine.schema, count=args.queries, repetition=args.repetition, arrival=arrival,
    )


def _cmd_workload(args: argparse.Namespace) -> int:
    """Synthesize, dump, or replay a deterministic query workload.

    ``--dump`` writes the scheduled stream as JSONL (byte-reproducible
    for a given model seed); ``--replay`` executes a stream against
    ``--database``, pacing by the seed-derived arrival timestamps
    compressed by ``--max-speedup``.
    """
    from repro.db import SQLiteAdapter
    from repro.update import UpdateBlackBox
    from repro.workload import (
        CdcInterleave,
        WorkloadReplayer,
        WorkloadStream,
        read_jsonl,
    )

    if not args.dump and not args.replay:
        raise ReproError("workload needs --dump FILE and/or --replay")
    engine = _load_engine(args)
    spec = _workload_spec(args, engine)
    stream = WorkloadStream(engine, spec)
    if args.dump:
        if args.dump == "-":
            count = stream.dump_jsonl(sys.stdout)
        else:
            with open(args.dump, "w", encoding="utf-8", newline="\n") as handle:
                count = stream.dump_jsonl(handle)
        print(f"dumped {count} scheduled queries", file=sys.stderr)
        if not args.replay:
            return 0

    if not args.database:
        raise ReproError("--replay requires --database")
    if args.stream:
        with open(args.stream, encoding="utf-8") as handle:
            events = read_jsonl(handle)
    else:
        events = stream.events()

    tracer, registry, profiler, server = _telemetry_begin(args)
    try:
        with SQLiteAdapter(args.database) as target:
            cdc = None
            if args.cdc_epochs:
                cdc = CdcInterleave(UpdateBlackBox(engine), epochs=args.cdc_epochs)
            replayer = WorkloadReplayer(engine, target, max_speedup=args.max_speedup)
            report = replayer.replay(events, checks=spec.checks, cdc=cdc)
        for line in report.summary_lines():
            print(line)
        return 0 if report.ok else 1
    finally:
        _telemetry_end(args, tracer, registry, profiler, server)


def _cmd_stats(args: argparse.Namespace) -> int:
    """Summarize a trace log, or list a model's generators."""
    if args.trace_file:
        records = obs.read_trace_jsonl(args.trace_file)
        if not records:
            print("no spans in trace")
            return 0
        print(f"{len(records)} spans, "
              f"{len({r.thread_id for r in records})} threads")
        if args.tree:
            # The stitched view: one tree whatever backend produced the
            # trace, worker spans included.
            for line in obs.render_span_tree(records):
                print(line)
        else:
            print(f"{'span':<28} {'count':>7} {'total ms':>12} {'mean ms':>10} "
                  f"{'max ms':>10}")
            for agg in obs.aggregate_spans(records):
                print(
                    f"{agg.name:<28} {agg.count:>7} "
                    f"{agg.total_seconds * 1000:>12.1f} "
                    f"{agg.mean_seconds * 1000:>10.2f} "
                    f"{agg.max_seconds * 1000:>10.2f}"
                )
        totals = obs.table_totals(records)
        if totals:
            print("per-table package totals:")
            for name, (rows, bytes_written) in sorted(totals.items()):
                print(f"  {name:<16} {rows:>12,} rows {bytes_written:>14,} bytes")
        return 0

    engine = _load_engine(args)
    tables = [args.table] if args.table else list(engine.sizes)
    for name in tables:
        bound = engine.bound_table(name)
        print(f"-- {name}: {engine.sizes[name]:,} rows, "
              f"{len(bound.column_names)} columns")
        for column, generator in zip(bound.column_names, bound.generators):
            print(f"  {column:<24} {type(generator).__name__}")
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    from repro.update import UpdateBlackBox

    engine = _load_engine(args)
    blackbox = UpdateBlackBox(engine)
    tables = [args.table] if args.table else list(engine.sizes)
    for table in tables:
        plan = blackbox.plan(table, args.epoch)
        print(
            f"{table} epoch {args.epoch}: {plan.inserts} inserts "
            f"(rows from {plan.insert_start}), {plan.updates} updates, "
            f"{plan.deletes} deletes"
        )
        if args.show:
            for event in blackbox.epoch_events(table, args.epoch):
                print(f"  {event.kind:<7} row {event.row} {event.values or ''}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbsynth",
        description="DBSynth/PDGF: synthesize realistic data from database models",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    extract = commands.add_parser("extract", help="build a model from a database")
    extract.add_argument("source", help="source SQLite database path")
    extract.add_argument("-o", "--output", required=True, help="project directory")
    extract.add_argument("--name", default="dbsynth_model")
    extract.add_argument("--no-sample", action="store_true")
    extract.add_argument("--no-profile", action="store_true")
    extract.add_argument("--sample-fraction", type=float, default=0.01)
    extract.add_argument(
        "--strategy", choices=("bernoulli", "first", "systematic"), default="bernoulli"
    )
    extract.add_argument("-v", "--verbose", action="store_true")
    _add_telemetry_args(extract)
    extract.set_defaults(func=_cmd_extract)

    preview = commands.add_parser("preview", help="show generated sample rows")
    _add_model_args(preview)
    preview.add_argument("--table")
    preview.add_argument("-n", "--rows", type=int, default=10)
    preview.set_defaults(func=_cmd_preview)

    gen = commands.add_parser("generate", help="generate a data set")
    _add_model_args(gen)
    gen.add_argument(
        "--kind", choices=("file", "null", "sqlite"), default="file"
    )
    gen.add_argument(
        "--format",
        choices=_KnownFormats(),
        metavar="FORMAT",
        help="output format: %(choices)s (default: sql for --kind sqlite, "
        "else csv); arrow/parquet need the optional pyarrow extra",
    )
    gen.add_argument("-d", "--directory", default=".")
    gen.add_argument("--database", help="target database for --kind sqlite")
    gen.add_argument("--delimiter", default="|")
    gen.add_argument("--header", action="store_true")
    gen.add_argument(
        "-w", "--workers", type=int, default=1, metavar="N",
        help="generate on N worker processes (default 1: inline, no pool)",
    )
    # Residue: --nodes N means -w N, and --distributed is ignored; frozen
    # bench/workloads.py (tpch_cluster) passes both — they go with ROADMAP 1(a).
    gen.add_argument("--nodes", type=int, default=1, help=argparse.SUPPRESS)
    gen.add_argument("--distributed", action="store_true", help=argparse.SUPPRESS)
    gen.add_argument(
        "--checkpoint",
        metavar="DIR",
        help="journal each output file's durable watermark to "
        "DIR/manifest.jsonl so an interrupted run can be resumed",
    )
    gen.add_argument(
        "--resume",
        action="store_true",
        help="resume from the --checkpoint manifest, on any runtime: skip "
        "what it vouches for and regenerate only the rest (byte-identical)",
    )
    gen.add_argument("-q", "--quiet", action="store_true")
    _add_telemetry_args(gen)
    gen.set_defaults(func=_cmd_generate)

    serve = commands.add_parser(
        "serve", help="serve deterministic table slices over HTTP"
    )
    _add_model_args(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8642,
        help="listen port (0 binds an ephemeral port; default 8642)",
    )
    serve.add_argument(
        "-w", "--workers", type=int, default=4,
        help="generation executor threads (default 4)",
    )
    serve.add_argument(
        "--package-size", type=int, default=10_000,
        help="work-package rows per streamed chunk; fixes binary-format "
        "framing (default 10000, same as generate)",
    )
    serve.set_defaults(func=_cmd_serve)

    translate = commands.add_parser("translate", help="print target DDL")
    _add_model_args(translate)
    translate.add_argument(
        "--dialect", choices=("ansi", "sqlite", "postgres", "mysql"), default="sqlite"
    )
    translate.set_defaults(func=_cmd_translate)

    verify = commands.add_parser("verify", help="compare source vs synthetic data")
    verify.add_argument("--model", required=True)
    verify.add_argument("--source", required=True)
    verify.add_argument("--target", required=True)
    verify.set_defaults(func=_cmd_verify)

    workload = commands.add_parser(
        "workload",
        help="synthesize, dump, or replay a deterministic query workload",
    )
    _add_model_args(workload)
    workload.add_argument("--database",
                          help="target SQLite database to query")
    workload.add_argument(
        "--queries", type=int, default=50, metavar="N",
        help="scheduled queries in a synthesized stream (default 50)",
    )
    workload.add_argument(
        "--arrival", choices=("steady", "poisson", "diurnal"), default="steady",
        help="arrival process of the stream's seed-derived timestamps",
    )
    workload.add_argument(
        "--rate", type=float, default=10.0,
        help="mean arrival rate, queries per second of workload time",
    )
    workload.add_argument(
        "--period", type=float, default=60.0,
        help="diurnal cycle length in seconds (diurnal arrivals only)",
    )
    workload.add_argument(
        "--amplitude", type=float, default=0.8,
        help="diurnal rate swing in [0, 1) (diurnal arrivals only)",
    )
    workload.add_argument(
        "--repetition", type=float, default=0.3, metavar="F",
        help="fraction of the stream drawn from the repeated query pool",
    )
    workload.add_argument(
        "--dump", metavar="FILE",
        help="write the scheduled stream as JSONL "
        "({ts, template, index, sql}; '-' for stdout)",
    )
    workload.add_argument(
        "--replay", action="store_true",
        help="execute the stream against --database, honoring arrival "
        "timestamps; exit code reflects failures and checks whose result "
        "differs from the model's exact answer (graded before the stream)",
    )
    workload.add_argument(
        "--stream", metavar="FILE",
        help="replay a previously dumped JSONL stream instead of "
        "synthesizing one",
    )
    workload.add_argument(
        "--max-speedup", type=float, default=1.0, metavar="S",
        help="compress workload time by this factor during replay "
        "(1 = real time, 0 = as fast as the database answers)",
    )
    workload.add_argument(
        "--cdc-epochs", type=int, default=0, metavar="N",
        help="weave N update-black-box epochs into the replay at evenly "
        "spaced stream boundaries (queries run against changing data)",
    )
    _add_telemetry_args(workload)
    workload.set_defaults(func=_cmd_workload)

    stats = commands.add_parser(
        "stats", help="summarize a trace log or a model's generators"
    )
    _add_model_args(stats)
    stats.add_argument(
        "--trace", dest="trace_file", metavar="FILE",
        help="span JSONL log to summarize (from generate/extract --trace; "
        ".gz and interrupted logs are read fine)",
    )
    stats.add_argument(
        "--tree", action="store_true",
        help="render the trace as one stitched span tree instead of "
        "aggregate rows (worker spans included)",
    )
    stats.add_argument("--table", help="restrict to one table")
    stats.set_defaults(func=_cmd_stats)

    update = commands.add_parser("update", help="inspect update epochs")
    _add_model_args(update)
    update.add_argument("--table")
    update.add_argument("--epoch", type=int, default=1)
    update.add_argument("--show", action="store_true", help="print every event")
    update.set_defaults(func=_cmd_update)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
