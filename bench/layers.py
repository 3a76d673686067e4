"""The per-layer pass (``--trace 1``): where the time goes, layer by layer.

Layers are the package names under ``src/repro/``. Everything here is
measured from the benchmark's side by timing public calls — nothing in
``src/`` is instrumented. The pass has two parts:

* the **pipeline**: the workload's model is re-driven in-process one work
  package at a time — ``generate_columns`` → ``write_block`` → ``encode``
  → ``FileSink.write`` — under spans, once with tracing and once
  without; the spans' self times are the additive breakdown (the paper's
  Figure 7 method) and the difference of the two passes is the tracing
  overhead;
* the **probes**: one public call per layer timed on its own (PRNG
  kernels, every registered generator class, formatters, sinks, the
  scheduler backends, the HTTP server, the DBSynth project steps, CLI
  cold start, the program's own telemetry).

The probes that need a model use the workload's own, so the same table
is measured for each workload's inputs; the probes that need none
(``prng.*``, ``generators.*``, ``core.*``, ``text.*``, ``cli.*``) read
the same in every workload's pass.
"""

from __future__ import annotations

import os
import time

import check
import models
import stats
import workloads
from program import ServerProcess, run_dbsynth
from spans import NullTracer, Tracer, self_times

MIB = workloads.MIB
#: leaf spans of one package, in pipeline order
PIPELINE_SPANS = ("generate", "to_rows", "format", "encode", "sink", "package")
FORMAT_PROBE_BLOCKS = 2
ROWS1_PROBES = 50
ROWS4096_PROBES = 8


def _timed(call, repeats: int = 3) -> float:
    """Median seconds of *call* over *repeats* runs."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return stats.median(samples)


# -- the pipeline ------------------------------------------------------------


def pipeline_pass(dataset, fmt: str, package_size: int, directory: str, tracer):
    """Drive every package of the model through the layers, one public
    call each, mirroring what ``format_package`` and the scheduler do for
    a file run. Returns ``(wall_s, values, object_values, bytes)``."""
    from repro import OutputConfig
    from repro.columnar import ObjectColumn
    from repro.output.sinks import FileSink
    from repro.scheduler import partition_rows

    engine = dataset.engine
    output = OutputConfig(kind="file", format=fmt, directory=directory)
    values = object_values = written = 0
    started = time.perf_counter()
    with tracer.span("pass"):
        for table, size in dataset.tables.items():
            bound = engine.bound_table(table)
            sink = FileSink(output.table_path(table), binary=True)
            for package in partition_rows(table, size, package_size):
                with tracer.span("package"):
                    writer = output.new_writer(table, bound.column_names)
                    ctx = engine.new_context(table)
                    with tracer.span("generate"):
                        block = bound.generate_columns(
                            package.start, package.stop, ctx
                        )
                    if output.use_columnar(writer):
                        with tracer.span("format"):
                            chunk = writer.write_block(
                                block, first=package.sequence == 0
                            )
                    else:
                        with tracer.span("to_rows"):
                            rows = block.to_rows()
                        with tracer.span("format"):
                            chunk = writer.write_rows(rows)
                    with tracer.span("encode"):
                        data = chunk.encode("utf-8")
                    with tracer.span("sink"):
                        sink.write(data)
                for column in block.columns:
                    values += block.count
                    if isinstance(column, ObjectColumn):
                        object_values += block.count
                written += len(data)
            with tracer.span("sink"):
                sink.close()
    return time.perf_counter() - started, values, object_values, written


def measure_pipeline(
    model, fmt, package_size, work_dir, tracer, checks
) -> tuple[dict, float]:
    """The pipeline metrics, and the wall-clock of ``Scheduler.run`` on the
    same packages (the baseline of the checkpoint probe)."""
    from repro import OutputConfig, Scheduler

    dataset = model.dataset(package_size)
    untraced_dir = os.path.join(work_dir, "pipeline-untraced")
    traced_dir = os.path.join(work_dir, "pipeline-traced")
    scheduler_dir = os.path.join(work_dir, "scheduler-thread1")

    # one untimed pass lets lazy set-up finish (formatter and date caches,
    # first-use imports); then untraced-traced-traced-untraced, so a
    # drift over the four passes weighs on both kinds alike
    pipeline_pass(dataset, fmt, package_size, untraced_dir, NullTracer())
    untraced, traced = [], []
    for with_tracing in (False, True, True, False):
        first_span = len(tracer.spans)
        wall, values, object_values, written = pipeline_pass(
            dataset, fmt, package_size,
            traced_dir if with_tracing else untraced_dir,
            tracer if with_tracing else NullTracer(),
        )
        if with_tracing:
            traced.append(wall)
            traced_wall, own = wall, self_times(tracer.spans[first_span:])
        else:
            untraced.append(wall)

    started = time.perf_counter()
    Scheduler(
        dataset.engine,
        OutputConfig(kind="file", format=fmt, directory=scheduler_dir),
        workers=1, package_size=package_size,
    ).run()
    scheduler_wall = time.perf_counter() - started
    check.check_same_digests(
        checks, "pipeline pass vs Scheduler.run",
        check.file_digests(scheduler_dir), check.file_digests(traced_dir),
    )

    inline = sum(own.get(name, 0.0) for name in PIPELINE_SPANS)
    metrics = {
        f"pipeline.{name}.share": own.get(name, 0.0) / traced_wall
        for name in PIPELINE_SPANS
    }
    metrics.update({
        "pipeline.mb_per_s": written / MIB / stats.median(untraced),
        "engine.generate_columns.ns_per_value": own["generate"] * 1e9 / values,
        "engine.object_value_share": object_values / values,
        "scheduler.thread1.overhead_share": 1.0 - inline / scheduler_wall,
        "bench.tracing.overhead_share":
            stats.median(traced) / stats.median(untraced) - 1.0,
    })
    return metrics, scheduler_wall


# -- prng / generators -------------------------------------------------------


def measure_prng(rows: int) -> dict:
    """The PRNG block kernels on one block of *rows* — the block size of
    the generator probes, so that the rows subtract from them (a block
    ten times larger falls out of cache and costs three times as much
    per value)."""
    from repro.prng import blocks
    from repro.prng.seeding import ColumnSeeder, SeedHierarchy

    seeder = ColumnSeeder(SeedHierarchy(42), "t", "f")
    hashes = blocks.row_hash_block(0, rows)
    seed_block = seeder.seed_block_from_hashes(hashes)

    def draw() -> None:
        states = blocks.column_states(seed_block)
        _, outputs = blocks.xorshift_step(states)
        blocks.to_doubles(outputs)

    def ns_per_item(call) -> float:
        calls = 20
        return _timed(lambda: [call() for _ in range(calls)], 5) * 1e9 / (calls * rows)

    return {
        "prng.row_hash.ns_per_row":
            ns_per_item(lambda: blocks.row_hash_block(0, rows)),
        "prng.seed_block.ns_per_value":
            ns_per_item(lambda: seeder.seed_block_from_hashes(hashes)),
        "prng.draw.ns_per_value": ns_per_item(draw),
    }


def generator_specs():
    """One representative spec per registered generator class:
    ``{class name: (column type, spec, needs sibling column k)}``. Meta
    generators wrap ``LongGenerator`` children; the Markov chain is
    trained on the built-in comment corpus."""
    from repro import GeneratorSpec as G

    long_spec = G("LongGenerator", {"min": 1, "max": 10_000_000})
    plain = {
        name: ("VARCHAR(80)", G(name), False)
        for name in (
            "AddressGenerator", "CityGenerator", "CompanyNameGenerator",
            "CountryGenerator", "EmailGenerator", "PersonNameGenerator",
            "PhoneGenerator", "TextGenerator", "UrlGenerator",
        )
    }
    return {
        **plain,
        "BooleanGenerator": ("BOOLEAN", G("BooleanGenerator"), False),
        "DateGenerator": ("DATE", G("DateGenerator"), False),
        "TimestampGenerator": ("TIMESTAMP", G("TimestampGenerator"), False),
        "DoubleGenerator": ("DECIMAL(12,2)", G(
            "DoubleGenerator", {"min": 0.0, "max": 1000.0, "places": 2}
        ), False),
        "IdGenerator": ("BIGINT", G("IdGenerator"), False),
        "IntGenerator": ("INTEGER", G("IntGenerator", {"min": 1, "max": 50}), False),
        "LongGenerator": ("BIGINT", long_spec, False),
        "DictListGenerator": ("VARCHAR(10)", G("DictListGenerator", {
            "values": ["alpha", "beta", "gamma", "delta", "epsilon"],
            "weights": [5, 4, 3, 2, 1],
        }), False),
        "HistogramGenerator": ("DOUBLE", G("HistogramGenerator", {
            "bounds": [0, 10, 50, 100], "weights": [5, 3, 1],
        }), False),
        "PatternStringGenerator": ("VARCHAR(20)", G(
            "PatternStringGenerator", {"pattern": "##-###-@@@-^^^^"}
        ), False),
        "RandomStringGenerator": ("VARCHAR(20)", G(
            "RandomStringGenerator", {"min": 10, "max": 20}
        ), False),
        "StaticValueGenerator": ("VARCHAR(8)", G(
            "StaticValueGenerator", {"constant": "x"}
        ), False),
        "RowFormulaGenerator": ("BIGINT", G(
            "RowFormulaGenerator", {"formula": "row // 4 + 1"}
        ), False),
        "MarkovChainGenerator": ("VARCHAR(120)", G(
            "MarkovChainGenerator", {"model": "markov:probe", "min": 3, "max": 12}
        ), False),
        "DefaultReferenceGenerator": ("BIGINT", G(
            "DefaultReferenceGenerator", {"table": "parent", "field": "id"}
        ), False),
        "NullGenerator": ("BIGINT", G(
            "NullGenerator", {"probability": 0.2}, [long_spec]
        ), False),
        "ProbabilityGenerator": ("BIGINT", G(
            "ProbabilityGenerator", {"weights": [3, 1]}, [long_spec, long_spec]
        ), False),
        "SequentialGenerator": ("VARCHAR(40)", G(
            "SequentialGenerator", {"separator": "-"}, [long_spec, long_spec]
        ), False),
        "SwitchGenerator": ("BIGINT", G(
            "SwitchGenerator", {"field": "k", "cases": [1, 2]},
            [long_spec, long_spec, long_spec],
        ), True),
        "FormulaGenerator": ("DOUBLE", G(
            "FormulaGenerator", {"formula": "[k] * 2.5"}
        ), True),
    }


def measure_generators(rows: int, prng: dict) -> dict:
    """ns per value of each generator class through
    ``BoundTable.generate_columns`` on a single-column table, minus the
    PRNG rows — Figure 7's additive method. The two classes that read a
    sibling column are measured on ``[k, f]`` minus ``[k]``."""
    from repro import ArtifactStore, Field, GeneratorSpec, GenerationEngine, Schema, Table
    from repro.prng.xorshift import XorShift64Star
    from repro.text import corpus, train_chain

    artifacts = ArtifactStore()
    artifacts.put("markov:probe", train_chain(
        corpus.comment_sentences(XorShift64Star(7), count=400)
    ))
    sibling = Field.of("k", "INTEGER", GeneratorSpec("IntGenerator", {"min": 1, "max": 3}))

    def table_ns_per_row(fields) -> float:
        schema = Schema("probe", seed=23)
        schema.add_table(Table("parent", str(rows), [
            Field.of("id", "BIGINT", GeneratorSpec("IdGenerator"), primary=True)
        ]))
        schema.add_table(Table("t", str(rows), fields))
        engine = GenerationEngine(schema, artifacts)
        bound = engine.bound_table("t")
        return _timed(
            lambda: bound.generate_columns(0, rows, engine.new_context("t"))
        ) * 1e9 / rows

    sibling_only = table_ns_per_row([sibling])
    metrics = {}
    for name, (type_text, spec, needs_sibling) in generator_specs().items():
        field = Field.of("f", type_text, spec)
        if needs_sibling:
            cost = table_ns_per_row([sibling, field]) - sibling_only
        else:
            cost = table_ns_per_row([field]) - prng["prng.row_hash.ns_per_row"]
        metrics[f"generators.{name}.ns_per_value"] = (
            cost - prng["prng.seed_block.ns_per_value"]
        )
    return metrics


# -- engine / columnar / output ----------------------------------------------


def measure_output(model, package_size: int, work_dir: str) -> dict:
    from repro import GenerationEngine, OutputConfig
    from repro.output.sinks import FileSink, NullSink, OrderedSinkMux
    from repro.scheduler import partition_rows

    dataset = model.dataset(package_size)
    engine = dataset.engine
    table = max(dataset.tables, key=dataset.tables.get)
    packages = partition_rows(table, dataset.tables[table], package_size)
    blocks = [
        engine.generate_columns(table, package.start, package.stop)
        for package in packages[:FORMAT_PROBE_BLOCKS]
    ]
    values = sum(block.count * len(block.columns) for block in blocks)
    columns = dataset.columns(table)

    def format_mb_per_s(fmt: str, rows_path: bool = False) -> float:
        writer = OutputConfig(format=fmt).new_writer(table, columns)
        inputs = [block.to_rows() for block in blocks] if rows_path else blocks
        write = writer.write_rows if rows_path else writer.write_block
        sizes = []
        seconds = _timed(lambda: sizes.append(
            sum(len(write(item).encode("utf-8")) for item in inputs)
        ))
        return sizes[0] / MIB / seconds

    writer = OutputConfig(format="csv").new_writer(table, columns)
    chunks = [writer.write_block(block) for block in blocks]
    chunk_bytes = sum(len(chunk.encode("utf-8")) for chunk in chunks)
    sink_path = os.path.join(work_dir, "file-sink-probe.tbl")

    def file_sink() -> None:
        sink = FileSink(sink_path)
        for chunk in chunks:
            sink.write(chunk)
        sink.close()

    def mux() -> None:
        ordered = OrderedSinkMux(NullSink(), table)
        for sequence, chunk in enumerate(chunks):
            ordered.submit(sequence, chunk)
        ordered.finish()

    return {
        "engine.bind_s": _timed(
            lambda: GenerationEngine(engine.schema, engine.artifacts)
        ),
        "columnar.to_rows.ns_per_value": _timed(
            lambda: [block.to_rows() for block in blocks]
        ) * 1e9 / values,
        "output.format_csv.mb_per_s": format_mb_per_s("csv"),
        "output.format_json.mb_per_s": format_mb_per_s("json"),
        "output.format_sql.mb_per_s": format_mb_per_s("sql"),
        "output.format_csv_rows.mb_per_s": format_mb_per_s("csv", rows_path=True),
        "output.encode.mb_per_s": chunk_bytes / MIB / _timed(
            lambda: [chunk.encode("utf-8") for chunk in chunks]
        ),
        "output.file_sink.mb_per_s": chunk_bytes / MIB / _timed(file_sink),
        "output.mux.us_per_package": _timed(mux) * 1e6 / len(chunks),
    }


# -- scheduler / resilience ---------------------------------------------------


def measure_schedulers(
    model, fmt: str, package_size: int, work_dir: str, thread1_file_wall: float
) -> dict:
    from repro import ClusterScheduler, OutputConfig, generate

    dataset = model.dataset(package_size)
    engine = dataset.engine
    null = OutputConfig(kind="null", format=fmt)

    def wall(call) -> tuple[float, object]:
        started = time.perf_counter()
        report = call()
        return time.perf_counter() - started, report

    thread1, _ = wall(lambda: generate(
        engine, null, workers=1, package_size=package_size
    ))
    process2, report = wall(lambda: generate(
        engine, null, workers=2, backend="process", package_size=package_size
    ))

    def cluster(output):
        return ClusterScheduler(
            engine.schema, engine.artifacts, output=output,
            package_size=package_size,
        ).run(2)

    cluster_null, cluster_report = wall(lambda: cluster(null))
    cluster_file, _ = wall(lambda: cluster(OutputConfig(
        kind="file", format=fmt,
        directory=os.path.join(work_dir, "cluster2-file"),
    )))
    checkpointed, _ = wall(lambda: generate(
        engine,
        OutputConfig(
            kind="file", format=fmt,
            directory=os.path.join(work_dir, "checkpointed"),
        ),
        workers=1, package_size=package_size,
        checkpoint=os.path.join(work_dir, "checkpoint"),
    ))
    return {
        "scheduler.process2.mb_per_s": report.bytes_written / MIB / process2,
        "scheduler.process2.speedup": thread1 / process2,
        "scheduler.cluster2.speedup": thread1 / cluster_null,
        "scheduler.cluster2.file_minus_null_s": cluster_file - cluster_null,
        "scheduler.cluster2.steals": float(cluster_report.steals),
        "resilience.checkpoint.overhead_share":
            checkpointed / thread1_file_wall - 1.0,
    }


# -- serve / api ---------------------------------------------------------------


def measure_serve(model, sizes: models.Sizes, seed: int, work_dir: str, checks) -> dict:
    from repro import clear_engine_cache, engine_cache_info

    dataset = model.dataset(workloads.SERVE_PACKAGE_SIZE)
    server = ServerProcess(
        model.cli_args, os.path.join(work_dir, "serve-probe.log"),
        workers=workloads.CONNECTIONS,
        package_size=workloads.SERVE_PACKAGE_SIZE,
    ).start()
    try:
        host, port = server.host, server.port
        table_sizes = workloads.table_sizes(host, port)
        tables = tuple(
            sorted(table_sizes, key=table_sizes.get, reverse=True)[:3]
        )
        mixed = workloads.build_requests(
            table_sizes, seed, sizes.serve_requests, tables
        )
        rows1 = workloads.build_requests(
            table_sizes, seed, ROWS1_PROBES, tables, lengths=(1,), weights=(1,)
        )
        rows4096 = workloads.build_requests(
            table_sizes, seed, ROWS4096_PROBES, tables, lengths=(4096,), weights=(1,)
        )
        workloads.drive(host, port, workloads.build_requests(
            table_sizes, seed, workloads.WARMUP_REQUESTS, tables
        ))
        closed = workloads.drive(host, port, mixed)
        single1 = workloads.drive(host, port, rows1, connections=1)
        single4096 = workloads.drive(host, port, rows4096, connections=1)
        open_list = mixed[:sizes.open_loop_requests]
        opened = workloads.drive(host, port, open_list, rate=50.0)
    finally:
        server.stop()

    expected_mixed = check.reference_digests(dataset, mixed)
    for requests, expected, result in (
        (mixed, expected_mixed, closed),
        (open_list, expected_mixed[:len(open_list)], opened),
        (rows1, check.reference_digests(dataset, rows1), single1),
        (rows4096, check.reference_digests(dataset, rows4096), single4096),
    ):
        check.check_served_bodies(checks, requests, expected, result.digests)

    def slice_seconds(requests) -> list[float]:
        samples = []
        for request in requests:
            started = time.perf_counter()
            dataset.slice(
                request.table, request.start, request.stop, format=request.fmt
            )
            samples.append(time.perf_counter() - started)
        return samples

    in_process_rows1 = stats.median(slice_seconds(rows1))
    streamed = [0]

    def stream_all() -> None:
        streamed[0] = sum(
            len(b"".join(dataset.stream(
                request.table, request.start, request.stop, format="csv"
            )))
            for request in rows4096
        )

    stream_seconds = _timed(stream_all, 1)

    clear_engine_cache()
    for _ in range(5):
        model.dataset(workloads.SERVE_PACKAGE_SIZE)
    cache = engine_cache_info()

    rows1_p50 = stats.median(single1.latencies_s)
    return {
        "serve.ready_s": server.ready_s,
        "serve.rows1.p50_ms": rows1_p50 * 1e3,
        "serve.rows4096.p50_ms": stats.median(single4096.latencies_s) * 1e3,
        "serve.overhead_ms": (rows1_p50 - in_process_rows1) * 1e3,
        "serve.connections_opened": float(closed.connects),
        "serve.closed2.rps": len(mixed) / closed.wall_s,
        "serve.closed2.p50_ms": stats.median(closed.latencies_s) * 1e3,
        "serve.closed2.p95_ms": stats.percentile(closed.latencies_s, 95) * 1e3,
        "serve.open50.p50_ms": stats.median(opened.latencies_s) * 1e3,
        "serve.open50.p95_ms": stats.percentile(opened.latencies_s, 95) * 1e3,
        "serve.open50.late_p95_ms": stats.percentile(opened.late_s, 95) * 1e3,
        "api.slice_rows1.us": in_process_rows1 * 1e6,
        "api.stream_rows4096.mb_per_s": streamed[0] / MIB / stream_seconds,
        "api.engine_cache.hit_share":
            cache["hits"] / (cache["hits"] + cache["misses"]),
    }


# -- core / text / config / cli / obs -------------------------------------------


def measure_project(source: str, project_dir: str, seed: int) -> dict:
    """The DBSynth project steps on the IMDb-like source, one at a time;
    leaves the saved project in *project_dir*."""
    from repro.core import DBSynthProject, SampleConfig
    from repro.core.model_builder import BuildOptions
    from repro.db import SQLiteAdapter
    from repro.prng.xorshift import XorShift64Star
    from repro.text import corpus, train_chain

    adapter = SQLiteAdapter(source)
    try:
        project = DBSynthProject(
            name="imdb", source=adapter, build_options=BuildOptions(
                sample_config=SampleConfig(strategy="systematic")
            ),
        )
        metrics = {
            "core.extract_schema.s": _timed(project.extract, 1),
            "core.profile.s": _timed(project.profile, 1),
            "core.build_model.s": _timed(project.build_model, 1),
            "core.save.s": _timed(lambda: project.save(project_dir), 1),
        }
    finally:
        adapter.close()
    texts = corpus.comment_sentences(XorShift64Star(seed), count=2000)
    metrics["text.markov_train.us_per_text"] = (
        _timed(lambda: train_chain(texts)) * 1e6 / len(texts)
    )
    metrics["config.load_model.s"] = _timed(
        lambda: DBSynthProject.load_saved(project_dir)
    )
    return metrics


def measure_program(model, fmt: str, work_dir: str, checks) -> dict:
    """CLI cold start and the cost of the program's own telemetry
    (``--trace --metrics``), both as whole-command wall-clock."""
    log_path = os.path.join(work_dir, "program-probe.log")

    def command(args) -> float:
        result = run_dbsynth(args, log_path)
        checks.record(
            result.returncode == 0,
            f"dbsynth {' '.join(args)} exited {result.returncode}",
        )
        return result.wall_s

    cold = [command(["preview", "--suite", "tpch", "-n", "1"]) for _ in range(3)]
    # half the model: four whole commands are timed, and a fixed cost per
    # run (exporting the trace and metrics files) is part of what is asked
    half = model.at_scale(model.scale_factor / 2)
    generate = ["generate", *half.cli_args, "--format", fmt, "--kind", "null", "-q"]
    telemetry = [
        "--trace", os.path.join(work_dir, "program-trace.jsonl"),
        "--metrics", os.path.join(work_dir, "program-metrics.prom"),
    ]
    plain, observed = [], []
    for _ in range(2):
        plain.append(command(generate))
        observed.append(command(generate + telemetry))
    return {
        "cli.cold_start.s": stats.median(cold),
        "obs.program_telemetry.overhead_share":
            stats.median(observed) / stats.median(plain) - 1.0,
    }


# -- the pass ---------------------------------------------------------------------


def run(name: str, sizes: models.Sizes, seed: int, work_dir: str, trace_path: str):
    """The whole per-layer pass for workload *name*; returns
    ``(samples, checks, info)`` shaped like an end-to-end run."""
    checks = check.Checks()
    tracer = Tracer(name)
    source = os.path.join(work_dir, "imdb_source.db")
    project_dir = os.path.join(work_dir, "imdb_project")
    models.build_imdb_source(source, sizes, seed)
    metrics = measure_project(source, project_dir, seed)

    package_size = 10_000
    fmt = "csv"
    if name == "typed_files":
        model = models.write_typed_model(
            os.path.join(work_dir, "typed_model"), sizes.typed_rows
        )
    elif name == "imdb_roundtrip":
        model = models.Model(sizes.imdb_sf, directory=project_dir)
        fmt = "json"
    else:
        model = models.Model(sizes.tpch_sf, suite="tpch")
        if name == "serve_ranges":
            package_size = workloads.SERVE_PACKAGE_SIZE

    pipeline, thread1_file_wall = measure_pipeline(
        model, fmt, package_size, work_dir, tracer, checks
    )
    metrics.update(pipeline)
    prng = measure_prng(sizes.probe_rows)
    metrics.update(prng)
    metrics.update(measure_generators(sizes.probe_rows, prng))
    metrics.update(measure_output(model, package_size, work_dir))
    metrics.update(measure_schedulers(
        model, fmt, package_size, work_dir, thread1_file_wall
    ))
    metrics.update(measure_serve(model, sizes, seed, work_dir, checks))
    metrics.update(measure_program(model, fmt, work_dir, checks))

    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    tracer.write(trace_path)
    info = {"model": model.cli_args, "format": fmt, "package_size": package_size,
            "spans": len(tracer.spans), "trace": trace_path}
    return {key: [value] for key, value in metrics.items()}, checks, info
