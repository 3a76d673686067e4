"""Fault tolerance: checkpoint manifests, crash→resume, the one
recovery rule for dead executors, typed write failures.

The acceptance bar is byte-identity: for every (runtime, sink) pairing,
a run that crashes partway and is resumed from its checkpoint must leave
*exactly* the bytes an uninterrupted run produces. PDGF's determinism
makes that provable — generation is a pure function of the seed
hierarchy, so resume regenerates only the missing tail and nothing can
drift.
"""

from __future__ import annotations

import errno
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import GenerationEngine
from repro.exceptions import OutputError, SchedulingError
from repro.output.config import OutputConfig
from repro.output.formats import format_spec
from repro.output.sinks import MemorySink, OrderedSinkMux, Sink
from repro.resilience import (
    MANIFEST_NAME,
    CrashingSink,
    FaultInjectingOutput,
    FaultPlan,
    InjectedCrash,
    RunManifest,
    model_fingerprint,
)
from repro.scheduler import (
    ClusterScheduler,
    ProgressMonitor,
    Scheduler,
    generate,
    node_share,
    run_node,
)
from repro.scheduler.work import package_count
from tests.conftest import demo_schema

TABLES = ("customer", "orders")


def _engine(seed: int = 42) -> GenerationEngine:
    return GenerationEngine(demo_schema(seed=seed))


def _file_config(directory, fmt: str = "csv", header: bool = True) -> OutputConfig:
    return OutputConfig(
        kind="file", format=fmt, directory=str(directory), include_header=header
    )


def _read_tables(directory, fmt: str = "csv") -> dict[str, bytes]:
    ext = format_spec(fmt).extension
    return {
        t: (directory / f"{t}{ext}").read_bytes() for t in TABLES
    }


# -- manifest round-trip -----------------------------------------------------


class TestManifest:
    def test_checkpoint_round_trip(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        engine = _engine()
        output = OutputConfig(kind="memory")
        fingerprint = model_fingerprint(engine, output, 25, list(TABLES))
        report = Scheduler(
            engine, output, package_size=25, checkpoint=directory
        ).run()
        manifest = RunManifest.load(directory)
        assert manifest.fingerprint == fingerprint
        assert manifest.completed
        assert set(manifest.done) == set(TABLES)
        # one watermark per output file, the latest record of it
        assert set(manifest.parts) == {"customer.tbl", "orders.tbl"}
        orders = manifest.parts["orders.tbl"]
        assert (orders.table, orders.start, orders.stop) == ("orders", 0, 180)
        # 180 rows / 25-row packages
        assert package_count(orders.start, orders.stop, 25) == 8
        assert manifest.done["orders"] == (180, orders.bytes)  # no footer in csv
        assert report.resumed_packages == 0

    def test_manifest_tolerates_torn_final_line(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        Scheduler(
            _engine(), OutputConfig(kind="memory"), package_size=25,
            checkpoint=directory,
        ).run()
        path = os.path.join(directory, MANIFEST_NAME)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "part", "table": "orde')  # torn write
        manifest = RunManifest.load(directory)  # must not raise
        assert "orders" in manifest.done

    def test_load_missing_manifest_refused(self, tmp_path):
        with pytest.raises(SchedulingError, match="nothing to resume"):
            RunManifest.load(str(tmp_path / "absent"))

    def test_fingerprint_sensitivity(self):
        output = OutputConfig(kind="memory")
        base = model_fingerprint(_engine(), output, 25, list(TABLES))
        assert base == model_fingerprint(_engine(), output, 25, list(TABLES))
        assert base != model_fingerprint(_engine(seed=43), output, 25, list(TABLES))
        assert base != model_fingerprint(_engine(), output, 50, list(TABLES))
        tabbed = OutputConfig(kind="memory", delimiter="\t")
        assert base != model_fingerprint(_engine(), tabbed, 25, list(TABLES))
        # The worker count never affects bytes — not fingerprinted.

    def test_resume_with_changed_model_refused(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        out_dir = tmp_path / "out"
        Scheduler(
            _engine(), _file_config(out_dir), package_size=25,
            checkpoint=directory,
        ).run()
        with pytest.raises(SchedulingError, match="refusing to resume"):
            Scheduler(
                _engine(seed=99), _file_config(out_dir), package_size=25,
                resume_from=directory,
            ).run()

    def test_resume_with_changed_package_size_refused(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        out_dir = tmp_path / "out"
        Scheduler(
            _engine(), _file_config(out_dir), package_size=25,
            checkpoint=directory,
        ).run()
        with pytest.raises(SchedulingError, match="refusing to resume"):
            Scheduler(
                _engine(), _file_config(out_dir), package_size=30,
                resume_from=directory,
            ).run()


# -- crash → resume byte-identity --------------------------------------------


def _crash_then_resume(tmp_path, *, fmt, workers, crash_after):
    """Crash a run partway, resume it, and return ``(reference bytes,
    resumed bytes, report, progress monitor of the resumed leg)``."""
    ref_dir = tmp_path / "ref"
    Scheduler(
        _engine(), _file_config(ref_dir, fmt), package_size=25,
    ).run()

    crash_dir = tmp_path / "crash"
    ckpt = str(tmp_path / "ckpt")
    faulty = FaultInjectingOutput(
        _file_config(crash_dir, fmt), crash_after_writes=crash_after
    )
    with pytest.raises(InjectedCrash):
        Scheduler(
            _engine(), faulty, package_size=25, workers=workers,
            checkpoint=ckpt,
        ).run()

    progress = ProgressMonitor(240, {"customer": 60, "orders": 180})
    report = Scheduler(
        _engine(), _file_config(crash_dir, fmt), package_size=25,
        workers=workers, checkpoint=ckpt, resume_from=ckpt, progress=progress,
    ).run()
    return (
        _read_tables(ref_dir, fmt), _read_tables(crash_dir, fmt), report, progress
    )


class TestCrashResume:
    @pytest.mark.parametrize("fmt", ["csv", "json", "sql"])
    @pytest.mark.parametrize(
        "backend,workers", [("inline", 1), ("process", 2)],
        ids=["inline-1", "process-2"],
    )
    def test_resumed_run_is_byte_identical(self, tmp_path, fmt, backend, workers):
        reference, resumed, report, progress = _crash_then_resume(
            tmp_path, fmt=fmt, workers=workers, crash_after=4,
        )
        assert report.backend == backend
        assert resumed == reference
        assert report.resumed_packages > 0
        # The report still describes the complete data set, in bytes on
        # disk, and so does the progress line: a resumed run ends at 100%.
        assert report.rows == 240
        assert report.bytes_written == sum(map(len, resumed.values()))
        snapshot = progress.snapshot()
        assert snapshot.rows_done == snapshot.rows_total == 240
        assert snapshot.bytes_written == report.bytes_written

    def test_resume_skips_durable_packages(self, tmp_path):
        _, _, report, _ = _crash_then_resume(
            tmp_path, fmt="csv", workers=1, crash_after=4
        )
        # crash_after counts every sink write: 2 table headers at setup,
        # then 2 customer packages, before the 5th write raises.
        assert report.resumed_packages == 2

    def test_worker_kill_resume_process_backend(self, tmp_path):
        """An un-latched hard kill (os._exit) of whichever worker picks up
        one package is a crash loop: the run stops at the cap and resume
        completes it byte-identically."""
        ref_dir = tmp_path / "ref"
        Scheduler(_engine(), _file_config(ref_dir), package_size=25).run()

        crash_dir = tmp_path / "crash"
        ckpt = str(tmp_path / "ckpt")
        plan = FaultPlan(kill_at=("orders", 50))
        with pytest.raises(SchedulingError, match="refusing to respawn a crash loop"):
            Scheduler(
                _engine(), _file_config(crash_dir), package_size=25,
                workers=2, checkpoint=ckpt, faults=plan,
            ).run()

        Scheduler(
            _engine(), _file_config(crash_dir), package_size=25,
            workers=2, checkpoint=ckpt, resume_from=ckpt,
        ).run()
        assert _read_tables(crash_dir) == _read_tables(ref_dir)

    def test_resume_after_completed_run_is_noop(self, tmp_path):
        out_dir = tmp_path / "out"
        ckpt = str(tmp_path / "ckpt")
        first = Scheduler(
            _engine(), _file_config(out_dir), package_size=25, checkpoint=ckpt,
        ).run()
        before = _read_tables(out_dir)
        progress = ProgressMonitor(240)
        again = Scheduler(
            _engine(), _file_config(out_dir), package_size=25,
            checkpoint=ckpt, resume_from=ckpt, progress=progress,
        ).run()
        assert _read_tables(out_dir) == before
        assert again.rows == first.rows == progress.snapshot().rows_done
        assert again.bytes_written == first.bytes_written
        # Every package was durable; nothing regenerated.
        assert again.resumed_packages == 3 + 8  # 60/25 + 180/25 packages

    def test_checkpoint_under_four_workers_resumed_with_one(self, tmp_path):
        """The worker count is a scheduling choice, not a model input: a
        4-process checkpoint resumes inline (the header's ``backend`` is
        a label nothing reads back)."""
        ref_dir = tmp_path / "ref"
        Scheduler(_engine(), _file_config(ref_dir), package_size=25).run()

        crash_dir = tmp_path / "crash"
        ckpt = str(tmp_path / "ckpt")
        faulty = FaultInjectingOutput(
            _file_config(crash_dir), crash_after_writes=5
        )
        with pytest.raises(InjectedCrash):
            Scheduler(
                _engine(), faulty, package_size=25, workers=4,
                checkpoint=ckpt,
            ).run()
        with open(os.path.join(ckpt, MANIFEST_NAME), encoding="utf-8") as handle:
            assert json.loads(handle.readline())["backend"] == "process"
        report = Scheduler(
            _engine(), _file_config(crash_dir), package_size=25,
            workers=1, checkpoint=ckpt, resume_from=ckpt,
        ).run()
        assert report.resumed_packages > 0
        assert _read_tables(crash_dir) == _read_tables(ref_dir)

    def test_truncated_output_file_refused(self, tmp_path):
        crash_dir = tmp_path / "crash"
        ckpt = str(tmp_path / "ckpt")
        faulty = FaultInjectingOutput(
            _file_config(crash_dir), crash_after_writes=6
        )
        with pytest.raises(InjectedCrash):
            Scheduler(
                _engine(), faulty, package_size=25, checkpoint=ckpt,
            ).run()
        # Data loss after the crash: the file no longer backs the journal.
        victim = crash_dir / "customer.tbl"
        victim.write_bytes(victim.read_bytes()[:10])
        with pytest.raises(OutputError, match="journal outlived the data"):
            Scheduler(
                _engine(), _file_config(crash_dir), package_size=25,
                resume_from=ckpt,
            ).run()

    def test_sigint_mid_run_syncs_sinks_and_marks_manifest(self, tmp_path):
        out_dir = tmp_path / "out"
        ckpt = str(tmp_path / "ckpt")
        faulty = FaultInjectingOutput(
            _file_config(out_dir), crash_after_writes=4,
            crash_exception=KeyboardInterrupt,
        )
        with pytest.raises(KeyboardInterrupt):
            Scheduler(
                _engine(), faulty, package_size=25, checkpoint=ckpt,
            ).run()
        # The journaled watermarks (header included) survived the
        # interrupt on disk...
        manifest = RunManifest.load(ckpt)
        assert manifest.parts["customer.tbl"].stop == 50
        for file, part in manifest.parts.items():
            assert (out_dir / file).stat().st_size >= part.bytes
        # ...and the manifest records the interruption.
        lines = [
            json.loads(line)
            for line in open(os.path.join(ckpt, MANIFEST_NAME), encoding="utf-8")
        ]
        assert lines[-1]["type"] == "interrupted"
        assert lines[-1]["reason"] == "KeyboardInterrupt"
        # The run is still resumable afterwards.
        Scheduler(
            _engine(), _file_config(out_dir), package_size=25,
            resume_from=ckpt,
        ).run()
        ref_dir = tmp_path / "ref"
        Scheduler(_engine(), _file_config(ref_dir), package_size=25).run()
        assert _read_tables(out_dir) == _read_tables(ref_dir)

    def test_gzip_resume_refused(self, tmp_path):
        config = OutputConfig(kind="gzip", directory=str(tmp_path))
        with pytest.raises(OutputError, match="cannot resume gzip"):
            config.new_sink("customer", resume_at=100)


# -- watermark edge cases ------------------------------------------------------


def _crash(tmp_path, after: int, fmt: str = "csv", **scheduler) -> str:
    """Crash a checkpointed run into ``tmp_path/out`` after *after* sink
    writes (headers count); returns the checkpoint directory."""
    ckpt = str(tmp_path / "ckpt")
    faulty = FaultInjectingOutput(
        _file_config(tmp_path / "out", fmt), crash_after_writes=after
    )
    with pytest.raises(InjectedCrash):
        Scheduler(
            _engine(), faulty, package_size=25, checkpoint=ckpt, **scheduler
        ).run()
    return ckpt


def _resume(tmp_path, ckpt: str, fmt: str = "csv", **scheduler):
    return Scheduler(
        _engine(), _file_config(tmp_path / "out", fmt), package_size=25,
        checkpoint=ckpt, resume_from=ckpt, **scheduler,
    ).run()


def _reference(tmp_path, fmt: str = "csv") -> dict[str, bytes]:
    Scheduler(_engine(), _file_config(tmp_path / "ref", fmt), package_size=25).run()
    return _read_tables(tmp_path / "ref", fmt)


def _records(ckpt: str) -> list[dict]:
    with open(os.path.join(ckpt, MANIFEST_NAME), encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def _rewrite(ckpt: str, records: list[dict]) -> None:
    with open(os.path.join(ckpt, MANIFEST_NAME), "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(record) + "\n" for record in records)


class TestWatermarkEdgeCases:
    """The single-node resume rule — a watermark is a prefix of this
    run's rows ending on one of its package boundaries — at its edges."""

    def test_record_types_are_the_documented_set(self, tmp_path):
        ckpt = _crash(tmp_path, after=4)
        _resume(tmp_path, ckpt)
        assert {record["type"] for record in _records(ckpt)} == {
            "run", "resume", "part", "table_done", "run_done", "interrupted",
        }

    def test_crash_before_a_header_is_durable(self, tmp_path):
        # the one successful write is customer's header; orders never
        # got a watermark and starts from the top.
        ckpt = _crash(tmp_path, after=1)
        assert set(RunManifest.load(ckpt).parts) == {"customer.tbl"}
        report = _resume(tmp_path, ckpt)
        assert report.resumed_packages == 0
        assert _read_tables(tmp_path / "out") == _reference(tmp_path)

    @pytest.mark.parametrize("fmt", ["xml", "sql"])
    def test_crash_between_footer_and_run_done(self, tmp_path, fmt):
        # every byte is on disk but the journal lost its last two lines:
        # customer is table_done and is skipped; orders' watermark has no
        # table_done, so its footer is cut off and written again.
        ckpt = str(tmp_path / "ckpt")
        Scheduler(
            _engine(), _file_config(tmp_path / "out", fmt), package_size=25,
            checkpoint=ckpt,
        ).run()
        records = _records(ckpt)
        assert [r["type"] for r in records[-3:]] == [
            "table_done", "table_done", "run_done",
        ]
        assert records[-2]["table"] == "orders"
        _rewrite(ckpt, records[:-2])
        report = _resume(tmp_path, ckpt, fmt)
        assert report.resumed_packages == 3 + 8
        assert _read_tables(tmp_path / "out", fmt) == _reference(tmp_path, fmt)
        assert RunManifest.load(ckpt).completed

    def test_zero_row_table(self, tmp_path):
        engine = GenerationEngine(demo_schema(orders=0))
        ckpt = str(tmp_path / "ckpt")
        faulty = FaultInjectingOutput(
            _file_config(tmp_path / "out"), crash_after_writes=3
        )
        with pytest.raises(InjectedCrash):
            Scheduler(engine, faulty, package_size=25, checkpoint=ckpt).run()
        orders = RunManifest.load(ckpt).parts["orders.tbl"]
        assert (orders.start, orders.stop, orders.tail_bytes) == (0, 0, 0)
        assert orders.bytes > 0  # the header line is the whole watermark
        Scheduler(
            engine, _file_config(tmp_path / "out"), package_size=25,
            checkpoint=ckpt, resume_from=ckpt,
        ).run()
        Scheduler(engine, _file_config(tmp_path / "ref"), package_size=25).run()
        assert _read_tables(tmp_path / "out") == _read_tables(tmp_path / "ref")

    def test_run_node_share_that_does_not_start_at_row_zero(self, tmp_path):
        schema, base = demo_schema(), str(tmp_path / "ckpt")
        run_node(schema, 3, 1, _file_config(tmp_path / "ref"), package_size=25)
        # 2 headers, customer [20, 25) + [25, 40), orders [60, 75): the
        # share's packages end on the table's grid, not 25 rows past 60
        faulty = FaultInjectingOutput(
            _file_config(tmp_path / "out"), crash_after_writes=5
        )
        with pytest.raises(InjectedCrash):
            run_node(schema, 3, 1, faulty, package_size=25, checkpoint=base)
        # the share journals into its own node<i>/ directory
        orders = RunManifest.load(os.path.join(base, "node1")).parts["orders.tbl"]
        assert orders.start == node_share(180, 3, 1)[0] == 60
        assert orders.stop == 75
        report = run_node(
            schema, 3, 1, _file_config(tmp_path / "out"), package_size=25,
            checkpoint=base, resume_from=base,
        )
        assert report.resumed_packages == 2 + 1
        assert _read_tables(tmp_path / "out") == _read_tables(tmp_path / "ref")

    def test_torn_final_line(self, tmp_path):
        ckpt = _crash(tmp_path, after=5)
        with open(os.path.join(ckpt, MANIFEST_NAME), "a", encoding="utf-8") as handle:
            handle.write('{"type": "part", "file": "orders.tbl", "sto')
        report = _resume(tmp_path, ckpt)
        assert report.resumed_packages == 3
        assert _read_tables(tmp_path / "out") == _reference(tmp_path)

    def test_resume_packages_are_derived_from_the_watermark(self, tmp_path):
        """What the parquet sink resumes by (row groups, one per package)
        is the watermark's rows over the package size — no counter of its
        own in the journal."""
        ckpt = _crash(tmp_path, after=5)  # 2 headers + 3 customer packages
        seen = {}

        class Recording(FaultInjectingOutput):
            def new_sink(self, table, **resume):
                seen[table] = resume
                return super().new_sink(table, **resume)

        Scheduler(
            _engine(), Recording(_file_config(tmp_path / "out")),
            package_size=25, resume_from=ckpt,
        ).run()
        customer = RunManifest.load(ckpt).parts["customer.tbl"]
        assert (customer.stop, package_count(0, customer.stop, 25)) == (60, 3)
        assert seen["customer"] == {
            "resume_at": customer.bytes, "resume_packages": 3,
        }
        assert seen["orders"]["resume_packages"] == 0


class TestRefusedResume:
    """A manifest that does not hold is refused with a typed error
    before any sink opens: no output file is touched."""

    @staticmethod
    def _refused(tmp_path, ckpt, error, match):
        before = _read_tables(tmp_path / "out")
        with pytest.raises(error, match=match):
            _resume(tmp_path, ckpt)
        assert _read_tables(tmp_path / "out") == before

    def test_watermark_off_a_package_boundary(self, tmp_path):
        ckpt = _crash(tmp_path, after=5)
        records = _records(ckpt)
        last = max(i for i, r in enumerate(records) if r.get("file") == "customer.tbl")
        records[last]["stop"] -= 3
        _rewrite(ckpt, records)
        self._refused(tmp_path, ckpt, SchedulingError, "package boundary")

    def test_watermark_of_another_range(self, tmp_path):
        ckpt = _crash(tmp_path, after=5)
        records = _records(ckpt)
        for record in records:
            # a consistent range, just not this run's (start <= stop)
            if record.get("file") == "customer.tbl" and record["stop"] >= 25:
                record["start"] = 25
        _rewrite(ckpt, records)
        self._refused(tmp_path, ckpt, SchedulingError, "not a prefix")

    def test_version_1_manifest(self, tmp_path):
        ckpt = _crash(tmp_path, after=5)
        records = _records(ckpt)
        records[0]["version"] = 1
        _rewrite(ckpt, records)
        self._refused(tmp_path, ckpt, SchedulingError, "format version 1")

    def test_tail_that_is_not_the_journaled_chunk(self, tmp_path):
        # a hard kill can leave a file of the right length whose last
        # blocks never hit the disk: zero-fill the journaled tail in place.
        ckpt = _crash(tmp_path, after=5)
        customer = RunManifest.load(ckpt).parts["customer.tbl"]
        assert customer.tail_bytes > 0 and len(customer.sha256) == 64
        victim = tmp_path / "out" / "customer.tbl"
        data = bytearray(victim.read_bytes())
        data[customer.bytes - 40:customer.bytes] = bytes(40)
        victim.write_bytes(bytes(data))
        self._refused(tmp_path, ckpt, OutputError, "journal outlived the data")

    def test_short_file_of_a_finished_table(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        Scheduler(
            _engine(), _file_config(tmp_path / "out"), package_size=25,
            checkpoint=ckpt,
        ).run()
        victim = tmp_path / "out" / "orders.tbl"
        victim.write_bytes(victim.read_bytes()[:-1])
        self._refused(tmp_path, ckpt, OutputError, "journal outlived the data")

    def test_cluster_manifest_on_a_single_node(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        with pytest.raises(SchedulingError, match="executor deaths exceed"):
            ClusterScheduler(
                demo_schema(), output=_file_config(tmp_path / "out"),
                package_size=25, checkpoint=ckpt,
                faults=FaultPlan(kill_at=("orders", 25)),
            ).run(1)
        with pytest.raises(SchedulingError, match="another runtime"):
            _resume(tmp_path, ckpt)


# -- live recovery: a dead worker's packages are retried on a replacement ------


class TestLiveRetries:
    def test_worker_kill_recovered_in_single_run(self, tmp_path):
        ref_dir = tmp_path / "ref"
        Scheduler(_engine(), _file_config(ref_dir), package_size=25).run()

        kill_dir = tmp_path / "kill"
        plan = FaultPlan(kill_at=("orders", 75), latch_dir=str(tmp_path / "latch"))
        report = Scheduler(
            _engine(), _file_config(kill_dir), package_size=25,
            workers=2, faults=plan,
        ).run()
        assert report.worker_restarts == 1
        assert report.requeued_packages >= 1
        assert _read_tables(kill_dir) == _read_tables(ref_dir)


# -- mux resilience hooks ----------------------------------------------------


class TestMuxHooks:
    def test_first_sequence_offsets_ordering(self):
        sink = MemorySink()
        mux = OrderedSinkMux(sink, "t", first_sequence=2)
        mux.submit(3, "b")
        assert sink.getvalue() == ""
        mux.submit(2, "a")
        assert sink.getvalue() == "ab"
        mux.finish()

    def test_below_first_sequence_is_duplicate(self):
        mux = OrderedSinkMux(MemorySink(), "t", first_sequence=2)
        with pytest.raises(OutputError, match="duplicate"):
            mux.submit(1, "x")

    def test_on_flush_sees_ordered_chunks(self):
        seen = []
        mux = OrderedSinkMux(
            MemorySink(), "t", on_flush=lambda seq, chunk: seen.append(seq)
        )
        mux.submit(1, "b")
        mux.submit(0, "a")
        mux.submit(2, "c")
        mux.finish()
        assert seen == [0, 1, 2]

    def test_failed_write_is_attempted_once(self):
        """Only the sink knows whether its write is idempotent, so the
        mux never writes a chunk twice: the failure stops the table."""

        class FailsSecondWrite(Sink):
            def __init__(self):
                self.chunks = []

            def write(self, chunk):
                self.chunks.append(chunk)
                if len(self.chunks) == 2:
                    raise OutputError("cannot write 't': disk full")

        sink = FailsSecondWrite()
        mux = OrderedSinkMux(sink, "t")
        mux.submit(0, "c0")
        with pytest.raises(OutputError, match="disk full"):
            mux.submit(1, "c1")
        for later in (lambda: mux.submit(2, "c2"), mux.finish):
            with pytest.raises(OutputError, match="disk full"):
                later()
        assert sink.chunks == ["c0", "c1"]


# -- fault harness -----------------------------------------------------------


class TestFaultHarness:
    def test_crashing_sink_counts_across_tables(self, tmp_path):
        counter = [0]
        one = CrashingSink(MemorySink(), 3, counter)
        two = CrashingSink(MemorySink(), 3, counter)
        one.write("a")
        two.write("b")
        one.write("c")
        with pytest.raises(InjectedCrash):
            two.write("d")

    def test_fault_plan_fires_once_per_latch(self, tmp_path):
        plan = FaultPlan(kill_at=("t", 100), latch_dir=str(tmp_path / "latch"))
        assert plan.should_kill("t", 100) is True
        assert plan.should_kill("t", 100) is False  # latched
        assert plan.should_kill("t", 200) is False  # another package
        unlatched = FaultPlan(kill_at=("t", 100))
        assert unlatched.should_kill("t", 100) and unlatched.should_kill("t", 100)

    def test_fault_output_is_picklable(self, tmp_path):
        import pickle

        faulty = FaultInjectingOutput(_file_config(tmp_path), crash_after_writes=3)
        clone = pickle.loads(pickle.dumps(faulty))
        assert clone._crash_after == 3
        assert clone.format == "csv"

    def test_injected_crash_escapes_except_exception(self):
        with pytest.raises(InjectedCrash):
            try:
                raise InjectedCrash("boom")
            except Exception:  # pragma: no cover - must not catch
                pytest.fail("InjectedCrash must not be an Exception")


# -- generate() / cluster checkpoint plumbing ---------------------------------


class TestPlumbing:
    def test_generate_accepts_resilience_kwargs(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        out = OutputConfig(kind="memory")
        report = generate(
            GenerationEngine(demo_schema()), out, package_size=25,
            checkpoint=ckpt,
        )
        assert report.rows == 240
        assert RunManifest.load(ckpt).completed

    def test_cluster_checkpoint_is_one_parent_manifest(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        ClusterScheduler(
            demo_schema(), output=OutputConfig(kind="null"),
            package_size=25, checkpoint=ckpt,
        ).run(nodes=2)
        assert os.listdir(ckpt) == [MANIFEST_NAME]  # no node<i>/ journals
        manifest = RunManifest.load(ckpt)
        assert manifest.completed and set(manifest.done) == set(TABLES)
        assert sum(part.rows for part in manifest.parts.values()) == 240


# -- one recovery rule on every runtime ---------------------------------------


class TestOneRecoveryRule:
    """A dead executor is always recovered — replaced, its packages
    redone first — until more than ``max(2, N)`` have died;
    then both runtimes stop with one message and ``--resume`` finishes."""

    def test_crash_loop_stops_both_runtimes_alike_and_resume_finishes(
        self, tmp_path, monkeypatch
    ):
        from repro.scheduler import executor

        monkeypatch.setattr(executor, "POLL_SECONDS", 0.02)  # reap fast
        reference = _reference(tmp_path)
        crash_loop = FaultPlan(kill_at=("orders", 50))  # un-latched
        runtimes = {
            "pool": lambda output, **ckpt: Scheduler(
                _engine(), output, package_size=25, workers=3, **ckpt
            ).run(),
            "cluster": lambda output, **ckpt: ClusterScheduler(
                demo_schema(), output=output, package_size=25, **ckpt
            ).run(3),
        }
        messages = {}
        for name, run in runtimes.items():
            output, ckpt = _file_config(tmp_path / name), str(tmp_path / f"{name}.ckpt")
            with pytest.raises(SchedulingError) as aborted:
                run(output, checkpoint=ckpt, faults=crash_loop)
            messages[name] = str(aborted.value)
            assert _records(ckpt)[-1] == {
                "type": "interrupted", "reason": "SchedulingError",
            }
            run(output, checkpoint=ckpt, resume_from=ckpt)
            assert _read_tables(tmp_path / name) == reference
        # max(2, 3) deaths are recovered, the fourth stops the run
        assert messages["pool"] == messages["cluster"] == (
            "4 executor deaths exceed the limit of 3 (last exit code 137); "
            "refusing to respawn a crash loop"
        )


# -- a failed write is a typed error that --resume finishes --------------------


class _FullDiskHandle:
    """A file handle whose ``fail_at``-th write — counted in ``writes``
    across every table — raises ENOSPC, once: a disk that fills, then
    is freed."""

    def __init__(self, handle, writes: list[int], fail_at: int) -> None:
        self._handle, self._writes, self._fail_at = handle, writes, fail_at

    def write(self, text):
        self._writes[0] += 1
        if self._writes[0] == self._fail_at:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self._handle.write(text)

    def __getattr__(self, name):
        return getattr(self._handle, name)


def _full_disk(monkeypatch, fail_at: int) -> list[int]:
    """Route every file sink through a :class:`_FullDiskHandle`; returns
    the write counter. ``FileSink.write`` calls its handle once per call,
    so the counter is also the number of ``sink.write`` calls."""
    writes = [0]
    new_sink = OutputConfig.new_sink

    def patched(self, table, **resume):
        sink = new_sink(self, table, **resume)
        sink._handle = _FullDiskHandle(sink._handle, writes, fail_at)
        return sink

    monkeypatch.setattr(OutputConfig, "new_sink", patched)
    return writes


class TestFailedWrite:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_full_disk_stops_the_run_and_resume_finishes(
        self, tmp_path, monkeypatch, fmt, workers
    ):
        from repro.output.formats import table_frame

        # 25-row packages: every chunk is far below TextIOWrapper's 8 KiB
        # pending buffer, the case where re-sending one chunk lost bytes
        engine = _engine()
        config = _file_config(tmp_path / "out", fmt)
        frames = sum(
            bool(text) for name in TABLES for text in table_frame(config, engine, name)
        )
        writes = _full_disk(monkeypatch, fail_at=0)
        Scheduler(engine, _file_config(tmp_path / "ref", fmt), package_size=25).run()
        assert writes[0] == frames + 3 + 8  # one sink.write per chunk

        writes = _full_disk(monkeypatch, fail_at=7)
        ckpt = str(tmp_path / "ckpt")
        with pytest.raises(OutputError, match="cannot write .*No space left") as failed:
            Scheduler(
                _engine(), config, package_size=25, workers=workers,
                checkpoint=ckpt,
            ).run()
        assert failed.value.__cause__.errno == errno.ENOSPC
        assert writes[0] == 7  # the failed write was not attempted again
        assert _records(ckpt)[-1] == {"type": "interrupted", "reason": "OutputError"}

        monkeypatch.undo()
        report = Scheduler(
            _engine(), config, package_size=25, workers=workers,
            checkpoint=ckpt, resume_from=ckpt,
        ).run()
        assert report.resumed_packages > 0
        assert _read_tables(tmp_path / "out", fmt) == _read_tables(tmp_path / "ref", fmt)

    def test_cli_full_disk_exits_2_and_resume_finishes(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli.main import main

        base = ["generate", "--suite", "tpch", "--sf", "0.001", "-q"]
        assert main(base + ["-d", str(tmp_path / "ref")]) == 0
        out, ckpt = str(tmp_path / "out"), str(tmp_path / "ckpt")
        capsys.readouterr()
        writes = _full_disk(monkeypatch, fail_at=5)
        assert main(base + ["-d", out, "--checkpoint", ckpt]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and "No space left" in err
        assert writes[0] == 5
        assert _records(ckpt)[-1] == {"type": "interrupted", "reason": "OutputError"}

        monkeypatch.undo()
        assert main(base + ["-d", out, "--checkpoint", ckpt, "--resume"]) == 0
        assert "resumed:" in capsys.readouterr().out
        reference = sorted(os.listdir(tmp_path / "ref"))
        assert sorted(os.listdir(out)) == reference
        for name in reference:
            assert (tmp_path / "out" / name).read_bytes() == (
                tmp_path / "ref" / name
            ).read_bytes(), name

    def test_every_file_sink_method_raises_typed(self, tmp_path):
        from repro.output.sinks import FileSink, GzipFileSink

        class LostMount:
            """Every handle method fails the way a vanished mount does."""

            def __getattr__(self, name):
                def fail(*args):
                    raise OSError(errno.EIO, os.strerror(errno.EIO))
                return fail

        for sink in (FileSink(str(tmp_path / "a.tbl")), GzipFileSink(str(tmp_path / "b.gz"))):
            for method, args in (
                (sink.write, ("x",)), (sink.flush, ()), (sink.sync, ()), (sink.close, ()),
            ):
                sink._handle = LostMount()
                with pytest.raises(OutputError, match="cannot write .*Input/output"):
                    method(*args)


# -- hostile manifests -------------------------------------------------------


def _hostile(records: list[dict], case: str) -> list[str]:
    """The journal's lines with one hostile edit."""
    lines = [json.dumps(record, sort_keys=True) for record in records]
    last = max(i for i, r in enumerate(records) if r["type"] == "part")
    if case == "infinity":
        lines[last] = lines[last].replace(
            f'"stop": {records[last]["stop"]}', '"stop": Infinity'
        )
        assert "Infinity" in lines[last]
    elif case == "nesting":
        lines.insert(1, "[" * 100_000)
    else:  # tail-past-bytes
        record = dict(records[last], tail_bytes=records[last]["bytes"] + 1)
        record.setdefault("sha256", "0" * 64)
        lines[last] = json.dumps(record, sort_keys=True)
    return lines


def _stat_tree(directory) -> dict[str, tuple[bytes, int]]:
    return {
        name: ((directory / name).read_bytes(), (directory / name).stat().st_mtime_ns)
        for name in sorted(os.listdir(directory))
    }


@pytest.fixture(scope="module")
def real_manifest(tmp_path_factory) -> bytes:
    """A crashed-then-resumed run's journal: run and resume headers,
    parts with digests, ``interrupted``, ``table_done``, ``run_done``."""
    directory = tmp_path_factory.mktemp("journal")
    ckpt = _crash(directory, after=5)
    _resume(directory, ckpt)
    with open(os.path.join(ckpt, MANIFEST_NAME), "rb") as handle:
        return handle.read()


_VALUES = st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(-(2**70), 2**70),
    st.text(max_size=8), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    """*data* truncated, byte-flipped, with one field's type swapped, or
    with one record nested inside brackets."""
    kind = draw(st.sampled_from(["truncate", "flip", "swap", "nest"]))
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data)))]
    if kind == "flip":
        flipped = bytearray(data)
        for _ in range(draw(st.integers(1, 4))):
            flipped[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
        return bytes(flipped)
    lines = data.splitlines()
    index = draw(st.integers(0, len(lines) - 1))
    if kind == "swap":
        record = json.loads(lines[index])
        record[draw(st.sampled_from(sorted(record)))] = draw(_VALUES)
        lines[index] = json.dumps(record).encode()  # NaN / Infinity included
    else:
        depth = draw(st.sampled_from([1, 2, 900, 5_000, 100_000]))
        closed = draw(st.booleans())
        lines[index] = b"[" * depth + lines[index] + b"]" * (depth if closed else 0)
    return b"\n".join(lines) + b"\n"


class TestHostileManifest:
    """``RunManifest.load`` returns a manifest or raises the typed
    :class:`SchedulingError`, whatever the journal holds; through the
    CLI that is ``error: …``, exit 2, and no output file touched."""

    @pytest.mark.parametrize("case", ["infinity", "nesting", "tail-past-bytes"])
    def test_cli_refuses_with_a_typed_error_and_touches_nothing(
        self, tmp_path, case, capsys
    ):
        from repro.cli.main import main

        out, ckpt = tmp_path / "out", str(tmp_path / "ckpt")
        base = ["generate", "--suite", "tpch", "--sf", "0.001", "-q", "-d", str(out),
                "--checkpoint", ckpt]
        assert main(base) == 0
        lines = _hostile(_records(ckpt), case)
        with open(os.path.join(ckpt, MANIFEST_NAME), "w", encoding="utf-8") as handle:
            handle.writelines(line + "\n" for line in lines)
        before = _stat_tree(out)
        capsys.readouterr()
        assert main(base + ["--resume"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint manifest") and "line " in err
        assert "Traceback" not in err
        assert _stat_tree(out) == before

    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_load_returns_a_manifest_or_raises_typed(
        self, real_manifest, tmp_path_factory, data
    ):
        directory = tmp_path_factory.getbasetemp() / "hostile"
        directory.mkdir(exist_ok=True)
        (directory / MANIFEST_NAME).write_bytes(data.draw(_mutated(real_manifest)))
        try:
            manifest = RunManifest.load(str(directory))
        except SchedulingError:
            return
        assert isinstance(manifest, RunManifest)
