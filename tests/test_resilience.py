"""Fault tolerance: retry policy, checkpoint manifests, crash→resume.

The acceptance bar is byte-identity: for every (runtime, sink) pairing,
a run that crashes partway and is resumed from its checkpoint must leave
*exactly* the bytes an uninterrupted run produces. PDGF's determinism
makes that provable — generation is a pure function of the seed
hierarchy, so resume regenerates only the missing tail and nothing can
drift.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.engine import GenerationEngine
from repro.exceptions import OutputError, SchedulingError, TransientError
from repro.output.config import OutputConfig
from repro.output.formats import format_spec
from repro.output.sinks import MemorySink, OrderedSinkMux
from repro.resilience import (
    MANIFEST_NAME,
    CrashingSink,
    FaultInjectingOutput,
    FaultPlan,
    FlakySink,
    InjectedCrash,
    RetryPolicy,
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


# -- retry policy ------------------------------------------------------------


class TestRetryPolicy:
    def test_delays_grow_exponentially_and_cap(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay=0.1, multiplier=2.0, max_delay=0.5,
            jitter=0.0,
        )
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)
        assert policy.delay(4) == pytest.approx(0.5)  # capped
        assert policy.delay(5) == pytest.approx(0.5)

    def test_jitter_is_deterministic_per_seed(self):
        one = RetryPolicy(seed=7, jitter=0.5)
        two = RetryPolicy(seed=7, jitter=0.5)
        other = RetryPolicy(seed=8, jitter=0.5)
        delays_one = [one.delay(a) for a in range(1, 4)]
        assert delays_one == [two.delay(a) for a in range(1, 4)]
        assert delays_one != [other.delay(a) for a in range(1, 4)]

    def test_classification(self):
        policy = RetryPolicy()
        assert policy.is_retryable(TransientError("x"))
        assert policy.is_retryable(ConnectionError())
        assert policy.is_retryable(TimeoutError())
        assert not policy.is_retryable(ValueError())
        assert not policy.is_retryable(InjectedCrash())

    def test_call_retries_then_succeeds(self):
        calls = []
        sleeps = []
        policy = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0,
                             sleep=sleeps.append)

        def flaky(value):
            calls.append(value)
            if len(calls) < 3:
                raise TransientError("transient")
            return value * 2

        assert policy.call(flaky, 21) == 42
        assert len(calls) == 3
        assert len(sleeps) == 2

    def test_call_exhausts_attempts(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0,
                             sleep=lambda _: None)
        with pytest.raises(TransientError):
            policy.call(lambda: (_ for _ in ()).throw(TransientError("no")))

    def test_call_reraises_non_retryable_immediately(self):
        attempts = []
        policy = RetryPolicy(max_attempts=5, sleep=lambda _: None)

        def broken():
            attempts.append(1)
            raise ValueError("logic error")

        with pytest.raises(ValueError):
            policy.call(broken)
        assert len(attempts) == 1

    def test_invalid_configuration_rejected(self):
        with pytest.raises(SchedulingError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(SchedulingError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(SchedulingError):
            RetryPolicy(jitter=1.5)


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
        assert orders.packages(25) == 8  # 180 rows / 25-row packages
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


def _crash_then_resume(
    tmp_path, *, fmt, workers, crash_after, flaky=False
):
    """Crash a run partway, resume it — through a flaky sink and a retry
    policy when *flaky* — and return ``(reference bytes, resumed bytes,
    report, progress monitor of the resumed leg)``."""
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

    output, retry = _file_config(crash_dir, fmt), None
    if flaky:
        output = FaultInjectingOutput(output, fail_every=3)
        retry = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0,
                            sleep=lambda _: None)
    progress = ProgressMonitor(240, {"customer": 60, "orders": 180})
    report = Scheduler(
        _engine(), output, package_size=25, workers=workers,
        checkpoint=ckpt, resume_from=ckpt, retry=retry, progress=progress,
    ).run()
    return (
        _read_tables(ref_dir, fmt), _read_tables(crash_dir, fmt), report, progress
    )


class TestCrashResume:
    @pytest.mark.parametrize("fmt", ["csv", "json", "sql"])
    @pytest.mark.parametrize(
        "backend,workers,flaky",
        [("inline", 1, False), ("process", 2, False), ("inline", 1, True)],
        ids=["inline-1", "process-2", "inline-1-flaky"],
    )
    def test_resumed_run_is_byte_identical(
        self, tmp_path, fmt, backend, workers, flaky
    ):
        reference, resumed, report, progress = _crash_then_resume(
            tmp_path, fmt=fmt, workers=workers, crash_after=4, flaky=flaky,
        )
        assert report.backend == backend
        assert resumed == reference
        assert report.resumed_packages > 0
        assert (report.retries > 0) == flaky
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
        """A hard worker kill (os._exit) crashes the run without a retry
        policy; resume completes it byte-identically."""
        ref_dir = tmp_path / "ref"
        Scheduler(_engine(), _file_config(ref_dir), package_size=25).run()

        crash_dir = tmp_path / "crash"
        ckpt = str(tmp_path / "ckpt")
        plan = FaultPlan(
            kill_worker_at=("orders", 2), latch_dir=str(tmp_path / "latch")
        )
        with pytest.raises(SchedulingError, match="worker process died"):
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
        faulty = FaultInjectingOutput(
            _file_config(tmp_path / "out"), crash_after_writes=4
        )
        with pytest.raises(InjectedCrash):
            run_node(schema, 3, 1, faulty, package_size=25, checkpoint=base)
        # the share journals into its own node<i>/ directory
        orders = RunManifest.load(os.path.join(base, "node1")).parts["orders.tbl"]
        assert orders.start == node_share(180, 3, 1)[0] == 60
        assert orders.stop == 60 + 25
        report = run_node(
            schema, 3, 1, _file_config(tmp_path / "out"), package_size=25,
            checkpoint=base, resume_from=base,
        )
        assert report.resumed_packages == 1 + 1
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
        assert (customer.stop, customer.packages(25)) == (60, 3)
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
            if record.get("file") == "customer.tbl":
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
        with pytest.raises(SchedulingError, match="node failures"):
            ClusterScheduler(
                demo_schema(), output=_file_config(tmp_path / "out"),
                package_size=25, checkpoint=ckpt,
                faults=FaultPlan(kill_node_at=("orders", 25)),
            ).run(1)
        with pytest.raises(SchedulingError, match="another runtime"):
            _resume(tmp_path, ckpt)


# -- retries during a live run -----------------------------------------------


class TestLiveRetries:
    def test_flaky_sink_recovered_by_retry_policy(self, tmp_path):
        ref_dir = tmp_path / "ref"
        Scheduler(_engine(), _file_config(ref_dir), package_size=25).run()

        flaky_dir = tmp_path / "flaky"
        faulty = FaultInjectingOutput(_file_config(flaky_dir), fail_every=3)
        report = Scheduler(
            _engine(), faulty, package_size=25,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0,
                              sleep=lambda _: None),
        ).run()
        assert report.retries > 0
        assert _read_tables(flaky_dir) == _read_tables(ref_dir)

    def test_flaky_sink_without_policy_fails(self, tmp_path):
        faulty = FaultInjectingOutput(
            _file_config(tmp_path / "flaky"), fail_every=3
        )
        with pytest.raises(TransientError):
            Scheduler(_engine(), faulty, package_size=25).run()

    def test_worker_kill_recovered_in_single_run(self, tmp_path):
        ref_dir = tmp_path / "ref"
        Scheduler(_engine(), _file_config(ref_dir), package_size=25).run()

        kill_dir = tmp_path / "kill"
        plan = FaultPlan(
            kill_worker_at=("orders", 3), latch_dir=str(tmp_path / "latch")
        )
        report = Scheduler(
            _engine(), _file_config(kill_dir), package_size=25,
            workers=2, faults=plan,
            retry=RetryPolicy(max_attempts=3, base_delay=0.01),
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

    def test_retry_counts_recovered_writes(self):
        sink = FlakySink(MemorySink(), fail_every=2)
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0,
                             sleep=lambda _: None)
        mux = OrderedSinkMux(sink, "t", retry=policy)
        for sequence in range(4):
            mux.submit(sequence, f"c{sequence}")
        mux.finish()
        # fail_every counts calls, retries included: calls 2, 4, and 6
        # fail (each the first attempt of chunks c1, c2, c3).
        assert mux.retries == 3
        assert sink.inner.getvalue() == "c0c1c2c3"


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
        plan = FaultPlan(
            kill_worker_at=("t", 1), latch_dir=str(tmp_path / "latch")
        )
        assert plan.should_kill_worker("t", 1) is True
        assert plan.should_kill_worker("t", 1) is False  # latched
        assert plan.should_kill_worker("t", 2) is False  # wrong package

    def test_fault_output_is_picklable(self, tmp_path):
        import pickle

        faulty = FaultInjectingOutput(
            _file_config(tmp_path), crash_after_writes=3, fail_every=2
        )
        clone = pickle.loads(pickle.dumps(faulty))
        assert clone._crash_after == 3
        assert clone._fail_every == 2
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
