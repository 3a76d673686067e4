"""Distributed cluster runtime: real node processes, elastic stealing,
dead-node recovery.

The acceptance bar is byte-identity: whatever the cluster did — static
shards, stolen tail ranges, a node killed mid-shard and its remainder
regenerated elsewhere — the merged per-table files must equal a
single-node run byte for byte. Shard planning is tested as an exact
partition (union covers every row once, no overlap) including the edge
cases: tables smaller than the node count, zero-row tables, and package
sizes that do not divide shard boundaries.
"""

from __future__ import annotations

import filecmp
import json
import os

import pytest

from repro import obs
from repro.cli.main import main
from repro.engine import GenerationEngine
from repro.exceptions import OutputError, SchedulingError
from repro.output.config import OutputConfig
from repro.resilience import FaultPlan
from repro.scheduler import (
    ClusterScheduler,
    ProgressMonitor,
    Scheduler,
    generate,
    node_share,
    partition_rows,
    plan_shards,
)
from repro.scheduler.cluster import NODE_LOOKAHEAD, ShardLedger
from repro.scheduler.executor import ExecutorSlot
from tests.conftest import demo_schema


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.reset()
    yield
    obs.reset()


_CLI_NULL = ["generate", "--suite", "tpch", "--sf", "0.0005", "--kind", "null", "-q"]


def _file_output(directory, fmt: str = "csv") -> OutputConfig:
    return OutputConfig(kind="file", format=fmt, directory=str(directory))


def _single_node(tmp_path, schema, fmt: str = "csv", package_size: int = 25):
    """Reference run: the bytes every cluster variant must reproduce."""
    output = _file_output(tmp_path / "single", fmt)
    generate(GenerationEngine(schema), output, package_size=package_size)
    return output


def _assert_identical(schema, reference: OutputConfig, candidate: OutputConfig):
    for table in schema.tables:
        left = reference.table_path(table.name)
        right = candidate.table_path(table.name)
        assert filecmp.cmp(left, right, shallow=False), (
            f"table {table.name}: cluster output differs from single-node"
        )


class TestShardPlanning:
    @pytest.mark.parametrize("size", [0, 1, 2, 3, 7, 24, 100, 1001])
    @pytest.mark.parametrize("nodes", [1, 2, 3, 5, 8])
    def test_union_is_exact_partition(self, size, nodes):
        shards = plan_shards({"t": size}, nodes)
        assert len(shards) == nodes
        ranges = sorted(r for shard in shards for r in shard)
        position = 0
        for table, start, stop in ranges:
            assert table == "t"
            assert start == position, "gap or overlap between shards"
            assert stop > start, "empty ranges must be dropped"
            position = stop
        assert position == size

    def test_fewer_rows_than_nodes(self):
        shards = plan_shards({"tiny": 3}, 5)
        owning = [shard for shard in shards if shard]
        assert len(owning) == 3
        assert all(stop - start == 1 for shard in owning
                   for _, start, stop in shard)

    def test_zero_row_table_in_no_shard(self):
        shards = plan_shards({"empty": 0, "t": 10}, 3)
        assert all(
            table != "empty" for shard in shards for table, _, _ in shard
        )

    def test_non_dividing_package_size_covers_share_exactly(self):
        # package size 7 divides neither the 100-row table nor the
        # 33/33/34 shard boundaries; the packages must still tile each
        # shard exactly.
        for node in range(3):
            start, stop = node_share(100, 3, node)
            packages = partition_rows("t", stop - start, 7, offset=start)
            position = start
            for package in packages:
                assert package.start == position
                position = package.stop
            assert position == stop

    def test_multi_table_shards_cover_all_tables(self):
        sizes = {"a": 10, "b": 0, "c": 2, "d": 57}
        shards = plan_shards(sizes, 4)
        covered: dict[str, int] = {name: 0 for name in sizes}
        for shard in shards:
            for table, start, stop in shard:
                covered[table] += stop - start
        assert covered == {"a": 10, "b": 0, "c": 2, "d": 57}


class TestClusterByteIdentity:
    def test_three_nodes_merge_to_single_node_bytes(self, tmp_path):
        schema = demo_schema()
        single = _single_node(tmp_path, schema)
        output = _file_output(tmp_path / "cluster")
        report = ClusterScheduler(schema, output=output, package_size=25).run(3)
        assert report.rows == 240
        assert report.node_failures == 0
        assert len(report.nodes) == 3
        _assert_identical(schema, single, output)
        # part files are an implementation detail; the merge removes them
        assert not os.path.exists(tmp_path / "cluster" / ".dbsynth-parts")

    @pytest.mark.parametrize("fmt", ["csv", "json", "sql", "xml"])
    def test_formats_with_headers_and_footers(self, tmp_path, fmt):
        # csv (with its header line), sql and xml have header/footer
        # framing the merge must emit exactly once, around parts from
        # three different nodes.
        schema = demo_schema()
        reference = OutputConfig(
            kind="file", format=fmt, directory=str(tmp_path / "single"),
            include_header=True,
        )
        single = generate(GenerationEngine(schema), reference, package_size=25)
        output = OutputConfig(
            kind="file", format=fmt, directory=str(tmp_path / "cluster"),
            include_header=True,
        )
        report = ClusterScheduler(schema, output=output, package_size=25).run(3)
        _assert_identical(schema, reference, output)
        # the frame bytes the parent merge writes are part of the report
        on_disk = sum(
            os.path.getsize(output.table_path(t.name)) for t in schema.tables
        )
        assert report.bytes_written == on_disk == single.bytes_written

    def test_more_nodes_than_rows(self, tmp_path):
        schema = demo_schema(customers=3, orders=5)
        single = _single_node(tmp_path, schema, package_size=2)
        output = _file_output(tmp_path / "cluster")
        report = ClusterScheduler(schema, output=output, package_size=2).run(5)
        assert report.rows == 8
        _assert_identical(schema, single, output)

    def test_null_sink_counts_rows(self):
        report = ClusterScheduler(
            demo_schema(), output=OutputConfig(kind="null"), package_size=30
        ).run(2)
        assert report.rows == 240
        assert report.bytes_written > 0

    def test_single_node_cluster(self, tmp_path):
        schema = demo_schema()
        single = _single_node(tmp_path, schema)
        output = _file_output(tmp_path / "cluster")
        ClusterScheduler(schema, output=output, package_size=25).run(1)
        _assert_identical(schema, single, output)

    def test_parent_journals_every_part_into_one_manifest(self, tmp_path):
        checkpoint = tmp_path / "ckpt"
        ClusterScheduler(
            demo_schema(),
            output=_file_output(tmp_path / "out"),
            package_size=30,
            checkpoint=str(checkpoint),
        ).run(3)
        # the ledger's parts are the manifest's records: one journal, in
        # the parent, and no node<i>/ directory next to it
        assert os.listdir(checkpoint) == ["manifest.jsonl"]
        records = [
            json.loads(line)
            for line in (checkpoint / "manifest.jsonl").read_text().splitlines()
        ]
        assert records[0]["backend"] == "cluster"
        assert records[-1] == {"type": "run_done"}
        parts = {r["file"]: r for r in records if r["type"] == "part"}
        assert all(
            file == os.path.join(".dbsynth-parts", f"{r['table']}.part{r['start']:012d}")
            for file, r in parts.items()
        )
        assert sum(r["stop"] - r["start"] for r in parts.values()) == 240
        assert {r["table"] for r in records if r["type"] == "table_done"} == {
            "customer", "orders",
        }


class TestWorkStealing:
    def test_stealing_rebalances_a_slow_node(self, tmp_path):
        schema = demo_schema()
        single = _single_node(tmp_path, schema, package_size=10)
        slow = FaultPlan(slow_nodes={0: 0.02})

        stolen_out = _file_output(tmp_path / "steal")
        stolen = ClusterScheduler(
            schema, output=stolen_out, package_size=10, faults=slow
        ).run(3)
        assert stolen.steals > 0
        assert stolen.stolen_rows > 0
        _assert_identical(schema, single, stolen_out)

    def test_steal_counters_are_consistent(self):
        report = ClusterScheduler(
            demo_schema(), output=OutputConfig(kind="null"), package_size=10,
            faults=FaultPlan(slow_nodes={0: 0.02}),
        ).run(3)
        assert report.steals > 0
        assert sum(n.steals_yielded for n in report.nodes) == report.steals
        assert sum(n.steals_taken for n in report.nodes) == report.steals
        # the slow node yields, never takes
        slow = report.nodes[0]
        assert slow.steals_yielded > 0
        assert slow.steals_taken == 0

    def test_stolen_ranges_trace_as_redo_free_reassignments(self):
        tracer = obs.enable_tracing()
        ClusterScheduler(
            demo_schema(), output=OutputConfig(kind="null"), package_size=10,
            faults=FaultPlan(slow_nodes={0: 0.02}),
        ).run(3)
        records = tracer.drain()
        stolen = [
            r for r in records
            if r.name == "node.assignment" and r.attrs.get("reason") == "steal"
        ]
        assert stolen, "expected stolen assignment spans in the trace"
        # redo-free: stolen work runs at attempt 1 and names its origin —
        # always some *other* node (steals can cascade past node 0).
        assert all(r.attrs["attempt"] == 1 for r in stolen)
        assert all(r.attrs["origin"] != r.attrs["node"] for r in stolen)
        packages = [r for r in records if r.name == "scheduler.package"]
        assert all(r.attrs["attempt"] == 1 for r in packages)
        # and the rendered tree surfaces the reassignment, so
        # `dbsynth stats --tree` shows stolen spans without raw JSONL
        # spelunking.
        tree = "\n".join(obs.render_span_tree(records))
        assert "reason=steal" in tree
        assert "origin=" in tree


class TestDeadNodeRecovery:
    def test_killed_node_resumes_elsewhere_byte_identically(self, tmp_path):
        schema = demo_schema()
        single = _single_node(tmp_path, schema, package_size=10)
        # node 1 owns orders rows [60, 120); kill it entering its second
        # orders package, after one package is durable.
        start, _stop = node_share(180, 3, 1)
        faults = FaultPlan(
            kill_node_at=("orders", start + 10),
            latch_dir=str(tmp_path / "latch"),
        )
        os.makedirs(tmp_path / "latch")
        output = _file_output(tmp_path / "cluster")
        report = ClusterScheduler(
            schema, output=output, package_size=10, faults=faults
        ).run(3)
        assert report.node_failures == 1
        assert report.reassigned_ranges >= 1
        assert report.rows == 240
        _assert_identical(schema, single, output)

    def test_kill_before_any_durable_package(self, tmp_path):
        # node 2 dies on the very first package of its customer shard:
        # its empty part file must be removed so the recipient can
        # recreate the range from the same start row.
        schema = demo_schema()
        single = _single_node(tmp_path, schema, package_size=10)
        start, _stop = node_share(60, 3, 2)
        faults = FaultPlan(
            kill_node_at=("customer", start),
            latch_dir=str(tmp_path / "latch"),
        )
        os.makedirs(tmp_path / "latch")
        output = _file_output(tmp_path / "cluster")
        report = ClusterScheduler(
            schema, output=output, package_size=10, faults=faults
        ).run(3)
        assert report.node_failures == 1
        _assert_identical(schema, single, output)

    def test_failure_cap_stops_crash_loops(self, tmp_path):
        # no latch: every process that reaches the package dies, so the
        # respawn dies too and the cap — max(2, nodes) — must abort the run.
        faults = FaultPlan(kill_node_at=("customer", 0))
        with pytest.raises(SchedulingError, match="3 node failures exceed"):
            ClusterScheduler(
                demo_schema(), output=_file_output(tmp_path / "out"),
                package_size=10, faults=faults,
            ).run(1)


def _manifest_records(checkpoint) -> list[dict]:
    with open(os.path.join(checkpoint, "manifest.jsonl"), encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def _vouched_packages(checkpoint, package_size: int) -> int:
    """Packages behind the manifest's watermarks, read from the raw
    journal: the latest ``part`` record of each file."""
    latest = {
        r["file"]: r for r in _manifest_records(checkpoint) if r["type"] == "part"
    }
    return sum(
        -(-(r["stop"] - r["start"]) // package_size) for r in latest.values()
    )


def _snapshot(directory) -> dict[str, bytes]:
    return {
        os.path.relpath(os.path.join(root, name), directory):
            open(os.path.join(root, name), "rb").read()
        for root, _dirs, names in os.walk(directory) for name in names
    }


class TestClusterResume:
    """A cluster run that died — crash loop at the failure cap, SIGINT,
    a crash inside the merge — resumes from the one parent manifest: the
    journaled parts are done, only the rows none covers are planned."""

    PACKAGE = 20
    #: every package start of every table under 3 nodes (shards of 20
    #: customer and 60 orders rows)
    POINTS = [("customer", row) for row in range(0, 60, 20)] + [
        ("orders", row) for row in range(0, 180, 20)
    ]

    @staticmethod
    def _abort(tmp_path, fmt, kill_at, package_size, monkeypatch, nodes=3):
        """Run until the un-latched kill exhausts the failure cap."""
        from repro.scheduler import executor

        monkeypatch.setattr(executor, "POLL_SECONDS", 0.02)  # reap fast
        output = OutputConfig(
            kind="file", format=fmt, directory=str(tmp_path / "cluster"),
            include_header=True,
        )
        checkpoint = str(tmp_path / "ckpt")
        with pytest.raises(SchedulingError, match="node failures exceed"):
            ClusterScheduler(
                demo_schema(), output=output, package_size=package_size,
                checkpoint=checkpoint,
                faults=FaultPlan(slow_nodes={0: 0.01}, kill_node_at=kill_at),
            ).run(nodes)
        return output, checkpoint

    @pytest.mark.parametrize("fmt", ["csv", "json", "sql", "xml"])
    @pytest.mark.parametrize(
        "kill_at", POINTS, ids=[f"{table}-{row}" for table, row in POINTS]
    )
    def test_abort_sweep_resumes_to_single_node_bytes(
        self, tmp_path, monkeypatch, fmt, kill_at
    ):
        schema = demo_schema()
        reference = OutputConfig(
            kind="file", format=fmt, directory=str(tmp_path / "single"),
            include_header=True,
        )
        single = generate(
            GenerationEngine(schema), reference, package_size=self.PACKAGE
        )
        output, checkpoint = self._abort(
            tmp_path, fmt, kill_at, self.PACKAGE, monkeypatch
        )
        assert _manifest_records(checkpoint)[-1] == {
            "type": "interrupted", "reason": "SchedulingError",
        }
        assert os.listdir(tmp_path / "cluster") == [".dbsynth-parts"]
        vouched = _vouched_packages(checkpoint, self.PACKAGE)
        if kill_at != self.POINTS[0]:
            assert vouched > 0

        progress = ProgressMonitor(240, {"customer": 60, "orders": 180})
        report = ClusterScheduler(
            schema, output=output, package_size=self.PACKAGE,
            checkpoint=checkpoint, resume_from=checkpoint, progress=progress,
        ).run(3)
        _assert_identical(schema, reference, output)
        assert report.resumed_packages == vouched
        assert report.node_failures == 0
        assert (report.rows, report.bytes_written) == (240, single.bytes_written)
        # a resumed cluster run ends at 100% like a resumed single-node one
        snapshot = progress.snapshot()
        assert snapshot.rows_done == snapshot.rows_total == 240
        assert snapshot.bytes_written == report.bytes_written
        assert not os.path.exists(tmp_path / "cluster" / ".dbsynth-parts")
        assert _manifest_records(checkpoint)[-1] == {"type": "run_done"}

    def test_resume_with_another_node_count_and_again_after_it_finished(
        self, tmp_path, monkeypatch
    ):
        schema = demo_schema()
        output, checkpoint = self._abort(
            tmp_path, "csv", ("orders", 90), 10, monkeypatch
        )
        headerless = _file_output(tmp_path / "cluster")  # another fingerprint
        with pytest.raises(SchedulingError, match="refusing to resume"):
            ClusterScheduler(
                schema, output=headerless, package_size=10, resume_from=checkpoint
            ).run(2)
        first = ClusterScheduler(
            schema, output=output, package_size=10,
            checkpoint=checkpoint, resume_from=checkpoint,
        ).run(2)
        assert 0 < first.resumed_packages < 24
        merged = _snapshot(tmp_path / "cluster")
        # the finished run's manifest resumes to a no-op: nothing planned,
        # no part file expected back, the merged files left alone
        again = ClusterScheduler(
            schema, output=output, package_size=10,
            checkpoint=checkpoint, resume_from=checkpoint,
        ).run(5)
        assert again.resumed_packages >= 24 and again.rows == 240
        assert sum(node.rows for node in again.nodes) == 0
        assert _snapshot(tmp_path / "cluster") == merged
        assert again.bytes_written == first.bytes_written

    def test_crash_inside_the_merge_resumes_to_a_re_merge(
        self, tmp_path, monkeypatch
    ):
        from repro.scheduler import cluster

        schema = demo_schema()
        single = _single_node(tmp_path, schema, package_size=10)
        output = _file_output(tmp_path / "cluster")
        checkpoint = str(tmp_path / "ckpt")
        write_table = cluster._ClusterRun._write_table

        def dies_on_orders(self, table, *args):
            if table == "orders":
                raise KeyboardInterrupt
            write_table(self, table, *args)

        monkeypatch.setattr(cluster._ClusterRun, "_write_table", dies_on_orders)
        with pytest.raises(KeyboardInterrupt):
            ClusterScheduler(
                schema, output=output, package_size=10, checkpoint=checkpoint
            ).run(3)
        monkeypatch.undo()
        # parts go only after every table is merged
        assert os.path.isdir(tmp_path / "cluster" / ".dbsynth-parts")
        customer = open(output.table_path("customer"), "rb").read()
        report = ClusterScheduler(
            schema, output=output, package_size=10,
            checkpoint=checkpoint, resume_from=checkpoint,
        ).run(3)
        assert sum(node.rows for node in report.nodes) == 0  # nothing regenerated
        assert open(output.table_path("customer"), "rb").read() == customer
        _assert_identical(schema, single, output)
        assert not os.path.exists(tmp_path / "cluster" / ".dbsynth-parts")

    @pytest.mark.parametrize("damage, error, match", [
        ("short-part", OutputError, "journal outlived the data"),
        ("missing-part", OutputError, "does not exist"),
        ("overlap", SchedulingError, "overlapping another"),
        ("foreign-file", SchedulingError, "not a part file"),
        ("version", SchedulingError, "format version 1"),
    ])
    def test_manifest_that_does_not_hold_is_refused_untouched(
        self, tmp_path, monkeypatch, damage, error, match
    ):
        output, checkpoint = self._abort(
            tmp_path, "csv", ("orders", 100), 20, monkeypatch
        )
        records = _manifest_records(checkpoint)
        victim = next(r for r in reversed(records) if r["type"] == "part")
        path = os.path.join(output.directory, victim["file"])
        if damage == "short-part":
            with open(path, "rb+") as handle:
                handle.truncate(victim["bytes"] - 1)
        elif damage == "missing-part":
            os.remove(path)
        elif damage == "overlap":
            records.append({**victim, "file": os.path.join(
                ".dbsynth-parts", f"{victim['table']}.part{victim['stop'] - 1:012d}"
            ), "start": victim["stop"] - 1, "stop": victim["stop"] + 1})
        elif damage == "foreign-file":
            records.append({**victim, "file": "orders.tbl"})
        else:
            records[0]["version"] = 1
        with open(os.path.join(checkpoint, "manifest.jsonl"), "w") as handle:
            handle.writelines(json.dumps(record) + "\n" for record in records)
        before = _snapshot(output.directory)
        with pytest.raises(error, match=match):
            ClusterScheduler(
                demo_schema(), output=output, package_size=20,
                resume_from=checkpoint,
            ).run(3)
        assert _snapshot(output.directory) == before

    def test_sigint_to_the_parent_then_resume_through_the_cli(self, tmp_path):
        """`dbsynth generate --nodes 2 --checkpoint` interrupted by
        SIGINT, then the same command with `--resume`: exit 0, the
        `resumed:` line, and the `-w 1` bytes."""
        import signal
        import subprocess
        import sys
        import time

        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        base = [sys.executable, "-m", "repro.cli.main", "generate", "--suite",
                "tpch", "--sf", "0.02", "-q"]
        checkpoint = tmp_path / "ck"
        command = base + ["-d", str(tmp_path / "out"), "--nodes", "2",
                          "--checkpoint", str(checkpoint)]
        process = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        manifest = checkpoint / "manifest.jsonl"
        deadline = time.monotonic() + 60
        while process.poll() is None and time.monotonic() < deadline:
            if manifest.exists() and manifest.read_text().count('"lineitem"') > 2:
                process.send_signal(signal.SIGINT)  # mid-lineitem, parts on disk
                break
            time.sleep(0.005)
        process.communicate(timeout=60)
        if process.returncode == 0:
            pytest.skip("the run finished before the signal landed")
        records = _manifest_records(checkpoint)
        assert records[-1] == {"type": "interrupted", "reason": "KeyboardInterrupt"}
        assert os.listdir(checkpoint) == ["manifest.jsonl"]

        resumed = subprocess.run(
            command + ["--resume"], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "checkpointed packages skipped" in resumed.stdout
        assert "resumed:" in resumed.stdout
        subprocess.run(
            base + ["-d", str(tmp_path / "ref"), "-w", "1"], env=env, check=True,
            capture_output=True, timeout=120,
        )
        assert _snapshot(tmp_path / "out") == _snapshot(tmp_path / "ref")


class TestStealAndDeathTogether:
    """Both ledger moves in one run: a range changes hands by stealing
    and a node dies — the victim mid-shard, or a thief holding loot."""

    @staticmethod
    def _run(tmp_path, kill_at, delay):
        schema = demo_schema()
        single = _single_node(tmp_path, schema, package_size=5)
        os.makedirs(tmp_path / "latch")
        output = _file_output(tmp_path / "cluster")
        report = ClusterScheduler(
            schema, output=output, package_size=5,
            faults=FaultPlan(
                slow_nodes={0: delay}, kill_node_at=kill_at,
                latch_dir=str(tmp_path / "latch"),
            ),
        ).run(3)
        _assert_identical(schema, single, output)
        assert report.rows == 240
        assert report.steals > 0
        assert report.node_failures == 1
        # a node that died never sent its final report, so its timer is 0
        (dead,) = [n for n in report.nodes if n.seconds == 0.0]
        return report, dead

    def test_steal_victim_dies_mid_shard(self, tmp_path):
        # slow node 0 is what the others steal from. Its second package
        # is in its look-ahead window from the start — never stealable —
        # so node 0 itself dies there, one package durable, long after
        # the fast nodes ran dry and took its tail.
        report, dead = self._run(tmp_path, ("customer", 5), delay=0.2)
        assert dead.node == 0
        assert dead.steals_yielded > 0
        assert dead.rows == 5

    def test_thief_dies_holding_a_stolen_range(self, tmp_path):
        # the last package of node 0's shard is the first thing a thief
        # takes and the last thing slow node 0 would reach: whoever
        # generates it stole it.
        _start, stop = node_share(180, 3, 0)
        report, dead = self._run(tmp_path, ("orders", stop - 5), delay=0.02)
        assert dead.node != 0
        assert dead.steals_taken > 0
        assert report.reassigned_ranges >= 1


class TestShardLedger:
    """The parent-side ledger on its own: no processes, a seeded random
    interleaving of dispatch, completion, stealing and node death."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("steal", [True, False])
    def test_every_row_is_owned_exactly_once(self, seed, steal):
        import random

        rng = random.Random(seed)
        sizes = {"a": 95, "b": 7, "c": 0, "d": 31}
        ledger = ShardLedger(package_size=10)
        slots = [ExecutorSlot(node) for node in range(3)]
        for slot, shard in zip(slots, plan_shards(sizes, 3)):
            ledger.add(slot)
            ledger.assign(slot.ident, shard, "shard", None)
        deaths = 2
        while not ledger.done:
            live = [slot for slot in slots if not slot.failed]
            for slot in live:
                idle = not slot.inflight and not ledger.shards[slot.ident].pending
                if steal and idle:
                    ledger.steal(slot.ident)
                for package in ledger.fill(slot.ident):
                    slot.inflight[package.key] = package
                assert len(slot.inflight) <= NODE_LOOKAHEAD
            busy = [slot for slot in live if slot.inflight]
            slot = rng.choice(busy)
            if deaths and len(live) > 1 and rng.random() < 0.1:
                deaths -= 1
                slot.failed = True
                lost = list(slot.inflight.values())
                slot.inflight.clear()
                ranges = ledger.fail(slot.ident, lost)
                heir = min(
                    (s for s in live if s is not slot),
                    key=lambda s: ledger.remaining(s.ident),
                )
                ledger.assign(heir.ident, ranges, "dead-node", slot.ident)
                continue
            key = next(iter(slot.inflight))  # a node works in dispatch order
            package = slot.inflight.pop(key)
            ledger.complete(slot.ident, package, nbytes=package.rows)
        for table, size in sizes.items():
            parts = ledger.parts(table, size)  # raises on a gap or overlap
            assert sum(part.bytes for part in parts) == size
        assert sum(shard.rows for shard in ledger.shards.values()) == sum(
            sizes.values()
        )
        taken = sum(shard.steals_taken for shard in ledger.shards.values())
        yielded = sum(shard.steals_yielded for shard in ledger.shards.values())
        assert taken == yielded == ledger.steals

    def test_steal_takes_the_tail_half_of_pending_packages(self):
        ledger = ShardLedger(package_size=10)
        victim, thief = ExecutorSlot(0), ExecutorSlot(1)
        ledger.add(victim)
        ledger.add(thief)
        ledger.assign(0, [("t", 0, 95)], "shard", None)  # 10 packages
        for package in ledger.fill(0):
            victim.inflight[package.key] = package
        ledger.steal(1)
        # 10 unfinished // 2 = 5 packages, re-anchored at a package edge
        assert list(ledger.shards[1].pending) == [("t", 50, 95, "steal", 0)]
        assert list(ledger.shards[0].pending) == [("t", 20, 50, "shard", None)]
        assert (ledger.steals, ledger.stolen_rows) == (1, 45)
        # nothing in flight ever moves: a victim down to its window keeps it
        ledger.shards[0].pending.clear()
        ledger.shards[1].pending.clear()
        ledger.steal(1)
        assert not ledger.shards[1].pending and ledger.steals == 1


class TestValidation:
    def test_binary_formats_are_refused(self, tmp_path):
        # build a valid config, then flip the format past __post_init__
        # so the check runs with or without pyarrow installed
        output = OutputConfig(kind="file", format="csv", directory=str(tmp_path))
        object.__setattr__(output, "format", "arrow")
        with pytest.raises(SchedulingError, match="package-framed binary"):
            ClusterScheduler(demo_schema(), output=output)

    def test_non_mergeable_sinks_are_refused(self):
        with pytest.raises(SchedulingError, match="distributed runs support"):
            ClusterScheduler(
                demo_schema(),
                output=OutputConfig(
                    kind="sqlite", format="sql", database=":memory:"
                ),
            )

    def test_node_count_must_be_positive(self):
        with pytest.raises(SchedulingError):
            ClusterScheduler(
                demo_schema(), output=OutputConfig(kind="null")
            ).run(0)

    def test_meta_rejects_workers_per_node(self, capsys):
        # nodes generate their shard sequentially; the one surface that
        # could ask for more workers per node is the CLI, which refuses.
        code = main(_CLI_NULL + ["--nodes", "2", "--workers", "2"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err


class TestDistributedMeta:
    def test_distributed_run_matches_single_node(self, tmp_path):
        schema = demo_schema()
        single = _single_node(tmp_path, schema)
        output = _file_output(tmp_path / "cluster")
        report = ClusterScheduler(schema, output=output, package_size=25).run(2)
        assert report.seconds > 0 and len(report.nodes) == 2
        _assert_identical(schema, single, output)

    def test_tree_shape_parity_across_execution_paths(self):
        """`dbsynth stats --tree` must account for the same per-table
        rows and bytes whatever ran — one scheduler or a cluster — and a
        cluster trace keeps the ``meta.run → meta.node`` shape."""
        tracer = obs.enable_tracing()
        Scheduler(
            GenerationEngine(demo_schema()), OutputConfig(kind="null"),
            package_size=30,
        ).run()
        single_totals = obs.table_totals(tracer.drain())
        obs.reset()

        tracer = obs.enable_tracing()
        ClusterScheduler(
            demo_schema(), output=OutputConfig(kind="null"), package_size=30,
        ).run(2)
        records = tracer.drain()
        meta_run = next(r for r in records if r.name == "meta.run")
        nodes = [r for r in records if r.name == "meta.node"]
        assert len(nodes) == 2
        assert all(r.parent_id == meta_run.span_id for r in nodes)
        assert sorted(r.attrs["node"] for r in nodes) == [0, 1]
        assert obs.table_totals(records) == single_totals


class TestClusterCLI:
    def test_generate_distributed(self, tmp_path, capsys):
        single = tmp_path / "single"
        cluster = tmp_path / "cluster"
        base = ["generate", "--suite", "tpch", "--sf", "0.0005",
                "--format", "csv", "--header", "-q"]
        assert main(base + ["-d", str(single)]) == 0
        assert main(
            base + ["-d", str(cluster), "--nodes", "3", "--distributed"]
        ) == 0
        out = capsys.readouterr().out
        assert "3 distributed nodes" in out
        assert "steals:" in out
        for name in os.listdir(single):
            assert filecmp.cmp(
                single / name, cluster / name, shallow=False
            ), name

    def test_pooled_nodes_require_null_sink(self, tmp_path, capsys):
        """The pooled simulation this once guarded is gone: ``--nodes 2``
        alone is the cluster runtime and writes real, mergeable files."""
        single = tmp_path / "single"
        cluster = tmp_path / "cluster"
        base = ["generate", "--suite", "tpch", "--sf", "0.0005", "-q"]
        assert main(base + ["-d", str(single)]) == 0
        assert main(base + ["-d", str(cluster), "--nodes", "2"]) == 0
        assert "2 distributed nodes" in capsys.readouterr().out
        assert sorted(os.listdir(cluster)) == sorted(os.listdir(single))
        for name in os.listdir(single):
            assert filecmp.cmp(
                single / name, cluster / name, shallow=False
            ), name

    @pytest.mark.parametrize("flags, named", [
        (["--nodes", "0"], "--nodes"),
        (["--nodes", "-2"], "--nodes"),
        (["--nodes", "2", "--resume"], "--resume"),  # needs --checkpoint
        # --resume itself applies to a cluster run since 7.0; what is
        # refused next to it is still refused
        (["--nodes", "2", "--resume", "--checkpoint", "ck", "-w", "2"], "--workers"),
        (["--distributed", "--resume", "--checkpoint", "ck", "--max-attempts", "2"],
         "--max-attempts"),
        (["--nodes", "2", "--workers", "4"], "--workers"),
        (["--distributed", "--workers", "2"], "--workers"),
        (["--nodes", "2", "--max-attempts", "3"], "--max-attempts"),
    ])
    def test_unhonoured_flag_combinations_are_rejected(
        self, flags, named, capsys
    ):
        assert main(_CLI_NULL + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
