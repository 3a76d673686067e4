"""Tests for work partitioning, the thread scheduler, and the meta
scheduler — the parallel-equals-serial guarantees of paper §2/§4."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.engine import GenerationEngine
from repro.exceptions import SchedulingError
from repro.output.config import OutputConfig
from repro.scheduler import ClusterScheduler, node_ranges, run_node
from repro.scheduler.executor import PackageResult
from repro.scheduler.progress import ProgressMonitor
from repro.scheduler.scheduler import RunAccounting, Scheduler, generate
from repro.scheduler.work import WorkPackage, node_share, partition_rows
from tests.conftest import demo_schema


class TestPartitionRows:
    def test_exact_split(self):
        packages = partition_rows("t", 100, 25)
        assert len(packages) == 4
        assert packages[0] == WorkPackage("t", 0, 25, 0)
        assert packages[-1] == WorkPackage("t", 75, 100, 3)

    def test_remainder_package(self):
        packages = partition_rows("t", 10, 4)
        assert [p.rows for p in packages] == [4, 4, 2]

    def test_covers_every_row_once(self):
        packages = partition_rows("t", 997, 100)
        rows = [r for p in packages for r in range(p.start, p.stop)]
        assert rows == list(range(997))

    def test_empty_table(self):
        assert partition_rows("t", 0, 10) == []

    def test_offset(self):
        packages = partition_rows("t", 10, 4, offset=100)
        assert packages[0].start == 100
        assert packages[-1].stop == 110

    def test_bad_inputs(self):
        with pytest.raises(SchedulingError):
            partition_rows("t", -1, 10)
        with pytest.raises(SchedulingError):
            partition_rows("t", 10, 0)


class TestNodeShare:
    def test_disjoint_and_complete(self):
        size, nodes = 1003, 7
        covered = []
        for node in range(nodes):
            start, stop = node_share(size, nodes, node)
            covered.extend(range(start, stop))
        assert covered == list(range(size))

    def test_balanced(self):
        sizes = [node_share(100, 3, n) for n in range(3)]
        widths = [stop - start for start, stop in sizes]
        assert max(widths) - min(widths) <= 1

    def test_single_node_gets_everything(self):
        assert node_share(50, 1, 0) == (0, 50)

    def test_more_nodes_than_rows(self):
        shares = [node_share(2, 5, n) for n in range(5)]
        rows = [r for start, stop in shares for r in range(start, stop)]
        assert rows == [0, 1]

    def test_bad_inputs(self):
        with pytest.raises(SchedulingError):
            node_share(10, 0, 0)
        with pytest.raises(SchedulingError):
            node_share(10, 3, 3)


class TestScheduler:
    def test_single_worker_run(self, engine):
        report = generate(engine, OutputConfig(kind="null"))
        assert report.rows == 240
        assert report.bytes_written > 0
        assert report.seconds > 0

    def test_parallel_equals_serial(self, engine):
        serial = OutputConfig(kind="memory")
        generate(GenerationEngine(demo_schema()), serial, workers=1)
        parallel = OutputConfig(kind="memory")
        generate(GenerationEngine(demo_schema()), parallel, workers=4, package_size=17)
        for table in ("customer", "orders"):
            assert serial.memory_output(table) == parallel.memory_output(table)

    def test_table_subset(self, engine):
        report = generate(engine, OutputConfig(kind="null"), tables=["customer"])
        assert report.rows == 60

    def test_row_ranges(self, engine):
        scheduler = Scheduler(engine, OutputConfig(kind="null"))
        report = scheduler.run(row_ranges={"customer": (10, 20), "orders": (0, 5)})
        assert report.rows == 15

    def test_file_output(self, engine, tmp_path):
        config = OutputConfig(kind="file", format="csv", directory=str(tmp_path))
        report = generate(engine, config, workers=2)
        customer = (tmp_path / "customer.tbl").read_text()
        assert len(customer.splitlines()) == 60
        assert report.bytes_written > 0

    def test_xml_header_footer_once(self, engine, tmp_path):
        config = OutputConfig(kind="file", format="xml", directory=str(tmp_path))
        generate(engine, config, workers=3, package_size=20)
        text = (tmp_path / "orders.xml").read_text()
        assert text.count("<?xml") == 1
        assert text.count("</table>") == 1
        import xml.etree.ElementTree as ET

        root = ET.fromstring(text)
        assert len(root.findall("row")) == 180

    def test_invalid_worker_count(self, engine):
        with pytest.raises(SchedulingError):
            Scheduler(engine, OutputConfig(kind="null"), workers=0)

    def test_progress_reported(self, engine):
        progress = ProgressMonitor(engine.total_rows(), engine.sizes)
        generate(engine, OutputConfig(kind="null"), workers=2, progress=progress)
        snapshot = progress.snapshot()
        assert snapshot.rows_done == 240
        assert snapshot.fraction == 1.0
        per_table = progress.table_progress()
        assert per_table["customer"] == (60, 60)
        assert per_table["orders"] == (180, 180)


class TestMetaScheduler:
    def test_node_ranges_cover_all_tables(self, engine):
        ranges = node_ranges(engine.sizes, 3, 1)
        assert set(ranges) == {"customer", "orders"}

    def test_union_of_nodes_equals_single_run(self):
        schema = demo_schema()
        single = OutputConfig(kind="memory")
        generate(GenerationEngine(schema), single, workers=1)
        for table in ("customer", "orders"):
            parts = []
            for node in range(4):
                config = OutputConfig(kind="memory")
                run_node(schema, 4, node, config)
                parts.append(config.memory_output(table))
            assert "".join(parts) == single.memory_output(table)

    def test_node_reports_row_counts(self):
        schema = demo_schema()
        report = run_node(schema, 2, 0, OutputConfig(kind="null"))
        other = run_node(schema, 2, 1, OutputConfig(kind="null"))
        assert report.rows + other.rows == 240

    def test_inprocess_cluster_run(self):
        schema = demo_schema()
        cluster = ClusterScheduler(schema).run(nodes=3)
        assert cluster.rows == 240
        assert len(cluster.nodes) == 3
        assert cluster.bytes_written > 0

    def test_multiprocess_cluster_run(self):
        schema = demo_schema()
        cluster = ClusterScheduler(schema).run(nodes=2)
        assert cluster.rows == 240
        assert cluster.seconds > 0

    def test_invalid_node_count(self):
        with pytest.raises(SchedulingError):
            ClusterScheduler(demo_schema()).run(nodes=0)


class TestProgressMonitor:
    def test_throughput_metrics(self):
        progress = ProgressMonitor(100)
        progress.add("t", 50, 1024 * 1024)
        snapshot = progress.snapshot()
        assert snapshot.rows_done == 50
        assert 0 < snapshot.fraction <= 1.0
        assert snapshot.mb_per_second >= 0

    def test_callback_rate_limited(self):
        seen = []
        progress = ProgressMonitor(10, callback=seen.append, min_interval=3600)
        for _ in range(10):
            progress.add("t", 1, 10)
        assert len(seen) <= 1

    def test_zero_total(self):
        progress = ProgressMonitor(0)
        assert progress.snapshot().fraction == 1.0


class TestRunAccounting:
    def test_concurrent_packages_lose_no_update(self):
        """Thread workers share one accounting: eight of them crediting
        packages under a tiny switch interval must not drop a count."""
        progress = ProgressMonitor(8 * 500)
        accounting = RunAccounting(
            GenerationEngine(demo_schema()), ["customer"], progress
        )
        result = PackageResult(None, 3, 0.5, 0, 0)

        def work():
            for _ in range(500):
                accounting.package("customer", 1, result)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert accounting.table("customer") == (4000, 12000)
        report = accounting.report(1.0, 8, "thread")
        assert (report.rows, report.bytes_written) == (4000, 12000)
        assert report.table("customer").seconds == pytest.approx(2000.0)
        assert progress.snapshot().rows_done == 4000
