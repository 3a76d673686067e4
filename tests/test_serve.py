"""``dbsynth serve``: endpoints, error mapping, concurrent determinism.

The headline guarantee: N concurrent clients requesting overlapping
slices all receive payloads byte-identical to a cold single-shot batch
run of the same model — the server computes, never caches or shares
response state, so concurrency cannot perturb bytes.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import Dataset, clear_engine_cache
from repro.engine import GenerationEngine
from repro.obs.registry import MetricsRegistry
from repro.output.config import OutputConfig
from repro.scheduler import generate
from repro.serve import DataServer

from tests.conftest import demo_schema

PACKAGE_SIZE = 50


@pytest.fixture(scope="module")
def server():
    clear_engine_cache()
    dataset = Dataset(demo_schema(), package_size=PACKAGE_SIZE)
    registry = MetricsRegistry()
    server = DataServer(dataset, workers=4, registry=registry).start()
    yield server
    server.stop()
    clear_engine_cache()


@pytest.fixture(scope="module")
def cold_batch():
    """Cold single-shot batch outputs (fresh engine, not the server's)."""
    engine = GenerationEngine(demo_schema())
    outputs = {}
    for fmt in ("csv", "json"):
        output = OutputConfig(kind="memory", format=fmt)
        generate(engine, output, package_size=PACKAGE_SIZE)
        outputs[fmt] = {
            name: output.memory_output(name).encode("utf-8")
            for name in engine.sizes
        }
    return outputs


def fetch(server, path):
    with urllib.request.urlopen(server.url + path, timeout=30) as response:
        return response.status, dict(response.headers), response.read()


class TestEndpoints:
    def test_healthz(self, server):
        status, _, body = fetch(server, "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["fingerprint"] == server.dataset.fingerprint

    def test_tables(self, server):
        _, _, body = fetch(server, "/tables")
        payload = json.loads(body)
        assert payload["tables"]["customer"]["rows"] == 60
        assert payload["tables"]["orders"]["columns"][0] == "o_id"
        assert payload["package_size"] == PACKAGE_SIZE
        assert "csv" in payload["formats"]

    def test_slice_content_type_from_registry(self, server):
        _, headers, _ = fetch(server, "/table/customer/rows/0-5?format=csv")
        assert headers["Content-Type"] == "text/csv; charset=utf-8"
        assert headers["Transfer-Encoding"] == "chunked"
        assert headers["X-Dbsynth-Fingerprint"] == server.dataset.fingerprint
        _, headers, _ = fetch(server, "/table/customer/rows/0-5?format=json")
        assert headers["Content-Type"] == "application/x-ndjson"

    def test_metrics_endpoint(self, server):
        fetch(server, "/healthz")
        _, headers, body = fetch(server, "/metrics")
        text = body.decode("utf-8")
        assert headers["Content-Type"].startswith("text/plain")
        assert 'serve_requests_total{route="healthz",status="200"}' in text


class TestErrorMapping:
    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as info:
            fetch(server, "/bogus")
        assert info.value.code == 404

    def test_unknown_table_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as info:
            fetch(server, "/table/nope/rows/0-5")
        assert info.value.code == 404
        assert "no such table" in json.load(info.value)["error"]

    def test_unknown_format_400_lists_known(self, server):
        with pytest.raises(urllib.error.HTTPError) as info:
            fetch(server, "/table/customer/rows/0-5?format=bogus")
        assert info.value.code == 400
        assert "known formats" in json.load(info.value)["error"]

    def test_bad_range_400(self, server):
        for bad in ("0-999", "9-4", "x-y"):
            with pytest.raises(urllib.error.HTTPError) as info:
                fetch(server, f"/table/customer/rows/{bad}")
            assert info.value.code == 400

    def test_error_counter_increments(self, server):
        counter = server.registry.get("serve_requests_total")
        # metrics land in the handler's finally block, which may run a
        # beat after the client has read the response — the previous
        # test's last request included, so let the count settle first.
        before = None
        while before != counter.value(route="slice", status="400"):
            before = counter.value(route="slice", status="400")
            time.sleep(0.1)
        with pytest.raises(urllib.error.HTTPError):
            fetch(server, "/table/customer/rows/0-999")
        # ... and poll briefly for this test's own request.
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if counter.value(route="slice", status="400") == before + 1:
                break
            time.sleep(0.01)
        assert counter.value(route="slice", status="400") == before + 1


class TestByteIdentityOverHttp:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_full_table_equals_cold_batch(self, server, cold_batch, fmt):
        for table, size in server.dataset.tables.items():
            _, _, body = fetch(
                server, f"/table/{table}/rows/0-{size}?format={fmt}"
            )
            assert body == cold_batch[fmt][table], (table, fmt)

    def test_adjacent_ranges_reassemble_file(self, server, cold_batch):
        cuts = [0, 30, 50, 111, 180]
        joined = b"".join(
            fetch(server, f"/table/orders/rows/{a}-{b}?format=csv")[2]
            for a, b in zip(cuts, cuts[1:])
        )
        assert joined == cold_batch["csv"]["orders"]

    def test_arrow_slice_over_http(self, server):
        pytest.importorskip("pyarrow")
        import pyarrow as pa

        _, headers, body = fetch(server, "/table/customer/rows/0-60?format=arrow")
        assert headers["Content-Type"] == "application/vnd.apache.arrow.stream"
        table = pa.ipc.open_stream(body).read_all()
        assert table.num_rows == 60
        rows = server.dataset.slice("customer", 0, 60)
        assert table.column("c_id").to_pylist() == [row[0] for row in rows]


class TestConcurrentDeterminism:
    def test_overlapping_slices_match_cold_batch(self, server, cold_batch):
        """Hundreds of concurrent overlapping requests, mixed formats."""
        requests = []
        for fmt in ("csv", "json"):
            reference = cold_batch[fmt]["orders"].decode("utf-8")
            lines = reference.splitlines(keepends=True)
            for start, stop in [
                (0, 180), (0, 50), (25, 75), (49, 51), (100, 180),
                (0, 1), (179, 180), (60, 120), (0, 180), (33, 167),
            ]:
                expected = "".join(lines[start:stop]).encode("utf-8")
                requests.append((fmt, start, stop, expected))
        requests = requests * 6  # 120 overlapping in-flight fetches

        def hit(item):
            fmt, start, stop, expected = item
            _, _, body = fetch(
                server, f"/table/orders/rows/{start}-{stop}?format={fmt}"
            )
            return body == expected

        with ThreadPoolExecutor(max_workers=16) as pool:
            results = list(pool.map(hit, requests))
        assert all(results)

    def test_repeated_fetch_is_stable(self, server):
        payloads = {
            fetch(server, "/table/customer/rows/10-55?format=csv")[2]
            for _ in range(8)
        }
        assert len(payloads) == 1
