"""``dbsynth serve``: endpoints, error mapping, concurrent determinism.

The headline guarantee: N concurrent clients requesting overlapping
slices all receive payloads byte-identical to a cold single-shot batch
run of the same model — the server computes, never caches or shares
response state, so concurrency cannot perturb bytes. The rest pins what
the stdlib server underneath must keep doing: persistent connections
that never desynchronise, typed JSON errors for every hostile request,
bounded metric labels, no thread left behind by a client that leaves.
"""

from __future__ import annotations

import http.client
import json
import os
import pathlib
import random
import re
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.api import Dataset
from repro.engine import GenerationEngine
from repro.exceptions import GenerationError
from repro.obs.registry import MetricsRegistry
from repro.output.config import OutputConfig
from repro.scheduler import generate
from repro.serve import DataServer

from tests.conftest import demo_schema

PACKAGE_SIZE = 50


@pytest.fixture(scope="module")
def server():
    dataset = Dataset(GenerationEngine(demo_schema()), package_size=PACKAGE_SIZE)
    registry = MetricsRegistry()
    server = DataServer(dataset, workers=4, registry=registry).start()
    yield server
    server.stop()


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


@pytest.fixture(scope="module")
def big_server():
    """A 6000-row table behind ONE generation slot: multi-chunk
    responses, and any slot held across a write starves everyone."""
    dataset = Dataset(GenerationEngine(demo_schema(orders=6000)), package_size=256)
    server = DataServer(dataset, workers=1, registry=MetricsRegistry()).start()
    yield server
    server.stop()


def fetch(server, path):
    with urllib.request.urlopen(server.url + path, timeout=30) as response:
        return response.status, dict(response.headers), response.read()


def wait_for(condition, timeout=5.0):
    """Poll *condition* until true: the server accounts for a request
    (and retires a connection's thread) a beat after the client is done."""
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


def logged_on_stderr(capfd, text):
    """True once the server's error log (stderr) carries *text*."""
    logged = ""

    def seen():
        nonlocal logged
        logged += capfd.readouterr().err
        return text in logged

    return wait_for(seen)


def leaked_threads(before):
    """Threads alive now that were not in *before* (compared by identity,
    so an earlier test's connection thread still winding down cannot make
    a plain ``active_count()`` comparison pass or fail by accident)."""
    return [thread for thread in threading.enumerate() if thread not in before]


def raw_exchange(server, payload, *, read=True):
    """Send raw bytes, return everything the server answers until it
    closes the connection (``b""`` for a close without a reply)."""
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        try:
            sock.sendall(payload)
        except ConnectionError:
            pass  # refused mid-upload: the reply, if any, is still readable
        reply = b""
        while read:
            try:
                data = sock.recv(65536)
            except ConnectionError:
                break
            if not data:
                break
            reply += data
        return reply


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
        counter = server.registry.get("serve_requests_total")

        def served():
            return counter.value(route="slice", status="200")

        counted = served()

        def hit(item):
            fmt, start, stop, expected = item
            _, _, body = fetch(
                server, f"/table/orders/rows/{start}-{stop}?format={fmt}"
            )
            return body == expected

        with ThreadPoolExecutor(max_workers=16) as pool:
            results = list(pool.map(hit, requests))
        assert all(results)
        # Every successful request is counted; the handler counts in its
        # finally block, which may run a beat after the body is read.
        deadline = time.monotonic() + 5
        while served() < counted + len(requests) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert served() >= counted + len(requests)

    def test_repeated_fetch_is_stable(self, server):
        payloads = {
            fetch(server, "/table/customer/rows/10-55?format=csv")[2]
            for _ in range(8)
        }
        assert len(payloads) == 1


class TestBoundedMetricLabels:
    def test_junk_format_values_create_no_series(self, server):
        """``?format=`` is client text: only a resolved format name may
        become a label, and only on the route that has a format."""
        fetch(server, "/healthz")
        fetch(server, "/tables")
        fetch(server, "/table/customer/rows/0-5?format=CSV")  # resolves to csv
        with pytest.raises(urllib.error.HTTPError):
            fetch(server, "/table/customer/rows/0-5?format=bogus")
        metrics = [
            server.registry.get(name) for name in
            ("serve_requests_total", "serve_request_seconds", "serve_bytes_total")
        ]

        def label_sets():
            return [sorted(metric.label_sets()) for metric in metrics]

        before = label_sets()
        assert (("format", "csv"),) in before[2]
        assert all(dict(key)["format"] in ("csv", "json", "arrow") for key in before[2])
        for index in range(50):
            fetch(server, f"/healthz?format=junk{index}")
            fetch(server, f"/tables?format=junk{index}")
            with pytest.raises(urllib.error.HTTPError) as info:
                fetch(server, f"/table/customer/rows/0-5?format=junk{index}")
            assert info.value.code == 400
        assert label_sets() == before
        assert "junk" not in fetch(server, "/metrics")[2].decode("utf-8")


class TestHostileRequests:
    """Every rejection is a typed, counted JSON error or a clean close;
    nothing is swallowed, nothing takes the server down."""

    CASES = [
        # (name, raw request, fragment of the reply, counted as)
        ("200 KB header line",
         b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 200_000 + b"\r\n\r\n",
         b" 431 ", ("unknown", "431")),
        ("20 000 headers",
         b"GET /healthz HTTP/1.1\r\n"
         + b"".join(b"X-%d: v\r\n" % n for n in range(20_000)) + b"\r\n",
         b" 431 ", ("unknown", "431")),
        ("70 KB URI",
         b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
         b" 414 ", ("unknown", "414")),
        ("not HTTP at all", b"GARBAGE\r\n",
         b"Bad request syntax", ("unknown", "400")),
        ("unknown method", b"PATCH /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
         b" 405 ", ("unknown", "405")),
        ("known non-GET method", b"POST /tables HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
         b" 405 ", ("unknown", "405")),
        ("invalid UTF-8 table name",
         b"GET /table/\xff\xfe/rows/0-5 HTTP/1.1\r\nConnection: close\r\n\r\n",
         b" 404 ", ("slice", "404")),
        # a row range has one spelling: int() alone would also answer
        # these with the bytes of /rows/0-2
        ("signed row range",
         b"GET /table/orders/rows/+0-2 HTTP/1.1\r\nConnection: close\r\n\r\n",
         b" 400 ", ("slice", "400")),
        ("underscored row range",
         b"GET /table/orders/rows/0_0-0_2 HTTP/1.1\r\nConnection: close\r\n\r\n",
         b" 400 ", ("slice", "400")),
        ("non-ASCII digit in row range",  # superscript two: isdigit() alone says yes
         b"GET /table/orders/rows/0-\xb2 HTTP/1.1\r\nConnection: close\r\n\r\n",
         b" 400 ", ("slice", "400")),
        ("cut mid-header, then closed", b"GET /healthz HTTP/1.1\r\nX-Par", None, None),
    ]

    @pytest.mark.parametrize("name,request_bytes,fragment,counted", CASES,
                             ids=[case[0] for case in CASES])
    def test_rejection_is_typed_and_counted(
        self, server, capfd, name, request_bytes, fragment, counted
    ):
        counter = server.registry.get("serve_requests_total")
        labels = dict(zip(("route", "status"), counted)) if counted else None
        before = counter.value(**labels) if labels else None
        reply = raw_exchange(server, request_bytes, read=fragment is not None)
        if fragment is not None:
            assert fragment in reply
            body = reply.rpartition(b"\r\n\r\n")[2]
            assert isinstance(json.loads(body)["error"], str)
            assert wait_for(lambda: counter.value(**labels) == before + 1)
        assert fetch(server, "/healthz")[0] == 200
        assert "Traceback" not in capfd.readouterr().err

    def test_bug_in_a_handler_is_a_500_and_reaches_the_error_log(
        self, server, capfd, monkeypatch
    ):
        from repro.serve.server import _Handler

        def broken(self, path, query):
            raise RuntimeError("boom in handler")

        monkeypatch.setattr(_Handler, "_tables", broken)
        reply = raw_exchange(server, b"GET /tables HTTP/1.1\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 500 ")
        assert json.loads(reply.rpartition(b"\r\n\r\n")[2]) == {
            "error": "internal server error"
        }
        counter = server.registry.get("serve_requests_total")
        assert counter.value(route="tables", status="500") == 1
        assert logged_on_stderr(capfd, "RuntimeError: boom in handler")
        assert fetch(server, "/healthz")[0] == 200

    def test_generation_failure_after_the_status_line_truncates_the_body(
        self, server, capfd, monkeypatch
    ):
        """The 200 is out, so the failure cannot be reported in-band:
        the connection is cut *without* the terminating chunk."""

        def failing_stream(table, start, stop, *, format):
            yield b"1|first chunk\n"
            raise GenerationError("row 7 cannot be generated")

        monkeypatch.setattr(server.dataset, "stream", failing_stream)
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request("GET", "/table/orders/rows/0-100")
            response = conn.getresponse()
            assert response.status == 200
            with pytest.raises(http.client.IncompleteRead) as info:
                response.read()
            assert info.value.partial == b"1|first chunk\n"
        finally:
            conn.close()
        counter = server.registry.get("serve_requests_total")
        assert wait_for(lambda: counter.value(route="slice", status="500") == 1)
        assert logged_on_stderr(capfd, "row 7 cannot be generated")


class TestPersistentConnections:
    def test_forty_mixed_requests_share_one_connection(self, big_server):
        dataset = big_server.dataset
        rng = random.Random(19)

        def slices(count):
            for _ in range(count):
                length = rng.choice((1, 7, 256, 1000, 4096))
                start = rng.randrange(0, 6000 - length + 1)
                yield "orders", start, start + length, rng.choice(("csv", "json"))

        plan = [("/healthz", 200), ("/tables", 200), ("/metrics", 200)]
        plan += list(slices(15))
        plan += [("/table/orders/rows/9-4", 400), ("/table/nope/rows/0-5", 404)]
        plan += list(slices(20))
        assert len(plan) == 40

        conn = http.client.HTTPConnection("127.0.0.1", big_server.port, timeout=30)
        conn.connect()
        first_socket = conn.sock
        try:
            for item in plan:
                if len(item) == 2:
                    path, expected_status = item
                else:
                    table, start, stop, fmt = item
                    path = f"/table/{table}/rows/{start}-{stop}?format={fmt}"
                    expected_status = 200
                conn.request("GET", path)
                response = conn.getresponse()
                body = response.read()
                assert response.status == expected_status, path
                # neither side hung up: still the first TCP connection
                assert not response.will_close and conn.sock is first_socket, path
                if len(item) == 4:
                    assert response.getheader("Transfer-Encoding") == "chunked"
                    assert body == dataset.slice(table, start, stop, format=fmt), path
                else:
                    assert int(response.getheader("Content-Length")) == len(body)
                    if expected_status != 200:
                        assert "error" in json.loads(body)
        finally:
            conn.close()

    @pytest.mark.parametrize("request_bytes", [
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\n\r\n",
        b"GET /table/orders/rows/0-3 HTTP/1.1\r\nConnection: close\r\n\r\n",
    ], ids=["connection-close", "http-1.0", "chunked-connection-close"])
    def test_one_shot_clients_are_closed_after_one_response(
        self, big_server, request_bytes
    ):
        # raw_exchange returns only once the *server* has closed
        reply = raw_exchange(big_server, request_bytes)
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert reply.count(b"HTTP/1.1 ") == 1


class TestSlowAndVanishingClients:
    def test_stalled_reader_holds_no_slot_and_leaves_no_thread(self, big_server):
        """workers=1: a client that stops reading mid-response must not
        block anyone else (the slot is released between chunks), is
        counted 499 once it vanishes, and its thread ends with it."""
        dataset = big_server.dataset
        threads_before = set(threading.enumerate())
        # its own server: the listening socket's send buffer is shrunk
        # (accepted sockets inherit it) and the client's receive buffer
        # too, so the ~400 KB response cannot hide in the kernel — the
        # connection's thread really blocks in send.
        with DataServer(dataset, workers=1, registry=MetricsRegistry()) as server:
            counter = server.registry.get("serve_requests_total")
            server._server.socket.setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            stalled = socket.socket()
            try:
                stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                stalled.settimeout(10)
                stalled.connect(("127.0.0.1", server.port))
                stalled.sendall(
                    b"GET /table/orders/rows/0-4096?format=json HTTP/1.1\r\n\r\n"
                )
                assert stalled.recv(12) == b"HTTP/1.1 200"  # ... and reads no more
                time.sleep(0.3)
                _, _, body = fetch(server, "/table/orders/rows/100-356?format=csv")
                assert body == dataset.slice("orders", 100, 356, format="csv")
                # the stalled response is still in flight — neither
                # swallowed whole by the buffers (a 200) nor given up on
                assert wait_for(lambda: counter.value(route="slice", status="200") == 1)
                assert sorted(counter.label_sets()) == [
                    (("route", "slice"), ("status", "200"))
                ]
            finally:
                stalled.close()  # unread data pending: the server sees a reset
            assert wait_for(lambda: counter.value(route="slice", status="499") == 1)
        assert wait_for(lambda: not leaked_threads(threads_before))

    def test_stop_returns_promptly_with_an_idle_connection_open(self):
        dataset = Dataset(GenerationEngine(demo_schema()), package_size=PACKAGE_SIZE)
        threads_before = set(threading.enumerate())
        server = DataServer(dataset, registry=MetricsRegistry()).start()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            assert conn.getresponse().read()
            assert conn.sock is not None  # idle, persistent, open
            started = time.monotonic()
            server.stop()
            assert time.monotonic() - started < 2
            with pytest.raises(OSError):  # nothing is listening any more
                socket.create_connection(conn.sock.getpeername(), timeout=2).close()
        finally:
            conn.close()
        assert wait_for(lambda: not leaked_threads(threads_before))


class TestRealCommand:
    def test_fifty_ranges_on_one_connection_equal_the_batch_file(self, tmp_path):
        """Through ``dbsynth serve`` itself, in its own process: a table
        read as 50 adjacent ranges over one persistent connection is the
        file ``dbsynth generate`` writes, and the server's own /metrics
        counted exactly those requests."""
        model = ["--suite", "tpch", "--sf", "0.001"]
        command = [sys.executable, "-m", "repro.cli.main"]
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
        subprocess.run(
            [*command, "generate", *model, "-d", str(tmp_path), "-q"],
            env=env, check=True, capture_output=True, timeout=120,
        )
        server = subprocess.Popen(
            [*command, "serve", *model, "--port", "0"],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        try:
            for line in server.stderr:
                match = re.search(r"serving \d+ tables at http://([\d.]+):(\d+)", line)
                if match:
                    break
            else:
                pytest.fail("dbsynth serve did not start")
            conn = http.client.HTTPConnection(match[1], int(match[2]), timeout=60)
            conn.connect()
            first_socket = conn.sock

            def get(path):
                conn.request("GET", path)
                response = conn.getresponse()
                body = response.read()
                assert response.status == 200 and conn.sock is first_socket, path
                return body

            served = b"".join(  # orders has 1500 rows at SF 0.001
                get(f"/table/orders/rows/{start}-{start + 30}?format=csv")
                for start in range(0, 1500, 30)
            )
            counted = 'serve_requests_total{route="slice",status="200"} 50\n'
            assert counted in get("/metrics").decode()
            conn.close()
        finally:
            server.terminate()
            server.wait(timeout=10)
            server.stderr.close()
        assert served == (tmp_path / "orders.tbl").read_bytes()
