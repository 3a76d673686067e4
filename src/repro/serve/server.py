"""The HTTP data server behind ``dbsynth serve``.

A :class:`DataServer` is the stdlib threading server of
:mod:`repro.obs.serve` (the same base as the ``--obs-port`` endpoint)
with the routes below: HTTP/1.1 with persistent connections, one thread
per connection. Each slice response streams with chunked transfer
encoding, one work-package chunk at a time; the connection's thread
iterates :meth:`repro.api.Dataset.stream` itself, holding one of
``workers`` generation slots only while a chunk is computed — never
while it is written, so a slow reader cannot starve the others.

Endpoints:

* ``GET /healthz`` — liveness plus the model fingerprint.
* ``GET /tables`` — table names, sizes, columns, and formats.
* ``GET /table/<name>/rows/<start>-<stop>?format=<fmt>`` — rows
  ``[start, stop)`` encoded by the format registry; the Content-Type is
  the registry's MIME type and the payload is byte-identical to the
  same range of a batch-generated file.
* ``GET /metrics`` — the metrics registry in Prometheus text format.

What a client can see besides 200: 400 (bad range, unknown format,
unaligned Arrow bounds, malformed request), 404 (no such route or
table), 405 (any method but GET), 414/431 (request line or headers over
the stdlib limits), 500 (a bug — the traceback is on the server's
stderr). All carry a JSON ``{"error": ...}`` body. A generation failure
*after* the 200 status line cannot be reported in-band: the server cuts
the connection without the terminating zero-length chunk, so a
truncated body is always detectable.

Request telemetry lands in the obs registry (``serve_requests_total``,
``serve_request_seconds``, ``serve_bytes_total``) and each request runs
under a ``serve.request`` span when tracing is enabled. A client that
goes away mid-response is counted as status 499.
"""

from __future__ import annotations

import re
import threading
import time
from urllib.parse import parse_qsl, urlsplit

from repro.exceptions import ReproError
from repro.obs.registry import MetricsRegistry, active_metrics
from repro.obs.serve import HttpService, ServiceHandler
from repro.obs.trace import span
from repro.output.formats import format_spec, known_formats

#: request latency buckets (seconds) — sub-ms cache hits to slow scans.
LATENCY_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0)

#: ``<start>-<stop>`` in ASCII decimal digits, the one spelling of a
#: range: ``int()`` would also take a sign, ``_``, spaces and other
#: scripts' digits. 18 digits hold any row count.
_ROW_RANGE = re.compile(r"([0-9]{1,18})-([0-9]{1,18})")


class _NotFound(ReproError):
    """No such route or table; every other request error is a 400."""

    status = 404


class _Handler(ServiceHandler):
    server_version = "dbsynth-serve"

    def send_response(self, code, message=None) -> None:
        self.status = int(code)  # None until a status line is out
        super().send_response(code, message)

    def send_error(self, code, message=None, explain=None) -> None:
        # Reached from the stdlib parser, before there is a route.
        super().send_error(code, message, explain)
        self.server.service.requests.inc(route="unknown", status=str(self.status))

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        service = self.server.service
        started = time.perf_counter()
        url = urlsplit(self.path)
        route, self.status = "unknown", None
        try:
            try:
                route, handler = self._route(url.path)
                with span("serve.request", route=route, path=url.path):
                    handler(url.path, dict(parse_qsl(url.query)))
            except ReproError as exc:
                if self.status is not None:
                    raise  # mid-stream: a second response would corrupt the body
                self.send_json(getattr(exc, "status", 400), {"error": str(exc)})
        except (ConnectionError, TimeoutError):
            self.status = 499  # client went away or stopped reading
            self.close_connection = True
        except Exception:
            # A bug, or generation failing after the 200: answer 500 if
            # nothing is out yet, else cut the body short (no terminating
            # chunk); either way the server's error log gets the traceback.
            self.close_connection = True
            if self.status is None:
                self.send_json(500, {"error": "internal server error"})
            self.status = 500
            raise
        finally:
            service.requests.inc(route=route, status=str(self.status))
            service.latency.observe(time.perf_counter() - started, route=route)

    def _route(self, path: str):
        if path == "/healthz":
            return "healthz", self._healthz
        if path == "/tables":
            return "tables", self._tables
        if path == "/metrics":
            return "metrics", self._metrics
        if path.startswith("/table/"):
            return "slice", self._slice
        raise _NotFound(f"no route for {path}")

    def _healthz(self, path: str, query: dict) -> None:
        dataset = self.server.service.dataset
        self.send_json(200, {"status": "ok", "fingerprint": dataset.fingerprint})

    def _tables(self, path: str, query: dict) -> None:
        dataset = self.server.service.dataset
        self.send_json(200, {
            "fingerprint": dataset.fingerprint,
            "package_size": dataset.package_size,
            "formats": list(known_formats()),
            "tables": {
                name: {"rows": size, "columns": dataset.columns(name)}
                for name, size in sorted(dataset.tables.items())
            },
        })

    def _metrics(self, path: str, query: dict) -> None:
        self.send_metrics(self.server.service.registry)

    def _slice(self, path: str, query: dict) -> None:
        # /table/<name>/rows/<start>-<stop>
        service = self.server.service
        dataset = service.dataset
        parts = path.strip("/").split("/")
        if len(parts) != 4 or parts[0] != "table" or parts[2] != "rows":
            raise _NotFound("slice path is /table/<name>/rows/<start>-<stop>")
        table = parts[1]
        if table not in dataset.tables:
            known = ", ".join(sorted(dataset.tables))
            raise _NotFound(f"no such table {table!r}; tables: {known}")
        match = _ROW_RANGE.fullmatch(parts[3])
        if match is None:
            raise ReproError(
                f"bad row range {parts[3]!r}; expected <start>-<stop>"
            )
        start, stop = map(int, match.groups())
        spec = format_spec(query.get("format", "csv"))  # unknown -> the registry's error
        chunks = dataset.stream(table, start, stop, format=spec.name)

        def next_chunk() -> bytes | None:
            with service.slots:
                return next(chunks, None)

        # Produce the first chunk before the status line so validation
        # errors (range, alignment, missing pyarrow) still map to 400.
        chunk = next_chunk()
        self.send_response(200)
        self.send_header("Content-Type", spec.mime_type)
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("X-Dbsynth-Fingerprint", dataset.fingerprint)
        self.end_headers()
        sent = 0
        while chunk is not None:
            self.wfile.write(b"%x\r\n%b\r\n" % (len(chunk), chunk))
            self.wfile.flush()
            sent += len(chunk)
            chunk = next_chunk()
        self.wfile.write(b"0\r\n\r\n")
        service.bytes.inc(sent, format=spec.name)


class DataServer(HttpService):
    """Serves one :class:`~repro.api.Dataset` over loopback HTTP.

    ``start()`` serves from a daemon thread and returns once the socket
    is bound (tests, benchmarks, the CLI, which then ``join()``s);
    ``port=0`` binds an ephemeral port; read :attr:`url` after start.
    At most ``workers`` requests generate at the same time.
    """

    name = "serve"
    handler = _Handler

    def __init__(
        self,
        dataset,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        registry: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(host, port)
        self.dataset = dataset
        self.registry = registry or active_metrics() or MetricsRegistry()
        self.requests = self.registry.counter(
            "serve_requests_total", "HTTP requests served, by route and status"
        )
        self.latency = self.registry.histogram(
            "serve_request_seconds", LATENCY_BUCKETS, "request wall time"
        )
        self.bytes = self.registry.counter(
            "serve_bytes_total", "response body bytes streamed, by format"
        )
        self.slots = threading.BoundedSemaphore(max(1, workers))
