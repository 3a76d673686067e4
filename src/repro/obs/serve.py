"""The one HTTP server under both services, and live run telemetry on it.

Two services speak HTTP — this module's :class:`ObsServer` (run
telemetry behind ``--obs-port``) and :class:`repro.serve.DataServer`
(``dbsynth serve``) — and both are the same stdlib
``ThreadingHTTPServer``: :class:`HttpService` owns the lifecycle (bind,
background thread, ``stop``), :class:`ServiceHandler` the wire rules.
Request parsing, persistent connections, the 64 KiB line / 100-header
limits and the close-after-error handling are ``http.server``'s; what is
added is only what both services need on top: GET-only, every rejection
a JSON ``{"error": ...}``, silence on stderr unless something is
actually wrong, and one Prometheus ``/metrics`` renderer.

PDGF exposes per-table progress and throughput over JMX while a run is
in flight (paper §5); :class:`ObsServer` is the reproduction's
equivalent, **off by default** and bound to loopback unless asked
otherwise:

* ``GET /metrics``  — the active registry in Prometheus text format
  (including the estimated ``_p50/_p95/_p99`` quantile families);
* ``GET /progress`` — per-table and total progress JSON from the run's
  :class:`~repro.scheduler.progress.ProgressMonitor`;
* ``GET /trace``    — the most recent finished spans as JSONL
  (``?n=`` caps the count, default 256);
* ``GET /``         — an index of the endpoints plus the obs state
  generation (see :func:`repro.obs.state`).

Handlers snapshot the obs globals once per request (tracer, registry,
and the generation counter), so a concurrent ``obs.reset()`` can never
tear a response — the response describes one consistent generation.

Nothing imports this module on a batch run: ``repro.obs`` resolves
``ObsServer`` lazily, so ``http.server`` (and the ``email``/``html``
packages behind it) load only under ``--obs-port`` or ``dbsynth serve``.
"""

from __future__ import annotations

import json
import sys
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro import obs
from repro.exceptions import ReproError
from repro.obs.export import render_prometheus, span_jsonl_lines

DEFAULT_TRACE_SPANS = 256


class ServiceHandler(BaseHTTPRequestHandler):
    """The wire rules both services share; subclasses add ``do_GET``."""

    protocol_version = "HTTP/1.1"
    #: seconds a connection may sit idle, or one read or write may
    #: stall, before the server drops it.
    timeout = 30
    # A persistent connection stalls 40 ms per response on Nagle +
    # delayed ACK unless writes go out at once; the buffered wfile then
    # joins status line, headers and a small body into one send
    # (handlers that stream flush between chunks).
    disable_nagle_algorithm = True
    wbufsize = -1

    def log_message(self, format: str, *args: object) -> None:
        pass  # silence per-request stderr noise during runs

    def parse_request(self) -> bool:
        if not super().parse_request():
            return False
        if self.command != "GET":
            self.send_error(405, f"method {self.command} not allowed")
            return False
        return True

    def send_body(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:  # the client asked for it, or send_error did
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    @staticmethod
    def json_text(payload: object) -> str:
        return json.dumps(payload, sort_keys=True)

    def send_json(self, status: int, payload: object) -> None:
        self.send_body(
            status, self.json_text(payload), "application/json; charset=utf-8"
        )

    def send_error(self, code, message=None, explain=None) -> None:
        """Every rejection — the stdlib parser's 400/414/431 included —
        is a JSON error, and ends the connection: what follows a refused
        request on the wire cannot be trusted to be a request."""
        self.close_connection = True
        self.send_json(code, {"error": message or HTTPStatus(code).phrase})

    def send_metrics(self, registry) -> None:
        """The one ``/metrics`` renderer (each service passes its registry)."""
        if registry is None:
            text = "# no metrics registry active\n"
        else:
            text = render_prometheus(registry)
        self.send_body(200, text, "text/plain; version=0.0.4; charset=utf-8")


class _Server(ThreadingHTTPServer):
    # http.server's backlog of 5 drops SYNs (a 1 s client retry) when a
    # burst of one-shot clients connects at once.
    request_queue_size = 128

    def handle_error(self, request, client_address) -> None:
        # A client going away is not a server error; anything else keeps
        # the stdlib's traceback on stderr.
        if not isinstance(sys.exc_info()[1], (ConnectionError, TimeoutError)):
            super().handle_error(request, client_address)


class HttpService:
    """Lifecycle of one HTTP endpoint: a :class:`ServiceHandler` subclass
    served by a stdlib threading server, one daemon thread per connection.

    ``port=0`` binds an ephemeral port (read it back from ``.port`` or
    ``.url`` once started). ``start()`` serves from a background daemon
    thread and returns once the socket is bound; ``serve_forever()``
    serves on the calling thread. ``stop()`` returns promptly even with
    idle persistent connections open — their threads are daemons that
    end when the client hangs up or the idle timeout passes.
    """

    name = "http"
    handler: type[ServiceHandler]

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.requested_port = port
        self._server: _Server | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        if self._server is None:
            raise ReproError(f"{self.name} server not started")
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _listen(self) -> _Server:
        if self._server is not None:
            raise ReproError(f"{self.name} server already started")
        try:
            server = _Server((self.host, self.requested_port), self.handler)
        except OSError as exc:
            raise ReproError(
                f"cannot bind {self.name} endpoint on "
                f"{self.host}:{self.requested_port}: {exc}"
            ) from exc
        server.service = self  # handlers reach their service's state here
        self._server = server
        return server

    def serve_forever(self) -> None:
        """Bind and serve on the calling thread until :meth:`stop`."""
        self._listen().serve_forever()

    def start(self):
        """Bind, then serve from a background daemon thread."""
        server = self._listen()
        self._thread = threading.Thread(
            target=server.serve_forever, name=f"repro-{self.name}", daemon=True
        )
        self._thread.start()
        return self

    def join(self) -> None:
        """Block until the background thread exits (the CLI's foreground
        wait; interruptible by Ctrl-C)."""
        if self._thread is not None:
            self._thread.join()

    def stop(self) -> None:
        server, self._server = self._server, None
        if server is None:
            return
        server.shutdown()
        server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class _ObsHandler(ServiceHandler):
    server_version = "repro-obs"

    @staticmethod
    def json_text(payload: object) -> str:
        return json.dumps(payload, indent=2) + "\n"  # read by people, with curl

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        parsed = urlparse(self.path)
        generation, tracer, registry, _profiler = obs.state()
        if parsed.path in ("/", "/index"):
            self.send_json(200, {
                "service": "repro.obs",
                "generation": generation,
                "endpoints": ["/metrics", "/progress", "/trace"],
                "tracing": tracer is not None,
                "metrics": registry is not None,
            })
        elif parsed.path == "/metrics":
            self.send_metrics(registry)
        elif parsed.path == "/progress":
            monitor = self.server.service.progress
            if monitor is None:
                self.send_json(404, {"error": "no progress monitor attached"})
            else:
                self.send_json(200, monitor.as_dict())
        elif parsed.path == "/trace":
            if tracer is None:
                self.send_json(404, {"error": "tracing not enabled"})
            else:
                query = parse_qs(parsed.query)
                try:
                    limit = int(query.get("n", [DEFAULT_TRACE_SPANS])[0])
                except ValueError:
                    limit = DEFAULT_TRACE_SPANS
                lines = span_jsonl_lines(
                    tracer.recent_spans(limit), tracer.epoch_wall
                )
                self.send_body(200, "\n".join(lines) + "\n", "application/x-ndjson")
        else:
            self.send_json(404, {"error": "not found"})


class ObsServer(HttpService):
    """The background telemetry endpoint of one run.

    ``host`` defaults to loopback — exposing run telemetry beyond the
    machine is an explicit operator decision. ``progress`` attaches a
    :class:`~repro.scheduler.progress.ProgressMonitor` for ``/progress``.
    """

    name = "obs"
    handler = _ObsHandler

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        progress=None,
    ) -> None:
        super().__init__(host, port)
        self.progress = progress

    def attach_progress(self, progress) -> None:
        """Attach (or swap) the monitor behind ``/progress`` — callers
        often bind the port before the run's monitor exists."""
        self.progress = progress
