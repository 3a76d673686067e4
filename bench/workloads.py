"""The five workloads, measured end to end through the program's public
surfaces with tracing off.

A workload is fixed inputs plus a run mode. ``setup`` builds the inputs
and runs one untimed warm-up, ``repeat`` runs the fixed work once and
returns its samples of each end-to-end metric, ``verify`` checks every
output that the repeats produced. The workload seed reaches the IMDb source
content, the serve request list and the sampled check ranges; the
program only ever receives the generated inputs.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import shutil
import threading
import time
from dataclasses import dataclass

import check
import models
import stats
from program import Client, ServerProcess, log_tail, run_dbsynth

MIB = 1024 * 1024


class BatchWorkload:
    """``dbsynth generate`` to files, cold start included.

    One repeat runs the workload's interactive command (``interactive_ms``)
    and then the generate command, whose wall-clock, process-tree CPU and
    peak RSS give the other three metrics.
    """

    name = ""
    fmt = "csv"
    generate_flags: tuple[str, ...] = ()
    #: interactive commands per repeat; a third-of-a-second command is
    #: the noisiest thing measured, so the cheap one is sampled three times
    interactive_runs = 3

    def __init__(self, sizes: models.Sizes, seed: int, work_dir: str) -> None:
        self.sizes = sizes
        self.seed = seed
        self.work_dir = work_dir
        self.log_path = os.path.join(work_dir, f"{self.name}.log")
        self.checks = check.Checks()
        self.model: models.Model | None = None
        self.digests: list[dict] = []
        self.last_output = ""

    # -- per-workload parts --------------------------------------------------

    def prepare(self) -> models.Model:
        """Build the inputs; returns the model the commands name."""
        raise NotImplementedError

    def interactive(self):
        """``dbsynth preview -n 1``: cold start to the first rows."""
        return self._run(["preview", *self.model.cli_args, "-n", "1"])

    def info(self) -> dict:
        return {"scale_factor": self.model.scale_factor, "format": self.fmt}

    # -- the common run ------------------------------------------------------

    def _run(self, args: list[str]):
        result = run_dbsynth(args, self.log_path)
        self.checks.record(
            result.returncode == 0,
            f"dbsynth {' '.join(args)} exited {result.returncode}:\n"
            + log_tail(self.log_path),
        )
        return result

    def _generate(self, model: models.Model, directory: str, flags=None):
        flags = self.generate_flags if flags is None else flags
        return self._run([
            "generate", *model.cli_args, *flags,
            "--format", self.fmt, "-d", directory, "-q",
        ])

    def setup(self) -> None:
        self.model = self.prepare()
        self.interactive()
        warm_dir = os.path.join(self.work_dir, "warmup")
        self._generate(
            self.model.at_scale(self.model.scale_factor / 50), warm_dir
        )
        shutil.rmtree(warm_dir, ignore_errors=True)

    def repeat(self) -> dict[str, list[float]]:
        if self.last_output:
            shutil.rmtree(self.last_output, ignore_errors=True)
        directory = os.path.join(self.work_dir, f"out-{len(self.digests)}")
        interactive = [self.interactive() for _ in range(self.interactive_runs)]
        generated = self._generate(self.model, directory)
        digests = check.file_digests(directory) if os.path.isdir(directory) else {}
        self.digests.append(digests)
        self.last_output = directory
        output_bytes = sum(size for size, _ in digests.values())
        return {
            "output_mb_per_s": [output_bytes / MIB / generated.wall_s],
            "program_cpu_s": [generated.cpu_s],
            "peak_rss_mb": [generated.peak_rss_mb],
            "interactive_ms": [run.wall_s * 1000.0 for run in interactive],
        }

    def verify(self) -> None:
        for index, digests in enumerate(self.digests[1:], start=1):
            check.check_same_digests(
                self.checks, f"repeat {index} vs repeat 0",
                self.digests[0], digests,
            )
        check.check_batch_output(
            self.checks, self.last_output, self.model.dataset(),
            self.fmt, self.seed,
        )

    def teardown(self) -> None:
        pass


class TpchFiles(BatchWorkload):
    name = "tpch_files"

    def prepare(self) -> models.Model:
        return models.Model(self.sizes.tpch_sf, suite="tpch")


class TypedFiles(BatchWorkload):
    name = "typed_files"

    def prepare(self) -> models.Model:
        return models.write_typed_model(
            os.path.join(self.work_dir, "typed_model"), self.sizes.typed_rows
        )

    def info(self) -> dict:
        return {**super().info(), "rows": self.sizes.typed_rows}


class ImdbRoundtrip(BatchWorkload):
    """Extract a model from the source database, then generate from it.
    The interactive command is the extraction (the paper's "interactive
    model generation"); every repeat extracts afresh.

    Sampling is ``systematic`` because the default ``bernoulli`` strategy
    draws from SQLite's unseeded ``random()``: two extractions of one
    source then build different dictionaries and Markov chains, and the
    repeats would neither do the same work nor hash alike.
    """

    name = "imdb_roundtrip"
    fmt = "json"
    interactive_runs = 1  # the extraction, three quarters of a second

    def prepare(self) -> models.Model:
        self.source = os.path.join(self.work_dir, "imdb_source.db")
        models.build_imdb_source(self.source, self.sizes, self.seed)
        return models.Model(
            self.sizes.imdb_sf,
            directory=os.path.join(self.work_dir, "imdb_project"),
        )

    def interactive(self):
        shutil.rmtree(self.model.directory, ignore_errors=True)
        return self._run([
            "extract", self.source, "-o", self.model.directory,
            "--strategy", "systematic",
        ])

    def info(self) -> dict:
        return {
            **super().info(),
            "source_movies": self.sizes.imdb_movies,
            "source_people": self.sizes.imdb_people,
        }


class TpchCluster(TpchFiles):
    """Same model and bytes as ``tpch_files`` on the process-per-node
    runtime, fixed at 2 nodes whatever the host has."""

    name = "tpch_cluster"
    generate_flags = ("--nodes", "2", "--distributed")

    def verify(self) -> None:
        super().verify()
        # one untimed single-node run: the merged cluster output must
        # hash like the files tpch_files writes
        reference_dir = os.path.join(self.work_dir, "single-node")
        self._generate(self.model, reference_dir, flags=())
        check.check_same_digests(
            self.checks, "cluster vs single node",
            check.file_digests(reference_dir), self.digests[-1],
        )


# -- serve -------------------------------------------------------------------

SERVE_TABLES = ("lineitem", "orders", "customer")
RANGE_LENGTHS = (1, 16, 64, 512, 4096)
RANGE_WEIGHTS = (30, 30, 25, 12, 3)
SERVE_FORMATS = ("csv", "json")
SERVE_PACKAGE_SIZE = 2000
#: closed-loop clients; one process, never more threads than the 2 cores
CONNECTIONS = 2
WARMUP_REQUESTS = 20


@dataclass(frozen=True)
class Request:
    table: str
    start: int
    stop: int
    fmt: str

    @property
    def path(self) -> str:
        return f"/table/{self.table}/rows/{self.start}-{self.stop}?format={self.fmt}"


def build_requests(
    table_sizes: dict[str, int], seed: int, count: int,
    tables: tuple[str, ...] = SERVE_TABLES,
    lengths: tuple[int, ...] = RANGE_LENGTHS,
    weights: tuple[int, ...] = RANGE_WEIGHTS,
) -> list[Request]:
    """The seeded request list: many small random reads, few scans.

    The mix is fixed — each range length gets its weight's share of the
    list, spread evenly over tables and formats — and the seed draws the
    row offsets and the order. A list drawn freely would hold 8 to 22
    scans of 4096 rows depending on the seed, and since those are most
    of the time, every seed would be a different amount of work.
    """
    rng = random.Random(seed)
    targets = [(table, fmt) for table in tables for fmt in SERVE_FORMATS]
    requests = []
    total = sum(weights)
    cumulative = 0
    for length, weight in zip(lengths, weights):
        # shares from rounded cumulative weights add up to count exactly
        first = round(count * cumulative / total)
        cumulative += weight
        for number in range(round(count * cumulative / total) - first):
            table, fmt = targets[number % len(targets)]
            size = table_sizes[table]
            rows = min(length, size)
            start = rng.randrange(0, size - rows + 1)
            requests.append(Request(table, start, start + rows, fmt))
    rng.shuffle(requests)
    return requests


@dataclass
class LoopResult:
    """One pass over a request list. ``digests[i]`` is the SHA-256 of
    request *i*'s body, empty when it failed; ``latencies_s[i]`` its
    latency; ``late_s[i]`` how long after its due time it was sent."""

    wall_s: float
    latencies_s: list[float]
    late_s: list[float]
    digests: list[str]
    body_bytes: int
    connects: int


def drive(
    host: str, port: int, requests: list[Request],
    connections: int = CONNECTIONS, rate: float | None = None,
) -> LoopResult:
    """Send *requests* over *connections* client threads.

    ``rate=None`` is the closed loop: a thread sends its next request as
    soon as the previous one completed. With a rate the loop is open:
    request *i* is due at ``i / rate`` seconds whatever came before, and
    its latency counts from the due time, so a stall shows up in every
    request queued behind it.
    """
    count = len(requests)
    latencies = [0.0] * count
    late = [0.0] * count
    digests = [""] * count
    sizes = [0] * count
    next_index = [0]
    lock = threading.Lock()
    clients = [Client(host, port) for _ in range(connections)]

    def worker(client: Client) -> None:
        while True:
            with lock:
                index = next_index[0]
                next_index[0] += 1
            if index >= count:
                return
            due = started + index / rate if rate else time.perf_counter()
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            try:
                status, body = client.get(requests[index].path)
            except (OSError, http.client.HTTPException):
                status, body = 0, b""
            latencies[index] = time.perf_counter() - due
            late[index] = sent - due
            if status == 200:
                digests[index] = hashlib.sha256(body).hexdigest()
                sizes[index] = len(body)

    threads = [
        threading.Thread(target=worker, args=(client,)) for client in clients
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    for client in clients:
        client.close()
    return LoopResult(
        wall, latencies, late, digests, sum(sizes),
        sum(client.connects for client in clients),
    )


def table_sizes(host: str, port: int) -> dict[str, int]:
    """Row counts as the server's own ``/tables`` endpoint reports them."""
    client = Client(host, port)
    try:
        status, body = client.get("/tables")
    finally:
        client.close()
    if status != 200:
        raise RuntimeError(f"GET /tables answered {status}")
    return {
        name: entry["rows"]
        for name, entry in json.loads(body)["tables"].items()
    }


class ServeRanges:
    """Closed-loop range reads against ``dbsynth serve`` on 2 connections.

    One repeat is one pass over the seeded request list. ``interactive_ms``
    is the median request latency of the pass, ``output_mb_per_s`` the
    body bytes received per second of the pass, ``program_cpu_s`` and
    ``peak_rss_mb`` the server process's CPU over the pass and its
    high-water RSS.
    """

    name = "serve_ranges"

    def __init__(self, sizes: models.Sizes, seed: int, work_dir: str) -> None:
        self.sizes = sizes
        self.seed = seed
        self.log_path = os.path.join(work_dir, "serve_ranges.log")
        self.checks = check.Checks()
        self.model = models.Model(sizes.tpch_sf, suite="tpch")
        self.server: ServerProcess | None = None
        self.requests: list[Request] = []
        self.passes: list[LoopResult] = []

    def info(self) -> dict:
        return {
            "scale_factor": self.model.scale_factor,
            "requests": len(self.requests),
            "connections": CONNECTIONS,
        }

    def setup(self) -> None:
        self.server = ServerProcess(
            self.model.cli_args, self.log_path,
            workers=CONNECTIONS, package_size=SERVE_PACKAGE_SIZE,
        ).start()
        sizes = table_sizes(self.server.host, self.server.port)
        self.requests = build_requests(sizes, self.seed, self.sizes.serve_requests)
        # its own small list, not the head of the big one: the same mix
        # (one scan included) whatever the seed shuffled to the front
        drive(
            self.server.host, self.server.port,
            build_requests(sizes, self.seed, WARMUP_REQUESTS),
        )

    def repeat(self) -> dict[str, list[float]]:
        cpu_before = self.server.cpu_seconds()
        result = drive(self.server.host, self.server.port, self.requests)
        cpu = self.server.cpu_seconds() - cpu_before
        self.passes.append(result)
        return {
            "output_mb_per_s": [result.body_bytes / MIB / result.wall_s],
            "program_cpu_s": [cpu],
            "peak_rss_mb": [self.server.peak_rss_mb()],
            "interactive_ms": [stats.median(result.latencies_s) * 1000.0],
        }

    def verify(self) -> None:
        expected = check.reference_digests(
            self.model.dataset(SERVE_PACKAGE_SIZE), self.requests
        )
        for result in self.passes:
            check.check_served_bodies(
                self.checks, self.requests, expected, result.digests
            )

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOADS = {
    cls.name: cls
    for cls in (TpchFiles, TypedFiles, ImdbRoundtrip, TpchCluster, ServeRanges)
}
