"""Output sinks: where formatted data goes.

PDGF writes "to files, database systems, streaming systems, and modern
big data storage systems" (paper §1). Sinks receive text chunks; they
are the I/O boundary the evaluation isolates by writing to ``/dev/null``
(here: :class:`NullSink`) so that throughput is generation-bound. The
database sink (:class:`SQLiteSink`) is the one load path: it executes
SQL text through a :class:`~repro.db.adapter.DatabaseAdapter`.
"""

from __future__ import annotations

import abc
import hashlib
import io
import os
import threading
import time
from typing import TYPE_CHECKING, Callable

from repro.exceptions import AdapterError, OutputError
from repro.obs import span
from repro.output.formats import encoded_size

if TYPE_CHECKING:
    from repro.db.adapter import DatabaseAdapter

_FILE_BUFFER = 1 << 20
_GZIP_LEVEL = 6


class Sink(abc.ABC):
    """Receives formatted chunks in order. Thread safety is the caller's
    job — each work package writes through the ordered mux, not
    directly. Sinks do not count what they receive: the run's byte
    totals come from :class:`~repro.scheduler.scheduler.RunAccounting`,
    which measures encoded bytes."""

    @abc.abstractmethod
    def write(self, chunk: str) -> None:
        """Append one chunk of formatted output."""

    def flush(self) -> None:
        """Push buffered output toward the OS. Default: nothing buffered.

        The checkpoint journal calls this before recording a package as
        durable, so a journaled package survives a process crash.
        """

    def sync(self) -> None:
        """Force output to stable storage (fsync where applicable).

        Called on SIGINT/emergency teardown so the last journaled
        package is trustworthy even across power loss. Default: flush.
        """
        self.flush()

    def close(self) -> None:
        """Flush and release resources. Default: nothing to do."""

    def __enter__(self) -> "Sink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class NullSink(Sink):
    """Discards output — the ``/dev/null`` substitute used to measure
    CPU-bound generation throughput (paper Figures 4-6)."""

    def write(self, chunk: str) -> None:
        """Drop the chunk."""


def check_durable(
    path: str, offset: int, tail_bytes: int = 0, sha256: str = ""
) -> None:
    """Refuse to resume into *path* unless it holds what a checkpoint
    vouches for: at least *offset* bytes and — when the journal recorded
    the last chunk's length and digest — exactly that chunk right before
    *offset*. A file of the right length with a foreign tail (zero-filled
    blocks after a hard kill) is as lost as a short one."""
    if not os.path.exists(path):
        raise OutputError(f"cannot resume into {path!r}: file does not exist")
    size = os.path.getsize(path)
    problem = None
    if size < offset:
        problem = f"file has {size} bytes but the checkpoint recorded {offset}"
    elif sha256:
        with open(path, "rb") as handle:
            handle.seek(offset - tail_bytes)
            if hashlib.sha256(handle.read(tail_bytes)).hexdigest() != sha256:
                problem = (
                    f"the {tail_bytes} bytes before offset {offset} are not "
                    "the chunk the checkpoint recorded there"
                )
    if problem:
        raise OutputError(
            f"cannot resume into {path!r}: {problem} — the journal outlived "
            "the data (unsynced buffers lost in a hard kill?)"
        )


class FileSink(Sink):
    """Writes to a file with a large buffer (PDGF produces sorted output
    into a single file per table).

    ``resume_at`` reopens an existing file for a checkpointed resume:
    the file is truncated to that byte offset (the durable prefix the
    run manifest vouches for) and new chunks append after it. A file
    shorter than the durable prefix means the checkpoint outlived the
    data (e.g. lost buffers on a hard kill) and is refused.

    ``binary`` opens the file in bytes mode for the binary columnar
    formats (Arrow IPC streams); chunks are then ``bytes`` end to end.
    """

    def __init__(
        self,
        path: str,
        resume_at: int | None = None,
        binary: bool = False,
    ) -> None:
        self.path = path
        mode = "a" if resume_at is not None else "w"
        try:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            if resume_at is not None:
                check_durable(path, resume_at)
                os.truncate(path, resume_at)
            if binary:
                self._handle = open(path, mode + "b", buffering=_FILE_BUFFER)
            else:
                self._handle: io.TextIOWrapper | None = open(
                    path,
                    mode,
                    encoding="utf-8",
                    buffering=_FILE_BUFFER,
                )
        except OSError as exc:
            raise OutputError(f"cannot open {path!r}: {exc}") from exc

    def write(self, chunk: str) -> None:
        if self._handle is None:
            raise OutputError(f"sink for {self.path!r} already closed")
        try:
            self._handle.write(chunk)
        except OSError as exc:
            raise self._failed(exc) from exc

    def flush(self) -> None:
        if self._handle is not None:
            try:
                self._handle.flush()
            except OSError as exc:
                raise self._failed(exc) from exc

    def sync(self) -> None:
        if self._handle is not None:
            try:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except OSError as exc:
                raise self._failed(exc) from exc

    def close(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError as exc:
                raise self._failed(exc) from exc

    def _failed(self, exc: OSError) -> OutputError:
        """A failed write (a full disk, a lost mount) as the typed error
        the CLI reports: the run stops, and ``--resume`` finishes it from
        the checkpoint."""
        return OutputError(f"cannot write {self.path!r}: {exc}")


class GzipFileSink(FileSink):
    """Writes gzip-compressed output (big data sets ship compressed).

    Run reports count the *uncompressed* encoded text so throughput
    numbers stay comparable across sinks; the on-disk size is that of
    :attr:`path` after :meth:`close`.
    """

    def __init__(self, path: str) -> None:
        import gzip

        self.path = path
        try:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            self._handle = gzip.open(path, "wt", encoding="utf-8",
                                     compresslevel=_GZIP_LEVEL)
        except OSError as exc:
            raise OutputError(f"cannot open {path!r}: {exc}") from exc


class MemorySink(Sink):
    """Collects output in memory; used by previews and tests.

    Chunks may be text or bytes (binary columnar formats); a run never
    mixes the two, and :meth:`getvalue` joins with whichever type it
    collected.
    """

    def __init__(self) -> None:
        self._parts: list = []

    def write(self, chunk) -> None:
        self._parts.append(chunk)

    def getvalue(self):
        parts = self._parts
        if parts and isinstance(parts[0], bytes):
            return b"".join(parts)
        return "".join(parts)


class CallbackSink(Sink):
    """Forwards chunks to a callable — the streaming-system hookup."""

    def __init__(self, callback: Callable[[str], None]) -> None:
        self._callback = callback

    def write(self, chunk: str) -> None:
        self._callback(chunk)


class SQLiteSink(Sink):
    """Executes SQL chunks against a database.

    Pair with :class:`~repro.output.writers.SqlWriter`; this is the
    "load into the target database using SQL statements generated by
    PDGF" path (paper §3), and the one every load takes
    (:func:`repro.core.load`). Each chunk runs through the adapter's
    ``execute_script``, one transaction: it loads whole or, when a
    statement fails, not at all.

    *database* is a SQLite path the sink opens and closes, or an open
    :class:`~repro.db.adapter.DatabaseAdapter` the sink borrows and
    never closes (how a ``:memory:`` target reaches a run). Execution is
    serialized with a lock: a connection is not safe to share between
    writers.
    """

    def __init__(self, database: str | DatabaseAdapter) -> None:
        self._owned = isinstance(database, str)
        if self._owned:
            # the cost of --kind sqlite, not of every run
            from repro.db.sqlite_adapter import SQLiteAdapter

            database = SQLiteAdapter(database)
        self._adapter = database
        self._lock = threading.Lock()

    def write(self, chunk: str) -> None:
        with self._lock:
            if self._adapter is None:
                raise OutputError("SQLite sink already closed")
            try:
                self._adapter.execute_script(chunk)
            except AdapterError as exc:
                raise OutputError(f"SQL load failed: {exc}") from exc

    def close(self) -> None:
        # Idempotent: the emergency teardown path may close a sink the
        # normal path closes again. Nothing to commit: every chunk did.
        with self._lock:
            adapter, self._adapter = self._adapter, None
            if adapter is not None and self._owned:
                adapter.close()


class InFlightWindow:
    """Bounds the number of dispatched-but-unflushed work packages.

    The pool's dispatcher takes one slot per package *before* handing it
    to a worker (:meth:`try_acquire`; with none free it collects results
    instead of blocking); the ordered mux releases the slot when the
    package's chunk reaches its sink. With ``limit = workers + k`` this
    caps the memory held in finished-but-undelivered chunks
    (backpressure). ``max_in_flight`` is the observed high-water mark
    (test/benchmark introspection).
    """

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise OutputError(f"in-flight window must be >= 1, got {limit}")
        self.limit = limit
        self.max_in_flight = 0
        self._available = limit
        self._lock = threading.Lock()

    def try_acquire(self) -> bool:
        """Take a slot if one is free right now (non-blocking)."""
        with self._lock:
            if self._available <= 0:
                return False
            self._available -= 1
            self.max_in_flight = max(
                self.max_in_flight, self.limit - self._available
            )
            return True

    def release(self, count: int = 1) -> None:
        with self._lock:
            self._available = min(self._available + count, self.limit)

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self.limit - self._available


class OrderedSinkMux:
    """Reorders concurrently produced work packages into one sink.

    Workers finish packages out of order; PDGF still "writes sorted
    output into a single file" (paper §4). Each package calls
    :meth:`submit` with its sequence number; chunks are buffered until
    all predecessors have been written. When a ``window`` is attached,
    every flushed chunk releases one in-flight slot back to the
    scheduler's dispatcher, and ``max_pending`` records the most chunks
    ever buffered (it can never exceed the window's limit).

    The mux is the single point every chunk passes through, so it also
    carries the output system's telemetry: ``write_seconds`` /
    ``flushes`` accumulate sink write time and count, and are mirrored
    into the active metrics registry (labelled by ``name``).

    Flushing is exception-safe: a sink failure is recorded and re-raised
    from every later :meth:`submit` and from :meth:`finish`, so callers
    see the original :class:`OutputError` instead of a misleading
    duplicate/never-arrived complaint, and timing/flush counters still
    cover the partial flush.

    Resilience hooks: ``first_sequence`` starts the ordering cursor past
    a resumed run's durable prefix; ``on_flush(sequence, chunk)`` fires
    after each chunk reaches the sink (the checkpoint journal's feed).
    Each chunk is written once: a failed write is not retried here,
    because only the sink knows whether its write is idempotent — the
    run stops and ``--resume`` regenerates from the journaled watermark.
    """

    def __init__(
        self,
        sink: Sink,
        name: str = "",
        window: InFlightWindow | None = None,
        *,
        first_sequence: int = 0,
        on_flush=None,
    ) -> None:
        self._sink = sink
        self.name = name
        self._next = first_sequence
        self._pending: dict[int, str] = {}
        self._lock = threading.Lock()
        self._window = window
        self._on_flush = on_flush
        self._failure: BaseException | None = None
        self.write_seconds = 0.0
        self.flushes = 0
        self.max_pending = 0

    def submit(self, sequence: int, chunk: str) -> None:
        with self._lock:
            if self._failure is not None:
                raise self._failure
            if sequence < self._next or sequence in self._pending:
                raise OutputError(f"duplicate work package {sequence}")
            self._pending[sequence] = chunk
            if len(self._pending) > self.max_pending:
                self.max_pending = len(self._pending)
            if self._next not in self._pending:
                return  # out of order; a predecessor will flush this chunk
            flushed = 0
            written = 0
            started = time.perf_counter()
            try:
                with span("sink.write", table=self.name) as write_span:
                    while self._next in self._pending:
                        pending = self._pending.pop(self._next)
                        self._sink.write(pending)
                        if self._on_flush is not None:
                            self._on_flush(self._next, pending)
                        written += encoded_size(pending)
                        self._next += 1
                        flushed += 1
                    write_span.set(chunks=flushed, bytes=written)
            except BaseException as exc:
                self._failure = exc
                raise
            finally:
                self.write_seconds += time.perf_counter() - started
                self.flushes += flushed
                if self._window is not None and flushed:
                    self._window.release(flushed)

    def finish(self) -> None:
        """Assert every buffered package was flushed."""
        with self._lock:
            if self._failure is not None:
                raise self._failure
            if self._pending:
                missing = self._next
                raise OutputError(
                    f"work package {missing} never arrived; "
                    f"{len(self._pending)} packages stuck"
                )
