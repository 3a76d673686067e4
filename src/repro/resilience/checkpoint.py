"""Run manifests: journaling completed work packages for crash recovery.

PDGF's determinism means a crashed run needs no redo log for the *data*
— any row is recomputable from the seed hierarchy. What recovery needs
is only the position: which work packages already reached durable
output. The checkpoint is therefore a tiny JSONL journal next to the
output (one line per flushed package, with byte counts and SHA-256
digests), written by the parent as the ordered mux flushes chunks, so
records are per-table contiguous by construction.

Resume (:class:`RunManifest`) replays nothing. It verifies the model
fingerprint (same model + same output format + same partitioning ⇒ same
bytes), truncates each table file to its durable prefix, and schedules
only the missing tail packages. The result is byte-identical to an
uninterrupted run — the paper's repeatability argument turned into
fault tolerance.

Journal record types, one JSON object per line:

* ``run`` / ``resume`` — fingerprint, seed, package size, table sizes.
* ``table_start`` — header bytes written for a table.
* ``package`` — table, sequence, row range, rows, bytes, sha256.
* ``table_done`` — a table's footer is durable; totals for skip-on-resume.
* ``run_done`` / ``interrupted`` — terminal markers (informational).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass

# NOTE: this module must not import repro.scheduler — the scheduler
# imports repro.resilience, and work packages are duck-typed here
# (table/sequence/start/stop/rows attributes).
from repro.exceptions import SchedulingError

MANIFEST_NAME = "manifest.jsonl"

#: manifest schema version; bumped when record shapes change.
MANIFEST_VERSION = 1


def _spec_description(spec) -> dict:
    """Canonical JSON-able form of a GeneratorSpec tree."""
    return {
        "name": spec.name,
        "params": {key: spec.params[key] for key in sorted(spec.params)},
        "children": [_spec_description(child) for child in spec.children],
    }


def schema_fingerprint(schema, update: int = 0) -> str:
    """SHA-256 over everything that determines generated *values*.

    The model-identity half of :func:`model_fingerprint`: seed, update
    epoch, per-table resolved sizes, field names, types, and generator
    spec trees — but no output options or partitioning, which only
    affect encoding. Two engines with equal schema fingerprints generate
    identical cell values, which is what lets the ``Dataset`` facade
    cache bound engines by this key.
    """
    description = {
        "version": MANIFEST_VERSION,
        "seed": schema.seed,
        "rng": schema.rng,
        "update": update,
        "tables": [
            {
                "name": table.name,
                "rows": schema.table_size(table.name),
                "fields": [
                    [f.name, str(f.dtype), _spec_description(f.generator)]
                    for f in table.fields
                ],
            }
            for table in schema.tables
        ],
    }
    canonical = json.dumps(description, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def model_fingerprint(
    engine,
    output,
    package_size: int,
    tables: list[str],
    row_ranges: dict[str, tuple[int, int]] | None = None,
) -> str:
    """SHA-256 over everything that determines the output bytes.

    Covers the model (seed, update epoch, per-table sizes, field names,
    types, and generator spec trees), the format-affecting output
    options, the package size (partition boundaries), the table list,
    and any row-range restriction. Deliberately excludes the worker
    count — it changes scheduling, never bytes, so a checkpoint written
    with ``-w 4`` can be resumed with ``-w 1``.
    """
    tables_desc = []
    for name in tables:
        table = engine.bound_table(name).table
        ranged = None
        if row_ranges and name in row_ranges:
            ranged = list(row_ranges[name])
        tables_desc.append({
            "name": name,
            "rows": engine.sizes[name],
            "range": ranged,
            "fields": [
                [f.name, str(f.dtype), _spec_description(f.generator)]
                for f in table.fields
            ],
        })
    description = {
        "version": MANIFEST_VERSION,
        "seed": engine.schema.seed,
        "update": engine.update,
        "package_size": package_size,
        "tables": tables_desc,
        "output": {
            "format": output.format,
            "delimiter": output.delimiter,
            "include_header": output.include_header,
            "null_token": output.null_token,
            "date_format": output.date_format,
            "timestamp_format": output.timestamp_format,
            "float_places": output.float_places,
        },
    }
    canonical = json.dumps(description, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def chunk_digest(chunk) -> tuple[int, str]:
    """``(byte length, sha256 hex)`` of a chunk's bytes.

    Manifest byte counts are true encoded bytes (not ``len(str)``) so
    that resume can truncate output files at exact byte offsets. Binary
    columnar chunks (Arrow/Parquet) are already bytes and hash as-is.
    """
    data = chunk if isinstance(chunk, bytes) else chunk.encode("utf-8")
    return len(data), hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class PackageRecord:
    """One journaled work package: where it sits and what it wrote."""

    table: str
    sequence: int
    start: int
    stop: int
    rows: int
    bytes: int
    sha256: str


class TableState:
    """Recovered per-table position: durable prefix + completion."""

    __slots__ = ("name", "header_bytes", "records", "done",
                 "done_rows", "done_bytes")

    def __init__(self, name: str) -> None:
        self.name = name
        self.header_bytes: int | None = None
        self.records: dict[int, PackageRecord] = {}
        self.done = False
        self.done_rows = 0
        self.done_bytes = 0

    def durable_prefix(self) -> list[PackageRecord]:
        """The contiguous run of packages from sequence 0.

        The mux flushes in sequence order, so journal records are
        contiguous by construction; any gap (a corrupt or hand-edited
        manifest) ends the trustworthy prefix.
        """
        prefix = []
        sequence = 0
        while sequence in self.records:
            prefix.append(self.records[sequence])
            sequence += 1
        return prefix


class RunManifest:
    """A loaded checkpoint journal, ready to drive a resumed run."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.fingerprint: str | None = None
        self.seed: int | None = None
        self.package_size: int | None = None
        self.tables: dict[str, TableState] = {}
        self.completed = False

    @property
    def path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    @classmethod
    def load(cls, directory: str) -> "RunManifest":
        manifest = cls(directory)
        path = manifest.path
        if not os.path.exists(path):
            raise SchedulingError(
                f"no checkpoint manifest at {path!r}; nothing to resume"
            )
        try:
            with open(path, encoding="utf-8") as handle:
                for line_number, line in enumerate(handle, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        # A torn final line is the expected crash artifact:
                        # the package it described never became durable.
                        continue
                    manifest._apply(record, line_number)
        except OSError as exc:
            raise SchedulingError(
                f"cannot read checkpoint manifest {path!r}: {exc}"
            ) from exc
        if manifest.fingerprint is None:
            raise SchedulingError(
                f"checkpoint manifest {path!r} has no run header"
            )
        return manifest

    def _table(self, name: str) -> TableState:
        state = self.tables.get(name)
        if state is None:
            state = TableState(name)
            self.tables[name] = state
        return state

    def _apply(self, record: dict, line_number: int) -> None:
        kind = record.get("type")
        if kind in ("run", "resume"):
            if self.fingerprint is None:
                self.fingerprint = record.get("fingerprint")
                self.seed = record.get("seed")
                self.package_size = record.get("package_size")
            elif record.get("fingerprint") != self.fingerprint:
                raise SchedulingError(
                    f"manifest line {line_number}: resume header fingerprint "
                    "does not match the original run"
                )
        elif kind == "table_start":
            self._table(record["table"]).header_bytes = int(
                record.get("header_bytes", 0)
            )
        elif kind == "package":
            state = self._table(record["table"])
            state.records[int(record["sequence"])] = PackageRecord(
                table=record["table"],
                sequence=int(record["sequence"]),
                start=int(record["start"]),
                stop=int(record["stop"]),
                rows=int(record["rows"]),
                bytes=int(record["bytes"]),
                sha256=record.get("sha256", ""),
            )
        elif kind == "table_done":
            state = self._table(record["table"])
            state.done = True
            state.done_rows = int(record.get("rows", 0))
            state.done_bytes = int(record.get("bytes", 0))
        elif kind == "run_done":
            self.completed = True
        # "interrupted" and unknown types are informational only.


class CheckpointWriter:
    """Appends journal records as packages become durable.

    One writer per run; the per-table muxes call :meth:`record_package`
    from their flush loops (under their own, per-table locks), so
    appends are serialized by an internal lock. The sink is flushed
    before the record is journaled: a journaled package is durable up to
    the OS — and up to the disk when ``fsync`` is on. ``backend`` is the
    run's derived runtime label (``"inline"`` / ``"process"`` /
    ``"cluster"``), informational: resume never reads it.
    """

    def __init__(
        self,
        directory: str,
        *,
        fingerprint: str,
        seed: int,
        package_size: int,
        tables: dict[str, int],
        backend: str,
        append: bool = False,
        fsync: bool = False,
    ) -> None:
        self.directory = directory
        self.fsync = fsync
        self._lock = threading.Lock()
        try:
            os.makedirs(directory, exist_ok=True)
            self._handle = open(
                os.path.join(directory, MANIFEST_NAME),
                "a" if append else "w",
                encoding="utf-8",
            )
        except OSError as exc:
            raise SchedulingError(
                f"cannot open checkpoint manifest in {directory!r}: {exc}"
            ) from exc
        self._append({
            "type": "resume" if append else "run",
            "version": MANIFEST_VERSION,
            "fingerprint": fingerprint,
            "seed": seed,
            "package_size": package_size,
            "backend": backend,
            "tables": tables,
        })

    def _append(self, record: dict) -> None:
        with self._lock:
            if self._handle is None:
                return
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())

    def table_start(self, table: str, header_bytes: int, sink=None) -> None:
        """Journal a table's header after making it durable.

        The header is flushed before being recorded; otherwise a crash
        between journaling and the first package flush could leave a
        ``table_start`` line vouching for bytes that never hit the file.
        """
        if sink is not None:
            sink.flush()
        self._append({
            "type": "table_start", "table": table, "header_bytes": header_bytes,
        })

    def record_package(self, package, chunk: str, sink) -> None:
        """Journal one flushed package, making it durable first."""
        sink.flush()
        size, digest = chunk_digest(chunk)
        self._append({
            "type": "package",
            "table": package.table,
            "sequence": package.sequence,
            "start": package.start,
            "stop": package.stop,
            "rows": package.rows,
            "bytes": size,
            "sha256": digest,
        })

    def table_done(self, table: str, rows: int, bytes_written: int) -> None:
        self._append({
            "type": "table_done", "table": table,
            "rows": rows, "bytes": bytes_written,
        })

    def run_done(self) -> None:
        self._append({"type": "run_done"})

    def interrupted(self, reason: str = "") -> None:
        self._append({"type": "interrupted", "reason": reason})

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                os.fsync(self._handle.fileno())
                self._handle.close()
                self._handle = None
