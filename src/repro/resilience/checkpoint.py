"""Run manifests: journaling part watermarks for crash recovery.

PDGF's determinism means a crashed run needs no redo log for the *data*
— any row is recomputable from the seed hierarchy. What recovery needs
is only the position: which bytes of which file are durable. That is
one record, the :class:`Part` watermark — rows ``[start, stop)`` of a
table are the first ``bytes`` bytes of ``file`` — journaled as JSONL
next to the output by the one process that learns a chunk is durable:
the scheduler as its ordered mux flushes, the cluster parent as a node
(which flushes before it reports) completes a package. Watermarks are
monotone per file, so the latest record of a file is its position; the
bytes before a file's first row are its header.

Resume (:class:`RunManifest`) replays nothing. It verifies the model
fingerprint (same model + same output format + same partitioning ⇒ same
bytes), truncates each file to its watermark and schedules only the
rows no watermark covers. The result is byte-identical to an
uninterrupted run — the paper's repeatability argument turned into
fault tolerance, on every runtime.

Journal record types, one JSON object per line:

* ``run`` / ``resume`` — version, fingerprint, seed, package size, sizes.
* ``part`` — file, table, start, stop, bytes; plus the last chunk's
  ``tail_bytes`` and ``sha256`` where the journaling process held it.
* ``table_done`` — a table's final file, footer included, is durable.
* ``run_done`` / ``interrupted`` — terminal markers (informational).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading

# NOTE: this module must not import repro.scheduler — the scheduler
# imports repro.resilience.
from repro.exceptions import SchedulingError
from repro.output.formats import BYTE_OPTIONS

MANIFEST_NAME = "manifest.jsonl"

#: manifest schema version; bumped when record shapes change. Exactly
#: this version is read: there is no second reader for older journals.
MANIFEST_VERSION = 2


def _spec_description(spec) -> dict:
    """Canonical JSON-able form of a GeneratorSpec tree."""
    return {
        "name": spec.name,
        "params": {key: spec.params[key] for key in sorted(spec.params)},
        "children": [_spec_description(child) for child in spec.children],
    }


def _table_description(table, rows: int) -> dict:
    """What determines one table's generated values."""
    return {
        "name": table.name,
        "rows": rows,
        "fields": [
            [f.name, str(f.dtype), _spec_description(f.generator)]
            for f in table.fields
        ],
    }


def _digest(description: dict) -> str:
    canonical = json.dumps(description, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def schema_fingerprint(schema, update: int = 0) -> str:
    """SHA-256 over everything that determines generated *values*.

    The model-identity half of :func:`model_fingerprint`: seed, update
    epoch, per-table resolved sizes, field names, types, and generator
    spec trees — but no output options or partitioning, which only
    affect encoding. Two engines with equal schema fingerprints generate
    identical cell values, which is what lets the ``Dataset`` facade
    cache bound engines by this key.
    """
    return _digest({
        "version": MANIFEST_VERSION,
        "seed": schema.seed,
        "rng": schema.rng,
        "update": update,
        "tables": [
            _table_description(table, schema.table_size(table.name))
            for table in schema.tables
        ],
    })


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
    and any row-range restriction. Deliberately excludes the worker and
    node count — they change scheduling, never bytes, so a checkpoint
    written with ``-w 4`` can be resumed with ``-w 1``.
    """
    return _digest({
        "version": MANIFEST_VERSION,
        "seed": engine.schema.seed,
        "update": engine.update,
        "package_size": package_size,
        "tables": [
            {
                **_table_description(
                    engine.bound_table(name).table, engine.sizes[name]
                ),
                "range": list(row_ranges[name])
                if row_ranges and name in row_ranges else None,
            }
            for name in tables
        ],
        "output": {name: getattr(output, name) for name in BYTE_OPTIONS},
    })


def chunk_digest(chunk) -> tuple[int, str]:
    """``(byte length, sha256 hex)`` of a chunk's bytes.

    Manifest byte counts are true encoded bytes (not ``len(str)``) so
    that resume can truncate output files at exact byte offsets. Binary
    columnar chunks (Arrow/Parquet) are already bytes and hash as-is.
    """
    data = chunk if isinstance(chunk, bytes) else chunk.encode("utf-8")
    return len(data), hashlib.sha256(data).hexdigest()


class Part:
    """The durable-progress record: rows ``[start, stop)`` of ``table``
    are the first ``bytes`` bytes of ``file`` (a path relative to the
    output directory — a table's final file on one node, a part file on
    the cluster, whose ledger grows this same object).

    ``tail_bytes`` / ``sha256`` describe the last chunk behind the
    watermark, recorded only by a process that held the chunk; resume
    checks the file's tail against them.
    """

    __slots__ = ("file", "table", "start", "stop", "bytes", "tail_bytes", "sha256")

    def __init__(
        self, file: str, table: str, start: int, stop: int | None = None,
        bytes: int = 0, tail_bytes: int = 0, sha256: str = "",
    ) -> None:
        self.file = file
        self.table = table
        self.start = start
        self.stop = start if stop is None else stop
        self.bytes = bytes
        self.tail_bytes = tail_bytes
        self.sha256 = sha256

    @property
    def rows(self) -> int:
        return self.stop - self.start

    def grow(self, stop: int, nbytes: int, sha256: str = "") -> None:
        """One more durable chunk: rows up to *stop*, *nbytes* long."""
        self.stop = stop
        self.bytes += nbytes
        self.tail_bytes = nbytes if sha256 else 0
        self.sha256 = sha256

    def packages(self, package_size: int) -> int:
        """Work packages of *package_size* rows the watermark covers."""
        return -(-self.rows // package_size)


class RunManifest:
    """A loaded checkpoint journal, ready to drive a resumed run:
    ``parts`` maps each file to its latest watermark, ``done`` each
    finished table to its ``(rows, bytes)`` totals."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.fingerprint: str | None = None
        self.parts: dict[str, Part] = {}
        self.done: dict[str, tuple[int, int]] = {}
        self.completed = False

    @classmethod
    def load(cls, directory: str) -> "RunManifest":
        manifest = cls(os.path.join(directory, MANIFEST_NAME))
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
                        # the chunk it described never became durable.
                        continue
                    try:
                        manifest._apply(record)
                    except (AttributeError, KeyError, TypeError, ValueError) as exc:
                        raise SchedulingError(
                            f"checkpoint manifest {path!r} line {line_number}: "
                            f"malformed record ({type(exc).__name__}: {exc})"
                        ) from exc
        except OSError as exc:
            raise SchedulingError(
                f"cannot read checkpoint manifest {path!r}: {exc}"
            ) from exc
        if manifest.fingerprint is None:
            raise SchedulingError(
                f"checkpoint manifest {path!r} has no run header"
            )
        return manifest

    def _apply(self, record: dict) -> None:
        kind = record.get("type")
        if kind in ("run", "resume"):
            if record.get("version") != MANIFEST_VERSION:
                raise SchedulingError(
                    f"checkpoint manifest {self.path!r} is format version "
                    f"{record.get('version')}; this release reads and writes "
                    f"version {MANIFEST_VERSION} only — rerun without resuming"
                )
            if self.fingerprint is None:
                self.fingerprint = record["fingerprint"]
            elif record["fingerprint"] != self.fingerprint:
                raise SchedulingError(
                    f"checkpoint manifest {self.path!r}: a resume header's "
                    "fingerprint does not match the original run"
                )
        elif kind == "part":
            part = Part(
                str(record["file"]), str(record["table"]),
                int(record["start"]), int(record["stop"]), int(record["bytes"]),
                int(record.get("tail_bytes", 0)), str(record.get("sha256", "")),
            )
            self.parts[part.file] = part
        elif kind == "table_done":
            self.done[record["table"]] = int(record["rows"]), int(record["bytes"])
        elif kind == "run_done":
            self.completed = True
        # "interrupted" and unknown types are informational only.


class CheckpointWriter:
    """Appends journal records as chunks become durable.

    One writer per run, in the process that owns the run's bookkeeping;
    the per-table muxes reach :meth:`record_part` from their flush loops
    (under their own, per-table locks), so appends are serialized by an
    internal lock. The caller flushes the sink *before* journaling: a
    journaled watermark is durable up to the OS — and the journal itself
    up to the disk when ``fsync`` is on. ``backend`` is the run's derived
    runtime label (``"inline"`` / ``"process"`` / ``"cluster"``) in the
    *header*, informational: resume never reads it.
    """

    def __init__(
        self, directory: str, header: dict, *,
        append: bool = False, fsync: bool = False,
    ) -> None:
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
            **header,
        })

    def _append(self, record: dict) -> None:
        with self._lock:
            if self._handle is None:
                return
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())

    def record_part(self, part: Part) -> None:
        """Journal *part*'s current watermark — the one progress record."""
        record = {
            "type": "part", "file": part.file, "table": part.table,
            "start": part.start, "stop": part.stop, "bytes": part.bytes,
        }
        if part.sha256:
            record.update(tail_bytes=part.tail_bytes, sha256=part.sha256)
        self._append(record)

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


def open_checkpoint(
    engine,
    output,
    package_size: int,
    tables: list[str],
    backend: str,
    *,
    checkpoint: str | None,
    resume_from: str | None,
    row_ranges: dict[str, tuple[int, int]] | None = None,
) -> tuple[RunManifest | None, CheckpointWriter | None]:
    """Fingerprint the run, load the manifest to resume from and open
    the journal — every runtime's resilience set-up.

    Resuming verifies the model fingerprint first: a checkpoint from a
    different model, format, or partitioning would silently splice
    incompatible bytes, so it is refused outright.
    """
    if resume_from is None and checkpoint is None:
        return None, None
    fingerprint = model_fingerprint(engine, output, package_size, tables, row_ranges)
    manifest = None
    if resume_from is not None:
        manifest = RunManifest.load(resume_from)
        if manifest.fingerprint != fingerprint:
            raise SchedulingError(
                "refusing to resume: checkpoint fingerprint "
                f"{manifest.fingerprint[:12]}… does not match this run's "
                f"model/output/partitioning ({fingerprint[:12]}…); "
                "resume requires the identical model, seed, scale, "
                "output format, and package size"
            )
    journal = None
    if checkpoint is not None:
        header = {
            "fingerprint": fingerprint, "seed": engine.schema.seed,
            "package_size": package_size, "backend": backend,
            "tables": {name: engine.sizes[name] for name in tables},
        }
        journal = CheckpointWriter(
            checkpoint, header,
            append=manifest is not None
            and os.path.abspath(checkpoint) == os.path.abspath(resume_from),
        )
    return manifest, journal
