"""Arrow IPC and Parquet output — the binary columnar formats.

PDGF targets "modern big data storage systems" (paper §1); Arrow record
batches and Parquet files are today's lingua franca for that. Both
formats are served by one writer: the engine's
:class:`~repro.columnar.ColumnBlock` converts to an Arrow record batch
zero-copy for the typed kinds (int64/float64/bool arrays, date32 from
ordinals, dictionary-encoded picks), and the chunk the writer returns is
*bytes*, flowing through the same ordered mux / checkpoint machinery as
text chunks.

Framing differs per format:

* ``arrow`` — one Arrow IPC *stream* per table file. Workers format
  packages independently, so the schema message is emitted inside the
  first package's chunk (sequence 0) and every chunk after that is a
  bare record-batch message; the footer is the stream's end-of-stream
  marker. Byte offsets therefore checkpoint exactly like CSV.
* ``parquet`` — every chunk is a *standalone* mini-stream
  (schema + batch + EOS); :class:`ParquetSink` decodes it and writes one
  Parquet row group per chunk, which makes checkpoint flush boundaries
  row-group-aligned by construction.

``pyarrow`` is an optional extra: everything here imports it lazily and
fails with a clear :class:`OutputError` when it is missing.
"""

from __future__ import annotations

import os

from repro import columnar
from repro.exceptions import OutputError
from repro.output.sinks import Sink
from repro.output.writers import RowWriter

#: Arrow IPC end-of-stream marker (continuation sentinel + zero length)
ARROW_EOS = b"\xff\xff\xff\xff\x00\x00\x00\x00"

#: datetime.date(1970, 1, 1).toordinal() — date32 epoch offset
_EPOCH_ORDINAL = 719163


def have_pyarrow() -> bool:
    """True when the optional pyarrow dependency is importable."""
    import importlib.util

    return importlib.util.find_spec("pyarrow") is not None


def require_pyarrow(feature: str):
    """Import and return pyarrow, or raise a clear :class:`OutputError`."""
    try:
        import pyarrow
    except ImportError:
        raise OutputError(
            f"{feature} requires pyarrow, which is not installed; "
            "install the optional extra (pip install 'repro[arrow]')"
        ) from None
    return pyarrow


def column_to_arrow(column: columnar.Column, formatter, pa):
    """One engine column as an Arrow array, zero-copy where typed.

    Typed kinds convert without touching individual values: numpy
    int64/float64/bool arrays are wrapped directly (with the null mask),
    date ordinals shift to days-since-epoch date32, dictionary picks
    become a ``DictionaryArray`` over the entry list. Object columns let
    Arrow infer; if the values are too mixed for inference they are
    formatted to strings — the one per-value path, and only for columns
    the text writers format per value anyway.
    """
    mask = column.nulls
    kind = column.kind
    if kind in ("int", "float", "bool"):
        return pa.array(column.data, mask=mask)
    if kind == "date":
        days = (column.data - _EPOCH_ORDINAL).astype("int32")
        return pa.array(days, mask=mask).cast(pa.date32())
    if kind == "dict":
        indices = pa.array(column.data.astype("int32"), mask=mask)
        return pa.DictionaryArray.from_arrays(
            indices, pa.array(column.entries, type=pa.string())
        )
    if kind == "str":
        return pa.array(column.to_pylist(), type=pa.string())
    values = column.to_pylist()
    try:
        return pa.array(values)
    except (pa.ArrowInvalid, pa.ArrowTypeError, pa.ArrowNotImplementedError):
        fmt = formatter.format
        return pa.array(
            [None if value is None else fmt(value) for value in values],  # columnar-ok: mixed-type fallback
            type=pa.string(),
        )


class ArrowWriter(RowWriter):
    """Writes column blocks as Arrow record batches (bytes chunks).

    ``mode="stream"`` frames chunks for one continuous IPC stream per
    file; ``mode="parquet"`` makes each chunk self-describing for
    :class:`ParquetSink`. Binary formats have no row-text form, so
    ``write_row``/``write_rows`` refuse; every run formats through
    :meth:`write_block`.
    """

    format_name = "arrow"
    supports_columns = True

    def __init__(
        self,
        table: str,
        columns: list[str],
        formatter=None,
        mode: str = "stream",
    ) -> None:
        super().__init__(table, columns, formatter)
        if mode not in ("stream", "parquet"):
            raise OutputError(f"unknown arrow writer mode {mode!r}")
        self.mode = mode

    def header(self) -> str:
        # The schema message travels inside the first package's chunk
        # (each worker builds its own writer, so only the package that
        # knows it is sequence 0 may emit stream framing).
        return ""

    def footer(self):
        return ARROW_EOS if self.mode == "stream" else b""

    def write_row(self, values: list[object]):
        raise OutputError(
            f"{self.format_name} output is columnar-only; "
            "row-at-a-time writing is not supported"
        )

    def write_rows(self, rows: list[list[object]]):
        raise OutputError(
            f"{self.format_name} output is columnar-only; "
            "use write_block with a ColumnBlock"
        )

    def write_block(self, block: columnar.ColumnBlock, first: bool = False) -> bytes:
        pa = require_pyarrow(f"{self.format_name} output")
        arrays = [
            column_to_arrow(column, self.formatter, pa) for column in block.columns
        ]
        batch = pa.record_batch(arrays, names=list(block.names))
        buffer = pa.BufferOutputStream()
        writer = pa.ipc.new_stream(buffer, batch.schema)
        schema_end = buffer.tell()
        writer.write_batch(batch)
        batch_end = buffer.tell()
        writer.close()
        data = buffer.getvalue().to_pybytes()
        if self.mode == "parquet":
            # Self-describing mini-stream, one per chunk (incl. EOS).
            return data
        if first:
            return data[:batch_end]
        return data[schema_end:batch_end]


class ParquetSink(Sink):
    """Writes Arrow mini-stream chunks as Parquet row groups.

    One chunk (work package) becomes exactly one row group, so the
    checkpoint journal's flush boundaries are row-group-aligned. Parquet
    files are only readable once the footer is written: :meth:`sync`
    (the emergency-teardown hook) closes the writer so an interrupted
    run leaves a valid file, and :meth:`__init__` resumes by copying the
    first ``resume_packages`` durable row groups into a fresh writer. A
    file missing its footer after a hard kill cannot vouch for any row
    group and is refused, mirroring FileSink's journal-outlived-the-data
    check.
    """

    def __init__(self, path: str, resume_packages: int | None = None) -> None:
        pa = require_pyarrow("parquet output")
        import pyarrow.parquet as pq

        self._pa = pa
        self._pq = pq
        self.path = path
        self._writer = None
        self._closed = False
        try:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise OutputError(f"cannot open {path!r}: {exc}") from exc
        if resume_packages:
            self._resume(resume_packages)

    def _resume(self, resume_packages: int) -> None:
        pa, pq = self._pa, self._pq
        path = self.path
        if not os.path.exists(path):
            raise OutputError(f"cannot resume into {path!r}: file does not exist")
        temp = path + ".resume-tmp"
        os.replace(path, temp)
        try:
            try:
                source = pq.ParquetFile(temp)
            except (pa.ArrowException, OSError, ValueError) as exc:
                raise OutputError(
                    f"cannot resume into {path!r}: unreadable parquet file "
                    f"({exc}) — the journal outlived the data (footer lost "
                    "in a hard kill?)"
                ) from exc
            with source:
                durable = source.metadata.num_row_groups
                if durable < resume_packages:
                    raise OutputError(
                        f"cannot resume into {path!r}: file has {durable} row "
                        f"groups but the checkpoint recorded {resume_packages} "
                        "durable packages — the journal outlived the data"
                    )
                self._writer = pq.ParquetWriter(path, source.schema_arrow)
                for index in range(resume_packages):
                    self._writer.write_table(source.read_row_group(index))
        except BaseException:
            # Leave the original data where the next resume attempt can
            # still find it.
            if not os.path.exists(path):
                os.replace(temp, path)
            self.close()
            raise
        os.remove(temp)

    def write(self, chunk: bytes) -> None:
        if self._closed:
            raise OutputError(f"sink for {self.path!r} already closed")
        reader = self._pa.ipc.open_stream(chunk)
        table = reader.read_all()
        if self._writer is None:
            self._writer = self._pq.ParquetWriter(self.path, table.schema)
        self._writer.write_table(table)

    def flush(self) -> None:
        # Row groups only become durable when the footer is written —
        # see sync()/close(). A per-package fsync of a footerless file
        # would vouch for bytes no reader can use.
        pass

    def sync(self) -> None:
        # Emergency teardown: write the footer so every row group
        # flushed so far is readable by the resume path.
        self.close()

    def close(self) -> None:
        self._closed = True
        if self._writer is not None:
            self._writer.close()
            self._writer = None
