"""The public slicing API: :class:`Dataset` over a bound engine cache.

PDGF's determinism means a data set is not a file — it is a pure
function from ``(model, row range, format)`` to bytes. :class:`Dataset`
is that function with a handle over a bound engine: ``slice()`` any
row range of any table, as Python rows, as typed columns, or encoded in
any registered output format. The same work-package partitioning and
the same :func:`~repro.output.formats.format_package` path the batch
scheduler uses produce the bytes, so a slice is byte-identical to the
corresponding range of a ``dbsynth generate`` output file — which is
the contract the ``dbsynth serve`` HTTP endpoints are built on.

Engines bind once and are shared: :func:`bound_engine`, a process-wide
LRU cache keyed by :func:`~repro.engine.model_identity` (the model
identity — seed, update epoch, sizes, fields, generator trees,
artifacts — the digest :attr:`GenerationEngine.fingerprint` holds), hands
the same thread-safe :class:`~repro.engine.GenerationEngine` to every
``Dataset.from_suite`` / ``from_model`` over an equivalent model, so a
process opening many datasets pays generator binding once per model.

Quickstart::

    from repro import Dataset

    ds = Dataset.from_suite("tpch", scale_factor=0.01)
    ds.tables                          # {'region': 5, 'nation': 25, ...}
    ds.slice("nation", 0, 5)           # five rows of Python values
    ds.slice("nation", 0, 5, format="csv", delimiter=",")  # bytes
    ds.slice("nation", 0, 25, format="columns")            # ColumnBlock
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Iterator

from repro.engine import GenerationEngine, model_identity
from repro.exceptions import GenerationError, OutputError
from repro.model.artifacts import ArtifactStore
from repro.model.schema import Schema
from repro.output.config import OutputConfig
from repro.output.formats import BYTE_OPTIONS, format_package, format_spec, table_frame
from repro.scheduler.work import DEFAULT_PACKAGE_SIZE, WorkPackage, cut_packages
from repro.suites import suite_model

# -- the bound-engine cache --------------------------------------------------

#: engines kept bound; small — a server typically hosts a handful of models.
ENGINE_CACHE_SIZE = 8

_cache_lock = threading.Lock()
_engine_cache: "OrderedDict[str, GenerationEngine]" = OrderedDict()
_engine_hits = 0
_engine_misses = 0


def bound_engine(
    schema: Schema,
    artifacts: ArtifactStore | None = None,
    update: int = 0,
) -> GenerationEngine:
    """The cached bound engine for a model (binding once per identity).

    Keyed by :func:`model_identity`, the engine's own fingerprint taken
    before binding — equal fingerprints generate identical values, so
    sharing the (thread-safe) engine is sound even between models built
    independently. Misses bind outside the lock; a racing duplicate bind
    keeps the first engine inserted.
    """
    global _engine_hits, _engine_misses
    key = model_identity(schema, artifacts, update)
    with _cache_lock:
        engine = _engine_cache.get(key)
        if engine is not None:
            _engine_cache.move_to_end(key)
            _engine_hits += 1
            return engine
        _engine_misses += 1
    engine = GenerationEngine(schema, artifacts, update)
    with _cache_lock:
        existing = _engine_cache.get(key)
        if existing is not None:
            _engine_cache.move_to_end(key)
            return existing
        _engine_cache[key] = engine
        while len(_engine_cache) > ENGINE_CACHE_SIZE:
            _engine_cache.popitem(last=False)
    return engine


def engine_cache_info() -> dict:
    """``{hits, misses, size, maxsize}`` of the bound-engine cache."""
    with _cache_lock:
        return {
            "hits": _engine_hits,
            "misses": _engine_misses,
            "size": len(_engine_cache),
            "maxsize": ENGINE_CACHE_SIZE,
        }


def clear_engine_cache() -> None:
    """Drop every cached engine and reset the hit/miss counters."""
    global _engine_hits, _engine_misses
    with _cache_lock:
        _engine_cache.clear()
        _engine_hits = 0
        _engine_misses = 0


# -- the Dataset facade ------------------------------------------------------

#: OutputConfig knobs a slice may override (everything format-affecting
#: but ``format`` itself, which has its own argument; sink routing is
#: meaningless for slices, which never touch a sink).
SLICE_OPTIONS = BYTE_OPTIONS[1:]


class Dataset:
    """A bound engine with random-access slicing over every table.

    Slicing never mutates shared state, so one ``Dataset`` may serve
    concurrent threads. ``package_size`` fixes the work-package
    partitioning and therefore the chunk framing of binary formats —
    keep it equal to the batch run's package size when byte-comparing
    against files.
    """

    def __init__(
        self,
        engine: GenerationEngine,
        *,
        package_size: int = DEFAULT_PACKAGE_SIZE,
    ) -> None:
        if package_size <= 0:
            raise GenerationError(
                f"package_size must be positive, got {package_size}"
            )
        self.package_size = package_size
        #: the engine's fingerprint, digested here and not in a request
        self.fingerprint = engine.fingerprint
        self.engine = engine

    @classmethod
    def from_model(
        cls,
        directory: str,
        *,
        scale_factor: float | None = None,
        update: int = 0,
        package_size: int = DEFAULT_PACKAGE_SIZE,
    ) -> "Dataset":
        """A dataset over a saved project directory (from ``extract``),
        its engine from the :func:`bound_engine` cache."""
        from repro.config.saved_model import load_saved

        schema, artifacts = load_saved(directory)
        if scale_factor is not None:
            schema.properties.override("SF", scale_factor)
        return cls(bound_engine(schema, artifacts, update), package_size=package_size)

    @classmethod
    def from_suite(
        cls,
        name: str,
        scale_factor: float = 1.0,
        *,
        update: int = 0,
        package_size: int = DEFAULT_PACKAGE_SIZE,
    ) -> "Dataset":
        """A dataset over a built-in suite model (tpch, ssb, bigbench),
        its engine from the :func:`bound_engine` cache."""
        return cls(
            bound_engine(*suite_model(name, scale_factor), update),
            package_size=package_size,
        )

    # -- introspection ----------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self.engine.schema

    @property
    def tables(self) -> dict[str, int]:
        """``{table name: row count}`` under the current scale factor."""
        return dict(self.engine.sizes)

    def columns(self, table: str) -> list[str]:
        """Ordered column names of one table."""
        return list(self.engine.bound_table(table).column_names)

    # -- slicing ----------------------------------------------------------

    def slice(
        self,
        table: str,
        start: int = 0,
        stop: int | None = None,
        *,
        format: str = "rows",
        **options,
    ):
        """Rows ``[start, stop)`` of a table, in the requested form.

        ``format="rows"`` returns a list of row value-lists,
        ``format="columns"`` a typed
        :class:`~repro.columnar.ColumnBlock`; any registered output
        format name returns the encoded ``bytes`` — byte-identical to
        the same range of a batch-generated file. ``**options`` are the
        format-affecting :class:`~repro.output.config.OutputConfig`
        knobs (``delimiter``, ``include_header``, ...).
        """
        if format == "rows":
            self._reject_options(format, options)
            start, stop = self._resolve_range(table, start, stop)
            return self.engine.generate_rows(table, start, stop)
        if format == "columns":
            self._reject_options(format, options)
            start, stop = self._resolve_range(table, start, stop)
            return self.engine.generate_columns(table, start, stop)
        return b"".join(
            self.stream(table, start, stop, format=format, **options)
        )

    def stream(
        self,
        table: str,
        start: int = 0,
        stop: int | None = None,
        *,
        format: str = "csv",
        **options,
    ) -> Iterator[bytes]:
        """Yield the encoded slice one work-package chunk at a time.

        The streaming twin of :meth:`slice` for encoded formats — what
        ``dbsynth serve`` writes as chunked transfer. The slice is
        framed by :func:`~repro.output.formats.table_frame`, as a
        scheduler run over the same range is, so concatenating adjacent
        slices reproduces the batch file exactly. Text formats accept any row
        range (rows encode independently); Arrow requires
        package-aligned bounds because its record-batch framing follows
        package boundaries.
        """
        output = self._output_config(format, options)
        spec = format_spec(format)
        if spec.name == "parquet":
            raise OutputError(
                "parquet slices are not streamable (row groups are "
                "assembled by the parquet file sink); generate() writes "
                "parquet files, format='arrow' streams columns"
            )
        start, stop = self._resolve_range(table, start, stop)
        header, footer = table_frame(output, self.engine, table, start, stop)
        if header:
            yield header.encode("utf-8") if not spec.binary else header
        for package in self._covering_packages(table, start, stop, spec):
            chunk = format_package(self.engine, output, package)
            if chunk:
                yield chunk.encode("utf-8") if not spec.binary else chunk
        if footer:
            yield footer.encode("utf-8") if not spec.binary else footer

    # -- internals --------------------------------------------------------

    @staticmethod
    def _reject_options(format: str, options: dict) -> None:
        if options:
            raise OutputError(
                f"slice format {format!r} takes no formatting options; "
                f"got {', '.join(sorted(options))}"
            )

    def _output_config(self, format: str, options: dict) -> OutputConfig:
        unknown = sorted(set(options) - set(SLICE_OPTIONS))
        if unknown:
            raise OutputError(
                f"unknown slice option(s) {', '.join(unknown)}; "
                f"valid options: {', '.join(SLICE_OPTIONS)}"
            )
        # kind="null": slices never route to a sink; the config carries
        # only format identity, and its validation is the registry's.
        return OutputConfig(kind="null", format=format, **options)

    def _resolve_range(
        self, table: str, start: int, stop: int | None
    ) -> tuple[int, int]:
        size = self.engine.sizes.get(table)
        if size is None:
            raise GenerationError(
                f"no such table {table!r}; "
                f"tables: {', '.join(sorted(self.engine.sizes))}"
            )
        if stop is None:
            stop = size
        if not 0 <= start <= stop <= size:
            raise GenerationError(
                f"slice [{start}, {stop}) outside table {table!r} "
                f"(size {size})"
            )
        return start, stop

    def _covering_packages(
        self, table: str, start: int, stop: int, spec
    ) -> list[WorkPackage]:
        """The batch run's packages covering ``[start, stop)``, clipped.

        They come from the scheduler's one cutter, so sequences are the
        batch run's — package ``i`` always covers ``[i*package_size,
        ...)`` — and ``sequence == 0`` (and with it binary stream
        framing) means the same thing here as in a full run. Text
        packages are clipped to the requested range; columnar binary
        formats refuse unaligned bounds instead, because a record batch
        cannot be trimmed by rows after encoding.
        """
        ps = self.package_size
        size = self.engine.sizes[table]
        if spec.columnar_only and (
            start % ps != 0 or (stop % ps != 0 and stop != size)
        ):
            raise OutputError(
                f"format {spec.name!r} requires package-aligned slices "
                f"(multiples of {ps}, or the table size {size}); "
                f"got [{start}, {stop})"
            )
        return cut_packages(table, start, stop, ps)
