"""Database adapter interface.

The paper's DBSynth talks JDBC to "a variety of systems" (PostgreSQL,
MySQL, DB2). This ABC is that boundary: everything DBSynth needs from a
source or target database — catalog introspection, statistics queries,
sampling, DDL/DML execution, and the target side of every load: the
SQLite sink runs each work package's SQL text through
:meth:`DatabaseAdapter.execute_script`. The shipped implementation is
SQLite (:mod:`repro.db.sqlite_adapter`, the only module that imports
the driver); adding another engine means implementing this interface,
nothing else changes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class ColumnInfo:
    """Catalog description of one column."""

    name: str
    type_text: str
    nullable: bool
    primary: bool
    ordinal: int


@dataclass(frozen=True)
class ForeignKeyInfo:
    """One foreign key edge: ``column`` references ``ref_table.ref_column``."""

    column: str
    ref_table: str
    ref_column: str


class DatabaseAdapter(abc.ABC):
    """Uniform access to a relational database for DBSynth."""

    # -- catalog -------------------------------------------------------------

    @abc.abstractmethod
    def table_names(self) -> list[str]:
        """User tables, in a stable order."""

    @abc.abstractmethod
    def columns(self, table: str) -> list[ColumnInfo]:
        """Columns of a table in ordinal order."""

    @abc.abstractmethod
    def foreign_keys(self, table: str) -> list[ForeignKeyInfo]:
        """Foreign keys declared on a table."""

    # -- statistics ----------------------------------------------------------

    @abc.abstractmethod
    def row_count(self, table: str) -> int:
        """Exact row count (the paper's 'table sizes' extraction step)."""

    @abc.abstractmethod
    def null_fractions(self, table: str, columns: Sequence[str]) -> list[float]:
        """Fraction of NULL values in ``[0, 1]`` of each of *columns*
        (0.0 for every column of an empty table)."""

    @abc.abstractmethod
    def bounds(
        self, table: str, columns: Sequence[str]
    ) -> list[tuple[object, object]]:
        """Minimum and maximum of each of *columns* (NULLs ignored;
        ``(None, None)`` for a column without a non-NULL value)."""

    @abc.abstractmethod
    def distinct_counts(
        self, table: str, columns: Sequence[str], limit: int
    ) -> list[int]:
        """Number of distinct non-NULL values of each of *columns*, exact
        up to *limit*; a column with more reads ``limit + 1``, and its
        scan stops at that many distinct values."""

    @abc.abstractmethod
    def histogram(
        self, table: str, column: str, buckets: int = 10
    ) -> list[tuple[object, int]]:
        """Most frequent values with counts (a frequency histogram)."""

    @abc.abstractmethod
    def numeric_quantiles(
        self, table: str, column: str, buckets: int = 10
    ) -> list[float]:
        """``buckets + 1`` equi-depth quantile edges of a numeric column
        (min, q1, ..., max). Feeds the histogram generator (RSGen-style
        numeric synthesis, paper §6). Raises :class:`AdapterError` when
        the column holds a value that is not a number."""

    # -- sampling ------------------------------------------------------------

    @abc.abstractmethod
    def sample_column(
        self,
        table: str,
        column: str,
        fraction: float = 1.0,
        limit: int | None = None,
        strategy: str = "bernoulli",
        seed: int = 0,
    ) -> list[object]:
        """Sample non-NULL values of a column.

        ``strategy`` is ``"bernoulli"`` (random per-row), ``"first"``
        (the first ``fraction`` of the rows in scan order), or
        ``"systematic"`` (every k-th row, k = ``round(1 / fraction)``) —
        the configurable sampling strategies of paper §3. ``limit`` caps
        every strategy: at most ``limit`` values come back, and the
        first two read no further than the rows they keep. Every
        strategy is repeatable: the bernoulli draw is a hash of ``seed``
        and the row, so one source and one seed give one sample.
        """

    # -- execution -----------------------------------------------------------

    @abc.abstractmethod
    def execute(self, sql: str, parameters: Sequence[object] = ()) -> list[tuple]:
        """Run a query and return all rows."""

    @abc.abstractmethod
    def execute_script(self, sql: str) -> None:
        """Run one or more statements (DDL, a load's package of INSERT
        statements) as one transaction: all of them, or none when one
        fails."""

    def execute_dml(self, sql: str, parameters: Sequence[object] = ()) -> int:
        """Run one UPDATE/DELETE/INSERT statement and return the number
        of rows it actually affected.

        The default delegates to :meth:`execute` and reports 0 affected
        rows; adapters whose driver exposes a row count (all practical
        ones) must override this so callers can distinguish a change
        that landed from one that silently matched nothing."""
        self.execute(sql, parameters)
        return 0

    @abc.abstractmethod
    def insert_rows(
        self, table: str, columns: list[str], rows: Iterable[Sequence[object]]
    ) -> int:
        """Insert rows with driver parameters (executemany) in one
        transaction, rolled back when one fails; returns the number
        inserted. For small writes — a source database, CDC inserts;
        loads go through :meth:`execute_script`."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release the connection."""

    def __enter__(self) -> "DatabaseAdapter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
