"""Database adapter interface.

The paper's DBSynth talks JDBC to "a variety of systems" (PostgreSQL,
MySQL, DB2). This ABC is that boundary: everything DBSynth needs from a
source or target database — catalog introspection, statistics queries,
sampling, DDL/DML execution. The shipped implementation is SQLite
(:mod:`repro.db.sqlite_adapter`); adding another engine means
implementing this interface, nothing else changes.
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
    def min_max(self, table: str, column: str) -> tuple[object, object]:
        """Minimum and maximum of a column (NULLs ignored)."""

    @abc.abstractmethod
    def null_fraction(self, table: str, column: str) -> float:
        """Fraction of NULL values in ``[0, 1]``."""

    @abc.abstractmethod
    def distinct_count(self, table: str, column: str) -> int:
        """Number of distinct non-NULL values."""

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
        numeric synthesis, paper §6)."""

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
        (first-N scan), or ``"systematic"`` (every k-th row) — the
        configurable sampling strategies of paper §3. Every strategy is
        repeatable: the bernoulli draw is a hash of ``seed`` and the row,
        so one source and one seed give one sample.
        """

    # -- execution -----------------------------------------------------------

    @abc.abstractmethod
    def execute(self, sql: str, parameters: Sequence[object] = ()) -> list[tuple]:
        """Run a query and return all rows."""

    @abc.abstractmethod
    def execute_script(self, sql: str) -> None:
        """Run one or more statements (DDL, bulk SQL loads)."""

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
        """Bulk-load rows; returns the number inserted (the 'bulk load
        option' of paper §3)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release the connection."""

    def __enter__(self) -> "DatabaseAdapter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
