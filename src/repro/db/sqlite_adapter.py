"""SQLite implementation of the database adapter.

Stands in for the paper's JDBC connections to PostgreSQL/MySQL: SQLite
has the same catalog concepts (``sqlite_master``, ``PRAGMA table_info``,
``PRAGMA foreign_key_list``) and executes the same statistics SQL
(COUNT/MIN/MAX/GROUP BY), so DBSynth's extraction path is exercised
unmodified.
"""

from __future__ import annotations

import itertools
import sqlite3
from typing import Iterable, Sequence

from repro.exceptions import AdapterError
from repro.db.adapter import ColumnInfo, DatabaseAdapter, ForeignKeyInfo
from repro.prng.xorshift import mix64

#: SQLite's default SQLITE_MAX_COLUMN: no SELECT returns more columns, so
#: profiling's statements here and verify's queries are cut to it
RESULT_COLUMNS = 2000


def sample_hash_sql(seed: int) -> str:
    """SQL for a 31-bit hash of (*seed*, ``rn``): multiply-add, square
    (the non-linear step — without it consecutive rows give an evenly
    spaced, not a Bernoulli, sample), multiply, keeping middle bits.
    SQLite silently turns an overflowing integer product into REAL, so
    every factor is masked to 31 bits and every product stays below
    2**62; the seed is folded to two 31-bit constants here, not in SQL."""
    mixed = mix64(seed)
    mask = 0x7FFFFFFF
    row = f"(((rn & {mask}) * 1103515245 + {mixed & mask}) & {mask})"
    return (
        f"(((({row} * {row} >> 16) + {mixed >> 33}) & {mask})"
        f" * 1664525163 >> 15 & {mask})"
    )


def _ident(name: str) -> str:
    """*name* as a backtick-quoted identifier, any backtick in it doubled,
    so any name a catalog holds — spaces, brackets, quotes — splices into
    SQL as that one name. Backticks, not double quotes: SQLite reads a
    double-quoted name that matches no column as a string literal, so a
    missing column would sample its own name; a backticked one is always
    a name ("no such column")."""
    return "`" + name.replace("`", "``") + "`"


def _chunks(columns: Sequence[str], width: int) -> Iterable[Sequence[str]]:
    """*columns* in runs of at most *width*, so one statement per run
    stays inside the result-column limit."""
    for start in range(0, len(columns), width):
        yield columns[start:start + width]


class SQLiteAdapter(DatabaseAdapter):
    """Adapter over a SQLite database file (or ``":memory:"``)."""

    def __init__(self, database: str) -> None:
        try:
            self._conn = sqlite3.connect(database)
        except sqlite3.Error as exc:
            raise AdapterError(f"cannot open {database!r}: {exc}") from exc
        self.database = database

    # -- catalog -------------------------------------------------------------

    def table_names(self) -> list[str]:
        rows = self.execute(
            "SELECT name FROM sqlite_master "
            "WHERE type = 'table' AND name NOT LIKE 'sqlite_%' ORDER BY name"
        )
        return [row[0] for row in rows]

    def columns(self, table: str) -> list[ColumnInfo]:
        rows = self.execute(f"PRAGMA table_info({_ident(table)})")
        if not rows:
            raise AdapterError(f"no such table {table!r}")
        infos = []
        for cid, name, type_text, notnull, _default, pk in rows:
            infos.append(
                ColumnInfo(
                    name=name,
                    type_text=type_text or "TEXT",
                    nullable=not notnull and not pk,
                    primary=bool(pk),
                    ordinal=cid,
                )
            )
        return infos

    def foreign_keys(self, table: str) -> list[ForeignKeyInfo]:
        rows = self.execute(f"PRAGMA foreign_key_list({_ident(table)})")
        keys = []
        for _id, _seq, ref_table, column, ref_column, *_rest in rows:
            # SQLite reports a NULL ref column for "REFERENCES t" shorthand;
            # resolve it to the referenced table's primary key.
            if ref_column is None:
                pk = [c.name for c in self.columns(ref_table) if c.primary]
                ref_column = pk[0] if pk else "rowid"
            keys.append(ForeignKeyInfo(column, ref_table, ref_column))
        return keys

    # -- statistics ----------------------------------------------------------

    def row_count(self, table: str) -> int:
        return int(self.execute(f"SELECT COUNT(*) FROM {_ident(table)}")[0][0])

    def null_fractions(self, table: str, columns: Sequence[str]) -> list[float]:
        fractions: list[float] = []
        for chunk in _chunks(columns, RESULT_COLUMNS - 1):
            counts = ", ".join(f"COUNT({_ident(column)})" for column in chunk)
            total, *present = self.execute(
                f"SELECT COUNT(*), {counts} FROM {_ident(table)}"
            )[0]
            fractions.extend((total - n) / total if total else 0.0 for n in present)
        return fractions

    def bounds(
        self, table: str, columns: Sequence[str]
    ) -> list[tuple[object, object]]:
        pairs: list[tuple[object, object]] = []
        for chunk in _chunks(columns, RESULT_COLUMNS // 2):
            select = ", ".join(
                f"MIN({_ident(column)}), MAX({_ident(column)})" for column in chunk
            )
            row = self.execute(f"SELECT {select} FROM {_ident(table)}")[0]
            pairs.extend(zip(row[::2], row[1::2]))
        return pairs

    def distinct_counts(
        self, table: str, columns: Sequence[str], limit: int
    ) -> list[int]:
        if limit < 0:
            raise AdapterError(f"distinct-count limit {limit} is negative")
        tbl = _ident(table)
        counts = []
        for column in columns:
            col = _ident(column)
            # DISTINCT under a LIMIT stops reading at the limit + 1st new
            # value; COUNT(DISTINCT) would read the whole column
            sql = (
                f"SELECT COUNT(*) FROM (SELECT DISTINCT {col} FROM {tbl} "
                f"WHERE {col} IS NOT NULL LIMIT {int(limit) + 1})"
            )
            counts.append(int(self.execute(sql)[0][0]))
        return counts

    def histogram(
        self, table: str, column: str, buckets: int = 10
    ) -> list[tuple[object, int]]:
        rows = self.execute(
            f"SELECT {_ident(column)}, COUNT(*) AS n FROM {_ident(table)} "
            f"WHERE {_ident(column)} IS NOT NULL "
            f"GROUP BY {_ident(column)} ORDER BY n DESC, {_ident(column)} LIMIT ?",
            (buckets,),
        )
        return [(value, int(count)) for value, count in rows]

    def numeric_quantiles(
        self, table: str, column: str, buckets: int = 10
    ) -> list[float]:
        if buckets < 1:
            raise AdapterError(f"bucket count must be >= 1, got {buckets}")
        col = _ident(column)
        tbl = _ident(table)
        rows = self.execute(
            f"SELECT {col} FROM {tbl} WHERE {col} IS NOT NULL ORDER BY {col}"
        )
        if not rows:
            raise AdapterError(f"{table}.{column} has no non-NULL values")
        try:
            values = [float(r[0]) for r in rows]
        except (TypeError, ValueError) as exc:
            raise AdapterError(f"{table}.{column} is not numeric: {exc}") from None
        edges = [values[0]]
        n = len(values)
        for k in range(1, buckets):
            edges.append(values[min(k * n // buckets, n - 1)])
        edges.append(values[-1])
        return edges

    # -- sampling ------------------------------------------------------------

    def sample_column(
        self,
        table: str,
        column: str,
        fraction: float = 1.0,
        limit: int | None = None,
        strategy: str = "bernoulli",
        seed: int = 0,
    ) -> list[object]:
        if not 0.0 < fraction <= 1.0:
            raise AdapterError(f"sample fraction {fraction} outside (0, 1]")
        if strategy not in ("bernoulli", "first", "systematic"):
            raise AdapterError(f"unknown sampling strategy {strategy!r}")
        if limit is not None and limit < 0:
            raise AdapterError(f"sample limit {limit} is negative")
        col = _ident(column)
        tbl = _ident(table)
        scan = f"SELECT {col} FROM {tbl} WHERE {col} IS NOT NULL"
        if strategy == "systematic":
            # Every step-th row of the scan, kept while the cursor
            # streams: the rows a ``ROW_NUMBER() OVER ()`` window numbers
            # step, 2·step, ..., without the window's cost, and memory
            # grows with the sample, not the column.
            step = max(int(round(1.0 / fraction)), 1)
            stop = None if limit is None else step * int(limit)
            try:
                rows = self._conn.execute(scan)
                return [row[0] for row in itertools.islice(rows, step - 1, stop, step)]
            except sqlite3.Error as exc:
                raise AdapterError(f"query failed ({exc}): {scan[:120]}") from exc
        sql = scan
        if strategy == "first" and fraction < 1.0:
            share = max(int(self.row_count(table) * fraction), 1)
            limit = share if limit is None else min(share, limit)
        elif strategy == "bernoulli" and fraction < 1.0:
            # The per-row Bernoulli draw is a hash of (seed, row), the
            # paper's PRNG-as-hash idea, so the same source and seed give
            # the same sample — SQLite's random() cannot be seeded. It
            # has to cost less than reading the column, or sampling buys
            # nothing: the hash is computed in SQL (a Python callback per
            # row costs more than the scan) and the row is addressed by
            # ``rowid`` where the table has one. Only a WITHOUT ROWID
            # table numbers its rows in scan order with a window, which
            # alone costs more than the scan.
            try:
                self._conn.execute(f"SELECT rowid FROM {tbl} LIMIT 0")
            except sqlite3.OperationalError:
                rn = "ROW_NUMBER() OVER ()"
            else:
                rn = "rowid"
            sql = (
                f"SELECT {col} FROM (SELECT {col}, {rn} AS rn "
                f"FROM {tbl} WHERE {col} IS NOT NULL) "
                f"WHERE {sample_hash_sql(seed)} < {int(fraction * 2**31)}"
            )
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        return [row[0] for row in self.execute(sql)]

    # -- execution -----------------------------------------------------------

    def execute(self, sql: str, parameters: Sequence[object] = ()) -> list[tuple]:
        try:
            cursor = self._conn.execute(sql, tuple(parameters))
            return cursor.fetchall()
        except sqlite3.Error as exc:
            raise AdapterError(f"query failed ({exc}): {sql[:120]}") from exc

    def execute_script(self, sql: str) -> None:
        # One transaction: in autocommit, ``executescript`` would commit
        # after every statement — one fsync per INSERT when loading.
        # SQLite ignores PRAGMA foreign_keys and refuses VACUUM / ATTACH
        # inside a transaction: run those through :meth:`execute`
        try:
            # the newline ends a trailing ``--`` comment, the ``;`` an
            # unterminated last statement
            self._conn.executescript(f"BEGIN;\n{sql}\n;\nCOMMIT;")
        except sqlite3.Error as exc:
            self._rollback()
            raise AdapterError(f"script failed: {exc}") from exc

    def execute_dml(self, sql: str, parameters: Sequence[object] = ()) -> int:
        try:
            cursor = self._conn.execute(sql, tuple(parameters))
            self._conn.commit()
            return max(cursor.rowcount, 0)
        except sqlite3.Error as exc:
            raise AdapterError(f"statement failed ({exc}): {sql[:120]}") from exc

    def insert_rows(
        self, table: str, columns: list[str], rows: Iterable[Sequence[object]]
    ) -> int:
        placeholders = ", ".join("?" for _ in columns)
        column_list = ", ".join(_ident(c) for c in columns)
        sql = f"INSERT INTO {_ident(table)} ({column_list}) VALUES ({placeholders})"
        try:
            cursor = self._conn.executemany(sql, rows)
            self._conn.commit()
            return cursor.rowcount
        except sqlite3.Error as exc:
            self._rollback()
            raise AdapterError(f"bulk load into {table!r} failed: {exc}") from exc

    def _rollback(self) -> None:
        """Undo a failed statement's open transaction, so the next commit
        cannot make its partial rows durable."""
        if self._conn.in_transaction:
            self._conn.rollback()

    def close(self) -> None:
        self._conn.close()
