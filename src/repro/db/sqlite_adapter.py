"""SQLite implementation of the database adapter.

Stands in for the paper's JDBC connections to PostgreSQL/MySQL: SQLite
has the same catalog concepts (``sqlite_master``, ``PRAGMA table_info``,
``PRAGMA foreign_key_list``) and executes the same statistics SQL
(COUNT/MIN/MAX/GROUP BY), so DBSynth's extraction path is exercised
unmodified.
"""

from __future__ import annotations

import re
import sqlite3
from typing import Iterable, Sequence

from repro.exceptions import AdapterError
from repro.db.adapter import ColumnInfo, DatabaseAdapter, ForeignKeyInfo
from repro.prng.xorshift import mix64

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


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
    """Validate an identifier before splicing it into SQL. Catalog names
    come from the database itself, but validating here keeps adapter
    helpers safe for caller-supplied names too."""
    if not _IDENT_RE.match(name):
        raise AdapterError(f"invalid identifier {name!r}")
    return f'"{name}"'


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

    def min_max(self, table: str, column: str) -> tuple[object, object]:
        row = self.execute(
            f"SELECT MIN({_ident(column)}), MAX({_ident(column)}) FROM {_ident(table)}"
        )[0]
        return row[0], row[1]

    def null_fraction(self, table: str, column: str) -> float:
        total, nulls = self.execute(
            f"SELECT COUNT(*), SUM({_ident(column)} IS NULL) FROM {_ident(table)}"
        )[0]
        if not total:
            return 0.0
        return (nulls or 0) / total

    def distinct_count(self, table: str, column: str) -> int:
        return int(
            self.execute(
                f"SELECT COUNT(DISTINCT {_ident(column)}) FROM {_ident(table)}"
            )[0][0]
        )

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
        values = [float(r[0]) for r in rows]
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
        col = _ident(column)
        tbl = _ident(table)
        where = f"{col} IS NOT NULL"
        # Rows numbered in scan order: the row address both sampled
        # strategies select on (``rowid`` would not exist on WITHOUT
        # ROWID tables).
        numbered = (
            f"(SELECT {col}, ROW_NUMBER() OVER () AS rn "
            f"FROM {tbl} WHERE {where})"
        )
        if strategy == "bernoulli" and fraction < 1.0:
            # The per-row Bernoulli draw is a hash of (seed, row), the
            # paper's PRNG-as-hash idea, so the same source and seed give
            # the same sample — SQLite's random() cannot be seeded. It
            # has to cost less than reading the column, or sampling buys
            # nothing: the hash is computed in SQL (a Python callback per
            # row costs more than the scan) and the row is addressed by
            # ``rowid`` where the table has one (the window function
            # alone costs more than the scan).
            try:
                self._conn.execute(f"SELECT rowid FROM {tbl} LIMIT 0")
            except sqlite3.OperationalError:
                rows = numbered  # a WITHOUT ROWID table
            else:
                rows = f"(SELECT {col}, rowid AS rn FROM {tbl} WHERE {where})"
            sql = (
                f"SELECT {col} FROM {rows} "
                f"WHERE {sample_hash_sql(seed)} < {int(fraction * 2**31)}"
            )
        elif strategy == "bernoulli":
            sql = f"SELECT {col} FROM {tbl} WHERE {where}"
        elif strategy == "first":
            count = self.row_count(table)
            take = max(int(count * fraction), 1)
            sql = f"SELECT {col} FROM {tbl} WHERE {where} LIMIT {take}"
        elif strategy == "systematic":
            step = max(int(round(1.0 / fraction)), 1)
            sql = f"SELECT {col} FROM {numbered} WHERE rn % {step} = 0"
        else:
            raise AdapterError(f"unknown sampling strategy {strategy!r}")
        if limit is not None:
            sql += f" LIMIT {int(limit)}" if "LIMIT" not in sql else ""
        return [row[0] for row in self.execute(sql)]

    # -- execution -----------------------------------------------------------

    def execute(self, sql: str, parameters: Sequence[object] = ()) -> list[tuple]:
        try:
            cursor = self._conn.execute(sql, tuple(parameters))
            return cursor.fetchall()
        except sqlite3.Error as exc:
            raise AdapterError(f"query failed ({exc}): {sql[:120]}") from exc

    def execute_script(self, sql: str) -> None:
        try:
            self._conn.executescript(sql)
            self._conn.commit()
        except sqlite3.Error as exc:
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
            raise AdapterError(f"bulk load into {table!r} failed: {exc}") from exc

    def close(self) -> None:
        self._conn.close()
