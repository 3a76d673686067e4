"""DDL generation — the schema translator's backend.

DBSynth translates a generation model into a SQL schema "which is loaded
into the target database" (paper §3, Figure 3's Schema Translator box).
Dialects differ only in type spelling; the structure (columns, primary
keys, foreign keys in dependency order) is shared.
"""

from __future__ import annotations

from repro.exceptions import ModelError
from repro.model.datatypes import DataType, SqlType
from repro.model.schema import Field, GeneratorSpec, Schema, Table
from repro.model.sqlnames import sql_name
from repro.model.validation import topological_load_order

_DIALECTS = ("ansi", "sqlite", "postgres", "mysql")

# Per-dialect overrides for types whose ANSI spelling is not accepted.
_TYPE_OVERRIDES: dict[str, dict[SqlType, str]] = {
    "sqlite": {
        SqlType.BOOLEAN: "INTEGER",
        SqlType.DOUBLE: "REAL",
        SqlType.FLOAT: "REAL",
        SqlType.DATE: "TEXT",
        SqlType.TIME: "TEXT",
        SqlType.TIMESTAMP: "TEXT",
        SqlType.DECIMAL: "REAL",
        SqlType.NUMERIC: "REAL",
    },
    "mysql": {
        SqlType.TEXT: "LONGTEXT",
        SqlType.BOOLEAN: "TINYINT(1)",
    },
    "postgres": {
        SqlType.BLOB: "BYTEA",
    },
}


def render_type(dtype: DataType, dialect: str = "ansi") -> str:
    """Render a column type for a dialect."""
    if dialect not in _DIALECTS:
        raise ModelError(f"unknown SQL dialect {dialect!r}")
    override = _TYPE_OVERRIDES.get(dialect, {}).get(dtype.base)
    if override is not None:
        return override
    return dtype.render()


def _references_of(field: Field) -> tuple[str, str] | None:
    """The (table, column) a field references, if its generator tree
    contains a reference generator."""

    def visit(spec: GeneratorSpec) -> tuple[str, str] | None:
        if spec.name == "DefaultReferenceGenerator":
            table = spec.params.get("table")
            column = spec.params.get("field")
            if table and column:
                return str(table), str(column)
        for child in spec.children:
            found = visit(child)
            if found:
                return found
        return None

    return visit(field.generator)


def create_table_sql(
    table: Table, dialect: str = "ansi", include_foreign_keys: bool = True
) -> str:
    """``CREATE TABLE`` statement for one table."""
    lines: list[str] = []
    for field in table.fields:
        null_clause = "" if field.nullable else " NOT NULL"
        lines.append(
            f"  {sql_name(field.name)} {render_type(field.dtype, dialect)}{null_clause}"
        )
    pk = [sql_name(f.name) for f in table.primary_key()]
    if pk:
        lines.append(f"  PRIMARY KEY ({', '.join(pk)})")
    if include_foreign_keys:
        for field in table.fields:
            ref = _references_of(field)
            if ref and ref[0] != table.name:
                lines.append(
                    f"  FOREIGN KEY ({sql_name(field.name)}) "
                    f"REFERENCES {sql_name(ref[0])} ({sql_name(ref[1])})"
                )
    body = ",\n".join(lines)
    return f"CREATE TABLE {sql_name(table.name)} (\n{body}\n);"


def create_schema_sql(
    schema: Schema, dialect: str = "ansi", include_foreign_keys: bool = True
) -> str:
    """DDL for a whole model, tables in referential dependency order."""
    order = topological_load_order(schema)
    statements = [
        create_table_sql(schema.table_by_name(name), dialect, include_foreign_keys)
        for name in order
    ]
    return "\n\n".join(statements) + "\n"
