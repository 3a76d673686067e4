"""Query workload generation and exact model-side query answers.

Implements the paper's future-work items (§7): "we will generate the
queries consistently using PDGF" and "include query analysis to generate
data sets with predefined (intermediate) results and generate
verification results for queries. Given the deterministic approach of
data generation, our tool will then also be able to directly execute the
query without ever generating the data."

Two pieces:

* :class:`QueryTemplate` / :class:`QueryParameterGenerator` — TPC-style
  query templates whose substitution parameters are cells of the data:
  the value of the parameter's column at a row drawn through the same
  seed hierarchy as the data, so query streams are as repeatable as the
  data they run against, and every parameter is a value it holds.
* :class:`VirtualExecutor` — answers filter-aggregate queries *from the
  model*: any cell can be computed independently (paper §1), so it
  generates only the columns a query reads, one bounded block at a
  time, and evaluates the query over them with numpy. The answer is
  exact — the one SQL gives on the loaded data — and serves as the
  verification result for runs against a database; nothing is written
  or loaded.
"""

from __future__ import annotations

import datetime
import enum
import math
import operator
import re
from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING, NoReturn

from repro.exceptions import GenerationError, ModelError
from repro.model.datatypes import TypeFamily
from repro.model.sqlnames import sql_name
from repro.prng.xorshift import XorShift64Star, combine_name64

if TYPE_CHECKING:  # only execution builds arrays: verify renders SQL without them
    import numpy as np

    from repro import columnar
    from repro.engine import GenerationEngine


class Op(enum.Enum):
    """Predicate operators supported by the virtual executor."""

    EQ = "="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    BETWEEN = "between"
    IN = "in"
    IS_NULL = "is null"
    NOT_NULL = "is not null"


@dataclass(frozen=True)
class Predicate:
    """One conjunct of a WHERE clause: ``column op value(s)``."""

    column: str
    op: Op
    value: object = None
    value2: object = None  # upper bound of BETWEEN

    def to_sql(self) -> str:
        column = sql_name(self.column)
        if self.op is Op.IS_NULL:
            return f"{column} IS NULL"
        if self.op is Op.NOT_NULL:
            return f"{column} IS NOT NULL"
        if self.op is Op.BETWEEN:
            return f"{column} BETWEEN {_sql_literal(self.value)} AND {_sql_literal(self.value2)}"
        if self.op is Op.IN:
            rendered = ", ".join(_sql_literal(v) for v in _in_values(self))
            return f"{column} IN ({rendered})"
        return f"{column} {self.op.value} {_sql_literal(self.value)}"


@dataclass(frozen=True)
class Aggregate:
    """One SELECT-list aggregate: COUNT(*), SUM(col), AVG(col), MIN, MAX."""

    func: str  # count | sum | avg | min | max
    column: str | None = None

    def to_sql(self) -> str:
        if self.func == "count" and self.column is None:
            return "COUNT(*)"
        return f"{self.func.upper()}({sql_name(self.column)})"


@dataclass
class Query:
    """A single-table filter-aggregate query (the class the paper's
    verification-result generation targets)."""

    table: str
    aggregates: list[Aggregate]
    predicates: list[Predicate] = dc_field(default_factory=list)

    def to_sql(self) -> str:
        select = ", ".join(a.to_sql() for a in self.aggregates)
        sql = f"SELECT {select} FROM {sql_name(self.table)}"
        if self.predicates:
            sql += " WHERE " + " AND ".join(p.to_sql() for p in self.predicates)
        return sql


def _aggregate_keys(aggregates: list[Aggregate]) -> list[str]:
    """One result key per aggregate, in SELECT-list order.

    Two aggregates can render identical SQL (``COUNT(*)`` twice); a dict
    keyed by the rendering alone would collapse them and misalign every
    later column against the result row. Duplicates get a ``#n`` suffix
    so answers and result columns stay positional.
    """
    keys: list[str] = []
    seen: dict[str, int] = {}
    for aggregate in aggregates:
        key = aggregate.to_sql()
        n = seen.get(key, 0)
        seen[key] = n + 1
        keys.append(key if n == 0 else f"{key}#{n + 1}")
    return keys


def _sql_literal(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, datetime.datetime):
        return f"'{value.isoformat(sep=' ')}'"  # as the SQL sink stores it
    if isinstance(value, datetime.date):
        return f"'{value.isoformat()}'"
    text = str(value).replace("'", "''")
    return f"'{text}'"


# -- parameterized query templates --------------------------------------------

_PARAM_RE = re.compile(r":(\w+)")


@dataclass(frozen=True)
class ParameterSpec:
    """One template parameter: a cell of ``table.column``, drawn as
    :class:`QueryParameterGenerator` describes."""

    name: str
    table: str
    column: str


@dataclass
class QueryTemplate:
    """A SQL text with ``:param`` placeholders plus parameter specs."""

    name: str
    sql: str
    parameters: list[ParameterSpec]


#: rows drawn for one parameter before a column of NULLs makes it NULL
PARAMETER_DRAWS = 16


class QueryParameterGenerator:
    """Draws template parameters deterministically from the model.

    A parameter is the value of its column at a seed-drawn row, which
    the engine generates like any other cell (paper §1: "any cell of
    any table can be (re)computed independently"). So every parameter
    is a value the data holds, drawn with the data's own distribution,
    whatever generator the column has. A NULL cell is redrawn; a column
    that yields only NULLs in :data:`PARAMETER_DRAWS` rows, or an empty
    table, gives a NULL parameter, which SQL compares with nothing.

    Stream ``i`` of template ``t`` always yields the same parameter
    vector for a given model seed — query workloads are repeatable in
    exactly the way the data is (paper §7).
    """

    def __init__(self, engine: GenerationEngine) -> None:
        self._engine = engine

    def _rng_for(self, template: QueryTemplate, index: int) -> XorShift64Star:
        seed = combine_name64(
            self._engine.schema.seed, f"query:{template.name}:{index}"
        )
        return XorShift64Star(seed)

    def parameters_for(self, template: QueryTemplate, index: int) -> dict[str, object]:
        """The parameter vector for instance *index* of the template."""
        rng = self._rng_for(template, index)
        values: dict[str, object] = {}
        for spec in template.parameters:
            values[spec.name] = self._draw(spec, rng)
        return values

    def instantiate(self, template: QueryTemplate, index: int) -> str:
        """The SQL text of instance *index*, placeholders substituted."""
        values = self.parameters_for(template, index)

        def substitute(match: re.Match[str]) -> str:
            name = match.group(1)
            if name not in values:
                raise ModelError(
                    f"template {template.name!r} has no parameter {name!r}"
                )
            return _sql_literal(values[name])

        return _PARAM_RE.sub(substitute, template.sql)

    def stream(self, template: QueryTemplate, count: int) -> list[str]:
        """A repeatable stream of *count* query instances."""
        return [self.instantiate(template, i) for i in range(count)]

    def _draw(self, spec: ParameterSpec, rng: XorShift64Star) -> object:
        """The value of ``spec.column`` at a drawn row, NULLs redrawn."""
        engine = self._engine
        engine.bound_table(spec.table).field_index(spec.column)  # an unknown name raises
        size = engine.sizes[spec.table]
        for _ in range(PARAMETER_DRAWS if size else 0):
            row = rng.next_long(size)
            value = engine.compute_value(spec.table, spec.column, row)  # hot-loop-ok: one cell
            if value is not None:
                return value
        return None


# -- virtual execution ---------------------------------------------------------

#: rows per projected block: what bounds execute's memory at any table size
EXECUTE_BLOCK = 65_536

_NUMERIC = (TypeFamily.INTEGER, TypeFamily.FLOAT, TypeFamily.DECIMAL, TypeFamily.BOOLEAN)
_AGGREGATES = ("count", "sum", "avg", "min", "max")


class VirtualExecutor:
    """Answers filter-aggregate queries from the model, exactly.

    :meth:`execute` generates only the columns a query reads (and the
    siblings those read), block by block, and evaluates the predicates
    as numpy masks and the aggregates as reductions over them — no row
    is materialized and no database is involved. Values compare the way
    their column's declared SQL type family compares in a loaded
    database, so the answer is the one SQL gives on the generated data.
    """

    def __init__(self, engine: GenerationEngine) -> None:
        self._engine = engine

    def execute(self, query: Query) -> dict[str, object]:
        """The query's answer: one entry per aggregate, in SELECT-list
        order (duplicate renderings are suffixed, see
        :func:`_aggregate_keys`), typed as SQL types it — ``None`` for
        an aggregate over no values, ``int`` counts and integer sums,
        ``float`` averages, MIN / MAX in the column's own type."""
        import numpy as np

        engine = self._engine
        table = engine.schema.table_by_name(query.table)
        families = {
            name: table.field_by_name(name).dtype.family
            for name in {p.column for p in query.predicates}
            | {a.column for a in query.aggregates if a.column is not None}
        }
        accumulators: dict[str, _Accumulator] = {}
        for aggregate in query.aggregates:
            if aggregate.func not in _AGGREGATES:
                raise GenerationError(f"unsupported aggregate {aggregate.func!r}")
            if aggregate.column is not None:
                accumulators.setdefault(
                    aggregate.column,
                    _Accumulator(aggregate.column, families[aggregate.column]),
                ).need(aggregate.func)
        for predicate in query.predicates:
            if predicate.op is Op.IN:
                _in_values(predicate)  # its error comes before any generation
        bound = engine.bound_table(query.table)
        ctx = engine.new_context(query.table)
        size = engine.sizes[query.table]
        rows = 0
        for start in range(0, size, EXECUTE_BLOCK):
            stop = min(start + EXECUTE_BLOCK, size)
            keys = {}
            if families:  # COUNT(*) alone reads no column
                block = bound.generate_columns(start, stop, ctx, fields=families)
                keys = {
                    name: _keys(block.columns[bound.field_index(name)], family)
                    for name, family in families.items()
                }
            mask = np.ones(stop - start, dtype=bool)
            for predicate in query.predicates:
                column = predicate.column
                mask &= _mask(*keys[column], predicate, families[column])
            rows += int(np.count_nonzero(mask))
            for name, accumulator in accumulators.items():
                values, nulls = keys[name]
                try:
                    accumulator.add(values[mask & ~nulls])
                except TypeError:
                    raise GenerationError(
                        f"cannot aggregate {name!r}: mixed value types"
                    ) from None
        return {
            key: rows if aggregate.column is None
            else accumulators[aggregate.column].result(aggregate.func)
            for aggregate, key in zip(query.aggregates, _aggregate_keys(query.aggregates))
        }


# -- helpers -------------------------------------------------------------------


def _in_values(predicate: Predicate) -> tuple:
    """The value collection of an IN predicate.

    A plain string is rejected: treating it as a sequence would turn
    membership into substring/character containment (``"EAST" in
    "NORTHEAST"`` is true), which is never the intended SQL semantics.
    """
    values = predicate.value
    if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__"):
        raise GenerationError(
            f"IN predicate on {predicate.column!r} requires a collection "
            f"of values, got {type(values).__name__}"
        )
    return tuple(values)


def _objects(items: list) -> np.ndarray:
    """*items* as a 1-D object array (a tuple value stays one element)."""
    import numpy as np

    array = np.empty(len(items), dtype=object)
    array[:] = items
    return array


def _unmodelled(value: object) -> NoReturn:
    raise GenerationError(
        f"the stored form of {value!r} is not modelled; cannot compare it as SQL does"
    )


def _number(value: object) -> object:
    """A numeric column's value as the database holds it: text that
    reads as a number is that number (SQLite's numeric affinity)."""
    if isinstance(value, str):
        for parse in (int, float):
            try:
                return parse(value)
            except ValueError:
                pass
    return value


def _ordinal(value: object) -> object:
    """A date (or its ISO text) as its day ordinal; anything else as is."""
    if isinstance(value, str):
        try:
            date = datetime.date.fromisoformat(value)
        except ValueError:
            return value
        return date.toordinal() if date.isoformat() == value else value
    return value.toordinal() if type(value) is datetime.date else value


def _moment(value: object) -> object:
    """A timestamp (or its stored text) as ``datetime``; anything else
    as is. The SQL sink stores whole seconds without a zone, so a finer
    or zoned timestamp has no stored twin the model knows."""
    if isinstance(value, str):
        try:
            moment = datetime.datetime.fromisoformat(value)
        except ValueError:
            return value
        return moment if str(moment) == value else value
    if isinstance(value, datetime.datetime) and (value.microsecond or value.tzinfo):
        _unmodelled(value)
    return value


def _text(value: object) -> str:
    """*value* as the text a TEXT column holds once loaded. SQLite
    renders a float or a boolean in its own way, and the sink writes
    bytes as hex; those are not modelled."""
    if isinstance(value, (bool, float, bytes)):
        _unmodelled(value)
    return str(_moment(value) if isinstance(value, datetime.datetime) else value)


def _key_of(family: TypeFamily):
    """The per-value conversion to *family*'s comparison key."""
    if family in _NUMERIC:
        return _number
    return {TypeFamily.DATE: _ordinal, TypeFamily.TIMESTAMP: _moment}.get(family, _text)


def _keys(column: columnar.Column, family: TypeFamily) -> tuple[np.ndarray, np.ndarray]:
    """*column* as an array that compares, sums and orders the way its
    SQL type family does in a loaded database, and its NULL mask.

    Numbers stay numbers (typed arrays as they are), DATE becomes day
    ordinals, TIMESTAMP ``datetime``, and TEXT — like every other
    family — ``str``. Values under the mask are arbitrary.
    """
    import numpy as np

    nulls = column.nulls if column.nulls is not None else np.zeros(len(column), bool)
    if (family in _NUMERIC and column.kind in ("int", "float", "bool")) or (
        family is TypeFamily.DATE and column.kind == "date"
    ):
        return column.data, nulls
    key = _key_of(family)
    if column.kind == "dict":
        return _objects([key(entry) for entry in column.entries])[column.data], nulls
    values = _objects(column.to_pylist())
    nulls = nulls | (values == None)  # noqa: E711 - elementwise
    if not (key is _text and column.kind == "str"):
        valid = ~nulls
        values[valid] = _objects([key(value) for value in values[valid].tolist()])
    return values, nulls


def _operand(value: object, family: TypeFamily, column: str) -> object:
    """A predicate value as the key :func:`_keys` compares it with —
    only a value whose SQL literal compares the same way in SQLite."""
    key = _key_of(family)(value)
    if family in _NUMERIC:
        ok = isinstance(key, (int, float))
    elif family is TypeFamily.DATE:
        # an int literal is a number to SQLite, never a date
        ok = type(key) is int and isinstance(value, (str, datetime.date))
    else:
        ok = family is not TypeFamily.TIMESTAMP or isinstance(key, datetime.datetime)
    if not ok:
        raise GenerationError(
            f"cannot compare {family.value} column {column!r} with {value!r}"
        )
    return key


_COMPARE = {
    Op.EQ: operator.eq,
    Op.LT: operator.lt,
    Op.LE: operator.le,
    Op.GT: operator.gt,
    Op.GE: operator.ge,
}


def _mask(
    values: np.ndarray, nulls: np.ndarray, predicate: Predicate, family: TypeFamily
) -> np.ndarray:
    """The rows of one block where *predicate* holds — never a NULL."""
    import numpy as np

    if predicate.op is Op.IS_NULL:
        return nulls
    if predicate.op is Op.NOT_NULL:
        return ~nulls
    if predicate.op is Op.IN:
        # elementwise EQ; a NULL element matches nothing
        operands = [v for v in _in_values(predicate) if v is not None]
    else:
        operands = [predicate.value]
        if predicate.op is Op.BETWEEN:
            operands.append(predicate.value2)
        if None in operands:  # a comparison with NULL is never true
            return np.zeros(len(values), dtype=bool)
    operands = [_operand(v, family, predicate.column) for v in operands]
    valid = ~nulls
    subset = values[valid]
    try:
        if predicate.op is Op.IN:
            hits = np.zeros(len(subset), dtype=bool)
            for operand in operands:
                hits |= subset == operand
        elif predicate.op is Op.BETWEEN:
            hits = (subset >= operands[0]) & (subset <= operands[1])
        else:
            hits = _COMPARE[predicate.op](subset, operands[0])
    except TypeError:
        raise GenerationError(
            f"cannot evaluate {predicate.to_sql()!r}: mixed value types"
        ) from None
    mask = np.zeros(len(values), dtype=bool)
    mask[valid] = hits
    return mask


def _exact_sum(values: np.ndarray) -> int | float:
    """One block's sum as SQL's SUM sees it: a Python ``int`` over
    integers (no int64 wrap-around), else a correctly rounded float."""
    items = values.tolist()
    if values.dtype.kind in "biu" or all(isinstance(v, int) for v in items):
        return sum(items)
    return math.fsum(items)


class _Accumulator:
    """One column's COUNT, SUM and MIN / MAX over the non-NULL values
    the predicates keep, block by block."""

    def __init__(self, column: str, family: TypeFamily) -> None:
        self.column = column
        self.family = family
        self.summed = self.ordered = False
        self.count = 0
        self.sums: list[int | float] = []  # one exact partial per block
        self.low = self.high = None

    def need(self, func: str) -> None:
        if func in ("sum", "avg"):
            if self.family not in _NUMERIC:
                raise GenerationError(
                    f"{func.upper()}({self.column}) over a "
                    f"{self.family.value} column"
                )
            self.summed = True
        elif func in ("min", "max"):
            self.ordered = True

    def add(self, values: np.ndarray) -> None:
        self.count += len(values)
        if self.summed:
            self.sums.append(_exact_sum(values))
        if self.ordered and len(values):
            low, high = values.min(), values.max()
            self.low = low if self.low is None else min(self.low, low)
            self.high = high if self.high is None else max(self.high, high)

    def result(self, func: str) -> object:
        import numpy as np

        if func == "count":
            return self.count
        if not self.count:
            return None
        if func in ("min", "max"):
            key = self.low if func == "min" else self.high
            if self.family is TypeFamily.DATE:
                return datetime.date.fromordinal(int(key))
            return key.item() if isinstance(key, np.generic) else key
        if all(isinstance(total, int) for total in self.sums):
            total: int | float = sum(self.sums)
        else:
            total = math.fsum(self.sums)
        return total if func == "sum" else total / self.count
