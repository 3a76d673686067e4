"""Workload specification: which queries, how mixed, and when they arrive.

The paper's §7 promises to "generate the queries consistently using
PDGF" — the data side is the rest of this repository; this module
describes the *workload* side: a weighted mix of parameterized query
templates, a repetition coefficient that splits the stream into a
unique-query tail and a repeated-query pool (the unique/repeated split
of workload-generator practice), and an arrival process whose
timestamps are derived from the model seed, never from a wall clock —
a workload is byte-reproducible exactly like the data it runs against.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from repro.core.queries import _NUMERIC, ParameterSpec, Query, QueryTemplate
from repro.exceptions import WorkloadError
from repro.model.datatypes import TypeFamily
from repro.model.sqlnames import sql_name

#: the column families :func:`auto_spec` filters with ``<=``
_RANGED = (*_NUMERIC, TypeFamily.DATE)

#: Supported arrival processes.
ARRIVAL_PROCESSES = ("steady", "poisson", "diurnal")


@dataclass(frozen=True)
class ArrivalSpec:
    """When queries arrive, as a seed-driven point process.

    ``process`` is one of

    * ``"steady"``  — fixed inter-arrival gaps of ``1/rate`` seconds,
    * ``"poisson"`` — memoryless bursts: exponential inter-arrival gaps
      with mean ``1/rate``,
    * ``"diurnal"`` — a Poisson process whose instantaneous rate swings
      sinusoidally around ``rate`` with the given ``period`` and
      ``amplitude`` (the day/night load curve, compressed).

    ``rate`` is the mean arrival rate in queries per second of
    *workload time*; replay may compress workload time (see
    ``max_speedup`` on the replayer).
    """

    process: str = "steady"
    rate: float = 10.0
    period: float = 60.0
    amplitude: float = 0.8

    def validate(self) -> None:
        if self.process not in ARRIVAL_PROCESSES:
            raise WorkloadError(
                f"unknown arrival process {self.process!r} "
                f"(expected one of {', '.join(ARRIVAL_PROCESSES)})"
            )
        if self.rate <= 0:
            raise WorkloadError(f"arrival rate must be > 0, got {self.rate}")
        if self.process == "diurnal":
            if self.period <= 0:
                raise WorkloadError(f"diurnal period must be > 0, got {self.period}")
            if not 0.0 <= self.amplitude < 1.0:
                raise WorkloadError(
                    f"diurnal amplitude must be in [0, 1), got {self.amplitude}"
                )


@dataclass(frozen=True)
class WeightedTemplate:
    """One template of the mix with its relative frequency."""

    template: QueryTemplate
    weight: float = 1.0


@dataclass
class WorkloadSpec:
    """A complete, seed-reproducible query workload description.

    ``repetition`` is the expected fraction of the stream drawn from a
    small pool of repeated query instances (per template, ``pool_size``
    distinct parameter vectors); the remaining slots each get a fresh,
    slot-unique parameter vector. ``repetition = 0`` is an all-unique
    stream, ``repetition → 1`` approaches a pure cache-hit workload.

    ``checks`` are structured queries a replay runs before its first
    event and grades against the virtual executor's exact answers — the
    §7 "verification results" hook, carried along with the workload.
    """

    name: str
    templates: list[WeightedTemplate]
    count: int = 100
    repetition: float = 0.0
    pool_size: int = 0
    arrival: ArrivalSpec = dc_field(default_factory=ArrivalSpec)
    checks: list[tuple[str, Query]] = dc_field(default_factory=list)

    @classmethod
    def uniform(
        cls, name: str, templates: list[QueryTemplate], **kwargs: object
    ) -> "WorkloadSpec":
        """A spec giving every template equal weight."""
        return cls(name, [WeightedTemplate(t) for t in templates], **kwargs)  # type: ignore[arg-type]

    def validate(self) -> None:
        if not self.templates:
            raise WorkloadError(f"workload {self.name!r} has no templates")
        if self.count < 0:
            raise WorkloadError(f"workload count must be >= 0, got {self.count}")
        if not 0.0 <= self.repetition <= 1.0:
            raise WorkloadError(
                f"repetition must be in [0, 1], got {self.repetition}"
            )
        if self.pool_size < 0:
            raise WorkloadError(f"pool_size must be >= 0, got {self.pool_size}")
        total = sum(w.weight for w in self.templates)
        if total <= 0:
            raise WorkloadError(f"workload {self.name!r} has no positive weights")
        for weighted in self.templates:
            if weighted.weight < 0:
                raise WorkloadError(
                    f"template {weighted.template.name!r} has negative weight"
                )
        names = [w.template.name for w in self.templates]
        if len(names) != len(set(names)):
            raise WorkloadError(f"workload {self.name!r} has duplicate template names")
        self.arrival.validate()

    def effective_pool_size(self) -> int:
        """Distinct parameter vectors per template in the repeated pool.

        Explicit ``pool_size`` wins; otherwise the pool is sized so the
        unique share of the stream spreads across the templates
        (at least one instance per template).
        """
        if self.pool_size:
            return self.pool_size
        unique = max(int(round(self.count * (1.0 - self.repetition))), 1)
        return max(unique // max(len(self.templates), 1), 1)


def auto_spec(
    schema,
    *,
    name: str = "auto",
    count: int = 50,
    repetition: float = 0.3,
    arrival: ArrivalSpec | None = None,
) -> WorkloadSpec:
    """Derive a workload for *any* model from its declared columns.

    One COUNT(*) probe per table, filtered by its first non-primary
    numeric or DATE column (``<= :p``), else by its first non-primary
    text column (``= :p``); a table with neither gets an unfiltered
    count. This is the CLI's fallback for extracted models that ship no
    hand-written templates. Every parameter is a generated cell
    (:class:`~repro.core.queries.QueryParameterGenerator`), so the stream
    is seed-reproducible and each filter matches data.
    """
    templates: list[WeightedTemplate] = []
    for table in schema.tables:
        columns = [field for field in table.fields if not field.primary]
        probes = [(f, "<=") for f in columns if f.dtype.family in _RANGED]
        probes += [(f, "=") for f in columns if f.dtype.family is TypeFamily.TEXT]
        sql = f"SELECT COUNT(*) FROM {sql_name(table.name)}"
        specs: list[ParameterSpec] = []
        if probes:
            field, op = probes[0]
            sql += f" WHERE {sql_name(field.name)} {op} :p"
            specs = [ParameterSpec("p", table.name, field.name)]
        templates.append(
            WeightedTemplate(QueryTemplate(f"scan_{table.name}", sql, specs))
        )
    if not templates:
        raise WorkloadError(f"model {schema.name!r} has no tables to query")
    return WorkloadSpec(
        name=name,
        templates=templates,
        count=count,
        repetition=repetition,
        arrival=arrival or ArrivalSpec(),
    )
