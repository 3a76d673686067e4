"""Deterministic, timestamped query streams over a model.

A :class:`WorkloadStream` turns a :class:`~repro.workload.spec.WorkloadSpec`
into a concrete sequence of :class:`ScheduledQuery` events. Everything is
a pure function of the model seed and the spec:

* **slot assignment** — which template fills stream slot *i*, and which
  parameter-vector index it uses, is computed from a per-slot seed
  (``combine_name64(seed, "workload:<name>:slot:<i>")``), so any slice
  of the stream can be produced independently and in parallel with
  identical results;
* **parameters** — instance *index* of template *t* flows through
  :class:`~repro.core.queries.QueryParameterGenerator`, i.e. the same
  seed hierarchy as the data;
* **arrival timestamps** — seconds since stream start, derived from the
  seed by the spec's arrival process. No wall clock anywhere: the same
  model and spec dump byte-identical JSONL every time.

The JSONL interchange format is one event per line:
``{"ts": ..., "template": ..., "index": ..., "sql": ...}``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Iterable

from repro.core.queries import QueryParameterGenerator, QueryTemplate
from repro.engine import GenerationEngine
from repro.exceptions import WorkloadError
from repro.prng.distributions import Categorical
from repro.prng.xorshift import XorShift64Star, combine_name64
from repro.workload.spec import WorkloadSpec

#: Timestamps are rounded to microseconds before they enter an event, so
#: the dumped stream's bytes do not depend on last-ulp libm differences.
_TS_DECIMALS = 6


@dataclass(frozen=True)
class ScheduledQuery:
    """One stream event: a concrete SQL text with an arrival time.

    ``ts`` is in seconds of workload time since stream start (t=0);
    ``index`` is the template's parameter-vector index, so an event can
    be re-instantiated (or deduplicated) without parsing its SQL.
    """

    ts: float
    template: str
    index: int
    sql: str

    def to_json(self) -> str:
        return json.dumps(
            {"ts": self.ts, "template": self.template,
             "index": self.index, "sql": self.sql},
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, line: str) -> "ScheduledQuery":
        try:
            obj = json.loads(line)
            ts = float(obj["ts"])
            event = cls(ts, str(obj["template"]), int(obj["index"]), str(obj["sql"]))
        except (ValueError, KeyError, TypeError) as exc:
            raise WorkloadError(f"bad stream line: {exc}") from exc
        if not 0.0 <= ts < math.inf:  # json reads Infinity and NaN
            raise WorkloadError(f"bad stream line: ts {ts} is not a finite time >= 0")
        return event


class WorkloadStream:
    """Materializes a spec into scheduled query events."""

    def __init__(self, engine: GenerationEngine, spec: WorkloadSpec) -> None:
        spec.validate()
        self.schema = engine.schema
        self.spec = spec
        self._parameters = QueryParameterGenerator(engine)
        self._pool = spec.effective_pool_size()
        self._mix = Categorical(
            [weighted.template for weighted in spec.templates],
            [weighted.weight for weighted in spec.templates],
        )

    # -- slot assignment (pure per slot) ------------------------------------

    def _slot_rng(self, index: int) -> XorShift64Star:
        seed = combine_name64(
            self.schema.seed, f"workload:{self.spec.name}:slot:{index}"
        )
        return XorShift64Star(seed)

    def slot(self, index: int) -> tuple[QueryTemplate, int]:
        """Template and parameter index of stream slot *index*.

        A pure function of (model seed, spec, index): slot assignment
        never depends on other slots, so slices of the stream can be
        generated independently — template/instance parallelism cannot
        change the stream.
        """
        rng = self._slot_rng(index)
        template = self._mix.sample(rng)
        repeated = (
            self.spec.repetition > 0.0
            and rng.next_double() < self.spec.repetition
        )
        if repeated:
            # Draw from the small shared pool → parameters repeat.
            instance = rng.next_long(self._pool)
        else:
            # Slot-unique index beyond the pool → parameters are fresh.
            instance = self._pool + index
        return template, instance

    # -- arrival process ----------------------------------------------------

    def arrivals(self, count: int | None = None) -> list[float]:
        """Seed-derived arrival timestamps for the first *count* slots."""
        count = self.spec.count if count is None else count
        arrival = self.spec.arrival
        if arrival.process == "steady":
            return [round(i / arrival.rate, _TS_DECIMALS) for i in range(count)]
        rng = XorShift64Star(combine_name64(
            self.schema.seed, f"workload:{self.spec.name}:arrivals"
        ))
        out: list[float] = []
        t = 0.0
        for _ in range(count):
            out.append(round(t, _TS_DECIMALS))
            if arrival.process == "poisson":
                rate = arrival.rate
            else:  # diurnal: sinusoidal rate modulation around the mean
                phase = 2.0 * math.pi * t / arrival.period
                rate = arrival.rate * (1.0 + arrival.amplitude * math.sin(phase))
            # Exponential inter-arrival gap; 1 - u is in (0, 1].
            t += -math.log(1.0 - rng.next_double()) / rate
        return out

    # -- events -------------------------------------------------------------

    def events(self, start: int = 0, stop: int | None = None) -> list[ScheduledQuery]:
        """Scheduled queries for slots ``[start, stop)``.

        Any slicing yields the same events as the full stream — slot
        assignment is per-slot pure and arrivals are a fixed function of
        the seed.
        """
        stop = self.spec.count if stop is None else min(stop, self.spec.count)
        if start < 0 or stop < start:
            raise WorkloadError(f"bad stream slice [{start}, {stop})")
        timestamps = self.arrivals(stop)
        out: list[ScheduledQuery] = []
        for index in range(start, stop):
            template, instance = self.slot(index)
            sql = self._parameters.instantiate(template, instance)
            out.append(
                ScheduledQuery(timestamps[index], template.name, instance, sql)
            )
        return out

    # -- JSONL interchange ---------------------------------------------------

    def dump_jsonl(self, handle: IO[str]) -> int:
        """Write the full stream as JSONL; returns the event count."""
        count = 0
        for event in self.events():
            handle.write(event.to_json())
            handle.write("\n")
            count += 1
        return count


def read_jsonl(lines: Iterable[str]) -> list[ScheduledQuery]:
    """Parse a dumped stream (any iterable of lines; blanks skipped)."""
    events = []
    for line in lines:
        line = line.strip()
        if line:
            events.append(ScheduledQuery.from_json(line))
    return events
