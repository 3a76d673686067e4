"""Streaming output: feed a live consumer while data is generated.

PDGF writes "to files, database systems, streaming systems, and modern
big data storage systems" (paper §1). This example uses the callback
sink as the streaming hookup: generated JSON-lines events flow into a
consumer that maintains live aggregates — no file ever touches disk —
and into a gzip file simultaneously via a tee.

Run: ``python examples/streaming_sink.py``
"""

from __future__ import annotations

import json
import tempfile

from repro.engine import GenerationEngine
from repro.model import Field, GeneratorSpec, Schema, Table
from repro.output.sinks import CallbackSink, GzipFileSink, Sink
from repro.output.writers import JsonWriter


class TeeSink(Sink):
    """Duplicates the stream into several downstream sinks."""

    def __init__(self, *sinks: Sink) -> None:
        self._sinks = sinks

    def write(self, chunk: str) -> None:
        for sink in self._sinks:
            sink.write(chunk)

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()


class LiveAggregator:
    """The 'streaming system': consumes JSON-lines click events."""

    def __init__(self) -> None:
        self.events = 0
        self.revenue = 0.0
        self.by_action: dict[str, int] = {}

    def consume(self, chunk: str) -> None:
        for line in chunk.splitlines():
            event = json.loads(line)
            self.events += 1
            self.revenue += event["amount"]
            self.by_action[event["action"]] = (
                self.by_action.get(event["action"], 0) + 1
            )


def build_schema() -> Schema:
    schema = Schema("clickstream", seed=4242)
    schema.add_table(Table("events", "5000", [
        Field.of("event_id", "BIGINT", GeneratorSpec("IdGenerator"), primary=True),
        Field.of("ts", "TIMESTAMP", GeneratorSpec(
            "TimestampGenerator",
            {"min": "2025-01-01 00:00:00", "max": "2025-01-01 23:59:59"},
        )),
        Field.of("action", "VARCHAR(10)", GeneratorSpec(
            "DictListGenerator",
            {"values": ["view", "cart", "buy"], "weights": [0.8, 0.15, 0.05]},
        )),
        Field.of("amount", "DECIMAL(8,2)", GeneratorSpec(
            "DoubleGenerator", {"min": 0.0, "max": 200.0, "places": 2}
        )),
    ]))
    return schema


def main() -> None:
    schema = build_schema()
    engine = GenerationEngine(schema)
    bound = engine.bound_table("events")
    writer = JsonWriter("events", bound.column_names)

    aggregator = LiveAggregator()
    with tempfile.TemporaryDirectory() as directory:
        archive_path = f"{directory}/events.jsonl.gz"
        sink = TeeSink(CallbackSink(aggregator.consume), GzipFileSink(archive_path))

        ctx = engine.new_context("events")
        batch: list[str] = []
        for row in range(engine.sizes["events"]):
            batch.append(writer.write_row(bound.generate_row(row, ctx)))
            if len(batch) == 500:  # stream in work-package-sized chunks
                sink.write("".join(batch))
                batch.clear()
                print(f"  streamed {aggregator.events:5d} events, "
                      f"running revenue {aggregator.revenue:12.2f}")
        if batch:
            sink.write("".join(batch))
        sink.close()

        print(f"\n== final: {aggregator.events} events ==")
        for action, count in sorted(aggregator.by_action.items()):
            print(f"  {action:<5} {count:5d} ({count / aggregator.events:.0%})")

        import gzip

        with gzip.open(archive_path, "rt") as handle:
            archived = sum(1 for _ in handle)
        assert archived == aggregator.events
        print(f"== archive holds the same {archived} events (gzip) ==")


if __name__ == "__main__":
    main()
