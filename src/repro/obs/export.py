"""Telemetry exporters: JSONL span logs, Prometheus text, run summaries.

Three consumers, three formats (the "report measured throughput per
stage" requirement of the BDGS/survey evaluations):

* machines replaying a run read the **JSONL span log** (one object per
  line, ``meta`` record first);
* scrapers read the **Prometheus text exposition** dump;
* humans read the **end-of-run summary**, a per-stage/per-table digest
  printed by the CLI.
"""

from __future__ import annotations

import gzip
import json
import zlib
from collections import defaultdict
from dataclasses import dataclass

from repro.exceptions import ReproError
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.trace import SpanRecord, Tracer

#: quantiles rendered for histograms (Prometheus text + summaries).
HISTOGRAM_QUANTILES = (0.5, 0.95, 0.99)


# -- JSONL span log ----------------------------------------------------------

def trace_lines(tracer: Tracer) -> list[str]:
    """The JSONL lines of a tracer's spans (meta record first)."""
    return span_jsonl_lines(tracer.spans(), tracer.epoch_wall)


def span_jsonl_lines(spans: list[SpanRecord], epoch_wall: float = 0.0) -> list[str]:
    """JSONL lines for an explicit span list (meta record first) —
    the exporter behind both :func:`trace_lines` and the live
    ``/trace`` endpoint's recent-spans view."""
    lines = [
        json.dumps(
            {
                "event": "meta",
                "epoch_wall": epoch_wall,
                "spans": len(spans),
            },
            separators=(",", ":"),
        )
    ]
    for record in spans:
        lines.append(
            json.dumps(
                {
                    "event": "span",
                    "span_id": record.span_id,
                    "parent_id": record.parent_id,
                    "name": record.name,
                    "thread_id": record.thread_id,
                    "start": round(record.start, 9),
                    "duration": round(record.duration, 9),
                    "attrs": record.attrs,
                },
                separators=(",", ":"),
                default=str,
            )
        )
    return lines


def write_trace_jsonl(tracer: Tracer, path: str) -> int:
    """Dump every finished span to *path*; returns the span count.

    A ``.gz`` suffix selects gzip compression (long-run traces compress
    ~10x); :func:`read_trace_jsonl` detects the format from the file's
    magic bytes, not the name.
    """
    lines = trace_lines(tracer)
    try:
        if path.endswith(".gz"):
            with gzip.open(path, "wt", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
        else:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ReproError(f"cannot write trace {path!r}: {exc}") from exc
    return len(lines) - 1  # minus the meta record


def _read_trace_lines(path: str) -> list[str]:
    """Raw trace lines; gzip detected by magic bytes.

    A truncated gzip stream (the crash artifact of a run killed
    mid-write) yields the lines decompressed before the tear instead of
    failing — mirroring ``RunManifest.load``'s treatment of torn
    manifests.
    """
    with open(path, "rb") as handle:
        magic = handle.read(2)
    if magic == b"\x1f\x8b":
        # Decompress incrementally (not gzip.open): a stream truncated
        # mid-block still yields every byte inflated before the tear,
        # where GzipFile.read would discard the whole final read call.
        decompressor = zlib.decompressobj(16 + zlib.MAX_WBITS)
        text_parts: list[bytes] = []
        try:
            with open(path, "rb") as handle:
                while True:
                    chunk = handle.read(1 << 16)
                    if not chunk:
                        break
                    text_parts.append(decompressor.decompress(chunk))
        except (OSError, zlib.error):
            pass  # truncated/corrupt tail: keep what decompressed
        text = b"".join(text_parts).decode("utf-8", errors="replace")
    else:
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            text = handle.read()
    return text.splitlines()


def read_trace_jsonl(path: str) -> list[SpanRecord]:
    """Parse a span log written by :func:`write_trace_jsonl`.

    Tolerates the two artifacts of a run that died mid-export, the same
    way ``RunManifest.load`` tolerates torn manifests: a torn *final*
    line after a valid prefix (the record being written at the kill) is
    skipped, and a gzip-compressed trace truncated mid-stream yields
    its durable prefix. Invalid JSON anywhere *before* the final line —
    or a file with no valid line at all — still raises: that is
    corruption, not a crash artifact.
    """
    records: list[SpanRecord] = []
    try:
        lines = _read_trace_lines(path)
    except OSError as exc:
        raise ReproError(f"cannot read trace {path!r}: {exc}") from exc
    last_content = len(lines)
    while last_content and not lines[last_content - 1].strip():
        last_content -= 1
    valid_lines = 0
    for line_number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            if line_number == last_content and valid_lines:
                # A torn final line is the expected crash artifact: the
                # span it described never became durable.
                continue
            raise ReproError(
                f"{path}:{line_number}: invalid trace line: {exc}"
            ) from exc
        valid_lines += 1
        if obj.get("event") != "span":
            continue
        records.append(
            SpanRecord(
                span_id=int(obj["span_id"]),
                parent_id=obj.get("parent_id"),
                name=str(obj["name"]),
                thread_id=int(obj.get("thread_id", 0)),
                start=float(obj["start"]),
                duration=float(obj["duration"]),
                attrs=dict(obj.get("attrs") or {}),
            )
        )
    return records


@dataclass(frozen=True)
class SpanAggregate:
    """Per-span-name rollup of a trace."""

    name: str
    count: int
    total_seconds: float
    max_seconds: float

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0


def build_span_tree(
    records: list[SpanRecord],
) -> tuple[list[SpanRecord], dict[int, list[SpanRecord]]]:
    """``(roots, children-by-parent-id)`` of a (stitched) trace.

    Roots and child lists are ordered by start offset, so a rendered
    tree reads chronologically. Spans whose parent id is missing from
    the record set (a truncated trace) are treated as roots rather than
    dropped.
    """
    by_id = {record.span_id: record for record in records}
    roots: list[SpanRecord] = []
    children: dict[int, list[SpanRecord]] = defaultdict(list)
    for record in records:
        if record.parent_id is not None and record.parent_id in by_id:
            children[record.parent_id].append(record)
        else:
            roots.append(record)
    roots.sort(key=lambda r: r.start)
    for siblings in children.values():
        siblings.sort(key=lambda r: r.start)
    return roots, children


def render_span_tree(
    records: list[SpanRecord],
    max_depth: int | None = None,
    max_children: int = 12,
) -> list[str]:
    """The unified span tree as printable lines.

    Sibling runs longer than ``max_children`` are elided with a count
    line (a TPC-H run has thousands of package spans; the tree is for
    orientation, the aggregate table for totals).
    """
    roots, children = build_span_tree(records)
    lines: list[str] = []

    def describe(record: SpanRecord) -> str:
        label = f"{record.name}  {record.duration * 1000:.1f} ms"
        detail = []
        # "reason"/"origin" mark cluster reassignment spans: a stolen or
        # recovered range renders as e.g. [... node=2 origin=0 reason=steal].
        for attr in (
            "table", "sequence", "start", "rows", "bytes",
            "node", "origin", "reason", "pid", "attempt",
        ):
            if attr in record.attrs:
                detail.append(f"{attr}={record.attrs[attr]}")
        if detail:
            label += "  [" + " ".join(detail) + "]"
        return label

    def walk(record: SpanRecord, depth: int) -> None:
        lines.append("  " * depth + describe(record))
        if max_depth is not None and depth + 1 >= max_depth:
            return
        kids = children.get(record.span_id, [])
        shown = kids if len(kids) <= max_children else kids[:max_children]
        for kid in shown:
            walk(kid, depth + 1)
        if len(kids) > len(shown):
            lines.append(
                "  " * (depth + 1)
                + f"... {len(kids) - len(shown)} more sibling spans elided"
            )

    for root in roots:
        walk(root, 0)
    return lines


def table_totals(records: list[SpanRecord]) -> dict[str, tuple[int, int]]:
    """Per-table ``(rows, bytes)`` totals from ``scheduler.package``
    spans.

    These are package-stream totals (header/footer framing bytes are
    written outside the package stream), so inline and pooled traces of
    the same run report identical numbers.
    """
    totals: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for record in records:
        if record.name != "scheduler.package":
            continue
        table = record.attrs.get("table")
        if table is None:
            continue
        entry = totals[str(table)]
        entry[0] += int(record.attrs.get("rows", 0) or 0)
        entry[1] += int(record.attrs.get("bytes", 0) or 0)
    return {name: (rows, size) for name, (rows, size) in sorted(totals.items())}


def aggregate_spans(records: list[SpanRecord]) -> list[SpanAggregate]:
    """Roll spans up by name, longest cumulative duration first."""
    totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for record in records:
        entry = totals[record.name]
        entry[0] += 1
        entry[1] += record.duration
        entry[2] = max(entry[2], record.duration)
    aggregates = [
        SpanAggregate(name, int(count), total, peak)
        for name, (count, total, peak) in totals.items()
    ]
    aggregates.sort(key=lambda a: a.total_seconds, reverse=True)
    return aggregates


# -- Prometheus text exposition ----------------------------------------------

def _render_labels(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in key)
    return "{" + inner + "}"


def _merge_label(key: tuple[tuple[str, str], ...], name: str, value: str) -> str:
    pairs = sorted([*key, (name, value)])
    return _render_labels(tuple(pairs))


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines: list[str] = []
    for metric in registry.metrics():
        if metric.description:
            lines.append(f"# HELP {metric.name} {metric.description}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            for key in metric.label_sets():
                snap = metric.snapshot(**dict(key))
                bounds = [*metric.bounds, float("inf")]
                for bound, cumulative in zip(bounds, snap["buckets"]):
                    le = "+Inf" if bound == float("inf") else repr(bound)
                    lines.append(
                        f"{metric.name}_bucket"
                        f"{_merge_label(key, 'le', le)} {cumulative}"
                    )
                lines.append(f"{metric.name}_sum{_render_labels(key)} {snap['sum']}")
                lines.append(f"{metric.name}_count{_render_labels(key)} {snap['count']}")
                # Estimated quantiles as sibling untyped families
                # (`_p50` etc.) — scrapers that compute their own
                # histogram_quantile can ignore them; humans and the
                # summary endpoint get them for free. Linear
                # interpolation within buckets: error bounded by the
                # bucket width (see Histogram.quantile).
                for q in HISTOGRAM_QUANTILES:
                    suffix = f"p{int(q * 100)}"
                    value = metric.quantile(q, **dict(key))
                    lines.append(
                        f"{metric.name}_{suffix}{_render_labels(key)} {value:.6g}"
                    )
            continue
        with metric._lock:
            values = dict(metric._values)
        for key in sorted(values):
            lines.append(f"{metric.name}{_render_labels(key)} {values[key]}")
    return "\n".join(lines) + "\n"


def write_metrics_text(registry: MetricsRegistry, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(render_prometheus(registry))
    except OSError as exc:
        raise ReproError(f"cannot write metrics {path!r}: {exc}") from exc


# -- human-readable end-of-run summary ---------------------------------------

def summary_lines(
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    top_spans: int = 12,
) -> list[str]:
    """A printable digest of a run's metrics and hottest spans."""
    lines: list[str] = ["== telemetry summary =="]
    if registry is not None:
        for metric in registry.metrics():
            if isinstance(metric, Histogram):
                for key in metric.label_sets():
                    snap = metric.snapshot(**dict(key))
                    if not snap["count"]:
                        continue
                    mean = snap["sum"] / snap["count"]
                    quantiles = " ".join(
                        f"p{int(q * 100)}={metric.quantile(q, **dict(key)):,.1f}"
                        for q in HISTOGRAM_QUANTILES
                    )
                    lines.append(
                        f"  {metric.name}{_render_labels(key)}: "
                        f"n={snap['count']} mean={mean:,.1f} {quantiles}"
                    )
                continue
            with metric._lock:
                values = dict(metric._values)
            for key in sorted(values):
                value = values[key]
                rendered = f"{value:,.2f}" if isinstance(value, float) else f"{value:,}"
                lines.append(f"  {metric.name}{_render_labels(key)}: {rendered}")
    if tracer is not None:
        aggregates = aggregate_spans(tracer.spans())
        if aggregates:
            lines.append("  -- spans (by cumulative time) --")
            for agg in aggregates[:top_spans]:
                lines.append(
                    f"  {agg.name:<28} n={agg.count:<6} "
                    f"total={agg.total_seconds * 1000:10.1f} ms "
                    f"mean={agg.mean_seconds * 1000:8.2f} ms "
                    f"max={agg.max_seconds * 1000:8.2f} ms"
                )
    return lines
