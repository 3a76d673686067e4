"""The multi-node runtime: one OS process per node, part files merged.

This is the paper's §2 meta scheduler. Nodes need no communication —
every row derives from the seed hierarchy — so the runtime moves only
row-range bookkeeping, never data. It is the ``-w N`` runtime
(:class:`~repro.scheduler.executor.PackagePool`: one
:class:`~repro.scheduler.work.ShardLedger`, one delivery window, the
least-loaded node takes the next package, a dead node's packages are
redone first on a replacement) with the bytes landing elsewhere: a node
appends each chunk to its own *part file* (a new part whenever the
package does not continue its previous one, so a part may be a single
package long), flushes, and reports only the size. The report follows
the flush, so the parent's ledger — and the manifest it journals — is
always a prefix of durable state.

* When a node dies the parent truncates its part files to the reported
  durable byte offsets before its packages are redone.
* When the whole run dies, the next one resumes the same way: the
  ledger's parts are the records of the checkpoint manifest
  (:class:`~repro.resilience.checkpoint.Part`, journaled by the parent
  as each grows), so a resumed run truncates every part file to its
  watermark, starts with those parts done, and cuts only the rows none
  of them covers.

The parent merges parts in row order (header + parts + footer) into the
exact bytes a single-node run writes. Packages are the single-node
run's packages — package ``k`` is rows ``[k·P, (k+1)·P)`` — and text
chunks depend only on their absolute row range (every text writer is
strictly per-row), so where one part ends and the next begins does not
change a byte. The package-framed binary formats (Arrow/Parquet) are
refused up front, with every sink kind whose bytes cannot be merged.
"""

from __future__ import annotations

import os
import shutil
import time

from repro.engine import GenerationEngine
from repro.exceptions import SchedulingError
from repro.generators.base import ArtifactStore
from repro.model.schema import Schema
from repro.obs import span
from repro.output.config import OutputConfig
from repro.output.formats import format_spec, table_frame
from repro.output.sinks import InFlightWindow, check_durable
from repro.resilience.checkpoint import Part, RunManifest, open_checkpoint
from repro.resilience.faults import FaultPlan
from repro.scheduler.executor import PackagePool, cut_back
from repro.scheduler.progress import ProgressMonitor
from repro.scheduler.scheduler import (
    DEFAULT_INFLIGHT_EXTRA, NodeReport, RunAccounting, RunReport, emergency_teardown,
)
from repro.scheduler.work import (
    DEFAULT_PACKAGE_SIZE, PARTS_DIRNAME, ShardLedger, package_count, part_file,
)

#: sink kinds a cluster run supports. Parts must live in a shared
#: filesystem namespace the parent can truncate and merge (``file``) or
#: need no merging at all (``null``, the Figure-4 throughput setup).
CLUSTER_SINK_KINDS = ("file", "null")


class ClusterScheduler:
    """Drives a multi-node run: real node processes, dead-node recovery,
    and a byte-identical merged output.

    ``progress``, ``checkpoint`` and ``resume_from`` mean what they mean
    on :class:`~repro.scheduler.scheduler.Scheduler`: the one manifest
    in ``checkpoint`` journals every part as it grows, and
    ``resume_from`` starts from the parts it vouches for. ``faults``
    scripts node kills and slow nodes for tests. A dead node is always
    recovered until more than ``max(2, nodes)`` have died — the one
    crash-loop cap of every executor pool.
    """

    def __init__(
        self,
        schema: Schema,
        artifacts: ArtifactStore | None = None,
        *,
        output: OutputConfig | None = None,
        package_size: int = DEFAULT_PACKAGE_SIZE,
        progress: ProgressMonitor | None = None,
        checkpoint: str | None = None,
        resume_from: str | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self.schema = schema
        self.artifacts = artifacts
        self.output = output or OutputConfig()
        self.package_size = package_size
        self.progress = progress
        self.checkpoint = checkpoint
        self.resume_from = resume_from
        self.faults = faults
        if self.output.kind not in CLUSTER_SINK_KINDS:
            raise SchedulingError(
                f"distributed runs support kinds {CLUSTER_SINK_KINDS}, "
                f"not {self.output.kind!r} — nodes write mergeable part "
                "files (or discard bytes); in-process sinks cannot cross "
                "node boundaries"
            )
        if format_spec(self.output.format).binary:
            raise SchedulingError(
                f"format {self.output.format!r} is package-framed binary; "
                "its chunks cannot be split at part boundaries — "
                "use a text format, or a single-node run for binary output"
            )

    def run(self, nodes: int) -> RunReport:
        if nodes < 1:
            raise SchedulingError(f"node count must be >= 1, got {nodes}")
        started = time.perf_counter()
        if self.output.kind == "file":
            os.makedirs(self._path(PARTS_DIRNAME), exist_ok=True)
        # the cluster runtime binds the model itself, once for all nodes
        engine = GenerationEngine(self.schema, self.artifacts)
        sizes = engine.sizes
        with span("meta.run", nodes=nodes) as meta_span:
            manifest, journal = open_checkpoint(
                engine, self.output, self.package_size, list(sizes), "cluster",
                checkpoint=self.checkpoint, resume_from=self.resume_from,
            )
            accounting = RunAccounting(engine, list(sizes), self.progress)
            try:
                ledger = ShardLedger(
                    self.package_size,
                    [(table, 0, size) for table, size in sizes.items()],
                    self._resume(engine, manifest, accounting) if manifest else (),
                )
                pool = PackagePool(
                    engine, self.output, nodes, ledger,
                    InFlightWindow(nodes + DEFAULT_INFLIGHT_EXTRA), accounting,
                    starts=dict.fromkeys(sizes, 0), faults=self.faults,
                    parent_span_id=getattr(meta_span, "span_id", None),
                    journal=journal,
                )
                pool.drive()
                # tables an earlier run already merged: their final file stands
                merged = manifest.done if manifest is not None else {}
                self._assemble(engine, ledger, accounting, journal, merged)
            except BaseException as exc:
                # What the manifest vouches for is on disk already (nodes
                # flush before they report): mark it, keep the trace.
                emergency_teardown(exc, journal, self.checkpoint)
                raise
            finally:
                if journal is not None:
                    journal.close()
        return accounting.report(
            time.perf_counter() - started, nodes, "cluster",
            nodes=tuple(
                NodeReport(
                    slot.ident,
                    sum(part.rows for part in ledger.parts.get(slot.ident, ())),
                    sum(part.bytes for part in ledger.parts.get(slot.ident, ())),
                    (slot.report or {}).get("seconds", 0.0), slot.telemetry,
                )
                for slot in pool.slots.values()
            ),
            requeued_packages=pool.requeued, node_failures=pool.failures,
        )

    def _path(self, file: str) -> str:
        return os.path.join(self.output.directory, file)

    def _resume(self, engine, manifest: RunManifest, accounting) -> list[Part]:
        """The parts this run starts with: *manifest*'s, checked before
        anything is touched (each names its own part file, lies inside
        its table, overlaps no other, and its file still holds the
        bytes), then cut back to their watermarks — what a dead node's
        parts get, for every node at once. Part files the manifest does
        not vouch for go. Returned sorted by ``(table, start)``."""
        parts = sorted(manifest.parts.values(), key=lambda p: (p.table, p.start))
        sizes, stops = engine.sizes, {}
        for part in parts:
            floor, size = stops.get(part.table, 0), sizes.get(part.table, -1)
            if (
                part.file != part_file(part.table, part.start)
                or not floor <= part.start < part.stop <= size
            ):
                raise SchedulingError(
                    f"checkpoint records {part.file!r} for rows [{part.start}, "
                    f"{part.stop}) of table {part.table!r}: not a part file of "
                    "this run's tables, or overlapping another — the manifest "
                    "is corrupt or was written without --nodes"
                )
            stops[part.table] = part.stop
        if self.output.kind == "file":
            live = [part for part in parts if part.table not in manifest.done]
            for part in live:
                check_durable(self._path(part.file), part.bytes)
            for table, (_rows, nbytes) in manifest.done.items():
                check_durable(self.output.table_path(table), nbytes)
            cut_back(self.output.directory, live)
            vouched = {os.path.basename(part.file) for part in parts}
            for name in set(os.listdir(self._path(PARTS_DIRNAME))) - vouched:
                os.remove(os.path.join(self._path(PARTS_DIRNAME), name))
        for part in parts:
            accounting.resumed(
                part.table, part.rows, part.bytes,
                package_count(part.start, part.stop, self.package_size),
            )
        return parts

    # -- output assembly -----------------------------------------------------

    def _assemble(self, engine, ledger, accounting, journal, merged) -> None:
        """Verify the ledger covers every table exactly once and, for
        file output, assemble the final per-table files byte-identical
        to a single-node run: header, parts in row order, footer. The
        header/footer bytes, which no node counted, are credited here.
        Parts go only after every table is merged, so a run that dies in
        here resumes to a re-merge of the tables it had not finished."""
        files = self.output.kind == "file"
        with span("meta.merge", tables=len(engine.sizes)):
            for table, size in engine.sizes.items():
                parts = ledger.table_parts(table, size)
                header, footer = (
                    text.encode("utf-8")
                    for text in table_frame(self.output, engine, table)
                )
                accounting.frame(table, len(header) + len(footer))
                if table in merged:
                    continue  # an earlier run's final file stands
                if files:
                    self._write_table(table, parts, header, footer)
                if journal is not None:
                    journal.table_done(table, *accounting.table(table))
        if files:
            shutil.rmtree(self._path(PARTS_DIRNAME), ignore_errors=True)
        if journal is not None:
            journal.run_done()

    def _write_table(self, table, parts: list[Part], header: bytes, footer: bytes):
        with open(self.output.table_path(table), "wb") as out:
            out.write(header)
            for part in parts:
                path = self._path(part.file)
                actual = os.path.getsize(path)
                if actual != part.bytes:
                    raise SchedulingError(
                        f"part {path!r} has {actual} bytes, ledger "
                        f"says {part.bytes} — refusing to merge "
                        "inconsistent parts"
                    )
                with open(path, "rb") as src:
                    shutil.copyfileobj(src, out, 1 << 20)
            out.write(footer)
