"""The multi-node runtime: one OS process per node, elastic stealing.

This is the paper's §2 meta scheduler. Nodes need no communication —
every row derives from the seed hierarchy — so the runtime moves only
row-range bookkeeping, never data, and all of it lives in the parent:

* each node starts with a shard (contiguous ``[start, stop)`` per table
  from the seed-pure :func:`~repro.scheduler.work.plan_shards` split),
  kept by the parent as a deque of pending ranges in the
  :class:`ShardLedger`;
* the parent feeds every node work packages cut from the front of its
  deque through a small fixed look-ahead window
  (:data:`NODE_LOOKAHEAD`), so a node is never idle across the dispatch
  round trip and everything beyond the window stays movable;
* when a node runs dry the parent *steals*: the tail half of the
  busiest node's pending packages moves to the idle node's deque — a
  ledger edit, redo-free because nothing pending was ever sent anywhere;
* when a node dies the parent truncates its part files to the reported
  durable byte offsets and moves what it still held (in-flight and
  pending) to a survivor, or to a fresh replacement process if none is
  left — the same regenerate-the-tail recovery the single-node
  checkpoint machinery uses, at node granularity.

A node is the process-pool worker with a local sink: receive a package,
run it through the same :func:`~repro.scheduler.executor.run_package`,
append the chunk to the open *part file* (a new part whenever the
package does not continue the previous one), journal it into its own
``node<i>/`` checkpoint manifest, report. The report follows the
journal, so the parent's ledger is always a prefix of durable state.
Process bootstrap, telemetry shipping, liveness and shutdown are the
shared :mod:`repro.scheduler.executor` core; the parent counts every
reported package in the same
:class:`~repro.scheduler.scheduler.RunAccounting` a single-node run
uses and returns the same :class:`~repro.scheduler.scheduler.RunReport`.

The parent merges parts in row order (header + parts + footer) into the
exact bytes a single-node run writes. Text chunks depend only on their
absolute row range — every text writer is strictly per-row — which is
why stolen ranges can re-anchor package boundaries without changing a
byte. The package-framed binary formats (Arrow/Parquet) cannot be split
at stolen boundaries and are refused up front.
"""

from __future__ import annotations

import os
import shutil
import time
from collections import deque
from typing import NamedTuple

from repro.engine import GenerationEngine
from repro.exceptions import SchedulingError
from repro.generators.base import ArtifactStore
from repro.model.schema import Schema
from repro.obs import span
from repro.output.config import OutputConfig
from repro.output.formats import format_spec, table_frame
from repro.output.sinks import FileSink, NullSink
from repro.resilience.checkpoint import CheckpointWriter, model_fingerprint
from repro.resilience.faults import FaultPlan
from repro.scheduler.executor import ExecutorPool, ExecutorSlot, die, run_package
from repro.scheduler.scheduler import (
    NodeReport,
    RunAccounting,
    RunReport,
    node_checkpoint_dir,
)
from repro.scheduler.work import DEFAULT_PACKAGE_SIZE, WorkPackage, plan_shards

#: where nodes write their part files, under the output directory.
PARTS_DIRNAME = ".dbsynth-parts"

#: sink kinds a cluster run supports. Parts must live in a shared
#: filesystem namespace the parent can truncate and merge (``file``) or
#: need no merging at all (``null``, the Figure-4 throughput setup).
CLUSTER_SINK_KINDS = ("file", "null")

#: packages a node may hold undone: the one it is generating plus one
#: queued behind it, so the parent's dispatch round trip never idles the
#: node while everything further out stays stealable.
NODE_LOOKAHEAD = 2


def part_path(output: OutputConfig, table: str, start: int) -> str:
    """Deterministic part-file path for the extent of *table* starting
    at absolute row *start*: a table file of the parts directory, named
    by the same rule as the final one.

    Both sides compute it independently — node processes open the sink,
    the parent truncates and merges without asking. Keyed by start row
    so a reassigned tail (which begins at the dead node's durable
    boundary) never collides with the dead node's own part.
    """
    return output.table_path(
        os.path.join(PARTS_DIRNAME, f"{table}.part{start:012d}")
    )


# --------------------------------------------------------------------------
# the ledger
# --------------------------------------------------------------------------


class Extent(NamedTuple):
    """Rows ``[start, stop)`` of one table as a node holds them — a
    pending range or a dispatched package — with why it holds them
    (``"shard"``, ``"steal"``, ``"dead-node"``) and which node they came
    from. This tuple is also the parent → node message."""

    table: str
    start: int
    stop: int
    reason: str
    origin: int | None

    @property
    def rows(self) -> int:
        return self.stop - self.start

    @property
    def key(self) -> tuple[str, int]:
        return self.table, self.start


class _Part:
    """A contiguous extent one node generated: one part file, one
    ``node.assignment`` span. Node and parent grow parts by the same
    rule (:meth:`continues`) over the same package sequence, so the
    parent knows every part without being told."""

    __slots__ = ("table", "start", "stop", "reason", "origin", "bytes")

    def __init__(self, first: Extent) -> None:
        self.table, self.start, _, self.reason, self.origin = first
        self.stop = first.start
        self.bytes = 0

    def continues(self, package: Extent) -> bool:
        return (package.table, package.start, package.reason, package.origin) == (
            self.table, self.stop, self.reason, self.origin
        )


class _Shard:
    """One node's row of the ledger."""

    __slots__ = ("slot", "pending", "parts", "rows", "bytes",
                 "steals_taken", "steals_yielded")

    def __init__(self, slot: ExecutorSlot) -> None:
        self.slot = slot
        self.pending: deque[Extent] = deque()
        self.parts: list[_Part] = []
        self.rows = 0
        self.bytes = 0
        self.steals_taken = 0
        self.steals_yielded = 0


class ShardLedger:
    """Which node owns which rows, in three states per node: *pending*
    ranges (a deque, movable), packages *in flight* (the slot's
    ``inflight``, at most :data:`NODE_LOOKAHEAD`), and *parts* done.

    Parts only grow on reported — therefore journaled and flushed —
    packages, so truncating a dead node's part file to ``part.bytes``
    can never cut data the ledger counts; at worst it discards
    durable-but-unreported tail bytes, which the reassigned range
    regenerates identically.
    """

    def __init__(self, package_size: int) -> None:
        self.package_size = package_size
        self.shards: dict[int, _Shard] = {}
        self.steals = 0
        self.stolen_rows = 0

    def add(self, slot: ExecutorSlot) -> None:
        self.shards[slot.ident] = _Shard(slot)

    def assign(self, node: int, ranges, reason: str, origin: int | None) -> None:
        self.shards[node].pending.extend(
            Extent(table, start, stop, reason, origin)
            for table, start, stop in ranges
        )

    def _packages(self, extent: Extent) -> int:
        return -(-extent.rows // self.package_size)

    def remaining(self, node: int) -> int:
        """Packages *node* has not finished: in flight plus pending."""
        shard = self.shards[node]
        return len(shard.slot.inflight) + sum(map(self._packages, shard.pending))

    @property
    def done(self) -> bool:
        return not any(
            shard.pending or shard.slot.inflight for shard in self.shards.values()
        )

    def fill(self, node: int) -> list[Extent]:
        """Cut the packages that top *node*'s look-ahead window up off
        the front of its pending deque; the caller sends them."""
        shard = self.shards[node]
        packages: list[Extent] = []
        room = NODE_LOOKAHEAD - len(shard.slot.inflight)
        while shard.pending and len(packages) < room:
            extent = shard.pending.popleft()
            cut = min(extent.start + self.package_size, extent.stop)
            if cut < extent.stop:
                shard.pending.appendleft(extent._replace(start=cut))
            packages.append(extent._replace(stop=cut))
        return packages

    def complete(self, node: int, package: Extent, nbytes: int) -> None:
        shard = self.shards[node]
        if not shard.parts or not shard.parts[-1].continues(package):
            shard.parts.append(_Part(package))
        part = shard.parts[-1]
        part.stop = package.stop
        part.bytes += nbytes
        shard.rows += package.rows
        shard.bytes += nbytes

    def steal(self, thief: int) -> None:
        """Move the tail half of the busiest other node's unfinished
        packages to *thief* — pending ones only, newest ranges first
        (the work the victim is furthest from reaching)."""
        victim = max(
            (node for node in self.shards if node != thief),
            key=self.remaining, default=None,
        )
        if victim is None:
            return
        source = self.shards[victim]
        want = self.remaining(victim) // 2
        taken: list[tuple[str, int, int]] = []
        while want > 0 and source.pending:
            extent = source.pending.pop()
            count = self._packages(extent)
            keep = max(count - want, 0)
            split = extent.start + keep * self.package_size
            if keep:
                source.pending.append(extent._replace(stop=split))
            taken.append((extent.table, split, extent.stop))
            want -= count - keep
        if not taken:
            return
        taken.reverse()
        self.assign(thief, taken, "steal", victim)
        self.shards[thief].steals_taken += len(taken)
        source.steals_yielded += len(taken)
        self.steals += len(taken)
        self.stolen_rows += sum(stop - start for _, start, stop in taken)

    def fail(self, node: int, lost: list[Extent]) -> list[tuple[str, int, int]]:
        """Take everything dead *node* held that is not durable — the
        *lost* in-flight packages, then its pending deque — out of its
        shard, as coalesced ranges ready to :meth:`assign` elsewhere."""
        shard = self.shards[node]
        ranges: list[tuple[str, int, int]] = []
        for table, start, stop, *_ in [*lost, *shard.pending]:
            if ranges and ranges[-1][0] == table and ranges[-1][2] == start:
                ranges[-1] = (table, ranges[-1][1], stop)
            else:
                ranges.append((table, start, stop))
        shard.pending.clear()
        return ranges

    def parts(self, table: str, size: int) -> list[_Part]:
        """The parts of *table* in row order, verified to cover
        ``[0, size)`` exactly once."""
        parts = sorted(
            (part for shard in self.shards.values() for part in shard.parts
             if part.table == table),
            key=lambda part: part.start,
        )
        position = 0
        for part in parts:
            if part.start != position:
                raise SchedulingError(
                    f"table {table!r}: parts are not contiguous at row "
                    f"{position} (next part starts at {part.start}) — "
                    "a range was lost or generated twice"
                )
            position = part.stop
        if position != size:
            raise SchedulingError(
                f"table {table!r}: parts cover {position} of {size} rows"
            )
        return parts


# --------------------------------------------------------------------------
# node side
# --------------------------------------------------------------------------


class _OpenPart(_Part):
    """Node side of a part: its sink and its ``node.assignment`` span."""

    __slots__ = ("sink", "rows", "_span", "_handle")

    def __init__(self, path: str | None, first: Extent) -> None:
        super().__init__(first)
        self.sink = FileSink(path) if path is not None else NullSink()
        self.rows = 0
        attrs = {"table": first.table, "start": first.start,
                 "reason": first.reason, "attempt": 1}
        if first.origin is not None:
            attrs["origin"] = first.origin
        self._span = span("node.assignment", **attrs)
        self._handle = self._span.__enter__()

    def close(self) -> None:
        self.sink.close()
        self._handle.set(stop=self.stop, rows=self.rows, bytes=self.bytes)
        self._span.__exit__(None, None, None)


def _cluster_node(
    node, tasks, results, telemetry,
    engine, nodes, output, package_size, checkpoint, faults,
):
    """Process body of one cluster node (see the module docstring).

    *engine* is the parent's bound engine, as in the pool worker:
    inherited under fork, rebuilt from its model under spawn.
    """
    delay = faults.node_delay(node) if faults is not None else 0.0
    journal = None
    if checkpoint is not None:
        # The fingerprint covers the cluster-wide model + output config,
        # not this node's (mutable, steal-dependent) range set, so every
        # node journal in a run carries the same identity.
        tables = [table.name for table in engine.schema.tables]
        journal = CheckpointWriter(
            node_checkpoint_dir(checkpoint, node),
            fingerprint=model_fingerprint(engine, output, package_size, tables),
            seed=engine.schema.seed,
            package_size=package_size,
            tables=dict(engine.sizes),
            backend="cluster",
        )
    sequences: dict[str, int] = {}
    part: _OpenPart | None = None
    started = time.perf_counter()
    with span("meta.node", node=node, nodes=nodes):
        while (extent := tasks.get()) is not None:
            table, start, stop = extent[:3]
            if faults is not None and faults.should_kill_node(table, start):
                die(results, faults.kill_exit_code)
            if part is None or not part.continues(extent):
                if part is not None:
                    part.close()
                path = None
                if output.kind == "file":
                    path = part_path(output, table, start)
                part = _OpenPart(path, extent)
            sequence = sequences.get(table, 0)
            sequences[table] = sequence + 1
            package = WorkPackage(table, start, stop, sequence)
            # first= keys binary stream framing off absolute position;
            # text formats ignore it, but keeping the single-node rule
            # (exactly one "first" chunk, at row 0) costs nothing.
            result = run_package(
                engine, output, package, attempt=1, first=start == 0, start=start
            )
            part.sink.write(result.chunk)
            if delay:
                time.sleep(delay)
            if journal is not None:
                # flushes the sink first: a journaled package is durable,
                # so the report below never overstates the part file.
                journal.record_package(package, result.chunk, part.sink)
            else:
                part.sink.flush()
            part.stop = stop
            part.rows += package.rows
            part.bytes += result.nbytes
            # the chunk stays here; dropping it now also keeps it from
            # staying alive while the next package is formatted
            result = result._replace(chunk=None)
            results.put(("package", node, (table, start), result, None))
        if part is not None:
            part.close()
    if journal is not None:
        journal.run_done()
        journal.close()
    return {"seconds": time.perf_counter() - started}


# --------------------------------------------------------------------------
# parent side
# --------------------------------------------------------------------------


class ClusterScheduler:
    """Drives a multi-node run: real node processes, elastic stealing,
    dead-node recovery, and a byte-identical merged output.

    ``steal=False`` disables rebalancing (static shards only) — the
    control the benchmarks use to show stealing beats it on an
    imbalanced cluster. ``faults`` scripts node kills and slow nodes for
    tests; ``max_node_failures`` caps dead-node recoveries (default
    ``max(2, nodes)``) so a crash loop aborts instead of respawning
    forever.
    """

    def __init__(
        self,
        schema: Schema,
        artifacts: ArtifactStore | None = None,
        *,
        output: OutputConfig | None = None,
        package_size: int = DEFAULT_PACKAGE_SIZE,
        checkpoint: str | None = None,
        steal: bool = True,
        faults: FaultPlan | None = None,
        max_node_failures: int | None = None,
    ) -> None:
        self.schema = schema
        self.artifacts = artifacts
        self.output = output or OutputConfig()
        self.package_size = package_size
        self.checkpoint = checkpoint
        self.steal = steal
        self.faults = faults
        self.max_node_failures = max_node_failures
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
                "its chunks cannot be split at stolen range boundaries — "
                "use a text format, or a single-node run for binary output"
            )

    def run(self, nodes: int) -> RunReport:
        if nodes < 1:
            raise SchedulingError(f"node count must be >= 1, got {nodes}")
        started = time.perf_counter()
        with span("meta.run", nodes=nodes) as meta_span:
            run = _ClusterRun(self, nodes, getattr(meta_span, "span_id", None))
            run.drive()
            run.assemble()
        ledger = run.ledger
        return run.accounting.report(
            time.perf_counter() - started, nodes, "cluster",
            nodes=tuple(
                NodeReport(
                    node, shard.rows, shard.bytes,
                    (shard.slot.report or {}).get("seconds", 0.0),
                    shard.slot.telemetry,
                    steals_taken=shard.steals_taken,
                    steals_yielded=shard.steals_yielded,
                )
                for node, shard in sorted(ledger.shards.items())
            ),
            steals=ledger.steals, stolen_rows=ledger.stolen_rows,
            node_failures=run.failures, reassigned_ranges=run.reassigned,
        )


class _ClusterRun(ExecutorPool):
    """One :meth:`ClusterScheduler.run`: shard-affine dispatch through
    the look-ahead window, tail stealing for idle nodes, and dead-node
    truncate-and-reassign — all as edits of the :class:`ShardLedger`."""

    role = "cluster node"

    def __init__(
        self, scheduler: ClusterScheduler, nodes: int, meta_span_id: int | None
    ) -> None:
        self.output = output = scheduler.output
        self.part_dir: str | None = None
        if output.kind == "file":
            self.part_dir = os.path.join(output.directory, PARTS_DIRNAME)
            os.makedirs(self.part_dir, exist_ok=True)
        self.engine = GenerationEngine(scheduler.schema, scheduler.artifacts)
        super().__init__(
            _cluster_node,
            (self.engine, nodes, output, scheduler.package_size,
             scheduler.checkpoint, scheduler.faults),
            parent_span_id=meta_span_id, faults=scheduler.faults, tag="node",
        )
        self.steal = scheduler.steal
        self.failure_limit = scheduler.max_node_failures
        if self.failure_limit is None:
            self.failure_limit = max(2, nodes)
        self.failures = 0
        self.reassigned = 0
        self.ledger = ShardLedger(scheduler.package_size)
        self.accounting = RunAccounting(self.engine, list(self.engine.sizes))
        for shard in plan_shards(self.engine.sizes, nodes):
            self.ledger.assign(self._spawn_node().ident, shard, "shard", None)

    def _spawn_node(self) -> ExecutorSlot:
        slot = self.spawn()
        self.ledger.add(slot)
        return slot

    # -- policy --------------------------------------------------------------

    def finished(self) -> bool:
        return self.ledger.done

    def dispatch(self) -> None:
        ledger = self.ledger
        live = self.live()
        if self.steal:
            for slot in live:
                if not slot.inflight and not ledger.shards[slot.ident].pending:
                    ledger.steal(slot.ident)
        for slot in live:
            for package in ledger.fill(slot.ident):
                self.send(slot, package.key, package)

    def complete(self, slot, package, result) -> None:
        self.ledger.complete(slot.ident, package, result.nbytes)
        self.accounting.package(package.table, package.rows, result)

    def recover(self, slot, lost) -> None:
        self.failures += 1
        if self.failures > self.failure_limit:
            raise SchedulingError(
                f"{self.failures} node failures exceed the limit of "
                f"{self.failure_limit}; refusing to respawn a crash loop"
            )
        if self.part_dir is not None:
            self._truncate_parts(slot.ident, lost)
        ranges = self.ledger.fail(slot.ident, lost)
        if not ranges:
            return
        self.reassigned += len(ranges)
        # no survivors: resume on a fresh replacement process (new node
        # id, own node<i> journal) — same rows, same bytes.
        target = min(
            self.live(), key=lambda s: self.ledger.remaining(s.ident), default=None
        ) or self._spawn_node()
        self.ledger.assign(target.ident, ranges, "dead-node", slot.ident)

    def _truncate_parts(self, node: int, lost: list[Extent]) -> None:
        """Cut a dead node's part files back to what the ledger counts."""
        parts = self.ledger.shards[node].parts
        for part in parts:
            # reopening at an offset truncates to it, and refuses a file
            # shorter than what was reported durable
            FileSink(
                part_path(self.output, part.table, part.start),
                resume_at=part.bytes,
            ).close()
        known = {(part.table, part.start) for part in parts}
        for package in lost:
            # a part the node opened for a package it never reported: the
            # reassigned range starts at the same row and recreates it.
            path = part_path(self.output, *package.key)
            if package.key not in known and os.path.exists(path):
                os.remove(path)

    # -- output assembly -----------------------------------------------------

    def assemble(self) -> None:
        """Verify the ledger covers every table exactly once and, for
        file output, assemble the final per-table files byte-identical
        to a single-node run: header, parts in row order, footer. The
        header/footer bytes, which no node counted, are credited here."""
        with span("meta.merge", tables=len(self.engine.sizes)):
            for table, size in self.engine.sizes.items():
                parts = self.ledger.parts(table, size)
                header, footer = (
                    text.encode("utf-8")
                    for text in table_frame(self.output, self.engine, table)
                )
                self.accounting.frame(table, len(header) + len(footer))
                if self.part_dir is None:
                    continue
                with open(self.output.table_path(table), "wb") as out:
                    out.write(header)
                    for part in parts:
                        path = part_path(self.output, table, part.start)
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
        if self.part_dir is not None:
            shutil.rmtree(self.part_dir, ignore_errors=True)
