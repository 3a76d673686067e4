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
  left;
* when the whole run dies, the next one resumes the same way: the
  ledger's parts are the records of the checkpoint manifest
  (:class:`~repro.resilience.checkpoint.Part`, journaled by the parent
  as each grows), so a resumed run truncates every part file to its
  watermark, starts with those parts done, and plans only the rows none
  of them covers.

A node is the process-pool worker with a local sink: receive a package,
run it through the same :func:`~repro.scheduler.executor.run_package`,
append the chunk to the open *part file* (a new part whenever the
package does not continue the previous one), flush, report. The report
follows the flush, so the parent's ledger — and the manifest it
journals — is always a prefix of durable state.
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
from repro.output.sinks import FileSink, NullSink, check_durable
from repro.resilience.checkpoint import Part, RunManifest, open_checkpoint
from repro.resilience.faults import FaultPlan
from repro.scheduler.executor import ExecutorPool, ExecutorSlot, die, run_package
from repro.scheduler.progress import ProgressMonitor
from repro.scheduler.scheduler import NodeReport, RunAccounting, RunReport
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


def part_file(table: str, start: int) -> str:
    """Deterministic part-file name (relative to the output directory)
    for the extent of *table* starting at absolute row *start*.

    Both sides compute it independently — node processes open the sink,
    the parent truncates and merges without asking. Keyed by start row
    so a reassigned tail (which begins at the dead node's durable
    boundary) never collides with the dead node's own part.
    """
    return os.path.join(PARTS_DIRNAME, f"{table}.part{start:012d}")


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


class _Part(Part):
    """A contiguous extent one node generated: one part file, one
    ``node.assignment`` span, one manifest watermark. Node and parent
    grow parts by the same rule (:meth:`continues`) over the same
    package sequence, so the parent knows every part without being told."""

    __slots__ = ("reason", "origin")

    def __init__(self, first: Extent) -> None:
        super().__init__(part_file(first.table, first.start), first.table, first.start)
        self.reason, self.origin = first.reason, first.origin

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

    Parts only grow on reported — therefore flushed — packages, so
    truncating a part file to ``part.bytes`` (a dead node's now, every
    journaled part's in a resumed run) can never cut data the ledger
    counts; at worst it discards durable-but-unreported tail bytes,
    which the reassigned range regenerates identically. ``resumed`` are
    the parts an earlier run's manifest vouches for: done from the start.
    """

    def __init__(self, package_size: int, resumed: list[Part] = ()) -> None:
        self.package_size = package_size
        self.resumed = resumed
        self.shards: dict[int, _Shard] = {}
        self.steals = 0
        self.stolen_rows = 0

    def add(self, slot: ExecutorSlot) -> None:
        self.shards[slot.ident] = _Shard(slot)

    def uncovered(self, ranges) -> list[tuple[str, int, int]]:
        """*ranges* minus the rows the resumed parts already hold."""
        left = []
        for table, start, stop in ranges:
            for part in self.resumed:  # sorted by (table, start), disjoint
                if part.table == table and part.stop > start and part.start < stop:
                    if part.start > start:
                        left.append((table, start, part.start))
                    start = part.stop
            if start < stop:
                left.append((table, start, stop))
        return left

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

    def complete(self, node: int, package: Extent, nbytes: int) -> _Part:
        """Grow *node*'s current part by a reported package; the grown
        part is what the run journals."""
        shard = self.shards[node]
        if not shard.parts or not shard.parts[-1].continues(package):
            shard.parts.append(_Part(package))
        part = shard.parts[-1]
        part.grow(package.stop, nbytes)
        shard.rows += package.rows
        shard.bytes += nbytes
        return part

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

    def parts(self, table: str, size: int) -> list[Part]:
        """The parts of *table* in row order, verified to cover
        ``[0, size)`` exactly once."""
        parts = sorted(
            (part
             for held in (self.resumed, *(s.parts for s in self.shards.values()))
             for part in held if part.table == table),
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

    __slots__ = ("sink", "_span", "_handle")

    def __init__(self, output: OutputConfig, first: Extent) -> None:
        super().__init__(first)
        self.sink = NullSink()
        if output.kind == "file":
            self.sink = FileSink(os.path.join(output.directory, self.file))
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


def _cluster_node(node, tasks, results, telemetry, engine, nodes, output, faults):
    """Process body of one cluster node (see the module docstring).

    *engine* is the parent's bound engine, as in the pool worker:
    inherited under fork, rebuilt from its model under spawn.
    """
    delay = faults.node_delay(node) if faults is not None else 0.0
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
                part = _OpenPart(output, extent)
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
            # flushed before it is reported: what the parent's ledger and
            # manifest count never overstates the part file.
            part.sink.flush()
            part.grow(stop, result.nbytes)
            # the chunk stays here; dropping it now also keeps it from
            # staying alive while the next package is formatted
            result = result._replace(chunk=None)
            results.put(("package", node, (table, start), result, None))
        if part is not None:
            part.close()
    return {"seconds": time.perf_counter() - started}


# --------------------------------------------------------------------------
# parent side
# --------------------------------------------------------------------------


class ClusterScheduler:
    """Drives a multi-node run: real node processes, elastic stealing,
    dead-node recovery, and a byte-identical merged output.

    ``progress``, ``checkpoint`` and ``resume_from`` mean what they mean
    on :class:`~repro.scheduler.scheduler.Scheduler`: the one manifest
    in ``checkpoint`` journals every part as it grows, and
    ``resume_from`` starts from the parts it vouches for. ``faults``
    scripts node kills and slow nodes for tests. More than ``max(2,
    nodes)`` dead nodes abort the run — a crash loop must not respawn
    forever.
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
                "its chunks cannot be split at stolen range boundaries — "
                "use a text format, or a single-node run for binary output"
            )

    def run(self, nodes: int) -> RunReport:
        if nodes < 1:
            raise SchedulingError(f"node count must be >= 1, got {nodes}")
        started = time.perf_counter()
        with span("meta.run", nodes=nodes) as meta_span:
            run = _ClusterRun(self, nodes, getattr(meta_span, "span_id", None))
            try:
                run.drive()
                run.assemble()
            except BaseException as exc:
                # SIGINT or abort: what the manifest vouches for is on
                # disk (nodes flush before they report) — mark it and go.
                if run.journal is not None:
                    run.journal.interrupted(type(exc).__name__)
                raise
            finally:
                if run.journal is not None:
                    run.journal.close()
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
    truncate-and-reassign — all as edits of the :class:`ShardLedger`,
    whose parts the checkpoint journals and a resumed run starts from."""

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
        sizes = self.engine.sizes
        manifest, self.journal = open_checkpoint(
            self.engine, output, scheduler.package_size, list(sizes), "cluster",
            checkpoint=scheduler.checkpoint, resume_from=scheduler.resume_from,
        )
        super().__init__(
            _cluster_node, (self.engine, nodes, output, scheduler.faults),
            parent_span_id=meta_span_id, faults=scheduler.faults, tag="node",
        )
        self.failure_limit = max(2, nodes)
        self.failures = 0
        self.reassigned = 0
        self.accounting = RunAccounting(self.engine, list(sizes), scheduler.progress)
        #: tables an earlier run already merged: their final file stands
        self.merged = manifest.done if manifest is not None else {}
        self.ledger = ShardLedger(
            scheduler.package_size,
            self._resume(manifest, scheduler.package_size) if manifest else (),
        )
        for shard in plan_shards(sizes, nodes):
            self.ledger.assign(
                self._spawn_node().ident, self.ledger.uncovered(shard), "shard", None
            )

    def _spawn_node(self) -> ExecutorSlot:
        slot = self.spawn()
        self.ledger.add(slot)
        return slot

    def _path(self, file: str) -> str:
        return os.path.join(self.output.directory, file)

    def _resume(self, manifest: RunManifest, package_size: int) -> list[Part]:
        """The parts this run starts with: *manifest*'s, checked before
        anything is touched (each names its own part file, lies inside
        its table, overlaps no other, and its file still holds the
        bytes), then cut back to their watermarks — what a dead node's
        parts get, for every node at once. Part files the manifest does
        not vouch for go. Returned sorted by ``(table, start)``."""
        parts = sorted(manifest.parts.values(), key=lambda p: (p.table, p.start))
        sizes, stops = self.engine.sizes, {}
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
        if self.part_dir is not None:
            live = [part for part in parts if part.table not in self.merged]
            for part in live:
                check_durable(self._path(part.file), part.bytes)
            for table, (_rows, nbytes) in self.merged.items():
                check_durable(self.output.table_path(table), nbytes)
            self._cut_back(live)
            vouched = {os.path.basename(part.file) for part in parts}
            for name in set(os.listdir(self.part_dir)) - vouched:
                os.remove(os.path.join(self.part_dir, name))
        for part in parts:
            self.accounting.resumed(
                part.table, part.rows, part.bytes, part.packages(package_size)
            )
        return parts

    # -- policy --------------------------------------------------------------

    def finished(self) -> bool:
        return self.ledger.done

    def dispatch(self) -> None:
        ledger = self.ledger
        live = self.live()
        for slot in live:
            if not slot.inflight and not ledger.shards[slot.ident].pending:
                ledger.steal(slot.ident)
        for slot in live:
            for package in ledger.fill(slot.ident):
                self.send(slot, package.key, package)

    def complete(self, slot, package, result) -> None:
        part = self.ledger.complete(slot.ident, package, result.nbytes)
        if self.journal is not None:
            self.journal.record_part(part)
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
        # id) — same rows, same bytes.
        target = min(
            self.live(), key=lambda s: self.ledger.remaining(s.ident), default=None
        ) or self._spawn_node()
        self.ledger.assign(target.ident, ranges, "dead-node", slot.ident)

    def _cut_back(self, parts: list[Part]) -> None:
        """Cut part files back to what the ledger counts."""
        for part in parts:
            # reopening at an offset truncates to it, and refuses a file
            # shorter than what was reported durable
            FileSink(self._path(part.file), resume_at=part.bytes).close()

    def _truncate_parts(self, node: int, lost: list[Extent]) -> None:
        """A dead node's files: its parts cut back, the rest removed."""
        parts = self.ledger.shards[node].parts
        self._cut_back(parts)
        known = {part.file for part in parts}
        for package in lost:
            # a part the node opened for a package it never reported: the
            # reassigned range starts at the same row and recreates it.
            file = part_file(*package.key)
            if file not in known and os.path.exists(self._path(file)):
                os.remove(self._path(file))

    # -- output assembly -----------------------------------------------------

    def assemble(self) -> None:
        """Verify the ledger covers every table exactly once and, for
        file output, assemble the final per-table files byte-identical
        to a single-node run: header, parts in row order, footer. The
        header/footer bytes, which no node counted, are credited here.
        Parts go only after every table is merged, so a run that dies in
        here resumes to a re-merge of the tables it had not finished."""
        with span("meta.merge", tables=len(self.engine.sizes)):
            for table, size in self.engine.sizes.items():
                parts = self.ledger.parts(table, size)
                header, footer = (
                    text.encode("utf-8")
                    for text in table_frame(self.output, self.engine, table)
                )
                self.accounting.frame(table, len(header) + len(footer))
                if table in self.merged:
                    continue  # an earlier run's final file stands
                if self.part_dir is not None:
                    self._write_table(table, parts, header, footer)
                if self.journal is not None:
                    self.journal.table_done(table, *self.accounting.table(table))
        if self.part_dir is not None:
            shutil.rmtree(self.part_dir, ignore_errors=True)
        if self.journal is not None:
            self.journal.run_done()

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
