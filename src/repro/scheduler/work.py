"""Work packages, the one package grid, and the ledger every runtime
dispatches from.

"A work package is a set of rows of a table that need to be generated"
(paper §2). Where a package ends is one rule, :func:`package_end`: at
the next multiple of the package size P, or at the end of the range
being cut, whichever comes first. Package ``k`` of a table is therefore
rows ``[k·P, (k+1)·P)`` clipped to what a run (a node share, a resumed
tail, a served slice, a stolen range) asked for, and its ``sequence`` is
``start // P`` — the same package, with the same number, on every
runtime. :func:`cut_packages` is the cutter; nothing else decides a
package boundary.

The meta scheduler first splits each table across nodes
(:func:`plan_shards`, row-balanced); the :class:`ShardLedger` then holds
each shard as pending ranges and cuts packages off them on the grid.
Both splits are pure arithmetic over row ranges — no coordination,
because generation is seed-addressed.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from repro.exceptions import SchedulingError
from repro.resilience.checkpoint import Part

DEFAULT_PACKAGE_SIZE = 10_000

#: where cluster nodes write their part files, under the output directory.
PARTS_DIRNAME = ".dbsynth-parts"


@dataclass(frozen=True)
class WorkPackage:
    """A contiguous row range ``[start, stop)`` of one table, cut on the
    package grid.

    ``sequence`` (``start // P``) orders packages *within the table* for
    sorted output. ``attempt`` is 1 unless a dead executor's package is
    being redone. ``reason`` / ``origin`` say how the executor came to
    hold it (``"shard"``, ``"steal"``, ``"dead-node"``, and from which
    node): a cluster node opens a new part file where they change.
    """

    table: str
    start: int
    stop: int
    sequence: int
    attempt: int = 1
    reason: str = "shard"
    origin: int | None = None

    @property
    def rows(self) -> int:
        return self.stop - self.start

    @property
    def key(self) -> tuple[str, int]:
        return self.table, self.start


def package_end(row: int, stop: int, package_size: int) -> int:
    """Where the package holding *row* ends: the next multiple of
    *package_size*, or *stop* if that comes first."""
    return min((row // package_size + 1) * package_size, stop)


def package_count(start: int, stop: int, package_size: int) -> int:
    """How many packages :func:`cut_packages` makes of ``[start, stop)``."""
    if stop <= start:
        return 0
    return (stop - 1) // package_size - start // package_size + 1


def cut_packages(
    table: str, start: int, stop: int, package_size: int,
    attempt: int = 1, reason: str = "shard", origin: int | None = None,
) -> list[WorkPackage]:
    """The packages of ``[start, stop)`` on the grid: a package ends at
    the next multiple of *package_size* or at *stop*."""
    packages = []
    while start < stop:
        end = package_end(start, stop, package_size)
        packages.append(WorkPackage(
            table, start, end, start // package_size, attempt, reason, origin,
        ))
        start = end
    return packages


def partition_rows(
    table: str, size: int, package_size: int = DEFAULT_PACKAGE_SIZE
) -> list[WorkPackage]:
    """Split a whole table, ``[0, size)``, into its packages."""
    if size < 0:
        raise SchedulingError(f"negative size {size} for table {table!r}")
    if package_size <= 0:
        raise SchedulingError(f"package size must be positive, got {package_size}")
    return cut_packages(table, 0, size, package_size)


def node_share(size: int, nodes: int, node: int) -> tuple[int, int]:
    """The row range ``[start, stop)`` node ``node`` of ``nodes`` generates.

    Ranges are contiguous and balanced to within one row; every row is
    covered exactly once (the property tests assert both). This is the
    "starting multiple instances and generating a distinct range of the
    data set with each instance" strategy (paper §4).
    """
    if nodes <= 0:
        raise SchedulingError(f"node count must be positive, got {nodes}")
    if not 0 <= node < nodes:
        raise SchedulingError(f"node {node} outside [0, {nodes})")
    base = size // nodes
    remainder = size % nodes
    start = node * base + min(node, remainder)
    stop = start + base + (1 if node < remainder else 0)
    return start, stop


def plan_shards(
    sizes: dict[str, int], nodes: int
) -> list[list[tuple[str, int, int]]]:
    """Initial shard ranges per node: ``shards[node] = [(table, start,
    stop), ...]`` with empty shares dropped.

    This is the distributed cluster's starting assignment — the shard a
    node *owns* until work stealing or dead-node recovery moves tail
    ranges elsewhere. The union over nodes covers every table's
    ``[0, size)`` exactly once (tables smaller than the node count leave
    some nodes without a range for that table; zero-row tables appear in
    no shard).
    """
    shards: list[list[tuple[str, int, int]]] = []
    for node in range(nodes):
        ranges: list[tuple[str, int, int]] = []
        for table, size in sizes.items():
            start, stop = node_share(size, nodes, node)
            if stop > start:
                ranges.append((table, start, stop))
        shards.append(ranges)
    return shards


# --------------------------------------------------------------------------
# the ledger
# --------------------------------------------------------------------------


class Extent(NamedTuple):
    """Pending rows ``[start, stop)`` of one table in a shard, with why
    the shard holds them and the attempt their packages will carry."""

    table: str
    start: int
    stop: int
    reason: str
    origin: int | None
    attempt: int = 1


def part_file(table: str, start: int) -> str:
    """Deterministic part-file name (relative to the output directory)
    for the extent of *table* starting at absolute row *start*.

    Both sides compute it independently — node processes open the sink,
    the parent truncates and merges without asking. Keyed by start row
    so a reassigned tail (which begins at the dead node's durable
    boundary) never collides with the dead node's own part.
    """
    return os.path.join(PARTS_DIRNAME, f"{table}.part{start:012d}")


class _Part(Part):
    """A contiguous extent one node generated: one part file, one
    ``node.assignment`` span, one manifest watermark. Node and parent
    grow parts by the same rule (:meth:`continues`) over the same
    package sequence, so the parent knows every part without being told."""

    __slots__ = ("reason", "origin")

    def __init__(self, first: WorkPackage) -> None:
        super().__init__(part_file(first.table, first.start), first.table, first.start)
        self.reason, self.origin = first.reason, first.origin

    def continues(self, package: WorkPackage) -> bool:
        return (package.table, package.start, package.reason, package.origin) == (
            self.table, self.stop, self.reason, self.origin
        )


class _Shard:
    """One shard's row of the ledger."""

    __slots__ = ("pending", "inflight", "parts", "steals_taken", "steals_yielded")

    def __init__(self) -> None:
        self.pending: deque[Extent] = deque()
        self.inflight = 0
        self.parts: list[_Part] = []
        self.steals_taken = 0
        self.steals_yielded = 0


class ShardLedger:
    """Which shard owns which rows, in three states per shard: *pending*
    ranges (a deque, movable), packages *in flight* (cut off and handed
    to an executor, counted), and work *done*.

    Every batch runtime dispatches from it. Inline is one shard drained
    one package at a time, ``-w N`` one shard its N executors share
    (a dead worker's packages go back to the front, :meth:`requeue`),
    ``--nodes N`` one shard per node with :meth:`steal` and :meth:`fail`.
    The caller passes :meth:`fill` its room — a look-ahead window, the
    free slots of a delivery window — so the ledger holds no policy of
    its own about how far ahead to cut.

    A cluster node's shard also keeps its *parts* (:meth:`complete_part`).
    Parts only grow on reported — therefore flushed — packages, so
    truncating a part file to ``part.bytes`` (a dead node's now, every
    journaled part's in a resumed run) can never cut data the ledger
    counts; at worst it discards durable-but-unreported tail bytes,
    which the reassigned range regenerates identically. ``resumed`` are
    the watermarks an earlier run's manifest vouches for: done from the
    start, sorted by ``(table, start)``.
    """

    def __init__(self, package_size: int, resumed: list[Part] = ()) -> None:
        self.package_size = package_size
        self.resumed = resumed
        self.shards: dict[int, _Shard] = {}
        self.steals = 0
        self.stolen_rows = 0

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

    def assign(self, shard: int, ranges, reason: str, origin: int | None) -> None:
        """Append ``(table, start, stop[, attempt])`` ranges to *shard*
        (a shard starts with its first assignment, maybe of nothing)."""
        self.shards.setdefault(shard, _Shard()).pending.extend(
            Extent(table, start, stop, reason, origin, *attempt)
            for table, start, stop, *attempt in ranges
        )

    def _cut(self, extent: Extent) -> list[WorkPackage]:
        return cut_packages(package_size=self.package_size, **extent._asdict())

    def remaining(self, shard: int) -> int:
        """Packages *shard* has not finished: in flight plus pending."""
        held = self.shards[shard]
        return held.inflight + sum(
            package_count(e.start, e.stop, self.package_size) for e in held.pending
        )

    @property
    def done(self) -> bool:
        return not any(
            shard.pending or shard.inflight for shard in self.shards.values()
        )

    def fill(self, shard: int, room: int) -> list[WorkPackage]:
        """Cut up to *room* packages off the front of *shard*'s pending
        deque, on the grid; the caller sends them."""
        held = self.shards[shard]
        packages: list[WorkPackage] = []
        while held.pending and len(packages) < room:
            extent = held.pending.popleft()
            cut = package_end(extent.start, extent.stop, self.package_size)
            if cut < extent.stop:
                held.pending.appendleft(extent._replace(start=cut))
            packages += self._cut(extent._replace(stop=cut))
        held.inflight += len(packages)
        return packages

    def complete(self, shard: int) -> None:
        """A package dispatched from *shard* was reported finished."""
        self.shards[shard].inflight -= 1

    def complete_part(self, shard: int, package: WorkPackage, nbytes: int) -> _Part:
        """:meth:`complete`, then grow the node's current part by the
        package; the grown part is what the run journals, and a node's
        parts are what it generated."""
        self.complete(shard)
        parts = self.shards[shard].parts
        if not parts or not parts[-1].continues(package):
            parts.append(_Part(package))
        parts[-1].grow(package.stop, nbytes)
        return parts[-1]

    def requeue(self, shard: int, lost: list[WorkPackage]) -> None:
        """Put the *lost* in-flight packages of a dead executor back at
        the front of *shard*, in dispatch order, one attempt higher:
        they are redone before anything later is cut."""
        held = self.shards[shard]
        held.inflight -= len(lost)
        held.pending.extendleft(
            Extent(p.table, p.start, p.stop, p.reason, p.origin, p.attempt + 1)
            for p in reversed(lost)
        )

    def steal(self, thief: int) -> None:
        """Move the tail half of the busiest other shard's unfinished
        packages to *thief* — pending ones only, newest ranges first
        (the work the victim is furthest from reaching), split at a
        package edge of the grid."""
        victim = max(
            (shard for shard in self.shards if shard != thief),
            key=self.remaining, default=None,
        )
        if victim is None:
            return
        source = self.shards[victim]
        want = self.remaining(victim) // 2
        taken: list[tuple[str, int, int, int]] = []
        while want > 0 and source.pending:
            extent = source.pending.pop()
            packages = self._cut(extent)
            keep = max(len(packages) - want, 0)
            split = packages[keep].start
            if keep:
                source.pending.append(extent._replace(stop=split))
            taken.append((extent.table, split, extent.stop, extent.attempt))
            want -= len(packages) - keep
        if not taken:
            return
        taken.reverse()
        self.assign(thief, taken, "steal", victim)
        self.shards[thief].steals_taken += len(taken)
        source.steals_yielded += len(taken)
        self.steals += len(taken)
        self.stolen_rows += sum(stop - start for _, start, stop, _ in taken)

    def fail(self, shard: int, lost: list[WorkPackage]) -> list[tuple]:
        """Take everything dead *shard* held that is not durable — the
        *lost* in-flight packages (requeued, one attempt higher), then
        its pending deque — out of it, as ``(table, start, stop,
        attempt)`` ranges coalesced per attempt, ready to :meth:`assign`
        elsewhere."""
        self.requeue(shard, lost)
        held = self.shards[shard]
        ranges: list[tuple] = []
        for table, start, stop, _, _, attempt in held.pending:
            last = ranges[-1] if ranges else None
            if last and (last[0], last[2], last[3]) == (table, start, attempt):
                ranges[-1] = (table, last[1], stop, attempt)
            else:
                ranges.append((table, start, stop, attempt))
        held.pending.clear()
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
