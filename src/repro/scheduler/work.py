"""Work packages and partitioning.

"A work package is a set of rows of a table that need to be generated"
(paper §2). The scheduler assigns packages to workers; the meta
scheduler first splits each table across nodes, then each node's share
is packaged. Both splits are pure arithmetic over row ranges — no
coordination, because generation is seed-addressed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import SchedulingError

DEFAULT_PACKAGE_SIZE = 10_000


@dataclass(frozen=True)
class WorkPackage:
    """A contiguous row range ``[start, stop)`` of one table.

    ``sequence`` orders packages *within the table* for sorted output.
    """

    table: str
    start: int
    stop: int
    sequence: int

    @property
    def rows(self) -> int:
        return self.stop - self.start


def partition_rows(
    table: str, size: int, package_size: int = DEFAULT_PACKAGE_SIZE, offset: int = 0
) -> list[WorkPackage]:
    """Split ``[offset, offset+size)`` into packages of ``package_size``."""
    if size < 0:
        raise SchedulingError(f"negative size {size} for table {table!r}")
    if package_size <= 0:
        raise SchedulingError(f"package size must be positive, got {package_size}")
    packages = []
    sequence = 0
    start = offset
    end = offset + size
    while start < end:
        stop = min(start + package_size, end)
        packages.append(WorkPackage(table, start, stop, sequence))
        sequence += 1
        start = stop
    return packages


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
