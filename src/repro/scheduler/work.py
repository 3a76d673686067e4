"""Work packages, the one package grid, and the ledger every runtime
dispatches from.

"A work package is a set of rows of a table that need to be generated"
(paper §2). Where a package ends is one rule, :func:`package_end`: at
the next multiple of the package size P, or at the end of the range
being cut, whichever comes first. Package ``k`` of a table is therefore
rows ``[k·P, (k+1)·P)`` clipped to what a run (a node share, a resumed
tail, a served slice) asked for, and its ``sequence`` is
``start // P`` — the same package, with the same number, on every
runtime. :func:`cut_packages` is the cutter; nothing else decides a
package boundary.

The :class:`ShardLedger` holds a run's rows as one deque of pending
ranges and cuts packages off its front on the grid, for every runtime —
pure arithmetic over row ranges, no coordination, because generation is
seed-addressed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.exceptions import SchedulingError

DEFAULT_PACKAGE_SIZE = 10_000


@dataclass(frozen=True)
class WorkPackage:
    """A contiguous row range ``[start, stop)`` of one table, cut on the
    package grid.

    ``sequence`` (``start // P``) orders packages *within the table* for
    sorted output. ``attempt`` is 1 unless a dead executor's package is
    being redone.
    """

    table: str
    start: int
    stop: int
    sequence: int
    attempt: int = 1

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
    table: str, start: int, stop: int, package_size: int, attempt: int = 1,
) -> list[WorkPackage]:
    """The packages of ``[start, stop)`` on the grid: a package ends at
    the next multiple of *package_size* or at *stop*."""
    packages = []
    while start < stop:
        end = package_end(start, stop, package_size)
        packages.append(WorkPackage(table, start, end, start // package_size, attempt))
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


# --------------------------------------------------------------------------
# the ledger
# --------------------------------------------------------------------------


class ShardLedger:
    """A run's rows in three states: *pending* ranges (one deque of
    ``(table, start, stop, attempt)``), packages *in flight* (cut off and
    handed to an executor, counted), and work *done*.

    Every batch runtime dispatches from it: inline drains it one package
    at a time, ``-w N`` through the free slots of one delivery window
    (:meth:`fill` takes that room, so the ledger holds no policy of its
    own about how far ahead to cut). A dead executor's packages go back
    to the front, :meth:`requeue`. The ledger starts with *ranges* —
    ``(table, start, stop)``, a resumed table's starting at its
    watermark.
    """

    def __init__(self, package_size: int, ranges) -> None:
        self.package_size = package_size
        self.pending: deque[tuple[str, int, int, int]] = deque(
            (table, start, stop, 1) for table, start, stop in ranges if start < stop
        )
        self.inflight = 0

    @property
    def remaining(self) -> int:
        """Packages not finished: in flight plus pending."""
        return self.inflight + sum(
            package_count(start, stop, self.package_size)
            for _, start, stop, _ in self.pending
        )

    @property
    def done(self) -> bool:
        return not self.pending and not self.inflight

    def fill(self, room: int) -> list[WorkPackage]:
        """Cut up to *room* packages off the front of the pending deque,
        on the grid; the caller sends them."""
        packages: list[WorkPackage] = []
        while self.pending and len(packages) < room:
            table, start, stop, attempt = self.pending.popleft()
            cut = package_end(start, stop, self.package_size)
            if cut < stop:
                self.pending.appendleft((table, cut, stop, attempt))
            packages += cut_packages(table, start, cut, self.package_size, attempt)
        self.inflight += len(packages)
        return packages

    def complete(self) -> None:
        """A dispatched package was reported finished."""
        self.inflight -= 1

    def requeue(self, lost: list[WorkPackage]) -> None:
        """Put the *lost* in-flight packages of a dead executor back at
        the front, in dispatch order, one attempt higher: they are redone
        before anything later is cut."""
        self.inflight -= len(lost)
        self.pending.extendleft(
            (p.table, p.start, p.stop, p.attempt + 1) for p in reversed(lost)
        )
