"""Output checks. Every check is one attempted operation; a failed one
counts in the run's ``failed`` total, so wrong bytes show up as a
non-zero error share, not as a fast result.

References are computed in-process from the same model at check time —
never from pinned digests — so an acknowledged change of the golden
output does not need a benchmark change.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field

#: seeded row ranges compared against the scalar path, per table
RANGES_PER_TABLE = 4
RANGE_ROWS = 32


@dataclass
class Checks:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def file_digests(directory: str) -> dict[str, tuple[int, str]]:
    """``{file name: (bytes, sha256)}`` of a generated output directory."""
    digests = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
        digests[name] = (os.path.getsize(path), digest.hexdigest())
    return digests


def scalar_bytes(dataset, table: str, start: int, stop: int, fmt: str) -> bytes:
    """Rows ``[start, stop)`` through the scalar path: one
    ``generate_row`` per row, formatted by the row writer."""
    from repro import OutputConfig

    engine = dataset.engine
    bound = engine.bound_table(table)
    ctx = engine.new_context(table)
    rows = [bound.generate_row(row, ctx) for row in range(start, stop)]
    writer = OutputConfig(format=fmt).new_writer(table, bound.column_names)
    return writer.write_rows(rows).encode("utf-8")


def check_batch_output(
    checks: Checks, directory: str, dataset, fmt: str, seed: int
) -> None:
    """One output directory against its model: per table the file
    exists with the model's row count, and seeded row ranges equal the
    scalar path byte for byte."""
    from repro.output.formats import format_spec

    extension = format_spec(fmt).extension
    rng = random.Random(seed)
    for table, size in dataset.tables.items():
        path = os.path.join(directory, table + extension)
        if not os.path.isfile(path):
            checks.record(False, f"{table}: no output file {path}")
            continue
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")
        # every row ends in a newline, so the split leaves one empty tail
        rows = len(lines) - 1
        checks.record(
            rows == size and lines[-1] == b"",
            f"{table}: {rows} rows on disk, model has {size}",
        )
        for _ in range(RANGES_PER_TABLE if size else 0):
            count = min(RANGE_ROWS, size)
            start = rng.randrange(0, size - count + 1)
            actual = b"".join(
                line + b"\n" for line in lines[start:start + count]
            )
            expected = scalar_bytes(dataset, table, start, start + count, fmt)
            checks.record(
                actual == expected,
                f"{table}: rows {start}-{start + count} differ from the "
                "scalar path",
            )


def check_same_digests(
    checks: Checks, label: str,
    reference: dict[str, tuple[int, str]], other: dict[str, tuple[int, str]],
) -> None:
    """Two output directories hold the same files with the same bytes."""
    for name in sorted(set(reference) | set(other)):
        checks.record(
            reference.get(name) == other.get(name),
            f"{label}: {name} differs "
            f"({reference.get(name)} vs {other.get(name)})",
        )


def reference_digests(dataset, requests) -> list[str]:
    """SHA-256 of ``Dataset.slice`` for each request's range and format."""
    cache: dict[tuple, str] = {}
    digests = []
    for request in requests:
        key = (request.table, request.start, request.stop, request.fmt)
        if key not in cache:
            body = dataset.slice(
                request.table, request.start, request.stop, format=request.fmt
            )
            cache[key] = hashlib.sha256(body).hexdigest()
        digests.append(cache[key])
    return digests


def check_served_bodies(
    checks: Checks, requests, expected: list[str], body_digests: list[str]
) -> None:
    """Every served body equals ``Dataset.slice`` of the same range and
    format. An empty body digest marks a request that already failed
    (non-200 or transport error), so it fails here too."""
    for request, want, got in zip(requests, expected, body_digests):
        checks.record(
            got == want, f"GET {request.path}: body differs from Dataset.slice"
        )
