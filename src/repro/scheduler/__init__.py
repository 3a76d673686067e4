"""Scheduling: work packages and the scheduler — one package grid and
one ledger (:mod:`repro.scheduler.work`), one multi-process runtime and
one package body (:mod:`repro.scheduler.executor`), one accounting and
one :class:`RunReport` (:mod:`repro.scheduler.scheduler`)."""

from repro.scheduler.progress import ProgressMonitor, ProgressSnapshot
from repro.scheduler.scheduler import (
    DEFAULT_INFLIGHT_EXTRA,
    ClusterScheduler,
    RunReport,
    Scheduler,
    TableReport,
    generate,
    node_ranges,
    run_node,
)
from repro.scheduler.work import (
    DEFAULT_PACKAGE_SIZE,
    WorkPackage,
    node_share,
    partition_rows,
)

__all__ = [
    "DEFAULT_INFLIGHT_EXTRA",
    "ClusterScheduler",
    "node_ranges",
    "run_node",
    "ProgressMonitor",
    "ProgressSnapshot",
    "RunReport",
    "Scheduler",
    "TableReport",
    "generate",
    "DEFAULT_PACKAGE_SIZE",
    "WorkPackage",
    "node_share",
    "partition_rows",
]
