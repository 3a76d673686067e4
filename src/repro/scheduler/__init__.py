"""Scheduling: work packages, the single-node inline/process scheduler,
and the multi-node cluster runtime — one package grid and one ledger
(:mod:`repro.scheduler.work`) dispatching to one package body, one
accounting and one :class:`RunReport`
(:mod:`repro.scheduler.executor`, :mod:`repro.scheduler.scheduler`)."""

from repro._lazy import lazy_names
from repro.scheduler.progress import ProgressMonitor, ProgressSnapshot
from repro.scheduler.scheduler import (
    DEFAULT_INFLIGHT_EXTRA,
    NodeReport,
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
    plan_shards,
)

__all__ = [
    "DEFAULT_INFLIGHT_EXTRA",
    "ClusterScheduler",
    "NodeReport",
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
    "plan_shards",
]


#: the multi-node runtime is the cost of ``--nodes``, not of every run
__getattr__, __dir__ = lazy_names(
    __name__, {"ClusterScheduler": "repro.scheduler.cluster"}
)
