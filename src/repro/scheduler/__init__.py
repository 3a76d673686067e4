"""Scheduling: work packages, the single-node thread/process scheduler,
and the multi-node cluster runtime — the last two on one executor-process
core (:mod:`repro.scheduler.executor`)."""

from repro.scheduler.cluster import ClusterReport, ClusterScheduler, NodeReport
from repro.scheduler.progress import ProgressMonitor, ProgressSnapshot
from repro.scheduler.scheduler import (
    BACKENDS,
    DEFAULT_INFLIGHT_EXTRA,
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
    plan_node,
    plan_shards,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_INFLIGHT_EXTRA",
    "ClusterReport",
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
    "plan_node",
    "plan_shards",
]
