"""Fault tolerance: checkpoint/resume manifests, retry policies, and
deterministic fault injection.

Determinism is PDGF's whole premise — every cell is a pure function of
the seed hierarchy — and this package turns that premise into
robustness: a crashed run journals which bytes of which file are
durable (:mod:`repro.resilience.checkpoint`), transient failures are
retried with bounded backoff (:mod:`repro.resilience.retry`), and the
fault harness (:mod:`repro.resilience.faults`) scripts crashes so tests
can assert that a killed-and-resumed run is byte-identical to an
uninterrupted one.
"""

from repro.resilience.checkpoint import (
    MANIFEST_NAME,
    CheckpointWriter,
    Part,
    RunManifest,
    chunk_digest,
    model_fingerprint,
    schema_fingerprint,
)
from repro.resilience.faults import (
    CrashingSink,
    FaultInjectingOutput,
    FaultPlan,
    FlakySink,
    InjectedCrash,
)
from repro.resilience.retry import DEFAULT_RETRYABLE, RetryPolicy

__all__ = [
    "MANIFEST_NAME",
    "CheckpointWriter",
    "Part",
    "RunManifest",
    "chunk_digest",
    "model_fingerprint",
    "schema_fingerprint",
    "CrashingSink",
    "FaultInjectingOutput",
    "FaultPlan",
    "FlakySink",
    "InjectedCrash",
    "DEFAULT_RETRYABLE",
    "RetryPolicy",
]
