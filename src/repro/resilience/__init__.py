"""Fault tolerance: checkpoint/resume manifests and deterministic fault
injection.

Determinism is PDGF's whole premise — every cell is a pure function of
the seed hierarchy — and this package turns that premise into
robustness: a run journals which bytes of which file are durable
(:mod:`repro.resilience.checkpoint`), so a run that failed — a dead
executor past the crash-loop cap, a failed write, Ctrl-C — is finished
by ``--resume`` regenerating only what the journal does not cover; the
fault harness (:mod:`repro.resilience.faults`) scripts those failures
so tests can assert that a killed-and-resumed run is byte-identical to
an uninterrupted one.
"""

from repro.resilience.checkpoint import (
    MANIFEST_NAME,
    CheckpointWriter,
    Part,
    RunManifest,
    chunk_digest,
    model_fingerprint,
)
from repro.resilience.faults import (
    CrashingSink,
    FaultInjectingOutput,
    FaultPlan,
    InjectedCrash,
)

__all__ = [
    "MANIFEST_NAME",
    "CheckpointWriter",
    "Part",
    "RunManifest",
    "chunk_digest",
    "model_fingerprint",
    "CrashingSink",
    "FaultInjectingOutput",
    "FaultPlan",
    "InjectedCrash",
]
