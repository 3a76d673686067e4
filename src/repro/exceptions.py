"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type at an API boundary. Subsystems refine it:
model/configuration problems, generation-time failures, extraction
failures, and output failures are distinct because callers typically
recover from them differently (fix the model vs. retry the run vs. check
the source database).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ModelError(ReproError):
    """The data model (schema, fields, generator specs) is invalid."""


class FormulaError(ModelError):
    """A property or size formula could not be parsed or evaluated."""


class PropertyError(ModelError):
    """A property is missing, cyclic, or has the wrong type."""


class ConfigError(ReproError):
    """An XML configuration file could not be parsed or is malformed."""


class GenerationError(ReproError):
    """A field value could not be generated at run time."""


class ExtractionError(ReproError):
    """DBSynth could not extract metadata or samples from a source DB."""


class AdapterError(ReproError):
    """A database adapter operation failed."""


class OutputError(ReproError):
    """The output system failed to format or write generated data."""


class TransientError(OutputError):
    """An output failure that is expected to succeed on retry.

    Sinks backed by flaky transports (network filesystems, databases
    under load, streaming endpoints) raise this to route the failure
    through the retry-policy classifier instead of aborting the run;
    see :class:`repro.resilience.RetryPolicy`.
    """


class SchedulingError(ReproError):
    """Work could not be partitioned or executed."""


class WorkloadError(ReproError):
    """A query-workload specification is invalid or a replay failed."""
