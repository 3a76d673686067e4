"""Deterministic fault injection for resilience tests and CI.

Production generators die in specific, reproducible ways: a worker is
OOM-killed mid-package, a sink rejects every K-th write, an operator
hits Ctrl-C. This module scripts those failures so tests can *prove*
crash → resume byte-identity instead of hoping for it:

* :class:`FaultPlan` — picklable plan shipped to process-backend
  workers; ``kill_worker_at`` hard-kills (``os._exit``) the worker that
  picks up a given package, once (a latch file keeps the respawned
  worker alive).
* :class:`FlakySink` — wraps a sink, failing every K-th write with a
  retryable :class:`~repro.exceptions.TransientError` (the retried
  write then succeeds).
* :class:`CrashingSink` — wraps a sink, raising after N successful
  writes: :class:`InjectedCrash` models a hard abort, or
  ``KeyboardInterrupt`` models SIGINT mid-run.
* :class:`FaultInjectingOutput` — an :class:`~repro.output.config.OutputConfig`
  proxy that installs the sink wrappers while delegating everything
  else, so a faulty run is configured exactly like a healthy one.

Every fault is positional (package N, write K), never random — the same
plan produces the same crash in every run, which is what lets CI assert
recovery byte-for-byte.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.exceptions import TransientError
from repro.output.sinks import Sink


class InjectedCrash(BaseException):
    """A scripted hard abort (stand-in for SIGKILL/OOM in tests).

    Derives from ``BaseException`` so no ``except Exception`` recovery
    path can accidentally swallow it — like a real crash, it must tear
    the run down and leave recovery to checkpoint/resume.
    """


@dataclass(frozen=True)
class FaultPlan:
    """A scripted worker fault, picklable into process-backend workers.

    ``kill_worker_at=(table, sequence)`` makes the worker that receives
    that package die via ``os._exit(kill_exit_code)`` before producing a
    result. ``latch_dir`` (required with ``kill_worker_at``) arms the
    fault exactly once across all worker processes and restarts — the
    first worker to reach the package dies, the requeued attempt
    succeeds.

    Cluster faults use the same discipline at node granularity:
    ``kill_node_at=(table, start_row)`` kills the *node process* that
    picks up the package beginning at that absolute row (once, via the
    latch — the node the parent reassigns the range to survives), and
    ``slow_nodes={node: seconds}`` injects a deterministic per-package
    sleep so tests can script an unbalanced cluster and assert the work
    stealer drains it.
    """

    kill_worker_at: tuple[str, int] | None = None
    latch_dir: str | None = None
    kill_exit_code: int = 137
    kill_node_at: tuple[str, int] | None = None
    slow_nodes: dict[int, float] | None = None

    def _arm_once(self, latch_name: str) -> bool:
        """True the first time *latch_name* fires, False ever after.

        Without a ``latch_dir`` the fault is unconditional (it fires on
        every match — useful only when a single firing is structurally
        guaranteed).
        """
        if self.latch_dir is None:
            return True
        latch = os.path.join(self.latch_dir, latch_name)
        os.makedirs(self.latch_dir, exist_ok=True)
        try:
            os.close(os.open(latch, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return False  # already fired once
        return True

    def should_kill_worker(self, table: str, sequence: int) -> bool:
        if self.kill_worker_at is None:
            return False
        if (table, sequence) != tuple(self.kill_worker_at):
            return False
        return self._arm_once(f"kill-{table}-{sequence}.latch")

    def should_kill_node(self, table: str, start: int) -> bool:
        """Whether the cluster node picking up the package that begins
        at absolute row ``start`` of ``table`` must die.

        Keyed by start row rather than sequence because a reassigned
        range re-numbers its packages but keeps absolute row positions —
        the latch therefore guards the retry no matter which node runs
        it.
        """
        if self.kill_node_at is None:
            return False
        if (table, start) != tuple(self.kill_node_at):
            return False
        return self._arm_once(f"kill-node-{table}-{start}.latch")

    def node_delay(self, node: int) -> float:
        """The scripted per-package sleep for a deliberately slow node."""
        if not self.slow_nodes:
            return 0.0
        return float(self.slow_nodes.get(node, 0.0))


class FlakySink(Sink):
    """Fails every ``fail_every``-th write with a retryable error.

    The failing write performs no I/O, so the retry that follows writes
    the chunk exactly once — modelling a transient transport error, not
    a duplicating one.
    """

    def __init__(self, inner: Sink, fail_every: int) -> None:
        self.inner = inner
        self.fail_every = max(int(fail_every), 1)
        self._calls = 0

    def write(self, chunk: str) -> None:
        self._calls += 1
        if self._calls % self.fail_every == 0:
            raise TransientError(
                f"injected transient failure on write {self._calls}"
            )
        self.inner.write(chunk)

    def flush(self) -> None:
        self.inner.flush()

    def sync(self) -> None:
        self.inner.sync()

    def close(self) -> None:
        self.inner.close()


class CrashingSink(Sink):
    """Succeeds ``crash_after`` writes, then raises on every later one.

    With ``exception=KeyboardInterrupt`` this scripts SIGINT mid-run;
    the default :class:`InjectedCrash` scripts a hard abort. Writes are
    counted across *all* tables through a shared counter so "crash after
    K packages" means K packages into the run, not per table.
    """

    def __init__(
        self,
        inner: Sink,
        crash_after: int,
        counter: list[int],
        exception: type[BaseException] = InjectedCrash,
    ) -> None:
        self.inner = inner
        self.crash_after = int(crash_after)
        self._counter = counter
        self._exception = exception

    def write(self, chunk: str) -> None:
        if self._counter[0] >= self.crash_after:
            raise self._exception(
                f"injected crash after {self.crash_after} writes"
            )
        self._counter[0] += 1
        self.inner.write(chunk)

    def flush(self) -> None:
        self.inner.flush()

    def sync(self) -> None:
        self.inner.sync()

    def close(self) -> None:
        self.inner.close()


class FaultInjectingOutput:
    """OutputConfig proxy that wraps every sink with scripted faults.

    ``crash_after_writes=N`` installs a shared :class:`CrashingSink`
    (N successful writes run-wide, then ``crash_exception``);
    ``fail_every=K`` installs per-sink :class:`FlakySink` wrappers.
    Everything else — writers, paths, format options — delegates to the
    wrapped config, so fingerprints match a clean run and a resumed run
    can use the plain config unchanged.
    """

    def __init__(
        self,
        inner,
        *,
        crash_after_writes: int = 0,
        crash_exception: type[BaseException] = InjectedCrash,
        fail_every: int = 0,
    ) -> None:
        self._inner = inner
        self._crash_after = int(crash_after_writes)
        self._crash_exception = crash_exception
        self._fail_every = int(fail_every)
        self._write_counter = [0]

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def __reduce__(self):
        # Process-backend workers only format (new_writer); rebuilding
        # with a fresh counter keeps the wrapper picklable without
        # shipping parent-side sink state.
        return (
            _rebuild_fault_output,
            (self._inner, self._crash_after, self._crash_exception,
             self._fail_every),
        )

    def new_sink(self, table: str, **resume):
        sink = self._inner.new_sink(table, **resume)
        if self._fail_every:
            sink = FlakySink(sink, self._fail_every)
        if self._crash_after:
            sink = CrashingSink(
                sink, self._crash_after, self._write_counter,
                self._crash_exception,
            )
        return sink


def _rebuild_fault_output(inner, crash_after, crash_exception, fail_every):
    return FaultInjectingOutput(
        inner,
        crash_after_writes=crash_after,
        crash_exception=crash_exception,
        fail_every=fail_every,
    )
