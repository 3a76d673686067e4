"""Deterministic fault injection for resilience tests and CI.

Production generators die in specific, reproducible ways: an executor
is OOM-killed mid-package, a sink write fails, an operator hits Ctrl-C.
This module scripts those failures so tests can *prove* crash → resume
byte-identity instead of hoping for it:

* :class:`FaultPlan` — picklable plan shipped to executor processes
  (pool workers and cluster nodes alike); ``kill_at`` hard-kills
  (``os._exit``) the executor that picks up a given package — once when
  latched, every time when not.
* :class:`CrashingSink` — wraps a sink, raising after N successful
  writes: :class:`InjectedCrash` models a hard abort, or
  ``KeyboardInterrupt`` models SIGINT mid-run.
* :class:`FaultInjectingOutput` — an :class:`~repro.output.config.OutputConfig`
  proxy that installs the sink wrapper while delegating everything
  else, so a faulty run is configured exactly like a healthy one.

Every fault is positional (the package at row N, write K), never
random — the same plan produces the same crash in every run, which is
what lets CI assert recovery byte-for-byte.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.output.sinks import Sink


class InjectedCrash(BaseException):
    """A scripted hard abort (stand-in for SIGKILL/OOM in tests).

    Derives from ``BaseException`` so no ``except Exception`` recovery
    path can accidentally swallow it — like a real crash, it must tear
    the run down and leave recovery to checkpoint/resume.
    """


@dataclass(frozen=True)
class FaultPlan:
    """A scripted executor fault, picklable into executor processes.

    ``kill_at=(table, start_row)`` makes the executor — pool worker or
    cluster node — that picks up the package beginning at that absolute
    row die via ``os._exit(kill_exit_code)`` before producing a result.
    Every runtime cuts packages on one grid (package ``k`` starts at row
    ``k·P``, or where the run's range starts), so a grid start
    names the same package — sequence ``start // P`` — on ``-w N`` and
    ``--nodes N`` alike. ``latch_dir`` arms the fault exactly once
    across all executors and their replacements — the first to reach
    the package dies, the redo succeeds. Without it every executor that
    reaches the package dies: a crash loop, which the executor pool's
    failure cap must stop.

    ``slow_nodes={node: seconds}`` injects a deterministic per-package
    sleep on those executors so tests can script an unbalanced cluster
    and assert the least-loaded dispatch gives the slow node less work.
    """

    kill_at: tuple[str, int] | None = None
    latch_dir: str | None = None
    kill_exit_code: int = 137
    slow_nodes: dict[int, float] | None = None

    def should_kill(self, table: str, start: int) -> bool:
        """Whether the executor picking up the package that begins at
        absolute row *start* of *table* must die."""
        if self.kill_at is None or (table, start) != tuple(self.kill_at):
            return False
        if self.latch_dir is None:
            return True
        latch = os.path.join(self.latch_dir, f"kill-{table}-{start}.latch")
        os.makedirs(self.latch_dir, exist_ok=True)
        try:
            os.close(os.open(latch, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return False  # already fired once
        return True

    def node_delay(self, node: int) -> float:
        """The scripted per-package sleep for a deliberately slow node."""
        if not self.slow_nodes:
            return 0.0
        return float(self.slow_nodes.get(node, 0.0))


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
    """OutputConfig proxy that wraps every sink with a scripted crash.

    ``crash_after_writes=N`` installs a shared :class:`CrashingSink`
    (N successful writes run-wide, then ``crash_exception``). Everything
    else — writers, paths, format options — delegates to the wrapped
    config, so fingerprints match a clean run and a resumed run can use
    the plain config unchanged.
    """

    def __init__(
        self,
        inner,
        *,
        crash_after_writes: int = 0,
        crash_exception: type[BaseException] = InjectedCrash,
    ) -> None:
        self._inner = inner
        self._crash_after = int(crash_after_writes)
        self._crash_exception = crash_exception
        self._write_counter = [0]

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def __reduce__(self):
        # Process-backend workers only format (new_writer); rebuilding
        # with a fresh counter keeps the wrapper picklable without
        # shipping parent-side sink state.
        return (
            _rebuild_fault_output,
            (self._inner, self._crash_after, self._crash_exception),
        )

    def new_sink(self, table: str, **resume):
        sink = self._inner.new_sink(table, **resume)
        if self._crash_after:
            sink = CrashingSink(
                sink, self._crash_after, self._write_counter,
                self._crash_exception,
            )
        return sink


def _rebuild_fault_output(inner, crash_after, crash_exception):
    return FaultInjectingOutput(
        inner, crash_after_writes=crash_after, crash_exception=crash_exception,
    )
