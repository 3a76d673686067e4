"""Launching the program under test through its public surfaces: the
``dbsynth`` CLI in a subprocess and the HTTP endpoints of ``dbsynth
serve``. Resource figures come from the kernel (``wait4`` rusage,
``/proc``), not from anything the program reports about itself.
"""

from __future__ import annotations

import http.client
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")

#: the ``dbsynth`` console script's body; the package is run from source,
#: not installed, so the entry point is spelled out.
DBSYNTH = [
    sys.executable, "-c",
    "import sys; from repro.cli.main import main; sys.exit(main())",
]

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_URL_LINE = re.compile(r"serving \d+ tables at http://([\d.]+):(\d+)")


def program_env() -> dict:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + inherited if inherited else "")
    return env


@dataclass
class CommandResult:
    """One finished ``dbsynth`` command: exit code, wall-clock from
    launch to exit, and user+sys CPU and peak RSS of its process tree."""

    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_dbsynth(args: list[str], log_path: str) -> CommandResult:
    """Run ``dbsynth <args>`` to completion; stdout/stderr go to the log."""
    with open(log_path, "ab") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(
            DBSYNTH + args, stdout=log, stderr=log, env=program_env()
        )
        # wait4 instead of Popen.wait: its rusage covers the child and
        # every descendant the child reaped (process-backend workers,
        # cluster nodes), which is the tree's CPU and its largest RSS.
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CommandResult(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )


def log_tail(log_path: str, lines: int = 15) -> str:
    try:
        with open(log_path, encoding="utf-8", errors="replace") as handle:
            return "".join(handle.readlines()[-lines:])
    except OSError:
        return ""


class ServerProcess:
    """A ``dbsynth serve`` subprocess on an ephemeral loopback port."""

    def __init__(
        self, model_args: list[str], log_path: str,
        workers: int = 2, package_size: int = 2000,
    ) -> None:
        self._args = [
            "serve", *model_args, "-w", str(workers),
            "--package-size", str(package_size), "--port", "0",
        ]
        self._log_path = log_path
        self._proc: subprocess.Popen | None = None
        self.host = ""
        self.port = 0
        self.ready_s = 0.0

    def start(self, timeout: float = 60.0) -> "ServerProcess":
        """Launch and wait for the first 200 on ``/healthz``."""
        started = time.perf_counter()
        with open(self._log_path, "wb") as log:
            self._proc = subprocess.Popen(
                DBSYNTH + self._args, stdout=log, stderr=log, env=program_env()
            )
        deadline = started + timeout
        while not self.port:
            match = _URL_LINE.search(log_tail(self._log_path))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                break
            if self._proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError(
                    "dbsynth serve did not start:\n" + log_tail(self._log_path)
                )
            time.sleep(0.005)
        client = Client(self.host, self.port)
        try:
            while True:
                try:
                    status, _ = client.get("/healthz")
                    if status == 200:
                        break
                except (OSError, http.client.HTTPException):
                    pass
                if time.perf_counter() > deadline:
                    self.stop()
                    raise RuntimeError("dbsynth serve never became healthy")
                time.sleep(0.005)
        finally:
            client.close()
        self.ready_s = time.perf_counter() - started
        return self

    def cpu_seconds(self) -> float:
        """user+sys CPU the server process (all threads) has used so far."""
        with open(f"/proc/{self._proc.pid}/stat", encoding="ascii") as handle:
            # fields after the parenthesised command name; utime and
            # stime are the 14th and 15th of the whole line.
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self._proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


class Client:
    """One HTTP/1.1 client connection, reused whenever the server leaves
    it open and reopened when it answers ``Connection: close``."""

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = port
        self._conn: http.client.HTTPConnection | None = None
        self.connects = 0

    def get(self, path: str) -> tuple[int, bytes]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self._host, self._port, timeout=60
            )
            self._conn.connect()
            self.connects += 1
        try:
            self._conn.request("GET", path)
            response = self._conn.getresponse()
            body = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        if response.will_close:
            self.close()
        return response.status, body

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
