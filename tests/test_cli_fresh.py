"""Every ``dbsynth`` sub-command, run in a fresh interpreter.

The CLI imports each sub-command's heavy packages (extraction, databases,
schedulers, the update black box, serving) in the sub-command's body.
In-process CLI tests run after other tests have imported most of
``repro``, so a missing import there would go unseen; here each command
starts from nothing, as a user's does, on tiny inputs, and is checked
for its exit code and one line of its output.
"""

from __future__ import annotations

import json
import os
import pathlib
import queue
import re
import subprocess
import sys
import threading
import urllib.request

import pytest

import repro
from repro.suites.imdb import build_imdb_database

ENV = dict(os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
TPCH = ["--suite", "tpch", "--sf", "0.001"]


def dbsynth(*args: str, expect=(0,)) -> subprocess.CompletedProcess:
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli.main", *args],
        env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode in expect and "Traceback" not in result.stderr, (
        result.stderr
    )
    return result


@pytest.fixture(scope="module")
def source(tmp_path_factory) -> str:
    path = str(tmp_path_factory.mktemp("source") / "source.db")
    build_imdb_database(path, movies=20, people=30, seed=5).close()
    return path


@pytest.fixture(scope="module")
def extracted(source, tmp_path_factory):
    """``(result, project directory)`` of one ``dbsynth extract``."""
    directory = str(tmp_path_factory.mktemp("project") / "model")
    return dbsynth("extract", source, "-o", directory), directory


@pytest.fixture(scope="module")
def loaded(extracted, tmp_path_factory):
    """``(result, database)`` of a ``generate --kind sqlite`` run."""
    database = str(tmp_path_factory.mktemp("target") / "target.db")
    _, model = extracted
    result = dbsynth(
        "generate", "--model", model, "--kind", "sqlite", "--format", "sql",
        "--database", database, "-q",
    )
    return result, database


def test_extract(extracted):
    result, directory = extracted
    assert f"model written to {directory}" in result.stdout


def test_preview_model(extracted):
    _, model = extracted
    result = dbsynth("preview", "--model", model, "--table", "movies", "-n", "2")
    assert result.stdout.startswith("-- movies (20 rows)\n")


def test_generate_process_workers():
    result = dbsynth("generate", *TPCH, "--kind", "null", "-q", "-w", "2")
    assert "2 process workers)" in result.stdout


def test_generate_cluster_nodes(tmp_path):
    result = dbsynth("generate", *TPCH, "-d", str(tmp_path), "-q", "--nodes", "2")
    assert "2 process workers)" in result.stdout  # --nodes N is -w N
    assert len(list(tmp_path.glob("*.tbl"))) == 8


def test_generate_sqlite(loaded):
    result, _ = loaded
    assert re.match(r"[\d,]+ rows, .* 1 inline worker\)", result.stdout)


def test_translate(extracted):
    _, model = extracted
    assert "CREATE TABLE movies" in dbsynth("translate", "--model", model).stdout


def test_verify(source, extracted, loaded):
    _, model = extracted
    _, database = loaded
    # the exit code is the grade (1: a query missed its bound); this
    # checks the command runs, not how well a 20-movie model reproduces
    result = dbsynth(
        "verify", "--model", model, "--source", source, "--target", database,
        expect=(0, 1),
    )
    assert re.search(r"^pass rate: \d+%$", result.stdout, re.MULTILINE)


def test_update():
    result = dbsynth("update", *TPCH, "--table", "orders")
    assert result.stdout.startswith("orders epoch 1: ")


def test_stats_trace(tmp_path):
    trace = str(tmp_path / "trace.jsonl")
    dbsynth("generate", *TPCH, "--kind", "null", "-q", "--trace", trace)
    result = dbsynth("stats", "--trace", trace)
    assert re.match(r"\d+ spans, \d+ threads\n", result.stdout)


def test_workload_dump_to_stdout():
    result = dbsynth("workload", *TPCH, "--queries", "3", "--dump", "-")
    assert len(result.stdout.splitlines()) == 3
    assert "sql" in json.loads(result.stdout.splitlines()[0])
    assert "dumped 3 scheduled queries" in result.stderr


def test_serve_up_to_first_healthz():
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli.main", "serve", *TPCH, "--port", "0"],
        env=ENV, stderr=subprocess.PIPE, text=True,
    )
    address: queue.Queue = queue.Queue()

    def read_address() -> None:
        # the server's address, or None when stderr ends without one
        for line in server.stderr:
            match = re.search(r"serving \d+ tables at (http://[\d.]+:\d+)", line)
            if match:
                address.put(match[1])
                return
        address.put(None)

    reader = threading.Thread(target=read_address, daemon=True)
    reader.start()
    try:
        try:
            url = address.get(timeout=120)
        except queue.Empty:
            pytest.fail("dbsynth serve printed no address within 120 s")
        if url is None:
            pytest.fail("dbsynth serve did not start")
        with urllib.request.urlopen(f"{url}/healthz", timeout=60) as response:
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
    finally:
        server.terminate()
        server.wait(timeout=10)
        reader.join(timeout=10)
        server.stderr.close()


class TestOpenBlasPin:
    """The CLI runs numpy's OpenBLAS on one thread: nothing in ``repro``
    calls BLAS, and an idle pool only spins. The pin is the CLI's alone;
    a value the user set wins."""

    @staticmethod
    def fresh(code: str, **preset: str) -> str:
        env = {k: v for k, v in ENV.items() if k != "OPENBLAS_NUM_THREADS"}
        result = subprocess.run(
            [sys.executable, "-c", code], env={**env, **preset},
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout.strip()

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task"
    )
    def test_one_thread_after_importing_the_cli(self):
        threads = self.fresh(
            "import os, sys, repro.cli.main, repro.engine, repro.columnar\n"
            "assert 'numpy' in sys.modules\n"
            "print(len(os.listdir('/proc/self/task')))"
        )
        assert threads == "1"

    def test_a_preset_value_wins(self):
        code = "import os, repro.cli.main; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert self.fresh(code) == "1"
        assert self.fresh(code, OPENBLAS_NUM_THREADS="3") == "3"

    def test_importing_repro_leaves_the_environment_alone(self):
        changed = self.fresh(
            "import os; before = dict(os.environ)\n"
            "import repro, repro.engine\n"
            "print(dict(os.environ) == before, 'OPENBLAS_NUM_THREADS' in os.environ)"
        )
        assert changed == "True False"
