"""Golden determinism gate: generated bytes must never drift.

The checked-in ``tests/golden/manifest.json`` records a SHA-256 per
table for small slices of the three built-in suites, and per saved file
and generated table of a model extracted from a seeded IMDb-like
source. These tests verify the current build reproduces those digests
exactly — across Python versions, platforms and worker counts (inline
or pooled) — which is the paper's determinism claim stated as an
executable invariant. A legitimate generator or extraction change
updates the manifest via ``tools/update_golden.py``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import GenerationEngine
from repro.model.schema import Field, GeneratorSpec, Schema, Table
from repro.output.config import OutputConfig
from repro.scheduler import Scheduler
from repro.suites import suite_model

GOLDEN_PATH = Path(__file__).parent / "golden" / "manifest.json"


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _run_digests(name: str, *, workers: int = 1) -> dict:
    golden = _golden()
    suite = golden["suites"][name]
    engine = GenerationEngine(*suite_model(name, suite["scale_factor"]))
    output = OutputConfig(kind="memory", format=golden["format"])
    Scheduler(
        engine, output, package_size=golden["package_size"],
        workers=workers,
    ).run()
    return {
        table: hashlib.sha256(
            output.memory_output(table).encode("utf-8")
        ).hexdigest()
        for table in suite["tables"]
    }


def test_manifest_exists_and_covers_all_suites():
    golden = _golden()
    assert set(golden["suites"]) == {"tpch", "ssb", "bigbench"}
    for suite in golden["suites"].values():
        assert suite["tables"], "a suite with no table digests gates nothing"


@pytest.mark.parametrize("name", ["tpch", "ssb", "bigbench"])
def test_suite_matches_golden_digests(name):
    expected = {
        table: record["sha256"]
        for table, record in _golden()["suites"][name]["tables"].items()
    }
    assert _run_digests(name) == expected


def test_parallel_run_matches_golden_digests():
    """Worker count must be invisible in the bytes (paper §3.1)."""
    expected = {
        table: record["sha256"]
        for table, record in _golden()["suites"]["ssb"]["tables"].items()
    }
    assert _run_digests("ssb", workers=4) == expected


def _golden_tool():
    spec = importlib.util.spec_from_file_location(
        "update_golden", Path(__file__).parent.parent / "tools" / "update_golden.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_extracted_model_matches_golden_digests():
    """Same source + same seed ⇒ same model: the saved project of a
    default extraction (seeded bernoulli sample included) and the data
    generated from it are pinned like the suites are."""
    assert _golden_tool().extracted_digests() == _golden()["extracted"]["imdb"]


def test_systematic_extraction_matches_golden_digests():
    """``--strategy systematic`` streams the scan and keeps every k-th
    row; its model is pinned too (digests recorded before the stream
    replaced a window query)."""
    assert (
        _golden_tool().extracted_digests("systematic")
        == _golden()["extracted"]["imdb-systematic"]
    )


#: The fixed-draw string generators, one field each. Url, CompanyName and
#: PatternString are in no suite, so these digests are their only byte pin.
FIXED_DRAW_FIELDS = {
    "name_full": GeneratorSpec("PersonNameGenerator"),
    "name_first": GeneratorSpec("PersonNameGenerator", {"style": "first"}),
    "name_last": GeneratorSpec("PersonNameGenerator", {"style": "last"}),
    "company": GeneratorSpec("CompanyNameGenerator"),
    "address": GeneratorSpec("AddressGenerator"),
    "city": GeneratorSpec("CityGenerator"),
    "country": GeneratorSpec("CountryGenerator"),
    "email": GeneratorSpec("EmailGenerator"),
    "phone": GeneratorSpec("PhoneGenerator"),
    "url": GeneratorSpec("UrlGenerator"),
    "pattern": GeneratorSpec("PatternStringGenerator", {"pattern": "^@-##,# 5% {x}"}),
    "pattern_literal": GeneratorSpec("PatternStringGenerator", {"pattern": "N/A 100%"}),
}
FIXED_DRAW_ROWS = 4096
#: block edges: blocks of 1, 31, 31, 1, 936 and 3096 rows, both sides of
#: the small-block rule
FIXED_DRAW_EDGES = (0, 1, 32, 63, 64, 1000, FIXED_DRAW_ROWS)
#: SHA-256 of the 4 096 values joined by newlines
FIXED_DRAW_DIGESTS = {
    "name_full": "69ec5dc1c78108377bd10a068ec6fdc0da1ab2a75a8dceef00a6251d82c6e214",
    "name_first": "b9cd43fb568689c83a1ee2436d928a71634db5a2d7457c446cf5d1b501c614f2",
    "name_last": "3e51d88e600aae12ee07549189167857c0616a144dc79b93108302632993d9d4",
    "company": "f558ac4c36b9568e476131da9555982ed95ea23d4d3571fab7d63b079b9d7698",
    "address": "5b9c6babd136cec57684aaf8ebc89ecd42764ff570635423ff2d0802c357ea35",
    "city": "3db0860cbf6c1e4489ca61a1eace709dcf5a7fcf067da787fa49d7ec2380ba36",
    "country": "ab5457663df81f95d9d2502ad317698b9cd6b2f8ca3afacd8da8c017d26392c5",
    "email": "4323c400138f850e7e4b2b85d562323d9c220a3fa7f4f7a1a84d6941427415a1",
    "phone": "405f2ece3ff2bb668d549016423908e2d4ba58532764ff86a76c5df0058f8024",
    "url": "3c2d2fd67e90be26328f9b1ec7ba90724ac50a54754781810235e66792cbc380",
    "pattern": "787e0d32268d1170d78910dca05b75ebdb01d1bb55357d7b4cef7a53b8a6cd98",
    "pattern_literal": "5e9973a6dcd67951a9513560e132574f450dbc900785c93920f42d0e12def2ad",
}


def _value_digest(values: list) -> str:
    return hashlib.sha256("\n".join(values).encode("utf-8")).hexdigest()


def test_fixed_draw_generators_match_pinned_digests():
    """The scalar oracle, one whole block and a run of blocks cut on both
    sides of the small-block rule all hash to the pinned digest."""
    schema = Schema("fixed_draw", seed=20150531)
    schema.add_table(Table("t", str(FIXED_DRAW_ROWS), [
        Field.of(name, "VARCHAR(80)", spec) for name, spec in FIXED_DRAW_FIELDS.items()
    ]))
    engine = GenerationEngine(schema)
    bound = engine.bound_table("t")
    ctx = engine.new_context("t")
    rows = [bound.generate_row(row, ctx) for row in range(FIXED_DRAW_ROWS)]
    whole = engine.generate_columns("t", 0, FIXED_DRAW_ROWS)
    pieces = [
        engine.generate_columns("t", start, stop)
        for start, stop in zip(FIXED_DRAW_EDGES, FIXED_DRAW_EDGES[1:])
    ]
    for index, name in enumerate(FIXED_DRAW_FIELDS):
        cut = [value for block in pieces for value in block.columns[index].to_pylist()]
        digests = {
            "scalar": _value_digest([row[index] for row in rows]),
            "block": _value_digest(whole.columns[index].to_pylist()),
            "cut blocks": _value_digest(cut),
        }
        assert digests == dict.fromkeys(digests, FIXED_DRAW_DIGESTS[name]), name


@pytest.mark.parametrize("suite", ["tpch", "bigbench"])
def test_environment_is_invisible_in_the_bytes(suite, tmp_path):
    """The time zone and the hash seed are ambient state a formatter or
    a set iteration could leak into the output (a DST-dependent
    timestamp did once); each combination runs the real command in its
    own process and must write the same files."""
    src = Path(__file__).resolve().parent.parent / "src"
    digests = {}
    for zone in ("UTC", "America/New_York", "Asia/Kolkata"):
        for hash_seed in ("0", "1"):
            directory = tmp_path / f"{zone.replace('/', '_')}-{hash_seed}"
            subprocess.run(
                [sys.executable, "-m", "repro.cli.main", "generate",
                 "--suite", suite, "--sf", "0.001", "-d", str(directory), "-q"],
                env=dict(os.environ, PYTHONPATH=str(src), TZ=zone,
                         PYTHONHASHSEED=hash_seed),
                check=True, capture_output=True, timeout=120,
            )
            digests[zone, hash_seed] = {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(directory.iterdir())
            }
    reference = digests["UTC", "0"]
    assert reference, "the run wrote no files"
    assert all(found == reference for found in digests.values()), digests
