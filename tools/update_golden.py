"""Regenerate (or verify) the golden determinism manifest.

PDGF's repeatability claim — same model, same seed ⇒ same bytes, on any
machine, any worker count, any Python — is only credible if CI measures
it. This tool generates small slices of the three built-in suites
(TPC-H, SSB, BigBench) through the memory sink and records one SHA-256
per table in ``tests/golden/manifest.json``; and it pins DBSynth's half
of the claim — same source, same seed ⇒ same *model* — by extracting a
model from a seeded IMDb-like source (once with the default bernoulli
sample, once with ``--strategy systematic``) and recording one SHA-256
per saved project file plus one per table of a slice generated from it;
and it pins the update black box — one SHA-256 per suite over the events
of two update epochs of its fact table. The
determinism gate runs ``--check`` on every CI platform: a digest drift
means generation or extraction became platform- or version-dependent
(or an intentional change that must be acknowledged by re-running this
tool and committing the diff).

Usage:
    python tools/update_golden.py          # rewrite the manifest
    python tools/update_golden.py --check  # verify, exit 1 on drift
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

GOLDEN_PATH = REPO / "tests" / "golden" / "manifest.json"

#: (suite, scale factor) slices — small enough for seconds-long CI runs,
#: large enough to touch every table and generator family of each suite.
SUITES = (("tpch", 0.001), ("ssb", 0.001), ("bigbench", 0.001))

PACKAGE_SIZE = 1000

#: per suite, the table whose update epochs ``EPOCHS`` are pinned (at the
#: suite's ``SUITES`` scale factor)
EPOCH_TABLES = {"tpch": "lineitem", "ssb": "lineorder", "bigbench": "store_sales"}
EPOCHS = (1, 2)

#: The extraction source: big enough that the default 1% bernoulli sample
#: of every text column stays above ``SampleConfig.min_values`` — a smaller
#: source falls back to the first-N scan and would pin nothing about the
#: seeded draw.
IMDB_SOURCE = {
    "movies": 10000, "people": 8000, "cast_per_movie": 1,
    "ratings_per_movie": 3, "seed": 13,
}
SLICE_ROWS = 500

#: Pinned extractions: manifest name -> sampling strategy (None: the
#: default SampleConfig).
EXTRACTIONS = {"imdb": None, "imdb-systematic": "systematic"}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def suite_digests() -> dict:
    from repro.engine import GenerationEngine
    from repro.output.config import OutputConfig
    from repro.scheduler import Scheduler
    from repro.suites import suite_model

    suites = {}
    for name, scale_factor in SUITES:
        engine = GenerationEngine(*suite_model(name, scale_factor))
        output = OutputConfig(kind="memory", format="csv")
        report = Scheduler(engine, output, package_size=PACKAGE_SIZE).run()
        suites[name] = {
            "scale_factor": scale_factor,
            "rows": report.rows,
            "tables": {
                table: {
                    "rows": engine.sizes[table],
                    "sha256": _sha256(output.memory_output(table).encode("utf-8")),
                }
                for table in sorted(engine.sizes)
            },
        }
    return suites


def epoch_digests() -> dict:
    """Per suite: the ``repr`` of every event of ``EPOCHS`` of its
    ``EPOCH_TABLES`` table, one line each, hashed together."""
    from repro.engine import GenerationEngine
    from repro.suites import suite_model
    from repro.update import UpdateBlackBox

    epochs = {}
    for name, scale_factor in SUITES:
        table = EPOCH_TABLES[name]
        box = UpdateBlackBox(GenerationEngine(*suite_model(name, scale_factor)))
        lines = [repr(event) for epoch in EPOCHS for event in box.epoch_events(table, epoch)]
        epochs[name] = {
            "table": table, "epochs": list(EPOCHS), "events": len(lines),
            "sha256": _sha256("\n".join(lines).encode("utf-8")),
        }
    return epochs


def extracted_digests(strategy: str | None = None) -> dict:
    """``dbsynth extract`` (``--strategy`` *strategy*, when given) over
    the seeded IMDb-like source: the saved project, file by file, and a
    CSV slice of every table of the model loaded back from it."""
    from repro.api import Dataset
    from repro.core import BuildOptions, DBSynthProject, SampleConfig
    from repro.engine import GenerationEngine
    from repro.suites.imdb import build_imdb_database

    sample = SampleConfig() if strategy is None else SampleConfig(strategy=strategy)
    with tempfile.TemporaryDirectory(prefix="golden-imdb-") as work:
        source = build_imdb_database(str(Path(work) / "source.db"), **IMDB_SOURCE)
        try:
            project = DBSynthProject(
                name="dbsynth_model", source=source,
                build_options=BuildOptions(sample_config=sample),
            )
            project.profile()
            project.build_model()
        finally:
            source.close()
        saved = Path(work) / "project"
        project.save(str(saved))
        files = {
            str(path.relative_to(saved)): _sha256(path.read_bytes())
            for path in sorted(saved.rglob("*")) if path.is_file()
        }
        dataset = Dataset(GenerationEngine(*DBSynthProject.load_saved(str(saved))))
    tables = {}
    for table, rows in sorted(dataset.tables.items()):
        rows = min(rows, SLICE_ROWS)
        body = dataset.slice(table, 0, rows, format="csv")
        tables[table] = {"rows": rows, "sha256": _sha256(body)}
    record = {"source": IMDB_SOURCE, "files": files, "tables": tables}
    if strategy is not None:
        record["strategy"] = strategy
    return record


def compute_digests() -> dict:
    return {
        "format": "csv",
        "package_size": PACKAGE_SIZE,
        "suites": suite_digests(),
        "epochs": epoch_digests(),
        "extracted": {
            name: extracted_digests(strategy) for name, strategy in EXTRACTIONS.items()
        },
    }


def pinned(manifest: dict) -> dict[str, object]:
    """Every pinned fact of a manifest under one label each."""
    flat: dict[str, object] = {}
    for suite, record in manifest["suites"].items():
        for table, entry in record["tables"].items():
            flat[f"{suite}.{table}"] = (entry["rows"], entry["sha256"])
    for suite, record in manifest["epochs"].items():
        flat[f"{suite}.{record['table']}@epochs"] = (record["events"], record["sha256"])
    for name, record in manifest["extracted"].items():
        for path, digest in record["files"].items():
            flat[f"{name}-extracted/{path}"] = digest
        for table, entry in record["tables"].items():
            flat[f"{name}-extracted.{table}"] = (entry["rows"], entry["sha256"])
    return flat


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="verify the checked-in manifest instead of rewriting it",
    )
    args = parser.parse_args()

    current = compute_digests()
    if not args.check:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        total = sum(s["rows"] for s in current["suites"].values())
        print(f"golden manifest written to {GOLDEN_PATH} ({total} rows)")
        return 0

    if not GOLDEN_PATH.exists():
        print(f"no golden manifest at {GOLDEN_PATH}; run without --check first")
        return 1
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    actual = pinned(current)
    drifts = [
        f"{label}: expected {expected}, got {actual.get(label, 'nothing')}"
        for label, expected in pinned(golden).items()
        if actual.get(label) != expected
    ]
    if drifts:
        print("determinism gate FAILED — pinned bytes drifted:")
        for drift in drifts:
            print(f"  {drift}")
        print(
            "if the change is intentional, regenerate with "
            "'python tools/update_golden.py' and commit the manifest"
        )
        return 1
    print(f"determinism gate passed: {len(pinned(golden))} digests match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
