"""§4 extraction experiment ("Table 1") — DBSynth metadata extraction.

Paper, on a TPC-H SF 1 PostgreSQL database: schema information 600 ms,
table sizes 1.3 s, NULL probabilities 600 ms, all min/max constraints
10 s, and Markov-chain sampling between 800 ms (0.001% sample) and 200 s
(100% sample) — "interactive response time for data model generation".

Here: TPC-H loaded into SQLite at a laptop SF; each phase timed
separately and the sampling fraction swept over ~3 orders of magnitude.
Reproduction targets: the catalog-only phases << the full-scan phases
(NULL probabilities, min/max); sampling cost grows with the fraction;
the whole basic extraction stays interactive (well under a second at
bench scale).
"""

from __future__ import annotations

import statistics

import pytest

from repro.core.extraction import SchemaExtractor
from repro.core.profiling import DataProfiler
from repro.core.project import DBSynthProject
from repro.core.sampling import ColumnSampler, SampleConfig
from repro.core.loader import load
from repro.db.ddl import create_schema_sql
from repro.db.sqlite_adapter import SQLiteAdapter
from repro.engine import GenerationEngine
from repro.suites.tpch import tpch_artifacts, tpch_schema

from conftest import bench_sf, record

SAMPLE_FRACTIONS = [0.001, 0.01, 0.1, 1.0]


@pytest.fixture(scope="module")
def tpch_db(tmp_path_factory):
    """A TPC-H SQLite database to extract from (built once)."""
    path = str(tmp_path_factory.mktemp("tab1") / "tpch.db")
    schema = tpch_schema(bench_sf(0.002))
    adapter = SQLiteAdapter(path)
    adapter.execute_script(create_schema_sql(schema, "sqlite"))
    load(GenerationEngine(schema, tpch_artifacts()), adapter)
    yield adapter
    adapter.close()


def test_phase_schema_information(benchmark, tpch_db):
    result = benchmark(lambda: SchemaExtractor(tpch_db).extract(include_sizes=False))
    ms = benchmark.stats.stats.mean * 1000
    record("Table 1 (extraction phases): phase | ms", ("schema information", round(ms, 1)))
    assert len(result.tables) == 8


def test_phase_table_sizes(benchmark, tpch_db):
    extractor = SchemaExtractor(tpch_db)

    def run():
        extracted = extractor.extract(include_sizes=True)
        return extracted.timings.sizes_seconds

    sizes_seconds = benchmark(run)
    record(
        "Table 1 (extraction phases): phase | ms",
        ("table sizes", round(sizes_seconds * 1000, 1)),
    )


#: the profiling phases, each one's ``PhaseTimings`` field and its row
PROFILE_PHASES = {
    "null_seconds": "NULL probabilities",
    "minmax_seconds": "min/max constraints",
    "distinct_seconds": "distinct counts",
}


def test_phases_profiling(benchmark, tpch_db):
    """One ``DataProfiler.profile`` call per round times every profiling
    phase; each phase's row is its ``PhaseTimings`` field, median
    [min .. max] over five rounds."""
    extracted = SchemaExtractor(tpch_db).extract()
    rounds: dict[str, list[float]] = {phase: [] for phase in PROFILE_PHASES}

    def run():
        for phase in PROFILE_PHASES:
            setattr(extracted.timings, phase, 0.0)
        DataProfiler(tpch_db).profile(extracted)
        for phase, samples in rounds.items():
            samples.append(getattr(extracted.timings, phase) * 1000)

    benchmark.pedantic(run, rounds=5, iterations=1)
    for phase, samples in rounds.items():
        record(
            "Table 1 (extraction phases): phase | ms",
            (PROFILE_PHASES[phase], round(statistics.median(samples), 1),
             f"[{min(samples):.1f} .. {max(samples):.1f}] over {len(samples)} rounds"),
        )
        assert min(samples) > 0, phase


def test_markov_sampling_sweep(benchmark, tpch_db):
    """The paper's sampling sweep: 0.001% → 100% spans 800 ms → 200 s.
    Bench scale compresses the absolute times; the growth with the
    sampled fraction is the target — sampling must cost less the less it
    samples, or it buys nothing.

    Seven rounds that visit the four fractions in turn, so a busy spell
    on a shared host hits all of them; reported as median [min .. max],
    asserted on the least disturbed (min) reading. Fractions below 10%
    differ by less than a round's spread (the scan dominates; min .. max
    of one fraction spans 30-40% on a busy host), so a step may fall
    short by 30%; the sweep as a whole must rise at least 1.5x (measured
    1.9-2.6x; the paper's 250x needs its 1000x larger table). The
    inverted sweep this replaced (22 / 33 / 22 / 8.6 ms) fails both."""
    extracted = SchemaExtractor(tpch_db).extract()
    sampler = ColumnSampler(tpch_db)
    configs = {
        fraction: SampleConfig(fraction=fraction, min_values=5)
        for fraction in SAMPLE_FRACTIONS
    }
    rounds: dict[float, list[float]] = {fraction: [] for fraction in SAMPLE_FRACTIONS}

    def sweep():
        for fraction, config in configs.items():
            extracted.timings.sampling_seconds = 0.0
            sampler.sample(extracted, "lineitem", "l_comment", config)
            rounds[fraction].append(extracted.timings.sampling_seconds * 1000)

    benchmark.pedantic(sweep, rounds=7, iterations=1, warmup_rounds=1)
    for fraction, samples in rounds.items():
        del samples[0]  # the warm-up round
        record(
            "Table 1 (extraction phases): phase | ms",
            (f"Markov sampling ({fraction:.1%})", round(statistics.median(samples), 2),
             f"[{min(samples):.2f} .. {max(samples):.2f}] over {len(samples)} rounds"),
        )
    costs = [min(samples) for samples in rounds.values()]
    for smaller, larger in zip(costs, costs[1:]):
        assert larger >= 0.7 * smaller, costs
    assert costs[-1] >= 1.5 * costs[0], costs


def test_full_extraction_is_interactive(benchmark, tpch_db):
    """Paper: "these results indicate an interactive response time for
    data model generation": the DBSynth project steps extract, profile
    and build."""

    def build():
        project = DBSynthProject(name="tpch_extracted", source=tpch_db)
        project.profile()
        return project.build_model()

    benchmark.pedantic(build, rounds=1, iterations=1)
    seconds = benchmark.stats.stats.mean
    record(
        "Table 1 (extraction phases): phase | ms",
        ("full model build", round(seconds * 1000, 1)),
    )
    assert seconds < 60, "model building should stay interactive"
