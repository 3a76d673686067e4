"""The fixed inputs of the workloads: sizes per run mode, the typed
model, the IMDb-like source database, and how each model is named on the
CLI versus opened in-process for reference output.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one run mode. ``full`` was sized on a 2-core host
    so one repeat of a batch workload takes 2.5-4 s and one pass over
    the serve request list about 4 s."""

    tpch_sf: float
    typed_rows: int
    imdb_movies: int
    imdb_people: int
    imdb_sf: float
    serve_requests: int
    open_loop_requests: int
    probe_rows: int  # rows per single-generator and prng probe


FULL = Sizes(
    tpch_sf=0.02, typed_rows=1_000_000, imdb_movies=12_000,
    imdb_people=18_000, imdb_sf=1.5, serve_requests=500,
    open_loop_requests=150, probe_rows=20_000,
)
#: the per-layer pass re-drives each model in-process a dozen times
#: (pipeline passes, scheduler backends, formats, serve probes), so it
#: uses about a third of the size.
TRACED = Sizes(
    tpch_sf=0.0075, typed_rows=300_000, imdb_movies=4_000,
    imdb_people=6_000, imdb_sf=2.0, serve_requests=200,
    open_loop_requests=100, probe_rows=20_000,
)
QUICK = Sizes(
    tpch_sf=0.001, typed_rows=20_000, imdb_movies=300,
    imdb_people=450, imdb_sf=1.0, serve_requests=40,
    open_loop_requests=20, probe_rows=2_000,
)


@dataclass(frozen=True)
class Model:
    """One model as the program sees it (``cli_args``) and as the
    benchmark opens it in-process for reference output: a built-in
    suite or a saved project directory, at one scale factor."""

    scale_factor: float
    suite: str = ""
    directory: str = ""

    @property
    def cli_args(self) -> list[str]:
        source = ["--suite", self.suite] if self.suite else ["--model", self.directory]
        return [*source, "--sf", repr(self.scale_factor)]

    def at_scale(self, scale_factor: float) -> "Model":
        return replace(self, scale_factor=scale_factor)

    def dataset(self, package_size: int | None = None):
        from repro import DEFAULT_PACKAGE_SIZE, Dataset

        size = package_size or DEFAULT_PACKAGE_SIZE
        if self.suite:
            return Dataset.from_suite(
                self.suite, self.scale_factor, package_size=size
            )
        return Dataset.from_model(
            self.directory, scale_factor=self.scale_factor, package_size=size
        )


def write_typed_model(directory: str, rows: int) -> Model:
    """Save the all-typed model: every column has a ``generate_block``
    kernel and a vectorized CSV formatter, so no value takes the
    ``ObjectColumn`` fallback (the ``bench_trend`` columnar schema)."""
    from repro import Field, GeneratorSpec, Schema, Table
    from repro.config import schema_xml

    schema = Schema("typed", seed=11)
    schema.properties.define("SF", "1")
    schema.add_table(Table("w", f"{rows} * ${{SF}}", [
        Field.of("w_id", "BIGINT", GeneratorSpec("IdGenerator")),
        Field.of("w_key", "BIGINT", GeneratorSpec(
            "LongGenerator", {"min": 1, "max": 10_000_000}
        )),
        Field.of("w_qty", "BIGINT", GeneratorSpec(
            "LongGenerator", {"min": 1, "max": 50}
        )),
        Field.of("w_money", "DECIMAL(12,2)", GeneratorSpec(
            "DoubleGenerator", {"min": 0.0, "max": 1000.0, "places": 2}
        )),
        Field.of("w_bool", "BOOLEAN", GeneratorSpec(
            "BooleanGenerator", {"true_probability": 0.5}
        )),
        Field.of("w_date", "DATE", GeneratorSpec(
            "DateGenerator", {"min": "1992-01-01", "max": "1998-12-31"}
        )),
        Field.of("w_dict", "VARCHAR(10)", GeneratorSpec(
            "DictListGenerator",
            {"values": ["alpha", "beta", "gamma", "delta", "epsilon"],
             "weights": [5, 4, 3, 2, 1]},
        )),
    ]))
    os.makedirs(directory, exist_ok=True)
    schema_xml.dump(schema, os.path.join(directory, "model.xml"))
    return Model(1.0, directory=directory)


def build_imdb_source(path: str, sizes: Sizes, seed: int) -> None:
    """The IMDb-like SQLite source database, content seeded by *seed*."""
    from repro.suites.imdb import build_imdb_database

    if os.path.exists(path):
        os.remove(path)
    build_imdb_database(
        path, movies=sizes.imdb_movies, people=sizes.imdb_people, seed=seed
    ).close()
