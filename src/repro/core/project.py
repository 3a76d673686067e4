"""DBSynth projects: end-to-end workflows.

"In DBSynth, the user specifies projects, which integrate workflows,
such as data generation, data extraction, etc. ... Not all steps are
necessary for a given project." (paper §3, Figure 3). A project bundles
the full automatic pipeline — extract → profile → build model → save →
generate → load → verify — with each step callable on its own, mirroring
the demo's wizard.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.config import saved_model, schema_xml
from repro.config.saved_model import ProjectPaths
from repro.core.extraction import ExtractedSchema, SchemaExtractor
from repro.core.model_builder import BuildOptions, BuildResult, ModelBuilder
from repro.core.profiling import DataProfiler, SchemaProfile
from repro.db.adapter import DatabaseAdapter
from repro.db.ddl import create_schema_sql

if TYPE_CHECKING:  # the generate / load / verify steps import these when run
    from repro.core.fidelity import FidelityReport
    from repro.engine import GenerationEngine
    from repro.scheduler.scheduler import RunReport


@dataclass
class DBSynthProject:
    """One synthesis project bound to a source database adapter.

    Typical use::

        project = DBSynthProject(name="imdb", source=SQLiteAdapter("imdb.db"))
        project.extract()
        project.profile()
        result = project.build_model()
        project.save("projects/imdb")
        engine = project.engine(scale_factor=2.0)
        project.load_into(target_adapter, engine)
        report = project.verify(target_adapter)
    """

    name: str
    source: DatabaseAdapter
    build_options: BuildOptions = field(default_factory=BuildOptions)

    extracted: ExtractedSchema | None = None
    schema_profile: SchemaProfile | None = None
    result: BuildResult | None = None

    # -- pipeline steps --------------------------------------------------------

    def extract(self, include_sizes: bool = True) -> ExtractedSchema:
        """Step 1: catalog extraction."""
        self.extracted = SchemaExtractor(self.source).extract(include_sizes)
        return self.extracted

    def profile(self) -> SchemaProfile:
        """Step 2: statistical profiling (requires :meth:`extract`)."""
        if self.extracted is None:
            self.extract()
        assert self.extracted is not None
        self.schema_profile = DataProfiler(self.source).profile(self.extracted)
        return self.schema_profile

    def build_model(self) -> BuildResult:
        """Step 3: model construction (extracts first if needed; uses the
        profile only when :meth:`profile` ran)."""
        if self.extracted is None:
            self.extract()
        assert self.extracted is not None
        builder = ModelBuilder(self.source, self.build_options)
        self.result = builder.build(
            self.extracted, self.schema_profile, name=self.name
        )
        return self.result

    def _require_model(self) -> BuildResult:
        if self.result is None:
            self.build_model()
        assert self.result is not None
        return self.result

    def save(self, directory: str) -> ProjectPaths:
        """Persist model XML, artifacts, and target DDL."""
        result = self._require_model()
        paths = ProjectPaths(directory)
        os.makedirs(directory, exist_ok=True)
        schema_xml.dump(result.schema, paths.model_xml)
        if result.artifacts.names():
            result.artifacts.save_dir(paths.artifact_dir)
        with open(paths.ddl_sql, "w", encoding="utf-8") as handle:
            handle.write(create_schema_sql(result.schema, "sqlite"))
        return paths

    #: Reload a saved project's model and artifacts (the light reader in
    #: :mod:`repro.config.saved_model`, which needs none of this module).
    load_saved = staticmethod(saved_model.load_saved)

    def engine(self, scale_factor: float | None = None) -> GenerationEngine:
        """Step 4: a generation engine over the built model."""
        from repro.engine import GenerationEngine

        result = self._require_model()
        if scale_factor is not None:
            result.schema.properties.override("SF", scale_factor)
        return GenerationEngine(result.schema, result.artifacts)

    def create_target_schema(self, target: DatabaseAdapter) -> None:
        """Step 5a: apply DDL to the target database (the paper's schema
        translator: "the model is translated into a SQL schema, which is
        loaded into the target database")."""
        target.execute_script(create_schema_sql(self._require_model().schema, "sqlite"))

    def load_into(
        self,
        target: DatabaseAdapter,
        engine: GenerationEngine | None = None,
        create_schema: bool = True,
    ) -> RunReport:
        """Step 5b: generate and load data into the target database."""
        from repro.core.loader import load

        if engine is None:
            engine = self.engine()
        if create_schema:
            self.create_target_schema(target)
        return load(engine, target)

    def verify(self, target: DatabaseAdapter) -> FidelityReport:
        """Step 6: original-vs-synthetic query comparison."""
        from repro.core.fidelity import FidelityChecker, default_queries

        schema = self._require_model().schema
        return FidelityChecker(self.source, target).run(default_queries(schema))
