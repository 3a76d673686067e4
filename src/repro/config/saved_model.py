"""A saved project directory: its layout and how to read it back.

``dbsynth extract`` writes a project (:meth:`repro.core.DBSynthProject.save`);
``preview``, ``generate``, ``serve`` and :meth:`repro.Dataset.from_model`
only read one. Reading needs the model XML and the artifact store, not
the extraction pipeline, so it lives here rather than in
:mod:`repro.core`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.config import schema_xml
from repro.exceptions import ExtractionError
from repro.model.artifacts import ArtifactStore
from repro.model.schema import Schema


@dataclass
class ProjectPaths:
    """Where a project persists its artifacts on disk."""

    root: str

    @property
    def model_xml(self) -> str:
        return os.path.join(self.root, "model.xml")

    @property
    def artifact_dir(self) -> str:
        return os.path.join(self.root, "artifacts")

    @property
    def ddl_sql(self) -> str:
        return os.path.join(self.root, "schema.sql")


def saved_schema(directory: str) -> Schema:
    """A saved project's model without its artifacts: all that
    describing the model (its DDL, its verify checks) reads."""
    paths = ProjectPaths(directory)
    if not os.path.exists(paths.model_xml):
        raise ExtractionError(f"no saved model at {paths.model_xml}")
    return schema_xml.load(paths.model_xml)


def load_saved(directory: str) -> tuple[Schema, ArtifactStore]:
    """Reload a saved project's model and artifacts."""
    schema = saved_schema(directory)
    artifacts = ProjectPaths(directory).artifact_dir
    if os.path.isdir(artifacts):
        return schema, ArtifactStore.load_dir(artifacts)
    return schema, ArtifactStore()
