"""Tests for the dbsynth command line interface."""

from __future__ import annotations

import filecmp
import os

import pytest

from repro.cli.main import main
from repro.core.sampling import SampleConfig
from repro.db.sqlite_adapter import SQLiteAdapter
from repro.suites.imdb import build_imdb_database


@pytest.fixture
def source_db(tmp_path):
    path = str(tmp_path / "source.db")
    adapter = build_imdb_database(path, movies=40, people=60, seed=13)
    adapter.close()
    return path


@pytest.fixture
def project_dir(source_db, tmp_path):
    directory = str(tmp_path / "proj")
    assert main(["extract", source_db, "-o", directory, "--sample-fraction", "0.9"]) == 0
    return directory


class TestExtract:
    def test_creates_project_files(self, project_dir):
        assert os.path.exists(os.path.join(project_dir, "model.xml"))
        assert os.path.exists(os.path.join(project_dir, "schema.sql"))
        assert os.path.isdir(os.path.join(project_dir, "artifacts"))

    def test_verbose_prints_decisions(self, source_db, tmp_path, capsys):
        directory = str(tmp_path / "proj2")
        main(["extract", source_db, "-o", directory, "-v"])
        out = capsys.readouterr().out
        assert "movies.movie_id" in out
        assert "IdGenerator" in out

    def test_no_sample_mode(self, source_db, tmp_path):
        directory = str(tmp_path / "proj3")
        assert main(["extract", source_db, "-o", directory, "--no-sample"]) == 0
        assert not os.path.isdir(os.path.join(directory, "artifacts"))

    def test_timings_printed(self, source_db, tmp_path, capsys):
        main(["extract", source_db, "-o", str(tmp_path / "p")])
        out = capsys.readouterr().out
        assert "timings:" in out
        assert "min/max" in out

    def test_default_extract_is_reproducible(self, tmp_path, monkeypatch):
        # The source must be large enough that the default 1% bernoulli
        # sample is *kept*: below SampleConfig.min_values the sampler falls
        # back to the deterministic first-N scan, which hid an unseeded
        # draw from every small-schema test.
        source = str(tmp_path / "big.db")
        build_imdb_database(
            source, movies=10000, people=8000, cast_per_movie=1,
            ratings_per_movie=3, seed=13,
        ).close()
        kept = []
        sample_column = SQLiteAdapter.sample_column

        def spy(self, *args, **kwargs):
            values = sample_column(self, *args, **kwargs)
            if kwargs.get("strategy") == "bernoulli":
                kept.append(len(values))
            return values

        monkeypatch.setattr(SQLiteAdapter, "sample_column", spy)
        trees = []
        for run in ("a", "b"):
            directory = tmp_path / run
            assert main(["extract", source, "-o", str(directory)]) == 0
            trees.append({
                str(path.relative_to(directory)): path.read_bytes()
                for path in sorted(directory.rglob("*")) if path.is_file()
            })
        assert kept and min(kept) >= SampleConfig().min_values
        assert len(trees[0]) > 3  # model, DDL and the sampled artifacts
        assert trees[0] == trees[1]


class TestPreview:
    def test_preview_model(self, project_dir, capsys):
        assert main(["preview", "--model", project_dir, "--table", "movies",
                     "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "-- movies" in out
        assert "movie_id | title" in out

    def test_preview_suite(self, capsys):
        assert main(["preview", "--suite", "tpch", "--sf", "0.001",
                     "--table", "region", "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "AFRICA" in out

    def test_preview_all_tables(self, capsys):
        assert main(["preview", "--suite", "ssb", "--sf", "0.0001", "-n", "1"]) == 0
        out = capsys.readouterr().out
        assert "-- lineorder" in out

    def test_requires_model_or_suite(self, capsys):
        assert main(["preview"]) == 2
        assert "error:" in capsys.readouterr().err


class TestGenerate:
    def test_generate_files(self, project_dir, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        assert main(["generate", "--model", project_dir, "--kind", "file",
                     "-d", out_dir, "-q"]) == 0
        assert os.path.exists(os.path.join(out_dir, "movies.tbl"))
        assert "rows" in capsys.readouterr().out

    def test_generate_null_sink(self, capsys):
        assert main(["generate", "--suite", "tpch", "--sf", "0.0005",
                     "--kind", "null", "-q", "-w", "2"]) == 0
        assert "MB/s" in capsys.readouterr().out

    def test_generate_process_backend(self, tmp_path, capsys):
        """``-w N`` means N processes: same files as ``-w 1``, and the
        summary line says which runtime ran."""
        for workers in ("1", "2"):
            assert main(["generate", "--suite", "tpch", "--sf", "0.001",
                         "-d", str(tmp_path / workers), "-q", "-w", workers]) == 0
        out = capsys.readouterr().out
        assert "1 inline worker)" in out and "2 process workers)" in out
        names = sorted(os.listdir(tmp_path / "1"))
        assert len(names) == 8 and names == sorted(os.listdir(tmp_path / "2"))
        for name in names:
            assert filecmp.cmp(
                tmp_path / "1" / name, tmp_path / "2" / name, shallow=False
            ), name

    def test_generate_sqlite(self, project_dir, tmp_path):
        db_path = str(tmp_path / "target.db")
        assert main(["generate", "--model", project_dir, "--kind", "sqlite",
                     "--format", "sql", "--database", db_path, "-q"]) == 0
        from repro.db.sqlite_adapter import SQLiteAdapter

        with SQLiteAdapter(db_path) as target:
            assert target.row_count("movies") == 40

    def test_resume_a_finished_sqlite_load(self, tmp_path, capsys):
        """``--resume`` finds the schema in place: it neither re-runs the
        CREATE TABLE script nor loads a row twice."""
        db_path = str(tmp_path / "t.db")
        command = ["generate", "--suite", "tpch", "--sf", "0.0005", "--kind",
                   "sqlite", "--format", "sql", "--database", db_path,
                   "--checkpoint", str(tmp_path / "ck"), "-q"]
        assert main(command) == 0

        def counts():
            with SQLiteAdapter(db_path) as target:
                return {
                    table: target.row_count(table)
                    for table in ("region", "nation", "lineitem", "orders")
                }

        loaded = counts()
        assert main(command + ["--resume"]) == 0, capsys.readouterr().err
        assert "resumed:" in capsys.readouterr().out
        assert counts() == loaded and loaded["region"] == 5

    def test_property_overrides(self, capsys):
        assert main(["generate", "--suite", "tpch", "--kind", "null", "-q",
                     "-p", "lineitem_size=100", "-p", "orders_size=25",
                     "--sf", "0.0001"]) == 0
        out = capsys.readouterr().out
        assert "rows" in out

    def test_scale_factor_applies_to_model(self, project_dir, capsys):
        assert main(["preview", "--model", project_dir, "--table", "movies",
                     "--sf", "0.5", "-n", "1"]) == 0
        out = capsys.readouterr().out
        assert "(20 rows)" in out


class TestTranslate:
    def test_translate_model(self, project_dir, capsys):
        assert main(["translate", "--model", project_dir]) == 0
        out = capsys.readouterr().out
        assert "CREATE TABLE movies" in out

    def test_translate_suite_dialect(self, capsys):
        assert main(["translate", "--suite", "tpch", "--dialect", "postgres"]) == 0
        out = capsys.readouterr().out
        assert "CREATE TABLE lineitem" in out


class TestVerify:
    def test_verify_pass(self, source_db, project_dir, tmp_path, capsys):
        target = str(tmp_path / "target.db")
        main(["generate", "--model", project_dir, "--kind", "sqlite",
              "--format", "sql", "--database", target, "-q"])
        code = main(["verify", "--model", project_dir, "--source", source_db,
                     "--target", target])
        out = capsys.readouterr().out
        assert "pass rate:" in out
        assert code in (0, 1)  # statistical; usually 0

    def test_verify_against_empty_target_fails(self, source_db, project_dir,
                                               tmp_path, capsys):
        target = str(tmp_path / "empty.db")
        from repro.core.project import DBSynthProject
        from repro.core.translator import SchemaTranslator
        from repro.db.sqlite_adapter import SQLiteAdapter

        schema, _ = DBSynthProject.load_saved(project_dir)
        with SQLiteAdapter(target) as adapter:
            SchemaTranslator().apply(schema, adapter)
        assert main(["verify", "--model", project_dir, "--source", source_db,
                     "--target", target]) == 1


class TestUpdate:
    def test_update_plan(self, capsys):
        assert main(["update", "--suite", "tpch", "--sf", "0.001",
                     "--table", "orders", "--epoch", "1"]) == 0
        out = capsys.readouterr().out
        assert "inserts" in out and "updates" in out and "deletes" in out

    def test_update_show_events(self, project_dir, capsys):
        assert main(["update", "--model", project_dir, "--table", "movies",
                     "--epoch", "1", "--show"]) == 0
        out = capsys.readouterr().out
        assert "insert" in out


class TestErrors:
    def test_unknown_model_directory(self, capsys):
        assert main(["preview", "--model", "/nonexistent/dir"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_weight_is_a_model_error(self, tmp_path, capsys):
        (tmp_path / "model.xml").write_text(
            '<schema name="bad"><table name="t"><size>10</size>'
            '<field name="f" type="BIGINT"><gen_ProbabilityGenerator>'
            "<weight>1</weight><weight>-1</weight>"
            "<gen_StaticValueGenerator><constant>1</constant></gen_StaticValueGenerator>"
            "<gen_StaticValueGenerator><constant>2</constant></gen_StaticValueGenerator>"
            "</gen_ProbabilityGenerator></field></table></schema>"
        )
        code = main(["generate", "--model", str(tmp_path), "--kind", "null", "-q"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: weights must be finite and non-negative")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
