"""Tests for the simple field value generators."""

from __future__ import annotations

import datetime
import hashlib
import time

import pytest

from repro.exceptions import ModelError
from repro.model.schema import GeneratorSpec
from tests.conftest import field_values, single_field_engine


class TestIdGenerator:
    def test_dense_sequence(self):
        assert field_values(GeneratorSpec("IdGenerator"), rows=5) == [1, 2, 3, 4, 5]

    def test_base_and_step(self):
        spec = GeneratorSpec("IdGenerator", {"base": 100, "step": 10})
        assert field_values(spec, rows=3) == [100, 110, 120]

    def test_zero_base(self):
        assert field_values(GeneratorSpec("IdGenerator", {"base": 0}), rows=3) == [0, 1, 2]


class TestRowFormulaGenerator:
    def test_repeat_key(self):
        spec = GeneratorSpec("RowFormulaGenerator", {"formula": "row // 3 + 1"})
        assert field_values(spec, rows=7) == [1, 1, 1, 2, 2, 2, 3]

    def test_modulo_line_number(self):
        spec = GeneratorSpec("RowFormulaGenerator", {"formula": "row % 4 + 1"})
        assert field_values(spec, rows=6) == [1, 2, 3, 4, 1, 2]

    def test_float_result(self):
        spec = GeneratorSpec(
            "RowFormulaGenerator", {"formula": "row / 2", "as_int": "false"}
        )
        assert field_values(spec, rows=3, type_text="DOUBLE") == [0.0, 0.5, 1.0]

    def test_missing_formula(self):
        with pytest.raises(ModelError):
            single_field_engine(GeneratorSpec("RowFormulaGenerator"))

    def test_property_reference(self):
        # The engine binds properties into the formula environment.
        engine = single_field_engine(
            GeneratorSpec("RowFormulaGenerator", {"formula": "row * 2"}), rows=3
        )
        assert [v[0] for v in engine.iter_rows("t")] == [0, 2, 4]


class TestLongAndIntGenerators:
    def test_within_bounds(self):
        spec = GeneratorSpec("LongGenerator", {"min": 10, "max": 20})
        assert all(10 <= v <= 20 for v in field_values(spec, rows=500))

    def test_bounds_hit(self):
        spec = GeneratorSpec("IntGenerator", {"min": 1, "max": 3})
        assert set(field_values(spec, rows=300)) == {1, 2, 3}

    def test_single_value_range(self):
        spec = GeneratorSpec("IntGenerator", {"min": 5, "max": 5})
        assert set(field_values(spec, rows=20)) == {5}

    def test_empty_range_rejected(self):
        spec = GeneratorSpec("LongGenerator", {"min": 5, "max": 4})
        with pytest.raises(ModelError, match="empty range"):
            single_field_engine(spec)

    def test_formula_bounds(self):
        engine_spec = GeneratorSpec("LongGenerator", {"min": "2 * 5", "max": "2 * 10"})
        assert all(10 <= v <= 20 for v in field_values(engine_spec, rows=200))

    def test_zipf_distribution_skews_low(self):
        spec = GeneratorSpec(
            "LongGenerator", {"min": 1, "max": 100, "distribution": "zipf"}
        )
        values = field_values(spec, rows=3000)
        ones = sum(1 for v in values if v == 1)
        nineties = sum(1 for v in values if v >= 90)
        assert ones > nineties / 10 + 5

    def test_unknown_distribution(self):
        spec = GeneratorSpec("LongGenerator", {"distribution": "cauchy"})
        with pytest.raises(ModelError, match="unknown distribution"):
            single_field_engine(spec)


class TestDoubleGenerator:
    def test_within_bounds(self):
        spec = GeneratorSpec("DoubleGenerator", {"min": -1.0, "max": 1.0})
        values = field_values(spec, rows=500, type_text="DOUBLE")
        assert all(-1.0 <= v <= 1.0 for v in values)

    def test_places_rounding(self):
        spec = GeneratorSpec("DoubleGenerator", {"min": 0, "max": 10, "places": 2})
        for value in field_values(spec, rows=200, type_text="DECIMAL(10,2)"):
            assert round(value, 2) == value

    def test_normal_distribution_clamped(self):
        spec = GeneratorSpec(
            "DoubleGenerator",
            {"min": 0.0, "max": 10.0, "distribution": "normal", "mean": 5.0,
             "stddev": 1.0},
        )
        values = field_values(spec, rows=2000, type_text="DOUBLE")
        assert all(0.0 <= v <= 10.0 for v in values)
        mean = sum(values) / len(values)
        assert abs(mean - 5.0) < 0.2

    def test_empty_range_rejected(self):
        spec = GeneratorSpec("DoubleGenerator", {"min": 1.0, "max": 0.0})
        with pytest.raises(ModelError):
            single_field_engine(spec)


class TestBooleanGenerator:
    def test_default_probability(self):
        values = field_values(GeneratorSpec("BooleanGenerator"), rows=2000,
                              type_text="BOOLEAN")
        fraction = sum(values) / len(values)
        assert abs(fraction - 0.5) < 0.05

    def test_biased(self):
        spec = GeneratorSpec("BooleanGenerator", {"true_probability": 0.9})
        values = field_values(spec, rows=2000, type_text="BOOLEAN")
        assert sum(values) / len(values) > 0.85

    def test_invalid_probability(self):
        spec = GeneratorSpec("BooleanGenerator", {"true_probability": 2.0})
        with pytest.raises(ModelError):
            single_field_engine(spec)


class TestDateGenerator:
    def test_within_window(self):
        spec = GeneratorSpec("DateGenerator", {"min": "2020-06-01", "max": "2020-06-30"})
        lo, hi = datetime.date(2020, 6, 1), datetime.date(2020, 6, 30)
        for value in field_values(spec, rows=300, type_text="DATE"):
            assert lo <= value <= hi

    def test_defaults_to_tpch_window(self):
        values = field_values(GeneratorSpec("DateGenerator"), rows=100, type_text="DATE")
        assert all(1992 <= v.year <= 1998 for v in values)

    def test_single_day_window(self):
        spec = GeneratorSpec("DateGenerator", {"min": "2021-01-01", "max": "2021-01-01"})
        assert set(field_values(spec, rows=10, type_text="DATE")) == {
            datetime.date(2021, 1, 1)
        }

    def test_bad_window(self):
        spec = GeneratorSpec("DateGenerator", {"min": "2022-01-01", "max": "2021-01-01"})
        with pytest.raises(ModelError):
            single_field_engine(spec, type_text="DATE")

    def test_bad_literal(self):
        spec = GeneratorSpec("DateGenerator", {"min": "not-a-date"})
        with pytest.raises(ModelError):
            single_field_engine(spec, type_text="DATE")


class TestTimestampGenerator:
    def test_within_window(self):
        spec = GeneratorSpec(
            "TimestampGenerator",
            {"min": "2020-01-01 00:00:00", "max": "2020-01-01 23:59:59"},
        )
        for value in field_values(spec, rows=200, type_text="TIMESTAMP"):
            assert value.date() == datetime.date(2020, 1, 1)

    def test_bad_window(self):
        spec = GeneratorSpec(
            "TimestampGenerator",
            {"min": "2021-01-02 00:00:00", "max": "2021-01-01 00:00:00"},
        )
        with pytest.raises(ModelError):
            single_field_engine(spec, type_text="TIMESTAMP")


    @pytest.mark.parametrize(
        "zone", ["EST5EDT,M3.2.0,M11.1.0", "NZST-12NZDT,M9.5.0,M4.1.0/3"]
    )
    def test_bytes_do_not_depend_on_host_time_zone(self, zone, monkeypatch):
        """A cell is a pure function of its seed — never of ``TZ``. Both
        the block kernel and the scalar oracle are regenerated after a
        ``tzset`` and must reproduce the UTC run's digest. The zones
        have DST: a fixed offset cancels out of a local-time round trip
        and would not catch one."""
        spec = GeneratorSpec(
            "TimestampGenerator", {"min": "1995-01-01", "max": "1995-12-31"}
        )

        def digests() -> tuple[str, str]:
            engine = single_field_engine(spec, type_text="TIMESTAMP", rows=2000)
            block = repr(engine.generate_rows("t")).encode()
            scalar = repr(
                [engine.generate_row("t", row) for row in range(2000)]
            ).encode()
            return (
                hashlib.sha256(block).hexdigest(),
                hashlib.sha256(scalar).hexdigest(),
            )

        try:
            monkeypatch.setenv("TZ", "UTC")
            time.tzset()
            reference = digests()
            assert reference[0] == reference[1]
            monkeypatch.setenv("TZ", zone)
            time.tzset()
            assert time.timezone != 0, "zone did not take effect"
            assert digests() == reference
        finally:
            monkeypatch.undo()
            time.tzset()


class TestRandomStringGenerator:
    def test_length_bounds(self):
        spec = GeneratorSpec("RandomStringGenerator", {"min": 3, "max": 8})
        for value in field_values(spec, rows=300, type_text="VARCHAR(20)"):
            assert 3 <= len(value) <= 8

    def test_default_max_from_field_size(self):
        values = field_values(
            GeneratorSpec("RandomStringGenerator"), rows=200, type_text="VARCHAR(7)"
        )
        assert all(len(v) <= 7 for v in values)

    def test_alphabet_classes(self):
        spec = GeneratorSpec(
            "RandomStringGenerator", {"min": 5, "max": 5, "alphabet": "digits"}
        )
        for value in field_values(spec, rows=50, type_text="VARCHAR(5)"):
            assert value.isdigit()

    def test_literal_alphabet(self):
        spec = GeneratorSpec(
            "RandomStringGenerator", {"min": 4, "max": 4, "alphabet": "xy"}
        )
        for value in field_values(spec, rows=50, type_text="VARCHAR(4)"):
            assert set(value) <= {"x", "y"}

    def test_bad_lengths(self):
        spec = GeneratorSpec("RandomStringGenerator", {"min": 5, "max": 2})
        with pytest.raises(ModelError):
            single_field_engine(spec, type_text="VARCHAR(10)")


class TestPatternStringGenerator:
    def test_phone_pattern(self):
        spec = GeneratorSpec("PatternStringGenerator", {"pattern": "##-###"})
        for value in field_values(spec, rows=50, type_text="VARCHAR(6)"):
            assert len(value) == 6
            assert value[2] == "-"
            assert value.replace("-", "").isdigit()

    def test_letter_classes(self):
        spec = GeneratorSpec("PatternStringGenerator", {"pattern": "@^#"})
        for value in field_values(spec, rows=50, type_text="VARCHAR(3)"):
            assert value[0].islower()
            assert value[1].isupper()
            assert value[2].isdigit()

    def test_literals_pass_through(self):
        spec = GeneratorSpec("PatternStringGenerator", {"pattern": "AB-#"})
        assert all(
            v.startswith("AB-") for v in field_values(spec, rows=20, type_text="VARCHAR(4)")
        )

    def test_missing_pattern(self):
        with pytest.raises(ModelError):
            single_field_engine(GeneratorSpec("PatternStringGenerator"))


class TestStaticValueGenerator:
    def test_constant(self):
        spec = GeneratorSpec("StaticValueGenerator", {"value": 7})
        assert field_values(spec, rows=10) == [7] * 10

    def test_default_is_null(self):
        assert field_values(GeneratorSpec("StaticValueGenerator"), rows=5) == [None] * 5
