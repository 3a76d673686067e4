"""Figures 7, 8, 9 — per-value generator latency, on the block path.

Paper (single-threaded, per value, JVM): Figure 7 — a static value costs
~50 ns of pure system overhead, a NULL wrapper that always fires adds
~50 ns, letting the sub-generator run adds ~100 ns more ("using
subgenerators incurs nearly negligible cost"); Figure 8 — DictList,
Long, Double, Date and String all land in one 100-500 ns band, String on
top; Figure 9 — formatting dominates: a formatted date costs ~1200 ns
against ~500 unformatted, like a Sequential of two doubles and a long,
and lazy formatting renders a repeated value once — here once per
writer, so the claim is a cold block (a fresh writer renders every
distinct day) against a warm one (every day is a lookup).

Here: the same single-column tables through ``generate_columns`` and
``write_block`` — the calls every executor, ``Dataset.slice`` and
``serve`` make — by ``conftest.block_ns_per_value``. (The scalar
``generate_value`` these figures used to time is the recompute primitive
and the test oracle; it costs 1 400-10 000 ns per value and no run takes
it.) Each figure asserts the paper's shape claims that hold on this path
and prints, as *not reproduced*, the one that does not: String is far
outside Figure 8's band.
"""

from __future__ import annotations

from repro.model.schema import GeneratorSpec as G

from conftest import block_ns_per_value, record

_STATIC = G("StaticValueGenerator", {"constant": "x"})
_DOUBLE = G("DoubleGenerator", {"min": 0.0, "max": 1.0})

FIGURE_7 = {
    "static": ("TEXT", _STATIC),
    "null(100%)": ("TEXT", G("NullGenerator", {"probability": 1.0}, [_STATIC])),
    "null(0%)": ("TEXT", G("NullGenerator", {"probability": 0.0}, [_STATIC])),
}
FIGURE_8 = {
    "dictlist": ("TEXT", G(
        "DictListGenerator", {"values": ["alpha", "beta", "gamma", "delta", "epsilon"]}
    )),
    "long": ("BIGINT", G("LongGenerator", {"min": 0, "max": 10**12})),
    "double": ("DOUBLE", G("DoubleGenerator", {"min": 0.0, "max": 1000.0})),
    "date": ("DATE", G("DateGenerator")),
    "string": ("VARCHAR(20)", G("RandomStringGenerator", {"min": 10, "max": 20})),
}
FIGURE_9 = {
    "date (7 years)": ("DATE", G("DateGenerator")),
    "double (4 places)": ("DOUBLE", G(
        "DoubleGenerator", {"min": 0.0, "max": 1000.0, "places": 4}
    )),
    "sequential (2 double + long)": ("TEXT", G(
        "SequentialGenerator", {"separator": ","},
        [_DOUBLE, _DOUBLE, G("LongGenerator", {"min": 0, "max": 10**9})],
    )),
}


def _measure(benchmark, configs):
    return benchmark.pedantic(block_ns_per_value, args=(configs,), rounds=1, iterations=1)


def test_fig7_latency_breakdown(benchmark):
    series = "Figure 7 (latency breakdown): config | ns/value, table | minus PRNG rows"
    costs = _measure(benchmark, FIGURE_7)
    for name, cost in costs.items():
        record(series, (name, round(cost.table, 1), round(cost.generate, 1)))
    static, null_all, null_none = (costs[name].table for name in FIGURE_7)
    record(series, (
        "PRNG rows (row_hash + seed_block)",
        round(static - costs["static"].generate, 1),
    ))
    # The wrapper costs something (its probability draw) ...
    assert static <= 1.05 * null_all and static <= 1.05 * null_none
    # ... the sub-generator under it nearly nothing: one call per block
    # (paper: 2x null(100%); here the two differ by a few ns either way,
    # so the paper's null(100%) <= null(0%) is not asserted).
    assert null_none <= 1.5 * null_all
    # The whole stack stays a small multiple of the base (paper: 4x).
    assert null_none <= 5 * static


def test_fig8_basic_generators(benchmark):
    series = "Figure 8 (basic generators): generator | ns/value, table | minus PRNG rows"
    costs = _measure(benchmark, FIGURE_8)
    for name, cost in costs.items():
        record(series, (name, round(cost.table, 1), round(cost.generate, 1)))
    typed = [costs[name].table for name in ("dictlist", "long", "double", "date")]
    string = costs["string"].table
    band = max(typed) / min(typed)
    record(series, (
        f"paper: all five in one 5x band — typed four span {band:.1f}x,",
        f"string is {string / max(typed):.0f}x the slowest of them:",
        "reproduced" if string <= 5 * min(typed) else "NOT reproduced for string",
    ))
    # Base time included, as in the paper's bars, the four typed classes
    # share the paper's band; String is the most expensive basic class.
    assert band <= 5
    assert string >= max(typed)


def test_fig9_formatting_dominates(benchmark):
    series = "Figure 9 (formatted values): generator | generate ns | format ns, cold | warm"
    costs = _measure(benchmark, FIGURE_9)
    for name, cost in costs.items():
        record(series, (
            name, round(cost.generate, 1), round(cost.format_cold, 1),
            round(cost.format, 1),
        ))
    date = costs["date (7 years)"]
    # Formatting dominates generation, even with every text already rendered ...
    for name in ("date (7 years)", "double (4 places)"):
        assert costs[name].format >= costs[name].generate
    # ... a Sequential of three values costs more than a formatted date,
    # and is in its class (paper: the same bar height; here within 5x) ...
    sequential = costs["sequential (2 double + long)"]
    formatted_date = date.generate + date.format_cold
    assert formatted_date <= sequential.generate + sequential.format <= 5 * formatted_date
    # ... and a repeated value is rendered once: the block that finds its
    # days in the writer's map formats cheaper than the one that fills it.
    assert date.format < date.format_cold
