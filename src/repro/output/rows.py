"""Value formatting with lazy, cached conversion.

The paper's Figure 9 shows string formatting is the most expensive part
of value generation ("formatting a date value increases the generation
cost to 1200 ns") and that PDGF mitigates it with *lazy formatting*:
values are kept in computed form and converted to text once at output
time, with repeated values (dates, dictionary entries, decimals) hitting
a cache instead of being re-formatted.
"""

from __future__ import annotations

import datetime


class ValueFormatter:
    """Converts Python values to output text lazily with a memo cache.

    The cache is keyed by the raw value; only hashable, repeat-prone
    types (dates, timestamps, Decimals) are cached — caching every string
    would just duplicate the data. ``date_format`` follows
    ``strftime``; the default is ISO (use ``%m/%d/%Y`` for the paper's
    "11/30/2014" example).
    """

    def __init__(
        self,
        null_token: str = "",
        date_format: str = "%Y-%m-%d",
        timestamp_format: str = "%Y-%m-%d %H:%M:%S",
        float_places: int | None = None,
        cache_limit: int = 65536,
    ) -> None:
        self.null_token = null_token
        self.date_format = date_format
        self.timestamp_format = timestamp_format
        self.float_places = float_places
        self._cache: dict[object, str] = {}
        self._cache_limit = cache_limit
        #: cacheable-value lookups that hit / missed the memo cache
        #: (telemetry rolls these up per work package)
        self.cache_hits = 0
        self.cache_misses = 0

    def format(self, value: object) -> str:
        """Format one value to text."""
        if value is None:
            return self.null_token
        if isinstance(value, str):
            return value
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, int):
            return str(value)
        if isinstance(value, float):
            if self.float_places is not None:
                return f"{value:.{self.float_places}f}"
            return repr(value)
        return self._format_cached(value)

    def _format_cached(self, value: object) -> str:
        cached = self._cache.get(value)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        if isinstance(value, datetime.datetime):
            text = value.strftime(self.timestamp_format)
        elif isinstance(value, datetime.date):
            text = value.strftime(self.date_format)
        elif isinstance(value, bytes):
            text = value.hex()
        else:
            text = str(value)
        if len(self._cache) < self._cache_limit:
            self._cache[value] = text
        return text

    @property
    def cache_size(self) -> int:
        return len(self._cache)
