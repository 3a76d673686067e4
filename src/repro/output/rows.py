"""Value formatting: one value to its output text.

The paper's Figure 9 shows string formatting is the most expensive part
of value generation ("formatting a date value increases the generation
cost to 1200 ns") and that PDGF mitigates it with *lazy formatting*:
values are kept in computed form and converted to text once at output
time. :class:`ValueFormatter` is the conversion, a pure function of the
value and the output options; rendering a repeated value once is the
writer's job — its render tables in :mod:`repro.output.columnar` (the
day map, the dictionary entry texts) call this formatter once per
distinct value and keep the text (the default ISO date renders through
numpy without it). ``OutputConfig`` refuses a ``date_format`` or
``timestamp_format`` holding a NUL: ``strftime`` stops at one.
"""

from __future__ import annotations

import datetime


class ValueFormatter:
    """Converts Python values to output text.

    ``date_format`` follows ``strftime``; the default is ISO (use
    ``%m/%d/%Y`` for the paper's "11/30/2014" example).
    """

    def __init__(
        self,
        null_token: str = "",
        date_format: str = "%Y-%m-%d",
        timestamp_format: str = "%Y-%m-%d %H:%M:%S",
        float_places: int | None = None,
    ) -> None:
        self.null_token = null_token
        self.date_format = date_format
        self.timestamp_format = timestamp_format
        self.float_places = float_places

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
        if isinstance(value, datetime.datetime):
            return value.strftime(self.timestamp_format)
        if isinstance(value, datetime.date):
            if self.date_format == "%Y-%m-%d" and value.year >= 1000:
                return value.isoformat()  # strftime's text at a tenth of its cost
            return value.strftime(self.date_format)
        if isinstance(value, bytes):
            return value.hex()
        return str(value)
