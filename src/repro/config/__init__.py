"""XML configuration round-trip for schema models and output formats."""

from repro._lazy import lazy_names
from repro.config.overrides import apply_overrides, parse_override

__all__ = ["format_xml", "schema_xml", "apply_overrides", "parse_override"]

#: a run given ``-p`` overrides on a built-in suite parses no XML
__getattr__, __dir__ = lazy_names(__name__, {
    "format_xml": "repro.config.format_xml",
    "schema_xml": "repro.config.schema_xml",
})
