"""Format/output configuration XML.

PDGF's second configuration file describes formatting and routing
(paper §2: "one for the data model and one for the formatting
instructions"). The document maps directly onto
:class:`~repro.output.config.OutputConfig`::

    <output kind="file" format="csv">
      <directory>out/tpch</directory>
      <delimiter>|</delimiter>
      <nullToken>NULL</nullToken>
      <dateFormat>%Y-%m-%d</dateFormat>
      <includeHeader>false</includeHeader>
    </output>
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.exceptions import ConfigError, OutputError
from repro.output.config import OutputConfig

_TEXT_OPTIONS = {
    "directory": "directory",
    "database": "database",
    "delimiter": "delimiter",
    "nullToken": "null_token",
    "dateFormat": "date_format",
    "timestampFormat": "timestamp_format",
}


def loads(text: str) -> OutputConfig:
    """Parse a format configuration document."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ConfigError(f"malformed format XML: {exc}") from exc
    if root.tag != "output":
        raise ConfigError(f"expected <output> root, found <{root.tag}>")

    kwargs: dict[str, object] = {
        "kind": root.get("kind", "file"),
        "format": root.get("format"),
    }
    for element in root:
        if element.tag in _TEXT_OPTIONS:
            kwargs[_TEXT_OPTIONS[element.tag]] = element.text or ""
        elif element.tag == "includeHeader":
            kwargs["include_header"] = (element.text or "").strip().lower() == "true"
        elif element.tag == "floatPlaces":
            try:
                kwargs["float_places"] = int((element.text or "").strip())
            except ValueError as exc:
                raise ConfigError(f"bad <floatPlaces>: {element.text!r}") from exc
        else:
            raise ConfigError(f"unknown format option <{element.tag}>")
    try:
        return OutputConfig(**kwargs)  # type: ignore[arg-type]
    except OutputError as exc:
        raise ConfigError(str(exc)) from exc


def load(path: str) -> OutputConfig:
    with open(path, encoding="utf-8") as handle:
        return loads(handle.read())


def dumps(config: OutputConfig) -> str:
    """Serialize an output configuration (round-trip safe)."""
    root = ET.Element("output", {"kind": config.kind, "format": config.format})
    for tag, attr in _TEXT_OPTIONS.items():
        value = getattr(config, attr)
        if value:
            ET.SubElement(root, tag).text = str(value)
    ET.SubElement(root, "includeHeader").text = (
        "true" if config.include_header else "false"
    )
    if config.float_places is not None:
        ET.SubElement(root, "floatPlaces").text = str(config.float_places)
    ET.indent(root)
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + ET.tostring(
        root, encoding="unicode"
    )


def dump(config: OutputConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(config))
