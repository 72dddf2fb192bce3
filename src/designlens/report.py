"""Layered quality report: assembly plus text, JSON, and CSV writers.

The four layers mirror the design workflow: class design, relationships,
packaging, principles.  All output is canonical: fixed key order, name-sorted
subjects, rationals rendered with 4 fractional digits (half-even), UNDEFINED
as null / empty cell / "-".
"""

from __future__ import annotations

import io
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Iterable, NamedTuple, TextIO

from .metrics import Metrics, format_rational
from .model import CodeModel
from .principles import ADVISORY, VIOLATION, WARNING, Finding

LAYER_CLASS_DESIGN = "class design"
LAYER_RELATIONSHIPS = "relationships"
LAYER_PACKAGING = "packaging"
LAYER_PRINCIPLES = "principles"

CLASS_DESIGN_METRICS = ("wmc", "lcom")
RELATIONSHIP_METRICS = ("dit", "noc", "cbo")
PACKAGING_METRICS = ("ca", "ce", "instability", "abstractness", "distance")

FORMATS = ("text", "json", "csv")

_BOLD = "\x1b[1m"
_RESET = "\x1b[0m"
_SEVERITY_COLOR = {VIOLATION: "\x1b[31m", ADVISORY: "\x1b[33m", WARNING: "\x1b[35m"}


class Layer(NamedTuple):
    """A subject-by-metric table: `rows` are `(subject, values)` in subject-name order,
    one value per name in `columns` (None for UNDEFINED), aggregated per column.
    The principles layer has no columns or rows, only findings."""

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple[str, tuple[int | Fraction | None, ...]], ...]
    aggregates: dict[str, dict[str, int | Fraction]]
    findings: tuple[Finding, ...]


def build_report(model: CodeModel, metrics: Metrics,
                 findings: list[Finding]) -> tuple[Layer, ...]:
    """The report: its four layers, in order; every value and finding lands in exactly one."""
    per_class, per_package = metrics
    classes = [(str(name), per_class[name])
               for name in sorted(name for name, _ in model.iter_classes())]
    packages = [(name, per_package[name])
                for name in sorted(pkg.name for pkg in model.packages)]
    return (
        _layer(LAYER_CLASS_DESIGN, CLASS_DESIGN_METRICS, classes),
        _layer(LAYER_RELATIONSHIPS, RELATIONSHIP_METRICS, classes),
        _layer(LAYER_PACKAGING, PACKAGING_METRICS, packages),
        Layer(LAYER_PRINCIPLES, (), (), {}, tuple(findings)),
    )


def _layer(name: str, columns: tuple[str, ...], subjects: list[tuple[str, object]]) -> Layer:
    row = attrgetter(*columns)  # a tuple: every metric layer has two or more columns
    rows = tuple((subject, row(values)) for subject, values in subjects)
    aggregates: dict[str, dict[str, int | Fraction]] = {}
    for column, cells in zip(columns, zip(*(values for _, values in rows))):
        defined = [value for value in cells if value is not None]
        if defined:
            aggregates[column] = {
                "min": min(defined),
                "max": max(defined),
                "mean": Fraction(sum(defined), len(defined)),
            }
    return Layer(name, columns, rows, aggregates, ())


def render(report: tuple[Layer, ...], format: str, color: bool = False) -> str:
    """The report as one string: `write_report` into memory."""
    out = io.StringIO()
    write_report(report, format, out, color)
    return out.getvalue()


def write_report(report: tuple[Layer, ...], format: str, out: TextIO, color: bool = False) -> None:
    """Write a layered report to `out` as 'text', 'json', or 'csv', one metric row,
    aggregate block or finding per write; no string holds a whole layer."""
    if format not in _WRITERS:
        raise ValueError(f"unknown format {format!r}")
    _WRITERS[format](report, out, color)


# -- JSON ----------------------------------------------------------------------


def _write_json(layers: tuple[Layer, ...], out: TextIO, color: bool) -> None:
    out.write('{"layers":[')
    for index, layer in enumerate(layers):
        out.write(f'{"," if index else ""}{{"name":{_json(layer.name)},"metrics":[')
        names = [f'{_json(column)},"value":' for column in layer.columns]
        separator = ""
        for subject, values in layer.rows:
            head = f'{{"subject":{_json(subject)},"name":'
            out.write(separator + ",".join(
                f"{head}{name}{_json(value)}}}" for name, value in zip(names, values)))
            separator = "," if names else ""  # a row without columns writes nothing
        out.write('],"aggregates":{')
        for number, (metric, stats) in enumerate(layer.aggregates.items()):
            out.write(f'{"," if number else ""}{_json(metric)}:{{"min":{_json(stats["min"])},'
                      f'"max":{_json(stats["max"])},"mean":{_json(stats["mean"])}}}')
        out.write('},"findings":[')
        for number, finding in enumerate(layer.findings):
            out.write(("," if number else "") + _json_finding(finding))
        out.write("]}")
    out.write("]}\n")


def _json_finding(finding: Finding) -> str:
    evidence = ",".join(f"{_json(key)}:{_json(value)}" for key, value in finding.evidence.items())
    return (f'{{"rule":{_json(finding.rule)},"severity":{_json(finding.severity)},'
            f'"locus":{_json(finding.locus)},"evidence":{{{evidence}}}}}')


def _json(value: object) -> str:
    """A JSON value without whitespace, by its exact type: strings as `json.dumps` writes
    them, numbers and None as every format does."""
    kind = type(value)
    if kind is int:
        return str(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is list or kind is tuple:
        return f"[{','.join(map(_json, value))}]"
    return _format_value(value, "null")


# -- CSV -----------------------------------------------------------------------


def _write_csv(layers: tuple[Layer, ...], out: TextIO, color: bool) -> None:
    import csv  # only a CSV report loads it

    writer = csv.writer(out, lineterminator="\n")
    for index, layer in enumerate(layers):
        if index:
            out.write("\n")
        out.write(f"# layer: {layer.name}\n")
        if layer.name == LAYER_PRINCIPLES:
            writer.writerow(["rule", "severity", "locus", "evidence"])
            for finding in layer.findings:
                writer.writerow([finding.rule, finding.severity, finding.locus,
                                 _format_evidence(finding.evidence)])
        else:
            writer.writerow(["subject", "metric", "value"])
            for subject, values in layer.rows:
                writer.writerows([subject, column, _format_value(value, "")]
                                 for column, value in zip(layer.columns, values))


def _format_value(value: int | Fraction | None, undefined: str) -> str:
    """A number as every format writes it; `undefined` stands for None."""
    if value is None:
        return undefined
    if type(value) is int or not isinstance(value, Fraction):
        return str(value)
    return format_rational(value)


def _format_evidence(evidence: dict) -> str:
    return "; ".join(
        f"{key}=[{', '.join(map(str, value))}]" if isinstance(value, (list, tuple))
        else f"{key}={_format_value(value, '-')}"
        for key, value in evidence.items())


# -- text ------------------------------------------------------------------------


def _write_text(layers: tuple[Layer, ...], out: TextIO, color: bool) -> None:
    for index, layer in enumerate(layers, start=1):
        if index > 1:
            out.write("\n")
        heading = f"Layer {index}: {layer.name}"
        out.write(f"{_BOLD}{heading}{_RESET}\n" if color else f"{heading}\n")
        if layer.name == LAYER_PRINCIPLES:
            _text_findings(layer.findings, out, color)
        else:
            _text_metrics(layer, out)


def _text_metrics(layer: Layer, out: TextIO) -> None:
    """Two passes over the rows: one for the column widths, one to write each line."""
    if not layer.rows:
        out.write("  (no data)\n")
        return
    widths = [max(len("subject"), max(len(subject) for subject, _ in layer.rows))]
    widths += [max(len(column), max(len(_format_value(values[i], "-")) for _, values in layer.rows))
               for i, column in enumerate(layer.columns)]
    out.write(_text_row("subject", layer.columns, widths))
    for subject, values in layer.rows:
        out.write(_text_row(subject, [_format_value(value, "-") for value in values], widths))
    for metric, stats in layer.aggregates.items():
        out.write(f"  {metric}: min {_format_value(stats['min'], '-')}"
                  f"  max {_format_value(stats['max'], '-')}"
                  f"  mean {_format_value(stats['mean'], '-')}\n")


def _text_row(subject: str, cells: Iterable[str], widths: list[int]) -> str:
    padded = (cell.rjust(width) for cell, width in zip(cells, widths[1:]))
    return "  " + "  ".join([subject.ljust(widths[0]), *padded]).rstrip() + "\n"


def _text_findings(findings: tuple[Finding, ...], out: TextIO, color: bool) -> None:
    if not findings:
        out.write("  (no findings)\n")
        return
    rule_width = max(len(f.rule) for f in findings)
    severity_width = max(len(f.severity) for f in findings)
    locus_width = max(len(f.locus) for f in findings)
    for finding in findings:
        severity = finding.severity.ljust(severity_width)
        if color:
            severity = _SEVERITY_COLOR[finding.severity] + severity + _RESET
        out.write(f"  {finding.rule.ljust(rule_width)}  {severity}  "
                  f"{finding.locus.ljust(locus_width)}  {_format_evidence(finding.evidence)}"
                  .rstrip() + "\n")


_WRITERS = {"json": _write_json, "csv": _write_csv, "text": _write_text}
