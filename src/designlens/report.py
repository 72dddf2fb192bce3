"""Layered quality report: assembly plus text, JSON, and CSV renderers.

The four layers mirror the design workflow: class design, relationships,
packaging, principles.  All output is canonical: fixed key order, name-sorted
subjects, rationals rendered with 4 fractional digits (half-even), UNDEFINED
as null / empty cell / "-".
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction

from .metrics import MetricsReport, format_rational
from .model import CodeModel
from .principles import Finding

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
_SEVERITY_COLOR = {"violation": "\x1b[31m", "advisory": "\x1b[33m", "warning": "\x1b[35m"}
_JSON_ENCODER = json.JSONEncoder(separators=(",", ":"))


@dataclass(frozen=True)
class Layer:
    """A subject-by-metric table: `rows` are `(subject, values)` in subject-name order,
    one value per name in `columns` (None for UNDEFINED), aggregated per column.
    The principles layer has no columns or rows, only findings."""

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple[str, tuple[int | Fraction | None, ...]], ...]
    aggregates: dict[str, dict[str, int | Fraction]]
    findings: tuple[Finding, ...]


@dataclass(frozen=True)
class LayeredReport:
    layers: tuple[Layer, ...]


def build_report(model: CodeModel, metrics: MetricsReport,
                 findings: list[Finding]) -> LayeredReport:
    """Assemble the four-layer report; every value and finding lands in exactly one layer."""
    classes = [(str(name), metrics.per_class[name])
               for name in sorted(name for name, _ in model.iter_classes())]
    packages = [(name, metrics.per_package[name])
                for name in sorted(pkg.name for pkg in model.packages)]
    return LayeredReport((
        _layer(LAYER_CLASS_DESIGN, CLASS_DESIGN_METRICS, classes),
        _layer(LAYER_RELATIONSHIPS, RELATIONSHIP_METRICS, classes),
        _layer(LAYER_PACKAGING, PACKAGING_METRICS, packages),
        Layer(LAYER_PRINCIPLES, (), (), {}, tuple(findings)),
    ))


def _layer(name: str, columns: tuple[str, ...], subjects: list[tuple[str, object]]) -> Layer:
    rows = tuple((subject, tuple(getattr(values, column) for column in columns))
                 for subject, values in subjects)
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


def render(report: LayeredReport, format: str, color: bool = False) -> str:
    """Render a layered report as 'text', 'json', or 'csv'."""
    if format == "json":
        return _render_json(report)
    if format == "csv":
        return _render_csv(report)
    if format == "text":
        return _render_text(report, color)
    raise ValueError(f"unknown format {format!r}")


# -- JSON ----------------------------------------------------------------------


def _render_json(report: LayeredReport) -> str:
    return '{"layers":[' + ",".join(map(_json_layer, report.layers)) + "]}\n"


def _json_layer(layer: Layer) -> str:
    cells = ",".join(
        f'{{"subject":{_json(subject)},"name":{_json(column)},"value":{_json(value)}}}'
        for subject, values in layer.rows for column, value in zip(layer.columns, values))
    aggregates = ",".join(
        f'{_json(metric)}:{{"min":{_json(stats["min"])},"max":{_json(stats["max"])},'
        f'"mean":{_json(stats["mean"])}}}'
        for metric, stats in layer.aggregates.items())
    findings = ",".join(map(_json_finding, layer.findings))
    return (f'{{"name":{_json(layer.name)},"metrics":[{cells}],'
            f'"aggregates":{{{aggregates}}},"findings":[{findings}]}}')


def _json_finding(finding: Finding) -> str:
    evidence = ",".join(f"{_json(key)}:{_json(value)}" for key, value in finding.evidence.items())
    return (f'{{"rule":{_json(finding.rule)},"severity":{_json(finding.severity)},'
            f'"locus":{_json(finding.locus)},"evidence":{{{evidence}}}}}')


def _json(value: object) -> str:
    """A JSON value without whitespace: numbers and None as every format writes them."""
    if isinstance(value, (str, bool, list, tuple)):
        return _JSON_ENCODER.encode(value)
    return _format_value(value, "null")


# -- CSV -----------------------------------------------------------------------


def _render_csv(report: LayeredReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for index, layer in enumerate(report.layers):
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
                for column, value in zip(layer.columns, values):
                    writer.writerow([subject, column, _format_value(value, "")])
    return out.getvalue()


def _format_value(value: int | Fraction | None, undefined: str) -> str:
    """A number as every format writes it; `undefined` stands for None."""
    if value is None:
        return undefined
    if isinstance(value, Fraction):
        return format_rational(value)
    return str(value)


def _format_evidence(evidence: dict) -> str:
    return "; ".join(
        f"{key}=[{', '.join(map(str, value))}]" if isinstance(value, (list, tuple))
        else f"{key}={_format_value(value, '-')}"
        for key, value in evidence.items())


# -- text ------------------------------------------------------------------------


def _render_text(report: LayeredReport, color: bool) -> str:
    lines: list[str] = []
    for index, layer in enumerate(report.layers, start=1):
        if index > 1:
            lines.append("")
        heading = f"Layer {index}: {layer.name}"
        lines.append(f"{_BOLD}{heading}{_RESET}" if color else heading)
        if layer.name == LAYER_PRINCIPLES:
            lines.extend(_text_findings(layer.findings, color))
        else:
            lines.extend(_text_metrics(layer))
    return "\n".join(lines) + "\n"


def _text_metrics(layer: Layer) -> list[str]:
    if not layer.rows:
        return ["  (no data)"]
    table = [["subject", *layer.columns]]
    table += [[subject, *(_format_value(value, "-") for value in values)]
              for subject, values in layer.rows]
    widths = [max(len(cell) for cell in column) for column in zip(*table)]
    lines = ["  " + "  ".join(
        cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
        for i, cell in enumerate(row)).rstrip()
        for row in table]
    for metric, stats in layer.aggregates.items():
        lines.append(f"  {metric}: min {_format_value(stats['min'], '-')}"
                     f"  max {_format_value(stats['max'], '-')}"
                     f"  mean {_format_value(stats['mean'], '-')}")
    return lines


def _text_findings(findings: tuple[Finding, ...], color: bool) -> list[str]:
    if not findings:
        return ["  (no findings)"]
    rows = [[f.rule, f.severity, f.locus, _format_evidence(f.evidence)] for f in findings]
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    lines = []
    for row, finding in zip(rows, findings):
        severity = row[1].ljust(widths[1])
        if color:
            severity = _SEVERITY_COLOR[finding.severity] + severity + _RESET
        lines.append(f"  {row[0].ljust(widths[0])}  {severity}  {row[2].ljust(widths[2])}"
                     f"  {row[3]}".rstrip())
    return lines

