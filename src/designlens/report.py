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
    document = {"layers": [
        {"name": layer.name,
         "metrics": [{"subject": subject, "name": column, "value": value}
                     for subject, values in layer.rows
                     for column, value in zip(layer.columns, values)],
         "aggregates": {metric: {key: stats[key] for key in ("min", "max", "mean")}
                        for metric, stats in layer.aggregates.items()},
         "findings": [{"rule": f.rule, "severity": f.severity, "locus": f.locus,
                       "evidence": f.evidence}
                      for f in layer.findings]}
        for layer in report.layers]}
    return _dump_canonical(document) + "\n"


def _dump_canonical(value) -> str:
    """Canonical JSON: insertion-ordered keys, Fractions as 4-decimal numbers."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_dump_canonical(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_dump_canonical(v)}"
                              for k, v in value.items()) + "}"
    raise TypeError(f"cannot render {type(value).__name__} canonically")


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
    """A metric value as rendered in every format; `undefined` stands for None."""
    if value is None:
        return undefined
    if isinstance(value, Fraction):
        return format_rational(value)
    return str(value)


def _format_evidence(evidence: dict) -> str:
    parts = []
    for key, value in evidence.items():
        if isinstance(value, (list, tuple)):
            rendered = "[" + ", ".join(str(v) for v in value) + "]"
        elif isinstance(value, Fraction):
            rendered = format_rational(value)
        else:
            rendered = str(value)
        parts.append(f"{key}={rendered}")
    return "; ".join(parts)


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
                     f"  mean {format_rational(stats['mean'])}")
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

