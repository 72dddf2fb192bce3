import csv
import io
import itertools
import json
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designlens.minioo import parse_minioo
from designlens.metrics import compute_all, format_rational
from designlens.model import ClassDef, CodeModel, PackageDef
from designlens.principles import SEVERITY_BY_RULE, Finding, run_all
from designlens.report import (
    CLASS_DESIGN_METRICS,
    FORMATS,
    LAYER_CLASS_DESIGN,
    LAYER_PACKAGING,
    LAYER_PRINCIPLES,
    LAYER_RELATIONSHIPS,
    PACKAGING_METRICS,
    RELATIONSHIP_METRICS,
    Layer,
    build_report,
    render,
    write_report,
)
from conftest import FIXTURES, GOLDEN
from modelgen import random_model


def full_report(model):
    metrics = compute_all(model)
    return build_report(model, metrics, run_all(model, metrics))


# -- assembly -----------------------------------------------------------------


def test_empty_model_produces_four_layers_with_absent_aggregates():
    report = full_report(CodeModel(()))
    assert [layer.name for layer in report] == [
        LAYER_CLASS_DESIGN, LAYER_RELATIONSHIPS, LAYER_PACKAGING, LAYER_PRINCIPLES]
    assert [layer.columns for layer in report] == [
        CLASS_DESIGN_METRICS, RELATIONSHIP_METRICS, PACKAGING_METRICS, ()]
    for layer in report:
        assert layer.rows == ()
        assert layer.aggregates == {}
        assert len(layer.findings) == 0


def test_reference_fixture_packaging_layer_values(reference_source):
    report = full_report(parse_minioo(reference_source))
    packaging = report[2]
    values = {(subject, column): value for subject, row in packaging.rows
              for column, value in zip(packaging.columns, row)}
    assert values[("core", "instability")] == 0
    assert values[("core", "abstractness")] == Fraction(1, 2)
    assert values[("core", "distance")] == Fraction(1, 2)


def test_finding_count_is_conserved(cyclic_source):
    model = parse_minioo(cyclic_source)
    metrics = compute_all(model)
    findings = run_all(model, metrics)
    report = build_report(model, metrics, findings)
    assert sum(len(layer.findings) for layer in report) == len(findings)
    assert report[3].findings == tuple(findings)


def test_every_subject_appears_exactly_once_per_layer():
    rng = random.Random(83)
    for _ in range(40):
        model = random_model(rng)
        report = full_report(model)
        class_names = sorted(str(name) for name, _ in model.iter_classes())
        for layer, per_subject in ((report[0], 2), (report[1], 3)):
            assert [subject for subject, _ in layer.rows] == class_names
            assert len(layer.columns) == per_subject
            for _, values in layer.rows:
                assert len(values) == per_subject
        packaging = report[2]
        assert [subject for subject, _ in packaging.rows] == sorted(p.name for p in model.packages)
        for _, values in packaging.rows:
            assert len(values) == len(packaging.columns) == 5


def test_aggregates_over_empty_value_sets_are_absent():
    report = full_report(CodeModel([PackageDef("solo", (ClassDef("A"),))]))
    packaging = report[2]
    # instability/distance undefined for the single isolated package
    assert "instability" not in packaging.aggregates
    assert "distance" not in packaging.aggregates
    assert packaging.aggregates["ca"] == {"min": 0, "max": 0, "mean": Fraction(0)}


def test_mean_aggregates_match_average_of_rendered_values():
    rng = random.Random(89)
    for _ in range(40):
        report = full_report(random_model(rng))
        for layer in report[:3]:
            for metric, stats in layer.aggregates.items():
                column = layer.columns.index(metric)
                rendered = [float(format_rational(Fraction(values[column])))
                            for _, values in layer.rows if values[column] is not None]
                assert rendered, metric
                assert abs(float(format_rational(stats["mean"])) -
                           sum(rendered) / len(rendered)) <= 5e-5 + 1e-12


# -- JSON ---------------------------------------------------------------------


def test_json_for_empty_report_is_stable(reference_source):
    empty = full_report(CodeModel(()))
    first = render(empty, "json")
    second = render(empty, "json")
    assert first == second
    document = json.loads(first)
    assert [layer["name"] for layer in document["layers"]] == [
        "class design", "relationships", "packaging", "principles"]
    for layer in document["layers"]:
        assert layer["metrics"] == [] and layer["aggregates"] == {} and layer["findings"] == []


def test_one_third_renders_as_four_decimals():
    # one abstract class out of three: abstractness 1/3 -> 0.3333 in JSON
    model = CodeModel([PackageDef("p", (
        ClassDef("A", is_abstract=True), ClassDef("B"), ClassDef("C")))])
    output = render(full_report(model), "json")
    assert '"name":"abstractness","value":0.3333' in output


def test_json_is_injective_on_distinct_reports():
    model_a = CodeModel([PackageDef("p", (ClassDef("A"),))])
    model_b = CodeModel([PackageDef("p", (ClassDef("A", is_abstract=True),))])
    assert render(full_report(model_a), "json") != render(full_report(model_b), "json")


def test_json_renders_undefined_as_null():
    output = render(full_report(CodeModel([PackageDef("solo", (ClassDef("A"),))])), "json")
    assert '"name":"instability","value":null' in output


# -- CSV ----------------------------------------------------------------------


def test_csv_sections_and_quoting(cyclic_source):
    output = render(full_report(parse_minioo(cyclic_source)), "csv")
    sections = output.split("\n\n")
    assert len(sections) == 4
    assert [s.splitlines()[0] for s in sections] == [
        "# layer: class design", "# layer: relationships",
        "# layer: packaging", "# layer: principles"]
    principle_rows = list(csv.reader(io.StringIO(sections[3])))
    # comment row, header row, then the single ADP finding with a quoted locus
    assert principle_rows[1] == ["rule", "severity", "locus", "evidence"]
    assert principle_rows[2] == ["ADP", "violation", "app, core", "members=[app, core]"]
    assert '"app, core"' in sections[3]


def test_csv_renders_undefined_as_empty_cell():
    output = render(full_report(CodeModel([PackageDef("solo", (ClassDef("A"),))])), "csv")
    assert "solo,instability,\n" in output


# -- text ---------------------------------------------------------------------


def test_text_renders_undefined_as_dash():
    output = render(full_report(CodeModel([PackageDef("solo", (ClassDef("A"),))])), "text")
    row = next(line for line in output.splitlines() if line.split()[:1] == ["solo"])
    # ca=0, ce=0, instability undefined, abstractness 0, distance undefined
    assert row.split() == ["solo", "0", "0", "-", "0.0000", "-"]


def test_text_color_styling_is_opt_in(cyclic_source):
    report = full_report(parse_minioo(cyclic_source))
    plain = render(report, "text")
    colored = render(report, "text", color=True)
    assert "\x1b[" not in plain
    assert "\x1b[31m" in colored  # violation severity
    assert "\x1b[1m" in colored   # layer heading


def test_unknown_format_is_rejected(reference_source):
    out = io.StringIO()
    with pytest.raises(ValueError):
        write_report(full_report(parse_minioo(reference_source)), "xml", out)
    assert out.getvalue() == ""
    with pytest.raises(ValueError):
        render(full_report(parse_minioo(reference_source)), "xml")


# -- the three renderings agree -------------------------------------------------------

_AGGREGATE_LINE = re.compile(r"  (\w+): min (\S+)  max (\S+)  mean (\S+)")


def _json_view(output):
    """(cells per metric layer, aggregates per metric layer, findings) read from JSON."""
    layers = json.loads(output, parse_float=str, parse_int=str)["layers"]
    cells = [[(item["subject"], item["name"], item["value"]) for item in layer["metrics"]]
             for layer in layers[:3]]
    aggregates = [[(metric, stats["min"], stats["max"], stats["mean"])
                   for metric, stats in layer["aggregates"].items()] for layer in layers[:3]]
    findings = [(f["rule"], f["severity"], f["locus"]) for f in layers[3]["findings"]]
    return cells, aggregates, findings


def _csv_view(output):
    sections = []
    for row in csv.reader(io.StringIO(output)):
        if row and row[0].startswith("# layer: "):
            sections.append([])
            header = True
        elif row and header:
            header = False
        elif row:
            sections[-1].append(row)
    cells = [[(subject, metric, value or None) for subject, metric, value in section]
             for section in sections[:3]]
    return cells, [(rule, severity, locus) for rule, severity, locus, _ in sections[3]]


def _text_view(output):
    cells, aggregates = [], []
    sections = output.split("\n\n")
    for section in sections[:3]:
        layer_cells, layer_aggregates = [], []
        header, *lines = section.splitlines()[1:]
        columns = header.split()[1:]
        for line in lines:
            aggregate = _AGGREGATE_LINE.fullmatch(line)
            if aggregate:
                layer_aggregates.append(aggregate.groups())
            else:
                subject, *values = line.split()
                layer_cells += [(subject, column, None if value == "-" else value)
                                for column, value in zip(columns, values, strict=True)]
        cells.append(layer_cells)
        aggregates.append(layer_aggregates)
    findings = [tuple(re.split(r"\s{2,}", line.strip())[:3])
                for line in sections[3].splitlines()[1:] if line != "  (no findings)"]
    return cells, aggregates, findings


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_json_csv_and_text_render_the_same_cells_aggregates_and_findings(seed):
    report = full_report(random_model(random.Random(seed), max_packages=5, max_classes=5))
    cells, aggregates, findings = _json_view(render(report, "json"))
    assert [len(layer_cells) for layer_cells in cells] == [
        len(layer.rows) * len(layer.columns) for layer in report[:3]]
    assert len(findings) == len(report[3].findings)
    assert _csv_view(render(report, "csv")) == (cells, findings)
    assert _text_view(render(report, "text")) == (cells, aggregates, findings)


# -- golden files ----------------------------------------------------------------


@pytest.mark.parametrize("fixture,fmt,ext", [
    pytest.param(fixture, fmt, ext, id=f"{fmt}-{ext}" if fixture == "reference" else
                 f"{fixture}-{fmt}-{ext}")
    for fixture in ("reference", "findings")
    for fmt, ext in (("text", "txt"), ("json", "json"), ("csv", "csv"))])
def test_reference_fixture_matches_golden_rendering(fixture, fmt, ext):
    # findings.minioo fires every rule and leaves UNDEFINED cells, pinning evidence bytes
    report = full_report(parse_minioo((FIXTURES / f"{fixture}.minioo").read_text(encoding="utf-8")))
    golden = (GOLDEN / f"{fixture}.{ext}").read_text(encoding="utf-8")
    assert render(report, fmt) == golden


# -- memory ----------------------------------------------------------------------


class _CountingSink(io.TextIOBase):
    """A destination that keeps only the number of characters written to it."""

    def __init__(self):
        self.length = 0

    def write(self, text):
        self.length += len(text)
        return len(text)


def test_writing_a_report_holds_no_whole_report_string():
    # Long class names give a large report from a cheap model. csv.writer allocates a
    # fixed 128 KB record buffer on its first row, so the CSV report is kept above 1.3 MB.
    stem = "C" + "x" * 150
    report = full_report(CodeModel(tuple(
        PackageDef(f"p{p}", tuple(ClassDef(f"{stem}{c}") for c in range(500))) for p in range(5))))
    for fmt in FORMATS:
        sink = _CountingSink()
        tracemalloc.start()
        try:
            write_report(report, fmt, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.length == len(render(report, fmt)), fmt
        assert peak <= sink.length / 10, (fmt, peak, sink.length)
    assert len(render(report, "json")) >= 500_000


def reference_render_json(report):
    """The JSON renderer as it was before it wrote each layer straight from its table:
    build the whole document as dicts, then walk it with a generic serializer."""
    def dump_canonical(value):
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
            return "[" + ",".join(dump_canonical(v) for v in value) + "]"
        if isinstance(value, dict):
            return "{" + ",".join(f"{json.dumps(str(k))}:{dump_canonical(v)}"
                                  for k, v in value.items()) + "}"
        raise TypeError(f"cannot render {type(value).__name__} canonically")

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
        for layer in report]}
    return dump_canonical(document) + "\n"


def test_json_matches_the_reference_renderer_on_random_models():
    # every rule has fired by seed 99
    rules, evidence_types = set(), set()
    for seed in range(500):
        report = full_report(random_model(random.Random(seed), max_packages=6, max_classes=6))
        assert render(report, "json") == reference_render_json(report), seed
        for finding in report[3].findings:
            rules.add(finding.rule)
            evidence_types.update(type(value) for value in finding.evidence.values())
    assert rules == set(SEVERITY_BY_RULE)
    assert evidence_types == {str, int, Fraction, list}


# Characters a JSON string must escape or may only carry escaped in ASCII output:
# quotes, backslashes, controls, non-ASCII, astral characters and lone surrogates.
_AWKWARD = st.sampled_from('"\\/\x00\b\t\n\x1f\x7f\x80\xe9\u2028\ufeff\U0001f600\ud800\udfff')
_TEXT = st.text(_AWKWARD | st.characters(blacklist_categories=()), max_size=6)
_CELL = st.none() | st.integers() | st.fractions()


@st.composite
def _hand_built_reports(draw):
    """A report cut from flat pools of texts and values, shaped by six small integers.
    The draws, not the rendering, are this property's cost, so they are kept few."""
    texts = draw(st.lists(_TEXT, min_size=1, max_size=8))
    values = draw(st.lists(_CELL | _TEXT, min_size=1, max_size=8))
    layer_count, column_count, row_count, aggregate_count, finding_count, evidence_size = draw(
        st.tuples(*[st.integers(0, 3)] * 6))
    text = itertools.cycle(texts).__next__
    cell = itertools.cycle([v for v in values if type(v) is not str] or [None]).__next__
    value = itertools.cycle([*values, texts]).__next__  # the texts are also a list value
    layers = []
    for _ in range(layer_count):
        columns = tuple(text() for _ in range(column_count))
        rows = tuple((text(), tuple(cell() for _ in columns)) for _ in range(row_count))
        aggregates = {text(): {"min": cell(), "max": cell(), "mean": cell()}
                      for _ in range(aggregate_count)}
        layers.append(Layer(text(), columns, rows, aggregates, ()))
    findings = tuple(Finding(text(), text(), text(), {text(): value() for _ in range(evidence_size)})
                     for _ in range(finding_count))
    layers.append(Layer(text(), (), (), {}, findings))
    return tuple(layers)


@settings(max_examples=200, deadline=None)
@given(report=_hand_built_reports())
def test_json_escapes_any_text_as_the_reference_renderer_does(report):
    assert render(report, "json") == reference_render_json(report)


def test_render_build_pipeline_is_deterministic_end_to_end(reference_source):
    first = render(full_report(parse_minioo(reference_source)), "json")
    second = render(full_report(parse_minioo(reference_source)), "json")
    assert first == second
