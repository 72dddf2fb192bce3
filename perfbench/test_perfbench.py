"""Fast checks of the benchmark's generator, oracle and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import designlens
from designlens import cli

import modelgen
import oracle
import run

SMALL = (
    modelgen.Shape(packages=4, classes=40, methods=4, fields=3, edges=2, locality=0.7,
                   back_share=0.3, empty_packages=1),
    modelgen.Shape(packages=6, classes=60, methods=2, fields=1, edges=8, locality=0.4,
                   back_share=0.1, abstract_share=0.4, parent_share=0.5),
)


@pytest.mark.parametrize("shape", SMALL)
@pytest.mark.parametrize("seed", range(4))
def test_generated_model_round_trips(shape, seed):
    data = modelgen.generate(shape, seed)
    document = modelgen.to_interchange(data)
    model = designlens.read_interchange(document)
    assert designlens.parse_minioo(modelgen.to_minioo(data)) == model
    assert designlens.write_interchange(model) == document
    assert oracle.read_minioo(modelgen.to_minioo(data)) == data
    assert modelgen.to_interchange(modelgen.generate(shape, seed)) == document


@pytest.mark.parametrize("shape", SMALL)
@pytest.mark.parametrize("seed", range(4))
def test_oracle_agrees_with_designlens(shape, seed):
    data = modelgen.generate(shape, seed)
    model = designlens.read_interchange(modelgen.to_interchange(data))
    thresholds = designlens.Thresholds(srp_lcom_min=2)
    metrics = designlens.compute_all(model)
    report = designlens.build_report(model, metrics, designlens.run_all(model, metrics, thresholds))
    analysis = oracle.Analysis(data, {"srp_lcom_min": 2})
    expected = analysis.report()
    assert oracle.diff(expected, oracle.read_json_report(designlens.render(report, "json"))) == []
    assert oracle.diff(expected, oracle.read_text_report(designlens.render(report, "text"))) == []
    for qn in analysis.classes:
        name = designlens.QualifiedName(*qn.split("."))
        assert analysis.query(qn) == [
            designlens.metrics.dit(model, name), designlens.metrics.noc(model, name),
            designlens.metrics.cbo(model, name), designlens.metrics.afferent(model, name.package),
            designlens.metrics.efferent(model, name.package)]


@pytest.mark.parametrize("seed", range(3))
def test_oracle_predicts_cli_exit_code_and_stderr(tmp_path, seed):
    workload = run.WORKLOADS["cli-interchange"]
    data = modelgen.generate(SMALL[0], seed)
    (tmp_path / "m.json").write_text(modelgen.to_interchange(data), encoding="utf-8")
    (tmp_path / "gates.json").write_text(json.dumps(
        {"thresholds": workload.thresholds, "gates": [list(g) for g in workload.gates],
         "fail_on": list(workload.fail_on)}), encoding="utf-8")
    stderr = io.StringIO()
    code = cli.run(["analyze", str(tmp_path / "m.json"), "--config", str(tmp_path / "gates.json"),
                    "--out", str(tmp_path / "r.txt")], stdout=io.StringIO(), stderr=stderr)
    analysis = oracle.Analysis(data, workload.thresholds)
    assert (code, stderr.getvalue()) == analysis.cli_stderr(list(workload.gates),
                                                            list(workload.fail_on))


def test_oracle_rejects_a_changed_value():
    data = modelgen.generate(SMALL[1], 0)
    model = designlens.read_interchange(modelgen.to_interchange(data))
    metrics = designlens.compute_all(model)
    rendered = designlens.render(
        designlens.build_report(model, metrics, designlens.run_all(model, metrics)), "json")
    document = json.loads(rendered)
    document["layers"][1]["metrics"][2]["value"] += 1
    changed = json.dumps(document)
    assert oracle.diff(oracle.Analysis(data).report(), oracle.read_json_report(changed)) != []


def test_half_even_formatter():
    from fractions import Fraction

    assert oracle.fmt(Fraction(1, 20000), True) == "0.0000"
    assert oracle.fmt(Fraction(3, 20000), True) == "0.0002"
    assert oracle.fmt(Fraction(2, 3), True) == "0.6667"
    assert oracle.fmt(1, True) == "1.0000"
    assert oracle.fmt(7, False) == "7"


def test_oracle_reproduces_the_committed_golden_reports():
    run.check_oracle_on_reference()


def test_traced_analysis_counts_class_graph_calls(tmp_path):
    data = modelgen.generate(SMALL[0], 1)
    (tmp_path / "m.minioo").write_text(modelgen.to_minioo(data), encoding="utf-8")
    spans = tmp_path / "spans.json"
    here = Path(__file__).parent
    env = dict(os.environ, PYTHONPATH=str(here.parent / "src"))
    done = subprocess.run(
        [sys.executable, str(here / "child.py"), "--spans", str(spans), "--op", "0", "cli",
         "analyze", "m.minioo", "--format", "json", "--out", "r.json"],
        cwd=tmp_path, env=env, capture_output=True, timeout=60, check=False)
    assert done.returncode == 0, done.stderr
    recorded = json.loads(spans.read_text(encoding="utf-8"))
    assert recorded["absent"] == []
    assert recorded["counts"]["model.class_graph.calls"] == 4
    assert recorded["counts"]["frontends.tokenize.calls"] == 1
    self_times = run.tracer.self_times(recorded["spans"])
    assert all(value >= -1e-6 for value in self_times.values())


def test_counter_that_no_longer_fits_is_reported_not_raised():
    recorder = run.tracer.Tracer()
    wrapped = recorder._wrap(lambda source: ["token"], "frontends.tokenize",
                             run.tracer._COUNTERS["tokens"], "designlens.frontends.tokenize")
    assert wrapped(12) == ["token"]
    assert recorder.uncounted == {"designlens.frontends.tokenize"}
    assert recorder.counts["frontends.tokenize.calls"] == 1
