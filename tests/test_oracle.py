"""Reports against the benchmark's independent oracle, on drawn model shapes.

`perfbench/oracle.py` recomputes every metric, aggregate and finding from the
plain data `perfbench/modelgen.py` generates, without importing designlens.
Both are loaded from their files under private module names, so they do not
shadow `tests/modelgen.py`.
"""

import importlib.util
import io
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import designlens
from designlens import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


modelgen = _load("modelgen")
oracle = _load("oracle")

_SHARE = st.floats(0, 1)


@st.composite
def shapes(draw):
    packages, classes = draw(st.integers(1, 6)), draw(st.integers(0, 60))
    # every package holds a class, or none does: an edge may point into any package
    return modelgen.Shape(
        packages=packages, classes=classes if classes >= packages else 0,
        methods=draw(st.integers(0, 4)), fields=draw(st.integers(0, 3)),
        edges=draw(st.floats(0, 8)), locality=draw(_SHARE), back_share=draw(_SHARE),
        abstract_share=draw(_SHARE), parent_share=draw(_SHARE),
        empty_packages=draw(st.integers(0, 2)))


@settings(max_examples=50, deadline=None)
@given(shapes(), st.integers(0, 2**32 - 1))
def test_report_matches_the_independent_oracle(shape, seed):
    data = modelgen.generate(shape, seed)
    model = designlens.read_interchange(modelgen.to_interchange(data))
    metrics = designlens.compute_all(model)
    report = designlens.build_report(model, metrics, designlens.run_all(model, metrics))
    expected = oracle.Analysis(data).report()
    assert oracle.diff(expected, oracle.read_json_report(designlens.render(report, "json"))) == []
    assert oracle.diff(expected, oracle.read_text_report(designlens.render(report, "text"))) == []


# Each number of a config is drawn with the text that states it.
def _integers(top):
    return st.integers(0, top).map(lambda n: (n, str(n)))


def _hundredths(top):
    """`top` hundredths at most: an integer, or a decimal with two places."""
    return st.integers(0, top).map(lambda n: (Fraction(n, 100), f"{n // 100}.{n % 100:02d}")
                                   if n % 100 else (n // 100, str(n // 100)))


_THRESHOLDS = {"srp_lcom_min": _integers(5), "srp_method_min": _integers(5),
               "sap_distance_min": _hundredths(100), "sap_extreme": _hundredths(49)}
# a limit of 0 or 1 is often a gate's value exactly
_LIMITS = _integers(1) | _hundredths(1200)
_FAIL_ON = sorted(oracle.SEVERITY) + sorted(set(oracle.SEVERITY.values()))


@st.composite
def configs(draw):
    """Thresholds, gates and fail-on tokens, and the `--config` text stating them."""
    thresholds = {key: draw(_THRESHOLDS[key])
                  for key in draw(st.lists(st.sampled_from(sorted(_THRESHOLDS)), unique=True))}
    gates = draw(st.lists(st.tuples(st.sampled_from(cli.GATE_NAMES),
                                    st.sampled_from(cli.COMPARATORS), _LIMITS),
                          max_size=5))
    fail_on = draw(st.lists(st.sampled_from(_FAIL_ON), unique=True, max_size=3))
    text = ('{"thresholds":{%s},"gates":[%s],"fail_on":[%s]}' % (
        ",".join(f'"{key}":{value[1]}' for key, value in thresholds.items()),
        ",".join(f'["{name}","{comparator}",{limit[1]}]' for name, comparator, limit in gates),
        ",".join(f'"{token.upper() if draw(st.booleans()) else token.lower()}"'
                 for token in fail_on)))
    return ({key: value[0] for key, value in thresholds.items()},
            [(name, comparator, limit[0]) for name, comparator, limit in gates],
            [token.lower() for token in fail_on], text)


_READERS = {"json": oracle.read_json_report, "text": oracle.read_text_report}


@settings(max_examples=25, deadline=None)
@given(shapes(), st.integers(0, 2**32 - 1), configs(), st.sampled_from(["json", "minioo"]))
def test_cli_exit_code_stderr_and_reports_match_the_oracle(shape, seed, config, form):
    thresholds, gates, fail_on, text = config
    data = modelgen.generate(shape, seed)
    analysis = oracle.Analysis(data, thresholds)
    expected, outcome = analysis.report(), (*analysis.cli_stderr(gates, fail_on), "")
    write = modelgen.to_interchange if form == "json" else modelgen.to_minioo
    with tempfile.TemporaryDirectory() as directory:
        model, config_path, report = (Path(directory, name) for name in (
            f"model.{form}", "config.json", "report"))
        model.write_text(write(data), encoding="utf-8")
        config_path.write_text(text, encoding="utf-8")
        for report_format, read in _READERS.items():
            stdout, stderr = io.StringIO(), io.StringIO()
            code = cli.run(["analyze", str(model), "--format", report_format,
                            "--config", str(config_path), "--out", str(report)], stdout, stderr)
            assert (code, stderr.getvalue(), stdout.getvalue()) == outcome
            assert oracle.diff(expected, read(report.read_text(encoding="utf-8"))) == []
