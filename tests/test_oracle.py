"""Reports against the benchmark's independent oracle, on drawn model shapes.

`perfbench/oracle.py` recomputes every metric, aggregate and finding from the
plain data `perfbench/modelgen.py` generates, without importing designlens.
Both are loaded from their files under private module names, so they do not
shadow `tests/modelgen.py`.
"""

import importlib.util
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import designlens

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
