"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value is pinned against an oracle that is independent of the
code path it checks (exhaustive enumeration, brute-force reachability, raw
declaration scans), imported from the module suite that owns it.  Run with
`pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager

from designlens.cli import EXIT_GATE_FAILURE, EXIT_INPUT, EXIT_OK, EXIT_USAGE
from designlens.frontends import parse_minioo, read_interchange, write_interchange
from designlens.metrics import compute_all, dit, lcom, wmc
from designlens.model import (
    AttributeDef,
    ClassDef,
    CodeModel,
    MethodDef,
    PackageDef,
    QualifiedName,
    build_model,
)
from designlens.principles import detect_cycles, run_all, sdp_violations
from designlens.report import build_report, render
from conftest import FIXTURES, GOLDEN
from modelgen import random_packages
from test_cli import invoke
from test_frontends import REFERENCE_MODEL
from test_metrics import lcom_pair_oracle, longest_root_path
from test_principles import coupling_model, cycle_groups_oracle, package_digraph, sdp_oracle


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < budget_seconds
    print(f"{'PASS' if within else 'FAIL'}  criterion {number}: {description} "
          f"[{elapsed:.2f}s / {budget_seconds}s]")
    assert within, f"criterion {number} exceeded its {budget_seconds}s budget ({elapsed:.2f}s)"


def qn(package, cls=""):
    return QualifiedName(package, cls)


def test_criterion_1_lcom_worked_example():
    with criterion(1, "worked LCOM read-set example equals the pair oracle", 1.0):
        cls = ClassDef("C",
                       attributes=tuple(AttributeDef(a) for a in "abcdxyz"),
                       methods=(MethodDef("m1", reads=frozenset("abcd")),
                                MethodDef("m2", reads=frozenset("abc")),
                                MethodDef("m3", reads=frozenset("xyz"))))
        assert lcom(cls) == lcom_pair_oracle(cls) == 1


def test_criterion_2_instability_and_abstractness_ranges():
    with criterion(2, "I and A stay in [0,1] over 1000 random models; boundary cases exact", 30.0):
        rng = random.Random(101)
        stable_seen = fully_abstract_seen = 0
        for _ in range(1000):
            model = build_model(random_packages(rng))
            report = compute_all(model)
            for pm in report.per_package.values():
                if pm.instability is not None:
                    assert 0 <= pm.instability <= 1
                    if pm.ce == 0 and pm.ca > 0:
                        stable_seen += 1
                        assert pm.instability == 0
                if pm.abstractness is not None:
                    assert 0 <= pm.abstractness <= 1
                    pkg = model.package(pm.name)
                    if pkg.classes and all(c.is_abstract for c in pkg.classes):
                        fully_abstract_seen += 1
                        assert pm.abstractness == 1
        assert stable_seen > 0 and fully_abstract_seen > 0


def test_criterion_3_adp_equals_brute_force_path_existence():
    with criterion(3, "cycle groups match reachability on all 4-node digraphs + 1000 random", 30.0):
        pairs4 = [(a, b) for a in range(4) for b in range(4) if a != b]
        for mask in range(2 ** len(pairs4)):  # 4096 edge subsets, exhaustive
            edges = [pairs4[i] for i in range(len(pairs4)) if mask >> i & 1]
            assert detect_cycles(package_digraph(4, edges)) == cycle_groups_oracle(4, edges)
        rng = random.Random(103)
        for _ in range(1000):
            edges = [(a, b) for a in range(12) for b in range(12)
                     if a != b and rng.random() < 0.12]
            assert detect_cycles(package_digraph(12, edges)) == cycle_groups_oracle(12, edges)


def test_criterion_4_dit_exhaustive_and_noc_sums():
    with criterion(4, "DIT matches longest-path oracle on every 6-class DAG; NOC sums hold", 30.0):
        # Every DAG admits a topological labeling, so enumerating all subsets of
        # the parents-precede-children relation covers every shape with <= 6 classes.
        possible = [(child, parent) for child in range(6) for parent in range(child)]
        names = [qn("p", f"C{i}") for i in range(6)]
        for mask in range(2 ** len(possible)):  # 32768 inherit-DAGs
            parents = [[] for _ in range(6)]
            for i, (child, parent) in enumerate(possible):
                if mask >> i & 1:
                    parents[child].append(names[parent])
            model = CodeModel((PackageDef("p", tuple(  # construction validates each DAG
                ClassDef(f"C{i}", parents=tuple(parents[i])) for i in range(6))),))
            for i in range(6):
                assert dit(model, names[i]) == longest_root_path(model, names[i]), mask
        rng = random.Random(107)
        for _ in range(200):
            model = build_model(random_packages(rng))
            pair_count = sum(len(set(cls.parents)) for _, cls in model.iter_classes())
            report = compute_all(model)
            assert sum(cm.noc for cm in report.per_class.values()) == pair_count


def test_criterion_5_wmc_degenerate_and_weighted():
    with criterion(5, "WMC equals method count at unit weights and exact sums otherwise", 5.0):
        rng = random.Random(109)
        for _ in range(500):
            method_count = rng.randint(0, 8)
            unit = ClassDef("C", methods=tuple(
                MethodDef(f"m{i}", weight=1) for i in range(method_count)))
            assert wmc(unit) == method_count
            weights = [rng.randint(1, 9) for _ in range(method_count)]
            weighted = ClassDef("C", methods=tuple(
                MethodDef(f"m{i}", weight=w) for i, w in enumerate(weights)))
            expected = 0
            for w in weights:
                expected += w
            assert wmc(weighted) == expected


def test_criterion_6_round_trip_and_golden_stability():
    with criterion(6, "500 interchange round-trips; fixture model and goldens byte-stable", 30.0):
        rng = random.Random(113)
        for _ in range(500):
            model = build_model(random_packages(rng))
            assert read_interchange(write_interchange(model)) == model
        source = (FIXTURES / "reference.minioo").read_text(encoding="utf-8")
        assert parse_minioo(source) == REFERENCE_MODEL
        for fmt, ext in (("json", "json"), ("csv", "csv"), ("text", "txt")):
            golden = (GOLDEN / f"reference.{ext}").read_text(encoding="utf-8")
            runs = []
            for _ in range(2):  # two full, independent pipeline executions
                model = parse_minioo(source)
                metrics = compute_all(model)
                report = build_report(model, metrics, run_all(model, metrics))
                runs.append(render(report, fmt))
            assert runs[0] == runs[1] == golden


def test_criterion_7_cli_end_to_end():
    with criterion(7, "CLI exit codes 1/0/2/3 across the four scenarios", 5.0):
        code, out, _ = invoke("analyze", str(FIXTURES / "cyclic.minioo"),
                              "--fail-on", "adp", "--format", "json")
        assert code == EXIT_GATE_FAILURE
        findings = json.loads(out)["layers"][3]["findings"]
        adp = [f for f in findings if f["rule"] == "ADP"]
        assert len(adp) == 1 and adp[0]["evidence"]["members"] == ["app", "core"]

        code, _, _ = invoke("analyze", str(FIXTURES / "reference.minioo"))
        assert code == EXIT_OK
        code, _, _ = invoke("analyze", str(FIXTURES / "does-not-exist.minioo"))
        assert code == EXIT_USAGE
        code, out, _ = invoke("analyze", str(FIXTURES / "broken.minioo"))
        assert code == EXIT_INPUT and out == ""


def test_criterion_8_sdp_sweep_matches_eq3():
    with criterion(8, "SDP violations match direct I comparison over the Ca/Ce sweep", 5.0):
        for ca_p, ce_p, ca_q, ce_q in itertools.product(range(4), repeat=4):
            model = coupling_model(ca_p, ce_p, ca_q, ce_q)
            report = compute_all(model)
            expected = sdp_oracle(model)
            actual = {f.locus for f in sdp_violations(model, report)}
            assert actual == expected, (ca_p, ce_p, ca_q, ce_q)
            # spot-check the construction actually realizes the requested counts
            assert (report.per_package["p"].ca, report.per_package["p"].ce) == (ca_p, ce_p)
            assert (report.per_package["q"].ca, report.per_package["q"].ce) == (ca_q, ce_q)

