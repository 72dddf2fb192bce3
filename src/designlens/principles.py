"""Principle checks over metrics and the model's edge table.

Violations: package dependency cycles (ADP) and dependencies pointing toward
less stable packages (SDP).  Advisories: main-sequence zoning (SAP), low
cohesion (SRP), and abstract classes depending on concrete ones (DIP, which
reads the DIP edges of the table that also feeds the metrics and the package
graph).  Checks skip UNDEFINED metric values instead of inventing numbers for
them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .metrics import Metrics
from .model import Checked, CodeModel, Graph, edge_table, package_graph, resolve
from .tarjan import cycles

RULE_ADP = "ADP"
RULE_SDP = "SDP"
RULE_SAP_PAIN = "SAP_PAIN"
RULE_SAP_USELESS = "SAP_USELESS"
RULE_SRP = "SRP"
RULE_DIP = "DIP"
RULE_EMPTY_PACKAGE = "EMPTY_PACKAGE"

VIOLATION = "violation"
ADVISORY = "advisory"
WARNING = "warning"

SEVERITY_BY_RULE = {
    RULE_ADP: VIOLATION,
    RULE_SDP: VIOLATION,
    RULE_SAP_PAIN: ADVISORY,
    RULE_SAP_USELESS: ADVISORY,
    RULE_SRP: ADVISORY,
    RULE_DIP: ADVISORY,
    RULE_EMPTY_PACKAGE: WARNING,
}


class Finding(NamedTuple):
    """One principle violation, advisory, or warning with its measured evidence."""

    rule: str
    severity: str
    locus: str
    evidence: dict


class _Thresholds(NamedTuple):
    srp_lcom_min: int = 1
    srp_method_min: int = 3
    sap_distance_min: Fraction = Fraction(7, 10)
    sap_extreme: Fraction = Fraction(1, 5)


class Thresholds(Checked, _Thresholds):
    """Tunable detection thresholds; the defaults are conventions, not claims."""

    __slots__ = ()

    def __new__(cls, *args: int | Fraction, **kwargs: int | Fraction) -> Thresholds:
        self = _Thresholds.__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if name.startswith("srp") and type(value) is not int:  # nor a bool
                raise TypeError(f"thresholds: {name} {value!r:.40} is not an int")
            if type(value) not in (int, Fraction):  # a float would make the bounds inexact
                raise TypeError(f"thresholds: {name} {value!r:.40} is not an int or a Fraction")
            if value < 0:
                raise ValueError(f"thresholds: {name} must be non-negative")
        if not self.sap_extreme < Fraction(1, 2):
            raise ValueError("thresholds: sap_extreme must be below 0.5")
        return self


def _finding(rule: str, locus: str, evidence: dict) -> Finding:
    return Finding(rule, SEVERITY_BY_RULE[rule], locus, evidence)


def detect_cycles(graph: Graph) -> list[list[str]]:
    """ADP: the groups of a package graph's `(nodes, edges)` that form a cycle.

    Members are sorted within each group; groups are sorted by their smallest
    member.  `package_graph` has no self-edges, so every group it yields has
    two or more packages.
    """
    nodes, edges = graph
    if any(node.cls for node in nodes):
        raise ValueError("cycle detection runs on a package graph, not a class graph")
    successors: dict = {node: [] for node in nodes}
    for source, target, _ in edges:
        if source not in successors or target not in successors:
            stray = target if source in successors else source
            raise ValueError(f"edge endpoint '{stray}' is not a node of the graph")
        successors[source].append(target)
    return [[node.package for node in group] for group in cycles(nodes, successors)]


def adp_violations(model: CodeModel) -> list[Finding]:
    return [_finding(RULE_ADP, ", ".join(group), {"members": group})
            for group in detect_cycles(package_graph(model))]


def sdp_violations(model: CodeModel, metrics: Metrics) -> list[Finding]:
    """SDP: a package must not depend on a strictly less stable package.

    Exact rational comparison; edges touching UNDEFINED instability are skipped.
    """
    _, per_package = metrics
    _, edges = package_graph(model)
    findings = []
    for edge in edges:
        source_i = per_package[edge.source.package].instability
        target_i = per_package[edge.target.package].instability
        if source_i is not None and target_i is not None and target_i > source_i:
            findings.append(_finding(
                RULE_SDP, f"{edge.source.package}->{edge.target.package}",
                {"from_instability": source_i, "to_instability": target_i}))
    return findings


def sap_zones(metrics: Metrics, thresholds: Thresholds) -> list[Finding]:
    """SAP: flag packages far from the main sequence in either corner."""
    _, per_package = metrics
    findings = []
    for name, pm in per_package.items():
        a, i, d = pm.abstractness, pm.instability, pm.distance
        if a is None or i is None or d is None or d < thresholds.sap_distance_min:
            continue
        evidence = {"abstractness": a, "instability": i, "distance": d}
        if a <= thresholds.sap_extreme and i <= thresholds.sap_extreme:
            findings.append(_finding(RULE_SAP_PAIN, name, evidence))
        if a >= 1 - thresholds.sap_extreme and i >= 1 - thresholds.sap_extreme:
            findings.append(_finding(RULE_SAP_USELESS, name, evidence))
    return findings


def srp_advisories(model: CodeModel, metrics: Metrics, thresholds: Thresholds) -> list[Finding]:
    """SRP: low cohesion plus enough methods suggests more than one responsibility."""
    per_class, _ = metrics
    findings = []
    for name, cm in per_class.items():
        method_count = len(resolve(model, name).methods)
        if cm.lcom >= thresholds.srp_lcom_min and method_count >= thresholds.srp_method_min:
            findings.append(_finding(
                RULE_SRP, str(name), {"lcom": cm.lcom, "method_count": method_count}))
    return findings


def dip_advisories(model: CodeModel) -> list[Finding]:
    """DIP: an abstract class should not depend on a concrete one.  One finding per
    distinct declared non-inherit edge, in (source, target, kind) order."""
    return [_finding(RULE_DIP, f"{source}->{target}", {"kind": kind})
            for source, target, kind in sorted(edge_table(model).dip)]


def empty_package_warnings(model: CodeModel) -> list[Finding]:
    return [_finding(RULE_EMPTY_PACKAGE, pkg.name, {})
            for pkg in model.packages if not pkg.classes]


def run_all(model: CodeModel, metrics: Metrics,
            thresholds: Thresholds | None = None) -> list[Finding]:
    """Every check, merged and sorted by (rule, locus) for deterministic output."""
    thresholds = thresholds if thresholds is not None else Thresholds()
    findings = [
        *adp_violations(model),
        *sdp_violations(model, metrics),
        *sap_zones(metrics, thresholds),
        *srp_advisories(model, metrics, thresholds),
        *dip_advisories(model),
        *empty_package_warnings(model),
    ]
    findings.sort(key=lambda f: (f.rule, f.locus))
    return findings
