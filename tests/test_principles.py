import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from designlens.minioo import parse_minioo
from designlens.metrics import compute_all
from designlens.model import (
    AGGREGATION,
    ASSOCIATION,
    INHERIT,
    AttributeDef,
    ClassDef,
    CodeModel,
    DependencyEdge,
    MethodDef,
    PackageDef,
    QualifiedName,
    class_graph,
    package_graph,
)
from designlens.principles import (
    RULE_ADP,
    RULE_DIP,
    RULE_EMPTY_PACKAGE,
    RULE_SAP_PAIN,
    RULE_SAP_USELESS,
    RULE_SDP,
    RULE_SRP,
    Finding,
    Thresholds,
    detect_cycles,
    dip_advisories,
    run_all,
    sap_zones,
    sdp_violations,
    srp_advisories,
)
from designlens.tarjan import cycles
from modelgen import random_model
from test_metrics import package_coupling_oracle


def qn(package, cls=""):
    return QualifiedName(package, cls)


def package_digraph(node_count, edges):
    nodes = tuple(qn(f"n{i}") for i in range(node_count))
    return nodes, tuple(sorted(DependencyEdge(qn(f"n{a}"), qn(f"n{b}"), "use") for a, b in edges))


def cycle_groups_oracle(node_count, edges):
    """Mutual-reachability classes of size >= 2 or that reach themselves, via
    brute-force path existence."""
    reach = [[False] * node_count for _ in range(node_count)]
    for a, b in edges:
        reach[a][b] = True
    for k in range(node_count):
        for i in range(node_count):
            if reach[i][k]:
                for j in range(node_count):
                    if reach[k][j]:
                        reach[i][j] = True
    groups, assigned = [], set()
    for i in range(node_count):
        if i in assigned:
            continue
        members = [j for j in range(node_count)
                   if i == j or (reach[i][j] and reach[j][i])]
        if len(members) >= 2 or reach[i][i]:
            groups.append(sorted(f"n{m}" for m in members))
            assigned.update(members)
    return sorted(groups)


# -- ADP cycle detection ---------------------------------------------------------


def test_three_cycle_is_one_group():
    graph = package_digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert detect_cycles(graph) == [["n0", "n1", "n2"]]


def test_dag_has_no_cycle_groups():
    graph = package_digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert detect_cycles(graph) == []


def test_two_disjoint_two_cycles_give_two_groups():
    graph = package_digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
    assert detect_cycles(graph) == [["n0", "n1"], ["n2", "n3"]]


def test_detect_cycles_rejects_a_class_graph():
    # a node with a class segment marks a class graph, whose edges may be self-loops
    for graph in [((qn("p", "A"),), ()), ((qn("p"), qn("p", "A")), ())]:
        with pytest.raises(ValueError, match="runs on a package graph"):
            detect_cycles(graph)


def test_detect_cycles_rejects_an_edge_whose_endpoint_is_not_a_node():
    a, b = qn("a"), qn("b")
    for graph, stray in [(((a,), (DependencyEdge(b, a, "use"),)), "b"),
                         (((a,), (DependencyEdge(a, b, "use"),)), "b"),
                         (((a, b), (DependencyEdge(a, qn("c", "C"), "use"),)), "c.C")]:
        with pytest.raises(ValueError, match=f"^edge endpoint '{stray}' is not a node"):
            detect_cycles(graph)


def test_detect_cycles_matches_oracle_exhaustively_on_three_nodes():
    pairs = [(a, b) for a in range(3) for b in range(3) if a != b]
    for mask in range(2 ** len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        assert detect_cycles(package_digraph(3, edges)) == cycle_groups_oracle(3, edges)


def test_detect_cycles_matches_oracle_on_random_graphs():
    rng = random.Random(61)
    for _ in range(300):
        node_count = rng.randint(1, 8)
        pairs = [(a, b) for a in range(node_count) for b in range(node_count) if a != b]
        edges = [p for p in pairs if rng.random() < 0.25]
        assert detect_cycles(package_digraph(node_count, edges)) == \
            cycle_groups_oracle(node_count, edges)


def test_tarjan_cycles_matches_oracle_on_every_three_node_digraph():
    pairs = [(a, b) for a in range(3) for b in range(3)]  # self-edges included
    for mask in range(2 ** len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        successors = {f"n{i}": [f"n{b}" for a, b in edges if a == i] for i in range(3)}
        assert cycles(["n2", "n0", "n1"], successors) == cycle_groups_oracle(3, edges)


def test_acyclic_model_yields_zero_adp_findings(reference_source):
    model = parse_minioo(reference_source)
    findings = run_all(model, compute_all(model))
    assert [f for f in findings if f.rule == RULE_ADP] == []


def is_dag(nodes, edges):
    """Kahn's algorithm: whether every node is reached once its predecessors are taken."""
    indegree = {node: 0 for node in nodes}
    successors = {node: [] for node in nodes}
    for edge in edges:
        indegree[edge.target] += 1
        successors[edge.source].append(edge.target)
    ready = [n for n, d in indegree.items() if d == 0]
    seen = 0
    while ready:
        node = ready.pop()
        seen += 1
        for succ in successors[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    return seen == len(indegree)


def test_no_adp_findings_iff_package_graph_is_a_dag():
    rng = random.Random(59)
    cyclic_seen = acyclic_seen = 0
    for _ in range(120):
        model = random_model(rng, max_packages=5, max_classes=3)
        findings = run_all(model, compute_all(model))
        has_cycle_findings = any(f.rule == RULE_ADP for f in findings)
        if is_dag(*package_graph(model)):
            acyclic_seen += 1
            assert not has_cycle_findings
        else:
            cyclic_seen += 1
            assert has_cycle_findings
    assert cyclic_seen > 0 and acyclic_seen > 0


# -- SDP -------------------------------------------------------------------------


def coupling_model(ca_p, ce_p, ca_q, ce_q):
    """Two packages p and q with exact coupling counts, wired via satellite packages.

    When both sides allow it, one of p's outgoing references lands in q, so the
    p->q edge whose direction SDP judges actually exists.
    """
    link = ce_p >= 1 and ca_q >= 1
    packages = []
    for i in range(ca_p):
        packages.append(PackageDef(f"inp{i}", (ClassDef("S", methods=(
            MethodDef("m", uses=frozenset({qn("p", "P0")})),)),)))
    for i in range(ca_q - (1 if link else 0)):
        packages.append(PackageDef(f"inq{i}", (ClassDef("S", methods=(
            MethodDef("m", uses=frozenset({qn("q", "Q0")})),)),)))
    p_targets, q_targets = [], []
    for j in range(ce_p - (1 if link else 0)):
        packages.append(PackageDef(f"outp{j}", (ClassDef("T"),)))
        p_targets.append(qn(f"outp{j}", "T"))
    for j in range(ce_q):
        packages.append(PackageDef(f"outq{j}", (ClassDef("T"),)))
        q_targets.append(qn(f"outq{j}", "T"))
    if link:
        p_targets.append(qn("q", "Q0"))
    packages.append(PackageDef("p", (ClassDef("P0", methods=(
        MethodDef("m", uses=frozenset(p_targets)),)),)))
    packages.append(PackageDef("q", (ClassDef("Q0", methods=(
        MethodDef("m", uses=frozenset(q_targets)),)),)))
    return CodeModel(packages)


def raw_package_references(model):
    """Set of cross-package (source package, target package) pairs from declarations."""
    pairs = set()
    for cls_qn, cls in model.iter_classes():
        refs = set(cls.parents)
        refs |= {a.target for a in cls.attributes if a.target is not None}
        refs |= {t for m in cls.methods for t in m.uses}
        pairs |= {(cls_qn.package, r.package) for r in refs if r.package != cls_qn.package}
    return pairs


def sdp_oracle(model):
    """Directly evaluate I(Q) > I(P) over every package dependency with exact rationals."""
    instabilities = {}
    for pkg in model.packages:
        ca, ce = package_coupling_oracle(model, pkg.name)
        instabilities[pkg.name] = None if ca + ce == 0 else Fraction(ce, ca + ce)
    violations = set()
    for source, target in raw_package_references(model):
        i_p, i_q = instabilities[source], instabilities[target]
        if i_p is not None and i_q is not None and i_q > i_p:
            violations.add(f"{source}->{target}")
    return violations


def test_dependency_toward_stability_is_clean():
    # p (I=4/5) depends on q (I=1/5)
    model = coupling_model(1, 4, 4, 1)
    metrics = compute_all(model)
    _, per_package = metrics
    assert per_package["p"].instability == Fraction(4, 5)
    assert per_package["q"].instability == Fraction(1, 5)
    loci = {f.locus for f in sdp_violations(model, metrics)}
    assert "p->q" not in loci


def test_dependency_toward_instability_is_flagged_with_evidence():
    # p (I=1/5) depends on q (I=4/5)
    model = coupling_model(4, 1, 1, 3)
    metrics = compute_all(model)
    _, per_package = metrics
    assert per_package["p"].instability == Fraction(1, 5)
    assert per_package["q"].instability == Fraction(3, 4)
    findings = [f for f in sdp_violations(model, metrics) if f.locus == "p->q"]
    assert len(findings) == 1
    assert findings[0].evidence == {
        "from_instability": Fraction(1, 5), "to_instability": Fraction(3, 4)}


def test_equal_instability_is_not_a_violation():
    model = coupling_model(1, 1, 1, 1)
    metrics = compute_all(model)
    _, per_package = metrics
    assert per_package["p"].instability == per_package["q"].instability
    assert {f.locus for f in sdp_violations(model, metrics)} == sdp_oracle(model)
    assert "p->q" not in {f.locus for f in sdp_violations(model, metrics)}


def test_sdp_sweep_matches_direct_evaluation():
    for ca_p, ce_p, ca_q, ce_q in itertools.product(range(4), repeat=4):
        model = coupling_model(ca_p, ce_p, ca_q, ce_q)
        metrics = compute_all(model)
        assert {f.locus for f in sdp_violations(model, metrics)} == sdp_oracle(model)


def _layered_chain_model(widths):
    """Layered packages where every class in layer i+1 uses one class of layer i.

    Non-increasing widths toward the top guarantee every dependency points at
    weakly smaller instability.
    """
    packages = []
    for layer, width in enumerate(widths):
        uses = frozenset({qn(f"layer{layer - 1}", "C0")}) if layer else frozenset()
        classes = tuple(ClassDef(f"C{i}", methods=(MethodDef("m", uses=uses),))
                        for i in range(width))
        packages.append(PackageDef(f"layer{layer}", classes))
    return CodeModel(packages)


def test_monotone_layered_models_have_no_sdp_violations():
    rng = random.Random(67)
    for _ in range(80):
        depth = rng.randint(2, 6)
        widths = sorted((rng.randint(1, 4) for _ in range(depth)), reverse=True)
        model = _layered_chain_model(widths)
        metrics = compute_all(model)
        _, per_package = metrics
        # precondition: every dependency points toward weakly smaller instability
        for source, target in raw_package_references(model):
            assert per_package[target].instability <= per_package[source].instability
        assert sdp_violations(model, metrics) == []


def test_sdp_skips_undefined_instability():
    # q is referenced only via inheritance from p; make p isolated instead:
    model = CodeModel([
        PackageDef("alone", (ClassDef("A"),)),
        PackageDef("p", (ClassDef("P", methods=(
            MethodDef("m", uses=frozenset({qn("q", "Q")})),)),)),
        PackageDef("q", (ClassDef("Q"),)),
    ])
    metrics = compute_all(model)
    _, per_package = metrics
    assert per_package["alone"].instability is None
    # no crash, and only defined edges are judged
    assert {f.locus for f in sdp_violations(model, metrics)} == sdp_oracle(model)
    # a model's own report has UNDEFINED only on a package without edges, so one built
    # by hand puts it on either end of the flagged edge p->q, which is then skipped
    model = coupling_model(4, 1, 1, 3)
    per_class, per_package = compute_all(model)
    assert "p->q" in {f.locus for f in sdp_violations(model, (per_class, per_package))}
    for end in ("p", "q"):
        undefined = per_package[end]._replace(instability=None)
        hand_built = per_class, {**per_package, end: undefined}
        assert "p->q" not in {f.locus for f in sdp_violations(model, hand_built)}


# -- SAP -------------------------------------------------------------------------


def _fixed_package(name, abstract_count, concrete_count, ca, ce, packages):
    """Append a package with the given abstractness inputs and coupling counts."""
    classes = [ClassDef(f"A{i}", is_abstract=True) for i in range(abstract_count)]
    classes += [ClassDef(f"C{i}") for i in range(concrete_count)]
    targets = []
    for j in range(ce):
        packages.append(PackageDef(f"{name}out{j}", (ClassDef("T"),)))
        targets.append(qn(f"{name}out{j}", "T"))
    if targets:
        classes[0] = ClassDef(classes[0].name, classes[0].is_abstract,
                              methods=(MethodDef("m", uses=frozenset(targets)),))
    for i in range(ca):
        packages.append(PackageDef(f"{name}in{i}", (ClassDef("S", methods=(
            MethodDef("m", uses=frozenset({qn(name, classes[0].name)})),)),)))
    packages.append(PackageDef(name, tuple(classes)))


def test_concrete_stable_package_lands_in_the_zone_of_pain():
    packages = []
    _fixed_package("rigid", 0, 3, 2, 0, packages)  # A=0, I=0, D=1
    model = CodeModel(packages)
    metrics = compute_all(model)
    findings = sap_zones(metrics, Thresholds())
    pain = [f for f in findings if f.rule == RULE_SAP_PAIN]
    assert [f.locus for f in pain] == ["rigid"]
    assert pain[0].evidence["distance"] == 1


def test_abstract_unused_package_lands_in_the_zone_of_uselessness():
    packages = []
    _fixed_package("ivory", 3, 0, 0, 2, packages)  # A=1, I=1, D=1
    model = CodeModel(packages)
    findings = sap_zones(compute_all(model), Thresholds())
    assert [f.rule for f in findings if f.locus == "ivory"] == [RULE_SAP_USELESS]


def test_package_on_the_main_sequence_is_clean():
    packages = []
    _fixed_package("balanced", 1, 1, 1, 1, packages)  # A=1/2, I=1/2, D=0
    model = CodeModel(packages)
    metrics = compute_all(model)
    _, per_package = metrics
    assert per_package["balanced"].distance == 0
    assert [f for f in sap_zones(metrics, Thresholds()) if f.locus == "balanced"] == []


def test_sap_thresholds_are_respected():
    packages = []
    _fixed_package("rigid", 0, 3, 2, 0, packages)
    metrics = compute_all(CodeModel(packages))
    strict = Thresholds(sap_distance_min=Fraction(11, 10))  # unreachable distance
    assert [f for f in sap_zones(metrics, strict) if f.locus == "rigid"] == []


def test_thresholds_validate_their_invariants():
    assert Thresholds(sap_distance_min=1, sap_extreme=0).sap_extreme == 0  # an int is exact
    with pytest.raises(ValueError):
        Thresholds(sap_extreme=Fraction(1, 2))
    with pytest.raises(ValueError):
        Thresholds(srp_lcom_min=-1)


# (abstract, concrete, ca, ce) of a package `p` that sits on a SAP bound, and its
# (A, I, D) and finding under the default thresholds: each bound is inclusive
SAP_BOUNDARIES = [
    ((1, 4, 1, 0), (Fraction(1, 5), 0, Fraction(4, 5)), RULE_SAP_PAIN),  # A = sap_extreme
    ((1, 9, 4, 1), (Fraction(1, 10), Fraction(1, 5), Fraction(7, 10)),    # I = sap_extreme,
     RULE_SAP_PAIN),                                                      # D = distance_min
    ((4, 1, 0, 1), (Fraction(4, 5), 1, Fraction(4, 5)), RULE_SAP_USELESS),  # A = 1 - extreme
    ((1, 0, 1, 4), (1, Fraction(4, 5), Fraction(4, 5)), RULE_SAP_USELESS),  # I = 1 - extreme
]


@pytest.mark.parametrize("counts, values, rule", SAP_BOUNDARIES,
                         ids=["pain-at-a", "pain-at-i-and-d", "useless-at-a", "useless-at-i"])
def test_a_package_on_a_sap_bound_is_flagged(counts, values, rule):
    packages = []
    _fixed_package("p", *counts, packages)
    metrics = compute_all(CodeModel(packages))
    _, per_package = metrics
    pm = per_package["p"]
    assert (pm.abstractness, pm.instability, pm.distance) == values
    assert [f.rule for f in sap_zones(metrics, Thresholds()) if f.locus == "p"] == [rule]


@pytest.mark.parametrize("name, value, message", [
    ("srp_lcom_min", 1.5, "thresholds: srp_lcom_min: expected an int, got 1.5"),
    ("srp_method_min", True, "thresholds: srp_method_min: expected an int, got True"),
    ("sap_distance_min", True,
     "thresholds: sap_distance_min: expected a non-negative int or Fraction, got True"),
    ("sap_extreme", 0.2,
     "thresholds: sap_extreme: expected a non-negative int or Fraction, got 0.2"),
])
def test_thresholds_refuse_a_bool_or_a_float(name, value, message):
    with pytest.raises(TypeError) as excinfo:
        Thresholds(**{name: value})
    assert str(excinfo.value) == message


@pytest.mark.parametrize("name", ["srp_lcom_min", "srp_method_min", "sap_distance_min",
                                  "sap_extreme"])
def test_a_negative_threshold_is_refused_by_name(name):
    with pytest.raises(ValueError) as excinfo:
        Thresholds(**{name: -1})
    assert str(excinfo.value) == (
        f"thresholds: {name}: expected a non-negative int or Fraction, got -1")


def test_a_changed_threshold_is_checked_too():
    with pytest.raises(ValueError, match="sap_extreme must be below 0.5"):
        Thresholds()._replace(sap_extreme=Fraction(1, 2))
    with pytest.raises(TypeError, match="srp_lcom_min: expected an int, got 1.5"):
        Thresholds._make([1.5, 3, 0, 0])
    moved = Thresholds()._replace(srp_method_min=2)
    assert type(moved) is Thresholds and moved == Thresholds(srp_method_min=2)


# -- SRP -------------------------------------------------------------------------


def low_cohesion_example_model():
    cls = ClassDef("Mixed",
                   attributes=tuple(AttributeDef(a) for a in "abcdxyz"),
                   methods=(MethodDef("m1", reads=frozenset("abcd")),
                            MethodDef("m2", reads=frozenset("abc")),
                            MethodDef("m3", reads=frozenset("xyz"))))
    return CodeModel([PackageDef("p", (cls,))])


def test_low_cohesion_class_with_enough_methods_gets_srp_advisory():
    model = low_cohesion_example_model()
    metrics = compute_all(model)
    per_class, _ = metrics
    assert per_class[qn("p", "Mixed")].lcom == 1
    findings = srp_advisories(model, metrics, Thresholds())
    assert [f.locus for f in findings] == ["p.Mixed"]
    assert findings[0].evidence == {"lcom": 1, "method_count": 3}


def test_cohesive_class_gets_no_advisory():
    cls = ClassDef("Tight",
                   attributes=(AttributeDef("a"),),
                   methods=tuple(MethodDef(f"m{i}", reads=frozenset("a")) for i in range(3)))
    model = CodeModel([PackageDef("p", (cls,))])
    assert srp_advisories(model, compute_all(model), Thresholds()) == []


def test_small_class_is_below_the_method_gate():
    cls = ClassDef("Small",
                   attributes=(AttributeDef("a"), AttributeDef("b")),
                   methods=(MethodDef("m1", reads=frozenset("a")),
                            MethodDef("m2", reads=frozenset("b"))))
    model = CodeModel([PackageDef("p", (cls,))])
    metrics = compute_all(model)
    per_class, _ = metrics
    assert per_class[qn("p", "Small")].lcom == 1
    assert srp_advisories(model, metrics, Thresholds()) == []


# -- DIP -------------------------------------------------------------------------


def test_abstract_class_using_concrete_class_is_flagged():
    model = CodeModel([PackageDef("p", (
        ClassDef("B"),
        ClassDef("A", is_abstract=True, methods=(
            MethodDef("m", uses=frozenset({qn("p", "B")})),)),
    ))])
    findings = dip_advisories(model)
    assert [f.locus for f in findings] == ["p.A->p.B"]
    assert findings[0].evidence == {"kind": "use"}


def test_abstract_to_abstract_dependency_is_fine():
    model = CodeModel([PackageDef("p", (
        ClassDef("B", is_abstract=True),
        ClassDef("A", is_abstract=True, methods=(
            MethodDef("m", uses=frozenset({qn("p", "B")})),)),
    ))])
    assert dip_advisories(model) == []


def test_concrete_to_concrete_dependency_is_fine():
    model = CodeModel([PackageDef("p", (
        ClassDef("B"),
        ClassDef("A", methods=(MethodDef("m", uses=frozenset({qn("p", "B")})),)),
    ))])
    assert dip_advisories(model) == []


def test_inherit_edges_are_outside_dip_scope():
    model = CodeModel([PackageDef("p", (
        ClassDef("B"),
        ClassDef("A", is_abstract=True, parents=(qn("p", "B"),)),
    ))])
    assert dip_advisories(model) == []


def reference_dip_advisories(model):
    """DIP read off the sorted, deduplicated class graph: the order `dip_advisories` keeps."""
    abstract = {name: cls.is_abstract for name, cls in model.iter_classes()}
    _, edges = class_graph(model)
    return [Finding(RULE_DIP, "advisory", f"{edge.source}->{edge.target}", {"kind": edge.kind})
            for edge in edges
            if edge.kind != INHERIT and abstract[edge.source] and not abstract[edge.target]]


def test_dip_matches_the_class_graph_reference_on_random_models():
    flagged = 0
    for seed in range(500):
        model = random_model(random.Random(seed))
        findings = dip_advisories(model)
        assert findings == reference_dip_advisories(model), seed
        flagged += bool(findings)
    assert flagged > 100  # the property is not vacuous


def test_one_dip_finding_per_distinct_edge_in_kind_order():
    b = qn("p", "B")
    model = CodeModel([PackageDef("p", (
        ClassDef("B"),
        ClassDef("A", is_abstract=True,
                 attributes=(AttributeDef("linked", b, ASSOCIATION),
                             AttributeDef("owned", b, AGGREGATION)),
                 methods=(MethodDef("m1", uses=frozenset({b})),
                          MethodDef("m2", uses=frozenset({b})))),
    ))])
    expected = [("p.A->p.B", {"kind": kind}) for kind in ("aggregation", "association", "use")]
    assert [(f.locus, f.evidence) for f in dip_advisories(model)] == expected
    metrics = compute_all(model)
    assert [(f.locus, f.evidence) for f in run_all(model, metrics) if f.rule == RULE_DIP] == expected


# -- run_all -----------------------------------------------------------------------


def test_clean_fixture_yields_no_findings(reference_source):
    model = parse_minioo(reference_source)
    assert run_all(model, compute_all(model)) == []


def test_cyclic_fixture_yields_exactly_one_adp_group(cyclic_source):
    model = parse_minioo(cyclic_source)
    findings = run_all(model, compute_all(model))
    assert [(f.rule, f.locus) for f in findings] == [(RULE_ADP, "app, core")]
    assert findings[0].evidence == {"members": ["app", "core"]}
    assert findings[0].severity == "violation"


def test_empty_package_produces_a_warning():
    model = CodeModel([PackageDef("void", ()), PackageDef("p", (ClassDef("A"),))])
    findings = run_all(model, compute_all(model))
    assert [(f.rule, f.locus, f.severity) for f in findings] == \
        [(RULE_EMPTY_PACKAGE, "void", "warning")]


def test_severity_is_fixed_by_rule():
    rng = random.Random(79)
    expected = {RULE_ADP: "violation", RULE_SDP: "violation",
                RULE_SAP_PAIN: "advisory", RULE_SAP_USELESS: "advisory",
                RULE_SRP: "advisory", RULE_DIP: "advisory",
                RULE_EMPTY_PACKAGE: "warning"}
    for _ in range(40):
        model = random_model(rng)
        for finding in run_all(model, compute_all(model)):
            assert finding.severity == expected[finding.rule]


def test_run_all_is_sorted_and_repeatable():
    rng = random.Random(71)
    for _ in range(40):
        model = random_model(rng)
        metrics = compute_all(model)
        first = run_all(model, metrics)
        second = run_all(model, metrics)
        assert first == second
        assert [(f.rule, f.locus) for f in first] == sorted((f.rule, f.locus) for f in first)


def test_checks_never_trip_on_undefined_values():
    # empty and isolated packages everywhere; every check must skip them quietly
    rng = random.Random(73)
    for _ in range(60):
        model = random_model(rng, max_packages=5, max_classes=2)
        metrics = compute_all(model)
        findings = run_all(model, metrics)
        for finding in findings:
            if finding.rule in (RULE_SDP, RULE_SAP_PAIN, RULE_SAP_USELESS):
                assert None not in finding.evidence.values()


def test_a_finding_is_slotted_and_compares_prints_copies_and_pickles_as_before():
    finding = Finding(RULE_DIP, "advisory", "a.B->a.C", {"kind": "use"})
    assert not hasattr(finding, "__dict__")
    assert finding == Finding(RULE_DIP, "advisory", "a.B->a.C", {"kind": "use"})
    assert finding != Finding(RULE_DIP, "advisory", "a.B->a.C", {"kind": "inherit"})
    assert repr(finding) == ("Finding(rule='DIP', severity='advisory', locus='a.B->a.C', "
                             "evidence={'kind': 'use'})")
    for twin in (copy.copy(finding), copy.deepcopy(finding),
                 *(pickle.loads(pickle.dumps(finding, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
        assert type(twin) is Finding and twin == finding
    moved = finding._replace(locus="a.B->a.D")
    assert (moved.locus, moved.evidence) == ("a.B->a.D", finding.evidence)
    with pytest.raises(AttributeError):
        finding.locus = "x"
    with pytest.raises(TypeError):  # the evidence is a dict
        hash(finding)
