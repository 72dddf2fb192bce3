import copy
import io
import itertools
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import designlens
from designlens import cli
from designlens import model as model_module
from designlens.minioo import parse_minioo
from designlens.metrics import (
    ClassMetrics,
    PackageMetrics,
    abstractness,
    afferent,
    cbo,
    compute_all,
    dit,
    efferent,
    format_rational,
    instability,
    lcom,
    main_sequence_distance,
    noc,
    wmc,
)
from designlens.model import (
    ASSOCIATION,
    INHERIT,
    INHERITANCE_CYCLE,
    UNRESOLVED_REFERENCE,
    AttributeDef,
    ClassDef,
    CodeModel,
    MethodDef,
    ModelError,
    NotFoundError,
    PackageDef,
    QualifiedName,
    class_graph,
    resolve,
    validate_packages,
)
from conftest import FIXTURES
from modelgen import random_model


def qn(package, cls=""):
    return QualifiedName(package, cls)


def method(name, weight=1, reads=(), uses=()):
    return MethodDef(name, weight=weight, reads=frozenset(reads),
                     uses=frozenset(qn(*u) for u in uses))


# -- oracles (independent of the implementation paths they check) ------------------


def longest_root_path(model, name):
    """Exhaustive enumeration of every inherit path from `name` up to a root."""
    best = 0
    stack = [(name, 0)]
    while stack:
        node, depth = stack.pop()
        parents = resolve(model, node).parents
        if not parents:
            best = max(best, depth)
        for parent in parents:
            stack.append((parent, depth + 1))
    return best


def lcom_pair_oracle(cls):
    pairs = list(itertools.combinations([set(m.reads) for m in cls.methods], 2))
    disjoint = sum(1 for a, b in pairs if not a & b)
    return max(disjoint - (len(pairs) - disjoint), 0)


def coupled_classes_oracle(model, name):
    """All classes linked to `name` by a declared non-inherit reference, either way."""
    others = set()
    for other_qn, other in model.iter_classes():
        refs = {a.target for a in other.attributes if a.target is not None}
        refs |= {t for m in other.methods for t in m.uses}
        if other_qn == name:
            others |= {r for r in refs if r != name}
        elif name in refs:
            others.add(other_qn)
    return others


def package_coupling_oracle(model, package):
    """(ca, ce) counted by a raw scan of every declared reference."""
    sources, targets = set(), set()
    for cls_qn, cls in model.iter_classes():
        refs = set(cls.parents)
        refs |= {a.target for a in cls.attributes if a.target is not None}
        refs |= {t for m in cls.methods for t in m.uses}
        for ref in refs:
            if cls_qn.package == package and ref.package != package:
                targets.add(ref)
            elif cls_qn.package != package and ref.package == package:
                sources.add(cls_qn)
    return len(sources), len(targets)


# -- reference scans: a full walk or edge scan per call, the implementations the
# -- per-model metric table replaced --------------------------------------------------


def scan_dit(model, name):
    depth = {}
    stack = [name]
    while stack:
        node = stack[-1]
        if node in depth:
            stack.pop()
            continue
        parents = resolve(model, node).parents
        pending = [p for p in parents if p not in depth]
        if pending:
            stack.extend(pending)
            continue
        depth[node] = (1 + max(depth[p] for p in parents)) if parents else 0
        stack.pop()
    return depth[name]


def scan_noc(model, name):
    return sum(1 for _, cls in model.iter_classes() if name in cls.parents)


def scan_cbo(model, name):
    coupled = set()
    _, edges = class_graph(model)
    for edge in edges:
        if edge.kind == INHERIT or edge.source == edge.target:
            continue
        if edge.source == name:
            coupled.add(edge.target)
        elif edge.target == name:
            coupled.add(edge.source)
    return len(coupled)


def scan_afferent(model, package):
    _, edges = class_graph(model)
    return len({edge.source for edge in edges
                if edge.target.package == package and edge.source.package != package})


def scan_efferent(model, package):
    _, edges = class_graph(model)
    return len({edge.target for edge in edges
                if edge.source.package == package and edge.target.package != package})


# -- WMC ------------------------------------------------------------------------------


def test_wmc_with_unit_weights_is_the_method_count():
    cls = ClassDef("C", methods=(method("a"), method("b"), method("c")))
    assert wmc(cls) == 3


def test_wmc_sums_declared_weights():
    cls = ClassDef("C", methods=(method("a", 2), method("b", 3), method("c", 5)))
    assert wmc(cls) == 10


def test_wmc_of_methodless_class_is_zero():
    assert wmc(ClassDef("C")) == 0


# -- DIT ------------------------------------------------------------------------------


def _hierarchy(*parent_lists):
    classes = tuple(
        ClassDef(f"C{i}", parents=tuple(qn("p", f"C{j}") for j in parents))
        for i, parents in enumerate(parent_lists))
    return CodeModel([PackageDef("p", classes)])


def test_dit_of_root_is_zero():
    assert dit(_hierarchy(()), qn("p", "C0")) == 0


def test_dit_of_chain_is_path_length():
    model = _hierarchy((), (0,), (1,))
    assert dit(model, qn("p", "C2")) == 2


def _children_first(model):
    """The same model with packages and classes declared in reverse order, so
    every class comes before the classes it extends."""
    return CodeModel([PackageDef(pkg.name, pkg.classes[::-1])
                      for pkg in reversed(model.packages)])


def test_dit_of_diamond_is_longest_path():
    # C3 extends {C1, C2}; C1 and C2 extend C0
    diamond = _hierarchy((), (0,), (0,), (1, 2))
    for model in (diamond, _children_first(diamond)):
        assert [dit(model, qn("p", f"C{i}")) for i in range(4)] == [0, 1, 1, 2]
        assert dit(model, qn("p", "C3")) == longest_root_path(model, qn("p", "C3"))


def test_dit_matches_exhaustive_oracle_on_random_dags():
    rng = random.Random(31)
    for _ in range(80):
        generated = random_model(rng, max_packages=2, max_classes=4)
        for model in (generated, _children_first(generated)):
            for name, cls in model.iter_classes():
                assert dit(model, name) == longest_root_path(model, name)
                assert (dit(model, name) == 0) == (not cls.parents)


def _chain(length, ring=False):
    """C0 <- C1 <- ... : each class extends the one before it; in a ring C0 extends the last."""
    return [PackageDef("p", tuple(
        ClassDef(f"C{i}", parents=(qn("p", f"C{(i - 1) % length}"),) if i or ring else ())
        for i in range(length)))]


def test_deep_hierarchy_is_walked_without_recursion():
    model = CodeModel(_chain(20_000))
    assert dit(model, qn("p", "C19999")) == 19_999
    assert [noc(model, qn("p", f"C{i}")) for i in range(19_999)] == [1] * 19_999
    assert [e.code for e in model_module.validate_packages(_chain(20_000, ring=True))[0]] == \
        [model_module.INHERITANCE_CYCLE]


@pytest.mark.parametrize("parent_lists", [((1,), (0,)), ((0,),)], ids=["two-class", "self"])
def test_metrics_of_an_unvalidated_inheritance_cycle_raise(parent_lists):
    classes = tuple(ClassDef(f"C{i}", parents=tuple(qn("p", f"C{j}") for j in parents))
                    for i, parents in enumerate(parent_lists))
    packages = (PackageDef("p", classes),)
    with pytest.raises(ModelError) as excinfo:  # no model with a cycle exists to measure
        CodeModel(packages)
    assert excinfo.value.errors == validate_packages(packages)[0]
    assert [error.code for error in excinfo.value.errors] == [INHERITANCE_CYCLE]


_QUERIES = {
    "dit": lambda model: dit(model, qn("p", "A")),
    "cbo": lambda model: cbo(model, qn("p", "A")),
    "afferent": lambda model: afferent(model, "p"),
    "compute_all": compute_all,
}


@pytest.mark.parametrize("query", _QUERIES)
@pytest.mark.parametrize("edge", ["parent", "field", "use"])
@pytest.mark.parametrize("package", ["q", "p"])
def test_metrics_of_an_edge_to_an_undeclared_class_raise(query, edge, package):
    gone = qn(package, "Gone")
    cls = ClassDef("A", parents=(gone,) if edge == "parent" else (),
                   attributes=(AttributeDef("f", gone, ASSOCIATION),) if edge == "field" else (),
                   methods=(method("m", uses=[gone]),) if edge == "use" else ())
    packages = (PackageDef("p", (cls,)),)
    with pytest.raises(ModelError) as excinfo:  # the query never runs: construction raises
        _QUERIES[query](CodeModel(packages))
    assert excinfo.value.errors == validate_packages(packages)[0]
    assert [error.code for error in excinfo.value.errors] == [UNRESOLVED_REFERENCE]


# -- NOC ------------------------------------------------------------------------------


def test_noc_counts_direct_subclasses():
    model = _hierarchy((), (0,), (0,))
    assert noc(model, qn("p", "C0")) == 2


def test_noc_excludes_grandchildren():
    model = _hierarchy((), (0,), (1,))
    assert noc(model, qn("p", "C0")) == 1


def test_noc_of_leaf_is_zero():
    model = _hierarchy((), (0,))
    assert noc(model, qn("p", "C1")) == 0


def test_noc_sum_equals_class_parent_pair_count():
    rng = random.Random(37)
    for _ in range(60):
        model = random_model(rng)
        pair_count = sum(len(set(cls.parents)) for _, cls in model.iter_classes())
        total = sum(noc(model, name) for name, _ in model.iter_classes())
        assert total == pair_count


# -- CBO ------------------------------------------------------------------------------


def test_cbo_counts_distinct_outgoing_targets():
    model = CodeModel([PackageDef("p", (
        ClassDef("X"), ClassDef("Y"),
        ClassDef("C",
                 attributes=(AttributeDef("x", qn("p", "X"), ASSOCIATION),),
                 methods=(method("m", uses=[("p", "Y")]),)),
    ))])
    assert cbo(model, qn("p", "C")) == 2


def test_cbo_counts_incoming_couplings_too():
    model = CodeModel([PackageDef("p", (
        ClassDef("C"),
        ClassDef("X", methods=(method("m", uses=[("p", "C")]),)),
    ))])
    assert cbo(model, qn("p", "C")) == 1
    assert coupled_classes_oracle(model, qn("p", "C")) == {qn("p", "X")}


def test_cbo_excludes_self_coupling():
    model = CodeModel([PackageDef("p", (
        ClassDef("C", attributes=(AttributeDef("me", qn("p", "C"), ASSOCIATION),)),))])
    assert cbo(model, qn("p", "C")) == 0


def test_cbo_excludes_inherit_edges():
    model = _hierarchy((), (0,))
    assert cbo(model, qn("p", "C0")) == 0
    assert cbo(model, qn("p", "C1")) == 0


def test_cbo_matches_brute_force_oracle():
    rng = random.Random(41)
    for _ in range(60):
        model = random_model(rng)
        for name, _ in model.iter_classes():
            assert cbo(model, name) == len(coupled_classes_oracle(model, name))


# -- LCOM -----------------------------------------------------------------------------


def worked_read_set_class():
    # classic three-method example: reads {a,b,c,d}, {a,b,c}, {x,y,z}
    return ClassDef("C",
                    attributes=tuple(AttributeDef(a) for a in "abcdxyz"),
                    methods=(method("m1", reads="abcd"),
                             method("m2", reads="abc"),
                             method("m3", reads="xyz")))


def test_lcom_on_the_worked_read_set_example():
    cls = worked_read_set_class()
    assert lcom(cls) == 1
    assert lcom(cls) == lcom_pair_oracle(cls)


def test_lcom_of_single_method_class_is_zero():
    assert lcom(ClassDef("C", methods=(method("only"),))) == 0


def test_lcom_of_two_disjoint_methods_is_one():
    cls = ClassDef("C",
                   attributes=(AttributeDef("a"), AttributeDef("b")),
                   methods=(method("m1", reads="a"), method("m2", reads="b")))
    assert lcom(cls) == 1


def test_methods_with_empty_read_sets_count_as_disjoint():
    cls = ClassDef("C", methods=(method("m1"), method("m2")))
    assert lcom(cls) == 1


# Each read set is a bitmask over one to four fields, so empty and repeated sets are
# frequent; one integer is one draw where a set of fields is one draw per field.
READ_MASKS = st.integers(1, 4).flatmap(lambda fields: st.lists(
    st.integers(0, 2 ** fields - 1), max_size=24))


@settings(max_examples=300, deadline=None)
@given(READ_MASKS)
@example([])
@example([0])  # one method
@example([0b01, 0b10])  # two disjoint methods
@example([0, 0])  # empty read sets count as disjoint
@example([0] * 3)
@example([0b1] * 5)
@example([0b1, 0, 0b1, 0])
def test_lcom_matches_pair_oracle_on_drawn_read_sets(masks):
    cls = ClassDef("C", methods=tuple(
        method(f"m{i}", reads=(field for bit, field in enumerate("abcd") if mask >> bit & 1))
        for i, mask in enumerate(masks)))
    assert lcom(cls) == lcom_pair_oracle(cls)


def test_a_class_with_20000_methods_is_measured_in_linear_time():
    # on a 2-vCPU host with Python 3.11 the pair loop took 1.4 s for 4,000 methods, so
    # about 35 s for 20,000, which misses this bound 17 times over; the masks take 0.08 s
    n, fields = 20_000, ("a", "b", "c")
    cls = ClassDef("Fat", attributes=tuple(AttributeDef(f) for f in fields),
                   methods=tuple(method(f"m{i}", reads=fields[i % 3]) for i in range(n)))
    model = CodeModel([PackageDef("p", (cls,))])
    start = time.perf_counter()
    per_class, _ = compute_all(model)
    elapsed = time.perf_counter() - start
    intersecting = sum(k * (k - 1) // 2 for k in (len(range(i, n, 3)) for i in range(3)))
    assert per_class[qn("p", "Fat")].lcom == n * (n - 1) // 2 - 2 * intersecting
    assert elapsed < 2.0


def test_lcom_matches_pair_oracle_on_random_classes():
    rng = random.Random(43)
    sampled = 0
    while sampled < 500:
        model = random_model(rng)
        for _, cls in model.iter_classes():
            assert lcom(cls) == lcom_pair_oracle(cls)
            sampled += 1


# -- Ca / Ce ---------------------------------------------------------------------------


def _user(name, target):
    return ClassDef(name, methods=(method("m", uses=[target]),))


def test_afferent_counts_distinct_external_sources():
    model = CodeModel([
        PackageDef("core", (ClassDef("A"),)),
        PackageDef("x", (_user("U1", ("core", "A")),)),
        PackageDef("y", (_user("U2", ("core", "A")),)),
    ])
    assert afferent(model, "core") == 2


def test_afferent_counts_classes_not_edges():
    model = CodeModel([
        PackageDef("core", (ClassDef("A"), ClassDef("B"), ClassDef("C"))),
        PackageDef("x", (ClassDef("U", methods=(
            method("m", uses=[("core", "A"), ("core", "B"), ("core", "C")]),)),)),
    ])
    assert afferent(model, "core") == 1
    assert package_coupling_oracle(model, "core") == (1, 0)


def test_isolated_package_has_zero_coupling():
    model = CodeModel([PackageDef("solo", (ClassDef("A"),))])
    assert afferent(model, "solo") == 0
    assert efferent(model, "solo") == 0


def test_efferent_counts_distinct_external_targets():
    model = CodeModel([
        PackageDef("base", (ClassDef("B"),)),
        PackageDef("app", (
            _user("U1", ("base", "B")), _user("U2", ("base", "B")), _user("U3", ("base", "B")))),
    ])
    assert efferent(model, "app") == 1


def test_inherit_edges_count_toward_package_coupling():
    model = CodeModel([
        PackageDef("base", (ClassDef("B"),)),
        PackageDef("app", (ClassDef("D", parents=(qn("base", "B"),)),)),
    ])
    assert efferent(model, "app") == 1
    assert afferent(model, "base") == 1


def test_unknown_package_raises():
    model = CodeModel([PackageDef("p", (ClassDef("A"),))])
    for metric in (afferent, efferent):
        with pytest.raises(NotFoundError) as excinfo:
            metric(model, "nope")
        assert excinfo.value.args == ("package 'nope' is not declared",)


def test_package_coupling_matches_raw_scan_oracle():
    rng = random.Random(47)
    for _ in range(60):
        model = random_model(rng)
        for pkg in model.packages:
            assert (afferent(model, pkg.name), efferent(model, pkg.name)) == \
                package_coupling_oracle(model, pkg.name)


# -- instability / abstractness / distance ----------------------------------------------


def test_stable_package_has_zero_instability():
    # all incoming, no outgoing dependencies
    assert instability(2, 0) == 0


def test_balanced_coupling_gives_one_half():
    assert instability(2, 2) == Fraction(1, 2)


def test_isolated_coupling_is_undefined():
    assert instability(0, 0) is None


def test_instability_boundaries_and_monotonicity():
    for ca, ce in itertools.product(range(6), repeat=2):
        value = instability(ca, ce)
        if ca + ce == 0:
            assert value is None
            continue
        assert 0 <= value <= 1
        assert (value == 0) == (ce == 0 and ca > 0)
        assert (value == 1) == (ca == 0 and ce > 0)
        if ce + 1 <= 5:
            assert instability(ca, ce + 1) > value or ca == 0
        if ca + 1 <= 5 and ce > 0:
            assert instability(ca + 1, ce) < value


def test_abstractness_ratio_and_endpoints():
    mixed = PackageDef("p", (
        ClassDef("A", is_abstract=True), ClassDef("B"), ClassDef("C"), ClassDef("D")))
    assert abstractness(mixed) == Fraction(1, 4)
    assert abstractness(PackageDef("p", (ClassDef("A", is_abstract=True),))) == 1
    assert abstractness(PackageDef("p", (ClassDef("A"),))) == 0
    assert abstractness(PackageDef("p", ())) is None


def test_main_sequence_distance_corners():
    assert main_sequence_distance(Fraction(0), Fraction(0)) == 1
    assert main_sequence_distance(Fraction(1, 2), Fraction(1, 2)) == 0
    assert main_sequence_distance(Fraction(1), Fraction(1)) == 1


# -- compute_all --------------------------------------------------------------------------


def test_compute_all_on_empty_model():
    assert compute_all(CodeModel(())) == ({}, {})


def test_compute_all_on_reference_fixture(reference_source):
    per_class, per_package = compute_all(parse_minioo(reference_source))
    circle, shape = qn("core", "Circle"), qn("core", "Shape")
    assert per_class[circle].dit == 1
    assert per_class[shape].noc == 1
    assert per_class[circle].wmc == 3
    core = per_package["core"]
    assert (core.ca, core.ce) == (1, 0)
    assert core.instability == 0
    assert core.abstractness == Fraction(1, 2)
    assert core.distance == Fraction(1, 2)
    app = per_package["app"]
    assert (app.ca, app.ce, app.instability, app.abstractness) == (0, 1, 1, 0)


def test_compute_all_equals_individual_metric_calls():
    rng = random.Random(53)
    for _ in range(100):
        model = random_model(rng)
        per_class, per_package = compute_all(model)
        assert set(per_class) == {name for name, _ in model.iter_classes()}
        assert set(per_package) == {pkg.name for pkg in model.packages}
        for name, cls in model.iter_classes():
            cm = per_class[name]
            assert (cm.wmc, cm.dit, cm.noc, cm.cbo, cm.lcom) == (
                wmc(cls), dit(model, name), noc(model, name), cbo(model, name), lcom(cls))
        for pkg in model.packages:
            pm = per_package[pkg.name]
            assert (pm.ca, pm.ce) == (afferent(model, pkg.name), efferent(model, pkg.name))
            assert pm.instability == instability(pm.ca, pm.ce)
            assert pm.abstractness == abstractness(pkg)
            if pm.instability is not None and pm.abstractness is not None:
                assert pm.distance == main_sequence_distance(pm.abstractness, pm.instability)
            else:
                assert pm.distance is None


def test_metric_table_matches_reference_scans_for_calls_and_compute_all():
    rng = random.Random(59)
    for _ in range(100):
        model = random_model(rng, max_packages=5, max_classes=6)
        per_class, per_package = compute_all(model)
        for name, _ in model.iter_classes():
            expected = (scan_dit(model, name), scan_noc(model, name), scan_cbo(model, name))
            assert (dit(model, name), noc(model, name), cbo(model, name)) == expected
            cm = per_class[name]
            assert (cm.dit, cm.noc, cm.cbo) == expected
        for pkg in model.packages:
            expected = (scan_afferent(model, pkg.name), scan_efferent(model, pkg.name))
            assert (afferent(model, pkg.name), efferent(model, pkg.name)) == expected
            assert (per_package[pkg.name].ca, per_package[pkg.name].ce) == expected


def test_unknown_subjects_raise_after_the_table_is_built():
    model = _hierarchy((), (0,))
    assert dit(model, qn("p", "C1")) == 1
    for metric in (dit, noc, cbo):
        with pytest.raises(NotFoundError) as excinfo:
            metric(model, qn("p", "Missing"))
        assert excinfo.value.args == ("class 'p.Missing' is not declared",)
    for metric in (afferent, efferent):
        with pytest.raises(NotFoundError):
            metric(model, "missing")


def test_the_package_exports_the_error_an_unknown_subject_raises():
    # a query client catches it without reaching into `designlens.model`
    assert designlens.NotFoundError is NotFoundError and "NotFoundError" in designlens.__all__


def _count_walks(monkeypatch):
    """Record each class whose declared edges are walked."""
    real, walked = model_module._targets, []

    def counting(cls):
        walked.append(cls)
        return real(cls)

    monkeypatch.setattr(model_module, "_targets", counting)
    return walked


def test_point_queries_derive_class_edges_once_per_model(monkeypatch):
    model = random_model(random.Random(61), max_packages=4, max_classes=6)
    walked = _count_walks(monkeypatch)
    for name, _ in model.iter_classes():
        dit(model, name)
        noc(model, name)
        cbo(model, name)
    for pkg in model.packages:
        afferent(model, pkg.name)
        efferent(model, pkg.name)
    compute_all(model)
    assert list(map(id, walked)) == [id(cls) for _, cls in model.iter_classes()]


def test_one_cli_run_builds_no_class_graph(monkeypatch):
    real_edge, sources = model_module.DependencyEdge, []

    def counting_edge(source, target, kind):
        sources.append(source)
        return real_edge(source, target, kind)

    walked = _count_walks(monkeypatch)
    monkeypatch.setattr(model_module, "DependencyEdge", counting_edge)
    source = FIXTURES / "reference.minioo"
    assert cli.run(["analyze", str(source)], stdout=io.StringIO()) == 0
    # one walk of each class's edges feeds the metric table, the package graph and DIP
    model = parse_minioo(source.read_text(encoding="utf-8"))
    assert walked == [cls for _, cls in model.iter_classes()]
    # every edge built is a package graph's: a class graph's edge has a class segment
    assert sources and not any(source.cls for source in sources)


def test_compute_all_iterates_in_name_order():
    model = CodeModel([
        PackageDef("zeta", (ClassDef("B"), ClassDef("A"))),
        PackageDef("alpha", (ClassDef("C"),)),
    ])
    per_class, per_package = compute_all(model)
    assert list(per_class) == sorted(per_class)
    assert list(per_package) == ["alpha", "zeta"]


@pytest.mark.parametrize("values,expected_repr,count", [
    (ClassMetrics(QualifiedName("a", "B"), 3, 1, 0, 2, 1),
     "ClassMetrics(name=QualifiedName(package='a', cls='B'), wmc=3, dit=1, noc=0, cbo=2, "
     "lcom=1)", "cbo"),
    (PackageMetrics("a", 1, 2, Fraction(2, 3), Fraction(0), None),
     "PackageMetrics(name='a', ca=1, ce=2, instability=Fraction(2, 3), "
     "abstractness=Fraction(0, 1), distance=None)", "ce"),
], ids=["class", "package"])
def test_metric_values_are_slotted_and_compare_print_copy_and_pickle_as_before(
        values, expected_repr, count):
    assert not hasattr(values, "__dict__")
    assert repr(values) == expected_repr
    for twin in (copy.copy(values), copy.deepcopy(values),
                 *(pickle.loads(pickle.dumps(values, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
        assert type(twin) is type(values) and twin == values and hash(twin) == hash(values)
    moved = values._replace(**{count: 7})
    assert moved != values and getattr(moved, count) == 7 and moved.name == values.name
    assert moved._replace(**{count: getattr(values, count)}) == values
    with pytest.raises(AttributeError):
        values.name = "x"
    with pytest.raises(AttributeError):
        del values.name


# -- rendering of rationals -----------------------------------------------------------------


def test_format_rational_renders_four_digits():
    assert format_rational(Fraction(1, 3)) == "0.3333"
    assert format_rational(Fraction(1, 2)) == "0.5000"
    assert format_rational(Fraction(2, 3)) == "0.6667"
    assert format_rational(0) == "0.0000"
    assert format_rational(Fraction(1)) == "1.0000"


def test_format_rational_rounds_half_to_even():
    assert format_rational(Fraction(1, 20000)) == "0.0000"  # 0.00005 -> even 0
    assert format_rational(Fraction(3, 20000)) == "0.0002"  # 0.00015 -> even 2
    assert format_rational(Fraction(5, 20000)) == "0.0002"  # 0.00025 -> even 2


def test_format_rational_rounds_negative_ties_to_even_without_a_negative_zero():
    assert format_rational(Fraction(-1, 20000)) == "0.0000"  # -0.00005 -> even 0, no sign
    assert format_rational(Fraction(-3, 20000)) == "-0.0002"  # -0.00015 -> even -2


def reference_format_rational(value):
    """Four digits, half to even, by remainder and tie in integer arithmetic."""
    fraction = Fraction(value)
    scaled = abs(fraction) * 10000
    units, remainder = divmod(scaled.numerator, scaled.denominator)
    double = 2 * remainder
    if double > scaled.denominator or (double == scaled.denominator and units % 2):
        units += 1
    whole, frac = divmod(units, 10000)
    return f"{'-' if fraction < 0 and units else ''}{whole}.{frac:04d}"


# small numerators over large denominators round to zero, of either sign; denominators
# that are multiples of 20,000 put exact ties at the fifth decimal
_NUMERATORS = st.one_of(st.integers(-3, 3), st.integers(-10**9, 10**9))
_DENOMINATORS = st.one_of(st.integers(1, 10**6), st.integers(1, 5).map(lambda k: 20000 * k))


@settings(max_examples=200, deadline=None)
@given(value=st.one_of(st.builds(Fraction, _NUMERATORS, _DENOMINATORS),
                       st.integers(-10**12, 10**12)))
def test_format_rational_matches_integer_remainder_rounding(value):
    assert format_rational(value) == reference_format_rational(value)
