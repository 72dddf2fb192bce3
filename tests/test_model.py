import pickle
import random

import pytest

from designlens.model import (
    ABSTRACT_METHOD_IN_CONCRETE_CLASS,
    AGGREGATION,
    ASSOCIATION,
    DUPLICATE_CLASS,
    DUPLICATE_MEMBER,
    DUPLICATE_PACKAGE,
    INHERIT,
    INHERITANCE_CYCLE,
    MAX_WEIGHT,
    UNKNOWN_READ_ATTRIBUTE,
    UNRESOLVED_REFERENCE,
    USE,
    AttributeDef,
    ClassDef,
    CodeModel,
    DependencyEdge,
    MethodDef,
    ModelError,
    NotFoundError,
    PackageDef,
    QualifiedName,
    build_model,
    class_graph,
    package_graph,
    resolve,
    validate_packages,
)
from modelgen import random_model


def qn(package, cls=""):
    return QualifiedName(package, cls)


def simple_class(name, **kwargs):
    return ClassDef(name, **kwargs)


# -- construction guards -------------------------------------------------------


def test_qualified_name_ordering_is_lexicographic():
    names = [qn("b", "A"), qn("a", "Z"), qn("a", "A"), qn("a")]
    assert sorted(names) == [qn("a"), qn("a", "A"), qn("a", "Z"), qn("b", "A")]
    assert str(qn("a", "B")) == "a.B"
    assert str(qn("a")) == "a"


def test_qualified_name_rejects_bad_segments():
    with pytest.raises(ValueError):
        QualifiedName("1bad", "A")
    with pytest.raises(ValueError):
        QualifiedName("p", "has space")


def test_qualified_name_and_edge_are_plain_tuples():
    name = qn("a", "B")
    assert name == ("a", "B") and hash(name) == hash(("a", "B"))
    assert (name.package, name.cls) == ("a", "B")
    assert repr(name) == "QualifiedName(package='a', cls='B')"
    assert not hasattr(name, "__dict__")
    edge = DependencyEdge(name, qn("a", "C"), USE)
    assert edge == (("a", "B"), ("a", "C"), USE) and not hasattr(edge, "__dict__")
    assert sorted([DependencyEdge(qn("b"), qn("a"), USE), edge]) == [edge, (qn("b"), qn("a"), USE)]


def test_method_weight_must_be_positive():
    with pytest.raises(ValueError):
        MethodDef("m", weight=0)


def test_method_weight_is_at_most_max_weight():
    assert MethodDef("m", weight=MAX_WEIGHT).weight == MAX_WEIGHT
    with pytest.raises(ValueError, match="weight must be from 1 to 9223372036854775807"):
        MethodDef("m", weight=MAX_WEIGHT + 1)


def test_attribute_kind_matches_target():
    with pytest.raises(ValueError):
        AttributeDef("x", None, ASSOCIATION)
    with pytest.raises(ValueError):
        AttributeDef("x", qn("p", "A"), "none")


# -- build_model ----------------------------------------------------------------


def test_two_isolated_packages_build_cleanly():
    model = build_model([
        PackageDef("p", (simple_class("A"),)),
        PackageDef("q", (simple_class("B"),)),
    ])
    assert [pkg.name for pkg in model.packages] == ["p", "q"]
    assert resolve(model, qn("p", "A")).name == "A"


def test_two_class_inheritance_cycle_names_both_members():
    packages = [PackageDef("p", (
        simple_class("A", parents=(qn("p", "B"),)),
        simple_class("B", parents=(qn("p", "A"),)),
    ))]
    errors = validate_packages(packages)
    assert [e.code for e in errors] == [INHERITANCE_CYCLE]
    assert "p.A" in errors[0].message and "p.B" in errors[0].message
    with pytest.raises(ModelError):
        build_model(packages)


def test_self_parent_is_an_inheritance_cycle():
    errors = validate_packages([
        PackageDef("p", (simple_class("A", parents=(qn("p", "A"),)),))])
    assert [e.code for e in errors] == [INHERITANCE_CYCLE]


def test_abstract_method_in_concrete_class_rejected():
    errors = validate_packages([PackageDef("p", (
        ClassDef("A", is_abstract=False, methods=(MethodDef("m", is_abstract=True),)),))])
    assert [e.code for e in errors] == [ABSTRACT_METHOD_IN_CONCRETE_CLASS]
    assert errors[0].locus == "p.A.m"


def test_abstract_method_in_abstract_class_is_fine():
    assert validate_packages([PackageDef("p", (
        ClassDef("A", is_abstract=True, methods=(MethodDef("m", is_abstract=True),)),))]) == []


def test_duplicate_package_class_and_members_reported():
    packages = [
        PackageDef("p", (
            ClassDef("A",
                     attributes=(AttributeDef("x"), AttributeDef("x")),
                     methods=(MethodDef("m"), MethodDef("m"))),
            simple_class("A"),
        )),
        PackageDef("p", ()),
    ]
    codes = sorted(e.code for e in validate_packages(packages))
    assert codes == sorted([DUPLICATE_PACKAGE, DUPLICATE_CLASS, DUPLICATE_MEMBER, DUPLICATE_MEMBER])


def test_unresolved_references_reported_for_parent_attribute_and_use():
    packages = [PackageDef("p", (
        ClassDef("A",
                 parents=(qn("q", "Gone"),),
                 attributes=(AttributeDef("x", qn("q", "Gone2"), ASSOCIATION),),
                 methods=(MethodDef("m", uses=frozenset({qn("q", "Gone3")})),)),))]
    errors = validate_packages(packages)
    assert [e.code for e in errors] == [UNRESOLVED_REFERENCE] * 3
    assert {e.locus for e in errors} == {"p.A", "p.A.x", "p.A.m"}


def test_unknown_read_attribute_reported():
    errors = validate_packages([PackageDef("p", (
        ClassDef("A", methods=(MethodDef("m", reads=frozenset({"ghost"})),)),))])
    assert [e.code for e in errors] == [UNKNOWN_READ_ATTRIBUTE]
    assert "ghost" in errors[0].message


def test_validation_reports_all_errors_not_just_the_first():
    packages = [
        PackageDef("p", (
            ClassDef("A", parents=(qn("p", "B"),)),
            ClassDef("B", parents=(qn("p", "A"),),
                     methods=(MethodDef("m", is_abstract=True, reads=frozenset({"nope"})),)),
        )),
        PackageDef("p", ()),
    ]
    codes = {e.code for e in validate_packages(packages)}
    assert codes == {DUPLICATE_PACKAGE, INHERITANCE_CYCLE,
                     ABSTRACT_METHOD_IN_CONCRETE_CLASS, UNKNOWN_READ_ATTRIBUTE}


def test_validation_is_total_and_revalidation_is_clean():
    rng = random.Random(7)
    for _ in range(100):
        model = random_model(rng)
        assert validate_packages(model.packages) == []


def _corrupt(rng, packages):
    """Inject one random defect into otherwise-valid declarations."""
    packages = list(packages)
    defect = rng.randrange(5)
    if defect == 0:  # duplicate package
        packages.append(PackageDef(packages[0].name, ()))
    elif defect == 1:  # dangling parent
        pkg = packages[0]
        broken = ClassDef("Broken", parents=(qn("nowhere", "Ghost"),))
        packages[0] = PackageDef(pkg.name, pkg.classes + (broken,))
    elif defect == 2:  # self-inheritance
        pkg = packages[0]
        loop = ClassDef("Loop", parents=(qn(pkg.name, "Loop"),))
        packages[0] = PackageDef(pkg.name, pkg.classes + (loop,))
    elif defect == 3:  # abstract method in concrete class
        pkg = packages[0]
        bad = ClassDef("Bad", methods=(MethodDef("m", is_abstract=True),))
        packages[0] = PackageDef(pkg.name, pkg.classes + (bad,))
    else:  # phantom read
        pkg = packages[0]
        bad = ClassDef("Reader", methods=(MethodDef("m", reads=frozenset({"ghost"})),))
        packages[0] = PackageDef(pkg.name, pkg.classes + (bad,))
    return packages


def test_every_injected_defect_is_caught():
    rng = random.Random(19)
    for _ in range(100):
        packages = _corrupt(rng, random_model(rng).packages)
        errors = validate_packages(packages)
        assert errors, packages
        with pytest.raises(ModelError) as excinfo:
            build_model(packages)
        assert excinfo.value.errors == errors


def test_model_is_immutable():
    import dataclasses
    model = build_model([PackageDef("p", (simple_class("A"),))])
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.packages = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.packages[0].classes[0].name = "B"


def test_resolve_missing_raises_not_found():
    model = build_model([PackageDef("p", (simple_class("A"),))])
    with pytest.raises(NotFoundError):
        resolve(model, qn("p", "Z"))


# -- class graph -----------------------------------------------------------------


def test_attribute_creates_edge_of_declared_kind():
    model = build_model([PackageDef("p", (
        simple_class("D"),
        ClassDef("C", attributes=(AttributeDef("x", qn("p", "D"), AGGREGATION),)),
    ))])
    edges = class_graph(model).edges
    assert len(edges) == 1
    assert (edges[0].source, edges[0].target, edges[0].kind) == (qn("p", "C"), qn("p", "D"), AGGREGATION)


def test_two_methods_using_same_target_deduplicate_to_one_edge():
    model = build_model([PackageDef("p", (
        simple_class("D"),
        ClassDef("C", methods=(
            MethodDef("m1", uses=frozenset({qn("p", "D")})),
            MethodDef("m2", uses=frozenset({qn("p", "D")})),
        )),
    ))])
    edges = class_graph(model).edges
    assert len(edges) == 1
    assert edges[0].kind == USE


def test_model_without_references_has_nodes_only():
    model = build_model([PackageDef("p", (simple_class("A"), simple_class("B")))])
    graph = class_graph(model)
    assert len(graph.nodes) == 2
    assert graph.edges == ()


def test_self_typed_attribute_edge_is_recorded():
    model = build_model([PackageDef("p", (
        ClassDef("C", attributes=(AttributeDef("me", qn("p", "C"), ASSOCIATION),)),))])
    edges = class_graph(model).edges
    assert len(edges) == 1 and edges[0].source == edges[0].target


def test_class_graph_node_count_and_determinism():
    rng = random.Random(11)
    for _ in range(50):
        model = random_model(rng)
        graph = class_graph(model)
        assert len(graph.nodes) == sum(len(pkg.classes) for pkg in model.packages)
        assert graph == class_graph(model)
        assert repr(graph) == repr(class_graph(model))
        # self-edges may exist for other kinds, never for inherit
        assert not any(e.source == e.target for e in graph.edges if e.kind == INHERIT)


def test_graphs_are_built_once_per_model_and_leave_equality_alone():
    rng = random.Random(17)
    for _ in range(20):
        model = random_model(rng)
        twin = CodeModel(model.packages)
        assert class_graph(model) is class_graph(model)
        assert package_graph(model) is package_graph(model)
        assert model == twin and repr(model) == repr(twin) and hash(model) == hash(twin)
        assert class_graph(twin) == class_graph(model)
        assert package_graph(twin) == package_graph(model)
        assert pickle.loads(pickle.dumps(model)) == model


def test_inherit_edges_admit_topological_order():
    rng = random.Random(13)
    for _ in range(50):
        model = random_model(rng)
        graph = class_graph(model)
        indegree = {node: 0 for node in graph.nodes}
        out = {node: [] for node in graph.nodes}
        for edge in graph.edges:
            if edge.kind == INHERIT:
                indegree[edge.target] += 1
                out[edge.source].append(edge.target)
        ready = [n for n, d in indegree.items() if d == 0]
        seen = 0
        while ready:
            node = ready.pop()
            seen += 1
            for succ in out[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        assert seen == len(graph.nodes)


# -- package graph ----------------------------------------------------------------


def test_cross_package_use_creates_package_edge():
    model = build_model([
        PackageDef("p", (ClassDef("A", methods=(MethodDef("m", uses=frozenset({qn("q", "B")})),)),)),
        PackageDef("q", (simple_class("B"),)),
    ])
    edges = package_graph(model).edges
    assert [(e.source.package, e.target.package) for e in edges] == [("p", "q")]


def test_intra_package_edges_are_excluded():
    model = build_model([PackageDef("p", (
        simple_class("B"),
        ClassDef("A", methods=(MethodDef("m", uses=frozenset({qn("p", "B")})),)),
    ))])
    assert package_graph(model).edges == ()


def test_mutual_dependencies_give_a_two_cycle():
    model = build_model([
        PackageDef("p", (ClassDef("A", methods=(MethodDef("m", uses=frozenset({qn("q", "B")})),)),)),
        PackageDef("q", (ClassDef("B", is_abstract=False),
                         ClassDef("C", methods=(MethodDef("m", uses=frozenset({qn("p", "A")})),)))),
    ])
    pairs = {(e.source.package, e.target.package) for e in package_graph(model).edges}
    assert pairs == {("p", "q"), ("q", "p")}


def _declared_references(cls):
    refs = set(cls.parents)
    refs |= {attr.target for attr in cls.attributes if attr.target is not None}
    for method in cls.methods:
        refs |= set(method.uses)
    return refs


def test_package_edges_are_exactly_the_image_of_cross_class_references():
    rng = random.Random(17)
    for _ in range(60):
        model = random_model(rng, max_packages=5, max_classes=4)
        # brute force: double loop over declarations straight from the model
        expected = set()
        for source_qn, cls in model.iter_classes():
            for ref in _declared_references(cls):
                if ref.package != source_qn.package:
                    expected.add((source_qn.package, ref.package))
        actual = {(e.source.package, e.target.package) for e in package_graph(model).edges}
        assert actual == expected
        assert set(package_graph(model).nodes) == {qn(p.name) for p in model.packages}
