import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designlens import model as model_module
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
    SourcePosition,
    build_model,
    class_graph,
    package_graph,
    resolve,
    validate_packages,
)
from modelgen import random_model, random_packages


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


@pytest.mark.parametrize("cls", [None, 0, b""])
def test_a_falsy_class_segment_that_is_not_a_string_is_a_type_error(cls):
    with pytest.raises(TypeError):
        QualifiedName("p", cls)
    assert QualifiedName("p", "") == QualifiedName("p") == ("p", "")


_AT = SourcePosition(3, 7, "m.minioo")
_ELSEWHERE = SourcePosition(9, 1, "n.minioo")
_USED = QualifiedName("q", "B")


def _one_of_each(at):
    attribute = AttributeDef("b", _USED, AGGREGATION, at)
    method = MethodDef("m", True, 3, frozenset({"b"}), frozenset({_USED}), at)
    return {
        SourcePosition: at,
        AttributeDef: attribute,
        MethodDef: method,
        ClassDef: ClassDef("A", True, (_USED,), (attribute,), (method,), at),
        PackageDef: PackageDef("p", (ClassDef("A", position=at),), at),
    }


# the reprs the declarations had before they were slotted
_REPRS = {
    SourcePosition: "SourcePosition(line=3, column=7, path='m.minioo')",
    AttributeDef: "AttributeDef(name='b', target=QualifiedName(package='q', cls='B'), "
                  "kind='aggregation')",
    MethodDef: "MethodDef(name='m', is_abstract=True, weight=3, reads=frozenset({'b'}), "
               "uses=frozenset({QualifiedName(package='q', cls='B')}))",
    ClassDef: "ClassDef(name='A', is_abstract=True, parents=(QualifiedName(package='q', "
              "cls='B'),), attributes=(AttributeDef(name='b', target=QualifiedName("
              "package='q', cls='B'), kind='aggregation'),), methods=(MethodDef(name='m', "
              "is_abstract=True, weight=3, reads=frozenset({'b'}), uses=frozenset({"
              "QualifiedName(package='q', cls='B')})),))",
    PackageDef: "PackageDef(name='p', classes=(ClassDef(name='A', is_abstract=False, "
                "parents=(), attributes=(), methods=()),))",
}


@pytest.mark.parametrize("kind", list(_REPRS))
def test_declarations_are_slotted_with_equality_hash_and_repr_unchanged(kind):
    declaration, elsewhere = _one_of_each(_AT)[kind], _one_of_each(_ELSEWHERE)[kind]
    assert not hasattr(declaration, "__dict__")
    assert repr(declaration) == _REPRS[kind]
    compared = tuple(getattr(declaration, f.name) for f in dataclasses.fields(kind) if f.compare)
    assert hash(declaration) == hash(compared)
    if kind is SourcePosition:
        assert declaration != elsewhere
    else:  # the position is left out of equality, hashing and repr
        assert declaration == elsewhere and hash(declaration) == hash(elsewhere)
        assert repr(declaration) == repr(elsewhere)


@pytest.mark.parametrize("kind", list(_REPRS))
def test_slotted_declarations_pickle_copy_and_stay_frozen(kind):
    declaration = _one_of_each(_AT)[kind]
    copies = [pickle.loads(pickle.dumps(declaration, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(declaration), copy.deepcopy(declaration)]
    for duplicate in copies:
        assert type(duplicate) is kind and duplicate == declaration
        assert [getattr(duplicate, f.name) for f in dataclasses.fields(kind)] == \
               [getattr(declaration, f.name) for f in dataclasses.fields(kind)]
    field = dataclasses.fields(kind)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(declaration, field, getattr(declaration, field))
    if kind is not SourcePosition:
        with pytest.raises(dataclasses.FrozenInstanceError):
            declaration.position = None


def test_declarations_keep_their_collections_and_convert_any_other_iterable():
    reads, uses, parents = frozenset({"b"}), frozenset({_USED}), (_USED,)
    method = MethodDef("m", reads=reads, uses=uses)
    cls = ClassDef("A", parents=parents, methods=(method,))
    assert method.reads is reads and method.uses is uses and cls.parents is parents

    class Tagged(frozenset):
        pass

    converted = MethodDef("m", reads=["b"], uses=Tagged(uses))
    assert type(converted.reads) is type(converted.uses) is frozenset and converted == method
    listed = ClassDef("A", parents=[_USED], attributes=iter(()), methods=[method])
    assert type(listed.parents) is type(listed.attributes) is type(listed.methods) is tuple
    assert listed == cls and type(PackageDef("p", [cls]).classes) is tuple


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


@pytest.mark.parametrize("declaration", [PackageDef, ClassDef, AttributeDef, MethodDef])
@pytest.mark.parametrize("name", ["", "bad name", "bad-name", "1st", "café"])
def test_declaration_rejects_a_name_that_is_not_an_identifier(declaration, name):
    # such a name would fail later: in package_graph, mid-validation, or on the
    # interchange round trip
    with pytest.raises(ValueError, match="not an identifier"):
        declaration(name)



@pytest.mark.parametrize("name", [1, b"A", ("A",)])
@pytest.mark.parametrize("declare", [
    PackageDef, ClassDef, AttributeDef, MethodDef,
    lambda name: QualifiedName(name, "A"), lambda name: QualifiedName("p", name),
])
def test_a_name_that_is_not_a_string_is_a_type_error(declare, name):
    with pytest.raises(TypeError):
        declare(name)


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


def test_inheritance_cycle_errors_are_exact_ordered_and_at_first_declarations():
    def at(line, name, *parents):
        return ClassDef(name, parents=tuple(qn("p", parent) for parent in parents),
                        position=SourcePosition(line, 1))

    # p.A closes its cycle only in its second declaration; the error still
    # points at the first
    errors = validate_packages([PackageDef("p", (
        at(1, "D", "C"), at(2, "C", "D"), at(3, "B", "A"), at(4, "A"),
        at(5, "S", "S"), at(6, "A", "B"),
    ))])
    assert [str(e) for e in errors] == [
        "6:1: DuplicateClass at p.A: class 'A' is declared more than once in package 'p'",
        "4:1: InheritanceCycle at p.A: inheritance cycle involving {p.A, p.B}",
        "2:1: InheritanceCycle at p.C: inheritance cycle involving {p.C, p.D}",
        "5:1: InheritanceCycle at p.S: inheritance cycle involving {p.S}",
    ]


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


def _references(cls):
    return [*cls.parents, *(attr.target for attr in cls.attributes if attr.target),
            *(target for method in cls.methods for target in method.uses)]


def _break(packages, edit, rng):
    """`packages` with the one `edit` applied, and the error code the edit must cause
    (None for "none", or when the packages offer nothing to break that way)."""
    declared = [(p, c) for p, pkg in enumerate(packages) for c in range(len(pkg.classes))]

    def name(p, c):
        return qn(packages[p].name, packages[p].classes[c].name)

    def replace_class(p, c, cls):
        classes = list(packages[p].classes)
        if cls is None:
            del classes[c]
        else:
            classes[c] = cls
        packages[p] = PackageDef(packages[p].name, tuple(classes))

    if edit == "drop":  # a class another class references
        referenced = {(ref, name(p, c)) for p, c in declared
                      for ref in _references(packages[p].classes[c])}
        targets = [(p, c) for p, c in declared
                   if any(ref == name(p, c) != by for ref, by in referenced)]
        if targets:
            replace_class(*rng.choice(targets), None)
            return UNRESOLVED_REFERENCE
    elif edit == "duplicate":
        members = [(p, c) for p, c in declared
                   if packages[p].classes[c].attributes or packages[p].classes[c].methods]
        what = rng.choice(["package"] + ["class"] * bool(declared) + ["member"] * bool(members))
        if what == "package":
            packages.append(rng.choice(packages))
            return DUPLICATE_PACKAGE
        if what == "class":
            p, c = rng.choice(declared)
            packages[p] = PackageDef(packages[p].name,
                                     packages[p].classes + (packages[p].classes[c],))
            return DUPLICATE_CLASS
        p, c = rng.choice(members)
        cls = packages[p].classes[c]
        if cls.attributes and (not cls.methods or rng.random() < 0.5):
            cls = dataclasses.replace(cls, attributes=cls.attributes + (cls.attributes[0],))
        else:
            cls = dataclasses.replace(cls, methods=cls.methods + (cls.methods[-1],))
        replace_class(p, c, cls)
        return DUPLICATE_MEMBER
    elif edit == "cycle" and declared:  # an early class extends a later one below it
        p, c = rng.choice(declared)
        early = name(p, c)
        below = {early}
        for q, d in declared:
            if set(packages[q].classes[d].parents) & below:
                below.add(name(q, d))
        cls = packages[p].classes[c]
        replace_class(p, c, dataclasses.replace(
            cls, parents=cls.parents + (rng.choice(sorted(below)),)))
        return INHERITANCE_CYCLE
    elif edit == "abstract":
        concrete = [(p, c) for p, c in declared if not packages[p].classes[c].is_abstract]
        if concrete:
            p, c = rng.choice(concrete)
            cls = packages[p].classes[c]
            replace_class(p, c, dataclasses.replace(
                cls, methods=cls.methods + (MethodDef("abstract_m", is_abstract=True),)))
            return ABSTRACT_METHOD_IN_CONCRETE_CLASS
    return None


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32),
       edit=st.sampled_from(["none", "drop", "duplicate", "cycle", "abstract"]))
def test_constructing_a_model_raises_exactly_the_validation_errors(seed, edit):
    rng = random.Random(seed)
    packages = random_packages(rng)
    code = _break(packages, edit, rng)
    expected = validate_packages(packages)
    assert (code is None) == (expected == []) and code in {None, *(e.code for e in expected)}
    for construct in (CodeModel, build_model):
        if expected:
            with pytest.raises(ModelError) as excinfo:
                construct(packages)
            assert [str(e) for e in excinfo.value.errors] == [str(e) for e in expected]
        else:
            assert construct(packages).packages == tuple(packages)


def test_pickling_and_copying_a_model_do_not_validate_it_again(monkeypatch):
    calls = []

    def counted(packages):
        calls.append(packages)
        return validate_packages(packages)

    monkeypatch.setattr(model_module, "validate_packages", counted)
    rng = random.Random(23)
    for _ in range(20):
        model = random_model(rng)
        package_graph(model)  # something derived travels with the copies
        assert len(calls) == 1
        calls.clear()
        duplicates = [pickle.loads(pickle.dumps(model, protocol))
                      for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        duplicates += [copy.copy(model), copy.deepcopy(model)]
        assert calls == []
        for duplicate in duplicates:
            assert duplicate == model and package_graph(duplicate) == package_graph(model)
        assert calls == []


def test_model_is_immutable():
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
        # each package edge carries the smallest kind among the class edges crossing it
        kinds = {}
        for edge in class_graph(model).edges:
            key = (edge.source.package, edge.target.package)
            if key[0] != key[1]:
                kinds[key] = min(kinds.get(key, edge.kind), edge.kind)
        assert {(e.source.package, e.target.package): e.kind
                for e in package_graph(model).edges} == kinds
