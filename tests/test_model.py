import copy
import dataclasses
import inspect
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import designlens
from designlens import model as model_module
from designlens.frontends import read_interchange, write_interchange
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
    class_graph,
    package_graph,
    resolve,
    validate_packages,
)
from modelgen import random_model, random_packages
from test_principles import is_dag, raw_package_references


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


# the start of each rejection message, up to the rejected value
_IDENTIFIER = "expected an ASCII identifier, got"
_WEIGHT = f"expected an integer from 1 to {MAX_WEIGHT}, got"
_KIND = "expected 'none' without a target, 'association' or 'aggregation' with one, got"


def test_a_changed_qualified_name_is_checked_too():
    # a NamedTuple's own `_make`, and so its `_replace`, is `tuple.__new__`: a bad segment
    # passed, a class named it as a parent, and the interchange written was unreadable
    with pytest.raises(ValueError, match=f"^class segment: {_IDENTIFIER} 'bad name'$"):
        QualifiedName("a", "B")._replace(cls="bad name")
    with pytest.raises(ValueError, match=f"^package segment: {_IDENTIFIER} '1p'$"):
        QualifiedName._make(["1p", "B"])
    with pytest.raises(TypeError):
        QualifiedName._make(["a", "B", "C"])
    moved = QualifiedName("a", "B")._replace(package="c")
    assert type(moved) is QualifiedName and moved == ("c", "B")
    assert type(QualifiedName._make(("a",))) is QualifiedName


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


# the fields that equality, hashing and repr read: not a declaration's position
_COMPARED = {
    SourcePosition: ("line", "column", "path"),
    AttributeDef: ("name", "target", "kind"),
    MethodDef: ("name", "is_abstract", "weight", "reads", "uses"),
    ClassDef: ("name", "is_abstract", "parents", "attributes", "methods"),
    PackageDef: ("name", "classes"),
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
    assert kind._fields == _COMPARED[kind]
    assert hash(declaration) == hash(tuple(getattr(declaration, name) for name in kind._fields))
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
    every = _COMPARED[kind] + (() if kind is SourcePosition else ("position",))
    for duplicate in copies:
        assert type(duplicate) is kind and duplicate == declaration
        assert [getattr(duplicate, name) for name in every] == \
               [getattr(declaration, name) for name in every]
    for name in every:  # the position too
        with pytest.raises(AttributeError):
            setattr(declaration, name, getattr(declaration, name))
        with pytest.raises(AttributeError):
            delattr(declaration, name)
        assert getattr(declaration, name) == getattr(copies[0], name)


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
    with pytest.raises(ValueError, match=f"^method 'm': weight: {_WEIGHT} 9223372036854775808$"):
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
    with pytest.raises(ValueError) as caught:
        declaration(name)
    assert str(caught.value) == f"{declaration.__name__[:-3].lower()} name: {_IDENTIFIER} {name!r}"



@pytest.mark.parametrize("name", [1, b"A", ("A",)])
@pytest.mark.parametrize("declare", [
    PackageDef, ClassDef, AttributeDef, MethodDef,
    lambda name: QualifiedName(name, "A"), lambda name: QualifiedName("p", name),
])
def test_a_name_that_is_not_a_string_is_a_type_error(declare, name):
    with pytest.raises(TypeError):
        declare(name)


@pytest.mark.parametrize("declare,message", [
    # a float weight used to fail only in build_report; a bool weight or an int
    # is_abstract was written to interchange, which then refused to read it back
    (lambda: MethodDef("m", weight=2.5),
     f"method 'm': weight: expected an integer from 1 to {MAX_WEIGHT}, got 2.5"),
    (lambda: MethodDef("m", weight=True),
     f"method 'm': weight: expected an integer from 1 to {MAX_WEIGHT}, got True"),
    (lambda: MethodDef("m", is_abstract=1), "method 'm': is_abstract: expected a bool, got 1"),
    (lambda: ClassDef("A", is_abstract=1), "class 'A': is_abstract: expected a bool, got 1"),
])
def test_a_weight_that_is_not_an_int_or_a_flag_that_is_not_a_bool_is_a_type_error(
        declare, message):
    with pytest.raises(TypeError) as caught:
        declare()
    assert str(caught.value) == message


@pytest.mark.parametrize("declare,message", [
    (lambda: ClassDef("A", parents=[("q", "B")]),
     "class 'A': parent ('q', 'B') is not a QualifiedName"),
    (lambda: AttributeDef("a", ("q", "B"), ASSOCIATION),
     "attribute 'a': target ('q', 'B') is not a QualifiedName"),
    (lambda: MethodDef("m", uses=[_USED, "q.C", ("q", "B")]),
     "method 'm': used class 'q.C' is not a QualifiedName"),
])
def test_a_parent_target_or_used_class_that_is_not_a_qualified_name_is_a_type_error(
        declare, message):
    # a plain tuple equals its QualifiedName, so validation passed it; then the metrics
    # read its `.package`, and interchange wrote "('q', 'B')", which it cannot read back
    with pytest.raises(TypeError) as caught:
        declare()
    assert str(caught.value) == message


@pytest.mark.parametrize("packages,message", [
    (["p"], "'p' is not a PackageDef"),
    ([PackageDef("p", [ClassDef("A"), AttributeDef("x")])],
     "package 'p': AttributeDef(name='x', target=None, kind='none') is not a ClassDef"),
    ([PackageDef("p", [ClassDef("A", attributes=["x"])])],
     "class 'p.A': 'x' is not an AttributeDef"),
    ([PackageDef("p", [ClassDef("A", attributes=[MethodDef("m")])])],
     "class 'p.A': MethodDef(name='m', is_abstract=False, weight=1, reads=frozenset(), "
     "uses=frozenset()) is not an AttributeDef"),
    ([PackageDef("p", [ClassDef("A", methods=[MethodDef("m"), AttributeDef("x")])])],
     "class 'p.A': AttributeDef(name='x', target=None, kind='none') is not a MethodDef"),
])
def test_an_element_that_is_not_the_declaration_its_place_holds_is_a_type_error(
        packages, message):
    # validation read the element's fields, so the model ended in an AttributeError
    with pytest.raises(TypeError) as caught:
        CodeModel(packages)
    assert str(caught.value) == message


# -- the constructors against the generated ones they replaced ---------------------


def _echo(value):
    return repr(value[:40]) if isinstance(value, str) else repr(value)[:40]


@dataclasses.dataclass(frozen=True, slots=True)
class _ReferenceAttribute:
    name: str
    target: QualifiedName | None = None
    kind: str = model_module.NO_TARGET
    position: SourcePosition | None = dataclasses.field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not (str.isascii(self.name) and str.isidentifier(self.name)):
            raise ValueError(f"attribute name: {_IDENTIFIER} {_echo(self.name)}")
        if self.target is None:
            if self.kind != model_module.NO_TARGET:
                raise ValueError(f"attribute {_echo(self.name)}: kind: {_KIND} {_echo(self.kind)}")
        elif self.kind not in (ASSOCIATION, AGGREGATION):
            raise ValueError(f"attribute {_echo(self.name)}: kind: {_KIND} {_echo(self.kind)}")


@dataclasses.dataclass(frozen=True, slots=True)
class _ReferenceMethod:
    name: str
    is_abstract: bool = False
    weight: int = 1
    reads: frozenset[str] = frozenset()
    uses: frozenset[QualifiedName] = frozenset()
    position: SourcePosition | None = dataclasses.field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not (str.isascii(self.name) and str.isidentifier(self.name)):
            raise ValueError(f"method name: {_IDENTIFIER} {_echo(self.name)}")
        if type(self.reads) is not frozenset:
            object.__setattr__(self, "reads", frozenset(self.reads))
        if type(self.uses) is not frozenset:
            object.__setattr__(self, "uses", frozenset(self.uses))
        if not 1 <= self.weight <= MAX_WEIGHT:
            raise ValueError(f"method {_echo(self.name)}: weight: {_WEIGHT} {_echo(self.weight)}")


@dataclasses.dataclass(frozen=True, slots=True)
class _ReferenceClass:
    name: str
    is_abstract: bool = False
    parents: tuple[QualifiedName, ...] = ()
    attributes: tuple[AttributeDef, ...] = ()
    methods: tuple[MethodDef, ...] = ()
    position: SourcePosition | None = dataclasses.field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not (str.isascii(self.name) and str.isidentifier(self.name)):
            raise ValueError(f"class name: {_IDENTIFIER} {_echo(self.name)}")
        if type(self.parents) is not tuple:
            object.__setattr__(self, "parents", tuple(self.parents))
        if type(self.attributes) is not tuple:
            object.__setattr__(self, "attributes", tuple(self.attributes))
        if type(self.methods) is not tuple:
            object.__setattr__(self, "methods", tuple(self.methods))


@dataclasses.dataclass(frozen=True, slots=True)
class _ReferencePackage:
    name: str
    classes: tuple[ClassDef, ...] = ()
    position: SourcePosition | None = dataclasses.field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not (str.isascii(self.name) and str.isidentifier(self.name)):
            raise ValueError(f"package name: {_IDENTIFIER} {_echo(self.name)}")
        if type(self.classes) is not tuple:
            object.__setattr__(self, "classes", tuple(self.classes))


# each declaration as its generated `__init__` and `__post_init__` built it before
_REFERENCE = {AttributeDef: _ReferenceAttribute, MethodDef: _ReferenceMethod,
              ClassDef: _ReferenceClass, PackageDef: _ReferencePackage}


class _Tagged(frozenset):
    pass


def _collections(items):
    """Recipes for a fresh collection of some of `items` on each call (a generator is
    used up by the first constructor it reaches): `(hashable items, with an unhashable
    one)`. A frozenset cannot be made of unhashable items, so only the others hold one."""
    shapes = st.sampled_from([frozenset, _Tagged, tuple, list, iter])
    hashable = st.tuples(shapes, st.lists(items, max_size=3))
    unhashable = st.tuples(st.sampled_from([tuple, list, iter]),
                           st.lists(items, max_size=2).map(lambda kept: [*kept, []]))
    return tuple(recipes.map(lambda recipe: lambda: recipe[0](recipe[1]))
                 for recipes in (hashable, unhashable))


def _fixed(good, bad):
    return tuple(st.sampled_from(values).map(lambda value: lambda: value)
                 for values in (good, bad))


_POSITION = _fixed([None, SourcePosition(3, 7, "m.minioo"), "anything"], [None])  # any value
_NAMES = _fixed(["m", "A_1"], ["", "bad name", "1st", "café", "ß", 1, b"A", ("A",), None])
_FLAGS = _fixed([False, True], [0, 1, None, "yes", 2.5])
# each field's (good, bad) values; a good target and a good kind may still not match
_ARGUMENTS = {
    AttributeDef: {"name": _NAMES, "target": _fixed([None, _USED], ["q.B", ("q", "B"), 1]),
                   "kind": _fixed([model_module.NO_TARGET, ASSOCIATION, AGGREGATION],
                                  ["bogus", "Association", 1, None]),
                   "position": _POSITION},
    MethodDef: {"name": _NAMES, "is_abstract": _FLAGS,
                "weight": _fixed([1, 2, MAX_WEIGHT], [0, MAX_WEIGHT + 1, -1, True, False, 2.5,
                                                      1.0, "3", None]),
                "reads": _collections(st.sampled_from(["b", "x y", 1])),
                "uses": _collections(st.sampled_from(
                    [_USED, QualifiedName("p"), ("q", "B"), "q.B"])),
                "position": _POSITION},
    ClassDef: {"name": _NAMES, "is_abstract": _FLAGS,
               "parents": _collections(st.sampled_from([_USED, ("q", "B")])),
               "attributes": _collections(st.just(AttributeDef("b"))),
               "methods": _collections(st.just(MethodDef("m"))), "position": _POSITION},
    PackageDef: {"name": _NAMES, "classes": _collections(st.just(ClassDef("A"))),
                 "position": _POSITION},
}


@st.composite
def _calls(draw):
    """A declaration kind and a recipe for its arguments: a bad value for about a third
    of the fields, a positional prefix, then keywords for some of the rest (the name
    always)."""
    kind = draw(st.sampled_from(list(_ARGUMENTS)))
    names = list(_ARGUMENTS[kind])
    recipes = {name: draw(_ARGUMENTS[kind][name][draw(st.integers(0, 2)) == 0])
               for name in names}
    positional = draw(st.integers(0, len(names)))
    keywords = [name for name in names[positional:]
                if name == "name" or draw(st.booleans())]

    def arguments():
        return ([recipes[name]() for name in names[:positional]],
                {name: recipes[name]() for name in keywords})
    return kind, arguments


def _outcome(build, arguments):
    args, kwargs = arguments
    try:
        return build(*args, **kwargs), args, kwargs
    except Exception as exc:
        return exc, args, kwargs


def _names(values):
    return all(type(value) is QualifiedName for value in values)


# the rejections the generated constructors did not make, each checked after every
# older one, in the order each constructor checks them: (field, whether a value
# passes, the message's words after the declaration, a valid value)
_NEW_REJECTIONS = (
    ("weight", lambda value: type(value) is int, f"weight: {_WEIGHT} .*", 1),
    ("is_abstract", lambda value: type(value) is bool, "is_abstract: expected a bool, got .*",
     False),
    ("target", lambda value: value is None or type(value) is QualifiedName,
     "target .* is not a QualifiedName", _USED),
    ("uses", _names, "used class .* is not a QualifiedName", ()),
    ("parents", _names, "parent .* is not a QualifiedName", ()),
)


@settings(max_examples=500, deadline=None)
@given(call=_calls())
def test_the_constructors_build_and_reject_as_the_generated_ones_did(call):
    kind, arguments = call
    expected, old_args, old_kwargs = _outcome(_REFERENCE[kind], arguments())
    actual, new_args, new_kwargs = _outcome(kind, arguments())
    if isinstance(actual, Exception):
        if isinstance(expected, Exception) and type(actual) is type(expected) \
                and str(actual) == str(expected):
            return
        # a new rejection, once every check before it has passed (the same call with
        # the rejected values made valid builds)
        assert type(actual) is TypeError
        names = list(_ARGUMENTS[kind])
        args, kwargs = arguments()  # afresh: reading a generator uses it up
        bound = dict(zip(names, args), **kwargs)
        bad = [(words, name, valid) for name, passes, words, valid in _NEW_REJECTIONS
               if name in bound and not passes(bound[name])]
        assert bad and re.fullmatch(rf".*: {bad[0][0]}", str(actual))
        args, kwargs = arguments()
        valid = {name: value for _, name, value in bad}
        _REFERENCE[kind](*[valid.get(name, value) for name, value in zip(names, args)],
                         **{name: valid.get(name, value) for name, value in kwargs.items()})
        return
    assert not isinstance(expected, Exception), expected
    passed, passed_before = [*new_args, *new_kwargs.values()], [*old_args, *old_kwargs.values()]
    for name in _ARGUMENTS[kind]:
        new, old = getattr(actual, name), getattr(expected, name)
        assert type(new) is type(old) and new == old
        # a collection passed in is kept as that very object, or converted, as before
        assert any(new is value for value in passed) == any(old is value for value in passed_before)


@pytest.mark.parametrize("kind", [AttributeDef, MethodDef, ClassDef, PackageDef])
def test_each_constructor_is_written_once_with_the_signature_of_its_fields(kind):
    # the parameters of the generated constructor: its fields, in order, with their defaults
    parameters = list(inspect.signature(kind).parameters.values())
    assert [(p.name, p.default, p.kind) for p in parameters] == [
        (f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default,
         inspect.Parameter.POSITIONAL_OR_KEYWORD) for f in dataclasses.fields(_REFERENCE[kind])]
    assert [p.name for p in parameters] == [*kind._fields, "position"]
    assert list(kind.__slots__) == [*kind._fields, "_position"]
    assert kind.__init__.__code__.co_filename == model_module.__file__
    assert not hasattr(kind, "__post_init__")


def test_replace_still_runs_the_checks():
    method, cls = MethodDef("m", reads=frozenset({"b"})), ClassDef("A", position=_AT)
    with pytest.raises(ValueError, match=f"^method 'm': weight: {_WEIGHT} 0$"):
        method._replace(weight=0)
    with pytest.raises(TypeError, match="^class 'A': is_abstract: expected a bool, got 1$"):
        cls._replace(is_abstract=1)
    with pytest.raises(ValueError, match=f"^attribute 'b': kind: {_KIND} 'association'$"):
        AttributeDef("b")._replace(kind=ASSOCIATION)
    with pytest.raises(ValueError, match=f"^package name: {_IDENTIFIER} 'bad name'$"):
        PackageDef("p")._replace(name="bad name")
    assert type(method._replace(uses=[_USED]).uses) is frozenset
    moved = cls._replace(parents=[_USED])
    assert moved.parents == (_USED,) and moved.position == _AT and type(moved) is ClassDef


_ACCEPTED_WEIGHTS = [1, 2, MAX_WEIGHT, 2.5, 1.0, True]
_ACCEPTED_FLAGS = [False, True, 0, 1]


@st.composite
def _accepted_models(draw):
    """A model of whatever declarations the constructors accept, drawn with values the
    interchange format cannot hold; a declaration the constructors reject is left out."""
    def accepted(kind, *args):
        try:
            return [kind(*args)]
        except (TypeError, ValueError):
            return []

    packages = []
    for p in range(draw(st.integers(1, 2))):
        classes = []
        for c in range(draw(st.integers(0, 2))):
            abstract = draw(st.sampled_from(_ACCEPTED_FLAGS))
            attributes = [AttributeDef(f"f{a}") for a in range(draw(st.integers(0, 2)))]
            methods = []
            for m in range(draw(st.integers(0, 2))):
                reads = draw(st.lists(st.sampled_from([a.name for a in attributes]),
                                      max_size=2)) if attributes else []
                uses = draw(st.sampled_from([[], [QualifiedName(f"p{p}", f"C{c}")],
                                             [(f"p{p}", f"C{c}")]]))
                methods += accepted(MethodDef, f"m{m}",
                                    abstract and draw(st.sampled_from(_ACCEPTED_FLAGS)),
                                    draw(st.sampled_from(_ACCEPTED_WEIGHTS)), reads, uses)
            classes += accepted(ClassDef, f"C{c}", abstract, (), attributes, methods)
        packages.append(PackageDef(f"p{p}", classes))
    return CodeModel(tuple(packages))


@settings(max_examples=150, deadline=None)
@given(model=_accepted_models())
def test_any_model_the_constructors_accept_round_trips_through_interchange(model):
    assert read_interchange(write_interchange(model)) == model


# -- validation ------------------------------------------------------------------


def test_two_isolated_packages_build_cleanly():
    model = CodeModel([
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
    errors, _ = validate_packages(packages)
    assert [e.code for e in errors] == [INHERITANCE_CYCLE]
    assert "p.A" in errors[0].message and "p.B" in errors[0].message
    with pytest.raises(ModelError) as excinfo:
        CodeModel(packages)
    assert str(excinfo.value) == f"1 error(s): {errors[0]}"


def test_self_parent_is_an_inheritance_cycle():
    errors, _ = validate_packages([
        PackageDef("p", (simple_class("A", parents=(qn("p", "A"),)),))])
    assert [e.code for e in errors] == [INHERITANCE_CYCLE]


def test_inheritance_cycle_errors_are_exact_ordered_and_at_first_declarations():
    def at(line, name, *parents):
        return ClassDef(name, parents=tuple(qn("p", parent) for parent in parents),
                        position=SourcePosition(line, 1))

    # p.A closes its cycle only in its second declaration; the error still
    # points at the first
    errors, _ = validate_packages([PackageDef("p", (
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
    errors, _ = validate_packages([PackageDef("p", (
        ClassDef("A", is_abstract=False, methods=(MethodDef("m", is_abstract=True),)),))])
    assert [e.code for e in errors] == [ABSTRACT_METHOD_IN_CONCRETE_CLASS]
    assert errors[0].locus == "p.A.m"


def test_abstract_method_in_abstract_class_is_fine():
    assert validate_packages([PackageDef("p", (
        ClassDef("A", is_abstract=True, methods=(MethodDef("m", is_abstract=True),)),))])[0] == []


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
    codes = sorted(e.code for e in validate_packages(packages)[0])
    assert codes == sorted([DUPLICATE_PACKAGE, DUPLICATE_CLASS, DUPLICATE_MEMBER, DUPLICATE_MEMBER])


def test_unresolved_references_reported_for_parent_attribute_and_use():
    packages = [PackageDef("p", (
        ClassDef("A",
                 parents=(qn("q", "Gone"),),
                 attributes=(AttributeDef("x", qn("q", "Gone2"), ASSOCIATION),),
                 methods=(MethodDef("m", uses=frozenset({qn("q", "Gone3")})),)),))]
    errors, _ = validate_packages(packages)
    assert [e.code for e in errors] == [UNRESOLVED_REFERENCE] * 3
    assert {e.locus for e in errors} == {"p.A", "p.A.x", "p.A.m"}


def test_unknown_read_attribute_reported():
    errors, _ = validate_packages([PackageDef("p", (
        ClassDef("A", methods=(MethodDef("m", reads=frozenset({"ghost"})),)),))])
    assert [e.code for e in errors] == [UNKNOWN_READ_ATTRIBUTE]
    assert "ghost" in errors[0].message


def test_unknown_reads_of_mixed_types_are_reported_in_text_order():
    # `1 < "b"` raises, and a set's order depends on the hash seed
    with pytest.raises(ModelError) as excinfo:
        CodeModel([PackageDef("p", (
            ClassDef("A", methods=(MethodDef("m", reads=[1, "b", 2.5, "a"]),)),))])
    assert [e.message for e in excinfo.value.errors] == [
        f"method 'm' reads unknown attribute '{read}'" for read in ("1", "2.5", "a", "b")]


def test_validation_reports_all_errors_not_just_the_first():
    packages = [
        PackageDef("p", (
            ClassDef("A", parents=(qn("p", "B"),)),
            ClassDef("B", parents=(qn("p", "A"),),
                     methods=(MethodDef("m", is_abstract=True, reads=frozenset({"nope"})),)),
        )),
        PackageDef("p", ()),
    ]
    codes = {e.code for e in validate_packages(packages)[0]}
    assert codes == {DUPLICATE_PACKAGE, INHERITANCE_CYCLE,
                     ABSTRACT_METHOD_IN_CONCRETE_CLASS, UNKNOWN_READ_ATTRIBUTE}


def test_validation_is_total_and_revalidation_is_clean():
    rng = random.Random(7)
    for _ in range(100):
        model = random_model(rng)
        assert validate_packages(model.packages) == ([], model._index)


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
        errors, _ = validate_packages(packages)
        assert errors, packages
        with pytest.raises(ModelError) as excinfo:
            CodeModel(packages)
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
            cls = cls._replace(attributes=cls.attributes + (cls.attributes[0],))
        else:
            cls = cls._replace(methods=cls.methods + (cls.methods[-1],))
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
        replace_class(p, c, cls._replace(parents=cls.parents + (rng.choice(sorted(below)),)))
        return INHERITANCE_CYCLE
    elif edit == "abstract":
        concrete = [(p, c) for p, c in declared if not packages[p].classes[c].is_abstract]
        if concrete:
            p, c = rng.choice(concrete)
            cls = packages[p].classes[c]
            replace_class(p, c, cls._replace(
                methods=cls.methods + (MethodDef("abstract_m", is_abstract=True),)))
            return ABSTRACT_METHOD_IN_CONCRETE_CLASS
    return None


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32),
       edit=st.sampled_from(["none", "drop", "duplicate", "cycle", "abstract"]))
def test_constructing_a_model_raises_exactly_the_validation_errors(seed, edit):
    rng = random.Random(seed)
    packages = random_packages(rng)
    code = _break(packages, edit, rng)
    expected, _ = validate_packages(packages)
    assert (code is None) == (expected == []) and code in {None, *(e.code for e in expected)}
    if expected:
        with pytest.raises(ModelError) as excinfo:
            CodeModel(packages)
        assert [str(e) for e in excinfo.value.errors] == [str(e) for e in expected]
    else:
        assert CodeModel(packages).packages == tuple(packages)


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


def test_a_model_names_each_class_once(monkeypatch):
    packages = [PackageDef("p", (simple_class("A"), simple_class("B", parents=(qn("p", "A"),)))),
                PackageDef("q", (simple_class("C"),))]
    made = []

    def counted(*segments):
        made.append(segments)
        return QualifiedName(*segments)

    monkeypatch.setattr(model_module, "QualifiedName", counted)
    model = CodeModel(packages)
    assert made == [("p", "A"), ("p", "B"), ("q", "C")]
    assert [*model._index] == [qn("p", "A"), qn("p", "B"), qn("q", "C")]


def test_a_model_is_built_one_way():
    assert not hasattr(designlens, "build_model") and not hasattr(model_module, "build_model")
    assert {"build_model", "validate_packages"}.isdisjoint(designlens.__all__)


def test_model_is_immutable():
    model = CodeModel([PackageDef("p", (simple_class("A"),))])
    with pytest.raises(AttributeError):
        model.packages = ()
    with pytest.raises(AttributeError):
        del model._derived
    with pytest.raises(AttributeError):
        model.packages[0].classes[0].name = "B"
    assert not hasattr(model, "__dict__") and model.packages[0].classes[0].name == "A"


def test_resolve_missing_raises_not_found():
    model = CodeModel([PackageDef("p", (simple_class("A"),))])
    with pytest.raises(NotFoundError) as excinfo:
        resolve(model, qn("p", "Z"))
    assert excinfo.value.args == ("class 'p.Z' is not declared",)


# -- class graph -----------------------------------------------------------------


def test_attribute_creates_edge_of_declared_kind():
    model = CodeModel([PackageDef("p", (
        simple_class("D"),
        ClassDef("C", attributes=(AttributeDef("x", qn("p", "D"), AGGREGATION),)),
    ))])
    _, edges = class_graph(model)
    assert len(edges) == 1
    assert (edges[0].source, edges[0].target, edges[0].kind) == (qn("p", "C"), qn("p", "D"), AGGREGATION)


def test_two_methods_using_same_target_deduplicate_to_one_edge():
    model = CodeModel([PackageDef("p", (
        simple_class("D"),
        ClassDef("C", methods=(
            MethodDef("m1", uses=frozenset({qn("p", "D")})),
            MethodDef("m2", uses=frozenset({qn("p", "D")})),
        )),
    ))])
    _, edges = class_graph(model)
    assert len(edges) == 1
    assert edges[0].kind == USE


def test_model_without_references_has_nodes_only():
    model = CodeModel([PackageDef("p", (simple_class("A"), simple_class("B")))])
    nodes, edges = class_graph(model)
    assert len(nodes) == 2
    assert edges == ()


def test_self_typed_attribute_edge_is_recorded():
    model = CodeModel([PackageDef("p", (
        ClassDef("C", attributes=(AttributeDef("me", qn("p", "C"), ASSOCIATION),)),))])
    _, edges = class_graph(model)
    assert len(edges) == 1 and edges[0].source == edges[0].target


def test_class_graph_node_count_and_determinism():
    rng = random.Random(11)
    for _ in range(50):
        model = random_model(rng)
        graph = class_graph(model)
        nodes, edges = graph
        assert len(nodes) == sum(len(pkg.classes) for pkg in model.packages)
        assert graph == class_graph(model)
        assert repr(graph) == repr(class_graph(model))
        # self-edges may exist for other kinds, never for inherit
        assert not any(e.source == e.target for e in edges if e.kind == INHERIT)


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
        nodes, edges = class_graph(model)
        assert is_dag(nodes, [edge for edge in edges if edge.kind == INHERIT])


# -- package graph ----------------------------------------------------------------


def test_cross_package_use_creates_package_edge():
    model = CodeModel([
        PackageDef("p", (ClassDef("A", methods=(MethodDef("m", uses=frozenset({qn("q", "B")})),)),)),
        PackageDef("q", (simple_class("B"),)),
    ])
    _, edges = package_graph(model)
    assert [(e.source.package, e.target.package) for e in edges] == [("p", "q")]


def test_intra_package_edges_are_excluded():
    model = CodeModel([PackageDef("p", (
        simple_class("B"),
        ClassDef("A", methods=(MethodDef("m", uses=frozenset({qn("p", "B")})),)),
    ))])
    assert package_graph(model) == ((qn("p"),), ())


def test_mutual_dependencies_give_a_two_cycle():
    model = CodeModel([
        PackageDef("p", (ClassDef("A", methods=(MethodDef("m", uses=frozenset({qn("q", "B")})),)),)),
        PackageDef("q", (ClassDef("B", is_abstract=False),
                         ClassDef("C", methods=(MethodDef("m", uses=frozenset({qn("p", "A")})),)))),
    ])
    _, edges = package_graph(model)
    pairs = {(e.source.package, e.target.package) for e in edges}
    assert pairs == {("p", "q"), ("q", "p")}


def test_package_edges_are_exactly_the_image_of_cross_class_references():
    rng = random.Random(17)
    for _ in range(60):
        model = random_model(rng, max_packages=5, max_classes=4)
        nodes, edges = package_graph(model)
        actual = {(e.source.package, e.target.package) for e in edges}
        assert actual == raw_package_references(model)
        assert set(nodes) == {qn(p.name) for p in model.packages}
        # each package edge carries the smallest kind among the class edges crossing it
        kinds = {}
        _, class_edges = class_graph(model)
        for edge in class_edges:
            key = (edge.source.package, edge.target.package)
            if key[0] != key[1]:
                kinds[key] = min(kinds.get(key, edge.kind), edge.kind)
        assert {(e.source.package, e.target.package): e.kind for e in edges} == kinds
