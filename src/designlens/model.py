"""In-memory code model: packages, classes, members, and what is derived from them.

The model is the single input to all analysis.  A `CodeModel` is valid by
construction: building one runs `validate_packages` and raises `ModelError`
with every error found, so every other operation may rely on a valid model.
`_targets` is the one place that spells out the edges a class declares.  One
walk of them per model builds the `edge_table` that the metrics, the package
graph and DIP read; the class graph is built only on request.

Declarations read from MiniOO source carry the `position` they were declared
at, and those decoded from a named interchange file carry the file, so a
validation error can name it; a MiniOO declaration keeps its source offset and
works out its `position` from it when read.  Positions are left out of equality,
hashing and repr: a model is the same whichever frontend it was read from.
"""

from __future__ import annotations

import functools
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, NamedTuple, TypeVar

from .tarjan import cycles, strongly_connected_components

if TYPE_CHECKING:
    from .minioo import ParseError

# Relationship kinds carried by dependency edges.
INHERIT = "inherit"
AGGREGATION = "aggregation"
ASSOCIATION = "association"
USE = "use"

# Attribute kind for primitive-typed attributes (no class target).
NO_TARGET = "none"

# The largest method weight, the largest signed 64-bit integer: any tool writing an
# interchange document can hold it, and no WMC sum comes near the longest integer
# Python converts to text (sys.get_int_max_str_digits()).
MAX_WEIGHT = 2**63 - 1

# Each value rule as `rejected` states it: the constructors, the schema and MiniOO say this.
IDENTIFIER = "an ASCII identifier"
WEIGHT = f"an integer from 1 to {MAX_WEIGHT}"
FLAG = "a bool"
KIND = "'none' without a target, 'association' or 'aggregation' with one"
TARGET_KINDS = (ASSOCIATION, AGGREGATION)  # the kinds of an attribute with a target

# Validation error codes (stable, part of the public contract).
DUPLICATE_PACKAGE = "DuplicatePackage"
DUPLICATE_CLASS = "DuplicateClass"
DUPLICATE_MEMBER = "DuplicateMember"
UNRESOLVED_REFERENCE = "UnresolvedReference"
INHERITANCE_CYCLE = "InheritanceCycle"
ABSTRACT_METHOD_IN_CONCRETE_CLASS = "AbstractMethodInConcreteClass"
UNKNOWN_READ_ATTRIBUTE = "UnknownReadAttribute"


def echo(value: object) -> str:
    """A refused value as errors repeat it: a str's first 40 characters, quoted, else its repr's."""
    return repr(value[:40]) if isinstance(value, str) else repr(value)[:40]


def rejected(rule: str, value: object) -> str:
    """The message for a `value` that breaks `rule`, one of the rules above."""
    return f"expected {rule}, got {echo(value)}"


class Checked:
    """A base for a NamedTuple subclass whose `__new__` checks its values, so that `_make`
    and `_replace` check them too: a NamedTuple's own `_make` is `tuple.__new__`."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))


# The fields of QualifiedName.  A NamedTuple cannot override __new__ in its own
# body, so the validating constructor lives in the subclass.
class _Name(NamedTuple):
    package: str
    cls: str = ""


class QualifiedName(Checked, _Name):
    """A `package.Class` name; the empty class segment denotes a package-level node.

    A tuple, so it compares equal to `(package, cls)`.  Ordering is
    lexicographic on (package, cls) and fixes all deterministic output
    ordering across the analyzer.
    """

    __slots__ = ()

    def __new__(_type, package: str, cls: str = "") -> QualifiedName:
        # a name is an ASCII identifier; `str.isascii` raises TypeError for a non-str
        if not (str.isascii(package) and str.isidentifier(package)):
            raise ValueError(f"package segment: {rejected(IDENTIFIER, package)}")
        if cls != "" and not (str.isascii(cls) and str.isidentifier(cls)):
            raise ValueError(f"class segment: {rejected(IDENTIFIER, cls)}")
        return tuple.__new__(_type, (package, cls))

    def __str__(self) -> str:
        return f"{self.package}.{self.cls}" if self.cls else self.package


class SourcePosition(NamedTuple):
    """Where a declaration or an error was read.  A MiniOO declaration keeps its
    source offset instead, and its `position` is this, worked out when it is read."""

    line: int | None    # 1-based; None in an interchange document
    column: int | None  # 1-based, in Unicode scalar values
    path: str | None = None  # the file read, if any


def _stray(items: Iterable) -> str:
    """The smallest echo among the items that are not a `QualifiedName`: a set's order
    depends on the hash seed, so an error names the same one in every process."""
    return min(echo(item) for item in items if type(item) is not QualifiedName)


class _Slotted:
    """The base of the declarations and `CodeModel`: slotted and immutable.  `==`, `hash`
    and `repr` read `_fields`, the slots not named `_…`.  Pickling and copying restore
    every slot without calling `__init__`."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        same = type(other) is type(self)
        return self._values(self) == self._values(other) if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({values})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __getstate__(self) -> list:
        return [getattr(self, name) for name in self.__slots__]

    def __setstate__(self, state: list) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


class _Declaration:
    """A declaration keeps the position it was given in `_position`.  Reading `position`
    resolves a MiniOO offset, the value with `resolved()`, and gives any other as kept."""

    __slots__ = ()

    @property
    def position(self) -> SourcePosition | None:
        position = self._position
        return position.resolved() if hasattr(position, "resolved") else position

    def _replace(self, **changes: object) -> Any:
        """A copy with `changes`, made by the checking constructor; the position stays as kept."""
        kept = {name: getattr(self, name) for name in self._fields}
        return type(self)(**{**kept, "position": self._position, **changes})


class AttributeDef(_Declaration, _Slotted):
    """A class attribute; `target` is None for primitive-typed attributes."""

    __slots__ = ("name", "target", "kind", "_position")

    def __init__(self, name: str, target: QualifiedName | None = None, kind: str = NO_TARGET,
                 position: SourcePosition | None = None) -> None:
        if not (str.isascii(name) and str.isidentifier(name)):
            raise ValueError(f"attribute name: {rejected(IDENTIFIER, name)}")
        if (kind != NO_TARGET) if target is None else (kind not in TARGET_KINDS):
            raise ValueError(f"attribute {echo(name)}: kind: {rejected(KIND, kind)}")
        if target is not None and type(target) is not QualifiedName:
            raise TypeError(f"attribute {echo(name)}: target {echo(target)} is not a QualifiedName")
        set_name, set_target, set_kind, set_position = _SET_ATTRIBUTE
        set_name(self, name); set_target(self, target); set_kind(self, kind)
        set_position(self, position)


class MethodDef(_Declaration, _Slotted):
    """A method with its complexity weight, instance-variable read-set, and usage targets."""

    __slots__ = ("name", "is_abstract", "weight", "reads", "uses", "_position")

    def __init__(self, name: str, is_abstract: bool = False, weight: int = 1,
                 reads: frozenset[str] = frozenset(), uses: frozenset[QualifiedName] = frozenset(),
                 position: SourcePosition | None = None) -> None:
        if not (str.isascii(name) and str.isidentifier(name)):
            raise ValueError(f"method name: {rejected(IDENTIFIER, name)}")
        reads = reads if type(reads) is frozenset else frozenset(reads)
        uses = uses if type(uses) is frozenset else frozenset(uses)
        if type(weight) is not int or not 1 <= weight <= MAX_WEIGHT:  # nor a bool
            raise (ValueError if type(weight) is int else TypeError)(
                f"method {echo(name)}: weight: {rejected(WEIGHT, weight)}")
        if type(is_abstract) is not bool:
            raise TypeError(f"method {echo(name)}: is_abstract: {rejected(FLAG, is_abstract)}")
        if uses and not all(type(used) is QualifiedName for used in uses):
            raise TypeError(f"method {echo(name)}: used class {_stray(uses)} is not a QualifiedName")
        set_name, set_abstract, set_weight, set_reads, set_uses, set_position = _SET_METHOD
        set_name(self, name); set_abstract(self, is_abstract); set_weight(self, weight)
        set_reads(self, reads); set_uses(self, uses); set_position(self, position)


class ClassDef(_Declaration, _Slotted):
    __slots__ = ("name", "is_abstract", "parents", "attributes", "methods", "_position")

    def __init__(self, name: str, is_abstract: bool = False,
                 parents: tuple[QualifiedName, ...] = (), attributes: tuple[AttributeDef, ...] = (),
                 methods: tuple[MethodDef, ...] = (), position: SourcePosition | None = None) -> None:
        if not (str.isascii(name) and str.isidentifier(name)):
            raise ValueError(f"class name: {rejected(IDENTIFIER, name)}")
        parents = parents if type(parents) is tuple else tuple(parents)
        attributes = attributes if type(attributes) is tuple else tuple(attributes)
        methods = methods if type(methods) is tuple else tuple(methods)
        if type(is_abstract) is not bool:
            raise TypeError(f"class {echo(name)}: is_abstract: {rejected(FLAG, is_abstract)}")
        if parents and not all(type(parent) is QualifiedName for parent in parents):
            raise TypeError(f"class {echo(name)}: parent {_stray(parents)} is not a QualifiedName")
        set_name, set_abstract, set_parents, set_attributes, set_methods, set_position = _SET_CLASS
        set_name(self, name); set_abstract(self, is_abstract); set_parents(self, parents)
        set_attributes(self, attributes); set_methods(self, methods); set_position(self, position)


class PackageDef(_Declaration, _Slotted):
    __slots__ = ("name", "classes", "_position")

    def __init__(self, name: str, classes: tuple[ClassDef, ...] = (),
                 position: SourcePosition | None = None) -> None:
        if not (str.isascii(name) and str.isidentifier(name)):
            raise ValueError(f"package name: {rejected(IDENTIFIER, name)}")
        classes = classes if type(classes) is tuple else tuple(classes)
        set_name, set_classes, set_position = _SET_PACKAGE
        set_name(self, name); set_classes(self, classes); set_position(self, position)


# each declaration's slot setters, in field order
_SET_ATTRIBUTE, _SET_METHOD, _SET_CLASS, _SET_PACKAGE = (
    tuple(kind.__dict__[name].__set__ for name in kind.__slots__)
    for kind in (AttributeDef, MethodDef, ClassDef, PackageDef))

_T = TypeVar("_T")
_K = TypeVar("_K")


class CodeModel(_Slotted):
    """Validated universe of packages and classes: construction raises `ModelError`
    with the complete error list, so no invalid instance exists.  Unpickling and
    copying do not validate again.  Immutable, so whatever is derived from it is
    computed once, on first use, and kept on the model (see `once_per_model`).
    """

    __slots__ = ("packages", "_index", "_derived")

    def __init__(self, packages: Iterable[PackageDef]) -> None:
        packages = tuple(packages)
        errors, index = validate_packages(packages)
        if errors:
            raise ModelError(errors)
        self.__setstate__([packages, index, {}])

    def iter_classes(self) -> Iterator[tuple[QualifiedName, ClassDef]]:
        """Yield (name, class) pairs in declaration order."""
        return iter(self._index.items())


def once_per_model(build: Callable[[CodeModel], _T]) -> Callable[[CodeModel], _T]:
    """Make `build(model)` run once per model; later calls return the result kept on it."""
    key = f"{build.__module__}.{build.__qualname__}"  # a name, so a model still pickles

    @functools.wraps(build)
    def once(model: CodeModel) -> _T:
        try:
            return model._derived[key]
        except KeyError:
            result = model._derived[key] = build(model)
            return result
    return once


class ValidationError(NamedTuple):
    """One semantic defect found while validating declarations."""

    code: str
    locus: str
    message: str
    position: SourcePosition | None = None

    def __str__(self) -> str:
        position = self.position
        prefix = f"{position.line}:{position.column}: " if position and position.line else ""
        return f"{prefix}{self.code} at {self.locus}: {self.message}"


class ModelError(Exception):
    """Raised for input that is not a valid model; `errors` holds every error found: the
    `ParseError`s of a MiniOO parse, or the `ValidationError`s of any other check."""

    def __init__(self, errors: Iterable[ParseError | ValidationError]):
        self.errors = list(errors)
        head = str(self.errors[0]) if self.errors else "unknown error"
        super().__init__(f"{len(self.errors)} error(s): {head}")


class NotFoundError(KeyError):
    """A name does not resolve to a class or package the model declares."""


class DependencyEdge(NamedTuple):
    source: QualifiedName
    target: QualifiedName
    kind: str


# `(nodes, edges)`, each sorted; a package node has an empty class segment
Graph = tuple[tuple[QualifiedName, ...], tuple[DependencyEdge, ...]]


def validate_packages(
    packages: Iterable[PackageDef],
) -> tuple[list[ValidationError], dict[QualifiedName, ClassDef]]:
    """Check every model invariant.  Returns the complete error list (empty if valid)
    and the index of each class's first declaration by name, in declaration order.
    Raises TypeError for an element that is not the declaration its place holds."""
    packages = list(packages)
    errors: list[ValidationError] = []

    seen_packages: set[str] = set()
    for pkg in packages:
        if not isinstance(pkg, PackageDef):
            raise TypeError(f"{pkg!r} is not a PackageDef")
        if pkg.name in seen_packages:
            errors.append(ValidationError(
                DUPLICATE_PACKAGE, pkg.name,
                f"package '{pkg.name}' is declared more than once", pkg.position))
        seen_packages.add(pkg.name)

    declared: dict[QualifiedName, ClassDef] = {}  # each class's first declaration
    named: list[tuple[QualifiedName, ClassDef]] = []  # every declaration, in order
    for pkg in packages:
        seen_classes: set[str] = set()
        for cls in pkg.classes:
            if not isinstance(cls, ClassDef):
                raise TypeError(f"package '{pkg.name}': {cls!r} is not a ClassDef")
            qn = QualifiedName(pkg.name, cls.name)
            if cls.name in seen_classes:
                errors.append(ValidationError(
                    DUPLICATE_CLASS, str(qn),
                    f"class '{cls.name}' is declared more than once in package '{pkg.name}'",
                    cls.position))
            seen_classes.add(cls.name)
            declared.setdefault(qn, cls)
            named.append((qn, cls))

    parents: dict[QualifiedName, list[QualifiedName]] = {}  # declared parents only
    for qn, cls in named:
        attr_names: set[str] = set()
        for attr in cls.attributes:
            if not isinstance(attr, AttributeDef):
                raise TypeError(f"class '{qn}': {attr!r} is not an AttributeDef")
            if attr.name in attr_names:
                errors.append(ValidationError(
                    DUPLICATE_MEMBER, f"{qn}.{attr.name}",
                    f"attribute '{attr.name}' is declared more than once", attr.position))
            attr_names.add(attr.name)
            if attr.target is not None and attr.target not in declared:
                errors.append(ValidationError(
                    UNRESOLVED_REFERENCE, f"{qn}.{attr.name}",
                    f"attribute type '{attr.target}' is not declared", attr.position))

        method_names: set[str] = set()
        for method in cls.methods:
            if not isinstance(method, MethodDef):
                raise TypeError(f"class '{qn}': {method!r} is not a MethodDef")
            if method.name in method_names:
                errors.append(ValidationError(
                    DUPLICATE_MEMBER, f"{qn}.{method.name}",
                    f"method '{method.name}' is declared more than once", method.position))
            method_names.add(method.name)
            if method.is_abstract and not cls.is_abstract:
                errors.append(ValidationError(
                    ABSTRACT_METHOD_IN_CONCRETE_CLASS, f"{qn}.{method.name}",
                    f"abstract method '{method.name}' in concrete class '{cls.name}'",
                    method.position))
            if not method.reads <= attr_names:
                # by each error's text: any read sorts, and reads that tie give equal errors
                for read in sorted(method.reads - attr_names, key=str):
                    errors.append(ValidationError(
                        UNKNOWN_READ_ATTRIBUTE, f"{qn}.{method.name}",
                        f"method '{method.name}' reads unknown attribute '{read}'",
                        method.position))
            if not declared.keys() >= method.uses:
                # a filter, not `uses - declared.keys()`, which walks every class
                for target in sorted(t for t in method.uses if t not in declared):
                    errors.append(ValidationError(
                        UNRESOLVED_REFERENCE, f"{qn}.{method.name}",
                        f"used class '{target}' is not declared", method.position))

        for parent in cls.parents:
            if parent in declared:
                parents.setdefault(qn, []).append(parent)
            else:
                errors.append(ValidationError(
                    UNRESOLVED_REFERENCE, str(qn),
                    f"parent class '{parent}' is not declared", cls.position))

    # a cycle is reported at the first declaration of its smallest member
    for members in cycles(parents, parents):
        names = ", ".join(str(m) for m in members)
        errors.append(ValidationError(
            INHERITANCE_CYCLE, str(members[0]),
            f"inheritance cycle involving {{{names}}}", declared[members[0]].position))
    return errors, declared


def declared(table: Mapping[_K, _T], key: _K, kind: str) -> _T:
    """`table[key]`, from a table keyed by every declared class or package; raises
    NotFoundError, naming the `kind` of `key`, for a key the table does not hold."""
    try:
        return table[key]
    except KeyError:
        raise NotFoundError(f"{kind} '{key}' is not declared") from None


def resolve(model: CodeModel, name: QualifiedName) -> ClassDef:
    """Look up a declared class; raises NotFoundError for a name the model does not declare."""
    return declared(model._index, name, "class")


def _targets(cls: ClassDef) -> Iterator[tuple[QualifiedName, str]]:
    """Every edge `cls` declares, as (target, kind): parents (inherit), attribute
    targets (their kind) and method uses (use), in declaration order.  An edge
    declared more than once is yielded more than once."""
    for parent in cls.parents:
        yield parent, INHERIT
    for attr in cls.attributes:
        if attr.target is not None:
            yield attr.target, attr.kind
    for method in cls.methods:
        for target in method.uses:
            yield target, USE


@once_per_model
def class_graph(model: CodeModel) -> Graph:
    """`(nodes, edges)` of the class graph: inherit, aggregation, association and use
    edges, built once per model and only on request: an analysis never builds it."""
    edges = {DependencyEdge(source, target, kind)
             for source, cls in model.iter_classes() for target, kind in _targets(cls)}
    return tuple(sorted(model._index)), tuple(sorted(edges))


@once_per_model
def package_graph(model: CodeModel) -> Graph:
    """`(nodes, edges)` of the package graph: P->Q iff some class edge crosses from P
    to Q (P != Q), with the smallest kind among the class edges that cross."""
    nodes = tuple(sorted(QualifiedName(pkg.name) for pkg in model.packages))
    edges = tuple(sorted(
        DependencyEdge(QualifiedName(src), QualifiedName(dst), kind)
        for (src, dst), kind in edge_table(model).crossing.items()))
    return nodes, edges


class EdgeTable(NamedTuple):
    dit: dict[QualifiedName, int]
    noc: dict[QualifiedName, int]
    cbo: dict[QualifiedName, int]
    ca: dict[str, int]
    ce: dict[str, int]
    crossing: dict[tuple[str, str], str]  # (source, target) package -> smallest kind
    dip: set[tuple[QualifiedName, QualifiedName, str]]  # non-inherit, abstract -> concrete


@once_per_model
def edge_table(model: CodeModel) -> EdgeTable:
    """DIT, NOC and CBO of every class, Ca and Ce of every package, each package
    crossing and the DIP edges, from one walk of the edges each class declares."""
    index = model._index
    coupled: dict[QualifiedName, set[QualifiedName]] = {name: set() for name in index}
    incoming: dict[str, set[QualifiedName]] = {pkg.name: set() for pkg in model.packages}
    outgoing: dict[str, set[QualifiedName]] = {pkg.name: set() for pkg in model.packages}
    crossing: dict[tuple[str, str], str] = {}
    dip: set[tuple[QualifiedName, QualifiedName, str]] = set()
    parents: dict[QualifiedName, tuple[QualifiedName, ...]] = {}
    for source, cls in index.items():
        package, abstract, linked_out = source.package, cls.is_abstract, coupled[source]
        if cls.parents:
            parents[source] = cls.parents
        for target, kind in _targets(cls):
            if target.package != package:
                incoming[target.package].add(source)
                outgoing[package].add(target)
                key = (package, target.package)
                if kind < crossing.setdefault(key, kind):
                    crossing[key] = kind
            if kind != INHERIT:
                if target != source:
                    linked_out.add(target)
                    coupled[target].add(source)
                if abstract and not index[target].is_abstract:
                    dip.add((source, target, kind))
    # Inheritance is acyclic, so Tarjan yields one class at a time, each after every
    # class it extends; only classes with parents need a walk.
    depths, children = dict.fromkeys(index, 0), dict.fromkeys(index, 0)
    for [name] in strongly_connected_components(parents, parents):
        direct = parents.get(name, ())
        depths[name] = 1 + max(depths[p] for p in direct) if direct else 0
        for parent in dict.fromkeys(direct):
            children[parent] += 1
    cbo, ca, ce = ({key: len(members) for key, members in sets.items()}
                   for sets in (coupled, incoming, outgoing))
    return EdgeTable(depths, children, cbo, ca, ce, crossing, dip)
