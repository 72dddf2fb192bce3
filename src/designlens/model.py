"""In-memory code model: packages, classes, members, and what is derived from them.

The model is the single input to all analysis.  A `CodeModel` is valid by
construction: building one runs `validate_packages` and raises `ModelError`
with every error found, so every other operation may rely on a valid model.
`_targets` is the one place that spells out the edges a class declares.  One
walk of them per model builds the `edge_table` that the metrics, the package
graph and DIP read; the class graph is built only on request.

Declarations read from MiniOO source carry the `position` they were declared
at, and those decoded from a named interchange file carry the file, so a
validation error can name it.  Positions are left out of equality, hashing
and repr: a model is the same whichever frontend it was read from.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

from .tarjan import cycles, strongly_connected_components

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

# Validation error codes (stable, part of the public contract).
DUPLICATE_PACKAGE = "DuplicatePackage"
DUPLICATE_CLASS = "DuplicateClass"
DUPLICATE_MEMBER = "DuplicateMember"
UNRESOLVED_REFERENCE = "UnresolvedReference"
INHERITANCE_CYCLE = "InheritanceCycle"
ABSTRACT_METHOD_IN_CONCRETE_CLASS = "AbstractMethodInConcreteClass"
UNKNOWN_READ_ATTRIBUTE = "UnknownReadAttribute"


# The fields of QualifiedName.  A NamedTuple cannot override __new__ in its own
# body, so the validating constructor lives in the subclass.
class _Name(NamedTuple):
    package: str
    cls: str = ""


class QualifiedName(_Name):
    """A `package.Class` name; the empty class segment denotes a package-level node.

    A tuple, so it compares equal to `(package, cls)`.  Ordering is
    lexicographic on (package, cls) and fixes all deterministic output
    ordering across the analyzer.
    """

    __slots__ = ()

    def __new__(_type, package: str, cls: str = "") -> QualifiedName:
        # a name is an ASCII identifier; `str.isascii` raises TypeError for a non-str
        if not (str.isascii(package) and str.isidentifier(package)):
            raise ValueError(f"invalid package segment {package!r}")
        if cls != "" and not (str.isascii(cls) and str.isidentifier(cls)):
            raise ValueError(f"invalid class segment {cls!r}")
        return tuple.__new__(_type, (package, cls))

    def __str__(self) -> str:
        return f"{self.package}.{self.cls}" if self.cls else self.package


@dataclass(frozen=True, slots=True)
class SourcePosition:
    """Where a declaration or an error was read.  A MiniOO parse gives each one a
    stand-in that keeps the source offset, works out the line and column when they
    are read, and equals, hashes, prints and pickles as this class."""

    line: int | None    # 1-based; None in an interchange document
    column: int | None  # 1-based, in Unicode scalar values
    path: str | None = None  # the file read, if any


@dataclass(frozen=True, slots=True)
class AttributeDef:
    """A class attribute; `target` is None for primitive-typed attributes."""

    name: str
    target: QualifiedName | None = None
    kind: str = NO_TARGET
    position: SourcePosition | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not (str.isascii(self.name) and str.isidentifier(self.name)):
            raise ValueError(f"attribute {self.name!r}: not an identifier")
        if self.target is None:
            if self.kind != NO_TARGET:
                raise ValueError(f"attribute {self.name!r}: kind {self.kind!r} requires a target")
        elif self.kind not in (ASSOCIATION, AGGREGATION):
            raise ValueError(f"attribute {self.name!r}: invalid kind {self.kind!r} for a class target")


@dataclass(frozen=True, slots=True)
class MethodDef:
    """A method with its complexity weight, instance-variable read-set, and usage targets."""

    name: str
    is_abstract: bool = False
    weight: int = 1
    reads: frozenset[str] = frozenset()
    uses: frozenset[QualifiedName] = frozenset()
    position: SourcePosition | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not (str.isascii(self.name) and str.isidentifier(self.name)):
            raise ValueError(f"method {self.name!r}: not an identifier")
        if type(self.reads) is not frozenset:
            object.__setattr__(self, "reads", frozenset(self.reads))
        if type(self.uses) is not frozenset:
            object.__setattr__(self, "uses", frozenset(self.uses))
        if not 1 <= self.weight <= MAX_WEIGHT:
            raise ValueError(f"method {self.name!r}: weight must be from 1 to {MAX_WEIGHT}")


@dataclass(frozen=True, slots=True)
class ClassDef:
    name: str
    is_abstract: bool = False
    parents: tuple[QualifiedName, ...] = ()
    attributes: tuple[AttributeDef, ...] = ()
    methods: tuple[MethodDef, ...] = ()
    position: SourcePosition | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not (str.isascii(self.name) and str.isidentifier(self.name)):
            raise ValueError(f"class {self.name!r}: not an identifier")
        if type(self.parents) is not tuple:
            object.__setattr__(self, "parents", tuple(self.parents))
        if type(self.attributes) is not tuple:
            object.__setattr__(self, "attributes", tuple(self.attributes))
        if type(self.methods) is not tuple:
            object.__setattr__(self, "methods", tuple(self.methods))


@dataclass(frozen=True, slots=True)
class PackageDef:
    name: str
    classes: tuple[ClassDef, ...] = ()
    position: SourcePosition | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not (str.isascii(self.name) and str.isidentifier(self.name)):
            raise ValueError(f"package {self.name!r}: not an identifier")
        if type(self.classes) is not tuple:
            object.__setattr__(self, "classes", tuple(self.classes))


_T = TypeVar("_T")


@dataclass(frozen=True)
class CodeModel:
    """Validated universe of packages and classes: construction raises `ModelError`
    with the complete error list, so no invalid instance exists.  Unpickling and
    copying do not validate again.  Immutable, so whatever is derived from it is
    computed once, on first use, and kept on the model (see `once_per_model`).
    """

    packages: tuple[PackageDef, ...]
    _index: dict = field(init=False, repr=False, compare=False)
    _packages: dict = field(init=False, repr=False, compare=False)
    _derived: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        packages = tuple(self.packages)
        errors = validate_packages(packages)
        if errors:
            raise ModelError(errors)
        object.__setattr__(self, "packages", packages)
        object.__setattr__(self, "_index", {QualifiedName(pkg.name, cls.name): cls
                                            for pkg in packages for cls in pkg.classes})
        object.__setattr__(self, "_packages", {pkg.name: pkg for pkg in packages})

    def iter_classes(self) -> Iterator[tuple[QualifiedName, ClassDef]]:
        """Yield (name, class) pairs in declaration order."""
        return iter(self._index.items())

    def package(self, name: str) -> PackageDef | None:
        return self._packages.get(name)


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


@dataclass(frozen=True)
class ValidationError:
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
    """Raised when declarations violate model invariants; carries every error found."""

    def __init__(self, errors: Iterable[ValidationError]):
        self.errors = list(errors)
        head = str(self.errors[0]) if self.errors else "unknown error"
        super().__init__(f"{len(self.errors)} validation error(s): {head}")


class NotFoundError(KeyError):
    """A qualified name does not resolve to a declared class."""


class DependencyEdge(NamedTuple):
    source: QualifiedName
    target: QualifiedName
    kind: str


@dataclass(frozen=True)
class DependencyGraph:
    """Typed directed graph at class or package granularity.

    Nodes and edges are sorted tuples, so identical models always produce
    byte-identical graphs.  Package-level nodes use an empty class segment.
    """

    nodes: tuple[QualifiedName, ...]
    edges: tuple[DependencyEdge, ...]
    granularity: str  # "class" | "package"


def validate_packages(packages: Iterable[PackageDef]) -> list[ValidationError]:
    """Check every model invariant, returning the complete error list (empty if valid)."""
    packages = list(packages)
    errors: list[ValidationError] = []

    seen_packages: set[str] = set()
    for pkg in packages:
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
                for read in sorted(method.reads - attr_names):
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
    return errors


def build_model(packages: Iterable[PackageDef]) -> CodeModel:
    """Validate declarations and return the immutable model, as `CodeModel` does:
    raises ModelError carrying the complete list of validation errors."""
    return CodeModel(tuple(packages))


def resolve(model: CodeModel, name: QualifiedName) -> ClassDef:
    """Look up a declared class; raises NotFoundError for a name the model does not declare."""
    try:
        return model._index[name]
    except KeyError:
        raise NotFoundError(f"class '{name}' is not declared") from None


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
def class_graph(model: CodeModel) -> DependencyGraph:
    """Class-granularity graph of inherit, aggregation, association and use edges,
    built once per model and only on request: an analysis never builds it."""
    edges = {DependencyEdge(source, target, kind)
             for source, cls in model.iter_classes() for target, kind in _targets(cls)}
    return DependencyGraph(tuple(sorted(model._index)), tuple(sorted(edges)), "class")


@once_per_model
def package_graph(model: CodeModel) -> DependencyGraph:
    """Package-granularity graph: P->Q iff some class edge crosses from P to Q (P != Q),
    with the smallest kind among the class edges that cross."""
    nodes = sorted(QualifiedName(pkg.name) for pkg in model.packages)
    edges = tuple(sorted(
        DependencyEdge(QualifiedName(src), QualifiedName(dst), kind)
        for (src, dst), kind in edge_table(model).crossing.items()))
    return DependencyGraph(tuple(nodes), edges, "package")


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

    def sizes(sets: dict) -> dict:
        return {key: len(members) for key, members in sets.items()}

    return EdgeTable(depths, children, sizes(coupled), sizes(incoming), sizes(outgoing),
                     crossing, dip)
