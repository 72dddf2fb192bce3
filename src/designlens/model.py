"""In-memory code model: packages, classes, members, and derived dependency graphs.

The model is the single input to all analysis.  It is immutable after
construction and only `build_model` produces a validated instance; every
other operation assumes (and may rely on) a valid model.

Declarations read from MiniOO source carry the `position` they were declared
at, and those decoded from a named interchange file carry the file, so a
validation error can name it.  Positions are left out of equality, hashing
and repr: a model is the same whichever frontend it was read from.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, TypeVar

from .tarjan import strongly_connected_components

if TYPE_CHECKING:
    from .frontends import SourcePosition

IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

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
        if not IDENTIFIER_RE.match(package):
            raise ValueError(f"invalid package segment {package!r}")
        if cls and not IDENTIFIER_RE.match(cls):
            raise ValueError(f"invalid class segment {cls!r}")
        return tuple.__new__(_type, (package, cls))

    def __str__(self) -> str:
        return f"{self.package}.{self.cls}" if self.cls else self.package


@dataclass(frozen=True)
class AttributeDef:
    """A class attribute; `target` is None for primitive-typed attributes."""

    name: str
    target: QualifiedName | None = None
    kind: str = NO_TARGET
    position: SourcePosition | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.target is None:
            if self.kind != NO_TARGET:
                raise ValueError(f"attribute {self.name!r}: kind {self.kind!r} requires a target")
        elif self.kind not in (ASSOCIATION, AGGREGATION):
            raise ValueError(f"attribute {self.name!r}: invalid kind {self.kind!r} for a class target")


@dataclass(frozen=True)
class MethodDef:
    """A method with its complexity weight, instance-variable read-set, and usage targets."""

    name: str
    is_abstract: bool = False
    weight: int = 1
    reads: frozenset[str] = frozenset()
    uses: frozenset[QualifiedName] = frozenset()
    position: SourcePosition | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "reads", frozenset(self.reads))
        object.__setattr__(self, "uses", frozenset(self.uses))
        if not 1 <= self.weight <= MAX_WEIGHT:
            raise ValueError(f"method {self.name!r}: weight must be from 1 to {MAX_WEIGHT}")


@dataclass(frozen=True)
class ClassDef:
    name: str
    is_abstract: bool = False
    parents: tuple[QualifiedName, ...] = ()
    attributes: tuple[AttributeDef, ...] = ()
    methods: tuple[MethodDef, ...] = ()
    position: SourcePosition | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "methods", tuple(self.methods))


@dataclass(frozen=True)
class PackageDef:
    name: str
    classes: tuple[ClassDef, ...] = ()
    position: SourcePosition | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", tuple(self.classes))


_T = TypeVar("_T")


@dataclass(frozen=True)
class CodeModel:
    """Validated universe of packages and classes.  Construct via `build_model`.

    Immutable, so whatever is derived from it is computed once, on first use,
    and kept on the model (see `once_per_model`).
    """

    packages: tuple[PackageDef, ...]
    _index: dict = field(init=False, repr=False, compare=False)
    _packages: dict = field(init=False, repr=False, compare=False)
    _derived: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "packages", tuple(self.packages))
        object.__setattr__(self, "_index", {QualifiedName(pkg.name, cls.name): cls
                                            for pkg in self.packages for cls in pkg.classes})
        # reversed, so the first of two same-named packages wins, as in a scan
        object.__setattr__(self, "_packages", {pkg.name: pkg for pkg in reversed(self.packages)})

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

    declared: set[QualifiedName] = set()
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
            declared.add(qn)

    for pkg in packages:
        for cls in pkg.classes:
            cls_locus = f"{pkg.name}.{cls.name}"
            attr_names: set[str] = set()
            for attr in cls.attributes:
                if attr.name in attr_names:
                    errors.append(ValidationError(
                        DUPLICATE_MEMBER, f"{cls_locus}.{attr.name}",
                        f"attribute '{attr.name}' is declared more than once", attr.position))
                attr_names.add(attr.name)
                if attr.target is not None and attr.target not in declared:
                    errors.append(ValidationError(
                        UNRESOLVED_REFERENCE, f"{cls_locus}.{attr.name}",
                        f"attribute type '{attr.target}' is not declared", attr.position))

            method_names: set[str] = set()
            for method in cls.methods:
                locus = f"{cls_locus}.{method.name}"
                if method.name in method_names:
                    errors.append(ValidationError(
                        DUPLICATE_MEMBER, locus,
                        f"method '{method.name}' is declared more than once", method.position))
                method_names.add(method.name)
                if method.is_abstract and not cls.is_abstract:
                    errors.append(ValidationError(
                        ABSTRACT_METHOD_IN_CONCRETE_CLASS, locus,
                        f"abstract method '{method.name}' in concrete class '{cls.name}'",
                        method.position))
                for read in sorted(method.reads):
                    if read not in attr_names:
                        errors.append(ValidationError(
                            UNKNOWN_READ_ATTRIBUTE, locus,
                            f"method '{method.name}' reads unknown attribute '{read}'",
                            method.position))
                for target in sorted(method.uses):
                    if target not in declared:
                        errors.append(ValidationError(
                            UNRESOLVED_REFERENCE, locus,
                            f"used class '{target}' is not declared", method.position))

            for parent in cls.parents:
                if parent not in declared:
                    errors.append(ValidationError(
                        UNRESOLVED_REFERENCE, cls_locus,
                        f"parent class '{parent}' is not declared", cls.position))

    errors.extend(_inheritance_cycle_errors(packages, declared))
    return errors


def _inheritance_cycle_errors(
    packages: list[PackageDef], declared: set[QualifiedName],
) -> list[ValidationError]:
    parents: dict[QualifiedName, list[QualifiedName]] = {}
    # a cycle is reported at the first declaration of its smallest member
    first: dict[QualifiedName, ClassDef] = {}
    for pkg in packages:
        for cls in pkg.classes:
            qn = QualifiedName(pkg.name, cls.name)
            first.setdefault(qn, cls)
            parents.setdefault(qn, [])
            parents[qn].extend(p for p in cls.parents if p in declared)

    errors = []
    groups = []
    for component in strongly_connected_components(sorted(parents), parents):
        members = sorted(component)
        if len(members) > 1 or members[0] in parents[members[0]]:
            groups.append(members)
    for members in sorted(groups, key=lambda g: g[0]):
        names = ", ".join(str(m) for m in members)
        errors.append(ValidationError(
            INHERITANCE_CYCLE, str(members[0]),
            f"inheritance cycle involving {{{names}}}", first[members[0]].position))
    return errors


def build_model(packages: Iterable[PackageDef]) -> CodeModel:
    """Validate declarations and return the immutable model.

    Raises ModelError carrying the complete list of validation errors;
    a partial model is never produced.
    """
    packages = list(packages)
    errors = validate_packages(packages)
    if errors:
        raise ModelError(errors)
    return CodeModel(tuple(packages))


def resolve(model: CodeModel, name: QualifiedName) -> ClassDef:
    """Look up a declared class; on a valid model this never fails."""
    try:
        return model._index[name]
    except KeyError:
        raise NotFoundError(f"class '{name}' is not declared") from None


def class_edges(model: CodeModel) -> Iterator[DependencyEdge]:
    """Every declared class edge: parents (inherit), attribute targets (their
    kind) and method uses (use), in declaration order.  An edge declared more
    than once is yielded more than once."""
    for qn, cls in model.iter_classes():
        for parent in cls.parents:
            yield DependencyEdge(qn, parent, INHERIT)
        for attr in cls.attributes:
            if attr.target is not None:
                yield DependencyEdge(qn, attr.target, attr.kind)
        for method in cls.methods:
            for target in method.uses:
                yield DependencyEdge(qn, target, USE)


@once_per_model
def class_graph(model: CodeModel) -> DependencyGraph:
    """Class-granularity dependency graph: inherit, aggregation, association, and use edges."""
    return DependencyGraph(tuple(sorted(model._index)), tuple(sorted(set(class_edges(model)))),
                           "class")


@once_per_model
def package_graph(model: CodeModel) -> DependencyGraph:
    """Package-granularity graph: P->Q iff some class edge crosses from P to Q (P != Q)."""
    nodes = sorted(QualifiedName(pkg.name) for pkg in model.packages)
    crossing: dict[tuple[str, str], str] = {}
    for source, target, kind in class_edges(model):
        if source.package != target.package:
            key = (source.package, target.package)
            # collapse duplicates; keep the lexicographically smallest kind
            if key not in crossing or kind < crossing[key]:
                crossing[key] = kind
    edges = tuple(sorted(
        DependencyEdge(QualifiedName(src), QualifiedName(dst), kind)
        for (src, dst), kind in crossing.items()))
    return DependencyGraph(tuple(nodes), edges, "package")
