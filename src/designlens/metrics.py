"""Design metrics over a validated code model.

Per class: WMC, DIT, NOC, CBO, LCOM.  Per package: afferent/efferent
coupling, instability, abstractness, and main-sequence distance.  Rational
values are exact Fractions; UNDEFINED is represented as None and is never
silently coerced to 0.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .model import ClassDef, CodeModel, PackageDef, QualifiedName, declared, edge_table

if TYPE_CHECKING:  # each function that builds a Fraction imports it: a query builds none
    from fractions import Fraction


class ClassMetrics(NamedTuple):
    name: QualifiedName
    wmc: int
    dit: int
    noc: int
    cbo: int
    lcom: int


class PackageMetrics(NamedTuple):
    name: str
    ca: int
    ce: int
    instability: Fraction | None
    abstractness: Fraction | None
    distance: Fraction | None


# `(per_class, per_package)`: every metric value, each dict in subject-name order
Metrics = tuple[dict[QualifiedName, ClassMetrics], dict[str, PackageMetrics]]


def wmc(cls: ClassDef) -> int:
    """Weighted methods per class: the sum of every method's complexity weight."""
    return sum(method.weight for method in cls.methods)


def dit(model: CodeModel, name: QualifiedName) -> int:
    """Depth of inheritance tree: longest inherit path from the class to a root."""
    return declared(edge_table(model).dit, name, "class")


def noc(model: CodeModel, name: QualifiedName) -> int:
    """Number of children: classes anywhere in the model listing this class as a direct parent."""
    return declared(edge_table(model).noc, name, "class")


def cbo(model: CodeModel, name: QualifiedName) -> int:
    """Coupling between object classes: distinct other classes linked by a
    non-inherit edge in either direction."""
    return declared(edge_table(model).cbo, name, "class")


def lcom(cls: ClassDef) -> int:
    """Lack of cohesion in methods: disjoint-read-set method pairs minus
    intersecting pairs, floored at zero.

    Linear in the reads, not in the pairs: bit i of an attribute's mask is set
    when method i reads it, so the methods after method i that share a read
    with it are the bits above i in the union of its attributes' masks.  The
    other pairs of the n(n-1)/2 are disjoint."""
    methods = cls.methods
    readers: dict[str, int] = {}
    for i, method in enumerate(methods):
        for name in method.reads:
            readers[name] = readers.get(name, 0) | 1 << i
    intersecting = 0
    for i, method in enumerate(methods):
        shared = 0
        for name in method.reads:
            shared |= readers[name]
        intersecting += (shared >> i + 1).bit_count()
    n = len(methods)
    return max(n * (n - 1) // 2 - 2 * intersecting, 0)


def afferent(model: CodeModel, package: str) -> int:
    """Ca: distinct classes outside the package with any edge into it (inherit included)."""
    return declared(edge_table(model).ca, package, "package")


def efferent(model: CodeModel, package: str) -> int:
    """Ce: distinct classes outside the package that its classes have any edge toward."""
    return declared(edge_table(model).ce, package, "package")


def instability(ca: int, ce: int) -> Fraction | None:
    """I = Ce / (Ca + Ce); None (UNDEFINED) for an isolated package."""
    from fractions import Fraction

    if ca + ce == 0:
        return None
    return Fraction(ce, ca + ce)


def abstractness(package: PackageDef) -> Fraction | None:
    """A = Na / Nc; None (UNDEFINED) for an empty package."""
    from fractions import Fraction

    if not package.classes:
        return None
    abstract = sum(1 for cls in package.classes if cls.is_abstract)
    return Fraction(abstract, len(package.classes))


def main_sequence_distance(a: Fraction, i: Fraction) -> Fraction:
    """Normalized distance from the main sequence A + I = 1."""
    from fractions import Fraction

    return abs(Fraction(a) + Fraction(i) - 1)


def compute_all(model: CodeModel) -> Metrics:
    """`(per_class, per_package)`: every metric for every class and package, in name order;
    reads the table the single-metric calls read."""
    counts = edge_table(model)
    per_class: dict[QualifiedName, ClassMetrics] = {}
    for name, cls in sorted(model.iter_classes()):
        per_class[name] = ClassMetrics(name, wmc(cls), counts.dit[name], counts.noc[name],
                                       counts.cbo[name], lcom(cls))

    per_package: dict[str, PackageMetrics] = {}
    for pkg in sorted(model.packages, key=lambda p: p.name):
        ca, ce = counts.ca[pkg.name], counts.ce[pkg.name]
        i = instability(ca, ce)
        a = abstractness(pkg)
        d = main_sequence_distance(a, i) if a is not None and i is not None else None
        per_package[pkg.name] = PackageMetrics(pkg.name, ca, ce, i, a, d)
    return per_class, per_package


def format_rational(value: Fraction | int) -> str:
    """Render a rational with exactly 4 fractional digits, rounding half to even.

    `Fraction` rounds exactly, so output bytes never depend on platform float behavior.
    """
    from fractions import Fraction

    units = round(Fraction(value) * 10000)
    whole, frac = divmod(abs(units), 10000)
    return f"{'-' if units < 0 else ''}{whole}.{frac:04d}"
