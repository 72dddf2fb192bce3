"""designlens: static design-quality analysis for object-oriented code models."""

from .frontends import (
    ParseError,
    parse_minioo,
    read_interchange,
    write_interchange,
)
from .metrics import (
    ClassMetrics,
    PackageMetrics,
    compute_all,
    format_rational,
)
from .model import (
    AttributeDef,
    ClassDef,
    CodeModel,
    DependencyEdge,
    MethodDef,
    ModelError,
    PackageDef,
    QualifiedName,
    SourcePosition,
    ValidationError,
    build_model,
    class_graph,
    package_graph,
    resolve,
    validate_packages,
)
from .principles import Finding, Thresholds, detect_cycles, run_all
from .report import build_report, render, write_report

__version__ = "0.1.0"

__all__ = [
    "AttributeDef",
    "ClassDef",
    "ClassMetrics",
    "CodeModel",
    "DependencyEdge",
    "Finding",
    "MethodDef",
    "ModelError",
    "PackageDef",
    "PackageMetrics",
    "ParseError",
    "QualifiedName",
    "SourcePosition",
    "Thresholds",
    "ValidationError",
    "build_model",
    "build_report",
    "class_graph",
    "compute_all",
    "detect_cycles",
    "format_rational",
    "package_graph",
    "parse_minioo",
    "read_interchange",
    "render",
    "resolve",
    "run_all",
    "validate_packages",
    "write_interchange",
    "write_report",
]
