"""designlens: static design-quality analysis for object-oriented code models.

`import designlens` loads what a library query client runs: the interchange frontend,
the model, `tarjan` and the metrics.  The MiniOO frontend, the principle checks and the
report load on the first use of one of their names here (PEP 562).
"""

import importlib
from typing import Any

from .frontends import read_interchange, write_interchange
from .metrics import ClassMetrics, PackageMetrics, compute_all, format_rational
from .model import (AttributeDef, ClassDef, CodeModel, DependencyEdge, MethodDef, ModelError,
                    NotFoundError, PackageDef, QualifiedName, SourcePosition, ValidationError,
                    class_graph, package_graph, resolve)

__version__ = "0.1.0"

# Each name loaded on first use, to its module; a module's own name is the module.
_ON_FIRST_USE = {
    "ParseError": "minioo", "parse_minioo": "minioo",
    "principles": "principles", "Finding": "principles", "Thresholds": "principles",
    "detect_cycles": "principles", "run_all": "principles",
    "report": "report", "build_report": "report", "render": "report", "write_report": "report",
}

__all__ = [
    "AttributeDef", "ClassDef", "ClassMetrics", "CodeModel", "DependencyEdge", "Finding",
    "MethodDef", "ModelError", "NotFoundError", "PackageDef", "PackageMetrics", "ParseError",
    "QualifiedName", "SourcePosition", "Thresholds", "ValidationError", "build_report",
    "class_graph", "compute_all", "detect_cycles", "format_rational", "package_graph",
    "parse_minioo", "read_interchange", "render", "resolve", "run_all", "write_interchange",
    "write_report",
]


def __getattr__(name: str) -> Any:
    """Load a name of `_ON_FIRST_USE` from its module and bind it here."""
    home = _ON_FIRST_USE.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    value = globals()[name] = module if name == home else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_ON_FIRST_USE})
