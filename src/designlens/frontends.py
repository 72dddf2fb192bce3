"""The interchange frontend: a canonical JSON interchange document (strict schema,
byte-stable writer) to and from a CodeModel, and the strict JSON readers the command
line's config reader shares.  The MiniOO frontend is `minioo`.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Callable, Iterable, KeysView, NoReturn

from .model import (
    FLAG,
    IDENTIFIER,
    KIND,
    MAX_WEIGHT,
    NO_TARGET,
    TARGET_KINDS,
    WEIGHT,
    AttributeDef,
    ClassDef,
    CodeModel,
    MethodDef,
    ModelError,
    PackageDef,
    QualifiedName,
    SourcePosition,
    ValidationError,
    echo,
    rejected,
)

MALFORMED_DOCUMENT = "MalformedDocument"
SCHEMA_ERROR = "SchemaError"


def _shared(sets: dict[frozenset, frozenset], items: Iterable) -> frozenset:
    """The set of `items`, as the one object in `sets` equal to it; `minioo` shares it."""
    items = frozenset(items)
    return sets.setdefault(items, items)


# -- interchange documents ---------------------------------------------------

# A JSON path is None for the document, else (its container's path, a field name or an
# array index).  It is spelt out only for an error.
_Path = tuple["_Path", str | int] | None

# The fields of each object, in the order a missing one is reported; compared as a set.
_ROOT_KEYS = dict.fromkeys(("packages",)).keys()
_PACKAGE_KEYS = dict.fromkeys(("name", "classes")).keys()
_CLASS_KEYS = dict.fromkeys(("name", "abstract", "parents", "attributes", "methods")).keys()
_ATTRIBUTE_KEYS = dict.fromkeys(("name", "target", "kind")).keys()
_METHOD_KEYS = dict.fromkeys(("name", "abstract", "weight", "reads", "uses")).keys()


def _locus(path: _Path) -> str:
    """`path` as an error names it: `packages[0].name`; a root field is its bare key."""
    if path is None:
        return "document"
    parent, key = path
    if parent is None:
        return key
    return f"{_locus(parent)}[{key}]" if type(key) is int else f"{_locus(parent)}.{key}"


class _Rejected(Exception):
    """A decode's first schema failure; not a ValueError, which `_loads` calls malformed."""


class _Schema:
    """The interchange schema.  `package`, `class_`, `attribute` and `method` each
    check one JSON value, given its parent's path and its key there.  `root` checks a
    document and returns its packages array.  A schema given an `errors` list reports
    every failure to it and builds nothing; one without raises `_Rejected` at the first
    failure, so each check that returns has passed, and each builder returns its
    declaration.  Names are interned, and each distinct `pkg.Class` string and read or
    use set is one object.

    As a decode's `object_pairs_hook`, it checks each object that may be a
    declaration as it closes, and puts the declaration in its place; an array
    element already built as the declaration the array holds is taken as it is.
    """

    def __init__(self, position: SourcePosition | None,
                 errors: list[ValidationError] | None = None) -> None:
        self.position = position
        self.errors = errors
        self.names: dict[str, QualifiedName] = {}
        self.sets: dict[frozenset, frozenset] = {}

    def hook(self, pairs: list[tuple[str, Any]]) -> Any:
        obj = unique_keys(pairs)
        # checked as the declaration with a field only it has; `fields` checks the rest
        if "weight" in obj:
            return self.method(obj, None, None)
        if "kind" in obj:
            return self.attribute(obj, None, None)
        if "methods" in obj:
            return self.class_(obj, None, None)
        if "classes" in obj:
            return self.package(obj, None, None)
        return obj

    def error(self, path: _Path, message: str) -> None:
        if self.errors is None:
            raise _Rejected
        self.errors.append(ValidationError(SCHEMA_ERROR, _locus(path), message, self.position))

    def fields(self, value: Any, path: _Path, keys: KeysView[str]) -> dict | None:
        """`value`, an object with every field of `keys`; reports each missing or unknown one."""
        if type(value) is not dict:
            return self.error(path, rejected("an object", value))
        if value.keys() == keys:
            return value
        for key in value:
            if key not in keys:
                self.error((path, key), "unknown field")
        missing = [k for k in keys if k not in value]
        for key in missing:
            self.error((path, key), "missing field")
        return None if missing else value

    def items(self, value: Any, parent: _Path, key: str,
              check: Callable[[Any, _Path, int], Any], built: type | None = None) -> list | None:
        """An array, each element replaced by what `check` returns for it; an element
        of type `built` is taken as it is."""
        if type(value) is not list:
            return self.error((parent, key), rejected("an array", value))
        path = (parent, key)
        for index, item in enumerate(value):
            if type(item) is not built:
                value[index] = check(item, path, index)
        return value

    def name(self, value: Any, parent: _Path, key: str | int) -> str | None:
        """An ASCII identifier, interned."""
        if type(value) is str and value.isascii() and value.isidentifier():
            return sys.intern(value)
        return self.error((parent, key), rejected(IDENTIFIER, value))

    def qualified(self, value: Any, parent: _Path, key: str | int) -> QualifiedName | None:
        """A `pkg.Class` name, one object per distinct string."""
        if type(value) is not str:  # before the lookup: an array or object is unhashable
            return self.error((parent, key), rejected("a string", value))
        name = self.names.get(value)
        if name is None:
            package, dot, cls = value.partition(".")
            if not (dot and value.isascii() and package.isidentifier() and cls.isidentifier()):
                return self.error((parent, key), rejected("'pkg.Class'", value))
            name = self.names[value] = QualifiedName(sys.intern(package), sys.intern(cls))
        return name

    def root(self, value: Any) -> list | None:
        obj = self.fields(value, None, _ROOT_KEYS)
        if obj is not None:
            return self.items(obj["packages"], None, "packages", self.package, PackageDef)

    def package(self, value: Any, parent: _Path, key: int | None) -> PackageDef | None:
        obj = self.fields(value, path := (parent, key), _PACKAGE_KEYS)
        if obj is None:
            return None
        name = self.name(obj["name"], path, "name")
        classes = self.items(obj["classes"], path, "classes", self.class_, ClassDef)
        if self.errors is None:
            return PackageDef(name, tuple(classes), self.position)

    def class_(self, value: Any, parent: _Path, key: int | None) -> ClassDef | None:
        obj = self.fields(value, path := (parent, key), _CLASS_KEYS)
        if obj is None:
            return None
        name = self.name(obj["name"], path, "name")
        is_abstract = obj["abstract"]
        if type(is_abstract) is not bool:
            self.error((path, "abstract"), rejected(FLAG, is_abstract))
        parents = self.items(obj["parents"], path, "parents", self.qualified)
        attributes = self.items(obj["attributes"], path, "attributes", self.attribute,
                                AttributeDef)
        methods = self.items(obj["methods"], path, "methods", self.method, MethodDef)
        if self.errors is None:
            return ClassDef(name, is_abstract, tuple(parents), tuple(attributes),
                            tuple(methods), self.position)

    def attribute(self, value: Any, parent: _Path, key: int | None) -> AttributeDef | None:
        obj = self.fields(value, path := (parent, key), _ATTRIBUTE_KEYS)
        if obj is None:
            return None
        name = self.name(obj["name"], path, "name")
        target, kind = obj["target"], obj["kind"]
        if target is not None and (target := self.qualified(target, path, "target")) is None:
            return None
        if (kind != NO_TARGET) if target is None else (kind not in TARGET_KINDS):
            self.error((path, "kind"), rejected(KIND, kind))
        if self.errors is None:  # each attribute of a kind keeps the one string object
            return AttributeDef(name, target, sys.intern(kind), self.position)

    def method(self, value: Any, parent: _Path, key: int | None) -> MethodDef | None:
        obj = self.fields(value, path := (parent, key), _METHOD_KEYS)
        if obj is None:
            return None
        name = self.name(obj["name"], path, "name")
        is_abstract, weight = obj["abstract"], obj["weight"]
        if type(is_abstract) is not bool:
            self.error((path, "abstract"), rejected(FLAG, is_abstract))
        if type(weight) is not int or not 1 <= weight <= MAX_WEIGHT:
            self.error((path, "weight"), rejected(WEIGHT, weight))
        reads = self.items(obj["reads"], path, "reads", self.name)
        uses = self.items(obj["uses"], path, "uses", self.qualified)
        if self.errors is None:
            return MethodDef(name, is_abstract, weight, _shared(self.sets, reads),
                         _shared(self.sets, uses), self.position)


def unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """`object_pairs_hook` for the strict JSON readers: a repeated key is a ValueError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {echo(key)}")
            seen.add(key)
    return obj


def reject_constant(name: str) -> NoReturn:
    """`parse_constant` for the strict JSON readers: RFC 8259 has no NaN or Infinity."""
    raise ValueError(f"{name} is not valid JSON")


def _loads(document: str, hook: Callable[[list[tuple[str, Any]]], Any],
           position: SourcePosition | None) -> Any:
    """`json.loads` with `hook` as the `object_pairs_hook`; raises ModelError with a
    MalformedDocument entry for a text that is not strict JSON."""
    try:
        return json.loads(document, object_pairs_hook=hook, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise ModelError([ValidationError(MALFORMED_DOCUMENT, f"line {exc.lineno}",
                                          f"not well-formed JSON: {exc.msg}", position)]) from None
    except ValueError as exc:  # a repeated key, NaN or Infinity, or too long an integer
        raise ModelError([ValidationError(
            MALFORMED_DOCUMENT, "document", str(exc), position)]) from None
    except RecursionError:
        raise ModelError([ValidationError(
            MALFORMED_DOCUMENT, "document", "JSON nesting is too deep", position)]) from None


def decode_interchange(document: str, path: str | None = None) -> list[PackageDef]:
    """Decode an interchange document to declarations, without semantic validation.

    The schema runs as the decode's object hook, so a valid document never exists as
    a tree of dicts.  That decode stops at the first schema failure; only then is the
    document decoded again, to plain dicts, for the schema to collect every error.
    Given a `path`, each declaration and each error has a position naming that file
    (no line or column).  Raises ModelError with MalformedDocument / SchemaError
    entries (the locus is the JSON path of the offending field).
    """
    position = SourcePosition(None, None, path) if path is not None else None
    schema = _Schema(position)
    try:
        return schema.root(_loads(document, schema.hook, position))
    except _Rejected:
        pass
    schema = _Schema(position, errors=[])
    schema.root(_loads(document, unique_keys, position))
    raise ModelError(schema.errors)


def read_interchange(document: str) -> CodeModel:
    """Read an interchange document into a validated CodeModel.

    Raises ModelError for malformed documents, schema violations, and
    semantic validation failures.
    """
    return CodeModel(decode_interchange(document))


def write_interchange(model: CodeModel) -> str:
    """Serialize a model canonically: fixed key order, declaration order, trailing newline."""
    document = {"packages": [
        {"name": pkg.name, "classes": [
            {"name": cls.name,
             "abstract": cls.is_abstract,
             "parents": [str(parent) for parent in cls.parents],
             "attributes": [
                 {"name": attr.name,
                  "target": str(attr.target) if attr.target is not None else None,
                  "kind": attr.kind}
                 for attr in cls.attributes],
             "methods": [
                 {"name": method.name,
                  "abstract": method.is_abstract,
                  "weight": method.weight,
                  "reads": sorted(method.reads),
                  "uses": [str(use) for use in sorted(method.uses)]}
                 for method in cls.methods]}
            for cls in pkg.classes]}
        for pkg in model.packages]}
    return json.dumps(document, separators=(",", ":")) + "\n"
