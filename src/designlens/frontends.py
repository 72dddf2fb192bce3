"""Frontends that turn external text into a CodeModel.

Two input forms are supported: the MiniOO declaration language (recursive
descent parser with error recovery at `;` / `}`) and a canonical JSON
interchange document (strict schema, byte-stable writer).
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable, NoReturn

from .model import (
    AGGREGATION,
    ASSOCIATION,
    IDENTIFIER_RE,
    MAX_WEIGHT,
    NO_TARGET,
    AttributeDef,
    ClassDef,
    CodeModel,
    MethodDef,
    ModelError,
    PackageDef,
    QualifiedName,
    ValidationError,
    build_model,
)

MALFORMED_DOCUMENT = "MalformedDocument"
SCHEMA_ERROR = "SchemaError"

_PRIMITIVES = ("int", "real", "text", "bool")
_MAX_WEIGHT_DIGITS = len(str(MAX_WEIGHT))
_ATTRIBUTE_KINDS = {"assoc": ASSOCIATION, "aggr": AGGREGATION}


@dataclass(frozen=True)
class SourcePosition:
    line: int | None    # 1-based; None in an interchange document
    column: int | None  # 1-based, in Unicode scalar values
    path: str | None = None  # the file read, if any


@dataclass(frozen=True)
class ParseError:
    position: SourcePosition
    expected: str
    found: str

    @property
    def message(self) -> str:
        return (f"{self.position.line}:{self.position.column}: "
                f"expected {self.expected}, found {self.found}")


class ParseFailure(Exception):
    """Raised for MiniOO syntax errors; carries every error found before giving up."""

    def __init__(self, errors: list[ParseError]):
        self.errors = list(errors)
        head = self.errors[0].message if self.errors else "unknown"
        super().__init__(f"{len(self.errors)} syntax error(s): {head}")


# One alternative per token class, tried in order: skipped text, an ASCII INT,
# a word, punctuation, and any other single character.  `\w` is exactly
# `str.isalnum()` or "_", the span of a MiniOO word.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*)"
    r"|(?P<int>[0-9]+)"
    r"|(?P<name>\w+)"
    r"|(?P<punctuation>[{}();:,.])"
    r"|(?P<bad>.)", re.DOTALL)
_NEWLINE_RE = re.compile("\n")

# A token is (kind, text, offset): kind is "name", "int", "eof" or the
# punctuation character itself; offset indexes the source in code points.
_Token = tuple[str, str, int]


def _line_starts(source: str) -> list[int]:
    return [0, *(newline.end() for newline in _NEWLINE_RE.finditer(source))]


def _position(line_starts: list[int], offset: int, path: str | None = None) -> SourcePosition:
    """The line and column of a source offset, given the offsets where lines start."""
    line = bisect_right(line_starts, offset)
    return SourcePosition(line, offset - line_starts[line - 1] + 1, path)


def tokenize(source: str) -> tuple[list[_Token], list[ParseError]]:
    """Split MiniOO source into tokens; illegal characters become errors and are skipped."""
    tokens: list[_Token] = []
    bad: list[tuple[int, str, str]] = []  # (offset, expected, found)
    pos, end, scan = 0, len(source), _TOKEN_RE.match
    while pos < end:
        match = scan(source, pos)
        kind, text = match.lastgroup, match.group()
        start, pos = pos, match.end()
        if kind == "name" and not text.isascii():
            # INT is tried first, so a word never starts with an ASCII digit
            if text[0].isalpha() or text[0] == "_":
                bad.append((start, "a name", repr(text)))
            else:
                bad.append((start, "a token", repr(text[0])))
                pos = start + 1
        elif kind == "bad":
            bad.append((start, "a token", repr(text)))
        elif kind is not None:
            tokens.append((text if kind == "punctuation" else kind, text, start))
    tokens.append(("eof", "", end))
    line_starts = _line_starts(source) if bad else []
    return tokens, [ParseError(_position(line_starts, offset), expected, found)
                    for offset, expected, found in bad]


class _Panic(Exception):
    """Internal signal: abandon the current production and resynchronize."""


class _MiniOOParser:
    def __init__(self, source: str, path: str | None):
        self.tokens, self.errors = tokenize(source)
        self.pos = 0
        self.line_starts = _line_starts(source)
        self.path = path

    # -- token stream helpers ------------------------------------------------

    def _cur(self) -> _Token:
        return self.tokens[self.pos]

    def _advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def _at(self, text: str) -> bool:
        return self.tokens[self.pos][1] == text

    def _match(self, text: str) -> bool:
        if self._at(text):
            self._advance()
            return True
        return False

    def _error(self, expected: str) -> None:
        kind, text, offset = self._cur()
        found = "end of input" if kind == "eof" else f"'{text}'"
        self.errors.append(ParseError(_position(self.line_starts, offset), expected, found))

    def _fail(self, expected: str) -> NoReturn:
        self._error(expected)
        raise _Panic()

    def _expect(self, text: str) -> None:
        if not self._at(text):
            self._fail(f"'{text}'")
        self._advance()

    def _expect_name(self, expected: str) -> str:
        if self._cur()[0] != "name":
            self._fail(expected)
        return self._advance()[1]

    def _declare(self, expected: str) -> tuple[str, SourcePosition]:
        """Read a declared name and the position where it is declared."""
        offset = self._cur()[2]
        return self._expect_name(expected), _position(self.line_starts, offset, self.path)

    def _synchronize(self) -> str | None:
        """Skip ahead past the next ';' or '}'; returns the consumed terminator."""
        while self._cur()[0] != "eof":
            text = self._advance()[1]
            if text in (";", "}"):
                return text
        return None

    # -- grammar productions -------------------------------------------------

    def parse_model(self) -> list[PackageDef]:
        packages: list[PackageDef] = []
        while self._cur()[0] != "eof":
            if self._at("package"):
                try:
                    packages.append(self._package())
                except _Panic:
                    self._synchronize()
            else:
                self._error("'package'")
                self._synchronize()
        if not packages and not self.errors:
            self._error("at least one package declaration")
        return packages

    def _package(self) -> PackageDef:
        self._expect("package")
        name, position = self._declare("a package name")
        self._expect("{")
        classes: list[ClassDef] = []
        closed = False
        while not closed:
            if self._match("}"):
                closed = True
            elif self._cur()[0] == "eof":
                self._error("'class' or '}'")
                closed = True
            elif self._at("class") or self._at("abstract"):
                try:
                    classes.append(self._class(name))
                except _Panic:
                    closed = self._synchronize() is None
            else:
                self._error("'class', 'abstract' or '}'")
                closed = self._synchronize() is None
        return PackageDef(name, tuple(classes), position)

    def _class(self, package: str) -> ClassDef:
        is_abstract = self._match("abstract")
        self._expect("class")
        name, position = self._declare("a class name")
        parents: list[QualifiedName] = []
        if self._match("extends"):
            parents.append(self._typeref(package))
            while self._match(","):
                parents.append(self._typeref(package))
        self._expect("{")
        attributes: list[AttributeDef] = []
        methods: list[MethodDef] = []
        closed = False
        while not closed:
            if self._match("}"):
                closed = True
            elif self._at("field") or self._at("method") or self._at("abstract"):
                try:
                    if self._at("field"):
                        attributes.append(self._field(package))
                    else:
                        methods.append(self._method(package))
                except _Panic:
                    closed = self._synchronize() in ("}", None)
            else:
                self._error("'field', 'method' or '}'")
                closed = self._synchronize() in ("}", None)
        return ClassDef(name, is_abstract, tuple(parents), tuple(attributes), tuple(methods),
                        position)

    def _field(self, package: str) -> AttributeDef:
        self._expect("field")
        name, position = self._declare("a field name")
        self._expect(":")
        kind, text, _ = self._cur()
        if kind == "name" and text in _PRIMITIVES:
            self._advance()
            target, attribute_kind = None, NO_TARGET
        elif kind == "name":
            target = self._typeref(package)
            attribute_kind = ASSOCIATION
            if self._match(","):
                kind, text, _ = self._cur()
                if kind != "name" or text not in _ATTRIBUTE_KINDS:
                    self._fail("'assoc' or 'aggr'")
                self._advance()
                attribute_kind = _ATTRIBUTE_KINDS[text]
        else:
            self._fail("a type name")
        self._expect(";")
        return AttributeDef(name, target, attribute_kind, position)

    def _method(self, package: str) -> MethodDef:
        is_abstract = self._match("abstract")
        self._expect("method")
        name, position = self._declare("a method name")
        weight = 1
        if self._match("weight"):
            kind, text, _ = self._cur()
            # INT must match [1-9][0-9]*; one longer than MAX_WEIGHT is never converted
            if kind != "int" or text[0] == "0":
                self._fail("a positive integer")
            weight = int(text) if len(text) <= _MAX_WEIGHT_DIGITS else MAX_WEIGHT + 1
            if weight > MAX_WEIGHT:
                self._fail(f"a weight of at most {MAX_WEIGHT}")
            self._advance()
        reads: list[str] = []
        if self._match("reads"):
            self._expect("(")
            reads.append(self._expect_name("an attribute name"))
            while self._match(","):
                reads.append(self._expect_name("an attribute name"))
            self._expect(")")
        uses: list[QualifiedName] = []
        if self._match("uses"):
            self._expect("(")
            uses.append(self._typeref(package))
            while self._match(","):
                uses.append(self._typeref(package))
            self._expect(")")
        self._expect(";")
        return MethodDef(name, is_abstract, weight, frozenset(reads), frozenset(uses), position)

    def _typeref(self, default_package: str) -> QualifiedName:
        first = self._expect_name("a type name")
        if self._match("."):
            return QualifiedName(first, self._expect_name("a class name"))
        return QualifiedName(default_package, first)


def parse_minioo_declarations(source: str, path: str | None = None) -> list[PackageDef]:
    """Syntax-only MiniOO parse: declarations, each with its source position in `path`.

    Raises ParseFailure on any syntax error; semantic validation is the
    caller's job (see parse_minioo).
    """
    parser = _MiniOOParser(source, path)
    packages = parser.parse_model()
    if parser.errors:
        raise ParseFailure(parser.errors)
    return packages


def parse_minioo(source: str) -> CodeModel:
    """Parse MiniOO source and validate it into a CodeModel.

    Raises ParseFailure for syntax errors, ModelError (each error at the
    source position of the declaration it concerns) for semantic ones.
    """
    return build_model(parse_minioo_declarations(source))


# -- interchange documents ---------------------------------------------------


class _SchemaWalker:
    """Strict walk of the interchange document; collects every schema error.

    Any error rejects the whole document, so a declaration is built only while
    there is none.
    """

    def __init__(self, path: str | None) -> None:
        self.errors: list[ValidationError] = []
        self.position = SourcePosition(None, None, path) if path is not None else None

    def error(self, path: str, message: str) -> None:
        self.errors.append(ValidationError(SCHEMA_ERROR, path, message))

    def obj(self, value: Any, path: str, keys: tuple[str, ...]) -> dict | None:
        if not isinstance(value, dict):
            self.error(path or "document", f"expected an object, got {type(value).__name__}")
            return None
        for key in value:
            if key not in keys:
                self.error(f"{path}.{key}" if path else str(key), "unknown field")
        missing = [k for k in keys if k not in value]
        for key in missing:
            self.error(f"{path}.{key}" if path else str(key), "missing field")
        return None if missing else value

    def items(self, value: Any, path: str, decode: Callable[[Any, str], Any]) -> list:
        """Decode each element of an array at `path[i]`."""
        if not isinstance(value, list):
            self.error(path, f"expected an array, got {type(value).__name__}")
            return []
        return [decode(item, f"{path}[{i}]") for i, item in enumerate(value)]

    def string(self, value: Any, path: str) -> str | None:
        if not isinstance(value, str):
            self.error(path, f"expected a string, got {type(value).__name__}")
            return None
        return value

    def identifier(self, value: Any, path: str) -> str | None:
        text = self.string(value, path)
        if text is not None and not IDENTIFIER_RE.match(text):
            self.error(path, f"not a valid identifier: {text!r}")
            return None
        return text

    def boolean(self, value: Any, path: str) -> bool | None:
        if not isinstance(value, bool):
            self.error(path, f"expected a boolean, got {type(value).__name__}")
            return None
        return value

    def qualified(self, value: Any, path: str) -> QualifiedName | None:
        text = self.string(value, path)
        if text is None:
            return None
        package, dot, cls = text.partition(".")
        if not dot or not IDENTIFIER_RE.match(package) or not IDENTIFIER_RE.match(cls):
            self.error(path, f"expected 'pkg.Class', got {text!r}")
            return None
        return QualifiedName(package, cls)

    def package(self, value: Any, path: str) -> PackageDef | None:
        obj = self.obj(value, path, ("name", "classes"))
        if obj is None:
            return None
        name = self.identifier(obj["name"], f"{path}.name")
        classes = self.items(obj["classes"], f"{path}.classes", self.class_)
        return None if self.errors else PackageDef(name, tuple(classes), self.position)

    def class_(self, value: Any, path: str) -> ClassDef | None:
        obj = self.obj(value, path, ("name", "abstract", "parents", "attributes", "methods"))
        if obj is None:
            return None
        name = self.identifier(obj["name"], f"{path}.name")
        is_abstract = self.boolean(obj["abstract"], f"{path}.abstract")
        parents = self.items(obj["parents"], f"{path}.parents", self.qualified)
        attributes = self.items(obj["attributes"], f"{path}.attributes", self.attribute)
        methods = self.items(obj["methods"], f"{path}.methods", self.method)
        return None if self.errors else ClassDef(
            name, is_abstract, tuple(parents), tuple(attributes), tuple(methods), self.position)

    def attribute(self, value: Any, path: str) -> AttributeDef | None:
        obj = self.obj(value, path, ("name", "target", "kind"))
        if obj is None:
            return None
        name = self.identifier(obj["name"], f"{path}.name")
        target = None
        if obj["target"] is not None:
            target = self.qualified(obj["target"], f"{path}.target")
            if target is None:
                return None
        kind = obj["kind"]
        if kind not in (ASSOCIATION, AGGREGATION, NO_TARGET):
            self.error(f"{path}.kind",
                       f"expected 'association', 'aggregation' or 'none', got {kind!r}")
            return None
        if (kind == NO_TARGET) != (target is None):
            self.error(f"{path}.kind", "kind 'none' is required exactly when target is null")
        return None if self.errors else AttributeDef(name, target, kind, self.position)

    def method(self, value: Any, path: str) -> MethodDef | None:
        obj = self.obj(value, path, ("name", "abstract", "weight", "reads", "uses"))
        if obj is None:
            return None
        name = self.identifier(obj["name"], f"{path}.name")
        is_abstract = self.boolean(obj["abstract"], f"{path}.abstract")
        weight = obj["weight"]
        if isinstance(weight, bool) or not isinstance(weight, int) or weight < 1:
            self.error(f"{path}.weight", f"expected a positive integer, got {weight!r}")
        elif weight > MAX_WEIGHT:
            self.error(f"{path}.weight", f"expected a weight of at most {MAX_WEIGHT}")
        reads = self.items(obj["reads"], f"{path}.reads", self.identifier)
        uses = self.items(obj["uses"], f"{path}.uses", self.qualified)
        return None if self.errors else MethodDef(
            name, is_abstract, weight, frozenset(reads), frozenset(uses), self.position)


def unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """`object_pairs_hook` for the strict JSON readers: a repeated key is a ValueError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


def decode_interchange(document: str, path: str | None = None) -> list[PackageDef]:
    """Decode an interchange document to declarations, without semantic validation.

    Given a `path`, each declaration's position names that file (no line or column).
    Raises ModelError with MalformedDocument / SchemaError entries (the locus
    is the JSON path of the offending field).
    """
    try:
        data = json.loads(document, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ModelError([ValidationError(
            MALFORMED_DOCUMENT, f"line {exc.lineno}", f"not well-formed JSON: {exc.msg}")]) from None
    except ValueError as exc:  # a repeated key, or an integer too long to convert
        raise ModelError([ValidationError(MALFORMED_DOCUMENT, "document", str(exc))]) from None
    except RecursionError:
        raise ModelError([ValidationError(
            MALFORMED_DOCUMENT, "document", "JSON nesting is too deep")]) from None

    walker = _SchemaWalker(path)
    root = walker.obj(data, "", ("packages",))
    packages = [] if root is None else walker.items(root["packages"], "packages", walker.package)
    if walker.errors:
        raise ModelError(walker.errors)
    return packages


def read_interchange(document: str) -> CodeModel:
    """Read an interchange document into a validated CodeModel.

    Raises ModelError for malformed documents, schema violations, and
    semantic validation failures.
    """
    return build_model(decode_interchange(document))


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
