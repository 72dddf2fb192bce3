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
from typing import Any, Callable, Iterator, KeysView, NoReturn

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
    SourcePosition,
    ValidationError,
    build_model,
)

MALFORMED_DOCUMENT = "MalformedDocument"
SCHEMA_ERROR = "SchemaError"

_PRIMITIVES = ("int", "real", "text", "bool")
_MAX_WEIGHT_DIGITS = len(str(MAX_WEIGHT))
_ATTRIBUTE_KINDS = {"assoc": ASSOCIATION, "aggr": AGGREGATION}


@dataclass(frozen=True)
class ParseError:
    position: SourcePosition
    expected: str
    found: str

    def __str__(self) -> str:
        return (f"{self.position.line}:{self.position.column}: "
                f"expected {self.expected}, found {self.found}")


class ParseFailure(Exception):
    """Raised for MiniOO syntax errors; carries every error found before giving up."""

    def __init__(self, errors: list[ParseError]):
        self.errors = list(errors)
        head = str(self.errors[0]) if self.errors else "unknown"
        super().__init__(f"{len(self.errors)} syntax error(s): {head}")


# Skipped whitespace and `//` comments, then one token: an ASCII INT, a word,
# punctuation, the end, or any other character.  The skip loop cannot backtrack, as
# `\Z` or `.` always matches after it.  `\w` is `str.isalnum()` or "_", a MiniOO word.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*)*"
    r"(?:(?P<int>[0-9]+)"
    r"|(?P<name>\w+)"
    r"|(?P<punctuation>[{}();:,.])"
    r"|(?P<eof>\Z)"
    r"|(?P<bad>.))", re.DOTALL)
_NEWLINE_RE = re.compile("\n")

# A token is (kind, text, offset): kind is "name", "int", "eof" or the
# punctuation character itself; offset indexes the source in code points.
_Token = tuple[str, str, int]


def _echo(text: str) -> str:
    """An offending token as a syntax error repeats it: quoted, cut to 40 characters."""
    return repr(text[:40])


def tokenize(source: str, bad: list[tuple[int, str, str]]) -> Iterator[_Token]:
    """Yield the tokens of MiniOO source, then one `eof`.  Each illegal character or
    word is skipped and appended to `bad` as (offset, expected, found)."""
    pos, kind, scan = 0, None, _TOKEN_RE.match
    while kind != "eof":
        match = scan(source, pos)
        kind = match.lastgroup
        start, pos = match.span(kind)
        text = match.group(kind)
        if kind == "name" and not text.isascii():
            # INT is tried first, so a word never starts with an ASCII digit
            if text[0].isalpha() or text[0] == "_":
                bad.append((start, "a name", _echo(text)))
            else:
                bad.append((start, "a token", repr(text[0])))
                pos = start + 1
        elif kind == "bad":
            bad.append((start, "a token", repr(text)))
        else:
            yield (text if kind == "punctuation" else kind, text, start)


class _Panic(Exception):
    """Internal signal: abandon the current production and resynchronize."""


class _MiniOOParser:
    def __init__(self, source: str, path: str | None):
        self.bad: list[tuple[int, str, str]] = []  # the lexer's (offset, expected, found)
        self.tokens = tokenize(source, self.bad)
        self.tok = next(self.tokens)
        self.errors: list[ParseError] = []
        self.line_starts = [0, *(newline.end() for newline in _NEWLINE_RE.finditer(source))]
        self.path = path

    # -- token stream helpers ------------------------------------------------

    def _advance(self) -> _Token:
        tok = self.tok
        if tok[0] != "eof":
            self.tok = next(self.tokens)
        return tok

    def _match(self, text: str) -> bool:
        if self.tok[1] == text:
            self._advance()
            return True
        return False

    def _position(self, offset: int) -> SourcePosition:
        """The line and column of a source offset, in the file parsed."""
        line = bisect_right(self.line_starts, offset)
        return SourcePosition(line, offset - self.line_starts[line - 1] + 1, self.path)

    def _error(self, expected: str) -> None:
        kind, text, offset = self.tok
        found = "end of input" if kind == "eof" else _echo(text)
        self.errors.append(ParseError(self._position(offset), expected, found))

    def _fail(self, expected: str) -> NoReturn:
        self._error(expected)
        raise _Panic()

    def _expect(self, text: str) -> None:
        if self.tok[1] != text:
            self._fail(f"'{text}'")
        self._advance()

    def _expect_name(self, expected: str) -> str:
        if self.tok[0] != "name":
            self._fail(expected)
        return self._advance()[1]

    def _declare(self, expected: str) -> tuple[str, SourcePosition]:
        """Read a declared name and the position where it is declared."""
        offset = self.tok[2]
        return self._expect_name(expected), self._position(offset)

    def _synchronize(self) -> str | None:
        """Skip ahead past the next ';' or '}'; returns the consumed terminator."""
        while self.tok[0] != "eof":
            text = self._advance()[1]
            if text in (";", "}"):
                return text
        return None

    # -- grammar productions -------------------------------------------------

    def parse_model(self) -> list[PackageDef]:
        packages: list[PackageDef] = []
        while self.tok[0] != "eof":
            if self.tok[1] == "package":
                try:
                    packages.append(self._package())
                except _Panic:
                    self._synchronize()
            else:
                self._error("'package'")
                self._synchronize()
        if not packages and not self.errors and not self.bad:
            self._error("at least one package declaration")
        # every lexer error is known once `eof` is current; they are reported first
        self.errors[:0] = [ParseError(self._position(offset), expected, found)
                           for offset, expected, found in self.bad]
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
            elif self.tok[0] == "eof":
                self._error("'class' or '}'")
                closed = True
            elif self.tok[1] in ("class", "abstract"):
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
            elif self.tok[1] in ("field", "method", "abstract"):
                try:
                    if self.tok[1] == "field":
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
        kind, text, _ = self.tok
        if kind == "name" and text in _PRIMITIVES:
            self._advance()
            target, attribute_kind = None, NO_TARGET
        elif kind == "name":
            target = self._typeref(package)
            attribute_kind = ASSOCIATION
            if self._match(","):
                kind, text, _ = self.tok
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
            kind, text, _ = self.tok
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


class _SchemaWalker:
    """Strict walk of the interchange document; collects every schema error.

    Any error rejects the whole document, so a declaration is built only while
    there is none.  Each distinct valid `pkg.Class` is checked once and shared.
    """

    def __init__(self, position: SourcePosition | None) -> None:
        self.errors: list[ValidationError] = []
        self.position = position
        self.names: dict[str, QualifiedName] = {}

    def error(self, path: _Path, message: str) -> None:
        self.errors.append(ValidationError(SCHEMA_ERROR, _locus(path), message, self.position))

    def expected(self, path: _Path, what: str, value: Any) -> None:
        self.error(path, f"expected {what}, got {type(value).__name__}")

    def obj(self, value: Any, path: _Path, keys: KeysView[str]) -> dict | None:
        if type(value) is not dict:
            return self.expected(path, "an object", value)
        if value.keys() == keys:
            return value
        for key in value:
            if key not in keys:
                self.error((path, key), "unknown field")
        missing = [k for k in keys if k not in value]
        for key in missing:
            self.error((path, key), "missing field")
        return None if missing else value

    def items(self, value: Any, path: _Path, decode: Callable[[Any, _Path], Any]) -> list:
        """Decode each element of an array at `path[i]`."""
        if type(value) is not list:
            self.expected(path, "an array", value)
            return []
        return [decode(item, (path, i)) for i, item in enumerate(value)]

    def identifier(self, value: Any, path: _Path) -> str | None:
        if type(value) is not str:
            return self.expected(path, "a string", value)
        if not IDENTIFIER_RE.match(value):
            return self.error(path, f"not a valid identifier: {value!r}")
        return value

    def qualified(self, value: Any, path: _Path) -> QualifiedName | None:
        if type(value) is not str:
            return self.expected(path, "a string", value)
        name = self.names.get(value)
        if name is None:
            package, dot, cls = value.partition(".")
            if not dot or not IDENTIFIER_RE.match(package) or not IDENTIFIER_RE.match(cls):
                return self.error(path, f"expected 'pkg.Class', got {value!r}")
            name = self.names[value] = QualifiedName(package, cls)
        return name

    def package(self, value: Any, path: _Path) -> PackageDef | None:
        obj = self.obj(value, path, _PACKAGE_KEYS)
        if obj is None:
            return None
        name = self.identifier(obj["name"], (path, "name"))
        classes = self.items(obj["classes"], (path, "classes"), self.class_)
        return None if self.errors else PackageDef(name, tuple(classes), self.position)

    def class_(self, value: Any, path: _Path) -> ClassDef | None:
        obj = self.obj(value, path, _CLASS_KEYS)
        if obj is None:
            return None
        name = self.identifier(obj["name"], (path, "name"))
        is_abstract = obj["abstract"]
        if type(is_abstract) is not bool:
            self.expected((path, "abstract"), "a boolean", is_abstract)
        parents = self.items(obj["parents"], (path, "parents"), self.qualified)
        attributes = self.items(obj["attributes"], (path, "attributes"), self.attribute)
        methods = self.items(obj["methods"], (path, "methods"), self.method)
        return None if self.errors else ClassDef(
            name, is_abstract, tuple(parents), tuple(attributes), tuple(methods), self.position)

    def attribute(self, value: Any, path: _Path) -> AttributeDef | None:
        obj = self.obj(value, path, _ATTRIBUTE_KEYS)
        if obj is None:
            return None
        name = self.identifier(obj["name"], (path, "name"))
        target = None
        if obj["target"] is not None:
            target = self.qualified(obj["target"], (path, "target"))
            if target is None:
                return None
        kind = obj["kind"]
        if kind not in (ASSOCIATION, AGGREGATION, NO_TARGET):
            return self.error((path, "kind"),
                              f"expected 'association', 'aggregation' or 'none', got {kind!r}")
        if (kind == NO_TARGET) != (target is None):
            self.error((path, "kind"), "kind 'none' is required exactly when target is null")
        return None if self.errors else AttributeDef(name, target, kind, self.position)

    def method(self, value: Any, path: _Path) -> MethodDef | None:
        obj = self.obj(value, path, _METHOD_KEYS)
        if obj is None:
            return None
        name = self.identifier(obj["name"], (path, "name"))
        is_abstract = obj["abstract"]
        if type(is_abstract) is not bool:
            self.expected((path, "abstract"), "a boolean", is_abstract)
        weight = obj["weight"]
        if type(weight) is not int or weight < 1:
            self.error((path, "weight"), f"expected a positive integer, got {weight!r}")
        elif weight > MAX_WEIGHT:
            self.error((path, "weight"), f"expected a weight of at most {MAX_WEIGHT}")
        reads = self.items(obj["reads"], (path, "reads"), self.identifier)
        uses = self.items(obj["uses"], (path, "uses"), self.qualified)
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

    Given a `path`, each declaration and each error has a position naming that
    file (no line or column).  Raises ModelError with MalformedDocument /
    SchemaError entries (the locus is the JSON path of the offending field).
    """
    position = SourcePosition(None, None, path) if path is not None else None
    try:
        data = json.loads(document, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ModelError([ValidationError(MALFORMED_DOCUMENT, f"line {exc.lineno}",
                                          f"not well-formed JSON: {exc.msg}", position)]) from None
    except ValueError as exc:  # a repeated key, or an integer too long to convert
        raise ModelError([ValidationError(
            MALFORMED_DOCUMENT, "document", str(exc), position)]) from None
    except RecursionError:
        raise ModelError([ValidationError(
            MALFORMED_DOCUMENT, "document", "JSON nesting is too deep", position)]) from None

    walker = _SchemaWalker(position)
    root = walker.obj(data, None, _ROOT_KEYS)
    packages = [] if root is None else walker.items(root["packages"], (None, "packages"),
                                                    walker.package)
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
