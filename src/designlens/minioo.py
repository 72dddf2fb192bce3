"""The MiniOO frontend: MiniOO declaration source to a CodeModel.

A recursive descent parser with error recovery at `;` / `}`.  `import designlens`
leaves it out; it loads on the first use of one of its names.
"""

from __future__ import annotations

import re
import sys
from array import array
from bisect import bisect_right
from typing import NamedTuple, NoReturn

from .frontends import _shared
from .model import (AGGREGATION, ASSOCIATION, MAX_WEIGHT, NO_TARGET, WEIGHT, AttributeDef,
                    ClassDef, CodeModel, MethodDef, ModelError, PackageDef, QualifiedName,
                    SourcePosition, echo)

_PRIMITIVES = ("int", "real", "text", "bool")
_MAX_WEIGHT_DIGITS = len(str(MAX_WEIGHT))
_ATTRIBUTE_KINDS = {"assoc": ASSOCIATION, "aggr": AGGREGATION}


class _Offset(int):
    """A MiniOO declaration's offset: an `int` of a class each parse makes, which is the
    file the parse read: its `path`, and `starts`, the offset each line starts at, filled
    in when the parse ends; it keeps no source text.  It is `resolved()` only when the
    `position` is read, and it pickles and copies as its `SourcePosition`."""

    __slots__ = ()
    path: str | None  # class attributes of each parse's subclass
    starts: array

    def resolved(self) -> SourcePosition:
        """The line and column of the offset; the column counts code points."""
        starts = self.starts
        line = bisect_right(starts, self)
        return SourcePosition(line, self - starts[line - 1] + 1, self.path)

    def __reduce__(self) -> tuple:
        return SourcePosition, tuple(self.resolved())


class ParseError(NamedTuple):
    position: SourcePosition
    expected: str
    found: str

    def __str__(self) -> str:
        return (f"{self.position.line}:{self.position.column}: "
                f"expected {self.expected}, found {self.found}")


# Whitespace and `//` comments before a token.  No token starts with either, and a comment
# runs to the end of its line, so each repeat is possessive: it keeps no backtracking state.
_SKIP = r"[ \t\r\n]*+(?://[^\n]*+[ \t\r\n]*+)*+"
_NAME = r"[A-Za-z_][A-Za-z0-9_]*(?!\w)"

# Skipped whitespace and `//` comments, then one token: an ASCII name, punctuation, an
# ASCII INT, the end, or anything else.  `\w` is `str.isalnum()` or "_", so a MiniOO
# word that is not an ASCII name, or that starts with a non-ASCII digit, falls to `bad`.
_TOKEN_RE = re.compile(
    rf"{_SKIP}(?:(?P<name>{_NAME})"
    r"|(?P<punctuation>[{}();:,.])"
    r"|(?P<int>[0-9]+)"
    r"|(?P<eof>\Z)"
    r"|(?P<bad>\w+|.))", re.DOTALL)

_PRIMITIVE = rf"(?:{'|'.join(_PRIMITIVES)})(?!\w)"
_TYPEREF = rf"{_NAME}(?:{_SKIP}\.{_SKIP}{_NAME})?"

# One member statement that `_field` or `_method` would read without an error, from the
# skip before it to its `;`, but for the weight check.  Each keyword is a whole word, and
# a field's type is a primitive or else a typeref: `int.Foo` is neither.
_MEMBER = (
    rf"{_SKIP}(?:field(?!\w){_SKIP}(?P<field>{_NAME}){_SKIP}:{_SKIP}(?:{_PRIMITIVE}"
    rf"|(?!{_PRIMITIVE})(?P<first>{_NAME})(?:{_SKIP}\.{_SKIP}(?P<second>{_NAME}))?"
    rf"(?:{_SKIP},{_SKIP}(?P<kind>{'|'.join(_ATTRIBUTE_KINDS)})(?!\w))?)"
    rf"|(?P<abstract>abstract(?!\w){_SKIP})?method(?!\w){_SKIP}(?P<method>{_NAME})"
    rf"(?:{_SKIP}weight(?!\w){_SKIP}(?P<weight>[1-9][0-9]*))?"
    rf"(?:{_SKIP}reads(?!\w){_SKIP}\({_SKIP}(?P<reads>{_NAME}(?:{_SKIP},{_SKIP}{_NAME})*)"
    rf"{_SKIP}\))?"
    rf"(?:{_SKIP}uses(?!\w){_SKIP}\({_SKIP}(?P<uses>{_TYPEREF}(?:{_SKIP},{_SKIP}{_TYPEREF})*)"
    rf"{_SKIP}\))?){_SKIP};")

# One item of a matched `reads` or `uses` list: a name, or both names of `pkg.Class`.
_ITEM = rf"[ \t\r\n,]*+(?://[^\n]*+[ \t\r\n,]*+)*+({_NAME})(?:{_SKIP}\.{_SKIP}({_NAME}))?"


def _bad_weight(weight: str) -> bool:
    """Whether an INT, [0-9]+, is no weight: a weight has no leading zero and is at most
    MAX_WEIGHT; one of more digits than MAX_WEIGHT is never converted."""
    return weight[0] == "0" or len(weight) > _MAX_WEIGHT_DIGITS or int(weight) > MAX_WEIGHT


class _Panic(Exception):
    """Internal signal: abandon the current production and resynchronize."""


class _MiniOOParser:
    """Recursive descent over one regex match at a time: the current token is `kind`
    (its group in `_TOKEN_RE`), `text` and `match`.  No production advances past `eof`.

    A parse keeps one object per distinct value: each name it stores is interned, each
    read or use set is kept through `sets` and each typeref through `names`, so equal
    ones are one object.  Each distinct `reads` text is read once, through `reads`."""

    def __init__(self, source: str, path: str | None):
        self.source = source
        self.bad: list[tuple[int, str, str]] = []  # the lexer's (offset, expected, found)
        self._next = _TOKEN_RE.finditer(source).__next__
        self._advance()
        self.errors: list = []  # the parser's (offset, expected, found) until the parse ends
        # every declaration's offset is one `at(offset)`; only they refer to this class
        self.at = type("_Offset", (_Offset,),
                       {"__slots__": (), "path": path, "starts": array("q", [0])})
        self.sets: dict[frozenset, frozenset] = {}
        self.names: dict[tuple[str, str], QualifiedName] = {}
        # each distinct `reads` text matched, to its set; no list at all is the empty set
        self.reads: dict[str | None, frozenset] = {None: _shared(self.sets, ())}
        # compiled by the first parse, not on import, which they would slow by milliseconds;
        # `re` keeps them for every later parse
        self.member = re.compile(_MEMBER).match
        self.items = re.compile(_ITEM).findall

    # -- token stream helpers ------------------------------------------------

    def _advance(self) -> None:
        """Make the next token current; skip each illegal character or word into `bad`."""
        match = self._next()
        kind = match.lastgroup
        while kind == "bad":
            start, text = match.start(kind), match[kind]
            if text[0].isalpha() or text[0] == "_":  # a word with a non-ASCII character
                self.bad.append((start, "a name", echo(text)))
            else:  # an illegal character, or a non-ASCII digit: rescan after it
                self.bad.append((start, "a token", repr(text[0])))
                self._next = _TOKEN_RE.finditer(self.source, start + 1).__next__
            match = self._next()
            kind = match.lastgroup
        self.kind, self.text, self.match = kind, match[kind], match

    def _error(self, expected: str) -> None:
        found = "end of input" if self.kind == "eof" else echo(self.text)
        self.errors.append((self.match.start(self.kind), expected, found))

    def _fail(self, expected: str) -> NoReturn:
        self._error(expected)
        raise _Panic()

    def _expect(self, text: str) -> None:
        if self.text != text:
            self._fail(f"'{text}'")
        self._advance()

    def _name(self, expected: str) -> str:
        if self.kind != "name":
            self._fail(expected)
        name = self.text
        self._advance()
        return name

    def _declare(self, expected: str) -> tuple[str, _Offset]:
        """Read a declared name and the position where it is declared."""
        position = self.at(self.match.start(self.kind))
        return sys.intern(self._name(expected)), position

    def _synchronize(self) -> str | None:
        """Skip ahead past the next ';' or '}'; returns the consumed terminator."""
        while self.kind != "eof":
            text = self.text
            self._advance()
            if text == ";" or text == "}":
                return text
        return None

    # -- grammar productions -------------------------------------------------
    # A production whose first keyword its caller has seen steps over it unchecked.

    def parse_model(self) -> list[PackageDef]:
        packages: list[PackageDef] = []
        while self.kind != "eof":
            if self.text == "package":
                try:
                    packages.append(self._package())
                except _Panic:
                    self._synchronize()
            else:
                self._error("'package'")
                self._synchronize()
        if not packages and not self.errors and not self.bad:
            self._error("at least one package declaration")
        self.at.starts.extend(map(re.Match.end, re.finditer("\n", self.source)))
        # every lexer error is known once `eof` is current; they are reported first
        self.errors = [ParseError(self.at(offset).resolved(), expected, found)
                       for offset, expected, found in self.bad + self.errors]
        return packages

    def _package(self) -> PackageDef:
        self._advance()
        name, position = self._declare("a package name")
        self._expect("{")
        classes: list[ClassDef] = []
        closed = False
        while not closed:
            text = self.text
            if text == "class" or text == "abstract":
                try:
                    classes.append(self._class(name))
                except _Panic:
                    closed = self._synchronize() is None
            elif text == "}":
                self._advance()
                closed = True
            elif self.kind == "eof":
                self._error("'class' or '}'")
                closed = True
            else:
                self._error("'class', 'abstract' or '}'")
                closed = self._synchronize() is None
        return PackageDef(name, tuple(classes), position)

    def _class(self, package: str) -> ClassDef:
        is_abstract = self.text == "abstract"
        self._advance()
        if is_abstract:
            self._expect("class")
        name, position = self._declare("a class name")
        parents: list[QualifiedName] = []
        if self.text == "extends":
            self._advance()
            parents.append(self._qualified(package, *self._typeref()))
            while self.text == ",":
                self._advance()
                parents.append(self._qualified(package, *self._typeref()))
        if self.text != "{":
            self._fail("'{'")
        attributes: list[AttributeDef] = []
        methods: list[MethodDef] = []
        # one match per member, up to `}` or the first member `_MEMBER` does not match:
        # that member is malformed, so the body is read on from it only to report errors
        source, sets, intern, pos = self.source, self.sets, sys.intern, self.match.end()
        at, read_sets, qualified = self.at, self.reads, self._qualified
        empty = read_sets[None]
        # groups by number: 1 `field`, 6 `method`, 9 `uses`
        while member := self.member(source, pos):
            field, first, second, kind, abstract, method, weight, reads, uses = member.groups()
            if field is not None:
                target = None if first is None else qualified(package, first, second)
                kind = NO_TARGET if first is None else _ATTRIBUTE_KINDS.get(kind, ASSOCIATION)
                attributes.append(AttributeDef(intern(field), target, kind, at(member.start(1))))
            elif weight is not None and len(weight) >= _MAX_WEIGHT_DIGITS and _bad_weight(weight):
                break  # `_method` reports the weight
            else:
                read_set = read_sets.get(reads)
                if read_set is None:
                    read_sets[reads] = read_set = _shared(
                        sets, [intern(name) for name, _ in self.items(reads)])
                uses = empty if uses is None else _shared(sets, [
                    qualified(package, *names) for names in self.items(source, *member.span(9))])
                methods.append(MethodDef(
                    intern(method), abstract is not None, 1 if weight is None else int(weight),
                    read_set, uses, at(member.start(6))))
            pos = member.end()
        self._next = _TOKEN_RE.finditer(source, pos).__next__
        self._advance()
        closed = False
        while not closed:
            text = self.text
            try:
                if text == "field":
                    self._field()
                elif text == "method" or text == "abstract":
                    self._method()
                elif text == "}":
                    self._advance()
                    closed = True
                else:
                    self._fail("'field', 'method' or '}'")
            except _Panic:
                closed = self._synchronize() in ("}", None)
        return ClassDef(name, is_abstract, tuple(parents), tuple(attributes), tuple(methods),
                        position)

    # `_class` reads each well-formed member with one `_MEMBER` match: `_field` and
    # `_method` read only from a malformed member on, so they report its errors and those
    # of the members after it, and build nothing.
    def _field(self) -> None:
        self._advance()
        self._name("a field name")
        self._expect(":")
        if self.text in _PRIMITIVES:
            self._advance()
        else:
            self._typeref()
            if self.text == ",":
                self._advance()
                if self.text not in _ATTRIBUTE_KINDS:
                    self._fail("'assoc' or 'aggr'")
                self._advance()
        self._expect(";")

    def _method(self) -> None:
        if self.text == "abstract":
            self._advance()
        self._expect("method")
        self._name("a method name")
        if self.text == "weight":
            self._advance()
            if self.kind != "int" or _bad_weight(self.text):
                self._fail(WEIGHT)
            self._advance()
        if self.text == "reads":
            self._advance()
            self._expect("(")
            self._name("an attribute name")
            while self.text == ",":
                self._advance()
                self._name("an attribute name")
            self._expect(")")
        if self.text == "uses":
            self._advance()
            self._expect("(")
            self._typeref()
            while self.text == ",":
                self._advance()
                self._typeref()
            self._expect(")")
        self._expect(";")

    def _typeref(self) -> tuple[str, str | None]:
        """Read a typeref: `first`, or `first.second`."""
        first = self._name("a type name")
        if self.text != ".":
            return first, None
        self._advance()
        return first, self._name("a class name")

    def _qualified(self, package: str, first: str, second: str | None) -> QualifiedName:
        """The typeref `first` (in `package`) or `first.second`, one object per name."""
        key = (first, second) if second else (package, first)
        name = self.names.get(key)
        if name is None:
            name = self.names[key] = QualifiedName(sys.intern(key[0]), sys.intern(key[1]))
        return name


def parse_minioo_declarations(source: str, path: str | None = None) -> list[PackageDef]:
    """Syntax-only MiniOO parse: declarations, each with its source position in `path`.

    Raises ModelError with every ParseError found on any syntax error; semantic
    validation is the caller's job (see parse_minioo).
    """
    parser = _MiniOOParser(source, path)
    packages = parser.parse_model()
    if parser.errors:
        raise ModelError(parser.errors)
    return packages


def parse_minioo(source: str) -> CodeModel:
    """Parse MiniOO source and validate it into a CodeModel.

    Raises ModelError: with the ParseErrors for syntax errors, else with the
    ValidationErrors (each at the source position of the declaration it concerns).
    """
    return CodeModel(parse_minioo_declarations(source))
