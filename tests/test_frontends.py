import copy
import gc
import io
import json
import pickle
import random
import re
import sys
import tracemalloc
import weakref
from array import array
from bisect import bisect_right
from typing import Any, Iterator, NoReturn
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import designlens
from designlens import cli, frontends
from designlens.frontends import (
    MALFORMED_DOCUMENT,
    SCHEMA_ERROR,
    SourcePosition,
    decode_interchange,
    read_interchange,
    unique_keys,
    write_interchange,
)
from designlens.minioo import (
    ParseError,
    _MiniOOParser,
    _Offset,
    parse_minioo,
    parse_minioo_declarations,
)
from designlens.model import (
    AGGREGATION,
    ASSOCIATION,
    FLAG,
    IDENTIFIER,
    KIND,
    MAX_WEIGHT,
    NO_TARGET,
    UNRESOLVED_REFERENCE,
    WEIGHT,
    AttributeDef,
    ClassDef,
    CodeModel,
    MethodDef,
    ModelError,
    PackageDef,
    QualifiedName,
    ValidationError,
)
from conftest import FIXTURES
from modelgen import (
    LEXICAL_CHARACTERS,
    MUTATED_DOCUMENTS,
    MUTATED_SOURCES,
    random_model,
    write_minioo,
)


# What the references take for a name: the regular expression the predicate
# `str.isascii() and str.isidentifier()` replaced.
IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def qn(package, cls):
    return QualifiedName(package, cls)


# Hand-derived expectation for the reference fixture, traced from the grammar.
REFERENCE_MODEL = CodeModel((
    PackageDef("core", (
        ClassDef("Shape", is_abstract=True, methods=(MethodDef("area", weight=2),)),
        ClassDef("Circle",
                 parents=(qn("core", "Shape"),),
                 attributes=(AttributeDef("r"),),
                 methods=(MethodDef("area", weight=3, reads=frozenset({"r"})),)),
    )),
    PackageDef("app", (
        ClassDef("Canvas",
                 attributes=(AttributeDef("s", qn("core", "Shape"), AGGREGATION),),
                 methods=(MethodDef("draw", uses=frozenset({qn("core", "Shape")})),)),
        ClassDef("Main", methods=(MethodDef("run", uses=frozenset({qn("app", "Canvas")})),)),
    )),
))


# -- MiniOO parsing ---------------------------------------------------------------


def test_minimal_program_parses():
    model = parse_minioo("package p { class A { } }")
    assert [pkg.name for pkg in model.packages] == ["p"]
    cls = model.packages[0].classes[0]
    assert cls.name == "A" and not cls.is_abstract and cls.methods == ()


def test_reference_fixture_parses_to_hand_derived_model(reference_source):
    assert parse_minioo(reference_source) == REFERENCE_MODEL


def test_reference_fixture_derives_the_expected_edges(reference_source):
    from designlens.model import class_graph
    _, edges = class_graph(parse_minioo(reference_source))
    edges = [(str(e.source), str(e.target), e.kind) for e in edges]
    assert edges == [
        ("app.Canvas", "core.Shape", "aggregation"),
        ("app.Canvas", "core.Shape", "use"),
        ("app.Main", "app.Canvas", "use"),
        ("core.Circle", "core.Shape", "inherit"),
    ]


def test_missing_type_reports_error_at_semicolon_position():
    source = "package p { class A { field x: ; } }"
    with pytest.raises(ModelError) as excinfo:
        parse_minioo(source)
    [error] = excinfo.value.errors
    assert type(error) is ParseError
    assert str(excinfo.value) == "1 error(s): 1:32: expected a type name, found ';'"
    assert error.expected == "a type name"
    assert error.found == "';'"
    assert (error.position.line, error.position.column) == (1, 32)
    assert source[error.position.column - 1] == ";"


def test_parser_recovers_and_reports_multiple_errors():
    source = """\
package p {
  class A {
    field x: ;
    field y: int
    method ok;
  }
}
"""
    with pytest.raises(ModelError) as excinfo:
        parse_minioo(source)
    errors = excinfo.value.errors
    assert len(errors) >= 2
    assert errors[0].position.line == 3
    assert errors[1].position.line >= 4


def test_unqualified_typeref_resolves_to_enclosing_package():
    model = parse_minioo("package p { class B { } class A extends B { } }")
    assert model.packages[0].classes[1].parents == (qn("p", "B"),)


def test_field_defaults_to_association_and_method_weight_to_one():
    model = parse_minioo("package p { class B { } class A { field b: B; method m; } }")
    cls = model.packages[0].classes[1]
    assert cls.attributes[0].kind == ASSOCIATION
    assert cls.methods[0].weight == 1


def test_comments_and_whitespace_are_insignificant():
    source = "// header\npackage p {  // trailing\n\tclass A { }\n}\n"
    squeezed = "package p{class A{}}"
    assert parse_minioo(source) == parse_minioo(squeezed)


def test_interface_style_class_parses():
    model = parse_minioo(
        "package p { abstract class I { abstract method f; abstract method g; } }")
    cls = model.packages[0].classes[0]
    assert cls.is_abstract and all(m.is_abstract for m in cls.methods)


def test_weight_zero_is_a_syntax_error():
    with pytest.raises(ModelError) as excinfo:
        parse_minioo("package p { class A { method m weight 0; } }")
    assert excinfo.value.errors[0].expected == f"an integer from 1 to {MAX_WEIGHT}"


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])  # superscript two, Arabic-Indic three
def test_non_ascii_digit_weight_is_a_positioned_syntax_error(tmp_path, digit):
    source = f"package p {{ class A {{ method m weight {digit}; }} }}"
    with pytest.raises(ModelError) as excinfo:
        parse_minioo(source)
    assert [str(error) for error in excinfo.value.errors] == [
        f"1:39: expected a token, found '{digit}'",
        f"1:40: expected an integer from 1 to {MAX_WEIGHT}, found ';'",
    ]
    path = tmp_path / "digit.minioo"
    path.write_text(source, encoding="utf-8")
    stderr = io.StringIO()
    assert cli.run(["analyze", str(path)], stdout=io.StringIO(), stderr=stderr) == cli.EXIT_INPUT
    assert stderr.getvalue().startswith(f"{path}:1:39: expected a token")


def test_class_body_cut_at_end_of_input_reports_both_open_blocks():
    with pytest.raises(ModelError) as excinfo:
        parse_minioo("package p { class A { field x: int;")
    assert [str(error) for error in excinfo.value.errors] == [
        "1:36: expected 'field', 'method' or '}', found end of input",
        "1:36: expected 'class' or '}', found end of input",
    ]


@pytest.mark.parametrize("source,expected", [
    ("", ["1:1: expected at least one package declaration, found end of input"]),
    ("// only a comment\n", ["2:1: expected at least one package declaration, found end of input"]),
    ("\u00e9 #", ["1:1: expected a name, found '\u00e9'", "1:3: expected a token, found '#'"]),
])
def test_a_source_without_packages_fails_once_at_its_first_error(source, expected):
    # lexer errors alone are reason enough: no "at least one package" error follows them
    with pytest.raises(ModelError) as excinfo:
        parse_minioo_declarations(source, "s.minioo")
    assert [str(error) for error in excinfo.value.errors] == expected
    assert all(error.position.path == "s.minioo" for error in excinfo.value.errors)


def test_keywords_are_contextual_names():
    model = parse_minioo("package p { class A { field weight: int; method uses reads (weight); } }")
    cls = model.packages[0].classes[0]
    assert cls.attributes[0].name == "weight"
    assert cls.methods[0].name == "uses"


def test_declaration_parse_exposes_a_position_index(reference_source):
    packages = parse_minioo_declarations(reference_source, "reference.minioo")
    assert [pkg.name for pkg in packages] == ["core", "app"]
    assert packages[0].position.line == 1
    assert packages[0].classes[1].position.line == 3
    assert packages[1].classes[1].methods[0].position.line == 7
    assert packages[1].classes[1].methods[0].position.path == "reference.minioo"


# -- positions: a source offset, resolved to a line and column only when read ---------


@pytest.mark.parametrize("source,expected", [
    # only "\n" ends a line: a "\r" before it is the last column of its line
    ("package p {\r\n  class A {\r\n    field x: int; }\r\n}\r\n", [(1, 9), (2, 9), (3, 11)]),
    # offsets and columns count code points, whatever their length in UTF-8 or UTF-16
    ("// \u00e9\u2603\U0001F600\npackage p { class A { field x: int; } }",
     [(2, 9), (2, 19), (2, 29)]),
    # a source that starts with its package, and a last line with no "\n"
    ("package p {\n class A { field x: int; } }", [(1, 9), (2, 8), (2, 18)]),
])
def test_declarations_are_located_by_line_and_code_point_column(source, expected):
    packages = parse_minioo_declarations(source, "m.minioo")
    assert [(d.position.line, d.position.column) for d in _declarations(packages)] == expected
    assert _parsed(parse_minioo_declarations, source) == _parsed(reference_parse_declarations,
                                                                 source)


@pytest.mark.parametrize("source,expected", [
    ("x", ["1:1: expected 'package', found 'x'"]),
    ("package p {\r\n class A { field x: ; } }", ["2:21: expected a type name, found ';'"]),
    ("package p { } // \U0001F600\n\u2603 \U0001F600 #",
     ["2:1: expected a token, found '\u2603'", "2:3: expected a token, found '\U0001F600'",
      "2:5: expected a token, found '#'"]),
    ("package p {\n class A {", ["2:11: expected 'field', 'method' or '}', found end of input",
                                "2:11: expected 'class' or '}', found end of input"]),
])
def test_errors_are_located_by_line_and_code_point_column(source, expected):
    with pytest.raises(ModelError) as excinfo:
        parse_minioo_declarations(source, "m.minioo")
    assert [str(error) for error in excinfo.value.errors] == expected
    assert _parsed(parse_minioo_declarations, source) == _parsed(reference_parse_declarations,
                                                                 source)


@pytest.mark.parametrize("second,expected", [
    ("package b {\n  class B { field \u00e9x: int; method m reads (\U0001F600); }\n}\n",
     ["2:19: expected a name, found '\u00e9x'", "2:44: expected a token, found '\U0001F600'",
      "2:21: expected a field name, found ':'", "2:45: expected an attribute name, found ')'"]),
    ("// \u00fcber \u2603\npackage b {\n  class B { field x int; method m weight 0; }\n}",
     ["3:21: expected ':', found 'int'",
      f"3:42: expected an integer from 1 to {MAX_WEIGHT}, found '0'"]),
    ("package b {\n  class B extends a.Gone { field x: int; }\n  class B { }\n}\n  // \u00e9\n",
     ["3:9: DuplicateClass at b.B: class 'B' is declared more than once in package 'b'",
      "2:9: UnresolvedReference at b.B: parent class 'a.Gone' is not declared"]),
], ids=["lexer", "parser", "validation"])
def test_errors_in_the_second_of_two_files_are_located_in_it(tmp_path, second, expected):
    first, other = tmp_path / "a.minioo", tmp_path / "b.minioo"
    first.write_text("package a {\n  class A { field x: int; method m reads (x); }\n}\n",
                     encoding="utf-8")
    other.write_text(second, encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    assert cli.run(["analyze", str(first), str(other)], stdout=stdout,
                   stderr=stderr) == cli.EXIT_INPUT
    assert stdout.getvalue() == ""
    assert stderr.getvalue() == "".join(f"{other}:{line}\n" for line in expected)


def test_a_parsed_position_equals_pickles_and_copies_as_a_source_position(reference_source):
    packages = parse_minioo_declarations(reference_source, "reference.minioo")
    position = packages[1].classes[1].methods[0].position
    expected = SourcePosition(7, 23, "reference.minioo")
    assert position == expected and expected == position and hash(position) == hash(expected)
    assert not position != expected and position != SourcePosition(7, 22, "reference.minioo")
    assert repr(position) == str(position) == repr(expected)
    duplicates = [copy.copy(position), copy.deepcopy(position),
                  *(pickle.loads(pickle.dumps(position, protocol))
                    for protocol in range(pickle.HIGHEST_PROTOCOL + 1))]
    assert all(type(d) is SourcePosition and d == expected for d in duplicates)
    positions = [d.position for d in _declarations(packages)]
    for duplicate in (pickle.loads(pickle.dumps(packages)), copy.deepcopy(packages)):
        assert duplicate == packages
        assert [d.position for d in _declarations(duplicate)] == positions


def test_no_position_keeps_the_source_text_alive():
    # a position is its offset, of a class made per parse that is the file record: its
    # path and its line starts
    source = write_minioo(random_model(random.Random(3), max_classes=40))
    packages = parse_minioo_declarations(source, "m.minioo")
    reached, seen, stack = [], set(), [packages]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        reached.append(obj)
        stack.extend(gc.get_referents(obj))
        if isinstance(obj, _Offset):  # its class, skipped above, is the file record
            stack += [type(obj).path, type(obj).starts]
    positions = sum(isinstance(obj, _Offset) for obj in reached)
    assert positions == sum(1 for _ in _declarations(packages)) > 100
    assert any(isinstance(obj, array) and obj.typecode == "q" for obj in reached)
    assert not any(obj is source or (isinstance(obj, str) and len(obj) > 100)
                   for obj in reached)


def test_a_position_at_offset_zero_is_true_and_prints_and_collects_as_a_position():
    # an error at offset 0 has a true position; a declaration's offset refers only to
    # the class its parse made, which is freed with the declarations
    with pytest.raises(ModelError) as excinfo:
        parse_minioo_declarations("x", "m.minioo")
    position = excinfo.value.errors[0].position
    expected = SourcePosition(1, 1, "m.minioo")
    assert position and position == expected
    assert str(position) == format(position) == f"{position}" == repr(expected)
    assert str(ValidationError("X", "p", "m", position)) == "1:1: X at p: m"
    packages = parse_minioo_declarations("package p { class A { field x: int; } }")
    locator = packages[0]._position
    assert gc.get_referents(locator) == [type(locator)]
    per_parse = weakref.ref(type(locator))
    del locator
    assert type(packages[0].classes[0]._position) is per_parse()
    del packages
    gc.collect()  # a class sits in reference cycles, so only the collector frees it
    assert per_parse() is None


def test_a_clean_parse_and_analysis_resolve_no_position(monkeypatch, reference_source):
    resolved = []

    def counted(starts, offset):
        resolved.append(offset)
        return bisect_right(starts, offset)

    monkeypatch.setattr(designlens.minioo, "bisect_right", counted)
    packages = parse_minioo_declarations(reference_source, "reference.minioo")
    CodeModel(packages)
    assert cli.run(["analyze", str(FIXTURES / "reference.minioo")], stdout=io.StringIO(),
                   stderr=io.StringIO()) == cli.EXIT_OK
    assert resolved == []
    assert packages[1].position.line == 5 and len(resolved) == 1


def test_every_position_read_from_a_parse_is_a_source_position(monkeypatch, reference_source):
    # a declaration keeps only its offset, which `_replace` passes on unresolved; what
    # is read as a position, of a declaration or an error, is a plain SourcePosition
    resolved = []

    def counted(starts, offset):
        resolved.append(offset)
        return bisect_right(starts, offset)

    monkeypatch.setattr(designlens.minioo, "bisect_right", counted)
    declarations = list(_declarations(parse_minioo_declarations(reference_source, "r.minioo")))
    replaced = [declaration._replace(name="renamed") for declaration in declarations]
    assert resolved == []
    assert all(sys.getsizeof(declaration._position) <= 48 for declaration in declarations)
    positions = [declaration.position for declaration in declarations]
    assert [declaration.position for declaration in replaced] == positions
    assert all(type(position) is SourcePosition for position in positions)
    with pytest.raises(ModelError) as syntax:
        parse_minioo_declarations("é package p { class A { field x: ; } }", "s.minioo")
    with pytest.raises(ModelError) as semantic:
        parse_minioo("package p { class A extends q.B { } }")
    errors = syntax.value.errors + semantic.value.errors
    assert [type(error) for error in errors] == [ParseError, ParseError, ValidationError]
    assert all(type(error.position) is SourcePosition for error in errors)


def test_semantic_errors_carry_source_positions():
    source = "package p {\n  class A extends q.Missing { }\n}\n"
    with pytest.raises(ModelError) as excinfo:
        parse_minioo(source)
    error = excinfo.value.errors[0]
    assert error.code == UNRESOLVED_REFERENCE
    assert error.position is not None and error.position.line == 2


def test_parse_is_deterministic():
    source = "package p { class A { field x: ; } class B { } }"
    with pytest.raises(ModelError) as first:
        parse_minioo(source)
    with pytest.raises(ModelError) as second:
        parse_minioo(source)
    assert first.value.errors == second.value.errors
    assert parse_minioo("package p { class A { } }") == parse_minioo("package p { class A { } }")


def _line(source, offset):
    return source.count("\n", 0, offset) + 1


def test_first_error_position_stays_near_every_deleted_token(reference_source):
    # A deleted closing brace re-pairs the braces that remain, so its absence
    # is only detectable later; every other deletion must be reported no
    # further than the following token.
    lex_errors = []
    tokens = list(reference_token_stream(reference_source, lex_errors))[:-1]  # drop EOF
    assert lex_errors == []
    for index, (_, text, offset) in enumerate(tokens):
        mutated = reference_source[:offset] + reference_source[offset + len(text):]
        line = _line(reference_source, offset)
        next_line = _line(reference_source, tokens[index + 1][2]) if index + 1 < len(tokens) else None
        try:
            parse_minioo(mutated)
        except ModelError as failure:
            assert failure.errors  # a semantic-only outcome is a complete error list
            if isinstance(failure.errors[0], ParseError):
                reported = failure.errors[0].position.line
                assert reported >= line, (text, offset, failure.errors[0])
                if next_line is not None and text != "}":
                    assert reported <= next_line, (text, offset, failure.errors[0])


# -- the lexer against the character loop it replaced ---------------------------------


def reference_tokenize(source):
    """The character-by-character MiniOO lexer that the parser's scanner replaced:
    tokens as (kind, text, line, column) and its errors as ParseErrors, a word cut to
    40 characters."""
    tokens = []
    errors = []
    line, column = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            while i < n and source[i] != "\n":
                i += 1
                column += 1
            continue
        start_col = column
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            if not IDENTIFIER_RE.match(word):
                errors.append(ParseError(SourcePosition(line, start_col), "a name", repr(word[:40])))
            else:
                tokens.append(("name", word, line, start_col))
            column += j - i
            i = j
        elif "0" <= ch <= "9":
            j = i
            while j < n and "0" <= source[j] <= "9":
                j += 1
            tokens.append(("int", source[i:j], line, start_col))
            column += j - i
            i = j
        elif ch in "{}();:,.":
            tokens.append((ch, ch, line, start_col))
            i += 1
            column += 1
        else:
            errors.append(ParseError(SourcePosition(line, start_col), "a token", repr(ch)))
            i += 1
            column += 1
    tokens.append(("eof", "", line, column))
    return tokens, errors


def _line_and_column(source, offset):
    return _line(source, offset), offset - source.rfind("\n", 0, offset)


def _scan(source):
    """The parser's scanner stepped to the end, one `_MiniOOParser._advance` at a time:
    its tokens as (kind, text, offset), where kind is "name", "int", "eof" or the
    punctuation itself, the last one `eof`, and its errors as (offset, expected, found)."""
    scanner = _MiniOOParser(source, None)
    tokens = []
    while True:
        kind, text = scanner.kind, scanner.text
        tokens.append((text if kind == "punctuation" else kind, text, scanner.match.start(kind)))
        if kind == "eof":
            return tokens, scanner.bad
        scanner._advance()


def _lex(source):
    """The scanner's tokens as (kind, text, line, column) and its errors as ParseErrors."""
    tokens, bad = _scan(source)
    return ([(kind, text, *_line_and_column(source, offset)) for kind, text, offset in tokens],
            [ParseError(SourcePosition(*_line_and_column(source, offset)), expected, found)
             for offset, expected, found in bad])


_LEXICAL = st.text(alphabet=st.sampled_from(LEXICAL_CHARACTERS))


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), _LEXICAL))
def test_tokenize_matches_the_reference_character_loop(source):
    expected = reference_tokenize(source)
    assert _lex(source) == expected
    # the parser reports the lexer's errors first, at the same positions
    if expected[1]:
        with pytest.raises(ModelError) as excinfo:
            parse_minioo_declarations(source)
        assert excinfo.value.errors[:len(expected[1])] == expected[1]


@pytest.mark.parametrize("source", [
    "\u00b2", "a\u00b2", "1\u00b2", "\u00b2a1", "\u0663\u00e9", "\u216ba", "_\u00e9", "x/y", "a//b\nc",
    "\r\n\t\u00e9x 12ab", "\u00a0", "", "a \r\n\t", "a // no newline", "a;#", "x/",
])
def test_tokenize_matches_the_reference_on_word_edges(source):
    assert _lex(source) == reference_tokenize(source)


def test_parse_holds_no_token_list():
    # the parser reads the tokens one at a time: beyond the declarations it returns,
    # a parse allocates a few bytes per token (a list of token tuples took over 100)
    source = write_minioo(random_model(random.Random(0), max_packages=8, max_classes=250))
    tokens = len(reference_tokenize(source)[0])
    assert tokens >= 20_000
    tracemalloc.start()
    try:
        packages = parse_minioo_declarations(source)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert packages and (peak - retained) / tokens < 32


def _declarations(packages):
    """Every declaration of a parse, each package before its classes and each class
    before its attributes and methods."""
    for pkg in packages:
        yield pkg
        for cls in pkg.classes:
            yield cls
            yield from cls.attributes
            yield from cls.methods


# Names of more than one character: CPython shares the one-character strings anyway.
# Every reference form appears, unqualified ones included.
_SHARING_SOURCE = """
    package core {
      class Node { field size: int; field head: Tree;
                   method walk reads (size, head) uses (Tree); method trim; }
      class Tree { field size: int; field head: app.Leaf, aggr;
                   method walk reads (head, size) uses (core.Tree); method trim reads (size);
                   method sort uses (app.Leaf); }
    }
    package app {
      class Leaf extends core.Node { field size: int; method walk reads (size); method trim; }
    }
    """


def _assert_one_object_per_distinct_name_and_read_use_set(packages):
    declarations = list(_declarations(packages))
    methods = [d for d in declarations if isinstance(d, MethodDef)]
    references = [*(name for pkg in packages for cls in pkg.classes for name in cls.parents),
                  *(d.target for d in declarations if isinstance(d, AttributeDef) and d.target),
                  *(name for method in methods for name in method.uses)]
    names = [*(d.name for d in declarations), *(name for m in methods for name in m.reads),
             *(segment for name in references for segment in name)]
    sets = [s for method in methods for s in (method.reads, method.uses)]
    assert len(names) == 35 and len(sets) == 14 and len(references) == 6
    for kept in (names, sets, references):
        first = {}
        assert all(first.setdefault(value, value) is value for value in kept), kept
    empty = [s for s in sets if not s]
    assert len(empty) == 7 and all(s is empty[0] for s in empty)


def test_a_parse_keeps_one_object_per_distinct_name_and_read_use_set():
    _assert_one_object_per_distinct_name_and_read_use_set(
        parse_minioo_declarations(_SHARING_SOURCE))


def test_a_decode_keeps_one_object_per_distinct_name_and_read_use_set():
    # `json.loads` makes a new string for every value it reads
    document = write_interchange(parse_minioo(_SHARING_SOURCE))
    _assert_one_object_per_distinct_name_and_read_use_set(decode_interchange(document))


def test_each_distinct_reads_text_is_read_once(monkeypatch):
    read = []
    init = _MiniOOParser.__init__

    def counting(self, *args):
        init(self, *args)
        findall = self.items

        def items(*args):
            if len(args) == 1:  # a `reads` text; a `uses` list is read off the source
                read.append(args[0])
            return findall(*args)
        self.items = items

    monkeypatch.setattr(_MiniOOParser, "__init__", counting)
    source = ("package p { class A { field a: int; field b: int;\n"
              "  method m1 reads (a, b); method m2 reads (a, b); method m3 reads (b, a);\n"
              "  method m4 reads (a // c\n  , b); method m5 reads (a); method m6;\n"
              "  method m7 reads (a, b); method m8 reads (a); } }")
    reads = [m.reads for m in parse_minioo_declarations(source)[0].classes[0].methods]
    assert sorted(read) == sorted({"a, b", "b, a", "a // c\n  , b", "a"})
    assert reads[0] == {"a", "b"} and all(r is reads[0] for r in (*reads[1:4], reads[6]))
    assert reads[4] == {"a"} and reads[7] is reads[4]
    assert reads[5] == frozenset()


def test_an_unqualified_reference_names_a_class_of_its_own_package():
    source = ("package p { class A { } class U { field f: A; method m uses (A); } }\n"
              "package q { class A { } class U { field f: A; method m uses (A, p.A); } }")
    p, q = (package.classes[1] for package in parse_minioo_declarations(source))
    assert (p.attributes[0].target, q.attributes[0].target) == (qn("p", "A"), qn("q", "A"))
    assert p.methods[0].uses == {qn("p", "A")}
    assert q.methods[0].uses == {qn("q", "A"), qn("p", "A")}
    assert p.attributes[0].target in q.methods[0].uses


def test_a_parse_keeps_few_bytes_per_declaration():
    # slotted declarations, interned names, shared read/use sets and one-int positions
    # keep 248 B per declaration of this model; a tuple and an int per position kept
    # 292 B, and a __dict__ per declaration, a string per name and a frozenset per
    # read/use list 615 B
    source = write_minioo(random_model(random.Random(0), max_packages=4, max_classes=250))
    warm = parse_minioo_declarations(source)  # its names are interned while tracing is off
    gc.collect()  # a full collection empties the free lists, so all the parse keeps is traced
    tracemalloc.start()
    try:
        packages = parse_minioo_declarations(source)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    declarations = sum(1 for _ in _declarations(packages))
    assert packages == warm and declarations > 2000
    assert retained / declarations < 270


# -- the parser against the one it replaced -----------------------------------------
# A frozen copy of the parser that read tokens from a generator, one helper call per
# token: the mutated-source property below holds the current parser to its errors,
# positions and declarations.

_REFERENCE_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*)*"
    r"(?:(?P<int>[0-9]+)"
    r"|(?P<name>\w+)"
    r"|(?P<punctuation>[{}();:,.])"
    r"|(?P<eof>\Z)"
    r"|(?P<bad>.))", re.DOTALL)
_REFERENCE_NEWLINE_RE = re.compile("\n")
_REFERENCE_PRIMITIVES = ("int", "real", "text", "bool")
_REFERENCE_MAX_WEIGHT_DIGITS = len(str(MAX_WEIGHT))
_REFERENCE_ATTRIBUTE_KINDS = {"assoc": ASSOCIATION, "aggr": AGGREGATION}


def _reference_echo(value: Any) -> str:
    """An offending token or value as an error repeats it: a string quoted, cut to 40
    characters; any other value's repr, cut to 40 characters."""
    return repr(value[:40]) if isinstance(value, str) else repr(value)[:40]


def reference_token_stream(source: str,
                           bad: list[tuple[int, str, str]]) -> Iterator[tuple[str, str, int]]:
    """Yield the tokens of MiniOO source, then one `eof`.  Each illegal character or
    word is skipped and appended to `bad` as (offset, expected, found)."""
    pos, kind, scan = 0, None, _REFERENCE_TOKEN_RE.match
    while kind != "eof":
        match = scan(source, pos)
        kind = match.lastgroup
        start, pos = match.span(kind)
        text = match.group(kind)
        if kind == "name" and not text.isascii():
            # INT is tried first, so a word never starts with an ASCII digit
            if text[0].isalpha() or text[0] == "_":
                bad.append((start, "a name", _reference_echo(text)))
            else:
                bad.append((start, "a token", repr(text[0])))
                pos = start + 1
        elif kind == "bad":
            bad.append((start, "a token", repr(text)))
        else:
            yield (text if kind == "punctuation" else kind, text, start)


class _ReferencePanic(Exception):
    """Internal signal: abandon the current production and resynchronize."""


class ReferenceParser:
    def __init__(self, source: str, path: str | None):
        self.bad: list[tuple[int, str, str]] = []  # the lexer's (offset, expected, found)
        self.tokens = reference_token_stream(source, self.bad)
        self.tok = next(self.tokens)
        self.errors: list[ParseError] = []
        self.line_starts = [0, *(newline.end()
                                 for newline in _REFERENCE_NEWLINE_RE.finditer(source))]
        self.path = path

    # -- token stream helpers ------------------------------------------------

    def _advance(self) -> tuple[str, str, int]:
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
        found = "end of input" if kind == "eof" else _reference_echo(text)
        self.errors.append(ParseError(self._position(offset), expected, found))

    def _fail(self, expected: str) -> NoReturn:
        self._error(expected)
        raise _ReferencePanic()

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
                except _ReferencePanic:
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
                except _ReferencePanic:
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
                except _ReferencePanic:
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
        if kind == "name" and text in _REFERENCE_PRIMITIVES:
            self._advance()
            target, attribute_kind = None, NO_TARGET
        elif kind == "name":
            target = self._typeref(package)
            attribute_kind = ASSOCIATION
            if self._match(","):
                kind, text, _ = self.tok
                if kind != "name" or text not in _REFERENCE_ATTRIBUTE_KINDS:
                    self._fail("'assoc' or 'aggr'")
                self._advance()
                attribute_kind = _REFERENCE_ATTRIBUTE_KINDS[text]
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
                self._fail(f"an integer from 1 to {MAX_WEIGHT}")
            weight = int(text) if len(text) <= _REFERENCE_MAX_WEIGHT_DIGITS else MAX_WEIGHT + 1
            if weight > MAX_WEIGHT:
                self._fail(f"an integer from 1 to {MAX_WEIGHT}")
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


def reference_parse_declarations(source: str, path: str | None = None) -> list[PackageDef]:
    parser = ReferenceParser(source, path)
    packages = parser.parse_model()
    if parser.errors:
        raise ModelError(parser.errors)
    return packages


def _parsed(parse, source):
    """A parse's errors, or its declarations each beside its position, which
    declarations leave out of equality."""
    try:
        packages = parse(source, "m.minioo")
    except ModelError as failure:
        return failure.errors
    return [(declaration, declaration.position) for declaration in _declarations(packages)]


@settings(max_examples=300, deadline=None)
@given(MUTATED_SOURCES)
def test_parser_matches_the_reference_on_mutated_sources(source):
    assert _parsed(parse_minioo_declarations, source) == _parsed(reference_parse_declarations,
                                                                 source)
    reference_bad = []
    assert _scan(source) == (list(reference_token_stream(source, reference_bad)), reference_bad)


def test_parser_matches_the_reference_on_the_reference_fixture(reference_source):
    assert (_parsed(parse_minioo_declarations, reference_source)
            == _parsed(reference_parse_declarations, reference_source))


@pytest.mark.parametrize("source,expected", [
    # a word that starts with a non-ASCII digit is scanned again after that digit
    ("package p { class \u00b2A { } }", ["1:19: expected a token, found '\u00b2'"]),
    ("package p { class A { field \u0663x: int; } }", ["1:29: expected a token, found '\u0663'"]),
    ("package p { class A { method m weight 2\u00b2; } }",
     ["1:40: expected a token, found '\u00b2'"]),
    ("package p { class A { field x: int; } }\u0663", ["1:40: expected a token, found '\u0663'"]),
    ("package p { class A { field x: int; } }\u0663\u00b2a",
     ["1:40: expected a token, found '\u0663'", "1:41: expected a token, found '\u00b2'",
      "1:42: expected 'package', found 'a'"]),
    ("package p { class A { field x: int; } } \u00e9\u0663",
     ["1:41: expected a name, found '\u00e9\u0663'"]),
    # `abstract` opens a member only if `method` follows
    ("package p { class A { abstract field x: int; } }",
     ["1:32: expected 'method', found 'field'"]),
    ("package p { abstract class A { abstract; method m; } }",
     ["1:40: expected 'method', found ';'"]),
    ("package p { class A { abstract", ["1:31: expected 'method', found end of input",
                                          "1:31: expected 'class' or '}', found end of input"]),
])
def test_scan_restarts_and_abstract_members_are_located(source, expected):
    with pytest.raises(ModelError) as excinfo:
        parse_minioo_declarations(source)
    assert [str(error) for error in excinfo.value.errors] == expected
    assert _parsed(parse_minioo_declarations, source) == _parsed(reference_parse_declarations,
                                                                 source)


def _commented(source, rng, share):
    """`source` with a `// c` line or a newline put before about `share` of its tokens,
    `eof` included, each drawn by `rng`."""
    pieces, end = [], 0
    for _, text, offset in reference_token_stream(source, []):
        separator = rng.choice(("// c\n", "\n")) if rng.random() < share else ""
        pieces += [source[end:offset], separator, text]
        end = offset + len(text)
    return "".join(pieces)


_VALID_SOURCES = (
    st.sampled_from([(FIXTURES / "reference.minioo").read_text(encoding="utf-8"),
                     _SHARING_SOURCE])
    | st.integers(0, 2**16).map(
        lambda seed: write_minioo(random_model(random.Random(seed), max_classes=12))))


@settings(max_examples=300, deadline=None)
@given(source=_VALID_SOURCES, share=st.sampled_from((0.0, 0.2, 1.0)), seed=st.integers(0, 2**16))
def test_valid_members_never_enter_the_token_member_productions(source, share, seed):
    # each well-formed member is one `_MEMBER` match, and the checkers `_field` and
    # `_method` build nothing: a valid member the pattern missed would be dropped
    source = _commented(source, random.Random(seed), share)
    calls = []

    def counted(checker):
        def count(self):
            calls.append(checker.__name__)
            return checker(self)
        return count

    with patch.object(_MiniOOParser, "_field", counted(_MiniOOParser._field)), \
            patch.object(_MiniOOParser, "_method", counted(_MiniOOParser._method)):
        packages = parse_minioo_declarations(source, "m.minioo")
    assert [(d, d.position) for d in _declarations(packages)] == _parsed(
        reference_parse_declarations, source)
    assert calls == []


@pytest.mark.parametrize("where", ["between", "last", "end"])
@pytest.mark.parametrize("member", [
    "field a: int.Foo;", "field a: int, assoc;", "field a: Foo aggr;", "field a: p.Q.R;",
    "field a: p.int;", "field a: Foo,aggr;", "field a: Foo, assocx;", "field a: int // ;",
    "method m weight1;", "abstractmethod m;", "method m weight 01;", "method m weight 12abc;",
    "method m weight \u0663;", "method m weight 12reads (a);", "method m // ;",
    f"method m weight {MAX_WEIGHT};", f"method m weight {MAX_WEIGHT + 1};",
    "method m weight 12345678901234567890123;",
    "method m reads (a // x, y)\n, b);", "method m uses (A // q.B)\n, p.C);",
    "method m uses (p // c\n. // d\nB);", "field a: p // c\n.// d\nB, aggr;",
    "abstract // c\nmethod m;", "method m reads ();", "method m reads (a,);",
    "method m uses (p.);", "method m uses (B) reads (a);", "method m uses (int);",
    "field field: field;", "method method reads (reads) uses (uses.uses);",
    "field f\u00e9: int;", "field a: Fo\u00e9;", "field a:\r\n int;",
    # skips: a comment to the end of input ("end"), `\r`-only line ends, which do not
    # end a comment, comments holding `;`, `}` and `//` in lists, and a lone `/`
    "method m; // no newline", "field a:\r// c\r int;", "method m\r// c\r;\rfield b: int;",
    "method m reads (a // ; x } y / w // z\n, b) uses (A // ; q.B } r.C / t // s.D\n, p.C);",
    "method m; / method k;", "method m;/\nfield b: int;", "method m /;",
])
def test_member_edge_cases_match_the_reference(member, where):
    body = f"field x: int;\n{member}"
    # "end" leaves the class and the package open, so the member ends the input
    source = {"between": f"package p {{\n  class A {{\n{body}\nmethod n;\n  }}\n}}\n",
              "last": f"package p {{\n  class A {{\n{body}\n  }}\n}}\n",
              "end": f"package p {{\n  class A {{\n{body}"}[where]
    assert _parsed(parse_minioo_declarations, source) == _parsed(reference_parse_declarations,
                                                                 source)


def test_random_models_round_trip_through_minioo():
    rng = random.Random(29)
    for _ in range(120):
        model = random_model(rng)
        assert parse_minioo(write_minioo(model)) == model


# -- interchange documents -----------------------------------------------------------


def test_minimal_document_reads_as_empty_model():
    assert read_interchange('{"packages":[]}') == CodeModel(())


def test_missing_class_name_reports_schema_path():
    document = '{"packages":[{"name":"p","classes":[{"abstract":false,"parents":[],"attributes":[],"methods":[]}]}]}'
    with pytest.raises(ModelError) as excinfo:
        read_interchange(document)
    errors = excinfo.value.errors
    assert [e.code for e in errors] == [SCHEMA_ERROR]
    assert errors[0].locus == "packages[0].classes[0].name"


@pytest.mark.parametrize("level,locus", [
    ((), "bogus"),
    (("packages", 0), "packages[0].bogus"),
    (("packages", 0, "classes", 0), "packages[0].classes[0].bogus"),
    (("packages", 0, "classes", 0, "attributes", 0), "packages[0].classes[0].attributes[0].bogus"),
    (("packages", 0, "classes", 0, "methods", 0), "packages[0].classes[0].methods[0].bogus"),
], ids=["root", "package", "class", "attribute", "method"])
def test_unknown_key_is_a_schema_error(level, locus):
    # the object is otherwise valid, so only the unknown key keeps it from being built
    data = {"packages": [{"name": "p", "classes": [
        {"name": "A", "abstract": False, "parents": [],
         "attributes": [{"name": "x", "target": None, "kind": NO_TARGET}],
         "methods": [{"name": "m", "abstract": False, "weight": 1, "reads": ["x"],
                      "uses": []}]}]}]}
    assert decode_interchange(json.dumps(data))
    obj = data
    for key in level:
        obj = obj[key]
    obj["bogus"] = 1
    with pytest.raises(ModelError) as excinfo:
        read_interchange(json.dumps(data))
    assert [(e.code, e.locus, e.message) for e in excinfo.value.errors] == [
        (SCHEMA_ERROR, locus, "unknown field")]


@pytest.mark.parametrize("document,message", [
    ('{"packages": [', "not well-formed JSON: Expecting value"),
    # RFC 8259 has no NaN or Infinity, though Python's `json` reads them as floats
    ('{"packages":[{"name":"p","classes":[{"name":"A","abstract":false,"parents":[],'
     '"attributes":[],"methods":[{"name":"m","abstract":false,"weight":NaN,"reads":[],'
     '"uses":[]}]}]}]}', "NaN is not valid JSON"),
    ('{"packages":Infinity}', "Infinity is not valid JSON"),
    ('{"packages":[-Infinity]}', "-Infinity is not valid JSON"),
], ids=["truncated", "NaN", "Infinity", "-Infinity"])
def test_malformed_json_reports_malformed_document(document, message):
    with pytest.raises(ModelError) as excinfo:
        read_interchange(document)
    assert [(e.code, e.message) for e in excinfo.value.errors] == [(MALFORMED_DOCUMENT, message)]


@pytest.mark.parametrize("document", ['{"packages": [', '{"a":1,"a":2}', "[" * 200000,
                                      '{"packages":[{"name":"p"}]}'],
                         ids=["malformed", "duplicate-key", "deeply-nested", "schema"])
def test_interchange_errors_name_the_file_read(document):
    with pytest.raises(ModelError) as excinfo:
        decode_interchange(document, "m.json")
    assert excinfo.value.errors
    assert all(error.position == SourcePosition(None, None, "m.json")
               for error in excinfo.value.errors)
    with pytest.raises(ModelError) as excinfo:
        decode_interchange(document)
    assert all(error.position is None for error in excinfo.value.errors)


def test_source_position_is_one_type_under_every_name():
    assert (designlens.SourcePosition is designlens.frontends.SourcePosition
            is designlens.model.SourcePosition)


@pytest.mark.parametrize("field,value,path", [
    ("weight", 0, "packages[0].classes[0].methods[0].weight"),
    ("weight", True, "packages[0].classes[0].methods[0].weight"),
    ("weight", "2", "packages[0].classes[0].methods[0].weight"),
    ("reads", [1], "packages[0].classes[0].methods[0].reads[0]"),
    ("uses", ["NotQualified"], "packages[0].classes[0].methods[0].uses[0]"),
])
def test_mistyped_method_fields_report_their_paths(field, value, path):
    method = {"name": "m", "abstract": False, "weight": 1, "reads": [], "uses": []}
    method[field] = value
    document = json.dumps({"packages": [{"name": "p", "classes": [
        {"name": "A", "abstract": False, "parents": [], "attributes": [], "methods": [method]}]}]})
    with pytest.raises(ModelError) as excinfo:
        read_interchange(document)
    assert excinfo.value.errors[0].code == SCHEMA_ERROR
    assert excinfo.value.errors[0].locus == path


@pytest.mark.parametrize("field,value,locus,message", [
    ("name", "1A", "packages[0].classes[0].name", "expected an ASCII identifier, got '1A'"),
    ("parents", [3], "packages[0].classes[0].parents[0]", "expected a string, got 3"),
    ("attributes", [{"name": "x", "target": None, "kind": "friend"}],
     "packages[0].classes[0].attributes[0].kind",
     "expected 'none' without a target, 'association' or 'aggregation' with one, got 'friend'"),
    ("parents", [[]], "packages[0].classes[0].parents[0]", "expected a string, got []"),
])
def test_mistyped_class_fields_report_their_paths_and_messages(field, value, locus, message):
    cls = {"name": "A", "abstract": False, "parents": [], "attributes": [], "methods": []}
    cls[field] = value
    document = json.dumps({"packages": [{"name": "p", "classes": [cls]}]})
    with pytest.raises(ModelError) as excinfo:
        read_interchange(document)
    assert [(e.code, e.locus, e.message) for e in excinfo.value.errors] == [
        (SCHEMA_ERROR, locus, message)]


_METHOD_PATH = "packages[0].classes[0].methods[0]"


@pytest.mark.parametrize("document,expected", [
    ('{"packages":[],"":1}', [("", "unknown field")]),
    ('{"packages":[],".x":1}', [(".x", "unknown field")]),
    ('{"packages":[{"name":"p","classes":[],"":1,"[0]":2}]}',
     [("packages[0].", "unknown field"), ("packages[0].[0]", "unknown field")]),
    (json.dumps({"packages": [{"name": "p", "classes": [
        {"name": "A", "abstract": False, "parents": [], "attributes": [], "methods": [
            {"name": "m", "abstract": False, "weight": 1, "reads": ["x", 3], "uses": [{}]}]}]}]}),
     [(f"{_METHOD_PATH}.reads[1]", "expected an ASCII identifier, got 3"),
      (f"{_METHOD_PATH}.uses[0]", "expected a string, got {}")]),
], ids=["root-empty-key", "root-dotted-key", "package-odd-keys", "read-and-use-types"])
def test_unusual_keys_and_elements_are_located_exactly(document, expected):
    with pytest.raises(ModelError) as excinfo:
        decode_interchange(document)
    assert [(e.locus, e.message) for e in excinfo.value.errors] == expected


def _one_class_document(**fields: Any) -> str:
    """An interchange document of packages `p` and `q`, with class `p.A` set from `fields`."""
    cls = {"name": "A", "abstract": False, "parents": [], "attributes": [], "methods": []}
    cls.update(fields)
    return json.dumps({"packages": [{"name": "p", "classes": [cls]}, {"name": "q", "classes": [
        {"name": "B", "abstract": False, "parents": [], "attributes": [], "methods": []}]}]})


def test_each_distinct_name_is_decoded_to_one_shared_object():
    [p, _] = decode_interchange(_one_class_document(
        parents=["q.B"],
        attributes=[{"name": "b", "target": "q.B", "kind": "association"},
                    {"name": "c", "target": "q.B", "kind": "aggregation"}],
        methods=[{"name": "m", "abstract": False, "weight": 1, "reads": [], "uses": ["q.B"]}]))
    [cls] = p.classes
    [use] = cls.methods[0].uses
    references = [*cls.parents, *(attr.target for attr in cls.attributes), use]
    assert references == [qn("q", "B")] * 4
    assert all(reference is references[0] for reference in references)


def test_a_decode_peaks_below_twice_what_it_keeps():
    # a decode that built a dict tree and then walked it peaked at about 3 times
    document = write_interchange(random_model(random.Random(5), max_packages=12,
                                              max_classes=50, allow_empty=False))
    tracemalloc.start()
    try:
        packages = decode_interchange(document)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(pkg.classes) for pkg in packages) > 300
    assert peak < 2 * kept


def test_only_a_rejected_document_is_walked(monkeypatch):
    # each decode's hook, and the error list of each schema made
    hooks, error_lists = [], []
    loads, schema = frontends._loads, frontends._Schema

    def spied_loads(document, hook, position):
        hooks.append(hook)
        return loads(document, hook, position)

    class Schema(schema):
        def __init__(self, position, errors=None):
            error_lists.append(errors)
            super().__init__(position, errors)

    monkeypatch.setattr(frontends, "_loads", spied_loads)
    monkeypatch.setattr(frontends, "_Schema", Schema)
    assert decode_interchange(_one_class_document())
    assert error_lists == [None]
    assert [hook.__self__.errors for hook in hooks] == [None]
    hooks.clear()
    error_lists.clear()
    with pytest.raises(ModelError) as excinfo:
        decode_interchange(_one_class_document(abstract=0))
    # the first decode collects nothing; the second builds no declaration and walks
    assert error_lists == [None, excinfo.value.errors]
    assert hooks[0].__self__.errors is None and hooks[1:] == [unique_keys]
    assert [e.locus for e in excinfo.value.errors] == ["packages[0].classes[0].abstract"]


@pytest.mark.parametrize("second,message", [
    ('{"name":"q","name":"q","classes":[]}', "MalformedDocument at document: duplicate key 'name'"),
    ('{"name":"q","classes":[NaN]}', "MalformedDocument at document: NaN is not valid JSON"),
    ('\n{"name":"q","classes":[}',
     "MalformedDocument at line 2: not well-formed JSON: Expecting value"),
])
def test_a_schema_error_before_a_malformed_part_reports_the_malformed_part(
        monkeypatch, second, message):
    hooks, loads = [], frontends._loads

    def spied_loads(document, hook, position):
        hooks.append(hook)
        return loads(document, hook, position)

    monkeypatch.setattr(frontends, "_loads", spied_loads)
    document = f'{{"packages":[{{"name":1,"classes":[]}},{second}]}}'
    with pytest.raises(ModelError) as excinfo:
        decode_interchange(document, "d.json")
    assert [str(error) for error in excinfo.value.errors] == [message]
    # the first decode stopped at the schema error in the first package, before the
    # malformed second one, which the collecting decode then found
    assert len(hooks) == 2 and hooks[1] is unique_keys


def test_an_invalid_name_is_reported_at_each_occurrence():
    with pytest.raises(ModelError) as excinfo:
        decode_interchange(_one_class_document(
            parents=["p.1x"],
            methods=[{"name": "m", "abstract": False, "weight": 1, "reads": [],
                      "uses": ["q.B", "p.1x"]}]))
    assert [(e.locus, e.message) for e in excinfo.value.errors] == [
        ("packages[0].classes[0].parents[0]", "expected 'pkg.Class', got 'p.1x'"),
        (f"{_METHOD_PATH}.uses[1]", "expected 'pkg.Class', got 'p.1x'")]


def test_attribute_kind_target_mismatch_is_a_schema_error():
    document = ('{"packages":[{"name":"p","classes":[{"name":"A","abstract":false,"parents":[],'
                '"attributes":[{"name":"x","target":null,"kind":"association"}],"methods":[]}]}]}')
    with pytest.raises(ModelError) as excinfo:
        read_interchange(document)
    assert excinfo.value.errors[0].code == SCHEMA_ERROR
    assert excinfo.value.errors[0].locus.endswith("attributes[0].kind")


def test_schema_errors_are_collected_not_first_only():
    document = ('{"packages":[{"name":"p","classes":[{"name":"A","abstract":"nope","parents":[],'
                '"attributes":[],"methods":[]},{"abstract":false,"parents":[],"attributes":[],'
                '"methods":[]}]}]}')
    with pytest.raises(ModelError) as excinfo:
        read_interchange(document)
    loci = {e.locus for e in excinfo.value.errors}
    assert loci == {"packages[0].classes[0].abstract", "packages[0].classes[1].name"}


# -- the decoder against the one it replaced ------------------------------------------


class _ReferenceWalker:
    """The schema walker of the replaced decoder."""

    def __init__(self) -> None:
        self.errors: list[ValidationError] = []

    def error(self, path: str, message: str) -> None:
        self.errors.append(ValidationError(SCHEMA_ERROR, path, message))

    def obj(self, value: Any, path: str, keys: tuple[str, ...]) -> dict | None:
        if not isinstance(value, dict):
            self.error(path or "document", f"expected an object, got {_reference_echo(value)}")
            return None
        for key in value:
            if key not in keys:
                self.error(f"{path}.{key}" if path else str(key), "unknown field")
        missing = [k for k in keys if k not in value]
        for key in missing:
            self.error(f"{path}.{key}" if path else str(key), "missing field")
        return None if missing else value

    def array(self, value: Any, path: str) -> list | None:
        if not isinstance(value, list):
            self.error(path, f"expected an array, got {_reference_echo(value)}")
            return None
        return value

    def string(self, value: Any, path: str) -> str | None:
        if not isinstance(value, str):
            self.error(path, f"expected a string, got {_reference_echo(value)}")
            return None
        return value

    def identifier(self, value: Any, path: str) -> str | None:
        if not isinstance(value, str) or not IDENTIFIER_RE.match(value):
            self.error(path, f"expected an ASCII identifier, got {_reference_echo(value)}")
            return None
        return value

    def boolean(self, value: Any, path: str) -> bool | None:
        if not isinstance(value, bool):
            self.error(path, f"expected a bool, got {_reference_echo(value)}")
            return None
        return value

    def qualified(self, value: Any, path: str) -> QualifiedName | None:
        text = self.string(value, path)
        if text is None:
            return None
        package, dot, cls = text.partition(".")
        if not dot or not IDENTIFIER_RE.match(package) or not IDENTIFIER_RE.match(cls):
            self.error(path, f"expected 'pkg.Class', got {_reference_echo(text)}")
            return None
        return QualifiedName(package, cls)



def reference_decode_interchange(document: str) -> list[PackageDef]:
    """The interchange decoder that `decode_interchange` replaced: it carries a
    None upward for every invalid field and checks each part before building."""
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

    walker = _ReferenceWalker()
    packages: list[PackageDef] = []
    root = walker.obj(data, "", ("packages",))
    if root is not None:
        package_array = walker.array(root["packages"], "packages")
        for p, package_value in enumerate(package_array or []):
            package = _reference_package(walker, package_value, f"packages[{p}]")
            if package is not None:
                packages.append(package)
    if walker.errors:
        raise ModelError(walker.errors)
    return packages


def _reference_package(walker: _ReferenceWalker, value: Any, path: str) -> PackageDef | None:
    obj = walker.obj(value, path, ("name", "classes"))
    if obj is None:
        return None
    name = walker.identifier(obj["name"], f"{path}.name")
    class_array = walker.array(obj["classes"], f"{path}.classes")
    classes = []
    for c, class_value in enumerate(class_array or []):
        cls = _reference_class(walker, class_value, f"{path}.classes[{c}]")
        if cls is not None:
            classes.append(cls)
    if name is None or class_array is None or len(classes) != len(class_array):
        return None
    return PackageDef(name, tuple(classes))


def _reference_class(walker: _ReferenceWalker, value: Any, path: str) -> ClassDef | None:
    obj = walker.obj(value, path, ("name", "abstract", "parents", "attributes", "methods"))
    if obj is None:
        return None
    name = walker.identifier(obj["name"], f"{path}.name")
    is_abstract = walker.boolean(obj["abstract"], f"{path}.abstract")
    parents: list[QualifiedName | None] = []
    parent_array = walker.array(obj["parents"], f"{path}.parents")
    for i, parent in enumerate(parent_array or []):
        parents.append(walker.qualified(parent, f"{path}.parents[{i}]"))
    attributes = []
    attribute_array = walker.array(obj["attributes"], f"{path}.attributes")
    for i, attribute in enumerate(attribute_array or []):
        attributes.append(_reference_attribute(walker, attribute, f"{path}.attributes[{i}]"))
    methods = []
    method_array = walker.array(obj["methods"], f"{path}.methods")
    for i, method in enumerate(method_array or []):
        methods.append(_reference_method(walker, method, f"{path}.methods[{i}]"))
    parts = [name, is_abstract, parent_array, attribute_array, method_array, *parents,
             *attributes, *methods]
    if any(part is None for part in parts):
        return None
    return ClassDef(name, is_abstract, tuple(parents), tuple(attributes), tuple(methods))


_REFERENCE_KIND_ERROR = (
    "expected 'none' without a target, 'association' or 'aggregation' with one, got ")


def _reference_attribute(walker: _ReferenceWalker, value: Any, path: str) -> AttributeDef | None:
    obj = walker.obj(value, path, ("name", "target", "kind"))
    if obj is None:
        return None
    name = walker.identifier(obj["name"], f"{path}.name")
    target = None
    if obj["target"] is not None:
        target = walker.qualified(obj["target"], f"{path}.target")
        if target is None:
            return None
    kind = obj["kind"]
    if kind not in (ASSOCIATION, AGGREGATION, NO_TARGET):
        walker.error(f"{path}.kind", _REFERENCE_KIND_ERROR + _reference_echo(kind))
        return None
    if (kind == NO_TARGET) != (obj["target"] is None):
        walker.error(f"{path}.kind", _REFERENCE_KIND_ERROR + _reference_echo(kind))
        return None
    if name is None:
        return None
    return AttributeDef(name, target, kind)


def _reference_method(walker: _ReferenceWalker, value: Any, path: str) -> MethodDef | None:
    obj = walker.obj(value, path, ("name", "abstract", "weight", "reads", "uses"))
    if obj is None:
        return None
    name = walker.identifier(obj["name"], f"{path}.name")
    is_abstract = walker.boolean(obj["abstract"], f"{path}.abstract")
    weight = obj["weight"]
    if isinstance(weight, bool) or not isinstance(weight, int) or weight < 1:
        walker.error(f"{path}.weight",
                     f"expected an integer from 1 to {MAX_WEIGHT}, got {_reference_echo(weight)}")
        weight = None
    reads: list[str | None] = []
    read_array = walker.array(obj["reads"], f"{path}.reads")
    for i, read in enumerate(read_array or []):
        reads.append(walker.identifier(read, f"{path}.reads[{i}]"))
    uses: list[QualifiedName | None] = []
    use_array = walker.array(obj["uses"], f"{path}.uses")
    for i, use in enumerate(use_array or []):
        uses.append(walker.qualified(use, f"{path}.uses[{i}]"))
    parts = [name, is_abstract, weight, read_array, use_array, *reads, *uses]
    if any(part is None for part in parts):
        return None
    return MethodDef(name, is_abstract, weight, frozenset(reads), frozenset(uses))


def _decoded(decode, document):
    try:
        return decode(document)
    except ModelError as error:
        return error.errors


@settings(max_examples=500, deadline=None)
@given(document=MUTATED_DOCUMENTS)
def test_decoder_matches_the_reference_on_mutated_documents(document):
    # the same declarations, or the same errors in the same order
    expected = _decoded(reference_decode_interchange, document)
    assert _decoded(decode_interchange, document) == expected


# -- each value rule in one wording, wherever it is checked ---------------------------

# the JSON path of each object of `_ruled_document`
_RULED_PATHS = {"package": "packages[0]", "class": "packages[0].classes[0]",
                "attribute": "packages[0].classes[0].attributes[0]", "method": _METHOD_PATH}
# each field a value rule governs, as (object, key): its rule, and a constructor call with a
# value in that field (and, for a kind, the attribute's target)
_RULED_FIELDS = {
    ("package", "name"): (IDENTIFIER, lambda value, target: PackageDef(value)),
    ("class", "name"): (IDENTIFIER, lambda value, target: ClassDef(value)),
    ("attribute", "name"): (IDENTIFIER, lambda value, target: AttributeDef(value)),
    ("method", "name"): (IDENTIFIER, lambda value, target: MethodDef(value)),
    ("class", "abstract"): (FLAG, lambda value, target: ClassDef("A", value)),
    ("method", "abstract"): (FLAG, lambda value, target: MethodDef("m", value)),
    ("method", "weight"): (WEIGHT, lambda value, target: MethodDef("m", weight=value)),
    ("attribute", "kind"): (KIND, lambda value, target: AttributeDef(
        "a", None if target is None else QualifiedName("q", "B"), value)),
}


def _ruled_document(owner: str, key: str, value: Any, target: str | None = None) -> str:
    """A valid document of package `p`, class `A`, attribute `a` (of `target`) and method
    `m`, but for `value` as field `key` of object `owner`."""
    objects = {
        "attribute": {"name": "a", "target": target,
                      "kind": NO_TARGET if target is None else ASSOCIATION},
        "method": {"name": "m", "abstract": False, "weight": 1, "reads": [], "uses": []}}
    objects["class"] = {"name": "A", "abstract": False, "parents": [],
                        "attributes": [objects["attribute"]], "methods": [objects["method"]]}
    objects["package"] = {"name": "p", "classes": [objects["class"]]}
    objects[owner][key] = value
    return json.dumps({"packages": [objects["package"]]})


# (field, a value its rule refuses, the attribute's target)
_REFUSED = st.one_of(
    st.tuples(st.sampled_from([field for field in _RULED_FIELDS if field[1] == "name"]),
              st.text(max_size=50).filter(lambda name: not IDENTIFIER_RE.match(name)),
              st.none()),
    st.tuples(st.just(("method", "weight")),
              st.sampled_from([0, MAX_WEIGHT + 1, True, "1", 2.5, -1, None]), st.none()),
    st.tuples(st.sampled_from([("class", "abstract"), ("method", "abstract")]),
              st.sampled_from([0, 1, None, "true", 2.5, []]), st.none()),
    st.sampled_from([(("attribute", "kind"), kind, target) for kind, target in [
        (ASSOCIATION, None), (AGGREGATION, None), (NO_TARGET, "q.B"), ("friend", None),
        ("friend", "q.B"), ("assoc", "q.B"), (None, None), (1, "q.B")]]),
)
# a MiniOO weight token for each refused weight that is one token
_WEIGHT_TOKENS = {"0": "0", str(MAX_WEIGHT + 1): str(MAX_WEIGHT + 1), "True": "true"}


@settings(max_examples=60, deadline=None)
@given(case=_REFUSED)
def test_each_rule_reads_the_same_in_a_document_a_constructor_and_minioo(case):
    (owner, key), value, target = case
    rule, build = _RULED_FIELDS[owner, key]
    rejection = f"expected {rule}, got {_reference_echo(value)}"
    with pytest.raises(ModelError) as decoded:
        decode_interchange(_ruled_document(owner, key, value, target))
    assert decoded.value.errors == [
        ValidationError(SCHEMA_ERROR, f"{_RULED_PATHS[owner]}.{key}", rejection)]
    with pytest.raises((TypeError, ValueError)) as built:
        build(value, target)
    assert str(built.value).endswith(f": {rejection}")
    token = _WEIGHT_TOKENS.get(repr(value)) if key == "weight" else None
    if token is not None:
        with pytest.raises(ModelError) as parsed:
            parse_minioo(f"package p {{ class A {{ method m weight {token}; }} }}")
        assert [(e.expected, e.found) for e in parsed.value.errors] == [(rule, repr(token))]


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
        ["m", "A_1", ASSOCIATION, AGGREGATION, NO_TARGET, 0, 1, MAX_WEIGHT, MAX_WEIGHT + 1]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=5)


@settings(max_examples=100, deadline=None)
@given(field=st.sampled_from(list(_RULED_FIELDS)), value=_JSON_VALUES,
       target=st.sampled_from([None, "q.B"]))
@example(field=("method", "weight"), value=MAX_WEIGHT + 1, target=None)
@example(field=("attribute", "kind"), value=NO_TARGET, target="q.B")
def test_a_value_a_constructor_refuses_is_a_schema_error_at_its_field(field, value, target):
    # a constructor's ValueError escaping the decode's object hook would be a
    # MalformedDocument, and a hook that refuses what the error walk passes, no error at all
    owner, key = field
    rule, build = _RULED_FIELDS[field]
    target = target if key == "kind" else None
    document = _ruled_document(owner, key, value, target)
    try:
        build(value, target)
    except (TypeError, ValueError):
        with pytest.raises(ModelError) as decoded:
            decode_interchange(document)
        assert decoded.value.errors == [ValidationError(
            SCHEMA_ERROR, f"{_RULED_PATHS[owner]}.{key}",
            f"expected {rule}, got {_reference_echo(value)}")]
    else:  # and the schema takes what the constructor takes
        decode_interchange(document)


# -- canonical writing and round trips ------------------------------------------------


def test_empty_model_writes_canonical_minimal_document():
    assert write_interchange(CodeModel(())) == '{"packages":[]}\n'


def test_write_is_byte_stable(reference_source):
    model = parse_minioo(reference_source)
    assert write_interchange(model) == write_interchange(parse_minioo(reference_source))


def test_reference_fixture_round_trips(reference_source):
    model = parse_minioo(reference_source)
    decoded = read_interchange(write_interchange(model))
    assert decoded == model
    # source positions are carried along but left out of equality, hashing and repr
    assert model.packages[0].position is not None and decoded.packages[0].position is None
    assert hash(decoded) == hash(model)
    assert "position" not in repr(model.packages[0].classes[1])


def test_random_models_round_trip():
    rng = random.Random(23)
    for _ in range(120):
        model = random_model(rng)
        assert read_interchange(write_interchange(model)) == model
