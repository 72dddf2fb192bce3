import errno
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designlens.cli import (
    EXIT_GATE_FAILURE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    load_config,
    main,
    run,
)
from designlens.frontends import write_interchange
from designlens.minioo import parse_minioo, parse_minioo_declarations
from designlens.model import MAX_WEIGHT, ClassDef, CodeModel, ModelError, PackageDef
from designlens.principles import Thresholds
from designlens.report import render
from conftest import FIXTURES, GOLDEN
from modelgen import MUTATED_DOCUMENTS, random_model, write_minioo
from test_frontends import reference_token_stream
from test_report import full_report

REFERENCE = str(FIXTURES / "reference.minioo")
CYCLIC = str(FIXTURES / "cyclic.minioo")
BROKEN = str(FIXTURES / "broken.minioo")


_EXTENSIONS = {"text": "txt", "json": "json", "csv": "csv"}


class _Tty(io.StringIO):
    def isatty(self):
        return True


def invoke(*argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


# -- exit codes ----------------------------------------------------------------


def test_clean_fixture_exits_zero_with_canonical_json():
    code, out, err = invoke("analyze", REFERENCE, "--format", "json")
    assert code == EXIT_OK
    assert err == ""
    assert out == (GOLDEN / "reference.json").read_text(encoding="utf-8")


def test_cyclic_fixture_with_fail_on_adp_exits_one():
    code, out, err = invoke("analyze", CYCLIC, "--fail-on", "adp", "--format", "json")
    assert code == EXIT_GATE_FAILURE
    findings = json.loads(out)["layers"][3]["findings"]
    assert [(f["rule"], f["locus"]) for f in findings] == [("ADP", "app, core")]
    assert "fail-on: ADP" in err


def test_missing_file_is_a_usage_error():
    code, out, err = invoke("analyze", str(FIXTURES / "missing.minioo"))
    assert code == EXIT_USAGE
    assert out == ""
    assert "cannot read" in err


def test_broken_file_exits_three_without_a_report():
    code, out, err = invoke("analyze", BROKEN)
    assert code == EXIT_INPUT
    assert out == ""
    assert "expected a type name" in err


def test_unsupported_extension_is_a_usage_error(tmp_path):
    path = tmp_path / "model.yaml"
    path.write_text("packages: []", encoding="utf-8")
    code, _, err = invoke("analyze", str(path))
    assert code == EXIT_USAGE
    assert "unsupported input extension" in err


def test_non_utf8_input_is_a_usage_error(tmp_path):
    path = tmp_path / "bad.minioo"
    path.write_bytes(b"package p { \xff\xfe }")
    code, out, err = invoke("analyze", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert "UTF-8" in err


def test_bad_flag_value_is_a_usage_error():
    code, _, err = invoke("analyze", REFERENCE, "--format", "xml")
    assert code == EXIT_USAGE
    assert "invalid choice" in err


def test_no_arguments_is_a_usage_error():
    code, _, _ = invoke()
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]], ids=["top", "analyze"])
def test_help_exits_zero(argv, capsys):
    code, out, err = invoke(*argv)
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith("usage: designlens") and "analyze" in out
    assert capsys.readouterr() == ("", "")  # nothing reaches the process's own streams


def test_unknown_fail_on_token_is_a_usage_error():
    code, _, err = invoke("analyze", REFERENCE, "--fail-on", "nonsense")
    assert code == EXIT_USAGE
    assert "nonsense" in err


def test_semantic_error_exits_three_with_position(tmp_path):
    path = tmp_path / "bad.minioo"
    path.write_text("package p {\n  class A extends q.Gone { }\n}\n", encoding="utf-8")
    code, out, err = invoke("analyze", str(path))
    assert code == EXIT_INPUT
    assert out == ""
    assert f"{path}:2:" in err and "UnresolvedReference" in err


@pytest.mark.parametrize("newline", ["\r", "\r\n"], ids=["cr", "crlf"])
@pytest.mark.parametrize("source", [
    "package p {%s  class A extends q.Gone { }%s}%s",
    "package p {%s  class 9A { }%s}%s",
    "package p { // note%s  class A extends q.Gone { }%s}%s",
], ids=["semantic", "syntax", "comment"])
def test_cli_reports_the_library_positions_for_cr_newlines(tmp_path, newline, source):
    text = source % (newline, newline, newline)
    path = tmp_path / "m.minioo"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ModelError) as caught:
        CodeModel(parse_minioo_declarations(text, str(path)))
    expected = "".join(f"{path}:{error}\n" for error in caught.value.errors)
    code, out, err = invoke("analyze", str(path))
    assert (code, out, err) == (EXIT_INPUT, "", expected)


# -- inputs ---------------------------------------------------------------------


def test_interchange_input_is_supported(tmp_path):
    document = ('{"packages":[{"name":"p","classes":[{"name":"A","abstract":false,'
                '"parents":[],"attributes":[],"methods":[]}]}]}')
    path = tmp_path / "model.json"
    path.write_text(document, encoding="utf-8")
    code, out, _ = invoke("analyze", str(path), "--format", "csv")
    assert code == EXIT_OK
    assert "p.A,wmc,0" in out


def test_multiple_files_concatenate_into_one_model(tmp_path):
    (tmp_path / "a.minioo").write_text("package a { class A { } }", encoding="utf-8")
    (tmp_path / "b.minioo").write_text(
        "package b { class B { method m uses (a.A); } }", encoding="utf-8")
    code, out, _ = invoke("analyze", str(tmp_path / "a.minioo"), str(tmp_path / "b.minioo"),
                          "--format", "csv")
    assert code == EXIT_OK
    assert "a,ca,1" in out


_WRITERS = {".minioo": write_minioo, ".json": write_interchange}


def _shuffled(packages, rng):
    """`packages` with packages, classes, attributes, methods and parents in a new order."""
    def mixed(items):
        return tuple(rng.sample(items, len(items)))

    return mixed([PackageDef(pkg.name, mixed([
        cls._replace(parents=mixed(cls.parents), attributes=mixed(cls.attributes),
                     methods=mixed(cls.methods))
        for cls in pkg.classes])) for pkg in packages])


# The cuts, shuffles and writers are drawn from the model's seeded `random.Random`:
# one draw, where hypothesis' `st.randoms()` makes a draw of each call.
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32),
       flags=st.sampled_from([(), ("--strict",), ("--fail-on", "dip,srp")]))
def test_every_form_of_one_model_gives_the_same_report(tmp_path_factory, seed, flags):
    rng = random.Random(seed)
    model = random_model(rng)
    directory = tmp_path_factory.mktemp("forms")
    packages = model.packages
    cuts = [0, *sorted(rng.sample(range(1, len(packages)), rng.randint(0, min(2, len(packages) - 1)))), len(packages)]
    parts = [packages[start:end] for start, end in zip(cuts, cuts[1:])]
    forms = [
        [("one.minioo", packages)],
        [("one.json", packages)],
        [(f"shuffled{rng.choice(list(_WRITERS))}", _shuffled(packages, rng))],
        [(f"part{index}{rng.choice(list(_WRITERS))}", part) for index, part in enumerate(parts)],
    ]
    for output in ("json", "text"):
        results = set()
        for form, files in enumerate(forms):
            paths = []
            for name, packages in files:
                path = directory / f"{form}-{name}"
                # the writers read only `.packages`: one part alone need not be a valid model
                path.write_text(_WRITERS[path.suffix](SimpleNamespace(packages=packages)),
                                encoding="utf-8")
                paths.append(str(path))
            results.add(invoke("analyze", *paths, "--format", output, *flags))
        assert len(results) == 1, results


def test_same_package_in_two_files_is_rejected(tmp_path):
    (tmp_path / "a.minioo").write_text("package p { class A { } }", encoding="utf-8")
    (tmp_path / "b.minioo").write_text("package p { class B { } }", encoding="utf-8")
    code, out, err = invoke("analyze", str(tmp_path / "a.minioo"), str(tmp_path / "b.minioo"))
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith(f"{tmp_path / 'b.minioo'}:1:9: DuplicatePackage at p:")


def test_error_is_blamed_on_the_file_declaring_its_class(tmp_path):
    (tmp_path / "a.minioo").write_text("package p { class A { } }", encoding="utf-8")
    (tmp_path / "b.minioo").write_text(
        "package p {\n  class B extends q.Gone { }\n}", encoding="utf-8")
    code, out, err = invoke("analyze", str(tmp_path / "a.minioo"), str(tmp_path / "b.minioo"))
    assert code == EXIT_INPUT
    assert out == ""
    assert f"{tmp_path / 'b.minioo'}:2:9: UnresolvedReference at p.B: " in err
    assert "a.minioo:1:9" not in err


@pytest.mark.parametrize("source,expected", [
    ("package p {\n  class A { }\n  class A { }\n}\n",
     "3:9: DuplicateClass at p.A: class 'A' is declared more than once in package 'p'"),
    ("package p { class A {\n  field x: int;\n  method x;\n  field x: int;\n} }\n",
     "4:9: DuplicateMember at p.A.x: attribute 'x' is declared more than once"),
    ("package p { class A {\n  method m;\n  field m: int;\n  method m;\n} }\n",
     "4:10: DuplicateMember at p.A.m: method 'm' is declared more than once"),
], ids=["class", "field", "method"])
def test_duplicate_in_one_file_is_blamed_on_the_redeclaration(tmp_path, source, expected):
    path = tmp_path / "dup.minioo"
    path.write_text(source, encoding="utf-8")
    code, out, err = invoke("analyze", str(path))
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"{path}:{expected}\n"


@pytest.mark.parametrize("files,expected", [
    ({"f.minioo": "package p {\n class A { field x: int;\n method x uses (q.Missing); }\n}"},
     "f.minioo:3:9: UnresolvedReference at p.A.x: used class 'q.Missing' is not declared"),
    ({"f.minioo": "package p { class A { } }\npackage p {\n  class A extends q.Gone { }\n}"},
     "f.minioo:3:9: UnresolvedReference at p.A: parent class 'q.Gone' is not declared"),
    ({"a1.minioo": "package p { class A { } }",
      "b1.minioo": "package p {\n  class A extends q.Gone { }\n}"},
     "b1.minioo:2:9: UnresolvedReference at p.A: parent class 'q.Gone' is not declared"),
], ids=["field-and-method", "package-repeated-in-one-file", "class-repeated-in-two-files"])
def test_error_is_reported_at_the_declaration_it_concerns(tmp_path, files, expected):
    # each locus is declared twice; the error belongs to the second declaration
    for name, source in files.items():
        (tmp_path / name).write_text(source, encoding="utf-8")
    code, out, err = invoke("analyze", *(str(tmp_path / name) for name in files))
    assert code == EXIT_INPUT
    assert out == ""
    assert [line for line in err.splitlines() if "UnresolvedReference" in line] == [
        f"{tmp_path}{os.sep}{expected}"]


_ORPHAN_CLASS = ('{"packages":[{"name":"q","classes":[{"name":"B","abstract":false,'
                 '"parents":["z.Gone"],"attributes":[],"methods":[]}]}]}')


@pytest.mark.parametrize("files,expected", [
    ({"a.minioo": "package p { class A { } }",
      "b.json": '{"packages":[{"name":"p","classes":[]}]}'},
     "b.json: DuplicatePackage at p: package 'p' is declared more than once"),
    ({"a.minioo": "package p { class A { } }", "c.json": _ORPHAN_CLASS},
     "c.json: UnresolvedReference at q.B: parent class 'z.Gone' is not declared"),
], ids=["duplicate-package", "unresolved-parent"])
def test_interchange_error_names_its_file_among_several_inputs(tmp_path, files, expected):
    for name, source in files.items():
        (tmp_path / name).write_text(source, encoding="utf-8")
    code, out, err = invoke("analyze", *(str(tmp_path / name) for name in files))
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"{tmp_path}{os.sep}{expected}\n"


_DECLARING = ("package", "class", "field", "method")
_KEYWORDS = {*_DECLARING, "abstract", "extends", "weight", "reads", "uses",
             "int", "real", "text", "bool", "assoc", "aggr"}
_COLLIDING_NAMES = ("p", "q", "A", "B", "x", "y", "Gone")
_LOCATED_ERROR = re.compile(r"(.+):(\d+):(\d+): [A-Za-z]+ at ([\w.]+): (\w+)")


def _collide(source, rng):
    """`source` with every name renamed onto a few shared ones: mostly one new name per
    old name, so references still resolve and declarations collide, sometimes a stray one."""
    renames, pieces, end = {}, [], 0
    for kind, text, offset in reference_token_stream(source, []):
        if kind == "name" and text not in _KEYWORDS:
            new = (renames.setdefault(text, rng.choice(_COLLIDING_NAMES)) if rng.random() < 0.9
                   else rng.choice(_COLLIDING_NAMES))
            pieces += [source[end:offset], new]
            end = offset + len(text)
    return "".join(pieces) + source[end:]


def _declarations(files):
    """(locus, keyword) -> [(file, line, column)] of every declaration, found by
    walking the tokens with a stack of the loci whose braces are open."""
    index = defaultdict(list)
    for path, source in files.items():
        tokens = list(reference_token_stream(source, []))
        scopes, declared = [], None
        for (_, text, _), (kind, name, offset) in zip(tokens, tokens[1:]):
            if text in _DECLARING and kind == "name":
                declared = f"{scopes[-1]}.{name}" if scopes else name
                line_start = source.rfind("\n", 0, offset) + 1
                index[declared, text].append(
                    (path, source.count("\n", 0, offset) + 1, offset - line_start + 1))
            elif text == "{":
                scopes.append(declared)
            elif text == "}":
                scopes.pop()
    return index


_SOURCES = st.just(Path(REFERENCE).read_text(encoding="utf-8")) | st.integers(0, 2**16).map(
    lambda seed: write_minioo(random_model(random.Random(seed), max_packages=2, max_classes=3)))


# The renames are drawn from a seeded `random.Random`: one draw, where hypothesis'
# `st.randoms()` makes a draw of each of the ~90 calls `_collide` makes per example.
@settings(max_examples=100, deadline=None)
@given(sources=st.lists(_SOURCES, min_size=1, max_size=3), seed=st.integers(0, 2**32))
def test_every_error_names_a_declaration_of_its_locus(tmp_path_factory, sources, seed):
    directory = tmp_path_factory.mktemp("blame")
    rng = random.Random(seed)
    files = {str(directory / f"f{index}.minioo"): _collide(source, rng)
             for index, source in enumerate(sources)}
    for path, source in files.items():
        Path(path).write_text(source, encoding="utf-8")
    code, _, err = invoke("analyze", *files)
    assert code in (EXIT_OK, EXIT_INPUT)
    index = _declarations(files)
    for line in err.splitlines():
        path, row, column, locus, subject = _LOCATED_ERROR.match(line).groups()
        # a member error is about a field when its message starts "attribute ..."
        keyword = _DECLARING[locus.count(".")]
        if keyword == "field" and subject != "attribute":
            keyword = "method"
        # one of the declarations of the locus: the only one, if it is declared once
        assert (path, int(row), int(column)) in index[locus, keyword], line


def test_deeply_nested_json_input_exits_three(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000, encoding="utf-8")
    code, out, err = invoke("analyze", str(path))
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"{path}: MalformedDocument at document: JSON nesting is too deep\n"


def test_duplicate_json_key_input_exits_three(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text('{"packages":[],"packages":[{"name":"p","classes":[]}]}', encoding="utf-8")
    code, out, err = invoke("analyze", str(path))
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"{path}: MalformedDocument at document: duplicate key 'packages'\n"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python converts integers of any length")
def test_overlong_json_integer_is_an_input_or_usage_error(tmp_path):
    # int() refuses more digits than sys.get_int_max_str_digits() with a ValueError
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    path = tmp_path / "long.json"
    path.write_text('{"packages":' + digits + "}", encoding="utf-8")
    code, out, err = invoke("analyze", str(path))
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith(f"{path}: MalformedDocument at document: ")
    config = tmp_path / "long-config.json"
    config.write_text('{"gates":[["max_dit","<=",' + digits + "]]}", encoding="utf-8")
    code, _, err = invoke("analyze", REFERENCE, "--config", str(config))
    assert code == EXIT_USAGE
    assert err.startswith("error: config is rejected: ")


def _weighted_input(directory, suffix, weight_text):
    """A file declaring `p.A` with methods `m` and `n` of the given weight."""
    path = directory / f"weights{suffix}"
    if suffix == ".minioo":
        path.write_text(f"package p {{ class A {{ method m weight {weight_text}; "
                        f"method n weight {weight_text}; }} }}", encoding="utf-8")
    else:
        methods = ",".join(f'{{"name":"{name}","abstract":false,"weight":{weight_text},'
                           f'"reads":[],"uses":[]}}' for name in "mn")
        path.write_text('{"packages":[{"name":"p","classes":[{"name":"A","abstract":false,'
                        f'"parents":[],"attributes":[],"methods":[{methods}]}}]}}]}}',
                        encoding="utf-8")
    return path


@pytest.mark.parametrize("suffix", [".minioo", ".json"])
def test_method_weight_bound_in_both_frontends(tmp_path, suffix):
    path = _weighted_input(tmp_path, suffix, str(MAX_WEIGHT))
    code, out, err = invoke("analyze", str(path), "--format", "csv")
    assert (code, err) == (EXIT_OK, "")
    assert f"p.A,wmc,{2 * MAX_WEIGHT}\n" in out

    path = _weighted_input(tmp_path, suffix, str(MAX_WEIGHT + 1))
    code, out, err = invoke("analyze", str(path))
    assert (code, out) == (EXIT_INPUT, "")
    assert "Traceback" not in err
    if suffix == ".minioo":
        assert err.splitlines() == [
            f"{path}:1:39: expected a weight of at most {MAX_WEIGHT}, found '{MAX_WEIGHT + 1}'",
            f"{path}:1:76: expected a weight of at most {MAX_WEIGHT}, found '{MAX_WEIGHT + 1}'"]
    else:
        assert err.splitlines() == [
            f"{path}: SchemaError at packages[0].classes[0].methods[{index}].weight: "
            f"expected a weight of at most {MAX_WEIGHT}" for index in (0, 1)]


def test_minioo_weight_beyond_python_int_text_limit_is_a_syntax_error(tmp_path):
    # more digits than int() converts under the default sys.get_int_max_str_digits()
    path = _weighted_input(tmp_path, ".minioo", "9" * 5000)
    code, out, err = invoke("analyze", str(path))
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith(f"{path}:1:39: expected a weight of at most {MAX_WEIGHT}, found '999")
    assert "Traceback" not in err


@pytest.mark.parametrize("source,expected", [
    ("package p { class A { method m weight " + "9" * 5000 + "; } }",
     [f"1:39: expected a weight of at most {MAX_WEIGHT}, found '{'9' * 40}'"]),
    ("package p { class A { " + "x" * 5000 + "; } }",
     [f"1:23: expected 'field', 'method' or '}}', found '{'x' * 40}'"]),
    ("package p { class A { " + "\u00e9" * 5000 + "; } }",
     ["1:23: expected a name, found '" + "\u00e9" * 40 + "'",
      "1:5023: expected 'field', 'method' or '}', found ';'"]),
], ids=["weight", "name", "non-ascii-word"])
def test_syntax_error_cuts_an_over_long_token(tmp_path, source, expected):
    path = tmp_path / "long.minioo"
    path.write_text(source, encoding="utf-8")
    code, out, err = invoke("analyze", str(path))
    assert (code, out) == (EXIT_INPUT, "")
    assert err.splitlines() == [f"{path}:{line}" for line in expected]
    assert all(len(line) < 200 for line in err.splitlines())


def test_out_flag_writes_report_to_file(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = invoke("analyze", REFERENCE, "--format", "json", "--out", str(target))
    assert code == EXIT_OK
    assert out == ""
    assert target.read_text(encoding="utf-8") == (GOLDEN / "reference.json").read_text(encoding="utf-8")


def test_out_into_a_missing_directory_is_a_usage_error(tmp_path):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = invoke("analyze", REFERENCE, "--out", str(target))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert not target.parent.exists()


@pytest.mark.parametrize("source", ["reference", "findings", "random"])
def test_one_writer_gives_every_destination_the_same_bytes(tmp_path, monkeypatch, source):
    monkeypatch.delenv("DESIGNLENS_NO_COLOR", raising=False)
    path = FIXTURES / f"{source}.minioo"
    if source == "random":
        path = tmp_path / path.name
        path.write_text(write_minioo(random_model(random.Random(11), max_packages=6,
                                                  max_classes=10)), encoding="utf-8")
    report = full_report(parse_minioo(path.read_text(encoding="utf-8")))
    for fmt, ext in _EXTENSIONS.items():
        rendered = render(report, fmt)
        if source != "random":
            assert rendered.encode("utf-8") == (GOLDEN / f"{source}.{ext}").read_bytes()
        target = tmp_path / f"report.{ext}"
        assert invoke("analyze", str(path), "--format", fmt, "--out", str(target)) == (
            EXIT_OK, "", "")
        assert target.read_bytes() == rendered.encode("utf-8")
        assert invoke("analyze", str(path), "--format", fmt) == (EXIT_OK, rendered, "")
    stdout = _Tty()
    assert run(["analyze", str(path)], stdout=stdout, stderr=io.StringIO()) == EXIT_OK
    assert stdout.getvalue() == render(report, "text", color=True)


def test_out_is_not_opened_when_no_report_is_produced(tmp_path):
    target = tmp_path / "report.json"
    target.write_bytes(b"an earlier report\n")
    config = tmp_path / "bad.json"
    config.write_text('{"gates":{}}', encoding="utf-8")
    code, _, err = invoke("analyze", REFERENCE, "--config", str(config), "--out", str(target))
    assert (code, err) == (EXIT_USAGE, "error: 'gates' must be an array\n")
    code, _, err = invoke("analyze", BROKEN, "--out", str(target))
    assert code == EXIT_INPUT and "expected a type name" in err
    assert target.read_bytes() == b"an earlier report\n"


class _FullWrite(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class _FullFlush(io.StringIO):
    def flush(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("stream", [_FullWrite, _FullFlush])
def test_a_failed_write_to_standard_output_is_a_usage_error(stream):
    stderr = io.StringIO()
    # a cycle that --fail-on adp would turn into exit 1: no gate is evaluated after the failure
    code = run(["analyze", CYCLIC, "--fail-on", "adp"], stdout=stream(), stderr=stderr)
    assert (code, stderr.getvalue()) == (
        EXIT_USAGE, f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n")


def _entry_point(*argv):
    """Keyword arguments that start `python -m designlens.cli ARGV` as perfbench/run.py
    does: the only way tests run main() and its __main__ guard. main() ends the process
    with os._exit, so PYTHONUNBUFFERED is dropped: it would hide a missing flush."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return {"args": [sys.executable, "-m", "designlens.cli", *argv],
            "cwd": Path(__file__).parent.parent, "env": {**env, "PYTHONPATH": "src"}}


def test_module_entry_point_writes_the_golden_reports(tmp_path):
    for fmt, ext in _EXTENSIONS.items():
        result = subprocess.run(**_entry_point("analyze", REFERENCE, "--format", fmt),
                                capture_output=True, timeout=60)
        assert (result.returncode, result.stderr) == (EXIT_OK, b"")
        assert result.stdout == (GOLDEN / f"reference.{ext}").read_bytes()
    target = tmp_path / "report.json"
    result = subprocess.run(**_entry_point("analyze", REFERENCE, "--format", "json", "--out",
                                           str(target)), capture_output=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (EXIT_OK, b"", b"")
    assert target.read_bytes() == (GOLDEN / "reference.json").read_bytes()


@pytest.mark.parametrize("argv,expected", [
    (["analyze", CYCLIC, "--fail-on", "adp"], EXIT_GATE_FAILURE),
    (["analyze", REFERENCE, "--format", "yaml"], EXIT_USAGE),
    (["analyze", str(FIXTURES / "missing.minioo")], EXIT_USAGE),
    (["analyze", BROKEN], EXIT_INPUT),
    (["--help"], EXIT_OK),  # argparse's text, which `run` flushes as it does a report
])
def test_module_entry_point_exits_with_what_run_wrote(argv, expected, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps --help to, in both processes
    assert run(argv) == expected
    out, err = capsys.readouterr()
    result = subprocess.run(**_entry_point(*argv), capture_output=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (
        expected, out.encode(), err.encode())


def test_module_entry_point_reports_a_closed_standard_output_once(tmp_path):
    # a report far larger than a pipe's buffer, so that writing it meets the closed end
    path = tmp_path / "wide.minioo"
    path.write_text("package p {\n" + "".join(f"  class C{i} {{ }}\n" for i in range(2000))
                    + "}\n", encoding="utf-8")
    with subprocess.Popen(**_entry_point("analyze", str(path), "--format", "json"),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        head = child.stdout.read(16)
        child.stdout.close()
        try:
            _, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            child.kill()
            raise
    assert head == b'{"layers":[{"nam'
    assert (child.returncode, err) == (
        EXIT_USAGE, f"error: cannot write standard output: {os.strerror(errno.EPIPE)}\n".encode())


def test_module_entry_point_reports_help_it_cannot_write():
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(**_entry_point("--help"), stdout=write, stderr=subprocess.PIPE,
                                timeout=60)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (
        EXIT_USAGE, f"error: cannot write standard output: {os.strerror(errno.EPIPE)}\n".encode())


@pytest.mark.parametrize("argv", [["analyze", REFERENCE], ["--help"]], ids=["analyze", "help"])
def test_module_entry_point_reports_a_closed_standard_output_descriptor(argv):
    # with descriptor 1 closed as Python starts, `sys.stdout` is None; argparse would
    # then print the help to standard error
    result = subprocess.run(**_entry_point(*argv), preexec_fn=lambda: os.close(1),
                            stderr=subprocess.PIPE, timeout=60)
    assert (result.returncode, result.stderr) == (
        EXIT_USAGE, f"error: cannot write standard output: {os.strerror(errno.EBADF)}\n".encode())


def test_module_entry_point_writes_out_with_standard_output_closed(tmp_path):
    target = tmp_path / "report.txt"
    result = subprocess.run(**_entry_point("analyze", REFERENCE, "--out", str(target)),
                            preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE, timeout=60)
    assert (result.returncode, result.stderr) == (EXIT_OK, b"")
    assert target.read_bytes() == (GOLDEN / "reference.txt").read_bytes()


@pytest.mark.parametrize("argv,expected", [
    ([BROKEN], EXIT_INPUT),
    ([str(FIXTURES / "missing.minioo")], EXIT_USAGE),
    ([REFERENCE, "--format", "xml"], EXIT_USAGE),
    ([CYCLIC, "--fail-on", "adp"], EXIT_GATE_FAILURE),
    ([REFERENCE], EXIT_OK),
])
def test_a_standard_error_that_cannot_be_written_keeps_the_exit_code(argv, expected):
    assert run(["analyze", *argv], stdout=io.StringIO(), stderr=_FullWrite()) == expected


def test_module_entry_point_keeps_the_exit_code_with_standard_error_closed():
    result = subprocess.run(**_entry_point("analyze", BROKEN), preexec_fn=lambda: os.close(2),
                            stdout=subprocess.PIPE, timeout=60)
    assert (result.returncode, result.stdout) == (EXIT_INPUT, b"")


def test_input_errors_come_before_a_later_usage_error():
    missing = str(FIXTURES / "missing.minioo")
    broken = invoke("analyze", BROKEN)[2]
    assert broken.startswith(f"{BROKEN}:")
    assert invoke("analyze", BROKEN, missing) == (
        EXIT_USAGE, "", f"{broken}error: cannot read {missing}: {os.strerror(errno.ENOENT)}\n")


def _fresh_process(probe):
    """Run `probe` in a new interpreter with designlens on its path: (exit code, stdout, stderr)."""
    result = subprocess.run([sys.executable, "-c", probe], cwd=Path(__file__).parent.parent,
                            env={**os.environ, "PYTHONPATH": "src"}, capture_output=True,
                            timeout=60)
    return result.returncode, result.stdout, result.stderr


def test_importing_the_library_leaves_the_command_line_out():
    # a library client pays for neither argument parsing nor the CLI module
    probe = "import sys, designlens; print(sorted({'argparse', 'designlens.cli'} & set(sys.modules)))"
    assert _fresh_process(probe) == (0, b"[]\n", b"")


def test_a_query_client_loads_only_the_query_path():
    # the benchmark's library client starts its first-answer clock after these imports,
    # so the names it reads first are bound by them, and what it never runs is not loaded
    unused = ("{'designlens.minioo', 'designlens.principles', 'designlens.report', "
              "'designlens.cli', 'fractions', 'decimal', 'csv', 'argparse'}")
    bound = "{'read_interchange', 'write_interchange', 'compute_all', 'QualifiedName'}"
    probe = ("import sys, designlens; from designlens import metrics; "
             "from designlens.model import QualifiedName; "
             f"print(sorted({unused} & set(sys.modules)), sorted({bound} - set(vars(designlens))))")
    assert _fresh_process(probe) == (0, b"[] []\n", b"")


_PUBLIC_NAMES_PROBE = """
import sys, designlens
assert {*designlens.__all__, "principles", "report"} <= set(dir(designlens))
modules = designlens.principles, designlens.report
assert modules == (sys.modules["designlens.principles"], sys.modules["designlens.report"])
try:
    designlens.no_such_name
except AttributeError as exc:
    assert "'no_such_name'" in str(exc), exc
else:
    raise AssertionError("designlens.no_such_name resolved")
star = {}
exec("from designlens import *", star)
assert sorted(name for name in star if name != "__builtins__") == sorted(designlens.__all__)
for name in designlens.__all__:
    value = getattr(designlens, name)
    home = sys.modules[value.__module__]
    assert home.__name__.startswith("designlens.") and getattr(home, name) is value, name
    assert star[name] is value, name
print("resolved")
"""


def test_every_public_name_resolves_after_a_bare_import():
    assert _fresh_process(_PUBLIC_NAMES_PROBE) == (0, b"resolved\n", b"")


@pytest.mark.parametrize("form", ["text", "json", "csv"])
def test_only_a_csv_report_loads_csv(form):
    probe = ("import io, sys; from designlens import cli; "
             f"code = cli.run(['analyze', 'tests/fixtures/reference.minioo', '--format', '{form}'], "
             "stdout=io.StringIO(), stderr=io.StringIO()); print(code, 'csv' in sys.modules)")
    assert _fresh_process(probe) == (0, f"{EXIT_OK} {form == 'csv'}\n".encode(), b"")


@pytest.mark.parametrize("module", ["designlens", "designlens.cli"])
def test_importing_designlens_leaves_dataclasses_and_its_imports_out(module):
    # `dataclasses` imports the other four, and nothing else in designlens needs them
    unused = "{'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}"
    probe = f"import sys, {module}; print(sorted({unused} & set(sys.modules)))"
    assert _fresh_process(probe) == (0, b"[]\n", b"")


# Semantic errors of every kind, several of each, in one input.
_ERRORS_SOURCE = """
package p {
  class A extends B { field x: int; method m reads (y, x, z) uses (q.Gone, p.Lost); }
  class B extends C { abstract method f; }
  class C extends A { field x: int; field x: q.D; }
  class A { }
}
package q { class D extends p.Nowhere, p.C { } }
package p { }
"""


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    # both frontends keep names in sets and memos, and the analysis iterates many sets
    model = random_model(random.Random(3), max_packages=8, max_classes=40, allow_empty=False)
    inputs = {"m.json": write_interchange(model), "m.minioo": write_minioo(model),
              "errors.minioo": _ERRORS_SOURCE}
    for name, text in inputs.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    root = Path(__file__).parent.parent

    def analyze(name, seed):
        result = subprocess.run(
            [sys.executable, "-m", "designlens.cli", "analyze", str(tmp_path / name),
             "--format", "json"], cwd=root, capture_output=True, timeout=60,
            env={**os.environ, "PYTHONPATH": "src", "PYTHONHASHSEED": seed})
        return result.returncode, result.stderr, result.stdout

    runs = {name: [analyze(name, seed) for seed in ("1", "2")] for name in inputs}
    assert [runs[name][0][0] for name in inputs] == [EXIT_OK, EXIT_OK, EXIT_INPUT]
    assert runs["m.json"][0][2] == runs["m.minioo"][0][2] and runs["m.json"][0][2]
    assert runs["errors.minioo"][0][1].count(b"\n") > 8
    for first, second in runs.values():
        assert first == second


def test_stdout_is_byte_identical_across_runs():
    first = invoke("analyze", REFERENCE, "--format", "json")
    second = invoke("analyze", REFERENCE, "--format", "json")
    assert first == second


# -- garbage collector ---------------------------------------------------------------


def test_a_run_makes_no_garbage_collection(tmp_path):
    # with the collector on, this run collects over 40 times
    path = tmp_path / "m.minioo"
    path.write_text(write_minioo(random_model(random.Random(0), max_packages=8, max_classes=250)),
                    encoding="utf-8")
    starts = []

    def count(phase, info):
        # only collections made while `run` is on the stack: allocating after it
        # returns may collect what the paused run left behind
        frame = sys._getframe()
        while frame is not None and frame.f_code is not run.__code__:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        code, out, err = invoke("analyze", str(path), "--format", "json")
    finally:
        gc.callbacks.remove(count)
    assert (code, err, starts) == (EXIT_OK, "", [])
    assert json.loads(out)["layers"]


@pytest.mark.parametrize("argv,expected", [
    (["analyze", REFERENCE], EXIT_OK),
    (["analyze", CYCLIC, "--fail-on", "adp"], EXIT_GATE_FAILURE),
    (["analyze", REFERENCE, "--format", "xml"], EXIT_USAGE),
    (["analyze", BROKEN], EXIT_INPUT),
    (["--help"], EXIT_OK),
])
def test_a_run_restores_the_collector(argv, expected):
    assert gc.isenabled()
    assert invoke(*argv)[0] == expected
    assert gc.isenabled()


def test_an_escaping_exception_restores_the_collector(monkeypatch):
    def fail(model):
        raise RuntimeError("boom")

    monkeypatch.setattr("designlens.cli.compute_all", fail)
    with pytest.raises(RuntimeError, match="boom"):
        invoke("analyze", REFERENCE)
    assert gc.isenabled()


def test_a_run_leaves_a_disabled_collector_disabled():
    gc.disable()
    try:
        assert invoke("analyze", REFERENCE)[0] == EXIT_OK
        assert not gc.isenabled()
    finally:
        gc.enable()


def _live_classes():
    return sum(type(obj) is ClassDef for obj in gc.get_objects())


_HELD_RUNS = [(["analyze", REFERENCE], EXIT_OK),
              (["analyze", CYCLIC, "--fail-on", "adp"], EXIT_GATE_FAILURE)]


@pytest.mark.parametrize("argv,expected", _HELD_RUNS)
def test_a_run_frees_what_it_built(argv, expected):
    # with the collector off throughout, only reference counting can free the model
    gc.collect()
    gc.disable()
    try:
        before = _live_classes()
        assert invoke(*argv)[0] == expected
        assert _live_classes() == before
    finally:
        gc.enable()


@pytest.mark.parametrize("argv,expected", _HELD_RUNS)
def test_main_holds_what_the_run_built_until_the_process_exits(argv, expected, monkeypatch,
                                                               capsys):
    classes = sum(len(pkg.classes) for pkg in
                  parse_minioo_declarations(Path(argv[1]).read_text(encoding="utf-8")))
    exits = []

    class Exited(Exception):
        pass

    def exit_now(code):
        exits.append((code, _live_classes()))
        raise Exited

    monkeypatch.setattr(os, "_exit", exit_now)
    monkeypatch.setattr(sys, "argv", ["designlens", *argv])
    gc.collect()
    before = _live_classes()
    try:
        with pytest.raises(Exited):
            main()
    finally:
        gc.enable()  # main turns the collector off for the rest of the process
    assert exits == [(expected, before + classes)]


# -- config and gates --------------------------------------------------------------


def test_load_config_defaults():
    assert load_config(None) == (Thresholds(), (), frozenset())


def test_gate_from_config_fails_the_run(tmp_path):
    config = tmp_path / "gates.json"
    config.write_text('{"gates":[["max_dit","<=",0]]}', encoding="utf-8")
    code, out, err = invoke("analyze", REFERENCE, "--config", str(config))
    assert code == EXIT_GATE_FAILURE
    assert "max_dit <= 0 (actual 1)" in err
    assert out  # gate failures still produce the full report


def test_passing_gates_exit_zero(tmp_path):
    config = tmp_path / "gates.json"
    config.write_text(
        '{"gates":[["max_dit","<=",5],["adp_cycles","=",0],["mean_wmc","<=",10]]}',
        encoding="utf-8")
    code, _, err = invoke("analyze", REFERENCE, "--config", str(config))
    assert code == EXIT_OK and err == ""


def test_adp_cycle_count_gate(tmp_path):
    config = tmp_path / "gates.json"
    config.write_text('{"gates":[["adp_cycles","=",0]]}', encoding="utf-8")
    code, _, err = invoke("analyze", CYCLIC, "--config", str(config))
    assert code == EXIT_GATE_FAILURE
    assert "adp_cycles = 0 (actual 1)" in err


def test_undefined_aggregates_never_trip_gates(tmp_path):
    (tmp_path / "solo.minioo").write_text("package solo { class A { } }", encoding="utf-8")
    config = tmp_path / "gates.json"
    config.write_text('{"gates":[["mean_instability","<=",0]]}', encoding="utf-8")
    code, _, _ = invoke("analyze", str(tmp_path / "solo.minioo"), "--config", str(config))
    assert code == EXIT_OK


def test_rational_gate_limits_compare_exactly(tmp_path):
    config = tmp_path / "gates.json"
    # fixture mean instability is exactly 0.5
    config.write_text('{"gates":[["mean_instability","<=",0.5]]}', encoding="utf-8")
    code, _, _ = invoke("analyze", REFERENCE, "--config", str(config))
    assert code == EXIT_OK
    config.write_text('{"gates":[["mean_instability","<=",0.4999]]}', encoding="utf-8")
    code, _, err = invoke("analyze", REFERENCE, "--config", str(config))
    assert code == EXIT_GATE_FAILURE


def test_failed_gates_are_reported_in_config_order_with_exact_values(tmp_path):
    # a rational limit and value as n/d, a count gate with no findings, a repeated gate
    config = tmp_path / "gates.json"
    config.write_text(
        '{"gates":[["mean_instability","<=",0.4999],["sdp_violations",">=",1],'
        '["max_dit","<=",0],["max_dit","<=",0],["mean_wmc","<=",1]]}', encoding="utf-8")
    code, out, err = invoke("analyze", REFERENCE, "--out", str(tmp_path / "report.txt"),
                            "--config", str(config))
    assert (code, out) == (EXIT_GATE_FAILURE, "")
    assert err == ("gate failed: mean_instability <= 4999/10000 (actual 1/2)\n"
                   "gate failed: sdp_violations >= 1 (actual 0)\n"
                   "gate failed: max_dit <= 0 (actual 1)\n"
                   "gate failed: max_dit <= 0 (actual 1)\n"
                   "gate failed: mean_wmc <= 1 (actual 7/4)\n")


@pytest.mark.parametrize("sign", ["", "-"])
def test_config_numbers_are_bounded_in_digits(tmp_path, sign):
    config = tmp_path / "gates.json"
    # written out in full, 1e999 and 1e-999 take 1000 digits: the most accepted
    config.write_text(f'{{"gates":[["max_wmc","=",1e{sign}999]]}}', encoding="utf-8")
    code, out, err = invoke("analyze", REFERENCE, "--config", str(config))
    limit = f"1{'0' * 999}" if not sign else f"1/1{'0' * 999}"
    assert (code, err) == (EXIT_GATE_FAILURE, f"gate failed: max_wmc = {limit} (actual 3)\n")
    assert out
    for exponent in (f"{sign}1000", f"{sign}5000", f"{sign}3000000", f"{sign}{'9' * 5000}"):
        config.write_text(f'{{"gates":[["max_wmc","=",1e{exponent}]]}}', encoding="utf-8")
        code, out, err = invoke("analyze", REFERENCE, "--config", str(config))
        assert (code, out) == (EXIT_USAGE, "")
        number = f"1e{exponent}"[:40]
        assert err == f"error: config is rejected: number {number} takes more than 1000 digits\n"


@pytest.mark.parametrize("kind,reason", [
    ("missing", f"cannot read config {{path}}: {os.strerror(errno.ENOENT)}"),
    ("directory", f"cannot read config {{path}}: {os.strerror(errno.EISDIR)}"),
    ("latin-1", "config {path} is not valid UTF-8"),
], ids=["missing", "directory", "latin-1"])
def test_an_unreadable_config_names_the_reason(tmp_path, kind, reason):
    # worded as an unreadable input file is
    path = tmp_path / "config.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "latin-1":
        path.write_bytes('{"fail_on":["adp"]} \N{MICRO SIGN}'.encode("latin-1"))
    code, out, err = invoke("analyze", REFERENCE, "--config", str(path))
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {reason.format(path=path)}\n")


def test_unknown_config_key_is_rejected(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text('{"bogus":1}', encoding="utf-8")
    code, _, err = invoke("analyze", REFERENCE, "--config", str(config))
    assert code == EXIT_USAGE
    assert "bogus" in err


@pytest.mark.parametrize("document,needle", [
    ('{"gates":[["no_such_gate","<=",1]]}', "no_such_gate"),
    ('{"gates":[["max_dit","<",1]]}', "comparator"),
    ('{"gates":[["max_dit","<=",-1]]}', "non-negative"),
    ('{"thresholds":{"srp_lcom_min":-2}}', "srp_lcom_min"),
    ('{"thresholds":{"sap_extreme":0.5}}', "sap_extreme"),
    ('{"thresholds":{"mystery":1}}', "mystery"),
    ('{"fail_on":["bogus_rule"]}', "bogus_rule"),
    ('not json', "JSON"),
    pytest.param("[" * 200000, "nesting is too deep", id="deeply-nested"),
    pytest.param('{"fail_on":["adp"],"fail_on":[]}', "duplicate key 'fail_on'", id="duplicate-key"),
    ('{"thresholds":[]}', "'thresholds' must be an object"),
    ('{"thresholds":{"sap_extreme":"high"}}',
     "thresholds: sap_extreme 'high' is not an int or a Fraction"),
    ('{"gates":[["max_dit","<="]]}', "'gates[0]' must be [name, comparator, limit]"),
    ('{"fail_on":"adp"}', "'fail_on' must be an array of strings"),
    ('{"gates":{}}', "'gates' must be an array"),
    ('{"thresholds":{"sap_extreme":NaN}}', "config is rejected: NaN is not valid JSON"),
    ('{"gates":[["max_dit","<=",Infinity]]}', "config is rejected: Infinity is not valid JSON"),
    ('{"thresholds":{"srp_lcom_min":-Infinity}}',
     "config is rejected: -Infinity is not valid JSON"),
])
def test_malformed_configs_are_usage_errors(tmp_path, document, needle):
    config = tmp_path / "bad.json"
    config.write_text(document, encoding="utf-8")
    code, _, err = invoke("analyze", REFERENCE, "--config", str(config))
    assert code == EXIT_USAGE
    assert needle in err


@pytest.mark.parametrize("thresholds,message", [
    ('{"srp_lcom_min":-2}', "thresholds: srp_lcom_min must be non-negative"),
    ('{"sap_distance_min":-0.5}', "thresholds: sap_distance_min must be non-negative"),
    ('{"srp_method_min":2.0}', "thresholds: srp_method_min Fraction(2, 1) is not an int"),
    ('{"sap_distance_min":true}', "thresholds: sap_distance_min True is not an int or a Fraction"),
    ('{"sap_extreme":0.5}', "thresholds: sap_extreme must be below 0.5"),
    ('{"sap_extreme":"' + "x" * 100 + '"}',
     "thresholds: sap_extreme '" + "x" * 39 + " is not an int or a Fraction"),
    ('{"mystery":1}', "unknown config key 'thresholds.mystery'"),
])
def test_a_refused_threshold_is_one_error_line_with_the_record_message(tmp_path, thresholds,
                                                                       message):
    # `Thresholds` holds the only type and sign checks; the CLI passes its message on
    config = tmp_path / "bad.json"
    config.write_text(f'{{"thresholds":{thresholds}}}', encoding="utf-8")
    code, out, err = invoke("analyze", REFERENCE, "--config", str(config))
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


def test_missing_config_file_is_a_usage_error():
    with pytest.raises(ConfigError):
        load_config(str(FIXTURES / "no-such-config.json"))


def test_threshold_override_changes_findings(tmp_path):
    # a 2-method class with lcom 1 is flagged only once the method gate drops to 2
    source = ("package p { class Small { field a: int; field b: int;"
              " method m1 reads (a); method m2 reads (b); } }")
    (tmp_path / "small.minioo").write_text(source, encoding="utf-8")
    code, out, _ = invoke("analyze", str(tmp_path / "small.minioo"), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["layers"][3]["findings"] == []
    config = tmp_path / "thresholds.json"
    config.write_text('{"thresholds":{"srp_method_min":2}}', encoding="utf-8")
    code, out, _ = invoke("analyze", str(tmp_path / "small.minioo"),
                          "--config", str(config), "--format", "json")
    findings = json.loads(out)["layers"][3]["findings"]
    assert [f["rule"] for f in findings] == ["SRP"]


def test_fail_on_severity_token_matches_violations():
    code, _, err = invoke("analyze", CYCLIC, "--fail-on", "violation")
    assert code == EXIT_GATE_FAILURE
    assert "ADP" in err


def test_fail_on_from_config_document(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"fail_on":["adp"]}', encoding="utf-8")
    code, _, _ = invoke("analyze", CYCLIC, "--config", str(config))
    assert code == EXIT_GATE_FAILURE


def test_gate_outcome_matches_brute_force_report_scan(tmp_path):
    from designlens.frontends import write_interchange

    rng = random.Random(127)
    gate_checked = {"passed": 0, "failed": 0}
    for index in range(25):
        model = random_model(rng, allow_empty=False)
        path = tmp_path / f"m{index}.json"
        path.write_text(write_interchange(model), encoding="utf-8")
        limit = rng.randint(0, 3)
        config = tmp_path / f"c{index}.json"
        config.write_text(f'{{"gates":[["max_dit","<=",{limit}]]}}', encoding="utf-8")
        code, out, _ = invoke("analyze", str(path), "--format", "json",
                              "--config", str(config))
        # brute force straight off the rendered report
        relationships = json.loads(out)["layers"][1]
        dits = [item["value"] for item in relationships["metrics"]
                if item["name"] == "dit" and item["value"] is not None]
        should_fail = any(value > limit for value in dits)
        assert code == (EXIT_GATE_FAILURE if should_fail else EXIT_OK)
        gate_checked["failed" if should_fail else "passed"] += 1
    assert gate_checked["passed"] > 0 and gate_checked["failed"] > 0


def test_exit_codes_are_total_under_fuzzed_input(tmp_path):
    rng = random.Random(131)
    alphabet = "packge clsmthod{};:,.()abstrct// \n\twigh123"
    for index in range(60):
        path = tmp_path / f"fuzz{index}.minioo"
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 160)))
        path.write_text(text, encoding="utf-8")
        code, _, _ = invoke("analyze", str(path))
        assert code in (EXIT_OK, EXIT_GATE_FAILURE, EXIT_USAGE, EXIT_INPUT)


_EXIT_CODES = (EXIT_OK, EXIT_GATE_FAILURE, EXIT_USAGE, EXIT_INPUT)

_MINIOO_WORDS = st.lists(st.sampled_from([
    "package", "abstract", "class", "extends", "field", "method", "weight", "reads", "uses",
    "int", "assoc", "aggr", "p", "A", "q.B", "x", "{", "}", "(", ")", ";", ":", ",", ".",
    "0", "7", "\u00b2", "\u00e9", "//", "\n"])).map(" ".join)
_JSON_KEYS = st.sampled_from([
    "packages", "name", "classes", "abstract", "parents", "attributes", "methods", "target",
    "kind", "weight", "reads", "uses", "thresholds", "gates", "fail_on", "srp_lcom_min",
    "sap_extreme"])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.sampled_from(["p", "p.A", "A", "association", "none", "max_dit", "<=", "adp"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_KEYS, inner, max_size=5),
    max_leaves=30)
# Arbitrary bytes, and arbitrary text with lone surrogates kept as invalid UTF-8.
_ANY_BYTES = st.binary() | st.text().map(lambda text: text.encode("utf-8", "surrogatepass"))


@settings(max_examples=150, deadline=None)
@given(data=_ANY_BYTES | _MINIOO_WORDS.map(str.encode))
def test_any_minioo_input_exits_with_a_contract_code(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("minioo") / "input.minioo"
    path.write_bytes(data)
    assert run(["analyze", str(path)], stdout=io.StringIO(), stderr=io.StringIO()) in _EXIT_CODES


@settings(max_examples=150, deadline=None)
@given(data=_ANY_BYTES | _JSON_VALUES.map(json.dumps).map(str.encode))
def test_any_json_input_exits_with_a_contract_code(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("json") / "input.json"
    path.write_bytes(data)
    assert run(["analyze", str(path)], stdout=io.StringIO(), stderr=io.StringIO()) in _EXIT_CODES


@settings(max_examples=150, deadline=None)
@given(document=MUTATED_DOCUMENTS)
def test_mutated_json_input_exits_with_a_contract_code(tmp_path_factory, document):
    path = tmp_path_factory.mktemp("mutated") / "input.json"
    path.write_text(document, encoding="utf-8")
    code, _, err = invoke("analyze", str(path))
    assert code in _EXIT_CODES
    # every error, schema or semantic, names the document
    assert all(line.startswith(f"{path}: ") for line in err.splitlines())


@settings(max_examples=150, deadline=None)
@given(data=_ANY_BYTES | _JSON_VALUES.map(json.dumps).map(str.encode))
def test_any_config_exits_with_a_contract_code(tmp_path_factory, data):
    config = tmp_path_factory.mktemp("config") / "config.json"
    config.write_bytes(data)
    code = run(["analyze", REFERENCE, "--config", str(config)],
               stdout=io.StringIO(), stderr=io.StringIO())
    assert code in _EXIT_CODES


# -- warnings and strict mode ---------------------------------------------------------


def test_warnings_do_not_fail_without_strict(tmp_path):
    (tmp_path / "empty.minioo").write_text("package hollow { }", encoding="utf-8")
    code, out, _ = invoke("analyze", str(tmp_path / "empty.minioo"), "--format", "json")
    assert code == EXIT_OK
    findings = json.loads(out)["layers"][3]["findings"]
    assert [f["rule"] for f in findings] == ["EMPTY_PACKAGE"]


def test_strict_promotes_warnings_to_failure(tmp_path):
    (tmp_path / "empty.minioo").write_text("package hollow { }", encoding="utf-8")
    code, _, err = invoke("analyze", str(tmp_path / "empty.minioo"), "--strict")
    assert code == EXIT_GATE_FAILURE
    assert "strict: EMPTY_PACKAGE" in err


# -- color ---------------------------------------------------------------------------


def test_plain_stdout_never_gets_ansi_codes():
    _, out, _ = invoke("analyze", REFERENCE)
    assert "\x1b[" not in out


def test_tty_gets_color_unless_disabled(monkeypatch):
    monkeypatch.delenv("DESIGNLENS_NO_COLOR", raising=False)
    stdout = _Tty()
    assert run(["analyze", REFERENCE], stdout=stdout, stderr=io.StringIO()) == EXIT_OK
    assert "\x1b[1m" in stdout.getvalue()

    monkeypatch.setenv("DESIGNLENS_NO_COLOR", "1")
    stdout = _Tty()
    assert run(["analyze", REFERENCE], stdout=stdout, stderr=io.StringIO()) == EXIT_OK
    assert "\x1b[" not in stdout.getvalue()
