"""Command-line driver: analyze inputs, write the report, enforce quality gates.

Exit codes: 0 clean, 1 gate failure or fail-on finding, 2 usage error,
3 parse/validation error (no report is emitted on 3).
"""

from __future__ import annotations

import argparse
import errno
import gc
import io
import json
import operator
import os
import sys
from collections import Counter
from contextlib import redirect_stdout, suppress
from fractions import Fraction
from pathlib import Path
from typing import Callable, NoReturn, TextIO

from .frontends import decode_interchange, reject_constant, unique_keys
from .metrics import compute_all
from .minioo import ParseError, parse_minioo_declarations
from .model import CodeModel, ModelError, PackageDef, ValidationError, echo
from .principles import (
    ADVISORY,
    RULE_ADP,
    RULE_DIP,
    RULE_EMPTY_PACKAGE,
    RULE_SAP_PAIN,
    RULE_SAP_USELESS,
    RULE_SDP,
    RULE_SRP,
    SEVERITY_BY_RULE,
    VIOLATION,
    WARNING,
    Thresholds,
    run_all,
)
from .report import (
    CLASS_DESIGN_METRICS,
    FORMATS,
    PACKAGING_METRICS,
    RELATIONSHIP_METRICS,
    Layer,
    build_report,
    write_report,
)

EXIT_OK = 0
EXIT_GATE_FAILURE = 1
EXIT_USAGE = 2
EXIT_INPUT = 3

NO_COLOR_ENV = "DESIGNLENS_NO_COLOR"

_COMPARE = {"<=": operator.le, ">=": operator.ge, "=": operator.eq}
COMPARATORS = tuple(_COMPARE)

_METRIC_NAMES = CLASS_DESIGN_METRICS + RELATIONSHIP_METRICS + PACKAGING_METRICS
_AGGREGATE_KINDS = ("max", "min", "mean")
_COUNT_GATES = {
    "adp_cycles": RULE_ADP,
    "sdp_violations": RULE_SDP,
    "sap_pain": RULE_SAP_PAIN,
    "sap_useless": RULE_SAP_USELESS,
    "srp_advisories": RULE_SRP,
    "dip_advisories": RULE_DIP,
    "empty_packages": RULE_EMPTY_PACKAGE,
}
GATE_NAMES = tuple(sorted(
    [f"{kind}_{metric}" for kind in _AGGREGATE_KINDS for metric in _METRIC_NAMES]
    + list(_COUNT_GATES)))
_Gates = tuple[tuple[str, str, int | Fraction], ...]  # (name, comparator, limit) each

# The most digits a config number may take written out in full: room for any
# threshold or limit, and far below the longest integer Python converts to text.
_MAX_NUMBER_DIGITS = 1000

_RULE_TOKENS = {rule.lower(): rule for rule in SEVERITY_BY_RULE}
_SEVERITY_TOKENS = (VIOLATION, ADVISORY, WARNING)


class ConfigError(Exception):
    """The config document is malformed; the message names the offending key path."""


class _Exit(Exception):
    """`_Exit(code, *lines)` ends a run: `_run` writes the lines to standard error."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would sys.exit(2)
        raise _Exit(EXIT_USAGE, f"error: {message}")


def load_config(path: str | None) -> tuple[Thresholds, _Gates, frozenset[str]]:
    """`(thresholds, gates, fail_on)` of a config document merged over defaults; unknown
    keys are errors."""
    if path is None:
        return Thresholds(), (), frozenset()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config {path} is not valid UTF-8") from None
    try:
        data = json.loads(text, parse_float=_config_number, object_pairs_hook=unique_keys,
                          parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not well-formed JSON: {exc.msg} (line {exc.lineno})") from None
    except ValueError as exc:  # a repeated key, NaN or Infinity, or too long a number
        raise ConfigError(f"config is rejected: {exc}") from None
    except RecursionError:
        raise ConfigError("config is not well-formed JSON: nesting is too deep") from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    for key in data:
        if key not in ("thresholds", "gates", "fail_on"):
            raise ConfigError(f"unknown config key {echo(key)}")
    try:  # `Thresholds` checks each number's type and sign, a gate limit's too
        thresholds = _load_thresholds(data.get("thresholds", {}))
        gates = _load_gates(data.get("gates", []))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    fail_on = frozenset(_parse_fail_on_token(token, context="fail_on")
                        for token in _string_list(data.get("fail_on", []), "fail_on"))
    return thresholds, gates, fail_on


def _config_number(text: str) -> Fraction:
    """`parse_float` hook: the exact value of a JSON number with a fraction or an
    exponent, refused before it is built if it takes too many digits written out."""
    mantissa, _, exponent = text.lower().partition("e")
    magnitude = exponent.lstrip("+-0")  # converted only when it has few digits
    if (len(magnitude) > len(str(_MAX_NUMBER_DIGITS))
            or len(mantissa) + int(magnitude or 0) > _MAX_NUMBER_DIGITS):
        raise ValueError(f"number {echo(text)} takes more than {_MAX_NUMBER_DIGITS} digits")
    return Fraction(text)


def _load_thresholds(data: object) -> Thresholds:
    if not isinstance(data, dict):
        raise ConfigError("'thresholds' must be an object")
    for key in data:
        if key not in Thresholds._fields:
            raise ConfigError(f"unknown config key {echo(f'thresholds.{key}')}")
    return Thresholds(**data)


def _load_gates(data: object) -> _Gates:
    if not isinstance(data, list):
        raise ConfigError("'gates' must be an array")
    gates = []
    for index, entry in enumerate(data):
        where = f"gates[{index}]"
        if not isinstance(entry, list) or len(entry) != 3:
            raise ConfigError(f"'{where}' must be [name, comparator, limit]")
        name, comparator, limit = entry
        if name not in GATE_NAMES:
            raise ConfigError(f"'{where}': unknown gate {echo(name)}")
        if comparator not in COMPARATORS:
            raise ConfigError(f"'{where}': comparator must be one of {', '.join(COMPARATORS)}")
        Thresholds.check_number(limit, f"'{where}': limit")
        gates.append((name, comparator, limit))
    return tuple(gates)


def _string_list(data: object, key: str) -> list[str]:
    if not isinstance(data, list) or any(not isinstance(v, str) for v in data):
        raise ConfigError(f"'{key}' must be an array of strings")
    return data


def _parse_fail_on_token(token: str, context: str) -> str:
    normalized = token.strip().lower()
    if normalized in _RULE_TOKENS or normalized in _SEVERITY_TOKENS:
        return normalized
    raise ConfigError(f"'{context}': unknown rule or severity {echo(token)}")


def run(argv: list[str], stdout: TextIO | None = None, stderr: TextIO | None = None) -> int:
    """Execute the CLI with the cyclic garbage collector paused; returns the exit code."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv, stdout, stderr).args[0]  # and frees what the run built
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str], stdout: TextIO | None, stderr: TextIO | None) -> _Exit:
    """The `_Exit` that ended the run, whose traceback holds what the run built. Its lines
    go to standard error and are lost if that is missing or cannot take them."""
    try:
        _analyze(argv, stdout if stdout is not None else sys.stdout)
    except _Exit as exc:
        stderr = stderr if stderr is not None else sys.stderr
        if stderr is not None and exc.args[1:]:
            with suppress(OSError):
                stderr.write("".join(f"{line}\n" for line in exc.args[1:]))
                stderr.flush()
        return exc


def _analyze(argv: list[str], stdout: TextIO | None) -> NoReturn:
    """A run, which raises `_Exit` on every way out, exit 0 included."""
    parser = _build_parser()
    help_text = io.StringIO()
    try:
        with redirect_stdout(help_text):  # argparse prints --help to sys.stdout
            args = parser.parse_args(argv)
    except SystemExit:  # --help: `error` raises, so help is argparse's only exit
        _write_stdout(stdout, lambda stream: stream.write(help_text.getvalue()))
        raise _Exit(EXIT_OK)

    try:
        thresholds, gates, fail_on = load_config(args.config)
        fail_on = set(fail_on)
        for raw in args.fail_on or []:
            for token in raw.split(","):
                if token.strip():
                    fail_on.add(_parse_fail_on_token(token, context="--fail-on"))
    except ConfigError as exc:
        raise _Exit(EXIT_USAGE, f"error: {exc}")

    try:
        model = CodeModel(_load_inputs(args.paths))
    except ModelError as exc:
        raise _Exit(EXIT_INPUT, *map(_located, exc.errors))

    metrics = compute_all(model)
    findings = run_all(model, metrics, thresholds)
    layers = build_report(model, metrics, findings)
    if args.out is None:
        color = (args.format == "text" and not os.environ.get(NO_COLOR_ENV)
                 and getattr(stdout, "isatty", lambda: False)())
        _write_stdout(stdout, lambda stream: write_report(layers, args.format, stream, color))
    else:  # the report exists, so --out is opened only now
        try:
            with open(args.out, "w", encoding="utf-8") as out:
                write_report(layers, args.format, out)
        except OSError as exc:
            raise _Exit(EXIT_USAGE, f"error: cannot write {args.out}: {exc.strerror or exc}")

    failures = [f"gate failed: {message}" for message in _evaluate_gates(layers, gates)]
    for finding in findings:
        if finding.rule.lower() in fail_on or finding.severity in fail_on:
            failures.append(f"fail-on: {finding.rule} at {finding.locus}")
        elif args.strict and finding.severity == WARNING:
            failures.append(f"strict: {finding.rule} at {finding.locus}")
    raise _Exit(EXIT_GATE_FAILURE if failures else EXIT_OK, *failures)


def _write_stdout(stdout: TextIO | None, write: Callable[[TextIO], object]) -> None:
    """`write(stdout)`, then flush; a failed write ends the run with exit 2, as does
    no stream at all (`sys.stdout` is None when Python starts with fd 1 closed)."""
    try:
        if stdout is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        write(stdout)
        stdout.flush()
    except OSError as exc:
        raise _Exit(EXIT_USAGE, f"error: cannot write standard output: {exc.strerror or exc}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="designlens", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    analyze = commands.add_parser("analyze", help="analyze MiniOO or interchange files")
    analyze.add_argument("paths", nargs="+", metavar="path",
                         help=".minioo or .json input files (one package per file)")
    analyze.add_argument("--format", choices=FORMATS, default="text")
    analyze.add_argument("--config", metavar="path", help="JSON config with thresholds/gates")
    analyze.add_argument("--out", metavar="path", help="write the report to a file")
    analyze.add_argument("--fail-on", action="append", metavar="rules",
                         help="comma-separated rules or severities that force exit 1")
    analyze.add_argument("--strict", action="store_true",
                         help="treat warnings as failures (exit 1)")
    return parser


def _load_inputs(paths: list[str]) -> list[PackageDef]:
    """The packages the files declare. A file that cannot be read ends the run with
    exit 2, after the error lines of the files before it; error lines alone, with 3."""
    packages: list[PackageDef] = []
    errors: list[str] = []
    for path in paths:
        suffix = Path(path).suffix
        if suffix not in (".minioo", ".json"):
            raise _Exit(EXIT_USAGE, *errors,
                        f"error: {path}: unsupported input extension '{suffix}'")
        try:
            text = Path(path).read_bytes().decode("utf-8")  # exact text: no newline translation
        except OSError as exc:
            raise _Exit(EXIT_USAGE, *errors, f"error: cannot read {path}: {exc.strerror or exc}")
        except UnicodeDecodeError:
            raise _Exit(EXIT_USAGE, *errors, f"error: {path} is not valid UTF-8")
        try:
            if suffix == ".minioo":
                packages.extend(parse_minioo_declarations(text, path))
            else:
                packages.extend(decode_interchange(text, path))
        except ModelError as exc:
            errors.extend(map(_located, exc.errors))
    if errors:
        raise _Exit(EXIT_INPUT, *errors)
    return packages


def _located(error: ParseError | ValidationError) -> str:
    """The error prefixed with the file it was found in: `path:line:col: ` for
    MiniOO, `path: ` for an interchange document."""
    position = error.position
    return f"{position.path}:{error}" if position.line else f"{position.path}: {error}"


def _evaluate_gates(layers: tuple[Layer, ...], gates: _Gates) -> list[str]:
    """Check each gate, in order, against the report; UNDEFINED (absent) aggregates
    never trip gates."""
    values: dict[str, int | Fraction] = {
        f"{kind}_{metric}": value for layer in layers
        for metric, stats in layer.aggregates.items() for kind, value in stats.items()}
    counts = Counter(finding.rule for finding in layers[3].findings)
    values.update((name, counts[rule]) for name, rule in _COUNT_GATES.items())
    return [f"{name} {comparator} {limit} (actual {values[name]})"
            for name, comparator, limit in gates
            if name in values and not _COMPARE[comparator](values[name], limit)]


def main() -> None:
    """The `designlens` process: a run, collector off, then `os._exit` holding what it built."""
    gc.disable()
    ended = _run(sys.argv[1:], None, None)
    os._exit(ended.args[0])


if __name__ == "__main__":
    main()
