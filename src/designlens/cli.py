"""Command-line driver: analyze inputs, write the report, enforce quality gates.

Exit codes: 0 clean, 1 gate failure or fail-on finding, 2 usage error,
3 parse/validation error (no report is emitted on 3).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import TextIO

from .frontends import (
    ParseError,
    ParseFailure,
    decode_interchange,
    parse_minioo_declarations,
    reject_constant,
    unique_keys,
)
from .metrics import compute_all
from .model import ModelError, PackageDef, ValidationError, build_model
from .principles import (
    RULE_ADP,
    RULE_DIP,
    RULE_EMPTY_PACKAGE,
    RULE_SAP_PAIN,
    RULE_SAP_USELESS,
    RULE_SDP,
    RULE_SRP,
    SEVERITY_BY_RULE,
    Thresholds,
    run_all,
)
from .report import (
    CLASS_DESIGN_METRICS,
    FORMATS,
    PACKAGING_METRICS,
    RELATIONSHIP_METRICS,
    LayeredReport,
    build_report,
    write_report,
)

EXIT_OK = 0
EXIT_GATE_FAILURE = 1
EXIT_USAGE = 2
EXIT_INPUT = 3

NO_COLOR_ENV = "DESIGNLENS_NO_COLOR"

COMPARATORS = ("<=", ">=", "=")

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

# The most digits a config number may take written out in full: room for any
# threshold or limit, and far below the longest integer Python converts to text.
_MAX_NUMBER_DIGITS = 1000

_RULE_TOKENS = {rule.lower(): rule for rule in SEVERITY_BY_RULE}
_SEVERITY_TOKENS = ("violation", "advisory", "warning")


class ConfigError(Exception):
    """The config document is malformed; the message names the offending key path."""


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would sys.exit(2)
        raise _UsageError(message)


@dataclass(frozen=True)
class GateConfig:
    thresholds: Thresholds
    gates: tuple[tuple[str, str, int | Fraction], ...] = ()
    fail_on: frozenset[str] = frozenset()


def load_config(path: str | None) -> GateConfig:
    """Load a config document merged over defaults; unknown keys are errors."""
    if path is None:
        return GateConfig(Thresholds())
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
            raise ConfigError(f"unknown config key '{key}'")
    thresholds = _load_thresholds(data.get("thresholds", {}))
    gates = _load_gates(data.get("gates", []))
    fail_on = frozenset(_parse_fail_on_token(token, context="fail_on")
                        for token in _string_list(data.get("fail_on", []), "fail_on"))
    return GateConfig(thresholds, gates, fail_on)


def _config_number(text: str) -> Fraction:
    """`parse_float` hook: the exact value of a JSON number with a fraction or an
    exponent, refused before it is built if it takes too many digits written out."""
    mantissa, _, exponent = text.lower().partition("e")
    magnitude = exponent.lstrip("+-0")  # converted only when it has few digits
    if (len(magnitude) > len(str(_MAX_NUMBER_DIGITS))
            or len(mantissa) + int(magnitude or 0) > _MAX_NUMBER_DIGITS):
        raise ValueError(f"number {text:.40} takes more than {_MAX_NUMBER_DIGITS} digits")
    return Fraction(text)


def _load_thresholds(data: object) -> Thresholds:
    if not isinstance(data, dict):
        raise ConfigError("'thresholds' must be an object")
    values: dict[str, int | Fraction] = {}
    for key, value in data.items():
        if key in ("srp_lcom_min", "srp_method_min"):
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ConfigError(f"'thresholds.{key}' must be a non-negative integer")
            values[key] = value
        elif key in ("sap_distance_min", "sap_extreme"):
            if isinstance(value, bool) or not isinstance(value, (int, Fraction)) or value < 0:
                raise ConfigError(f"'thresholds.{key}' must be a non-negative number")
            values[key] = Fraction(value)
        else:
            raise ConfigError(f"unknown config key 'thresholds.{key}'")
    try:
        return replace(Thresholds(), **values)
    except ValueError as exc:
        raise ConfigError(f"'thresholds': {exc}") from None


def _load_gates(data: object) -> tuple[tuple[str, str, int | Fraction], ...]:
    if not isinstance(data, list):
        raise ConfigError("'gates' must be an array")
    gates = []
    for index, entry in enumerate(data):
        where = f"gates[{index}]"
        if not isinstance(entry, list) or len(entry) != 3:
            raise ConfigError(f"'{where}' must be [name, comparator, limit]")
        name, comparator, limit = entry
        if name not in GATE_NAMES:
            raise ConfigError(f"'{where}': unknown gate '{name}'")
        if comparator not in COMPARATORS:
            raise ConfigError(f"'{where}': comparator must be one of {', '.join(COMPARATORS)}")
        if isinstance(limit, bool) or not isinstance(limit, (int, Fraction)) or limit < 0:
            raise ConfigError(f"'{where}': limit must be a non-negative number")
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
    raise ConfigError(f"'{context}': unknown rule or severity '{token}'")


def run(argv: list[str], stdout: TextIO | None = None, stderr: TextIO | None = None) -> int:
    """Execute the CLI with the cyclic garbage collector paused; returns the exit code."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        stdout = stdout if stdout is not None else sys.stdout
        stderr = stderr if stderr is not None else sys.stderr

        parser = _build_parser()
        try:
            with redirect_stdout(stdout):  # argparse prints --help to sys.stdout
                args = parser.parse_args(argv)
        except _UsageError as exc:
            print(f"error: {exc}", file=stderr)
            return EXIT_USAGE
        except SystemExit as exc:  # --help
            try:
                stdout.flush()
            except OSError as error:
                print(f"error: cannot write standard output: {error.strerror or error}",
                      file=stderr)
                return EXIT_USAGE
            return int(exc.code or 0)

        try:
            config = load_config(args.config)
            fail_on = set(config.fail_on)
            for raw in args.fail_on or []:
                for token in raw.split(","):
                    if token.strip():
                        fail_on.add(_parse_fail_on_token(token, context="--fail-on"))
        except ConfigError as exc:
            print(f"error: {exc}", file=stderr)
            return EXIT_USAGE

        packages, code = _load_inputs(args.paths, stderr)
        if code != EXIT_OK:
            return code
        try:
            model = build_model(packages)
        except ModelError as exc:
            for error in exc.errors:
                print(_located(error), file=stderr)
            return EXIT_INPUT

        metrics = compute_all(model)
        findings = run_all(model, metrics, config.thresholds)
        layered = build_report(model, metrics, findings)
        color = (args.format == "text" and args.out is None
                 and not os.environ.get(NO_COLOR_ENV)
                 and getattr(stdout, "isatty", lambda: False)())

        try:  # the report exists, so --out is opened only now
            if args.out is not None:
                with open(args.out, "w", encoding="utf-8") as out:
                    write_report(layered, args.format, out)
            else:
                write_report(layered, args.format, stdout, color)
                stdout.flush()
        except OSError as exc:
            target = "standard output" if args.out is None else args.out
            print(f"error: cannot write {target}: {exc.strerror or exc}", file=stderr)
            return EXIT_USAGE

        failed = False
        for message in _evaluate_gates(layered, config.gates):
            print(f"gate failed: {message}", file=stderr)
            failed = True
        for finding in findings:
            if finding.rule.lower() in fail_on or finding.severity in fail_on:
                print(f"fail-on: {finding.rule} at {finding.locus}", file=stderr)
                failed = True
            elif args.strict and finding.severity == "warning":
                print(f"strict: {finding.rule} at {finding.locus}", file=stderr)
                failed = True
        return EXIT_GATE_FAILURE if failed else EXIT_OK
    finally:
        if enabled:
            gc.enable()


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


def _load_inputs(paths: list[str], stderr: TextIO) -> tuple[list[PackageDef], int]:
    packages: list[PackageDef] = []
    input_errors = False
    for path in paths:
        suffix = Path(path).suffix
        if suffix not in (".minioo", ".json"):
            print(f"error: {path}: unsupported input extension '{suffix}'", file=stderr)
            return [], EXIT_USAGE
        try:
            text = Path(path).read_bytes().decode("utf-8")  # exact text: no newline translation
        except OSError as exc:
            print(f"error: cannot read {path}: {exc.strerror or exc}", file=stderr)
            return [], EXIT_USAGE
        except UnicodeDecodeError:
            print(f"error: {path} is not valid UTF-8", file=stderr)
            return [], EXIT_USAGE
        try:
            if suffix == ".minioo":
                packages.extend(parse_minioo_declarations(text, path))
            else:
                packages.extend(decode_interchange(text, path))
        except (ParseFailure, ModelError) as exc:
            for error in exc.errors:
                print(_located(error), file=stderr)
            input_errors = True
    if input_errors:
        return [], EXIT_INPUT
    return packages, EXIT_OK


def _located(error: ParseError | ValidationError) -> str:
    """The error prefixed with the file it was found in: `path:line:col: ` for
    MiniOO, `path: ` for an interchange document."""
    position = error.position
    return f"{position.path}:{error}" if position.line else f"{position.path}: {error}"


def _evaluate_gates(report: LayeredReport,
                    gates: tuple[tuple[str, str, int | Fraction], ...]) -> list[str]:
    """Check each gate against the report; UNDEFINED (absent) aggregates never trip gates."""
    failures = []
    findings = report.layers[3].findings
    for name, comparator, limit in gates:
        if name in _COUNT_GATES:
            value: int | Fraction | None = sum(
                1 for f in findings if f.rule == _COUNT_GATES[name])
        else:
            kind, _, metric = name.partition("_")
            value = None
            for layer in report.layers:
                if metric in layer.aggregates:
                    value = layer.aggregates[metric][kind]
                    break
        if value is None:
            continue
        ok = (value <= limit if comparator == "<="
              else value >= limit if comparator == ">="
              else value == limit)
        if not ok:
            failures.append(f"{name} {comparator} {_limit_text(limit)} (actual {_limit_text(value)})")
    return failures


def _limit_text(value: int | Fraction) -> str:
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return str(int(value)) if isinstance(value, Fraction) else str(value)


def main() -> None:
    """The `designlens` process: `run`, which flushes its output, then `os._exit`."""
    code = run(sys.argv[1:])
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
