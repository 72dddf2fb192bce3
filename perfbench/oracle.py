"""Independent oracle for designlens reports, computed from plain model data.

Nothing here imports designlens.  The oracle recomputes every metric, aggregate
and finding from the interchange-shaped data the generator builds, formats
rationals with its own half-even formatter (via `decimal`), finds ADP groups
by brute-force package reachability, and reads JSON and text reports back into
one normalized form so the two can be compared.

Normalized report: a list of layers, each `(name, metrics, aggregates,
findings)` with metrics `[(subject, metric, value)]`, aggregates
`{metric: (min, max, mean)}` and findings `[(rule, severity, locus, evidence)]`.
Every value is a string as the report prints it, or None for UNDEFINED.
"""

from __future__ import annotations

import json
import re
from collections import deque
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

SEVERITY = {"ADP": "violation", "SDP": "violation", "SAP_PAIN": "advisory",
            "SAP_USELESS": "advisory", "SRP": "advisory", "DIP": "advisory",
            "EMPTY_PACKAGE": "warning"}
CLASS_DESIGN = ("wmc", "lcom")
RELATIONSHIPS = ("dit", "noc", "cbo")
PACKAGING = ("ca", "ce", "instability", "abstractness", "distance")
DEFAULT_THRESHOLDS = {"srp_lcom_min": 1, "srp_method_min": 3,
                      "sap_distance_min": Fraction(7, 10), "sap_extreme": Fraction(1, 5)}


def fmt(value: int | Fraction | None, rational: bool) -> str | None:
    """Render as the report does: ints plainly, rationals with 4 half-even digits."""
    if value is None:
        return None
    if not rational:
        return str(value)
    value = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = 80
        exact = Decimal(value.numerator) / Decimal(value.denominator)
        text = str(exact.quantize(Decimal("0.0001"), rounding=ROUND_HALF_EVEN))
    return "0.0000" if text == "-0.0000" else text


class Analysis:
    """Every number a designlens report states about one model."""

    def __init__(self, packages: list[dict], thresholds: dict | None = None):
        self.thresholds = {**DEFAULT_THRESHOLDS, **(thresholds or {})}
        self.packages = sorted(p["name"] for p in packages)
        self.cls: dict[str, dict] = {}
        self.pkg_classes: dict[str, list[str]] = {p["name"]: [] for p in packages}
        for pkg in packages:
            for cls in pkg["classes"]:
                qn = f"{pkg['name']}.{cls['name']}"
                self.cls[qn] = cls
                self.pkg_classes[pkg["name"]].append(qn)
        self.edges: set[tuple[str, str, str]] = set()
        for qn, cls in self.cls.items():
            self.edges.update((qn, parent, "inherit") for parent in cls["parents"])
            self.edges.update((qn, a["target"], a["kind"]) for a in cls["attributes"]
                              if a["target"] is not None)
            for method in cls["methods"]:
                self.edges.update((qn, used, "use") for used in method["uses"])
        self.classes = sorted(self.cls, key=lambda qn: tuple(qn.split(".")))
        self.children = {qn: 0 for qn in self.cls}
        for cls in self.cls.values():
            for parent in set(cls["parents"]):
                self.children[parent] += 1
        self.coupled: dict[str, set[str]] = {qn: set() for qn in self.cls}
        for src, dst, kind in self.edges:
            if kind != "inherit" and src != dst:
                self.coupled[src].add(dst)
                self.coupled[dst].add(src)
        self.depths: dict[str, int] = {}
        self.rows = {qn: self._class_row(qn) for qn in self.cls}
        self.pkg_rows = self._package_rows()
        self.findings = self._findings()

    # -- class metrics -------------------------------------------------------

    def _class_row(self, qn: str) -> dict:
        cls = self.cls[qn]
        reads = [set(m["reads"]) for m in cls["methods"]]
        disjoint = intersecting = 0
        for i in range(len(reads)):
            for j in range(i + 1, len(reads)):
                if reads[i] & reads[j]:
                    intersecting += 1
                else:
                    disjoint += 1
        return {"wmc": sum(m["weight"] for m in cls["methods"]),
                "lcom": max(disjoint - intersecting, 0),
                "dit": self.depth(qn),
                "noc": self.children[qn],
                "cbo": len(self.coupled[qn])}

    def depth(self, qn: str) -> int:
        """Longest inherit path to a root; parents precede children, so it terminates."""
        if qn not in self.depths:
            parents = self.cls[qn]["parents"]
            self.depths[qn] = 1 + max(self.depth(p) for p in parents) if parents else 0
        return self.depths[qn]

    # -- package metrics -----------------------------------------------------

    def _package_rows(self) -> dict:
        incoming = {p: set() for p in self.packages}
        outgoing = {p: set() for p in self.packages}
        for src, dst, _ in self.edges:
            sp, dp = src.split(".")[0], dst.split(".")[0]
            if sp != dp:
                incoming[dp].add(src)
                outgoing[sp].add(dst)
        rows = {}
        for p in self.packages:
            ca, ce = len(incoming[p]), len(outgoing[p])
            members = self.pkg_classes[p]
            i = Fraction(ce, ca + ce) if ca + ce else None
            a = (Fraction(sum(1 for qn in members if self.cls[qn]["abstract"]), len(members))
                 if members else None)
            d = abs(a + i - 1) if a is not None and i is not None else None
            rows[p] = {"ca": ca, "ce": ce, "instability": i, "abstractness": a, "distance": d}
        return rows

    def package_edges(self) -> set[tuple[str, str]]:
        return {(src.split(".")[0], dst.split(".")[0]) for src, dst, _ in self.edges
                if src.split(".")[0] != dst.split(".")[0]}

    # -- findings ------------------------------------------------------------

    def _findings(self) -> list[tuple[str, str, str, str]]:
        t = self.thresholds
        found: list[tuple[str, str, str, str]] = []
        pedges = self.package_edges()
        succ = {p: [] for p in self.packages}
        for src, dst in pedges:
            succ[src].append(dst)
        reach = {p: self._reachable(p, succ) for p in self.packages}
        groups = {tuple(sorted({p} | {q for q in reach[p] if p in reach[q]}))
                  for p in self.packages}
        for group in sorted((g for g in groups if len(g) >= 2), key=lambda g: g[0]):
            found.append(("ADP", ", ".join(group), f"members=[{', '.join(group)}]", ""))
        for src, dst in pedges:
            si, di = self.pkg_rows[src]["instability"], self.pkg_rows[dst]["instability"]
            if si is not None and di is not None and di > si:
                found.append(("SDP", f"{src}->{dst}",
                              f"from_instability={fmt(si, True)}; to_instability={fmt(di, True)}", ""))
        for p, row in self.pkg_rows.items():
            a, i, d = row["abstractness"], row["instability"], row["distance"]
            if a is None or i is None or d is None or d < t["sap_distance_min"]:
                continue
            evidence = (f"abstractness={fmt(a, True)}; instability={fmt(i, True)}; "
                        f"distance={fmt(d, True)}")
            if a <= t["sap_extreme"] and i <= t["sap_extreme"]:
                found.append(("SAP_PAIN", p, evidence, ""))
            if a >= 1 - t["sap_extreme"] and i >= 1 - t["sap_extreme"]:
                found.append(("SAP_USELESS", p, evidence, ""))
        for qn, row in self.rows.items():
            methods = len(self.cls[qn]["methods"])
            if row["lcom"] >= t["srp_lcom_min"] and methods >= t["srp_method_min"]:
                found.append(("SRP", qn, f"lcom={row['lcom']}; method_count={methods}", ""))
        for src, dst, kind in self.edges:
            if kind != "inherit" and self.cls[src]["abstract"] and not self.cls[dst]["abstract"]:
                found.append(("DIP", f"{src}->{dst}", f"kind={kind}", kind))
        for p in self.packages:
            if not self.pkg_classes[p]:
                found.append(("EMPTY_PACKAGE", p, "", ""))
        found.sort(key=lambda f: (f[0], f[1], f[3]))
        return [(rule, SEVERITY[rule], locus, evidence) for rule, locus, evidence, _ in found]

    @staticmethod
    def _reachable(start: str, succ: dict) -> set[str]:
        seen: set[str] = set()
        queue = deque(succ[start])
        while queue:
            node = queue.popleft()
            if node not in seen:
                seen.add(node)
                queue.extend(succ[node])
        return seen

    # -- the report ----------------------------------------------------------

    def report(self) -> list:
        """The normalized four-layer report designlens must print for this model."""
        def layer(name, subjects, metric_names, table, rational=()):
            metrics = [(s, m, fmt(table[s][m], m in rational)) for s in subjects for m in metric_names]
            aggregates = {}
            for m in metric_names:
                defined = [table[s][m] for s in subjects if table[s][m] is not None]
                if defined:
                    aggregates[m] = (fmt(min(defined), m in rational),
                                     fmt(max(defined), m in rational),
                                     fmt(Fraction(sum(defined), len(defined)), True))
            return (name, metrics, aggregates, [])

        packaging = ("instability", "abstractness", "distance")
        return [
            layer("class design", self.classes, CLASS_DESIGN, self.rows),
            layer("relationships", self.classes, RELATIONSHIPS, self.rows),
            layer("packaging", self.packages, PACKAGING, self.pkg_rows, packaging),
            ("principles", [], {}, list(self.findings)),
        ]

    def aggregate(self, kind: str, metric: str) -> int | Fraction | None:
        """One gate aggregate (`max`/`min`/`mean`) over the defined values of a metric."""
        if metric in CLASS_DESIGN + RELATIONSHIPS:
            values = [self.rows[qn][metric] for qn in self.classes]
        else:
            values = [self.pkg_rows[p][metric] for p in self.packages
                      if self.pkg_rows[p][metric] is not None]
        if not values:
            return None
        return {"max": max, "min": min}.get(kind, lambda v: Fraction(sum(v), len(v)))(values)

    def cli_stderr(self, gates: list, fail_on: list[str]) -> tuple[int, str]:
        """Exit code and stderr of `analyze --config` with these gates and fail-on rules."""
        counts = {"adp_cycles": "ADP", "sdp_violations": "SDP", "sap_pain": "SAP_PAIN",
                  "sap_useless": "SAP_USELESS", "srp_advisories": "SRP", "dip_advisories": "DIP",
                  "empty_packages": "EMPTY_PACKAGE"}
        lines = []
        for name, comparator, limit in gates:
            if name in counts:
                value = sum(1 for f in self.findings if f[0] == counts[name])
            else:
                kind, _, metric = name.partition("_")
                value = self.aggregate(kind, metric)
            if value is None:
                continue
            ok = {"<=": value <= limit, ">=": value >= limit, "=": value == limit}[comparator]
            if not ok:
                lines.append(f"gate failed: {name} {comparator} {_plain(limit)} "
                             f"(actual {_plain(value)})")
        wanted = {rule.upper() for rule in fail_on}
        for rule, severity, locus, _ in self.findings:
            if rule in wanted or severity in fail_on:
                lines.append(f"fail-on: {rule} at {locus}")
        return (1 if lines else 0), "".join(line + "\n" for line in lines)

    def query(self, qn: str) -> list[int]:
        """One class row as the library answers it: dit, noc, cbo, Ca and Ce of its package."""
        row, pkg = self.rows[qn], self.pkg_rows[qn.split(".")[0]]
        return [row["dit"], row["noc"], row["cbo"], pkg["ca"], pkg["ce"]]


def _plain(value: int | Fraction) -> str:
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


# -- reading reports back ------------------------------------------------------


def _value(value) -> str | None:
    return None if value is None else str(value)


def _evidence(evidence: dict) -> str:
    parts = []
    for key, value in evidence.items():
        text = "[" + ", ".join(str(v) for v in value) + "]" if isinstance(value, list) else str(value)
        parts.append(f"{key}={text}")
    return "; ".join(parts)


def read_json_report(text: str) -> list:
    document = json.loads(text, parse_float=str)
    return [(layer["name"],
             [(m["subject"], m["name"], _value(m["value"])) for m in layer["metrics"]],
             {k: (_value(v["min"]), _value(v["max"]), _value(v["mean"]))
              for k, v in layer["aggregates"].items()},
             [(f["rule"], f["severity"], f["locus"], _evidence(f["evidence"]))
              for f in layer["findings"]])
            for layer in document["layers"]]


_HEADING = re.compile(r"Layer \d+: (.+)\Z")
_AGGREGATE = re.compile(r"  (\w+): min (\S+)  max (\S+)  mean (\S+)\Z")


def read_text_report(text: str) -> list:
    layers = []
    for block in text.rstrip("\n").split("\n\n"):
        lines = block.split("\n")
        name = _HEADING.match(lines[0]).group(1)
        metrics, aggregates, findings = [], {}, []
        body = lines[1:]
        if name == "principles":
            for line in body:
                if line != "  (no findings)":
                    rule, severity, locus, *evidence = re.split(r" {2,}", line.strip())
                    findings.append((rule, severity, locus, evidence[0] if evidence else ""))
        elif body and body[0] != "  (no data)":
            header = body[0].split()[1:]
            for line in body[1:]:
                match = _AGGREGATE.match(line)
                if match:
                    aggregates[match.group(1)] = tuple(
                        None if v == "-" else v for v in match.group(2, 3, 4))
                    continue
                subject, *cells = line.split()
                metrics.extend((subject, m, None if c == "-" else c) for m, c in zip(header, cells))
        layers.append((name, metrics, aggregates, findings))
    return layers


def diff(expected: list, actual: list, limit: int = 5) -> list[str]:
    """Human-readable differences between two normalized reports (empty when equal)."""
    if expected == actual:
        return []
    problems = []
    for e, a in zip(expected, actual):
        for part, label in ((1, "metrics"), (2, "aggregates"), (3, "findings")):
            if e[part] != a[part]:
                if isinstance(e[part], dict):
                    keys = sorted(set(e[part]) | set(a[part]))
                    bad = [(k, e[part].get(k), a[part].get(k)) for k in keys
                           if e[part].get(k) != a[part].get(k)]
                else:
                    bad = [(x, y) for x, y in zip(e[part], a[part]) if x != y]
                    if len(e[part]) != len(a[part]):
                        bad.append(("length", len(e[part]), len(a[part])))
                problems.append(f"{e[0]} {label}: {bad[:limit]}")
    if len(expected) != len(actual):
        problems.append(f"layer count {len(expected)} != {len(actual)}")
    return problems


# -- a MiniOO reader for the committed fixture ----------------------------------

_TOKEN = re.compile(r"\s+|//[^\n]*|([A-Za-z_][A-Za-z0-9_]*|[0-9]+|[{}();:,.])")


def count_tokens(source: str) -> int:
    """MiniOO tokens in the source, comments and whitespace excluded (end of input not counted)."""
    return sum(1 for m in _TOKEN.finditer(source) if m.group(1))


def read_minioo(source: str) -> list[dict]:
    """Plain data from well-formed MiniOO (the grammar in the README), for fixtures."""
    tokens = [m.group(1) for m in _TOKEN.finditer(source) if m.group(1)]
    pos = 0

    def take(expected: str | None = None) -> str:
        nonlocal pos
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        pos += 1
        return tok

    def ref(package: str) -> str:
        first = take()
        if pos < len(tokens) and tokens[pos] == ".":
            take(".")
            return f"{first}.{take()}"
        return f"{package}.{first}"

    def names(read) -> list:
        take("(")
        out = [read()]
        while tokens[pos] == ",":
            take(",")
            out.append(read())
        take(")")
        return out

    packages = []
    while pos < len(tokens):
        take("package")
        pkg = {"name": take(), "classes": []}
        take("{")
        while tokens[pos] != "}":
            abstract = tokens[pos] == "abstract"
            if abstract:
                take()
            take("class")
            cls = {"name": take(), "abstract": abstract, "parents": [], "attributes": [],
                   "methods": []}
            if tokens[pos] == "extends":
                take()
                cls["parents"].append(ref(pkg["name"]))
                while tokens[pos] == ",":
                    take(",")
                    cls["parents"].append(ref(pkg["name"]))
            take("{")
            while tokens[pos] != "}":
                if tokens[pos] == "field":
                    take()
                    name = take()
                    take(":")
                    if tokens[pos] in ("int", "real", "text", "bool"):
                        take()
                        attr = {"name": name, "target": None, "kind": "none"}
                    else:
                        attr = {"name": name, "target": ref(pkg["name"]), "kind": "association"}
                        if tokens[pos] == ",":
                            take(",")
                            attr["kind"] = {"assoc": "association", "aggr": "aggregation"}[take()]
                    cls["attributes"].append(attr)
                else:
                    is_abstract = tokens[pos] == "abstract"
                    if is_abstract:
                        take()
                    take("method")
                    method = {"name": take(), "abstract": is_abstract, "weight": 1,
                              "reads": [], "uses": []}
                    if tokens[pos] == "weight":
                        take()
                        method["weight"] = int(take())
                    if tokens[pos] == "reads":
                        take()
                        method["reads"] = sorted(set(names(take)))
                    if tokens[pos] == "uses":
                        take()
                        method["uses"] = sorted(set(names(lambda: ref(pkg["name"]))))
                    cls["methods"].append(method)
                take(";")
            take("}")
            pkg["classes"].append(cls)
        take("}")
        packages.append(pkg)
    return packages
