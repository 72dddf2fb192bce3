"""Seeded, sized model generator for the benchmark.

Builds plain Python data (dicts, lists, strings) shaped like an interchange
document and emits MiniOO text and interchange JSON from it without calling
designlens.  The oracle reads the same plain data, so the two never share code
with the analyzer.

Validity by construction: names are unique; a parent always precedes its child
in the global class order, so inheritance is acyclic; read-sets only name the
class's own fields; abstract methods only appear in abstract classes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

PRIMITIVES = ("int", "real", "text", "bool")


@dataclass(frozen=True)
class Shape:
    """Size and coupling parameters of a generated model.

    `edges` is the mean number of class edges (parents, class-typed fields,
    used classes) leaving one class; `locality` the share of them that stay
    in the class's package; `back_share` the share of cross-package edges
    that point to an earlier package, which is what creates package cycles.
    """

    packages: int
    classes: int
    methods: int
    fields: int
    edges: float
    locality: float
    back_share: float
    abstract_share: float = 0.15
    parent_share: float = 0.15
    empty_packages: int = 0


def generate(shape: Shape, seed: int) -> list[dict]:
    """Return the model as interchange-shaped plain data (list of packages)."""
    rng = random.Random(seed)
    per_package = [shape.classes // shape.packages] * shape.packages
    for i in range(shape.classes % shape.packages):
        per_package[i] += 1
    pkg_names = [f"pkg{i:02d}" for i in range(shape.packages)]
    names: list[list[str]] = []  # per package: qualified class names
    flat: list[str] = []
    for p, count in enumerate(per_package):
        qns = [f"{pkg_names[p]}.Cls{len(flat) + c:04d}" for c in range(count)]
        names.append(qns)
        flat.extend(qns)
    position = {qn: i for i, qn in enumerate(flat)}
    abstract = {qn: rng.random() < shape.abstract_share for qn in flat}

    def pick_target(p: int, earlier_than: int | None = None) -> str:
        """One edge target for a class in package p, honouring locality and back share."""
        if shape.packages == 1 or rng.random() < shape.locality:
            q = p
        elif rng.random() < shape.back_share and p > 0:
            q = rng.randrange(0, p)
        elif p < shape.packages - 1:
            q = rng.randrange(p + 1, shape.packages)
        else:
            q = rng.randrange(0, p)
        pool = names[q]
        if earlier_than is not None:
            pool = [qn for qn in pool if position[qn] < earlier_than]
        return rng.choice(pool) if pool else ""

    packages = []
    for p, pkg in enumerate(pkg_names):
        classes = []
        for qn in names[p]:
            me = position[qn]
            parents: list[str] = []
            if me > 0 and rng.random() < shape.parent_share:
                arity = 2 if rng.random() < 0.15 else 1
                for _ in range(arity):
                    target = pick_target(p, earlier_than=me)
                    if target and target not in parents:
                        parents.append(target)
            # The rest of the edge budget becomes class-typed fields and method
            # uses; every other field is primitive.
            budget = max(0, _poisson(rng, shape.edges) - len(parents))
            field_targets = sum(1 for _ in range(budget) if rng.random() < 0.35)
            attributes = []
            for f in range(max(shape.fields, field_targets)):
                if f < field_targets:
                    kind = "aggregation" if rng.random() < 0.4 else "association"
                    attributes.append({"name": f"attr{f}", "target": pick_target(p), "kind": kind})
                else:
                    attributes.append({"name": f"attr{f}", "target": None, "kind": "none"})
            attr_names = [a["name"] for a in attributes]
            uses_left = budget - field_targets
            method_count = max(shape.methods, 1 if uses_left else 0)
            uses: list[set[str]] = [set() for _ in range(method_count)]
            for _ in range(uses_left):
                uses[rng.randrange(method_count)].add(pick_target(p))
            methods = []
            for m in range(method_count):
                reads = sorted(rng.sample(attr_names, min(len(attr_names), rng.randint(0, 3))))
                methods.append({
                    "name": f"op{m}",
                    "abstract": abstract[qn] and rng.random() < 0.3,
                    "weight": rng.randint(1, 4),
                    "reads": reads,
                    "uses": sorted(uses[m]),
                })
            classes.append({
                "name": qn.partition(".")[2],
                "abstract": abstract[qn],
                "parents": parents,
                "attributes": attributes,
                "methods": methods,
            })
        packages.append({"name": pkg, "classes": classes})
    for e in range(shape.empty_packages):
        packages.append({"name": f"vacant{e}", "classes": []})
    return packages


def _poisson(rng: random.Random, mean: float) -> int:
    """Small-mean Poisson draw via a sum of Bernoulli trials (binomial approximation)."""
    trials = max(1, int(mean * 4))
    p = mean / trials
    return sum(1 for _ in range(trials) if rng.random() < p)


def to_interchange(packages: list[dict]) -> str:
    """Canonical interchange JSON: fixed key order, compact separators, trailing newline."""
    return json.dumps({"packages": packages}, separators=(",", ":")) + "\n"


def split_interchange(packages: list[dict], parts: int) -> list[str]:
    """The model as `parts` documents of consecutive packages (a multi-file CLI input)."""
    bounds = [round(i * len(packages) / parts) for i in range(parts + 1)]
    return [to_interchange(packages[bounds[i]:bounds[i + 1]]) for i in range(parts)]


def to_minioo(packages: list[dict]) -> str:
    """MiniOO source; same-package references are written unqualified."""
    out: list[str] = []
    for pkg in packages:
        name = pkg["name"]

        def ref(qn: str) -> str:
            owner, _, cls = qn.partition(".")
            return cls if owner == name else qn

        out.append(f"package {name} {{\n")
        for cls in pkg["classes"]:
            head = "abstract class " if cls["abstract"] else "class "
            extends = (" extends " + ", ".join(ref(p) for p in cls["parents"])
                       if cls["parents"] else "")
            out.append(f"  {head}{cls['name']}{extends} {{\n")
            for attr in cls["attributes"]:
                if attr["target"] is None:
                    prim = PRIMITIVES[int(attr["name"][4:]) % len(PRIMITIVES)]
                    out.append(f"    field {attr['name']}: {prim};\n")
                else:
                    kind = ", aggr" if attr["kind"] == "aggregation" else ""
                    out.append(f"    field {attr['name']}: {ref(attr['target'])}{kind};\n")
            for method in cls["methods"]:
                line = ["    abstract method " if method["abstract"] else "    method ",
                        method["name"]]
                if method["weight"] != 1:
                    line.append(f" weight {method['weight']}")
                if method["reads"]:
                    line.append(" reads (" + ", ".join(method["reads"]) + ")")
                if method["uses"]:
                    line.append(" uses (" + ", ".join(ref(u) for u in method["uses"]) + ")")
                line.append(";\n")
                out.append("".join(line))
            out.append("  }\n")
        out.append("}\n")
    return "".join(out)
