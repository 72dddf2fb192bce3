"""Deterministic random model generator shared by property and acceptance tests.

Models are valid by construction: names are unique, parents only reference
classes declared earlier (keeping inheritance acyclic), read-sets only name
declared attributes, and abstract methods only appear in abstract classes.
`MUTATED_DOCUMENTS` and `MUTATED_SOURCES` break them on purpose, in their
interchange and MiniOO forms.
"""

from __future__ import annotations

import copy
import json
import random
import re
from pathlib import Path

from hypothesis import strategies as st

from designlens.frontends import write_interchange
from designlens.model import (
    AGGREGATION,
    ASSOCIATION,
    NO_TARGET,
    AttributeDef,
    ClassDef,
    CodeModel,
    MethodDef,
    PackageDef,
    QualifiedName,
)


def random_packages(rng: random.Random, max_packages: int = 4, max_classes: int = 4,
                    allow_empty: bool = True) -> list[PackageDef]:
    package_count = rng.randint(1, max_packages)
    floor = 0 if allow_empty else 1
    class_counts = [rng.randint(floor, max_classes) for _ in range(package_count)]

    declared: list[QualifiedName] = []
    for p in range(package_count):
        for c in range(class_counts[p]):
            declared.append(QualifiedName(f"pkg{p}", f"C{p}_{c}"))
    abstract = {qn: rng.random() < 0.35 for qn in declared}

    packages = []
    position = 0
    for p in range(package_count):
        classes = []
        for _ in range(class_counts[p]):
            qn = declared[position]
            earlier = declared[:position]
            parents: list[QualifiedName] = []
            if earlier and rng.random() < 0.5:
                arity = 1 if rng.random() < 0.8 else min(2, len(earlier))
                parents = rng.sample(earlier, arity)

            attributes = []
            for a in range(rng.randint(0, 3)):
                if rng.random() < 0.55:
                    attributes.append(AttributeDef(f"a{a}"))
                else:
                    kind = AGGREGATION if rng.random() < 0.5 else ASSOCIATION
                    attributes.append(AttributeDef(f"a{a}", rng.choice(declared), kind))

            attr_names = [attr.name for attr in attributes]
            methods = []
            for m in range(rng.randint(0, 3)):
                reads = rng.sample(attr_names, rng.randint(0, len(attr_names)))
                uses = rng.sample(declared, rng.randint(0, min(2, len(declared))))
                methods.append(MethodDef(
                    name=f"m{m}",
                    is_abstract=abstract[qn] and rng.random() < 0.3,
                    weight=rng.randint(1, 5),
                    reads=frozenset(reads),
                    uses=frozenset(uses),
                ))
            classes.append(ClassDef(qn.cls, abstract[qn], tuple(parents),
                                    tuple(attributes), tuple(methods)))
            position += 1
        packages.append(PackageDef(f"pkg{p}", tuple(classes)))
    return packages


def random_model(rng: random.Random, **kwargs) -> CodeModel:
    return CodeModel(random_packages(rng, **kwargs))


_ATTRIBUTE_KIND_WORDS = {ASSOCIATION: "assoc", AGGREGATION: "aggr"}


def write_minioo(model: CodeModel) -> str:
    """MiniOO source that parses back to `model`: every reference qualified,
    every weight explicit, primitive attributes typed `int`."""
    lines = []
    for pkg in model.packages:
        lines.append(f"package {pkg.name} {{")
        for cls in pkg.classes:
            header = f"  {'abstract ' if cls.is_abstract else ''}class {cls.name}"
            if cls.parents:
                header += " extends " + ", ".join(str(parent) for parent in cls.parents)
            lines.append(header + " {")
            for attr in cls.attributes:
                if attr.kind == NO_TARGET:
                    lines.append(f"    field {attr.name}: int;")
                else:
                    lines.append(f"    field {attr.name}: {attr.target}, "
                                 f"{_ATTRIBUTE_KIND_WORDS[attr.kind]};")
            for method in cls.methods:
                line = (f"    {'abstract ' if method.is_abstract else ''}method {method.name}"
                        f" weight {method.weight}")
                if method.reads:
                    line += f" reads ({', '.join(sorted(method.reads))})"
                if method.uses:
                    line += f" uses ({', '.join(str(use) for use in sorted(method.uses))})"
                lines.append(line + ";")
            lines.append("  }")
        lines.append("}")
    return "\n".join(lines) + "\n"


# What a mutated document may hold in place of a value: each JSON type, valid
# and invalid names, and attribute kinds valid or not.  The added keys include
# ones that look like part of a path, so their loci are checked too.
_JUNK = (None, True, 0, 2, -1, 1.5, "", "p", "1x", "p.A", "pkg0.C0_0", "association", "none",
         "friend", [], [0], ["p.A"], {}, {"name": "p"})
_SCHEMA_KEYS = ("packages", "name", "classes", "abstract", "parents", "attributes", "methods",
                "target", "kind", "weight", "reads", "uses", "bogus", "", ".x", "[0]")


def mutate_document(document: str, rng: random.Random) -> str:
    """`document` with one to three random edits: a value swapped for junk or
    deleted, a junk key or element added to an object or array, one object's keys
    reordered, or a copy of one of the document's objects or arrays put in place of a
    value or added to an object or array, so a method may land among the attributes,
    a class among the parents, or the root inside itself."""
    data = json.loads(document)
    for _ in range(rng.randint(1, 3)):
        slots = []  # (container, key) of every value, and (container, None) to add to it
        containers = []
        stack = [data]
        while stack:
            node = stack.pop()
            containers.append(node)
            keys = list(node) if isinstance(node, dict) else range(len(node))
            slots += [(node, None), *((node, key) for key in keys)]
            stack += [node[key] for key in keys if isinstance(node[key], (dict, list))]
        edit = rng.random()
        if edit < 0.15:
            node = rng.choice([node for node in containers if isinstance(node, dict)])
            items = list(node.items())
            rng.shuffle(items)
            node.clear()
            node.update(items)
            continue
        node, key = rng.choice(slots)
        junk = copy.deepcopy(rng.choice(containers if edit < 0.4 else _JUNK))
        if key is None and isinstance(node, dict):
            node[rng.choice(_SCHEMA_KEYS)] = junk
        elif key is None:
            node.insert(rng.randint(0, len(node)), junk)
        elif rng.random() < 0.7:
            node[key] = junk
        else:
            del node[key]
    return json.dumps(data)


def _mutated_document(seed: int) -> str:
    rng = random.Random(seed)
    model = random_model(rng, max_packages=2, max_classes=3)
    return mutate_document(write_interchange(model), rng)


# Interchange documents of small random models, each mutated a little, so most
# get past the root object and many into a class or member.
MUTATED_DOCUMENTS = st.integers(0, 2**32).map(_mutated_document)


# Lexically interesting characters: punctuation, the comment slash, whitespace,
# a superscript digit, an Arabic-Indic digit, a non-ASCII letter and a Roman
# numeral, each of which `str.isalnum()` accepts or rejects differently.
LEXICAL_CHARACTERS = (list("{}();:,./") * 3 + list("//\t\r\n  ")
                      + ["\u00b2", "\u0663", "\u00e9", "\u216b"] + list("aZ_09"))

_SOURCE_TOKEN_RE = re.compile(r"\w+|\S")
_REFERENCE_SOURCE = (Path(__file__).parent / "fixtures" / "reference.minioo").read_text(
    encoding="utf-8")


def mutate_source(source: str, rng: random.Random) -> str:
    """`source` with one to three random edits: a token deleted, duplicated or swapped
    with another, a character of `LEXICAL_CHARACTERS` inserted, or a comment line or a
    newline inserted before or after a token.  A token here is a run of word characters
    or any other non-space character."""
    for _ in range(rng.randint(1, 3)):
        spans = [match.span() for match in _SOURCE_TOKEN_RE.finditer(source)]
        edit = rng.choice(("delete", "duplicate", "swap", "insert", "comment"))
        if edit == "insert" or not spans:
            at = rng.randint(0, len(source))
            source = source[:at] + rng.choice(LEXICAL_CHARACTERS) + source[at:]
            continue
        start, end = rng.choice(spans)
        if edit == "comment":
            at = rng.choice((start, end))
            source = source[:at] + rng.choice(("// c\n", "\n")) + source[at:]
            continue
        if edit == "delete":
            source = source[:start] + source[end:]
        elif edit == "duplicate":
            source = source[:end] + " " + source[start:end] + source[end:]
        else:
            (start, end), (start2, end2) = sorted(((start, end), rng.choice(spans)))
            if end <= start2:
                source = (source[:start] + source[start2:end2] + source[end:start2]
                          + source[start:end] + source[end2:])
    return source


def _mutated_source(seed: int) -> str:
    rng = random.Random(seed)
    if rng.random() < 0.25:
        return mutate_source(_REFERENCE_SOURCE, rng)
    return mutate_source(write_minioo(random_model(rng, max_packages=2, max_classes=3)), rng)


# MiniOO sources of the reference fixture and of small random models, each mutated
# a little, so most errors fall inside a class or a member.
MUTATED_SOURCES = st.integers(0, 2**32).map(_mutated_source)
