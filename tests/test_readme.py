"""The README's examples run as written, and the library names it gives exist."""

import builtins
import fractions
import importlib
import io
import pkgutil
import re
from contextlib import redirect_stdout
from pathlib import Path

import designlens
from designlens import cli, frontends, metrics, minioo, model, principles, report
from designlens.cli import load_config
from designlens.frontends import read_interchange
from designlens.minioo import parse_minioo

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
_FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def _section(heading):
    start = README.index(f"\n## {heading}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else None]


def _fences(heading, language):
    return [body for lang, body in _FENCE.findall(_section(heading)) if lang == language]


# the grammar is the section's other plain fence
MINIOO_EXAMPLE = next(body for body in _fences("MiniOO declaration language", "")
                      if "::=" not in body)


def _run_library_example():
    namespace = {"source": MINIOO_EXAMPLE}
    out = io.StringIO()
    with redirect_stdout(out):
        exec(_fences("Library use", "python")[0], namespace)
    return namespace, out.getvalue()


def test_readme_minioo_example_parses():
    assert sorted(package.name for package in parse_minioo(MINIOO_EXAMPLE).packages) == [
        "app", "core"]


def test_readme_interchange_example_reads():
    [document] = _fences("Interchange documents", "json")
    assert [package.name for package in read_interchange(document).packages] == ["core"]


def test_readme_config_example_loads(tmp_path):
    [document] = _fences("Config documents", "json")
    config = tmp_path / "config.json"
    config.write_text(document, encoding="utf-8")
    _, gates, fail_on = load_config(str(config))
    assert gates == (("max_dit", "<=", 5), ("adp_cycles", "=", 0))
    assert fail_on == {"violation"}


def test_readme_library_example_runs():
    namespace, out = _run_library_example()
    layers = namespace["report"]
    assert out.endswith(designlens.render(layers, "text"))
    assert namespace["text"] == designlens.render(layers, "json")


def test_readme_library_section_names_what_exists():
    # `module.name` and `variable.attribute` resolve in the package or the example's
    # variables; a bare capitalised name is a designlens, builtin or `fractions` name
    namespace, _ = _run_library_example()
    modules = {module.__name__.rpartition(".")[2]: module
               for module in (cli, frontends, metrics, minioo, model, principles, report)}
    section = _section("Library use")
    for head, attribute in re.findall(r"`(\w+)\.(\w+)`", section):
        owners = [owner for owner in (modules.get(head), namespace.get(head))
                  if owner is not None]
        if owners:
            assert any(hasattr(owner, attribute) for owner in owners), f"{head}.{attribute}"
    places = (designlens, *modules.values(), builtins, fractions)
    for name in re.findall(r"`([A-Z]\w*)`", section):
        assert any(hasattr(place, name) for place in places), name


def test_readme_names_every_public_exception():
    # one exception type per failure: a second type for the same failure, added to any
    # public module, fails here until README says what raises it
    for info in pkgutil.iter_modules(designlens.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"designlens.{info.name}")
        for name, value in vars(module).items():
            if (isinstance(value, type) and issubclass(value, BaseException)
                    and value.__module__ == module.__name__ and not name.startswith("_")):
                assert f"`{name}`" in README, f"{module.__name__}.{name}"
