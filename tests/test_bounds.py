"""Each documented bound is one name, defined once in the module that owns its check.

The owning module's test file pins each name's documented value as a literal
and tests each side the docs promise at the bound itself, so that the module's
own file kills a changed bound. Here every float literal of the package that
equals a bound must be that bound's one definition, and every public function
of the package must have a reader in the package or in ``perfbench``.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

from hdbsm import classifier, cli, core, optics

MODULES = {"classifier": classifier, "cli": cli, "core": core, "optics": optics}
SRC = Path(core.__file__).parent

BOUNDS = [
    ("core", "LOGIC_TOL"),
    ("optics", "EQUIVALENCE_TOL"),
    ("cli", "REPORT_TOL"),
    ("cli", "ROW_THRESHOLD"),
    ("classifier", "NORM_TOL"),
]
EXPECTED_SITES = Counter((module, name, getattr(MODULES[module], name)) for module, name in BOUNDS)
BOUND_VALUES = {value for _, _, value in EXPECTED_SITES}


def bound_sites(sources: dict[str, str]) -> Counter:
    """(module, name, value) of every float literal equal to a documented bound.

    ``name`` is the target of the module-level ``NAME = literal`` the literal
    defines, and None for a literal anywhere else.
    """
    sites = Counter()
    for module, source in sources.items():
        tree = ast.parse(source)
        defines = {
            id(node.value): node.targets[0].id
            for node in tree.body
            if isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and type(node.value) is float:
                if node.value in BOUND_VALUES:
                    sites[module, defines.get(id(node)), node.value] += 1
    return sites


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def test_each_bound_literal_is_its_one_definition():
    assert bound_sites(package_sources()) == EXPECTED_SITES


DOCTORED = {
    "bare literal in a check": ("cli", None, "\n\ndef near(x):\n    return x > 1e-9\n"),
    "same float spelled out": ("optics", None, "\nGAP = 0.000000001\n"),
    "second definition": ("cli", None, "\nNORM_TOL = 1e-6\n"),
    "default argument": ("classifier", None, "\n\ndef f(tol=1e-12):\n    return tol\n"),
    "loosened definition": ("classifier", "NORM_TOL = 1e-6", "NORM_TOL = 1e-3"),
}


@pytest.mark.parametrize("module, old, new", DOCTORED.values(), ids=list(DOCTORED))
def test_doctored_source_is_caught(module, old, new):
    sources = package_sources()
    if old is None:
        sources[module] += new
    else:
        assert sources[module].count(old) == 1
        sources[module] = sources[module].replace(old, new)
    assert bound_sites(sources) != EXPECTED_SITES


# Every public function and method of the package is read by name somewhere in
# the package or in the benchmark, which binds its targets by name. A re-export
# from the package's __init__ is not a read.
PERFBENCH = SRC.parent.parent / "perfbench"
DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def public_functions(sources: dict[str, str]) -> set[str]:
    """Names of the public functions of each module and of its classes' public methods."""
    names = set()
    for source in sources.values():
        for node in ast.parse(source).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            names.update(
                f.name for f in members if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
            )
    return names


def names_read(sources: list[str]) -> set[str]:
    """Every name the sources read: a name, an attribute, an imported name or a dotted string."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if DOTTED_NAME.fullmatch(node.value):
                    read.update(node.value.split("."))
    return read


def unread_functions(sources: dict[str, str]) -> set[str]:
    readers = [source for module, source in sources.items() if module != "__init__"]
    benchmark = [path.read_text(encoding="utf-8") for path in sorted(PERFBENCH.glob("*.py"))]
    return public_functions(sources) - names_read([*readers, *benchmark])


def test_every_public_function_is_read_by_name():
    assert unread_functions(package_sources()) == set()


@pytest.mark.parametrize(
    "added",
    [
        {"core": "\n\ndef orphan(u):\n    return u\n"},
        {"report": "\n\nclass Orphan:\n    def orphan(self):\n        return self\n"},
        {"core": "\n\ndef orphan(u):\n    return u\n", "__init__": "\nfrom .core import orphan\n"},
    ],
    ids=["function", "method", "exported"],
)
def test_an_unread_function_is_caught(added):
    sources = package_sources()
    for module, text in added.items():
        sources[module] += text
    assert "orphan" in unread_functions(sources)
