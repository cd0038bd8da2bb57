"""Each documented bound is one name, defined once in the module that owns its check.

The owning module's test file pins each name's documented value as a literal
and tests each side the docs promise at the bound itself, so that the module's
own file kills a changed bound. Here every float literal of the package that
equals a bound must be that bound's one definition.
"""

import ast
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
