"""Each documented bound is one name, defined once in the module that owns its check.

``DOCUMENTED`` pins every name's documented value as a literal, here and
nowhere else. The other tests read the names, so a changed definition would
move their inputs along with the bound; the pins below fail instead.
"""

import ast
import dataclasses
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from hdbsm import classifier, cli, core, decomposition, optics
from hdbsm.classifier import CoincidenceTable, classify_table, decoding_table_from_law
from hdbsm.core import State
from hdbsm.decomposition import reference_index_law
from hdbsm.states import BellIndex, LITERAL_CONVENTION

MODULES = {"classifier": classifier, "cli": cli, "core": core, "optics": optics}
SRC = Path(core.__file__).parent

DOCUMENTED = {
    ("core", "LOGIC_TOL"): 1e-9,
    ("optics", "EQUIVALENCE_TOL"): 1e-9,
    ("cli", "REPORT_TOL"): 1e-9,
    ("cli", "ROW_THRESHOLD"): 1e-12,
    ("classifier", "NORM_TOL"): 1e-6,
}
BOUND_VALUES = set(DOCUMENTED.values())
EXPECTED_SITES = Counter((module, name, value) for (module, name), value in DOCUMENTED.items())


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


@pytest.mark.parametrize("module, name", list(DOCUMENTED))
def test_documented_value(module, name):
    assert getattr(MODULES[module], name) == DOCUMENTED[module, name]


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


# Sides. The docs promise a strict side for the bounds below, so each is
# tested at the bound itself and at the next float on the other side.


def test_nonzero_is_strictly_above_logic_tol():
    above = np.nextafter(core.LOGIC_TOL, 1.0)
    state = State((2,), np.array([core.LOGIC_TOL, above]))
    assert state.nonzero() == {(1,): complex(above)}


def test_equivalent_is_strictly_below_its_bound():
    result = optics.run_experiment(2, 0, 0, 0, 0, LITERAL_CONVENTION)
    at = dataclasses.replace(result, equivalence_gap=optics.EQUIVALENCE_TOL)
    below = dataclasses.replace(at, equivalence_gap=np.nextafter(optics.EQUIVALENCE_TOL, 0.0))
    assert (at.equivalent, below.equivalent) == (False, True)


def test_rows_are_strictly_above_their_threshold():
    probs = np.zeros(16)
    probs[[3, 9]] = cli.ROW_THRESHOLD, np.nextafter(cli.ROW_THRESHOLD, 1.0)
    fields, rows = cli._coincidence_rows(CoincidenceTable(2, probs.reshape((2,) * 4)), None)
    assert rows == [{"k": 1, "m": 0, "k_prime": 0, "m_prime": 1, "probability": probs[9]}]


def test_classes_within_logic_tol_of_the_best_tie():
    decoding = decoding_table_from_law(reference_index_law(2))
    first, second = decoding.class_order[[0, 4]]  # one pair of class (0, 0), one of (0, 1)
    at = 0.5 - core.LOGIC_TOL
    for runner_up, tied in [(at, True), (np.nextafter(at, 0.0), False)]:
        probs = np.zeros(16)
        probs[[first, second]] = 0.5, runner_up
        result = classify_table(CoincidenceTable(2, probs.reshape((2,) * 4)), decoding)
        assert (result.bell, result.tie) == (BellIndex(0, 0), tied)


def test_unitary_deviation_is_strictly_below_its_tolerance():
    # [[2]] deviates from unitarity by exactly |2*2 - 1| = 3.
    assert core.is_unitary(np.array([[2.0]]), tol=3.0) is False
    assert core.is_unitary(np.array([[2.0]]), tol=np.nextafter(3.0, 4.0)) is True


# Two LOGIC_TOL sides that no real input reaches are tested with the bound moved
# to 0 in the module that reads it: a wrapped phase residual is a multiple of
# 2**-51 near 0 and LOGIC_TOL is not, and a pair coefficient is either about
# 1/d or rounding noise. Exact zeros reach a bound of 0.


def test_phase_residual_at_logic_tol_is_a_root_of_unity(monkeypatch):
    monkeypatch.setattr(decomposition, "LOGIC_TOL", 0.0)
    assert decomposition._phase_ints(np.array([1.0 + 0j]), 3).tolist() == [0]
    with pytest.raises(decomposition.PhaseNotRootOfUnityError):
        decomposition._phase_ints(np.array([np.exp(1e-3j)]), 3)


def test_support_is_strictly_above_logic_tol(monkeypatch):
    # The pairs with m' != m + j are exact zeros, so at d = 2 each table keeps 8 of 16.
    monkeypatch.setattr(decomposition, "LOGIC_TOL", 0.0)
    for table in decomposition._decompose_row.__wrapped__(2, 0, 1, 1):
        assert table.flat_support.size == 8
        assert np.all(table.coeffs != 0)


@pytest.mark.parametrize("module, name", [("cli", "REPORT_TOL"), ("classifier", "NORM_TOL")])
def test_side_of_inclusive_bound_is_unobservable(module, name):
    # These checks compare |x - c| with the bound, where c is 1 or 1/d >= 1/6
    # and x lies within the bound of c. Every double >= 2**-3 is a multiple of
    # 2**-55, and so is x - c, which is exact; the bound is not. So no input
    # meets the bound exactly, and `<=` and `<` decide alike.
    assert (getattr(MODULES[module], name) * 2**55) % 1 != 0
