"""Standing mutation gate: every listed mutant of the package must fail tier-1.

Each mutant names a file of the checkout, an exact text that must occur in it
exactly once, the text that replaces it, and the defect that the change plants.
For every mutant the gate copies ``src``, ``tests`` and ``pyproject.toml`` into
a fresh temporary directory, applies the change there and runs
``python -m pytest -x -q`` on the copy with a fixed ``--hypothesis-seed``. A
mutant is killed when a test fails (pytest exit code 1).

The gate fails when a mutant survives, when a run ends any other way (a
collection error or a timeout), when an old text does not occur exactly once,
or when the unmutated copy does not pass. A refactor of the targeted code must
therefore update this list. A mutant leaves the list only with a CHANGES.md
line saying why, for example that the code it targets was deleted.

Usage, from any directory:

    python tests/mutation_gate.py

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
HYPOTHESIS_SEED = 0
TIMEOUT_S = 300
PYTEST_ARGS = ("-x", "-q", f"--hypothesis-seed={HYPOTHESIS_SEED}")


class Mutant(NamedTuple):
    path: str
    old: str
    new: str
    reason: str


MUTANTS = (
    Mutant(
        "src/hdbsm/decomposition.py",
        "rows = decomp_basis(d, convention.decomp_sign).conj()",
        "rows = decomp_basis(d, convention.decomp_sign)",
        "pair_coefficients projects on S instead of conj(S)",
    ),
    Mutant(
        "src/hdbsm/classifier.py",
        'np.searchsorted(cdf, uniforms, side="right")',
        'np.searchsorted(cdf, uniforms, side="left")',
        "split-cell draws land on the outcome below a CDF step",
    ),
    Mutant(
        "src/hdbsm/classifier.py",
        "                _search_sorted(pending[:filled], cdf, hits)\n"
        "                filled = 0\n",
        "                _search_sorted(pending[:filled], cdf, hits)\n",
        "a mid-call flush leaves its words in the split-cell buffer",
    ),
    Mutant(
        "src/hdbsm/classifier.py",
        "    _search_sorted(pending[:filled], cdf, hits)\n    np.add.at(",
        "    np.add.at(",
        "split-cell words still buffered after the last chunk are never counted",
    ),
    Mutant(
        "src/hdbsm/states.py",
        "rows[k, m, q, (q - m) % d] = phases[k, q]",
        "rows[k, m, q, (q + m) % d] = phases[k, q]",
        "decomposition states shift the auxiliary digit the wrong way",
    ),
    Mutant(
        "src/hdbsm/classifier.py",
        "if mass >= best - LOGIC_TOL",
        "if mass >= best - 1e-6",
        "classes 1e-6 below the best one tie",
    ),
    Mutant(
        "src/hdbsm/cli.py",
        "abs(table.total() - expected_total) <= 1e-9,",
        "abs(table.total() - expected_total) <= 1e-6,",
        "classify probabilities_total loosened from 1e-9 to 1e-6",
    ),
    Mutant(
        "src/hdbsm/cli.py",
        "abs(result.probabilities.total() - 1.0) <= 1e-9,",
        "abs(result.probabilities.total() - 1.0) <= 1e-3,",
        "simulate probabilities_total loosened from 1e-9 to 1e-3",
    ),
    Mutant(
        "src/hdbsm/optics.py",
        "return self.equivalence_gap < 1e-9",
        "return self.equivalence_gap < 1e-3",
        "ExperimentResult.equivalent loosened from 1e-9 to 1e-3",
    ),
    Mutant(
        "src/hdbsm/cli.py",
        "all(abs(mag - 1 / d) <= 1e-9 for mag in magnitudes)",
        "all(abs(mag - 1 / d) <= 1e-2 for mag in magnitudes)",
        "decompose magnitudes_uniform loosened from 1e-9 to 1e-2",
    ),
    Mutant(
        "src/hdbsm/cli.py",
        "if abs(norm - 1.0) > 1e-6:",
        "if abs(norm - 1.0) > 1e-3:",
        "state-file norm check loosened from 1e-6 to 1e-3",
    ),
    Mutant(
        "src/hdbsm/optics.py",
        "unitary - decomp_basis(d, convention.decomp_sign).conj()",
        "unitary - decomp_basis(d, convention.decomp_sign)",
        "the analyser's operator gap is taken against S instead of conj(S)",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        "        if (np.diff(np.sort(flat)) == 0).any():\n"
        '            raise ValueError(f"repeated pair index in {flat.tolist()}")\n',
        "",
        "a hand-built decomposition table may repeat a pair index",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        "js, flat = np.nonzero(np.abs(coeffs) > LOGIC_TOL)",
        "js, flat = np.nonzero(np.abs(coeffs) > 1e-6)",
        "decomposition support threshold raised from LOGIC_TOL to 1e-6",
    ),
)


def stale() -> list[str]:
    """One line per mutant whose old text does not occur exactly once."""
    out = []
    for mutant in MUTANTS:
        count = (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old)
        if count != 1:
            out.append(f"{mutant.path}: old text occurs {count} times: {mutant.old!r}")
    return out


def run_tests(mutant: Mutant | None) -> tuple[int | None, str]:
    """Exit code of tier-1 on a fresh copy with ``mutant`` applied, and pytest's output.

    The exit code is None when the run times out.
    """
    with tempfile.TemporaryDirectory(prefix="hdbsm-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
                shutil.copytree(source, copy / name, ignore=ignore)
            else:
                shutil.copy2(source, copy / name)
        if mutant is not None:
            target = copy / mutant.path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        argv = [sys.executable, "-m", "pytest", *PYTEST_ARGS]
        try:
            done = subprocess.run(
                argv, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return None, f"timed out after {TIMEOUT_S} s"
        return done.returncode, done.stdout + done.stderr


def first_failure(output: str) -> str:
    """pytest's first FAILED or ERROR line, else its last line."""
    lines = output.strip().splitlines() or [""]
    return next((ln for ln in lines if ln.startswith(("FAILED ", "ERROR "))), lines[-1])


def main() -> int:
    problems = stale()
    for line in problems:
        print(f"stale: {line}")
    if problems:
        return 1
    began = time.perf_counter()
    code, output = run_tests(None)
    print(f"unmutated copy: pytest exit {code} ({time.perf_counter() - began:.1f} s)")
    if code != 0:
        print(output)
        return 1
    failures = 0
    for mutant in MUTANTS:
        began = time.perf_counter()
        code, output = run_tests(mutant)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"NO VERDICT (exit {code})")
        seconds = time.perf_counter() - began
        print(f"{verdict:<8} {seconds:5.1f} s  {mutant.path}: {mutant.reason}")
        print(f"{'':16}{first_failure(output)}")
        failures += code != 1
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
