"""Standing mutation gate: every listed mutant of the package must fail its module's tests.

Each mutant names a module ``src/hdbsm/<m>.py`` of the checkout, an exact text
that must occur in it exactly once, the text that replaces it, and the defect
that the change plants. For every mutant the gate copies ``src``, ``tests`` and
``pyproject.toml`` into a fresh temporary directory, applies the change there
and runs ``python -m pytest -x -q`` with a fixed ``--hypothesis-seed`` on the
mutated module's own test file ``tests/test_<m>.py`` alone. A mutant is killed
when a test of that file fails (pytest exit code 1), so each module's file
holds the cases of its own entries and bounds. The unmutated copy must pass
each of those files alone. Runs go two at a time.

The gate fails when a mutant survives, when a run ends any other way (a
collection error or a timeout), when the unmutated copy does not pass, or when
``stale`` finds an entry out of date: an old text that does not occur exactly
once, a change that does not compile, or a module with no test file. Tier-1
runs ``stale`` too (``tests/test_mutation_gate.py``), so a refactor of the
targeted code must update this list. A mutant leaves the list only with a CHANGES.md line saying
why, for example that the code it targets was deleted.

Usage, from any directory:

    python tests/mutation_gate.py

The last line printed is the gate's wall time next to the CI step's budget.

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
HYPOTHESIS_SEED = 0
TIMEOUT_S = 60  # each run is one test file, a few seconds; a hang fails well inside CI_BUDGET_S
CI_BUDGET_S = 300  # timeout-minutes: 5 of the mutation-gate step in .github/workflows/tests.yml
WORKERS = 2  # mutants tested at once, each in its own pytest process
PYTEST_ARGS = ("-x", "-q", f"--hypothesis-seed={HYPOTHESIS_SEED}")


class Mutant(NamedTuple):
    path: str
    old: str
    new: str
    reason: str


MUTANTS = (
    Mutant(
        "src/hdbsm/decomposition.py",
        "basis = decomp_basis(state.radices[0], convention).conj()",
        "basis = decomp_basis(state.radices[0], convention)",
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
        "if mass >= best - NORM_TOL",
        "classes NORM_TOL (1e-6) below the best one tie",
    ),
    Mutant(
        "src/hdbsm/cli.py",
        '"total_weight", abs(weight - 1.0), "<=", REPORT_TOL,',
        '"total_weight", abs(weight - 1.0), "<=", cl.NORM_TOL,',
        "total_weight reads NORM_TOL (1e-6) instead of REPORT_TOL (1e-9)",
    ),
    Mutant(
        "src/hdbsm/cli.py",
        "abs(total - expected_total)",
        "abs(total - 1.0)",
        "classify compares its total with 1, not with the noise-mixed squared norm",
    ),
    Mutant(
        "src/hdbsm/cli.py",
        '"<", optics.EQUIVALENCE_TOL,',
        '"<", 1e-3,',
        "pipeline_equivalence loosened from 1e-9 to 1e-3",
    ),
    Mutant(
        "src/hdbsm/cli.py",
        "max(abs(mag - 1 / d) for mag in magnitudes)",
        "min(abs(mag - 1 / d) for mag in magnitudes)",
        "decompose magnitudes_uniform reads the smallest deviation from 1/d, not the largest",
    ),
    Mutant(
        "src/hdbsm/classifier.py",
        "if abs(norm - 1.0) > NORM_TOL:",
        "if abs(norm - 1.0) > 1e-3:",
        "the norm check of states and state files loosened from 1e-6 to 1e-3",
    ),
    Mutant(
        "src/hdbsm/optics.py",
        "unitary - decomp_basis(d, convention).conj()",
        "unitary - decomp_basis(d, convention)",
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
        "js, flat = np.nonzero(np.abs(coeffs) > 1e-7)",
        "decomposition support threshold raised from LOGIC_TOL to 1e-7",
    ),
    Mutant(
        "src/hdbsm/states.py",
        "b = (convention.bell_sign * i) % d",
        "b = i % d",
        "the steering clock exponent ignores the Bell sign",
    ),
    Mutant(
        "src/hdbsm/states.py",
        "u[(n + j) % d, n] = np.exp(2j * np.pi * b * n / d)",
        "u[(n - j) % d, n] = np.exp(2j * np.pi * b * n / d)",
        "the steering unitary shifts by -j",
    ),
    Mutant(
        "src/hdbsm/states.py",
        "u[(n + j) % d, n] = np.exp(2j * np.pi * b * n / d)",
        "u[(n + j) % d, n] = np.exp(2j * np.pi * b * (n + j) / d)",
        "the steering unitary applies the shift before the clock, Z^b X^j: only a global phase",
    ),
    Mutant(
        "src/hdbsm/cli.py",
        '"seed": getattr(args, "seed", None),\n        "shots": getattr(args, "shots", None),',
        '"seed": getattr(args, "shots", None),\n        "shots": getattr(args, "seed", None),',
        "the report config swaps seed and shots",
    ),
    Mutant(
        "src/hdbsm/cli.py",
        '"selection": selection,',
        '"selection": "auto",',
        "the report config names every convention selection auto",
    ),
    Mutant(
        "src/hdbsm/cli.py",
        '"reference": REFERENCE_CONVENTION',
        '"reference": LITERAL_CONVENTION',
        "--convention reference selects the literal convention",
    ),
    Mutant(
        "src/hdbsm/cli.py",
        "if label is None and d == 2:",
        "if d == 2:",
        "--convention auto at d = 2 falls back to the literal default",
    ),
    Mutant(
        "src/hdbsm/cli.py",
        'return REFERENCE_CONVENTION, "auto"',
        'return LITERAL_CONVENTION, "auto"',
        "auto resolves to the literal convention",
    ),
    Mutant(
        "src/hdbsm/cli.py",
        '"reference_law", REFERENCE_CONVENTION in search.matching,',
        '"reference_law", True,',
        "reference_law passes without the reference convention",
    ),
    # Mutants recorded in CHANGES.md for earlier changes, retargeted to the current code.
    Mutant(
        "src/hdbsm/decomposition.py",
        "(basis @ stack.reshape(-1, d * d, d * d) @ basis.T)",
        "(basis @ stack.reshape(-1, d * d, d * d) @ basis)",
        "the pair product projects Alice's side on the transposed basis",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        "stack.reshape(-1, d * d, d * d)",
        "stack.reshape(d * d, -1, d * d).swapaxes(0, 1)",
        "the pair product mixes the rows of a stack's states; a stack of one is unchanged",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        "pair_product(stack, decomp_basis(d, convention).conj())",
        "pair_product(stack, decomp_basis(d, convention))",
        "the stacked row projection uses S instead of conj(S)",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        "psi[j, n, p, (n + j) % d, p] = np.multiply.outer(bell, aux)",
        "psi[j, n, p, (n - j) % d, p] = np.multiply.outer(bell, aux)",
        "the stacked Bell row shifts Alice's digit by -j",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        "BellIndex(i, j), flat[start:end], values[start:end])",
        "BellIndex(i, j), flat[start:end][::-1], values[start:end][::-1])",
        "row-built tables list their entries in descending flat order",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        "    d, i, j = check_dimension(d, i=i, j=j)\n    return _decompose_row(",
        "    d, i = check_dimension(d, i=i)\n    return _decompose_row(",
        "decompose accepts a negative j",
    ),
    Mutant(
        "src/hdbsm/states.py",
        "np.exp(convention.bell_sign * 2j * np.pi * i * n / d)",
        "np.exp(convention.bell_sign * 2j * np.pi * (i * n / d))",
        "Bell state phases rounded in another order",
    ),
    Mutant(
        "src/hdbsm/states.py",
        "phases = np.exp(decomp_sign * 2j * np.pi * digits[:, None] * digits / d) / np.sqrt(d)",
        "phases = np.exp(decomp_sign * 2j * np.pi * (digits[:, None] * digits / d)) / np.sqrt(d)",
        "decomposition basis phases rounded in another order (off in the last bit at d = 6)",
    ),
    Mutant(
        "src/hdbsm/classifier.py",
        "any_split = bool(split.any())",
        "any_split = False",
        "draws in split cells are never searched",
    ),
    Mutant(
        "src/hdbsm/classifier.py",
        'split = first != np.searchsorted(cdf, edges[1:], side="left")',
        'split = first != np.searchsorted(cdf, edges[:-1], side="left")',
        "a cell is tested for a split at its lower edge instead of its upper edge",
    ),
    Mutant(
        "src/hdbsm/classifier.py",
        "uniforms = (words >> 11) * 2.0**-53",
        "uniforms = (words >> 12) * 2.0**-52",
        "split-cell uniforms drop the lowest of their 53 bits",
    ),
    Mutant(
        "src/hdbsm/classifier.py",
        'order = np.argsort(classes, kind="stable")',
        "order = np.argsort(classes)",
        "class sums add their pairs in an unstable order",
    ),
    Mutant(
        "src/hdbsm/classifier.py",
        "classes = (t_inv * (kp - law.s * k)) % d * d",
        "classes = (t_inv * (kp + law.s * k)) % d * d",
        "the law inverse adds s*k instead of subtracting it",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        "holds = ((s * k + t * i) % d == kp) | ~present",
        "holds = ((s * i + t * k) % d == kp) | ~present",
        "the index-law grid swaps the roles of s and t",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        "s, t, k, i, kp = np.ix_(*[np.arange(d)] * 5)",
        "s, t, k, i, kp = np.ix_(np.arange(d - 1), *[np.arange(d)] * 4)",
        "the index-law grid never tries s = d - 1",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        "holds = ((u * a + v * b + w) % d == r) | ~present",
        "holds = ((u * a + v * b) % d == r) | ~present",
        "the closed phase form has no constant w",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        'order = np.argsort(bell * d**4 + flat, kind="stable")',
        "order = np.arange(flat.size)",
        "the law fits read hand-built entries unsorted",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        'order = np.argsort(bell * d**4 + flat, kind="stable")',
        'order = np.argsort(bell + d**4 + flat, kind="stable")',
        "the law fits rank an entry's pair index above its Bell index",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        'order = np.argsort(bell * d**4 + flat, kind="stable")',
        'order = np.argsort(bell * d**3 + flat, kind="stable")',
        "the law fits interleave the entries of neighbouring Bell indices",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        "bool(((m + j) % d == mp).all())",
        "bool(((m - j) % d == mp).all())",
        "the auxiliary law is tested as m' = m - j",
    ),
    Mutant(
        "src/hdbsm/cli.py",
        "sizes = set(np.bincount(classes, minlength=d * d).tolist())",
        "sizes = {d * d}",
        "verify takes every decoding class size as d*d",
    ),
    Mutant(
        "src/hdbsm/cli.py",
        "classes = decoding.classes[decoding.classes != cl.UNREACHABLE]",
        "classes = decoding.classes.reshape(-1)",
        "verify counts unreached pairs into the class sizes",
    ),
    Mutant(
        "src/hdbsm/cli.py",
        'set(decoding.classes[observed].tolist()), "==",',
        '{args.i * args.d + args.j}, "==",',
        "simulate never checks that every outcome decodes to the input",
    ),
    Mutant(
        "src/hdbsm/cli.py",
        'f"{result.record.shots} outcomes over {int(observed.sum())} pairs"',
        'f"{result.record.shots} outcomes over {observed.size} pairs"',
        "the outcome check counts every cell as an observed pair",
    ),
    # Each named bound loosened at its one definition, and each strict side flipped.
    Mutant(
        "src/hdbsm/core.py",
        "LOGIC_TOL = 1e-9",
        "LOGIC_TOL = 1e-7",
        "LOGIC_TOL loosened from 1e-9 to 1e-7",
    ),
    Mutant(
        "src/hdbsm/optics.py",
        "EQUIVALENCE_TOL = 1e-9",
        "EQUIVALENCE_TOL = 1e-3",
        "EQUIVALENCE_TOL loosened from 1e-9 to 1e-3",
    ),
    Mutant(
        "src/hdbsm/cli.py",
        "REPORT_TOL = 1e-9",
        "REPORT_TOL = 1e-7",
        "REPORT_TOL loosened from 1e-9 to 1e-7",
    ),
    Mutant(
        "src/hdbsm/classifier.py",
        "NORM_TOL = 1e-6",
        "NORM_TOL = 1e-3",
        "NORM_TOL loosened from 1e-6 to 1e-3",
    ),
    Mutant(
        "src/hdbsm/cli.py",
        "ROW_THRESHOLD = 1e-12",
        "ROW_THRESHOLD = 1e-10",
        "ROW_THRESHOLD raised from 1e-12 to 1e-10",
    ),
    Mutant(
        "src/hdbsm/cli.py",
        "shown = probs > ROW_THRESHOLD",
        "shown = probs >= ROW_THRESHOLD",
        "a probability exactly at ROW_THRESHOLD gets a row",
    ),
    Mutant(
        "src/hdbsm/core.py",
        'trim="-"',
        'trim="k"',
        "reports print a bound as 1.e-9",
    ),
    # Each side of report.check, decided as another comparison.
    Mutant(
        "src/hdbsm/report.py",
        '"<=": lambda o, b: o <= b',
        '"<=": lambda o, b: o < b',
        "<= decided as <: an observed value at its bound fails",
    ),
    Mutant(
        "src/hdbsm/report.py",
        '"<": lambda o, b: o < b',
        '"<": lambda o, b: o <= b',
        "< decided as <=: a gap exactly at EQUIVALENCE_TOL counts as equivalent",
    ),
    Mutant(
        "src/hdbsm/report.py",
        '"==": lambda o, b: o == b',
        '"==": lambda o, b: o >= b',
        "== decided as >=: a superset of the input's class passes outcomes_decode_to_input",
    ),
    # Survivors of a mechanical sweep that tests now kill.
    Mutant(
        "src/hdbsm/cli.py",
        "check_dimension(d, i=i, j=j)",
        "check_dimension(d, i=i)",
        "the CLI reads j without check_dimension: decompose and simulate accept j = d "
        "and end in a traceback",
    ),
    Mutant(
        "src/hdbsm/classifier.py",
        "tie=len(tied) > 1,",
        "tie=len(tied) > 2,",
        "an exact tie of two classes is not reported",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        "if len(fits) > 1:",
        "if len(fits) > 2:",
        "exactly two affine fits are not reported as ambiguous",
    ),
    Mutant(
        "src/hdbsm/audit.py",
        "return not (self.mismatches or self.duplicates or self.missing)",
        "return not (self.mismatches and self.duplicates and self.missing)",
        "a row with one kind of defect counts as clean",
    ),
    Mutant(
        "src/hdbsm/audit.py",
        "repeated_bob=tuple(sorted(b for b, c in bob_counts.items() if c > 1)),",
        "repeated_bob=tuple(sorted(b for b, c in bob_counts.items() if c > 2)),",
        "a Bob index printed exactly twice is not reported",
    ),
    Mutant(
        "src/hdbsm/audit.py",
        "enumerate(text.splitlines(), start=1)",
        "enumerate(text.splitlines(), start=2)",
        "a transcription error names the line after the bad one",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        "if stack.shape[1:] != (d,) * 4:",
        "if len(stack.shape[1:]) != 4:",
        "the pair product accepts states of four factors of unequal radix",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        "d = math.isqrt(len(basis))",
        "d = stack.shape[1]",
        "the pair product reads d from the state, not from the basis it multiplies by",
    ),
    Mutant(
        "src/hdbsm/classifier.py",
        "            if classes[flat] != UNREACHABLE:\n"
        "                pair = tuple(int(n) for n in np.unravel_index(flat, (d,) * 4))\n"
        "                claimed = BellIndex(*divmod(int(classes[flat]), d))\n"
        "                raise CollisionError(\n"
        '                    f"outcome pair {pair} claimed by both {claimed} and {bell}"\n'
        "                )\n",
        "",
        "the decoding table lets a later Bell index overwrite a claimed pair",
    ),
    Mutant(
        "src/hdbsm/classifier.py",
        "classes[flat] = bell.i * d + bell.j",
        "classes[flat] = bell.j * d + bell.i",
        "the decoding table writes class j*d + i instead of i*d + j",
    ),
    Mutant(
        "src/hdbsm/cli.py",
        "(BellIndex(args.i, args.j), False),",
        "(classification.bell, False),",
        "simulate passes classification_correct for a wrong argmax without a tie",
    ),
    Mutant(
        "src/hdbsm/cli.py",
        "choices=range(2, MAX_DIMENSION + 1),",
        "choices=range(2, MAX_DIMENSION + 2),",
        "the parser admits -d 7, which then raises a ValueError traceback",
    ),
    Mutant(
        "src/hdbsm/states.py",
        "if len(label) != 2 or label[0] not in signs or label[1] not in signs:",
        "if len(label) != 2 and label[0] not in signs or label[1] not in signs:",
        "from_label reads '+++' and 'x-' as conventions",
    ),
    Mutant(
        "src/hdbsm/optics.py",
        'shots = as_index(shots, "shots", minimum=0)',
        'shots = as_index(shots, "shots", minimum=-1)',
        "run_experiment returns a theory-only result for shots = -1",
    ),
    Mutant(
        "src/hdbsm/core.py",
        'radices = tuple(as_index(r, "every radix") for r in self.radices)',
        "radices = tuple(int(r) for r in self.radices)",
        "State truncates a radix of 3.5 to 3",
    ),
    Mutant(
        "src/hdbsm/cli.py",
        'f"s = t = {d - 1} under convention(s) "',
        'f"s = t = {d - 1} under convention(s): "',
        "one character of the verify report moves; only the digest file pins it",
    ),
    # The argument domain, owned by core.check_dimension.
    Mutant(
        "src/hdbsm/core.py",
        "        index = as_index(value, name)\n",
        "        index = value\n",
        "an index of 1.5 passes the domain check",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        "    d, i, j = check_dimension(d, i=i, j=j)\n    return _decompose_row(",
        "    _, i, j = check_dimension(d, i=i, j=j)\n    return _decompose_row(",
        "decompose(np.uint64(3), ...) builds its row from the raw d, which ends in an IndexError",
    ),
    Mutant(
        "src/hdbsm/optics.py",
        "    return _bsa_layout(check_dimension(d), convention)\n\n\n@lru_cache(maxsize=None)\n",
        "    check_dimension(d)\n    return _bsa_layout(d, convention)\n\n\n"
        "@lru_cache(maxsize=None, typed=True)\n",
        "bsa_layout(np.int64(3), c) caches a second analyser layout",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        "    return _hyperentangled_state(*check_dimension(d, i=i, j=j), convention)\n\n\n"
        "@lru_cache(maxsize=None)\n",
        "    check_dimension(d, i=i, j=j)\n    return _hyperentangled_state(d, i, j, convention)"
        "\n\n\n@lru_cache(maxsize=None, typed=True)\n",
        "hyperentangled_state(np.int64(3), 1, 1, c) caches a second source state",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        "_hyperentangled_state(*check_dimension(d, i=i, j=j), convention)",
        "_hyperentangled_state(d, i, j, convention)",
        "hyperentangled_state looks its cache up before the check: 3.0 finds the source of 3",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        "    d = check_dimension(d)\n    return {\n",
        "    return {\n",
        "decompose_all(0, c) returns no tables instead of raising",
    ),
    Mutant(
        "src/hdbsm/optics.py",
        "return _bsa_layout(check_dimension(d), convention)",
        "return _bsa_layout(d, convention)",
        "bsa_layout looks its cache up before the check: 3.0 finds the layout of 3",
    ),
    Mutant(
        "src/hdbsm/states.py",
        "return _decomp_basis(check_dimension(d), convention.decomp_sign)",
        "return _decomp_basis(d, convention.decomp_sign)",
        "decomp_basis looks its cache up before the d check: 3.0 finds the basis of 3",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        "    d = check_dimension(d)\n    return IndexLaw(",
        "    return IndexLaw(",
        "reference_index_law('3') raises TypeError from d - 1 before IndexLaw checks d",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        "_hyperentangled_state(*check_dimension(d, i=i, j=j), convention)",
        "_hyperentangled_state(*check_dimension(d, i=i, j=j)[:2], j, convention)",
        "hyperentangled_state(3, 1, True, c) builds with True as a mask, not as j = 1",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        "    d, i, j = check_dimension(d, i=i, j=j)\n    return _decompose_row(",
        "    d, _, j = check_dimension(d, i=i, j=j)\n    return _decompose_row(",
        "decompose(3, True, 0, c) caches a second copy of row 1",
    ),
    Mutant(
        "src/hdbsm/optics.py",
        "    d, i, j = check_dimension(d, i=i, j=j)\n    state = prepare_bell(",
        "    d, _, _ = check_dimension(d, i=i, j=j)\n    state = prepare_bell(",
        "run_experiment stores a numpy Bell index as given",
    ),
    Mutant(
        "src/hdbsm/classifier.py",
        '    seed = as_index(seed, "seed", minimum=0)\n',
        "",
        "sample_outcomes(table, shots, None) draws an unseeded, irreproducible stream",
    ),
    Mutant(
        "src/hdbsm/classifier.py",
        'probs = np.array(self.probs, dtype=np.float64, order="C")',
        'probs = np.asarray(self.probs, dtype=np.float64, order="C")',
        "CoincidenceTable keeps a float64 caller array and makes it read-only",
    ),
    # The strict sides of LOGIC_TOL, each flipped.
    Mutant(
        "src/hdbsm/classifier.py",
        "if mass >= best - LOGIC_TOL",
        "if mass > best - LOGIC_TOL",
        "a class exactly LOGIC_TOL below the best one does not tie",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        "bad = np.flatnonzero(np.abs(residual) > LOGIC_TOL)",
        "bad = np.flatnonzero(np.abs(residual) >= LOGIC_TOL)",
        "a phase residual exactly at LOGIC_TOL is not a root of unity",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        "js, flat = np.nonzero(np.abs(coeffs) > LOGIC_TOL)",
        "js, flat = np.nonzero(np.abs(coeffs) >= LOGIC_TOL)",
        "a pair coefficient exactly at LOGIC_TOL stays in the support",
    ),
    # The value types store the checked d; two entries with their own range read d as an integer.
    Mutant(
        "src/hdbsm/classifier.py",
        '        d = check_dimension(self.d)\n        object.__setattr__(self, "d", d)\n',
        "        d = self.d\n",
        "DecodingTable stores its d unchecked",
    ),
    Mutant(
        "src/hdbsm/classifier.py",
        '        object.__setattr__(self, "d", check_dimension(self.d))\n        dtype =',
        "        dtype =",
        "CoincidenceTable stores its d unchecked",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        '        object.__setattr__(self, "d", check_dimension(self.d))\n        flat =',
        "        flat =",
        "DecompositionTable stores its d unchecked",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        '        object.__setattr__(self, "d", d)\n        object.__setattr__(self, "s", s)\n',
        '        object.__setattr__(self, "s", s)\n',
        "IndexLaw stores its d as given",
    ),
    Mutant(
        "src/hdbsm/optics.py",
        "    def __post_init__(self) -> None:\n"
        '        object.__setattr__(self, "d", check_dimension(self.d))\n',
        "",
        "BsaLayout stores its d unchecked",
    ),
    # The other fields of the value types: signs, law coefficients and the class array.
    Mutant(
        "src/hdbsm/states.py",
        '        object.__setattr__(self, "bell_sign", bell)\n',
        "",
        "PhaseConvention(True, 1) keeps a bool sign",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        "d, s, t = check_dimension(self.d, s=self.s, t=self.t)",
        "(d, t), s = check_dimension(self.d, t=self.t), self.s",
        "IndexLaw(3, 3, 2, True) stores s = d",
    ),
    Mutant(
        "src/hdbsm/classifier.py",
        'self.classes.dtype.kind in "iu"',
        'self.classes.dtype.kind in "iuf"',
        "DecodingTable accepts float classes",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        'flat.dtype.kind not in "iu"',
        'flat.dtype.kind not in "iuf"',
        "DecompositionTable accepts a float flat_support, which only the fits refuse",
    ),
    Mutant(
        "src/hdbsm/classifier.py",
        'if dtype.kind not in "biuf":',
        'if dtype.kind not in "biufc":',
        "CoincidenceTable drops the imaginary parts of a complex array",
    ),
    Mutant(
        "src/hdbsm/core.py",
        '    d = as_index(d, "dimension", minimum=2)\n    sign =',
        '    if d < 2:\n        raise ValueError(f"dimension must be >= 2, got {d}")\n    sign =',
        "fourier_matrix compares d without reading it as an integer",
    ),
    Mutant(
        "src/hdbsm/core.py",
        '    factor = as_index(factor, "factor")\n',
        "",
        "apply_local_unitary indexes the radices with a factor of 1.0, a TypeError",
    ),
    Mutant(
        "src/hdbsm/core.py",
        'order = tuple(as_index(f, "every factor of order") for f in order)',
        "order = tuple(order)",
        "permute_factors compares an order entry of 3.0 as if it were 3",
    ),
    Mutant(
        "src/hdbsm/core.py",
        '    sign = as_index(sign, "sign")\n',
        "",
        "fourier_matrix accepts a sign of 1.0",
    ),
    Mutant(
        "src/hdbsm/states.py",
        "        if bell not in (1, -1) or decomp not in (1, -1):\n"
        '            raise ValueError("phase convention signs must be +1 or -1")\n',
        "",
        "PhaseConvention(1, 0) builds, and decomp_basis caches a non-unitary basis for it",
    ),
    Mutant(
        "src/hdbsm/classifier.py",
        "    if not np.isfinite(total):\n"
        '        raise ValueError("the table\'s total probability overflows to inf")\n',
        "",
        "a finite table whose total overflows sends every draw to its last outcome",
    ),
    Mutant(
        "src/hdbsm/audit.py",
        '    d = as_index(d, "dimension")\n    if d not in',
        "    if d not in",
        "load_reference_table finds the d = 3 listing for 3.0",
    ),
    # Every structural error is an InvariantError, the one type main catches, and a law
    # whose t has no inverse mod d fails verify's decoding check alone.
    Mutant(
        "src/hdbsm/decomposition.py",
        "class NoAffineLawError(InvariantError):",
        "class NoAffineLawError(RuntimeError):",
        "NoAffineLawError derives from RuntimeError, not InvariantError",
    ),
    Mutant(
        "src/hdbsm/classifier.py",
        "class CollisionError(InvariantError):",
        "class CollisionError(RuntimeError):",
        "CollisionError derives from RuntimeError, not InvariantError",
    ),
    Mutant(
        "src/hdbsm/cli.py",
        "except InvariantError as exc:",
        "except cl.CollisionError as exc:",
        "main catches CollisionError only",
    ),
    Mutant(
        "src/hdbsm/cli.py",
        "except (cl.CollisionError, ValueError) as exc:",
        "except cl.CollisionError as exc:",
        "verify ends in a traceback when the fitted t has no inverse mod d",
    ),
    # Error messages that only an exact-message test reads.
    Mutant(
        "src/hdbsm/decomposition.py",
        'f"no sign convention yields s = t = {d - 1} at d={d}"',
        'f"no sign convention yields s = t = {d + 1} at d={d}"',
        "NoMatchingConventionError names s = t = d + 1",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        'f"no sign convention yields s = t = {d - 1} at d={d}"',
        'f"no sign convention yields s = t = {d - 2} at d={d}"',
        "NoMatchingConventionError names s = t = d - 2",
    ),
    Mutant(
        "src/hdbsm/decomposition.py",
        'raise ValueError(f"expected shape {(d,) * 4}, got {stack.shape[1:]}")',
        'raise ValueError(f"expected shape {(d,) * 5}, got {stack.shape[1:]}")',
        "the pair product's shape error names a five-factor shape",
    ),
)


def stale() -> list[str]:
    """One line per problem of a mutant that is out of date.

    Its old text does not occur exactly once, its change makes the module fail
    to compile, or its module has no test file to run it against.
    """
    out = []
    for mutant in MUTANTS:
        text = (ROOT / mutant.path).read_text(encoding="utf-8")
        count = text.count(mutant.old)
        if count != 1:
            out.append(f"{mutant.path}: old text occurs {count} times: {mutant.old!r}")
        try:
            compile(text.replace(mutant.old, mutant.new), mutant.path, "exec")
        except SyntaxError as exc:
            out.append(f"{mutant.path}: does not compile ({exc.msg}): {mutant.reason}")
        if not (ROOT / own_tests(mutant)).is_file():
            out.append(f"{mutant.path}: no {own_tests(mutant)} runs: {mutant.reason}")
    return out


def own_tests(mutant: Mutant) -> str:
    """The mutated module's test file, ``tests/test_<m>.py``."""
    return f"tests/test_{Path(mutant.path).stem}.py"


def run_tests(mutant: Mutant | None, path: str) -> tuple[int | None, str]:
    """Exit code of pytest on the test file ``path`` in a fresh copy, and its output.

    ``mutant``, when given, is applied to the copy first. The exit code is
    None when the run times out.
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
        argv = [sys.executable, "-m", "pytest", *PYTEST_ARGS, path]
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


def timed(run, *args) -> tuple[int | None, str, float]:
    """``run(*args)``'s exit code and output, and its wall time in seconds."""
    began = time.perf_counter()
    return (*run(*args), time.perf_counter() - began)


def unmutated_passes(pool: ThreadPoolExecutor, paths: list[str]) -> bool:
    """Whether the unmutated copy passes each of the test files ``paths`` alone.

    Then a failure in a mutant's run is the mutant's. Prints one line per run,
    and the output of each run that fails.
    """
    passed = True
    for path, (code, output, seconds) in zip(
        paths, pool.map(lambda path: timed(run_tests, None, path), paths)
    ):
        print(f"unmutated copy, {path}: pytest exit {code} ({seconds:.1f} s)")
        if code != 0:
            print(output)
            passed = False
    return passed


def main() -> int:
    problems = stale()
    for line in problems:
        print(f"stale: {line}")
    if problems:
        return 1

    failures = 0
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        if not unmutated_passes(pool, sorted(set(map(own_tests, MUTANTS)))):
            return 1
        for mutant, (code, output, seconds) in zip(
            MUTANTS, pool.map(lambda m: timed(run_tests, m, own_tests(m)), MUTANTS)
        ):
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"NO VERDICT (exit {code})")
            print(f"{verdict:<8} {seconds:5.1f} s  {mutant.path}: {mutant.reason}")
            print(f"{'':16}{first_failure(output)}")
            failures += code != 1
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0

if __name__ == "__main__":
    began = time.perf_counter()
    code = main()
    print(f"gate wall time {time.perf_counter() - began:.1f} s (CI budget {CI_BUDGET_S} s)")
    sys.exit(code)
