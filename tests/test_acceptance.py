"""Acceptance gate: one test per criterion, each printing a pass/fail line.

A criterion with a runtime budget times its whole body, in-process, with
whatever the earlier tests left cached. Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from hdbsm.audit import audit_reference_table, load_reference_table
from hdbsm.classifier import (
    build_decoding_table,
    classify_table,
    coincidence_probabilities,
    mix_with_white_noise,
    sample_outcomes,
)
from hdbsm.core import fourier_matrix
from hdbsm.decomposition import (
    decompose_all,
    find_convention,
    fit_index_law,
    hyperentangled_state,
    reference_index_law,
)
from hdbsm.optics import bsa_layout, pipeline_probabilities, prepare_bell
from hdbsm.states import (
    BellIndex,
    LITERAL_CONVENTION,
    REFERENCE_CONVENTION,
    aux_state,
    bell_state,
    decomp_state,
)

import oracles
from literal_tables import AUX_D3_LITERAL, BELL_D3_LITERAL, DECOMP_D3_LITERAL

S3 = np.sqrt(3)
W3 = np.exp(2j * np.pi / 3)


@contextmanager
def criterion(number: int, description: str, budget: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL  {description}")
        raise
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed >= budget:
        print(f"ACCEPTANCE {number}: FAIL  {description} "
              f"(runtime {elapsed:.2f}s over the {budget:.0f}s budget)")
        raise AssertionError(f"runtime {elapsed:.2f}s exceeds budget {budget}s")
    timing = f" [{elapsed:.2f}s < {budget:.0f}s]" if budget is not None else ""
    print(f"ACCEPTANCE {number}: PASS{timing}  {description}")


def assert_literal_state(state, table: dict) -> None:
    nonzero = oracles.nonzero(state, tol=1e-12)
    assert set(nonzero) == set(table)
    for label, amp in table.items():
        assert abs(nonzero[label] - amp / S3) < 1e-12


def test_criterion_1_literal_state_conformance():
    with criterion(1, "literal three-dimensional state families reproduced "
                      "amplitude for amplitude (1e-12)", budget=1.0):
        for (i, j), table in BELL_D3_LITERAL.items():
            assert_literal_state(bell_state(3, i, j, LITERAL_CONVENTION), table)
        assert_literal_state(aux_state(3), AUX_D3_LITERAL)
        for (k, m), table in DECOMP_D3_LITERAL.items():
            assert_literal_state(decomp_state(3, k, m, LITERAL_CONVENTION), table)


def test_criterion_2_decomposition_structure():
    with criterion(2, "d in 2..5: every expansion has d^2 coefficients of "
                      "magnitude 1/d, unit weight, m' = (m+j) mod d", budget=10.0):
        for d in (2, 3, 4, 5):
            for convention in (LITERAL_CONVENTION, REFERENCE_CONVENTION):
                tables = decompose_all(d, convention)
                assert len(tables) == d * d
                for bell, table in tables.items():
                    entries = oracles.table_entries(table)
                    assert len(entries) == d * d
                    assert abs(sum(abs(c) ** 2 for c in table.coeffs.tolist()) - 1.0) <= 1e-9
                    for (k, m, kp, mp), coeff in entries.items():
                        assert abs(abs(coeff) - 1 / d) <= 1e-9
                        assert mp == (m + bell.j) % d


def test_criterion_3_law_audit():
    with criterion(3, "index laws: (1,1) at d=2; s=t=d-1 reachable at d in 3..5; "
                      "literal d=3 gives (2,1) with the reference-table "
                      "mismatches and the duplicated print enumerated", budget=10.0):
        law_d2 = fit_index_law(decompose_all(2, LITERAL_CONVENTION))
        assert (law_d2.s, law_d2.t) == (1, 1) and law_d2.m_law_holds

        for d in (3, 4, 5):
            search = find_convention(d)
            assert len(search.matching) >= 1
            assert search.laws[search.preferred] == reference_index_law(d)

        literal_law = fit_index_law(decompose_all(3, LITERAL_CONVENTION))
        assert (literal_law.s, literal_law.t) == (2, 1)

        audit = audit_reference_table(3, LITERAL_CONVENTION)
        assert audit.total_mismatches > 0
        mismatched_rows = {tuple(r.bell) for r in audit.rows if r.mismatches}
        assert mismatched_rows == {(i, j) for i in (1, 2) for j in (0, 1, 2)} | {(0, 1), (2, 2)}
        duplicates = [(r.bell, t) for r in audit.rows for t in r.duplicates]
        assert (BellIndex(0, 1), (2, 1, 0, 0)) in duplicates


def test_criterion_4_d4_internal_consistency():
    with criterion(4, "four-dimensional reference listing matches the "
                      "s=t=3 law tuple for tuple, 16/16", budget=1.0):
        convention = find_convention(4).preferred
        audit = audit_reference_table(4, convention)
        assert audit.total_matches == 16
        assert audit.total_mismatches == 0
        law = reference_index_law(4)
        printed = load_reference_table(4)[BellIndex(2, 3)]
        assert len(printed) == 16
        for (k, m, kp, mp) in printed:
            assert kp == (law.s * k + law.t * 2) % 4 and mp == (m + 3) % 4


def test_criterion_5_discrimination():
    with criterion(5, "d in 2..5: decoding partitions all d^4 pairs into d^2 "
                      "collision-free classes and every Bell input classifies "
                      "with confidence >= 1 - 1e-9", budget=10.0):
        for d in (2, 3, 4, 5):
            convention = LITERAL_CONVENTION if d == 2 else find_convention(d).preferred
            decoding = build_decoding_table(d, convention)  # raises on collision
            bell_i, bell_j = oracles.bell_arrays(decoding)
            class_sizes = {
                int(np.count_nonzero((bell_i == i) & (bell_j == j)))
                for i in range(d)
                for j in range(d)
            }
            assert class_sizes == {d * d}
            assert bell_i.size == bell_j.size == d**4
            for i in range(d):
                for j in range(d):
                    state = hyperentangled_state(d, i, j, convention)
                    result = classify_table(coincidence_probabilities(state, convention), decoding)
                    assert result.bell == BellIndex(i, j)
                    assert result.confidence >= 1 - 1e-9


def test_criterion_6_optics_equivalence():
    with criterion(6, "optics pipeline equals abstract coincidences within 1e-9 "
                      "(9 inputs at d=3, 16 at d=4); analyser matrix identities "
                      "exact within 1e-12", budget=5.0):
        for d in (3, 4):
            convention = find_convention(d).preferred
            layout = bsa_layout(d, convention)
            for i in range(d):
                for j in range(d):
                    state = prepare_bell(d, i, j, convention)
                    optical = pipeline_probabilities(state, layout)
                    abstract = coincidence_probabilities(state, convention)
                    assert np.max(np.abs(optical.probs - abstract.probs)) < 1e-9

        transform = fourier_matrix(3, -1)
        for k in range(3):
            ramp = np.array([1, W3**k, W3 ** (2 * k)]) / S3
            np.testing.assert_allclose(transform @ ramp, np.eye(3)[k], atol=1e-12)


def test_criterion_7_sampling():
    with criterion(7, "90000 shots of the d=3 origin state: in-class counts "
                      "within 5 sigma of 10000, out-of-class zero, rerun "
                      "identical", budget=5.0):
        convention = REFERENCE_CONVENTION
        shots, seed = 90_000, 20240
        table = coincidence_probabilities(
            hyperentangled_state(3, 0, 0, convention), convention
        )
        record = sample_outcomes(table, shots=shots, seed=seed)
        decoding = build_decoding_table(3, convention)

        p = 1 / 9
        sigma = np.sqrt(shots * p * (1 - p))
        bell_i, bell_j = oracles.bell_arrays(decoding)
        in_class = (bell_i == 0) & (bell_j == 0)
        assert np.count_nonzero(in_class) == 9
        assert np.all(np.abs(record.counts[in_class] - shots * p) < 5 * sigma)
        assert not record.counts[~in_class].any()

        rerun = sample_outcomes(table, shots=shots, seed=seed)
        assert record.counts.tobytes() == rerun.counts.tobytes()


def test_criterion_8_noise_robustness():
    with criterion(8, "white noise p in {0.1, 0.5, 0.9}: argmax unchanged for "
                      "every d=3 Bell input, confidence p + (1-p)/9 (1e-9)"):
        convention = REFERENCE_CONVENTION
        decoding = build_decoding_table(3, convention)
        for p in (0.1, 0.5, 0.9):
            for i in range(3):
                for j in range(3):
                    clean = coincidence_probabilities(
                        hyperentangled_state(3, i, j, convention), convention
                    )
                    noisy = mix_with_white_noise(clean, noise=1 - p)
                    result = classify_table(noisy, decoding)
                    assert result.bell == BellIndex(i, j)
                    assert abs(result.confidence - (p + (1 - p) / 9)) <= 1e-9


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
