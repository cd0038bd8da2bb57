import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdbsm import decomposition, optics
from hdbsm.classifier import build_decoding_table, classify_table, coincidence_probabilities
from hdbsm.core import State, fourier_matrix
from hdbsm.decomposition import decompose, hyperentangled_state
from hdbsm.optics import (
    EQUIVALENCE_TOL,
    BsaLayout,
    bsa_layout,
    pipeline_probabilities,
    prepare_bell,
    run_experiment,
)
from hdbsm.states import (
    ALL_CONVENTIONS,
    BellIndex,
    LITERAL_CONVENTION,
    PhaseConvention,
    REFERENCE_CONVENTION,
    decomp_basis,
)

import oracles

BOTH_MAIN = [LITERAL_CONVENTION, REFERENCE_CONVENTION]


# The bound that optics owns, first in the file so that pytest -x reaches it early.


def test_documented_value():
    assert EQUIVALENCE_TOL == 1e-9


class TestPrepareSource:
    """The source is the hyperentangled state (0, 0)."""

    def test_d3_amplitudes(self):
        state = hyperentangled_state(3, 0, 0, REFERENCE_CONVENTION)
        nonzero = oracles.nonzero(state, tol=1e-12)
        assert len(nonzero) == 9
        for (bs, ba, asys, aa), amp in nonzero.items():
            assert bs == asys and ba == aa  # perfectly correlated in both DOFs
            assert abs(amp - 1 / 3) < 1e-12

    def test_d2_amplitudes(self):
        state = hyperentangled_state(2, 0, 0, LITERAL_CONVENTION)
        nonzero = oracles.nonzero(state, tol=1e-12)
        assert len(nonzero) == 4
        assert all(abs(a - 1 / 2) < 1e-12 for a in nonzero.values())

    @pytest.mark.parametrize("d", [1, 7])
    def test_rejects_unsupported_dimension(self, d):
        with pytest.raises(ValueError, match=r"supported range \(2\.\.6\)"):
            hyperentangled_state(d, 0, 0, REFERENCE_CONVENTION)

    def test_classifies_as_origin(self):
        for d in (2, 3, 4):
            source = hyperentangled_state(d, 0, 0, REFERENCE_CONVENTION)
            table = coincidence_probabilities(source, REFERENCE_CONVENTION)
            result = classify_table(table, build_decoding_table(d, REFERENCE_CONVENTION))
            assert result.bell == BellIndex(0, 0)
            assert result.confidence >= 1 - 1e-9


class TestPrepareBell:
    def test_origin_is_source(self):
        conv = REFERENCE_CONVENTION
        source = hyperentangled_state(3, 0, 0, conv)
        np.testing.assert_allclose(prepare_bell(3, 0, 0, conv).amps, source.amps, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("conv", BOTH_MAIN, ids=lambda c: c.label())
    def test_reaches_every_target(self, d, conv):
        for i in range(d):
            for j in range(d):
                prepared = prepare_bell(d, i, j, conv)
                target = hyperentangled_state(d, i, j, conv)
                assert abs(np.vdot(prepared.amps, target.amps)) > 1 - 1e-9

    def test_d4_prepared_state_decomposes_like_reference_listing(self):
        from hdbsm.audit import load_reference_table
        from hdbsm.decomposition import pair_coefficients

        conv = REFERENCE_CONVENTION
        prepared = prepare_bell(4, 2, 3, conv)
        coeffs = pair_coefficients(prepared, conv)
        support = {
            tuple(int(x) for x in np.unravel_index(flat, (4,) * 4))
            for flat in np.flatnonzero(np.abs(coeffs) > 1e-9)
        }
        printed = load_reference_table(4)[BellIndex(2, 3)]
        assert support == set(printed)


class TestBsaUnitary:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("conv", BOTH_MAIN, ids=lambda c: c.label())
    def test_lossless(self, d, conv):
        u = bsa_layout(d, conv).unitary
        np.testing.assert_allclose(u.conj().T @ u, np.eye(d * d), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_equals_loop(self, d, sign):
        layout = bsa_layout(d, PhaseConvention(1, sign))
        expected = oracles.loop_bsa_unitary(d, fourier_matrix(d, -sign))
        assert layout.unitary.tobytes() == expected.tobytes()

    def test_layout_arrays_are_read_only(self):
        layout = bsa_layout(3, REFERENCE_CONVENTION)
        with pytest.raises(ValueError):
            layout.unitary[0, 0] = 0.0


class TestOperatorEquivalence:
    """The analyser U is checked once per (d, convention) against conj(S)."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("conv", ALL_CONVENTIONS, ids=lambda c: c.label())
    def test_unitary_equals_conjugate_basis(self, d, conv):
        layout = bsa_layout(d, conv)
        assert np.array_equal(layout.unitary, decomp_basis(d, conv).conj())
        assert layout.equivalence_gap == 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.integers(2, 6),
        conv=st.sampled_from(ALL_CONVENTIONS),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equal_operators_give_equal_tables(self, d, conv, data, seed):
        nonzero = data.draw(st.integers(1, d**4), label="nonzero")
        rng = np.random.default_rng(seed)
        amps = np.zeros(d**4, dtype=np.complex128)
        where = rng.choice(d**4, size=nonzero, replace=False)
        amps[where] = rng.standard_normal(nonzero) + 1j * rng.standard_normal(nonzero)
        state = State((d,) * 4, amps / np.linalg.norm(amps))
        optical = pipeline_probabilities(state, bsa_layout(d, conv))
        abstract = coincidence_probabilities(state, conv)
        assert optical.probs.tobytes() == abstract.probs.tobytes()


class TestPipeline:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("conv", BOTH_MAIN, ids=lambda c: c.label())
    def test_equivalent_to_abstract_probabilities(self, d, conv):
        layout = bsa_layout(d, conv)
        for i in range(d):
            for j in range(d):
                state = prepare_bell(d, i, j, conv)
                optical = pipeline_probabilities(state, layout)
                abstract = coincidence_probabilities(state, conv)
                assert np.max(np.abs(optical.probs - abstract.probs)) < 1e-9

    def test_rejects_a_state_of_another_dimension(self):
        state = hyperentangled_state(2, 0, 0, REFERENCE_CONVENTION)
        with pytest.raises(ValueError) as info:
            pipeline_probabilities(state, bsa_layout(3, REFERENCE_CONVENTION))
        assert str(info.value) == "expected shape (3, 3, 3, 3), got (2, 2, 2, 2)"

    def test_total_detection_probability(self):
        conv = REFERENCE_CONVENTION
        layout = bsa_layout(3, conv)
        table = pipeline_probabilities(prepare_bell(3, 1, 2, conv), layout)
        assert abs(table.total() - 1.0) < 1e-12


class TestRunExperiment:
    def test_every_outcome_decodes_to_input(self):
        conv = REFERENCE_CONVENTION
        bell_i, bell_j = oracles.bell_arrays(build_decoding_table(3, conv))
        for i, j, shots in itertools.product(range(3), range(3), (1, 300)):
            result = run_experiment(3, i, j, shots=shots, seed=17, convention=conv)
            assert result.equivalence_gap < EQUIVALENCE_TOL
            assert result.record.shots == result.record.counts.sum() == shots
            observed = result.record.counts > 0
            decoded = zip(bell_i[observed].tolist(), bell_j[observed].tolist())
            assert set(decoded) == {(i, j)}

    def test_theory_only_run(self):
        result = run_experiment(3, 1, 2, shots=0, seed=0, convention=REFERENCE_CONVENTION)
        assert result.record is None
        probs = result.probabilities.probs
        support = probs > 1e-12
        assert np.count_nonzero(support) == 9
        assert np.all(np.abs(probs[support] - 1 / 9) < 1e-9)

    def test_negative_shots_rejected(self):
        with pytest.raises(ValueError, match="shots must be >= 0, got -1"):
            run_experiment(3, 0, 0, shots=-1, seed=0, convention=REFERENCE_CONVENTION)

    def test_d2_outcome_classes(self):
        # two-dimensional run: outcomes land exactly in the (k + k', m' - m)
        # class of the input
        conv = LITERAL_CONVENTION
        for i in range(2):
            for j in range(2):
                result = run_experiment(2, i, j, shots=200, seed=3, convention=conv)
                for k, m, kp, mp in np.argwhere(result.record.counts).tolist():
                    assert (k + kp) % 2 == i
                    assert (mp - m) % 2 == j

    def test_decomposition_support_reproduced(self):
        conv = REFERENCE_CONVENTION
        result = run_experiment(3, 2, 1, shots=0, seed=0, convention=conv)
        support = np.argwhere(result.probabilities.probs > 1e-12).tolist()
        table = decompose(3, 2, 1, conv)
        assert {tuple(p) for p in support} == set(oracles.table_entries(table))


class TestArgumentDomain:
    """The entries compute with, cache by and store the plain ints check_dimension returns."""

    def test_a_numpy_run_finds_the_source_and_layout_cached_for_an_int(self):
        for cached in (optics._bsa_layout, decomposition._hyperentangled_state):
            cached.cache_clear()
        conv = REFERENCE_CONVENTION
        run_experiment(3, 1, 2, 10, 0, conv)
        for j in (np.int64(2), np.uint8(2)):
            result = run_experiment(np.int64(3), np.int64(1), j, np.int64(10), np.int64(0), conv)
            assert result.bell == (1, 2)
            assert type(result.bell.i) is int and type(result.bell.j) is int
        assert bsa_layout(np.int64(3), conv) is bsa_layout(3, conv)
        assert hyperentangled_state(np.int64(3), 0, 0, conv) is hyperentangled_state(3, 0, 0, conv)
        assert optics._bsa_layout.cache_info().currsize == 1
        assert decomposition._hyperentangled_state.cache_info().currsize == 1

    def test_the_layout_cache_checks_a_float_equal_to_a_cached_int(self):
        bsa_layout(3, REFERENCE_CONVENTION)  # a cache keyed by value alone would hand it to 3.0
        with pytest.raises(ValueError, match="dimension must be an integer, got 3.0"):
            bsa_layout(3.0, REFERENCE_CONVENTION)

    def test_the_layout_stores_the_checked_dimension(self):
        assert type(bsa_layout(np.int64(3), REFERENCE_CONVENTION).d) is int
        unitary = bsa_layout(2, REFERENCE_CONVENTION).unitary
        assert type(BsaLayout(np.int64(2), unitary, 0.0).d) is int
        with pytest.raises(ValueError, match="dimension must be an integer, got 2.0"):
            BsaLayout(2.0, unitary, 0.0)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: bsa_layout(7, REFERENCE_CONVENTION), "outside the supported range"),
            (lambda: run_experiment(3, 0, 1.5, 0, 0, REFERENCE_CONVENTION), "j must be an integer"),
        ],
        ids=["layout", "run-j"],
    )
    def test_arguments_outside_the_domain_raise_value_error(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_shots_must_be_an_integer_and_the_seed_non_negative(self):
        with pytest.raises(ValueError, match="^shots must be an integer, got 1.5$"):
            run_experiment(3, 0, 0, 1.5, 0, REFERENCE_CONVENTION)
        assert run_experiment(3, 0, 0, np.int64(5), 0, REFERENCE_CONVENTION).record.shots == 5
        for shots in (10**5, 0):
            with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
                run_experiment(3, 1, 2, shots, -1, REFERENCE_CONVENTION)

    @pytest.mark.parametrize("seed", [None, 1.5, "3", np.float64(2.0)])
    def test_seed_must_be_an_integer(self, seed):
        # numpy seeds PCG64(None) from the operating system, so two such runs differ.
        for shots in (10**5, 0):
            with pytest.raises(ValueError) as info:
                run_experiment(3, 1, 2, shots, seed, REFERENCE_CONVENTION)
            assert str(info.value) == f"seed must be an integer, got {seed!r}"
