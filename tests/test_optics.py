import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdbsm.classifier import build_decoding_table, classify, coincidence_probabilities
from hdbsm.core import State, fidelity, fourier_matrix, is_unitary
from hdbsm.decomposition import decompose, hyperentangled_state
from hdbsm.optics import (
    analyse,
    bsa_layout,
    oam_sort,
    pipeline_probabilities,
    prepare_bell,
    prepare_source,
    run_experiment,
)
from hdbsm.states import (
    ALL_CONVENTIONS,
    BellIndex,
    LITERAL_CONVENTION,
    PhaseConvention,
    REFERENCE_CONVENTION,
    decomp_basis,
    decomp_state,
)

import oracles

BOTH_MAIN = [LITERAL_CONVENTION, REFERENCE_CONVENTION]


def rand_single(rng, d):
    v = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    return State((d, d), v / np.linalg.norm(v))


class TestPrepareSource:
    def test_d3_amplitudes(self):
        state = prepare_source(3, REFERENCE_CONVENTION)
        nonzero = state.nonzero(tol=1e-12)
        assert len(nonzero) == 9
        for (bs, ba, asys, aa), amp in nonzero.items():
            assert bs == asys and ba == aa  # perfectly correlated in both DOFs
            assert abs(amp - 1 / 3) < 1e-12

    def test_d2_amplitudes(self):
        state = prepare_source(2, LITERAL_CONVENTION)
        nonzero = state.nonzero(tol=1e-12)
        assert len(nonzero) == 4
        assert all(abs(a - 1 / 2) < 1e-12 for a in nonzero.values())

    @pytest.mark.parametrize("d", [1, 7])
    def test_rejects_unsupported_dimension(self, d):
        with pytest.raises(ValueError, match=r"supported range \(2\.\.6\)"):
            prepare_source(d, REFERENCE_CONVENTION)

    def test_classifies_as_origin(self):
        for d in (2, 3, 4):
            result = classify(prepare_source(d, REFERENCE_CONVENTION), REFERENCE_CONVENTION)
            assert result.bell == BellIndex(0, 0)
            assert result.confidence >= 1 - 1e-9


class TestPrepareBell:
    def test_origin_is_source(self):
        conv = REFERENCE_CONVENTION
        np.testing.assert_allclose(
            prepare_bell(3, 0, 0, conv).amps, prepare_source(3, conv).amps, atol=1e-12
        )

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("conv", BOTH_MAIN, ids=lambda c: c.label())
    def test_reaches_every_target(self, d, conv):
        for i in range(d):
            for j in range(d):
                prepared = prepare_bell(d, i, j, conv)
                target = hyperentangled_state(d, i, j, conv)
                assert fidelity(prepared, target) > 1 - 1e-9

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


class TestOamSort:
    def test_basis_relabel(self):
        # path 0 with the lowest OAM letter lands in group 0, port 0
        state = State((3, 3), np.eye(9)[0])  # |path 0, oam 0>
        out = oam_sort(state)
        assert out.amplitude((0, 0)) == 1.0

    def test_group_is_path_minus_oam(self):
        d = 3
        for path in range(d):
            for oam in range(d):
                state = State((d, d), np.eye(d * d)[path * d + oam])
                out = oam_sort(state)
                assert abs(out.amplitude((((path - oam) % d), path)) - 1.0) < 1e-15

    def test_decomposition_state_fills_one_group(self):
        # the (k=0, m=1) state occupies group 1, uniform over its 3 ports
        out = oam_sort(decomp_state(3, 0, 1, REFERENCE_CONVENTION)).reshaped()
        assert np.max(np.abs(out[[0, 2], :])) < 1e-12
        np.testing.assert_allclose(np.abs(out[1]), np.full(3, 1 / np.sqrt(3)), atol=1e-12)

    def test_norm_preserved_and_invertible(self):
        rng = np.random.default_rng(55)
        for d in (2, 3, 4, 5):
            state = rand_single(rng, d)
            out = oam_sort(state)
            assert abs(out.norm() - state.norm()) < 1e-15
            # invert the relabeling by hand
            back = np.empty((d, d), dtype=np.complex128)
            grid = out.reshaped()
            for group in range(d):
                for port in range(d):
                    back[port, (port - group) % d] = grid[group, port]
            np.testing.assert_allclose(back.reshape(-1), state.amps, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_equals_loop(self, d):
        state = rand_single(np.random.default_rng(60 + d), d)
        assert oam_sort(state).amps.tobytes() == oracles.loop_oam_sort(state.reshaped()).tobytes()

    def test_rejects_joint_states(self):
        with pytest.raises(ValueError):
            oam_sort(State((2, 2, 2, 2), np.eye(16)[0]))


class TestAnalyse:
    @pytest.mark.parametrize("conv", BOTH_MAIN, ids=lambda c: c.label())
    def test_each_decomposition_state_fires_its_detector(self, conv):
        for d in (2, 3, 4, 5):
            layout = bsa_layout(d, conv)
            for k in range(d):
                for m in range(d):
                    amps = analyse(decomp_state(d, k, m, conv), layout)
                    expected = np.zeros((d, d))
                    expected[k, m] = 1.0
                    np.testing.assert_allclose(np.abs(amps), expected, atol=1e-9)

    def test_matrix_identities_exact(self):
        # the three d=3 phase-ramp inputs exit on the three distinct ports
        conv = REFERENCE_CONVENTION
        layout = bsa_layout(3, conv)
        for k in range(3):
            amps = analyse(decomp_state(3, k, 0, conv), layout)
            expected = np.zeros((3, 3))
            expected[k, 0] = 1.0
            np.testing.assert_allclose(np.abs(amps), expected, atol=1e-12)

    def test_amplitude_equals_overlap(self):
        rng = np.random.default_rng(56)
        conv = REFERENCE_CONVENTION
        d = 3
        layout = bsa_layout(d, conv)
        state = rand_single(rng, d)
        amps = analyse(state, layout)
        from hdbsm.core import inner_product

        for k in range(d):
            for m in range(d):
                overlap = inner_product(decomp_state(d, k, m, conv), state)
                assert abs(amps[k, m] - overlap) < 1e-12


class TestBsaUnitary:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("conv", BOTH_MAIN, ids=lambda c: c.label())
    def test_lossless(self, d, conv):
        assert is_unitary(bsa_layout(d, conv).unitary, tol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_equals_loop(self, d, sign):
        layout = bsa_layout(d, PhaseConvention(1, sign))
        expected = oracles.loop_bsa_unitary(d, fourier_matrix(d, -sign))
        assert layout.unitary.tobytes() == expected.tobytes()

    def test_layout_arrays_are_read_only(self):
        layout = bsa_layout(3, REFERENCE_CONVENTION)
        for array in (layout.transform, layout.unitary):
            with pytest.raises(ValueError):
                array[0, 0] = 0.0

    def test_matches_analyse(self):
        rng = np.random.default_rng(57)
        conv = REFERENCE_CONVENTION
        layout = bsa_layout(3, conv)
        u = layout.unitary
        state = rand_single(rng, 3)
        np.testing.assert_allclose(
            (u @ state.amps).reshape(3, 3), analyse(state, layout), atol=1e-12
        )


class TestOperatorEquivalence:
    """The analyser U is checked once per (d, convention) against conj(S)."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("conv", ALL_CONVENTIONS, ids=lambda c: c.label())
    def test_unitary_equals_conjugate_basis(self, d, conv):
        layout = bsa_layout(d, conv)
        assert np.array_equal(layout.unitary, decomp_basis(d, conv.decomp_sign).conj())
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

    def test_total_detection_probability(self):
        conv = REFERENCE_CONVENTION
        layout = bsa_layout(3, conv)
        table = pipeline_probabilities(prepare_bell(3, 1, 2, conv), layout)
        assert abs(table.total() - 1.0) < 1e-12


class TestRunExperiment:
    def test_every_outcome_decodes_to_input(self):
        conv = REFERENCE_CONVENTION
        decoding = build_decoding_table(3, conv)
        for i in range(3):
            for j in range(3):
                result = run_experiment(3, i, j, shots=300, seed=17, convention=conv)
                assert result.equivalent
                observed = result.record.counts > 0
                decoded = zip(decoding.bell_i[observed].tolist(), decoding.bell_j[observed].tolist())
                assert set(decoded) == {(i, j)}

    def test_theory_only_run(self):
        result = run_experiment(3, 1, 2, shots=0, seed=0, convention=REFERENCE_CONVENTION)
        assert result.record is None
        probs = result.probabilities.probs
        support = probs > 1e-12
        assert np.count_nonzero(support) == 9
        assert np.all(np.abs(probs[support] - 1 / 9) < 1e-9)

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
        assert {tuple(p) for p in support} == table.support()
