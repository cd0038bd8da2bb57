import numpy as np
import pytest

from hdbsm import classifier as cl
from hdbsm.classifier import (
    CoincidenceTable,
    CollisionError,
    DecompIndex,
    OutcomePair,
    build_decoding_table,
    classify,
    classify_table,
    coincidence_probabilities,
    decoding_table_from_law,
    mix_with_white_noise,
    sample_outcomes,
)
from hdbsm.core import State, tensor_product
from hdbsm.decomposition import (
    DecompositionTable,
    decompose_all,
    fit_index_law,
    hyperentangled_state,
)
from hdbsm.states import (
    BellIndex,
    LITERAL_CONVENTION,
    REFERENCE_CONVENTION,
    decomp_state,
)

BOTH_MAIN = [LITERAL_CONVENTION, REFERENCE_CONVENTION]


def pair(k, m, kp, mp):
    return OutcomePair(DecompIndex(k, m), DecompIndex(kp, mp))


class TestDecodingTable:
    def test_d2_closed_form(self):
        # i = (k + k') mod 2 and j = (m' - m) mod 2 on all 16 pairs
        table = build_decoding_table(2, LITERAL_CONVENTION)
        for k in range(2):
            for m in range(2):
                for kp in range(2):
                    for mp in range(2):
                        bell = table.class_of(k, m, kp, mp)
                        assert bell == BellIndex((k + kp) % 2, (mp - m) % 2)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("conv", BOTH_MAIN, ids=lambda c: c.label())
    def test_partition(self, d, conv):
        table = build_decoding_table(d, conv)
        for i in range(d):
            for j in range(d):
                assert len(table.class_members(BellIndex(i, j))) == d * d
        assert all(table.lookup(p) is not None for p in table.all_pairs())

    def test_origin_pair_decodes_to_origin(self):
        table = build_decoding_table(3, REFERENCE_CONVENTION)
        assert table.lookup(pair(0, 0, 0, 0)) == BellIndex(0, 0)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("conv", BOTH_MAIN, ids=lambda c: c.label())
    def test_equals_table_from_law(self, d, conv):
        from_supports = build_decoding_table(d, conv)
        from_law = decoding_table_from_law(fit_index_law(decompose_all(d, conv)))
        assert np.array_equal(from_supports.bell_i, from_law.bell_i)
        assert np.array_equal(from_supports.bell_j, from_law.bell_j)

    def test_collision_detected(self, monkeypatch):
        tables = dict(decompose_all(2, LITERAL_CONVENTION))
        stolen = next(iter(tables[BellIndex(0, 0)].entries))
        doctored = dict(tables[BellIndex(1, 0)].entries)
        doctored[stolen] = 0.5
        tables[BellIndex(1, 0)] = DecompositionTable(
            2, BellIndex(1, 0), LITERAL_CONVENTION, doctored
        )
        monkeypatch.setattr(cl, "decompose_all", lambda d, conv: tables)
        with pytest.raises(CollisionError):
            build_decoding_table(2, LITERAL_CONVENTION)


class TestCoincidenceProbabilities:
    def test_bell_input_spreads_uniformly_over_its_class(self):
        conv = REFERENCE_CONVENTION
        state = hyperentangled_state(3, 0, 0, conv)
        table = coincidence_probabilities(state, conv)
        decoding = build_decoding_table(3, conv)
        for p in decoding.all_pairs():
            expected = 1 / 9 if decoding.lookup(p) == BellIndex(0, 0) else 0.0
            assert abs(table.probability(p) - expected) < 1e-9
        assert abs(table.total() - 1.0) < 1e-9

    def test_product_input_hits_single_pair(self):
        conv = REFERENCE_CONVENTION
        state = tensor_product(decomp_state(3, 1, 2, conv), decomp_state(3, 2, 0, conv))
        table = coincidence_probabilities(State((3, 3, 3, 3), state.amps), conv)
        assert abs(table.probability(pair(1, 2, 2, 0)) - 1.0) < 1e-12
        assert abs(table.total() - 1.0) < 1e-12

    def test_unnormalized_rejected(self):
        state = State((2, 2, 2, 2), np.ones(16))
        with pytest.raises(ValueError):
            coincidence_probabilities(state, LITERAL_CONVENTION)

    def test_wrong_shape_rejected(self):
        state = State((2, 2), np.array([1, 0, 0, 0], dtype=complex))
        with pytest.raises(ValueError):
            coincidence_probabilities(state, LITERAL_CONVENTION)


class TestClassify:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_every_bell_input_recovered(self, d):
        conv = REFERENCE_CONVENTION
        for i in range(d):
            for j in range(d):
                state = hyperentangled_state(d, i, j, conv)
                result = classify(state, conv)
                assert result.bell == BellIndex(i, j)
                assert result.confidence >= 1 - 1e-9
                assert not result.tie

    def test_maximally_mixed_is_full_tie(self):
        d = 3
        table = CoincidenceTable(d, np.full((d,) * 4, 1 / d**4))
        decoding = build_decoding_table(d, REFERENCE_CONVENTION)
        result = classify_table(table, decoding)
        assert result.tie
        assert result.bell == BellIndex(0, 0)  # smallest index reported
        assert len(result.tied_with) == 9
        assert abs(result.confidence - 1 / 9) < 1e-12

    def test_class_masses_sum_to_one(self):
        conv = REFERENCE_CONVENTION
        state = hyperentangled_state(3, 1, 2, conv)
        result = classify(state, conv)
        assert abs(sum(result.class_masses.values()) - 1.0) < 1e-9

    def test_dimension_mismatch(self):
        table = CoincidenceTable(2, np.full((2,) * 4, 1 / 16))
        decoding = build_decoding_table(3, REFERENCE_CONVENTION)
        with pytest.raises(ValueError):
            classify_table(table, decoding)


class TestWhiteNoise:
    @pytest.mark.parametrize("signal", [0.1, 0.5, 0.9])
    def test_confidence_formula(self, signal):
        conv = REFERENCE_CONVENTION
        decoding = build_decoding_table(3, conv)
        for i in range(3):
            for j in range(3):
                state = hyperentangled_state(3, i, j, conv)
                table = coincidence_probabilities(state, conv)
                noisy = mix_with_white_noise(table, 1 - signal)
                result = classify_table(noisy, decoding)
                assert result.bell == BellIndex(i, j)
                assert not result.tie
                assert abs(result.confidence - (signal + (1 - signal) / 9)) < 1e-9

    def test_argmax_invariant_down_to_small_signal(self):
        conv = REFERENCE_CONVENTION
        decoding = build_decoding_table(3, conv)
        state = hyperentangled_state(3, 2, 2, conv)
        table = coincidence_probabilities(state, conv)
        result = classify_table(mix_with_white_noise(table, 0.99), decoding)
        assert result.bell == BellIndex(2, 2)
        assert not result.tie

    def test_confidence_decreases_with_noise(self):
        conv = REFERENCE_CONVENTION
        decoding = build_decoding_table(3, conv)
        table = coincidence_probabilities(hyperentangled_state(3, 0, 1, conv), conv)
        confidences = [
            classify_table(mix_with_white_noise(table, q), decoding).confidence
            for q in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert all(a > b for a, b in zip(confidences, confidences[1:]))

    def test_noise_bounds(self):
        table = CoincidenceTable(2, np.full((2,) * 4, 1 / 16))
        with pytest.raises(ValueError):
            mix_with_white_noise(table, -0.1)
        with pytest.raises(ValueError):
            mix_with_white_noise(table, 1.5)


class TestSampling:
    def make_table(self, d=3, i=0, j=0):
        conv = REFERENCE_CONVENTION
        return coincidence_probabilities(hyperentangled_state(d, i, j, conv), conv)

    def test_deterministic_table_single_shot(self):
        probs = np.zeros((2,) * 4)
        probs[1, 0, 1, 1] = 1.0
        record = sample_outcomes(CoincidenceTable(2, probs), shots=1, seed=5)
        assert record.count(pair(1, 0, 1, 1)) == 1
        assert record.counts.sum() == 1

    def test_same_seed_identical(self):
        table = self.make_table()
        a = sample_outcomes(table, shots=5000, seed=123)
        b = sample_outcomes(table, shots=5000, seed=123)
        assert np.array_equal(a.counts, b.counts)

    def test_different_seed_differs(self):
        table = self.make_table()
        a = sample_outcomes(table, shots=5000, seed=1)
        b = sample_outcomes(table, shots=5000, seed=2)
        assert not np.array_equal(a.counts, b.counts)

    def test_counts_sum_to_shots(self):
        table = self.make_table(3, 2, 1)
        record = sample_outcomes(table, shots=777, seed=9)
        assert record.counts.sum() == 777

    def test_zero_probability_never_drawn(self):
        table = self.make_table()
        record = sample_outcomes(table, shots=9000, seed=42)
        mask = table.probs < 1e-12
        assert record.counts[mask].sum() == 0

    def test_five_sigma_at_nine_thousand(self):
        table = self.make_table()
        shots = 9000
        record = sample_outcomes(table, shots=shots, seed=2024)
        p = 1 / 9
        sigma = np.sqrt(shots * p * (1 - p))
        for outcome, count in record.nonzero().items():
            assert abs(count - shots * p) < 5 * sigma

    def test_million_shot_frequencies_within_five_standard_errors(self):
        table = self.make_table(3, 1, 2)
        shots = 10**6
        record = sample_outcomes(table, shots=shots, seed=31415)
        freqs = record.counts / shots
        std_err = np.sqrt(table.probs * (1 - table.probs) / shots)
        deviation = np.abs(freqs - table.probs)
        assert np.all(deviation <= 5 * std_err + 1e-15)

    def test_invalid_shots(self):
        with pytest.raises(ValueError):
            sample_outcomes(self.make_table(), shots=0, seed=0)

    def test_zero_probability_never_drawn_when_cdf_rounds_short(self, monkeypatch):
        # The normalised CDF of this table ends at 0.9999999999999999, so the
        # largest uniform double lies beyond the last nonzero outcome.
        probs = np.zeros(16)
        probs[:3] = [0.23936944299295215, 0.8764842308107038, 0.05856803480519435]
        top = np.nextafter(1.0, 0.0)

        class TopUniforms:
            def __init__(self, bit_generator):
                pass

            def random(self, n):
                return np.full(n, top)

        monkeypatch.setattr(np.random, "Generator", TopUniforms)
        record = sample_outcomes(CoincidenceTable(2, probs.reshape((2,) * 4)), shots=5, seed=0)
        assert record.counts.reshape(-1).tolist() == [0, 0, 5] + [0] * 13

    def test_all_zero_table_rejected(self):
        with pytest.raises(ValueError):
            sample_outcomes(CoincidenceTable(2, np.zeros((2,) * 4)), shots=1, seed=0)
