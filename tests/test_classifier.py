import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hdbsm import classifier as cl
from hdbsm.classifier import (
    UNREACHABLE,
    CoincidenceTable,
    CollisionError,
    DecodingTable,
    build_decoding_table,
    classify_table,
    coincidence_probabilities,
    decoding_table_from_law,
    mix_with_white_noise,
    sample_outcomes,
)
from hdbsm.core import LOGIC_TOL, InvariantError, State, tensor_product
from hdbsm.decomposition import (
    decompose_all,
    fit_index_law,
    hyperentangled_state,
    reference_index_law,
)
from hdbsm.states import (
    ALL_CONVENTIONS,
    BellIndex,
    LITERAL_CONVENTION,
    REFERENCE_CONVENTION,
    decomp_state,
)

BOTH_MAIN = [LITERAL_CONVENTION, REFERENCE_CONVENTION]


CHUNK = cl._CHUNK


# The bound that classifier owns, and the LOGIC_TOL side of its ties, first in the
# file so that pytest -x reaches them early.


def test_documented_value():
    assert cl.NORM_TOL == 1e-6


def test_side_of_norm_tol_is_unobservable():
    # The norm check compares |norm - 1| with the bound, which no input meets
    # exactly, as for cli.REPORT_TOL: the distance is a multiple of 2**-55.
    assert (cl.NORM_TOL * 2**55) % 1 != 0


@pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)])
def test_a_norm_within_norm_tol_is_accepted(factor, accepted):
    state = hyperentangled_state(3, 1, 2, REFERENCE_CONVENTION)
    scaled = State(state.radices, state.amps * (1 + factor * cl.NORM_TOL))
    if accepted:
        assert cl.check_normalized(scaled) is scaled
    else:
        with pytest.raises(ValueError) as info:
            cl.check_normalized(scaled)
        assert str(info.value) == (
            "state is not normalized: norm 1.000002000 deviates from 1 "
            "by 2.000e-06 (tolerance 1e-6)"
        )


def test_classes_within_logic_tol_of_the_best_tie():
    decoding = decoding_table_from_law(reference_index_law(2))
    first, second = decoding.class_order[[0, 4]]  # one pair of class (0, 0), one of (0, 1)
    at = 0.5 - LOGIC_TOL
    for runner_up, tied in [(at, True), (np.nextafter(at, 0.0), False)]:
        probs = np.zeros(16)
        probs[[first, second]] = 0.5, runner_up
        result = classify_table(CoincidenceTable(2, probs.reshape((2,) * 4)), decoding)
        assert (result.bell, result.tie) == (BellIndex(0, 0), tied)


class TestDecodingTable:
    def test_d2_closed_form(self):
        # i = (k + k') mod 2 and j = (m' - m) mod 2 on all 16 pairs
        bell_i, bell_j = oracles.bell_arrays(build_decoding_table(2, LITERAL_CONVENTION))
        k, m, kp, mp = np.indices((2,) * 4)
        assert np.array_equal(bell_i, (k + kp) % 2)
        assert np.array_equal(bell_j, (mp - m) % 2)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("conv", BOTH_MAIN, ids=lambda c: c.label())
    def test_partition(self, d, conv):
        bell_i, bell_j = oracles.bell_arrays(build_decoding_table(d, conv))
        for i in range(d):
            for j in range(d):
                assert np.count_nonzero((bell_i == i) & (bell_j == j)) == d * d
        assert (bell_i != UNREACHABLE).all()

    def test_origin_pair_decodes_to_origin(self):
        bell_i, bell_j = oracles.bell_arrays(build_decoding_table(3, REFERENCE_CONVENTION))
        assert (bell_i[0, 0, 0, 0], bell_j[0, 0, 0, 0]) == (0, 0)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("conv", BOTH_MAIN, ids=lambda c: c.label())
    def test_equals_table_from_law(self, d, conv):
        from_supports = build_decoding_table(d, conv)
        from_law = decoding_table_from_law(fit_index_law(decompose_all(d, conv)))
        assert np.array_equal(from_supports.classes, from_law.classes)

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda classes: classes.astype(float),
            lambda classes: classes[:2, :2, :2, :2],
            lambda classes: classes.reshape(9, 9),
            lambda classes: classes.tolist(),
        ],
        ids=["float", "d-2-shape", "flat-pairs", "list"],
    )
    def test_classes_must_be_an_integer_array_of_d_to_the_four(self, spoil):
        classes = build_decoding_table(3, REFERENCE_CONVENTION).classes
        with pytest.raises(ValueError, match=r"integer array of shape \(3, 3, 3, 3\)$"):
            DecodingTable(3, spoil(classes))

    def test_collision_detected(self, monkeypatch):
        tables = dict(decompose_all(2, LITERAL_CONVENTION))
        stolen = next(iter(oracles.table_entries(tables[BellIndex(0, 0)])))
        doctored = oracles.table_entries(tables[BellIndex(1, 0)])
        doctored[stolen] = 0.5
        tables[BellIndex(1, 0)] = oracles.hand_built_table(2, BellIndex(1, 0), doctored)
        monkeypatch.setattr(cl, "decompose_all", lambda d, conv: tables)
        with pytest.raises(CollisionError):
            build_decoding_table(2, LITERAL_CONVENTION)

    def test_collision_is_an_invariant_error(self):
        # The CLI exits 1 with one line on any InvariantError.
        assert issubclass(CollisionError, InvariantError)

    def test_collision_message_names_first_claim_in_table_order(self, monkeypatch):
        # Bell (1, 2) also lists a pair of Bell (0, 0), then a pair of Bell
        # (0, 1) with a smaller flat index; the first in its own order is reported.
        tables = dict(decompose_all(3, LITERAL_CONVENTION))
        doctored = oracles.table_entries(tables[BellIndex(1, 2)])
        doctored[(2, 1, 1, 1)] = 1 / 3
        doctored[(0, 0, 0, 1)] = 1 / 3
        tables[BellIndex(1, 2)] = oracles.hand_built_table(3, BellIndex(1, 2), doctored)
        monkeypatch.setattr(cl, "decompose_all", lambda d, conv: tables)
        with pytest.raises(CollisionError) as info:
            build_decoding_table(3, LITERAL_CONVENTION)
        assert str(info.value) == (
            "outcome pair (2, 1, 1, 1) claimed by both BellIndex(i=0, j=0) and BellIndex(i=1, j=2)"
        )


class TestCoincidenceTable:
    @pytest.mark.parametrize("bad", [-1e-18, -1.0, np.nan, np.inf, -np.inf])
    def test_bad_entry_rejected(self, bad):
        probs = np.full((2,) * 4, 1 / 16)
        probs[1, 0, 1, 1] = bad
        with pytest.raises(ValueError):
            CoincidenceTable(2, probs)

    @pytest.mark.parametrize(
        "probs, message",
        [
            # Cast to float64, a complex array would drop its imaginary parts.
            (np.full((2,) * 4, 1 / 16) * (1 + 1j), "got dtype complex128"),
            (np.full((2,) * 4, "0.0625"), "got dtype <U6"),
        ],
        ids=["complex", "str"],
    )
    def test_non_real_entries_rejected(self, probs, message):
        with pytest.raises(ValueError) as info:
            CoincidenceTable(2, probs)
        assert str(info.value) == f"probabilities must be real numbers, {message}"

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, np.float32])
    def test_real_dtypes_read_as_float64(self, dtype):
        table = CoincidenceTable(2, np.ones((2,) * 4, dtype=dtype))
        assert table.probs.dtype == np.float64 and table.total() == 16.0

    def test_negative_zero_accepted(self):
        probs = np.zeros((2,) * 4)
        probs[0, 0, 0, 0] = 1.0
        probs[1, 1, 1, 1] = -0.0
        assert CoincidenceTable(2, probs).total() == 1.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_caller_array_is_copied(self, dtype):
        probs = np.full((2,) * 4, 1 / 16, dtype=dtype)
        table = CoincidenceTable(2, probs)
        assert probs.flags.writeable and not table.probs.flags.writeable
        assert not np.shares_memory(probs, table.probs)
        probs[0, 0, 0, 0] = 0.5
        assert table.probs[0, 0, 0, 0] == 1 / 16

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("noise", [0.0, 0.3, 1.0])
    def test_package_tables_construct(self, d, noise):
        conv = REFERENCE_CONVENTION
        table = coincidence_probabilities(hyperentangled_state(d, d - 1, 1, conv), conv)
        noisy = mix_with_white_noise(table, noise)
        assert abs(noisy.total() - 1.0) < 1e-9


class TestCoincidenceProbabilities:
    def test_bell_input_spreads_uniformly_over_its_class(self):
        conv = REFERENCE_CONVENTION
        state = hyperentangled_state(3, 0, 0, conv)
        table = coincidence_probabilities(state, conv)
        bell_i, bell_j = oracles.bell_arrays(build_decoding_table(3, conv))
        in_class = (bell_i == 0) & (bell_j == 0)
        expected = np.where(in_class, 1 / 9, 0.0)
        assert np.all(np.abs(table.probs - expected) < 1e-9)
        assert abs(table.total() - 1.0) < 1e-9

    def test_product_input_hits_single_pair(self):
        conv = REFERENCE_CONVENTION
        state = tensor_product(decomp_state(3, 1, 2, conv), decomp_state(3, 2, 0, conv))
        table = coincidence_probabilities(State((3, 3, 3, 3), state.amps), conv)
        assert abs(table.probs[1, 2, 2, 0] - 1.0) < 1e-12
        assert abs(table.total() - 1.0) < 1e-12

    def test_unnormalized_rejected(self):
        state = State((2, 2, 2, 2), np.ones(16))
        with pytest.raises(ValueError):
            coincidence_probabilities(state, LITERAL_CONVENTION)

    def test_overflowing_norm_rejected(self):
        # A finite amplitude above ~1e154 overflows its square; the documented
        # error must come out, not numpy's overflow warning (an error here).
        amps = np.zeros(16, dtype=complex)
        amps[0] = 1e200
        message = "state is not normalized: norm inf deviates from 1 by inf (tolerance 1e-6)"
        with pytest.raises(ValueError) as info:
            coincidence_probabilities(State((2, 2, 2, 2), amps), LITERAL_CONVENTION)
        assert str(info.value) == message

    def test_wrong_shape_rejected(self):
        state = State((2, 2), np.array([1, 0, 0, 0], dtype=complex))
        with pytest.raises(ValueError):
            coincidence_probabilities(state, LITERAL_CONVENTION)


class TestClassify:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_every_bell_input_recovered(self, d):
        conv = REFERENCE_CONVENTION
        decoding = build_decoding_table(d, conv)
        for i in range(d):
            for j in range(d):
                state = hyperentangled_state(d, i, j, conv)
                result = classify_table(coincidence_probabilities(state, conv), decoding)
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
        table = coincidence_probabilities(state, conv)
        result = classify_table(table, build_decoding_table(3, conv))
        assert abs(sum(result.class_masses.values()) - 1.0) < 1e-9

    def test_dimension_mismatch(self):
        table = CoincidenceTable(2, np.full((2,) * 4, 1 / 16))
        decoding = build_decoding_table(3, REFERENCE_CONVENTION)
        with pytest.raises(ValueError):
            classify_table(table, decoding)

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 6),
        conv=st.sampled_from(ALL_CONVENTIONS),
        from_law=st.booleans(),
        kind=st.sampled_from(["uniform", "pareto", "sparse", "noisy-bell"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gathered_masses_equal_mask_sums(self, d, conv, from_law, kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "noisy-bell":
            i, j = rng.integers(d, size=2)
            bell = coincidence_probabilities(hyperentangled_state(d, i, j, conv), conv)
            table = mix_with_white_noise(bell, rng.random())
        else:
            probs = {
                "uniform": lambda: rng.random(d**4),
                "pareto": lambda: rng.pareto(0.5, d**4) * 1e-100,
                "sparse": lambda: rng.random(d**4) * (rng.random(d**4) < 0.1),
            }[kind]()
            table = CoincidenceTable(d, probs.reshape((d,) * 4))
        if from_law:
            decoding = decoding_table_from_law(fit_index_law(decompose_all(d, conv)))
        else:
            decoding = build_decoding_table(d, conv)
        got = classify_table(table, decoding).class_masses
        expected = oracles.mask_class_masses(table.probs, decoding)
        assert list(got) == list(expected)
        assert [m.hex() for m in got.values()] == [m.hex() for m in expected.values()]

    def test_exact_two_class_tie(self):
        d = 3
        decoding = build_decoding_table(d, REFERENCE_CONVENTION)
        bell_i, bell_j = oracles.bell_arrays(decoding)
        probs = np.zeros((d,) * 4)
        for i, j in [(2, 0), (0, 1)]:
            probs[tuple(np.argwhere((bell_i == i) & (bell_j == j))[0])] = 0.5
        result = classify_table(CoincidenceTable(d, probs), decoding)
        assert (result.bell, result.tie) == (BellIndex(0, 1), True)
        assert result.tied_with == (BellIndex(0, 1), BellIndex(2, 0))

    @pytest.mark.parametrize(
        "defect", ["unreachable", "moved", "class-d-squared", "class-minus-two"]
    )
    def test_rejects_decoding_that_is_not_a_partition(self, defect):
        d = 3
        # One pair of class (0, d - 1) moves to no class, to class (1, 1), or to
        # a class index just above or below 0..d*d - 1.
        value = {
            "unreachable": UNREACHABLE,
            "moved": d + 1,
            "class-d-squared": d * d,
            "class-minus-two": -2,
        }[defect]
        classes = build_decoding_table(d, REFERENCE_CONVENTION).classes.copy()
        classes[tuple(np.argwhere(classes == d - 1)[0])] = value
        decoding = DecodingTable(d, classes)
        table = CoincidenceTable(d, np.full((d,) * 4, 1 / d**4))
        with pytest.raises(ValueError, match="not 9 classes of 9 pairs each"):
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

    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(2, 6),
        conv=st.sampled_from(ALL_CONVENTIONS),
        data=st.data(),
        # Classes within LOGIC_TOL of the best one tie, so the signal weight
        # 1 - q must stay above it (see test_signal_below_tolerance_ties).
        noise=st.floats(0.0, 1.0 - 2 * LOGIC_TOL),
    )
    def test_argmax_survives_any_noise_below_one(self, d, conv, data, noise):
        i = data.draw(st.integers(0, d - 1), label="i")
        j = data.draw(st.integers(0, d - 1), label="j")
        table = coincidence_probabilities(hyperentangled_state(d, i, j, conv), conv)
        result = classify_table(mix_with_white_noise(table, noise), build_decoding_table(d, conv))
        assert result.bell == BellIndex(i, j)
        assert not result.tie

    def test_signal_below_tolerance_ties(self):
        conv = REFERENCE_CONVENTION
        table = coincidence_probabilities(hyperentangled_state(4, 3, 2, conv), conv)
        noisy = mix_with_white_noise(table, 1.0 - LOGIC_TOL / 2)
        result = classify_table(noisy, build_decoding_table(4, conv))
        assert result.tie
        assert len(result.tied_with) == 16

    def test_confidence_decreases_with_noise(self):
        conv = REFERENCE_CONVENTION
        decoding = build_decoding_table(3, conv)
        table = coincidence_probabilities(hyperentangled_state(3, 0, 1, conv), conv)
        confidences = [
            classify_table(mix_with_white_noise(table, q), decoding).confidence
            for q in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert all(a > b for a, b in zip(confidences, confidences[1:]))

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_weight_zero_returns_the_table_bit_for_bit(self, d, seed):
        # classify mixes at every weight it accepts, so at 0.0 and -0.0 no bit may move.
        rng = np.random.default_rng(seed)
        scale = rng.choice([0.0, 2.0**-1074, 2.0**-1022, 1.0], size=d**4)  # zero, subnormal, normal
        table = CoincidenceTable(d, (rng.random(d**4) * scale).reshape((d,) * 4))
        for noise in (0.0, -0.0):
            assert mix_with_white_noise(table, noise).probs.tobytes() == table.probs.tobytes()

    def test_noise_bounds(self):
        table = CoincidenceTable(2, np.full((2,) * 4, 1 / 16))
        with pytest.raises(ValueError):
            mix_with_white_noise(table, -0.1)
        with pytest.raises(ValueError):
            mix_with_white_noise(table, 1.5)


def raw_word_stream(words):
    """Stand-in for ``np.random.PCG64`` whose raw words are the given ones."""
    stream = np.array(words, dtype=np.uint64)

    class RawWords:
        def __init__(self, seed):
            self.drawn = 0

        def random_raw(self, n):
            out = stream[self.drawn : self.drawn + n]
            self.drawn += n
            return out

    return RawWords


class TestSampling:
    def make_table(self, d=3, i=0, j=0):
        conv = REFERENCE_CONVENTION
        return coincidence_probabilities(hyperentangled_state(d, i, j, conv), conv)

    def test_deterministic_table_single_shot(self):
        probs = np.zeros((2,) * 4)
        probs[1, 0, 1, 1] = 1.0
        record = sample_outcomes(CoincidenceTable(2, probs), shots=1, seed=5)
        assert record.counts[1, 0, 1, 1] == 1
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
        for count in record.counts[record.counts != 0].tolist():
            assert abs(count - shots * p) < 5 * sigma

    def test_million_shot_frequencies_within_five_standard_errors(self):
        table = self.make_table(3, 1, 2)
        shots = 10**6
        record = sample_outcomes(table, shots=shots, seed=31415)
        freqs = record.counts / shots
        std_err = np.sqrt(table.probs * (1 - table.probs) / shots)
        deviation = np.abs(freqs - table.probs)
        assert np.all(deviation <= 5 * std_err + 1e-15)

    @pytest.mark.parametrize("support", [range(16), [0, 5]], ids=["every", "two"])
    def test_a_total_that_overflows_raises(self, support):
        # Each entry is finite, but their sum is inf: dividing by it would zero the CDF
        # and send every draw to the last outcome of the support.
        probs = np.zeros((2,) * 4)
        probs.flat[list(support)] = 1e308
        with pytest.raises(ValueError, match="^the table's total probability overflows to inf$"):
            sample_outcomes(CoincidenceTable(2, probs), shots=1000, seed=0)

    def test_invalid_shots(self):
        with pytest.raises(ValueError):
            sample_outcomes(self.make_table(), shots=0, seed=0)

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_raw_words_are_the_generator_uniforms(self, seed):
        # The sampler bins PCG64's raw words; the CDF search is defined over
        # Generator.random(). Both calls of a pair continue one stream.
        bits = np.random.PCG64(seed)
        generator = np.random.Generator(np.random.PCG64(seed))
        for n in (1000, 777):
            from_words = (bits.random_raw(n) >> 11) * 2.0**-53
            uniforms = generator.random(n)
            assert from_words.dtype == uniforms.dtype == np.float64
            assert np.array_equal(from_words.view(np.uint64), uniforms.view(np.uint64))

    def test_zero_probability_never_drawn_when_cdf_rounds_short(self, monkeypatch):
        # The normalised CDF of this table ends at 0.9999999999999999, so the
        # largest uniform double, 1 - 2**-53 from the all-ones word, lies
        # beyond the last nonzero outcome.
        probs = np.zeros(16)
        probs[:3] = [0.23936944299295215, 0.8764842308107038, 0.05856803480519435]
        monkeypatch.setattr(np.random, "PCG64", raw_word_stream([2**64 - 1] * 5))
        record = sample_outcomes(CoincidenceTable(2, probs.reshape((2,) * 4)), shots=5, seed=0)
        assert record.counts.reshape(-1).tolist() == [0, 0, 5] + [0] * 13

    def test_all_zero_table_rejected(self):
        with pytest.raises(ValueError):
            sample_outcomes(CoincidenceTable(2, np.zeros((2,) * 4)), shots=1, seed=0)

    def test_chunk_loop_continues_one_stream(self, monkeypatch):
        # A chunk of 7 uniforms splits 1000 shots into 143 draws, the last short.
        monkeypatch.setattr(cl, "_CHUNK", 7)
        table = mix_with_white_noise(self.make_table(3, 1, 2), 0.2)
        record = sample_outcomes(table, shots=1000, seed=77)
        expected = oracles.naive_sample_counts(table.probs, 1000, 77)
        assert np.array_equal(record.counts.reshape(-1), expected)

    def test_draws_on_and_beside_cdf_values(self, monkeypatch):
        # CDF values on cell edges (0.25, 0.5) and inside a cell (0.6, an odd
        # multiple of 2**-53), each drawn exactly and 2**-53 to either side,
        # the generator's resolution, across chunks of 5. Draw k is the word
        # (k << 11) | low: the sampler must use all 53 high bits and ignore
        # the 11 low bits, which random() drops.
        probs = np.zeros(16)
        probs[[2, 5, 6, 11]] = [0.25, 0.25, 0.1, 0.4]
        cdf = np.cumsum(probs / probs.sum())[[2, 5, 6]]
        steps = [int(v * 2**53) for v in cdf]
        assert [k * 2.0**-53 for k in steps] == cdf.tolist()
        assert steps[2] % 2 == 1
        draws = [0, 2**53 - 1] + [k + delta for k in steps for delta in (-1, 0, 1)]
        words = [(k << 11) | low for k, low in zip(draws, [0, 0x7FF, 1, 0x400] * 3)]
        monkeypatch.setattr(np.random, "PCG64", raw_word_stream(words))
        monkeypatch.setattr(cl, "_CHUNK", 5)
        table = CoincidenceTable(2, probs.reshape((2,) * 4))
        record = sample_outcomes(table, shots=len(words), seed=0)
        expected = oracles.naive_search_counts(probs, [k * 2.0**-53 for k in draws])
        assert np.array_equal(record.counts.reshape(-1), expected)

    def test_memory_does_not_grow_with_shots(self):
        # One search of all draws at once holds 16 bytes per shot (61 MiB here).
        table = mix_with_white_noise(self.make_table(6, 2, 3), 0.5)
        tracemalloc.start()
        try:
            record = sample_outcomes(table, shots=4 * 10**6, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert record.counts.sum() == 4 * 10**6
        assert peak < 4 * 2**20


def random_table(rng: np.random.Generator, d: int, kind: str) -> np.ndarray:
    """Seeded probability table of one of three shapes, possibly unnormalised."""
    n = d**4
    if kind == "uniform":
        probs = rng.random(n)
    elif kind == "heavy":
        # Pareto weights over many orders of magnitude, with tiny and zero entries.
        probs = rng.pareto(0.5, n)
        probs[rng.random(n) < 0.3] *= 1e-200
        probs[rng.random(n) < 0.3] = 0.0
    else:
        # Equal weights on 2**k outcomes: every CDF value lies on a cell edge.
        probs = np.zeros(n)
        size = 2 ** rng.integers(0, int(np.log2(n)) + 1)
        probs[rng.choice(n, size=size, replace=False)] = 1.0
    if not probs.any():
        probs[rng.integers(n)] = 1.0
    return probs.reshape((d,) * 4)


class TestSamplerOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 6),
        kind=st.sampled_from(["uniform", "heavy", "dyadic"]),
        table_seed=st.integers(0, 2**32 - 1),
        shots=st.sampled_from([1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_counts_equal_one_shot_search(self, d, kind, table_seed, shots, seed):
        probs = random_table(np.random.default_rng(table_seed), d, kind)
        record = sample_outcomes(CoincidenceTable(d, probs), shots=shots, seed=seed)
        counts = record.counts.reshape(-1)
        assert np.array_equal(counts, oracles.naive_sample_counts(probs, shots, seed))
        assert counts.sum() == shots
        assert not counts[probs.reshape(-1) == 0.0].any()

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(3, 6),
        table_seed=st.integers(0, 2**32 - 1),
        shots=st.integers(4000, 6000),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_buffer_flushes_mid_call(self, d, table_seed, shots, seed):
        # Chunks of 8 words and a uniform table, whose CDF splits hundreds of
        # cells: the split-cell buffer of 8 words fills and is searched several
        # times within one call, and the counts still equal the one-shot search.
        probs = random_table(np.random.default_rng(table_seed), d, "uniform")
        searches = []
        search = cl._search_sorted

        def counted(words, cdf, hits):
            searches.append(words.size)
            search(words, cdf, hits)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cl, "_CHUNK", 8)
            patch.setattr(cl, "_search_sorted", counted)
            record = sample_outcomes(CoincidenceTable(d, probs), shots=shots, seed=seed)
        assert len(searches) >= 3 and max(searches) <= 8
        counts = record.counts.reshape(-1)
        assert np.array_equal(counts, oracles.naive_sample_counts(probs, shots, seed))


class TestArgumentDomain:
    """d is stored as the plain int check_dimension returns; shots and seed must be integers."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda d: DecodingTable(d, build_decoding_table(2, LITERAL_CONVENTION).classes),
            lambda d: CoincidenceTable(d, np.full((2,) * 4, 1 / 16)),
        ],
        ids=["decoding", "coincidence"],
    )
    def test_value_types_store_the_checked_dimension(self, build):
        assert type(build(np.int64(2)).d) is int
        with pytest.raises(ValueError, match="dimension must be an integer, got 2.0"):
            build(2.0)

    def test_decoding_table_checks_its_dimension(self):
        assert type(build_decoding_table(np.int64(3), LITERAL_CONVENTION).d) is int
        with pytest.raises(ValueError, match="outside the supported range"):
            build_decoding_table(0, LITERAL_CONVENTION)

    def test_shots_must_be_an_integer_and_the_seed_non_negative(self):
        table = CoincidenceTable(2, np.full((2,) * 4, 1 / 16))
        with pytest.raises(ValueError, match="^shots must be an integer, got '5'$"):
            sample_outcomes(table, "5", 0)
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            sample_outcomes(table, 10, -1)

    @pytest.mark.parametrize("seed", [None, 1.5, "3", np.float64(2.0)])
    def test_seed_must_be_an_integer(self, seed):
        # numpy seeds PCG64(None) from the operating system, so two such runs differ.
        table = CoincidenceTable(2, np.full((2,) * 4, 1 / 16))
        with pytest.raises(ValueError) as info:
            sample_outcomes(table, 10, seed)
        assert str(info.value) == f"seed must be an integer, got {seed!r}"
