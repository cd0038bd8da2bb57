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
    classify,
    classify_table,
    coincidence_probabilities,
    decoding_table_from_law,
    mix_with_white_noise,
    sample_outcomes,
)
from hdbsm.core import LOGIC_TOL, State, tensor_product
from hdbsm.decomposition import (
    decompose_all,
    fit_index_law,
    hyperentangled_state,
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


class TestDecodingTable:
    def test_d2_closed_form(self):
        # i = (k + k') mod 2 and j = (m' - m) mod 2 on all 16 pairs
        table = build_decoding_table(2, LITERAL_CONVENTION)
        k, m, kp, mp = np.indices((2,) * 4)
        assert np.array_equal(table.bell_i, (k + kp) % 2)
        assert np.array_equal(table.bell_j, (mp - m) % 2)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("conv", BOTH_MAIN, ids=lambda c: c.label())
    def test_partition(self, d, conv):
        table = build_decoding_table(d, conv)
        for i in range(d):
            for j in range(d):
                assert np.count_nonzero((table.bell_i == i) & (table.bell_j == j)) == d * d
        assert (table.bell_i != UNREACHABLE).all()

    def test_origin_pair_decodes_to_origin(self):
        table = build_decoding_table(3, REFERENCE_CONVENTION)
        assert (table.bell_i[0, 0, 0, 0], table.bell_j[0, 0, 0, 0]) == (0, 0)

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
        tables[BellIndex(1, 0)] = oracles.hand_built_table(
            2, BellIndex(1, 0), LITERAL_CONVENTION, doctored
        )
        monkeypatch.setattr(cl, "decompose_all", lambda d, conv: tables)
        with pytest.raises(CollisionError):
            build_decoding_table(2, LITERAL_CONVENTION)


class TestCoincidenceTable:
    @pytest.mark.parametrize("bad", [-1e-18, -1.0, np.nan, np.inf, -np.inf])
    def test_bad_entry_rejected(self, bad):
        probs = np.full((2,) * 4, 1 / 16)
        probs[1, 0, 1, 1] = bad
        with pytest.raises(ValueError):
            CoincidenceTable(2, probs)

    def test_negative_zero_accepted(self):
        probs = np.zeros((2,) * 4)
        probs[0, 0, 0, 0] = 1.0
        probs[1, 1, 1, 1] = -0.0
        assert CoincidenceTable(2, probs).total() == 1.0

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
        decoding = build_decoding_table(3, conv)
        in_class = (decoding.bell_i == 0) & (decoding.bell_j == 0)
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

    @pytest.mark.parametrize("defect", ["unreachable", "moved", "j-out-of-range"])
    def test_rejects_decoding_that_is_not_a_partition(self, defect):
        d = 3
        good = build_decoding_table(d, REFERENCE_CONVENTION)
        bell_i, bell_j = good.bell_i.copy(), good.bell_j.copy()
        key = tuple(int(x) for x in np.argwhere((bell_i == 0) & (bell_j == d - 1))[0])
        if defect == "unreachable":
            bell_i[key] = bell_j[key] = UNREACHABLE
        elif defect == "moved":
            bell_i[key], bell_j[key] = 1, 1
        else:
            # i*d + j still names class (0, d-1), so only the range check sees it
            bell_i[key], bell_j[key] = 1, -1
        decoding = DecodingTable(d, None, bell_i, bell_j)
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
