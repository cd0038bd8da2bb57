import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdbsm import decomposition, states
from hdbsm.core import State, fidelity
from hdbsm.decomposition import (
    DecompositionTable,
    IndexLaw,
    NoAffineLawError,
    NoMatchingConventionError,
    PhaseNotRootOfUnityError,
    decompose,
    decompose_all,
    find_convention,
    fit_index_law,
    fit_phase_law,
    hyperentangled_state,
    pair_coefficients,
    reconstruct,
    reference_index_law,
)
from hdbsm.classifier import build_decoding_table, decoding_table_from_law
from hdbsm.states import (
    ALL_CONVENTIONS,
    BellIndex,
    LITERAL_CONVENTION,
    PhaseConvention,
    REFERENCE_CONVENTION,
)

import oracles

BOTH_MAIN = [LITERAL_CONVENTION, REFERENCE_CONVENTION]


class TestHyperentangledState:
    @pytest.mark.parametrize("conv", ALL_CONVENTIONS, ids=lambda c: c.label())
    def test_matches_naive_joint(self, conv):
        got = hyperentangled_state(3, 2, 1, conv).nonzero(tol=1e-12)
        expected = oracles.naive_joint(3, 2, 1, conv.bell_sign, conv.decomp_sign)
        assert set(got) == set(expected)
        for label in expected:
            assert abs(got[label] - expected[label]) < 1e-12

    def test_factor_order_groups_particles(self):
        # B system, B auxiliary, A system, A auxiliary: support labels are
        # (n, p, (n+j) mod d, p)
        state = hyperentangled_state(3, 0, 1, LITERAL_CONVENTION)
        for (bs, ba, asys, aa) in state.nonzero():
            assert asys == (bs + 1) % 3
            assert aa == ba


class TestDecompose:
    def test_literal_origin_support(self):
        # matches the reference table's first row exactly (both conventions
        # agree on this row)
        table = decompose(3, 0, 0, LITERAL_CONVENTION)
        assert table.support() == {
            (0, 0, 0, 0), (1, 0, 2, 0), (2, 0, 1, 0),
            (0, 1, 0, 1), (1, 1, 2, 1), (2, 1, 1, 1),
            (0, 2, 0, 2), (1, 2, 2, 2), (2, 2, 1, 2),
        }

    def test_literal_i1_support_differs_from_reference_row(self):
        # the literal signs give k' = (i - k) mod 3, not the printed row
        table = decompose(3, 1, 0, LITERAL_CONVENTION)
        assert table.support() == {(k, m, (1 - k) % 3, m) for k in range(3) for m in range(3)}

    @pytest.mark.parametrize("conv", ALL_CONVENTIONS, ids=lambda c: c.label())
    def test_matches_naive_oracle_d3(self, conv):
        for i in range(3):
            for j in range(3):
                got = decompose(3, i, j, conv)
                expected = oracles.naive_sum_decompose(
                    3, i, j, conv.bell_sign, conv.decomp_sign
                )
                assert set(got.entries) == set(expected)
                for key in expected:
                    assert abs(got.entries[key] - expected[key]) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(2, 6),
        conv=st.sampled_from(ALL_CONVENTIONS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pair_coefficients_match_naive_inner_products(self, d, conv, seed):
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal(d**4) + 1j * rng.standard_normal(d**4)
        state = State((d,) * 4, amps / np.linalg.norm(amps))
        got = pair_coefficients(state, conv)
        labels = np.ndindex(*state.radices)
        expected = oracles.naive_pair_coefficients(
            d, {label: state.amplitude(label) for label in labels}, conv.decomp_sign
        )
        for key, coeff in expected.items():
            assert abs(got[key] - coeff) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("conv", BOTH_MAIN, ids=lambda c: c.label())
    def test_structure_invariants(self, d, conv):
        for bell, table in decompose_all(d, conv).items():
            assert len(table.entries) == d * d
            assert abs(table.squared_weight() - 1.0) < 1e-9
            for (k, m, kp, mp), coeff in table.entries.items():
                assert abs(abs(coeff) - 1 / d) < 1e-9
                assert mp == (m + bell.j) % d

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_sector_disjointness(self, d):
        conv = REFERENCE_CONVENTION
        seen: dict = {}
        for bell, table in decompose_all(d, conv).items():
            for key in table.entries:
                assert key not in seen, f"{key} shared by {seen.get(key)} and {bell}"
                seen[key] = bell
        assert len(seen) == d**4

    @pytest.mark.parametrize("conv", BOTH_MAIN, ids=lambda c: c.label())
    def test_parseval_reconstruction(self, conv):
        for (d, i, j) in [(2, 1, 1), (3, 2, 1), (4, 2, 3)]:
            table = decompose(d, i, j, conv)
            rebuilt = reconstruct(table)
            assert fidelity(rebuilt, hyperentangled_state(d, i, j, conv)) > 1 - 1e-9

    def test_d2_conventions_degenerate(self):
        tables = [decompose_all(2, conv) for conv in ALL_CONVENTIONS]
        reference = tables[0]
        for other in tables[1:]:
            for bell in reference:
                assert reference[bell].support() == other[bell].support()
                for key, coeff in reference[bell].entries.items():
                    assert abs(coeff - other[bell].entries[key]) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("conv", ALL_CONVENTIONS, ids=lambda c: c.label())
    def test_bits_and_order_match_per_state_path(self, d, conv):
        def hexes(entries):
            return [(c.real.hex(), c.imag.hex()) for c in entries.values()]

        tables = decompose_all(d, conv)
        for i in range(d):
            for j in range(d):
                expected = oracles.naive_decompose(d, i, j, conv)
                for got in (decompose(d, i, j, conv), tables[BellIndex(i, j)]):
                    assert list(got.entries) == list(expected)
                    assert hexes(got.entries) == hexes(expected)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_single_basis_rows_are_decomposition_states(self, d, sign):
        stacked = np.stack(
            [oracles.loop_decomp_amps(d, k, m, sign) for k in range(d) for m in range(d)]
        )
        assert states.decomp_basis(d, sign).tobytes() == stacked.tobytes()

    @pytest.mark.parametrize(
        "key",  # flat pair indices, coefficients, message
        [
            ([-1], [1.0], "pair index outside [0, 81) at d=3"),
            ([81], [1.0], "pair index outside [0, 81) at d=3"),
            ([0, 80], [1.0], "1 coefficients for 2 pair indices"),
            ([5, 5], [0.5, 0.5], "repeated pair index in [5, 5]"),
        ],
    )
    def test_hand_built_table_rejects_bad_key(self, key):
        flat, coeffs, message = key
        with pytest.raises(ValueError) as info:
            DecompositionTable(
                3, BellIndex(0, 0), LITERAL_CONVENTION,
                np.array(flat, dtype=np.intp), np.array(coeffs, dtype=np.complex128),
            )
        assert str(info.value) == message

    def test_decompose_and_decompose_all_share_tables(self):
        tables = decompose_all(4, REFERENCE_CONVENTION)
        assert decompose(4, 2, 3, REFERENCE_CONVENTION) is tables[BellIndex(2, 3)]

    def test_shared_entries_are_read_only(self):
        entries = decompose(3, 1, 2, REFERENCE_CONVENTION).entries
        with pytest.raises(TypeError):
            entries[(0, 0, 0, 0)] = 1.0
        with pytest.raises(TypeError):
            del entries[next(iter(entries))]

    @pytest.mark.parametrize(
        "d, i, j, message",
        [
            (3, -1, 0, "i=-1 out of range for dimension 3"),
            (3, 3, 0, "i=3 out of range for dimension 3"),
            (3, 0, -1, "j=-1 out of range for dimension 3"),
            (3, 0, 3, "j=3 out of range for dimension 3"),
            (7, 0, 0, "dimension 7 outside the supported range (2..6)"),
            (7, 9, 9, "dimension 7 outside the supported range (2..6)"),
        ],
        ids=["-1-0", "3-0", "0--1", "0-3", "7-0-0", "7-9-9"],
    )
    def test_rejects_out_of_range_bell_index(self, d, i, j, message):
        with pytest.raises(ValueError) as info:
            decompose(d, i, j, REFERENCE_CONVENTION)
        assert str(info.value) == message

    def test_rejects_large_dimension(self):
        with pytest.raises(ValueError):
            decompose(7, 0, 0, LITERAL_CONVENTION)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError, match=r"supported range \(2\.\.6\)"):
            decompose(1, 0, 0, LITERAL_CONVENTION)


class TestIndexLaw:
    def test_d2_law(self):
        law = fit_index_law(decompose_all(2, LITERAL_CONVENTION))
        assert (law.s, law.t) == (1, 1)
        assert law.m_law_holds

    def test_d3_literal_law(self):
        law = fit_index_law(decompose_all(3, LITERAL_CONVENTION))
        assert (law.s, law.t) == (2, 1)

    def test_d3_reference_convention_law(self):
        law = fit_index_law(decompose_all(3, REFERENCE_CONVENTION))
        assert (law.s, law.t) == (2, 2)
        assert law == reference_index_law(3)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_reference_law_at_higher_d(self, d):
        law = fit_index_law(decompose_all(d, REFERENCE_CONVENTION))
        assert (law.s, law.t) == (d - 1, d - 1)

    def test_incomplete_tables_rejected(self):
        tables = dict(decompose_all(3, LITERAL_CONVENTION))
        tables.pop(BellIndex(0, 0))
        with pytest.raises(ValueError):
            fit_index_law(tables)

    def test_non_affine_support_detected(self):
        tables = dict(decompose_all(3, LITERAL_CONVENTION))
        doctored = tables[BellIndex(0, 0)]
        entries = dict(doctored.entries)
        coeff = entries.pop((0, 0, 0, 0))
        entries[(0, 0, 2, 0)] = coeff  # break the affine pattern
        tables[BellIndex(0, 0)] = oracles.hand_built_table(
            3, BellIndex(0, 0), LITERAL_CONVENTION, entries
        )
        with pytest.raises(NoAffineLawError) as info:
            fit_index_law(tables)
        assert str(info.value) == "support is not affine in (k, i) at d=3"

    def test_ambiguous_law_message(self):
        # k = k' = 0 everywhere: t*i = 0 forces t = 0 and leaves s free
        ambiguous = {
            BellIndex(i, j): oracles.hand_built_table(
                3, BellIndex(i, j), LITERAL_CONVENTION, {(0, 0, 0, j): 1 / 3}
            )
            for i in range(3)
            for j in range(3)
        }
        with pytest.raises(NoAffineLawError) as info:
            fit_index_law(ambiguous)
        assert str(info.value) == "ambiguous affine law at d=3: [(0, 0), (1, 0), (2, 0)]"

    def test_decode_inverts_law(self):
        for d in (2, 3, 4, 5):
            law = fit_index_law(decompose_all(d, REFERENCE_CONVENTION))
            decoding = decoding_table_from_law(law)
            for i in range(d):
                for j in range(d):
                    for k in range(d):
                        for m in range(d):
                            key = (k, m, law.alice_k(k, i), law.alice_m(m, j))
                            assert (decoding.bell_i[key], decoding.bell_j[key]) == (i, j)


class TestPhaseLaw:
    @pytest.mark.parametrize("conv", BOTH_MAIN, ids=lambda c: c.label())
    def test_origin_phases_vanish(self, conv):
        law = fit_phase_law(decompose_all(3, conv))
        for (k, m, i, j), r in law.table.items():
            if i == 0 and j == 0:
                assert r == 0

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("conv", ALL_CONVENTIONS, ids=lambda c: c.label())
    def test_closed_form_is_conjugate_alice_ramp(self, d, conv):
        # fitted form r = u*k'*j + v*i*j + w with u the negated decomposition
        # sign, v = w = 0: the phase rides on Alice's k' times j only
        law = fit_phase_law(decompose_all(d, conv))
        assert law.closed_form == ((-conv.decomp_sign) % d, 0, 0)

    def test_phases_independent_of_bell_phase_index_when_j_zero(self):
        # all j = 0 coefficients are real positive under every convention
        for conv in ALL_CONVENTIONS:
            for i in range(3):
                table = decompose(3, i, 0, conv)
                for coeff in table.entries.values():
                    assert abs(coeff.imag) < 1e-12
                    assert coeff.real > 0

    def test_recorded_phase_reproduces_coefficient(self):
        conv = REFERENCE_CONVENTION
        tables = decompose_all(4, conv)
        law = fit_phase_law(tables)
        for bell, table in tables.items():
            for (k, m, kp, mp), coeff in table.entries.items():
                r = law.table[(k, m, bell.i, bell.j)]
                predicted = np.exp(2j * np.pi * r / 4) / 4
                assert abs(coeff - predicted) < 1e-9

    def test_magnitudes_uniform(self):
        for d in (2, 3, 4, 5):
            for table in decompose_all(d, REFERENCE_CONVENTION).values():
                for coeff in table.entries.values():
                    assert abs(abs(coeff) - 1 / d) < 1e-9

    def test_non_root_of_unity_detected(self):
        tables = dict(decompose_all(3, LITERAL_CONVENTION))
        doctored = tables[BellIndex(1, 1)]
        entries = dict(doctored.entries)
        key = next(iter(entries))
        entries[key] = entries[key] * np.exp(0.1j)
        tables[BellIndex(1, 1)] = oracles.hand_built_table(
            3, BellIndex(1, 1), LITERAL_CONVENTION, entries
        )
        with pytest.raises(PhaseNotRootOfUnityError):
            fit_phase_law(tables)


class TestFindConvention:
    def test_d3_matching_set(self):
        search = find_convention(3)
        assert set(search.matching) == {PhaseConvention(1, -1), PhaseConvention(-1, 1)}
        assert LITERAL_CONVENTION not in search.matching
        assert search.preferred == REFERENCE_CONVENTION
        assert search.laws[search.preferred] == reference_index_law(3)

    def test_d3_literal_law_recorded(self):
        search = find_convention(3)
        assert (search.laws[LITERAL_CONVENTION].s, search.laws[LITERAL_CONVENTION].t) == (2, 1)

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_higher_dimensions(self, d):
        search = find_convention(d)
        assert search.laws[search.preferred] == reference_index_law(d)
        assert search.preferred == REFERENCE_CONVENTION

    def test_d2_rejected(self):
        with pytest.raises(ValueError):
            find_convention(2)

    def test_cold_d6_search_peaks_under_1_mb(self):
        for cached in (
            decomposition._decompose_row,
            decomposition._row_layout,
            states.decomp_basis,
        ):
            cached.cache_clear()
        tracemalloc.start()
        try:
            find_convention(6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_top_of_supported_range_structure(self):
        # d = 6 is the largest supported dimension
        tables = decompose_all(6, REFERENCE_CONVENTION)
        for bell, table in tables.items():
            assert len(table.entries) == 36
            assert abs(table.squared_weight() - 1.0) < 1e-9


class TestIndexLawDecodeErrors:
    def test_non_invertible_t_rejected(self):
        law = IndexLaw(d=4, s=3, t=2, m_law_holds=True)
        with pytest.raises(ValueError):
            decoding_table_from_law(law)


class TestExactOracle:
    """Supports, phases, laws and decoding against exact cyclotomic arithmetic."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("conv", ALL_CONVENTIONS, ids=lambda c: c.label())
    def test_supports_and_phase_integers(self, d, conv):
        exact = oracles.exact_decomposition(d, conv.bell_sign, conv.decomp_sign)
        for bell, table in decompose_all(d, conv).items():
            assert dict(zip(table.entries, table.phase_ints().tolist())) == exact[bell]

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("conv", ALL_CONVENTIONS, ids=lambda c: c.label())
    def test_fitted_laws(self, d, conv):
        exact = oracles.exact_decomposition(d, conv.bell_sign, conv.decomp_sign)
        tables = decompose_all(d, conv)
        fits, m_ok = oracles.loop_fit_index_law(d, exact)
        assert len(fits) == 1
        assert fit_index_law(tables) == IndexLaw(d, *fits[0], m_ok)
        phase_law = fit_phase_law(tables)
        assert (phase_law.table, phase_law.closed_form) == oracles.loop_fit_phase_law(d, exact)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("conv", ALL_CONVENTIONS, ids=lambda c: c.label())
    def test_decoding_table(self, d, conv):
        exact = oracles.exact_decomposition(d, conv.bell_sign, conv.decomp_sign)
        bell_i = np.full((d,) * 4, -1)
        bell_j = np.full((d,) * 4, -1)
        for (i, j), entries in exact.items():
            for key in entries:
                bell_i[key], bell_j[key] = i, j
        law = fit_index_law(decompose_all(d, conv))
        for table in (build_decoding_table(d, conv), decoding_table_from_law(law)):
            assert np.array_equal(table.bell_i, bell_i)
            assert np.array_equal(table.bell_j, bell_j)


    # Worst case measured under the SkylakeX, Haswell and Prescott OpenBLAS
    # kernels: 24.6 ulp(1/d), at d = 6, convention -+, Bell (2, 3), pair (5, 0, 5, 3).
    ULP_BOUND = 32

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("conv", ALL_CONVENTIONS, ids=lambda c: c.label())
    def test_coefficients_within_ulp_bound(self, d, conv):
        exact = oracles.exact_decomposition(d, conv.bell_sign, conv.decomp_sign)
        bound = self.ULP_BOUND * math.ulp(1 / d)
        for bell, table in decompose_all(d, conv).items():
            for key, r in exact[bell].items():
                angle = 2 * math.pi * r / d
                coeff = table.entries[key]
                assert abs(coeff.real - math.cos(angle) / d) <= bound
                assert abs(coeff.imag - math.sin(angle) / d) <= bound

class TestHandBuiltFits:
    """Both fits on hand-built tables, against the one-tuple-at-a-time loops."""

    @staticmethod
    def random_tables(d, seed):
        """Random supports, some obeying a random affine law, with random or closed-form phases.

        Keys are inserted in random order and may repeat (k, m) with another
        (k', m'), so the phase table keeps the last in sorted order.
        """
        rng = np.random.default_rng(seed)
        s, t, u, v, w = rng.integers(d, size=5).tolist()
        affine = rng.random() < 0.5
        closed = rng.random() < 0.5
        tables, phases = {}, {}
        for i in range(d):
            for j in range(d):
                keys = set()
                for _ in range(rng.integers(1, d * d + 1)):
                    k, m, kp, mp = rng.integers(d, size=4).tolist()
                    if affine:
                        kp, mp = (s * k + t * i) % d, (m + j) % d
                    keys.add((k, m, kp, mp))
                keys = sorted(keys)
                rng.shuffle(keys)
                phase = {
                    key: (u * key[2] * j + v * i * j + w) % d if closed else int(rng.integers(d))
                    for key in keys
                }
                entries = {key: np.exp(2j * np.pi * r / d) / d for key, r in phase.items()}
                tables[BellIndex(i, j)] = oracles.hand_built_table(
                    d, BellIndex(i, j), LITERAL_CONVENTION, entries
                )
                phases[(i, j)] = phase
        return tables, phases

    @settings(max_examples=80, deadline=None)
    @given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_index_law(self, d, seed):
        tables, phases = self.random_tables(d, seed)
        fits, m_ok = oracles.loop_fit_index_law(d, phases)
        if len(fits) == 1:
            assert fit_index_law(tables) == IndexLaw(d, *fits[0], m_ok)
        else:
            with pytest.raises(NoAffineLawError) as info:
                fit_index_law(tables)
            if fits:
                assert str(info.value) == f"ambiguous affine law at d={d}: {fits}"
            else:
                assert str(info.value) == f"support is not affine in (k, i) at d={d}"

    @settings(max_examples=80, deadline=None)
    @given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_phase_law(self, d, seed):
        tables, phases = self.random_tables(d, seed)
        law = fit_phase_law(tables)
        assert (law.table, law.closed_form) == oracles.loop_fit_phase_law(d, phases)
