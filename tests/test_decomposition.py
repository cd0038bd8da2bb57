import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hdbsm import decomposition, states
from hdbsm.core import InvariantError, State, permute_factors, tensor_product
from hdbsm.decomposition import (
    DecompositionTable,
    IndexLaw,
    NoAffineLawError,
    NoMatchingConventionError,
    PhaseNotRootOfUnityError,
    _decompose_row,
    decompose,
    decompose_all,
    find_convention,
    fit_index_law,
    fit_phase_law,
    hyperentangled_state,
    pair_coefficients,
    pair_product,
    reference_index_law,
)
from hdbsm.classifier import build_decoding_table, decoding_table_from_law
from hdbsm.optics import bsa_layout, pipeline_probabilities
from hdbsm.states import (
    ALL_CONVENTIONS,
    BellIndex,
    LITERAL_CONVENTION,
    PhaseConvention,
    REFERENCE_CONVENTION,
    aux_state,
    bell_state,
)

import oracles

BOTH_MAIN = [LITERAL_CONVENTION, REFERENCE_CONVENTION]


# Two LOGIC_TOL sides, first in the file so that pytest -x reaches them early. No
# real input reaches them, so each test moves the bound to 0 in this module: a
# wrapped phase residual is a multiple of 2**-51 near 0 and LOGIC_TOL is not, and a
# pair coefficient is either about 1/d or rounding noise. Exact zeros reach a bound of 0.


def test_phase_residual_at_logic_tol_is_a_root_of_unity(monkeypatch):
    monkeypatch.setattr(decomposition, "LOGIC_TOL", 0.0)
    assert decomposition._phase_ints(np.array([1.0 + 0j]), 3).tolist() == [0]
    with pytest.raises(decomposition.PhaseNotRootOfUnityError):
        decomposition._phase_ints(np.array([np.exp(1e-3j)]), 3)


def test_support_is_strictly_above_logic_tol(monkeypatch):
    # The pairs with m' != m + j are exact zeros, so at d = 2 each table keeps 8 of 16.
    monkeypatch.setattr(decomposition, "LOGIC_TOL", 0.0)
    for table in _decompose_row.__wrapped__(2, 0, 1, 1):
        assert table.flat_support.size == 8
        assert np.all(table.coeffs != 0)


@pytest.mark.parametrize(
    "error", [NoAffineLawError, NoMatchingConventionError, PhaseNotRootOfUnityError]
)
def test_structural_errors_are_invariant_errors(error):
    # The CLI exits 1 with one line on any InvariantError.
    assert issubclass(error, InvariantError)


class TestHyperentangledState:
    @pytest.mark.parametrize("conv", ALL_CONVENTIONS, ids=lambda c: c.label())
    def test_matches_naive_joint(self, conv):
        got = oracles.nonzero(hyperentangled_state(3, 2, 1, conv), tol=1e-12)
        expected = oracles.naive_joint(3, 2, 1, conv.bell_sign, conv.decomp_sign)
        assert set(got) == set(expected)
        for label in expected:
            assert abs(got[label] - expected[label]) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_equals_the_composition(self, d):
        # The reference construction: Bell state (i, j) times the auxiliary
        # state, factors regrouped per particle.
        for conv, i, j in itertools.product(ALL_CONVENTIONS, range(d), range(d)):
            joint = tensor_product(bell_state(d, i, j, conv), aux_state(d))
            expected = permute_factors(joint, (0, 2, 1, 3))
            got = hyperentangled_state(d, i, j, conv)
            assert got.radices == expected.radices
            assert np.array_equal(got.amps, expected.amps)

    def test_factor_order_groups_particles(self):
        # B system, B auxiliary, A system, A auxiliary: support labels are
        # (n, p, (n+j) mod d, p)
        state = hyperentangled_state(3, 0, 1, LITERAL_CONVENTION)
        for (bs, ba, asys, aa) in oracles.nonzero(state):
            assert asys == (bs + 1) % 3
            assert aa == ba


class TestDecompose:
    def test_literal_origin_support(self):
        # matches the reference table's first row exactly (both conventions
        # agree on this row)
        table = decompose(3, 0, 0, LITERAL_CONVENTION)
        assert set(oracles.table_entries(table)) == {
            (0, 0, 0, 0), (1, 0, 2, 0), (2, 0, 1, 0),
            (0, 1, 0, 1), (1, 1, 2, 1), (2, 1, 1, 1),
            (0, 2, 0, 2), (1, 2, 2, 2), (2, 2, 1, 2),
        }

    def test_literal_i1_support_differs_from_reference_row(self):
        # the literal signs give k' = (i - k) mod 3, not the printed row
        table = decompose(3, 1, 0, LITERAL_CONVENTION)
        support = set(oracles.table_entries(table))
        assert support == {(k, m, (1 - k) % 3, m) for k in range(3) for m in range(3)}

    @pytest.mark.parametrize("conv", ALL_CONVENTIONS, ids=lambda c: c.label())
    def test_matches_naive_oracle_d3(self, conv):
        for i in range(3):
            for j in range(3):
                got = oracles.table_entries(decompose(3, i, j, conv))
                expected = oracles.naive_sum_decompose(
                    3, i, j, conv.bell_sign, conv.decomp_sign
                )
                assert set(got) == set(expected)
                for key in expected:
                    assert abs(got[key] - expected[key]) < 1e-12

    # Bob's and Alice's rows of the (d, d, d, d) product both come from the
    # basis untransposed: a product state maps to the product of the two images.
    def test_pair_product_maps_a_product_state_to_the_product_of_its_images(self):
        rng = np.random.default_rng(5)
        basis, bob, alice = (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for shape in ((9, 9), 9, 9)
        )
        stack = np.multiply.outer(bob, alice).reshape(1, 3, 3, 3, 3)
        expected = np.multiply.outer(basis @ bob, basis @ alice).reshape(1, 3, 3, 3, 3)
        assert np.allclose(pair_product(stack, basis), expected, rtol=0, atol=1e-12)

    # Each state of a stack is projected as it would be alone, every bit of it,
    # the sign of an exact zero included, under conj(S) and under each analyser U.
    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 6),
        conv=st.sampled_from(ALL_CONVENTIONS),
        analyser=st.booleans(),
        data=st.data(),
    )
    def test_pair_product_projects_each_state_of_a_stack_as_alone(self, d, conv, analyser, data):
        n = data.draw(st.integers(1, d), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        stack = rng.standard_normal((n,) + (d,) * 4) + 1j * rng.standard_normal((n,) + (d,) * 4)
        stack[rng.random(stack.shape) < 0.5] = 0
        if analyser:
            basis = bsa_layout(d, conv).unitary
        else:
            basis = states.decomp_basis(d, conv.decomp_sign).conj()
        got = pair_product(stack, basis)
        assert got.shape == stack.shape
        for k in range(n):
            assert got[k].tobytes() == pair_product(stack[k : k + 1], basis)[0].tobytes()

    @pytest.mark.parametrize(
        "shape", [(3, 3, 3, 3), (2, 3, 3, 3, 2), (1, 3, 3, 3), (1, 3, 3, 3, 3, 3)]
    )
    def test_pair_product_rejects_a_stack_of_another_shape(self, shape):
        with pytest.raises(ValueError) as info:
            pair_product(np.zeros(shape, dtype=complex), np.eye(9))
        assert str(info.value) == f"expected shape (3, 3, 3, 3), got {shape[1:]}"

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(2, 6),
        conv=st.sampled_from(ALL_CONVENTIONS),
        seed=st.integers(0, 2**32 - 1),
    )
    # At d = 2 conj(S) equals S; a d = 3 case up front fails a conj(S) slip without a search.
    @example(d=3, conv=REFERENCE_CONVENTION, seed=0)
    def test_pair_coefficients_match_naive_inner_products(self, d, conv, seed):
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal(d**4) + 1j * rng.standard_normal(d**4)
        state = State((d,) * 4, amps / np.linalg.norm(amps))
        got = pair_coefficients(state, conv)
        labels = np.ndindex(*state.radices)
        expected = oracles.naive_pair_coefficients(
            d, {label: state.reshaped()[label] for label in labels}, conv.decomp_sign
        )
        for key, coeff in expected.items():
            assert abs(got[key] - coeff) < 1e-12

    # A factor short, or unequal radices: both pair products name the shape they
    # expected from their basis, whose d is the state's first radix.
    @pytest.mark.parametrize("radices", [(3, 3, 3), (2, 2, 2, 3), (3, 2, 2, 2)])
    def test_pair_coefficients_rejects_bad_shape(self, radices):
        state = State(radices, np.eye(math.prod(radices))[0])
        layout = bsa_layout(radices[0], LITERAL_CONVENTION)
        for call in (
            lambda: pair_coefficients(state, LITERAL_CONVENTION),
            lambda: pipeline_probabilities(state, layout),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"expected shape {(radices[0],) * 4}, got {radices}"

    def test_pair_product_reads_d_from_its_basis(self):
        stack = State((2,) * 4, np.eye(16)[0]).reshaped()[None]
        with pytest.raises(ValueError) as info:
            pair_product(stack, np.eye(9))
        assert str(info.value) == "expected shape (3, 3, 3, 3), got (2, 2, 2, 2)"

    # pair_coefficients builds its basis from the first radix, so that radix
    # meets the dimension check before the shape check.
    @pytest.mark.parametrize("radices", [(8, 2, 2, 2), (7,)])
    def test_pair_coefficients_checks_the_first_radix_as_a_dimension(self, radices):
        state = State(radices, np.eye(math.prod(radices))[0])
        with pytest.raises(ValueError) as info:
            pair_coefficients(state, LITERAL_CONVENTION)
        assert str(info.value) == f"dimension {radices[0]} outside the supported range (2..6)"

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("conv", BOTH_MAIN, ids=lambda c: c.label())
    def test_structure_invariants(self, d, conv):
        for bell, table in decompose_all(d, conv).items():
            entries = oracles.table_entries(table)
            assert len(entries) == d * d
            assert abs(sum(abs(c) ** 2 for c in table.coeffs.tolist()) - 1.0) < 1e-9
            for (k, m, kp, mp), coeff in entries.items():
                assert abs(abs(coeff) - 1 / d) < 1e-9
                assert mp == (m + bell.j) % d

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_sector_disjointness(self, d):
        conv = REFERENCE_CONVENTION
        seen: dict = {}
        for bell, table in decompose_all(d, conv).items():
            for key in oracles.table_entries(table):
                assert key not in seen, f"{key} shared by {seen.get(key)} and {bell}"
                seen[key] = bell
        assert len(seen) == d**4

    @pytest.mark.parametrize("conv", BOTH_MAIN, ids=lambda c: c.label())
    def test_parseval_reconstruction(self, conv):
        # amplitude for amplitude: a fidelity would forgive a global phase
        for (d, i, j) in [(2, 1, 1), (3, 2, 1), (4, 2, 3)]:
            rebuilt = np.zeros((d,) * 4, dtype=np.complex128)
            for (k, m, kp, mp), coeff in oracles.table_entries(decompose(d, i, j, conv)).items():
                for label, amp in oracles.naive_pair(d, k, m, kp, mp, conv.decomp_sign).items():
                    rebuilt[label] += coeff * amp
            expected = hyperentangled_state(d, i, j, conv).reshaped()
            np.testing.assert_allclose(rebuilt, expected, rtol=0, atol=1e-12)

    def test_d2_conventions_degenerate(self):
        tables = [decompose_all(2, conv) for conv in ALL_CONVENTIONS]
        reference = tables[0]
        for other in tables[1:]:
            for bell in reference:
                expected = oracles.table_entries(reference[bell])
                got = oracles.table_entries(other[bell])
                assert set(expected) == set(got)
                for key, coeff in expected.items():
                    assert abs(coeff - got[key]) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("conv", ALL_CONVENTIONS, ids=lambda c: c.label())
    def test_bits_and_order_match_per_state_path(self, d, conv):
        def hexes(entries):
            return [(c.real.hex(), c.imag.hex()) for c in entries.values()]

        tables = decompose_all(d, conv)
        for i in range(d):
            for j in range(d):
                expected = oracles.naive_decompose(d, i, j, conv)
                for table in (decompose(d, i, j, conv), tables[BellIndex(i, j)]):
                    got = oracles.table_entries(table)
                    assert list(got) == list(expected)
                    assert hexes(got) == hexes(expected)

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
                3, BellIndex(0, 0),
                np.array(flat, dtype=np.intp), np.array(coeffs, dtype=np.complex128),
            )
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "flat, coeffs, message",
        [
            # The fits index with flat_support, so these must not reach them.
            (np.array([5.0]), np.ones(1), "flat_support must be a 1-D integer array"),
            (np.array([[5, 6]]), np.ones(2), "flat_support must be a 1-D integer array"),
            ([5], np.ones(1), "flat_support must be a 1-D integer array"),
            (np.array([5, 6]), np.ones((1, 2)), "coeffs must be a 1-D array"),
        ],
        ids=["float", "2-d", "list", "2-d-coeffs"],
    )
    def test_hand_built_table_rejects_bad_arrays(self, flat, coeffs, message):
        with pytest.raises(ValueError) as info:
            DecompositionTable(3, BellIndex(0, 0), flat, coeffs)
        assert str(info.value) == message

    def test_decompose_and_decompose_all_share_tables(self):
        tables = decompose_all(4, REFERENCE_CONVENTION)
        assert decompose(4, 2, 3, REFERENCE_CONVENTION) is tables[BellIndex(2, 3)]

    def test_shared_entries_are_read_only(self):
        table = decompose(3, 1, 2, REFERENCE_CONVENTION)
        with pytest.raises(ValueError, match="read-only"):
            table.flat_support[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            table.coeffs[0] = 1.0

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


class TestArgumentDomain:
    """The entries compute with, cache by and store the plain ints check_dimension returns."""

    def test_numpy_and_bool_indices_find_the_row_cached_for_the_int(self):
        _decompose_row.cache_clear()
        row = decompose(3, 1, 0, REFERENCE_CONVENTION)
        for d, i in ((np.int64(3), 1), (3, np.uint8(1)), (3, True)):
            assert decompose(d, i, 0, REFERENCE_CONVENTION) is row
        assert _decompose_row.cache_info().currsize == 1

    def test_a_numpy_row_builds_with_the_int_basis_and_stores_int_indices(self):
        _decompose_row.cache_clear()
        states._decomp_basis.cache_clear()
        _decompose_row(3, 1, -1, 1)
        tables = _decompose_row(np.int64(3), np.uint64(1), -1, 1)
        assert states.decomp_basis(np.int64(3), np.int64(1)) is states.decomp_basis(3, 1)
        assert states._decomp_basis.cache_info().currsize == 1
        assert {(type(t.d), type(t.bell.i)) for t in tables} == {(int, int)}

    @pytest.mark.parametrize(
        "build",
        [
            lambda d: hyperentangled_state(d, 0, 0, REFERENCE_CONVENTION),
            lambda d: _decompose_row(d, 0, -1, 1),
        ],
        ids=["source", "row"],
    )
    def test_cached_builders_check_a_float_equal_to_a_cached_int(self, build):
        build(3)  # a cache keyed by value alone would hand this entry to 3.0
        with pytest.raises(ValueError, match="dimension must be an integer, got 3.0"):
            build(3.0)

    def test_each_spelling_of_a_sign_finds_the_rows_cached_for_the_int(self):
        _decompose_row.cache_clear()
        for sign in (1, True, np.int64(1)):
            decompose_all(3, PhaseConvention(sign, 1))
        assert _decompose_row.cache_info().currsize == 3

    def test_hyperentangled_state_reads_a_bool_index_as_an_int(self):
        decomposition._hyperentangled_state.cache_clear()  # the bool call builds the entry
        got = hyperentangled_state(3, True, True, REFERENCE_CONVENTION)
        assert got is hyperentangled_state(np.int64(3), 1, 1, REFERENCE_CONVENTION)
        expected = tensor_product(bell_state(3, 1, 1, REFERENCE_CONVENTION), aux_state(3))
        assert np.array_equal(got.amps, permute_factors(expected, (0, 2, 1, 3)).amps)

    def test_a_numpy_dimension_gives_tables_and_a_law_of_int_d(self):
        _decompose_row.cache_clear()
        tables = decompose_all(np.int64(3), REFERENCE_CONVENTION)
        assert {type(table.d) for table in tables.values()} == {int}
        assert type(reference_index_law(np.int64(3)).d) is int

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: decompose_all(0, REFERENCE_CONVENTION), "outside the supported range"),
            (lambda: decompose_all(-1, REFERENCE_CONVENTION), "outside the supported range"),
            (lambda: reference_index_law(1), "outside the supported range"),
            (lambda: reference_index_law(9), "outside the supported range"),
            (lambda: reference_index_law("3"), "dimension must be an integer"),
            (lambda: reference_index_law(3.0), "dimension must be an integer"),
        ],
        ids=["all-0", "all--1", "law-1", "law-9", "law-str", "law-float"],
    )
    def test_dimensions_outside_the_domain_raise_value_error(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_a_float_index_raises_value_error(self):
        with pytest.raises(ValueError, match="^j must be an integer, got "):
            decompose(3, 0, np.float64(1.0), REFERENCE_CONVENTION)

    @pytest.mark.parametrize(
        "build",
        [
            lambda d: DecompositionTable(d, BellIndex(0, 0), np.zeros(1, int), np.ones(1)),
            lambda d: IndexLaw(d, 1, 1, True),
        ],
        ids=["decomposition", "law"],
    )
    def test_value_types_store_the_checked_dimension(self, build):
        assert type(build(np.int64(2)).d) is int
        with pytest.raises(ValueError, match="dimension must be an integer, got 2.0"):
            build(2.0)


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
        entries = oracles.table_entries(tables[BellIndex(0, 0)])
        coeff = entries.pop((0, 0, 0, 0))
        entries[(0, 0, 2, 0)] = coeff  # break the affine pattern
        tables[BellIndex(0, 0)] = oracles.hand_built_table(3, BellIndex(0, 0), entries)
        with pytest.raises(NoAffineLawError) as info:
            fit_index_law(tables)
        assert str(info.value) == "support is not affine in (k, i) at d=3"

    def test_ambiguous_law_message(self):
        # k = k' = 0 everywhere: t*i = 0 forces t = 0 and leaves s free
        ambiguous = {
            BellIndex(i, j): oracles.hand_built_table(3, BellIndex(i, j), {(0, 0, 0, j): 1 / 3})
            for i in range(3)
            for j in range(3)
        }
        with pytest.raises(NoAffineLawError) as info:
            fit_index_law(ambiguous)
        assert str(info.value) == "ambiguous affine law at d=3: [(0, 0), (1, 0), (2, 0)]"

    def test_two_fits_are_ambiguous(self):
        # k = 0 and k' = i everywhere: t = 1, and s may be either digit
        ambiguous = {
            BellIndex(i, j): oracles.hand_built_table(2, BellIndex(i, j), {(0, 0, i, j): 1 / 2})
            for i in range(2)
            for j in range(2)
        }
        with pytest.raises(NoAffineLawError) as info:
            fit_index_law(ambiguous)
        assert str(info.value) == "ambiguous affine law at d=2: [(0, 1), (1, 1)]"

    def test_decode_inverts_law(self):
        for d in (2, 3, 4, 5):
            law = fit_index_law(decompose_all(d, REFERENCE_CONVENTION))
            decoding_i, decoding_j = oracles.bell_arrays(decoding_table_from_law(law))
            for i in range(d):
                for j in range(d):
                    for k in range(d):
                        for m in range(d):
                            key = (k, m, (law.s * k + law.t * i) % d, (m + j) % d)
                            assert (decoding_i[key], decoding_j[key]) == (i, j)


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
                for coeff in table.coeffs.tolist():
                    assert abs(coeff.imag) < 1e-12
                    assert coeff.real > 0

    def test_recorded_phase_reproduces_coefficient(self):
        conv = REFERENCE_CONVENTION
        tables = decompose_all(4, conv)
        law = fit_phase_law(tables)
        for bell, table in tables.items():
            for (k, m, kp, mp), coeff in oracles.table_entries(table).items():
                r = law.table[(k, m, bell.i, bell.j)]
                predicted = np.exp(2j * np.pi * r / 4) / 4
                assert abs(coeff - predicted) < 1e-9

    def test_magnitudes_uniform(self):
        for d in (2, 3, 4, 5):
            for table in decompose_all(d, REFERENCE_CONVENTION).values():
                for coeff in table.coeffs.tolist():
                    assert abs(abs(coeff) - 1 / d) < 1e-9

    def test_non_root_of_unity_detected(self):
        tables = dict(decompose_all(3, LITERAL_CONVENTION))
        entries = oracles.table_entries(tables[BellIndex(1, 1)])
        key = next(iter(entries))
        entries[key] = entries[key] * np.exp(0.1j)
        tables[BellIndex(1, 1)] = oracles.hand_built_table(3, BellIndex(1, 1), entries)
        with pytest.raises(PhaseNotRootOfUnityError):
            fit_phase_law(tables)

    def test_first_bad_phase_in_bell_then_pair_order(self):
        # Bell (0, 1) holds the last pair index and Bell (1, 0) the first, so
        # a sort key that ranks the pair index above the Bell index names 0.2.
        tables = dict(decompose_all(2, LITERAL_CONVENTION))
        for bell, key, phase in [((0, 1), (1, 1, 1, 1), 0.3), ((1, 0), (0, 0, 0, 0), 0.2)]:
            tables[BellIndex(*bell)] = oracles.hand_built_table(
                2, BellIndex(*bell), {key: np.exp(1j * phase) / 2}
            )
        with pytest.raises(PhaseNotRootOfUnityError) as info:
            fit_phase_law(tables)
        assert str(info.value) == (
            "phase 0.3 of coefficient (0.477668244562803+0.14776010333066977j) is "
            "0.2999999999999998 radians away from the nearest multiple of 2*pi/2"
        )


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
                tables[BellIndex(i, j)] = oracles.hand_built_table(d, BellIndex(i, j), entries)
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
    @example(d=3, seed=5)  # a closed form with a constant w
    @example(d=3, seed=1)  # a (k, m) repeated out of sorted order
    def test_phase_law(self, d, seed):
        tables, phases = self.random_tables(d, seed)
        law = fit_phase_law(tables)
        assert (law.table, law.closed_form) == oracles.loop_fit_phase_law(d, phases)


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

    def test_no_matching_convention_names_the_law_and_d(self, monkeypatch):
        def unfit(d):  # a target law that no convention fits
            return IndexLaw(d, 0, 0, True)

        monkeypatch.setattr(decomposition, "reference_index_law", unfit)
        with pytest.raises(NoMatchingConventionError) as info:
            find_convention(3)
        assert str(info.value) == "no sign convention yields s = t = 2 at d=3"

    def test_cold_d6_search_peaks_under_1_mb(self):
        for cached in (
            decomposition._decompose_row,
            states._decomp_basis,
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
            assert len(oracles.table_entries(table)) == 36
            assert abs(sum(abs(c) ** 2 for c in table.coeffs.tolist()) - 1.0) < 1e-9


class TestIndexLawDecodeErrors:
    def test_non_invertible_t_rejected(self):
        law = IndexLaw(d=4, s=3, t=2, m_law_holds=True)
        with pytest.raises(ValueError):
            decoding_table_from_law(law)

    def test_float_dimension_rejected(self):
        # decoding_table_from_law inverts t with pow(law.t, -1, d), which needs an int d.
        with pytest.raises(ValueError, match="dimension must be an integer, got 3.0"):
            decoding_table_from_law(IndexLaw(3.0, 2, 2, True))

    @pytest.mark.parametrize(
        "s, t, message",
        [
            (2.0, 2, "s must be an integer, got 2.0"),
            (2, 2.0, "t must be an integer, got 2.0"),
            (3, 2, "s=3 out of range for dimension 3"),
            (2, -1, "t=-1 out of range for dimension 3"),
        ],
        ids=["float-s", "float-t", "s-is-d", "negative-t"],
    )
    def test_coefficients_are_indices_below_d(self, s, t, message):
        with pytest.raises(ValueError, match=message):
            decoding_table_from_law(IndexLaw(3, s, t, True))

    def test_coefficients_are_stored_as_plain_ints(self):
        law = IndexLaw(3, np.int64(2), True, True)
        assert (law.s, law.t) == (2, 1)
        assert type(law.s) is int and type(law.t) is int


class TestExactOracle:
    """Supports, phases, laws and decoding against exact cyclotomic arithmetic."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("conv", ALL_CONVENTIONS, ids=lambda c: c.label())
    def test_supports_and_phase_integers(self, d, conv):
        exact = oracles.exact_decomposition(d, conv.bell_sign, conv.decomp_sign)
        for bell, table in decompose_all(d, conv).items():
            phases = dict(zip(oracles.table_entries(table), table.phase_ints().tolist()))
            assert phases == exact[bell]

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
            table_i, table_j = oracles.bell_arrays(table)
            assert np.array_equal(table_i, bell_i)
            assert np.array_equal(table_j, bell_j)

    # Worst case measured under the SkylakeX, Haswell and Prescott OpenBLAS
    # kernels: 24.6 ulp(1/d), at d = 6, convention -+, Bell (2, 3), pair (5, 0, 5, 3).
    ULP_BOUND = 32

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("conv", ALL_CONVENTIONS, ids=lambda c: c.label())
    def test_coefficients_within_ulp_bound(self, d, conv):
        exact = oracles.exact_decomposition(d, conv.bell_sign, conv.decomp_sign)
        bound = self.ULP_BOUND * math.ulp(1 / d)
        for bell, table in decompose_all(d, conv).items():
            entries = oracles.table_entries(table)
            for key, r in exact[bell].items():
                angle = 2 * math.pi * r / d
                coeff = entries[key]
                assert abs(coeff.real - math.cos(angle) / d) <= bound
                assert abs(coeff.imag - math.sin(angle) / d) <= bound
