import numpy as np
import pytest

from hdbsm.core import State
from hdbsm.states import (
    ALL_CONVENTIONS,
    LITERAL_CONVENTION,
    PhaseConvention,
    REFERENCE_CONVENTION,
    aux_state,
    bell_state,
    decomp_basis,
    decomp_state,
    shift_clock_unitary,
)

import oracles
from literal_tables import BELL_D3_LITERAL, DECOMP_D3_LITERAL, W

S3 = np.sqrt(3)


def assert_state_equals(state: State, table: dict, scale: float) -> None:
    nonzero = oracles.nonzero(state, tol=1e-12)
    assert set(nonzero) == set(table)
    for label, amp in table.items():
        assert abs(nonzero[label] - amp / scale) < 1e-12


class TestLiteralConformance:
    @pytest.mark.parametrize("ij", sorted(BELL_D3_LITERAL))
    def test_bell_d3(self, ij):
        i, j = ij
        assert_state_equals(bell_state(3, i, j, LITERAL_CONVENTION), BELL_D3_LITERAL[ij], S3)

    def test_aux_d3(self):
        assert_state_equals(aux_state(3), {(p, p): 1 for p in range(3)}, S3)

    @pytest.mark.parametrize("km", sorted(DECOMP_D3_LITERAL))
    def test_decomp_d3(self, km):
        k, m = km
        assert_state_equals(decomp_state(3, k, m, LITERAL_CONVENTION), DECOMP_D3_LITERAL[km], S3)

    def test_decomp_matches_naive_oracle(self):
        for k in range(3):
            for m in range(3):
                expected = oracles.naive_decomp(3, k, m)
                got = oracles.nonzero(decomp_state(3, k, m, LITERAL_CONVENTION), tol=1e-12)
                assert set(got) == set(expected)
                for label in expected:
                    assert abs(got[label] - expected[label]) < 1e-12


class TestBellStates:
    def test_d2_singlet_like(self):
        # i=1, j=1 at d=2: (|01> - |10>)/sqrt(2)
        s = bell_state(2, 1, 1, LITERAL_CONVENTION)
        assert abs(s.reshaped()[0, 1] - 1 / np.sqrt(2)) < 1e-12
        assert abs(s.reshaped()[1, 0] + 1 / np.sqrt(2)) < 1e-12

    def test_phase_entry(self):
        assert abs(bell_state(3, 1, 0, LITERAL_CONVENTION).reshaped()[1, 1] - W / S3) < 1e-12

    def test_bell_sign_conjugates_phases(self):
        minus = bell_state(3, 1, 0, PhaseConvention(-1, 1))
        assert abs(minus.reshaped()[1, 1] - W**2 / S3) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("conv", ALL_CONVENTIONS, ids=lambda c: c.label())
    def test_orthonormal(self, d, conv):
        basis = [bell_state(d, i, j, conv) for i in range(d) for j in range(d)]
        gram = np.array([[np.vdot(u.amps, v.amps) for v in basis] for u in basis])
        assert np.max(np.abs(gram - np.eye(d * d))) < 1e-9

    def test_index_validation(self):
        with pytest.raises(ValueError):
            bell_state(3, 3, 0, LITERAL_CONVENTION)
        with pytest.raises(ValueError):
            bell_state(3, 0, -1, LITERAL_CONVENTION)

    def test_first_amplitude_real_positive(self):
        for conv in ALL_CONVENTIONS:
            for d in (2, 3, 4):
                for i in range(d):
                    for j in range(d):
                        amps = bell_state(d, i, j, conv).amps
                        pivot = amps[np.flatnonzero(np.abs(amps) > 1e-9)[0]]
                        assert pivot.imag == 0 and pivot.real > 0


class TestAuxState:
    def test_d3(self):
        assert_state_equals(aux_state(3), {(0, 0): 1, (1, 1): 1, (2, 2): 1}, S3)

    def test_d2(self):
        assert_state_equals(aux_state(2), {(0, 0): 1, (1, 1): 1}, np.sqrt(2))

    def test_normalized(self):
        assert abs(np.vdot(aux_state(3).amps, aux_state(3).amps) - 1) < 1e-12


class TestDecompStates:
    def test_shifted_support(self):
        # (k=0, m=1): letters shift down by one, |0 c> + |1 a> + |2 b>
        assert_state_equals(
            decomp_state(3, 0, 1, LITERAL_CONVENTION), {(0, 2): 1, (1, 0): 1, (2, 1): 1}, S3
        )

    def test_phase_entry(self):
        assert abs(decomp_state(3, 1, 2, LITERAL_CONVENTION).reshaped()[1, 2] - W / S3) < 1e-12

    def test_gram_matrix_d3(self):
        # all 81 inner products: exact Kronecker deltas
        states = {
            (k, m): decomp_state(3, k, m, LITERAL_CONVENTION) for k in range(3) for m in range(3)
        }
        for (k, m), u in states.items():
            for (kp, mp), v in states.items():
                expected = 1.0 if (k, m) == (kp, mp) else 0.0
                assert abs(np.vdot(u.amps, v.amps) - expected) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_completeness(self, d):
        rng = np.random.default_rng(40 + d)
        basis = [decomp_state(d, k, m, LITERAL_CONVENTION) for k in range(d) for m in range(d)]
        for _ in range(5):
            v = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
            state = State((d, d), v / np.linalg.norm(v))
            total = sum(abs(np.vdot(b.amps, state.amps)) ** 2 for b in basis)
            assert abs(total - 1.0) < 1e-9

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_construction_rule_shift(self, d):
        # the m-th state is the m=0 state with its auxiliary digit lowered by m
        for k in range(d):
            base = decomp_state(d, k, 0, LITERAL_CONVENTION).reshaped()
            for m in range(d):
                shifted = decomp_state(d, k, m, LITERAL_CONVENTION).reshaped()
                for q in range(d):
                    for a in range(d):
                        assert abs(shifted[q, (a - m) % d] - base[q, a]) < 1e-12


class TestPhaseConvention:
    def test_labels(self):
        assert PhaseConvention(1, -1).label() == "+-"
        assert PhaseConvention.from_label("-+") == REFERENCE_CONVENTION

    @pytest.mark.parametrize("conv", ALL_CONVENTIONS, ids=lambda c: c.label())
    def test_label_round_trip(self, conv):
        assert PhaseConvention.from_label(conv.label()) == conv

    @pytest.mark.parametrize("label", ["", "+", "+++", "+x", "x-"])
    def test_malformed_label_rejected(self, label):
        with pytest.raises(ValueError, match="convention label must be two of"):
            PhaseConvention.from_label(label)

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseConvention(0, 1)

    @pytest.mark.parametrize(
        "signs, message",
        [
            ((1.0, 1), "bell_sign must be an integer, got 1.0"),
            ((1, -1.0), "decomp_sign must be an integer, got -1.0"),
        ],
        ids=["float-bell", "float-decomp"],
    )
    def test_a_float_sign_is_rejected(self, signs, message):
        with pytest.raises(ValueError) as info:
            PhaseConvention(*signs)
        assert str(info.value) == message

    def test_signs_are_stored_as_plain_ints(self):
        conv = PhaseConvention(True, np.int64(-1))
        assert (conv.bell_sign, conv.decomp_sign) == (1, -1)
        assert type(conv.bell_sign) is int and type(conv.decomp_sign) is int
        assert conv == PhaseConvention(1, -1) and conv.label() == "+-"


SIGN_MESSAGE = "^phase convention signs must be \\+1 or -1$"  # PhaseConvention's own check


class TestArgumentDomain:
    """The builders read d and their indices with check_dimension."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: bell_state(3, 1.5, 0, LITERAL_CONVENTION), "i must be an integer"),
            (lambda: bell_state(3.0, 0, 0, LITERAL_CONVENTION), "dimension must be an integer"),
            (lambda: decomp_state(3, 1.5, 0, LITERAL_CONVENTION), "k must be an integer"),
            (lambda: bell_state(7, 0, 0, LITERAL_CONVENTION), "outside the supported range"),
            (lambda: aux_state(7), "outside the supported range"),
            (lambda: decomp_state(8, 0, 0, LITERAL_CONVENTION), "outside the supported range"),
            (
                lambda: shift_clock_unitary(1, 0, 0, LITERAL_CONVENTION),
                "outside the supported range",
            ),
            (lambda: decomp_basis(0, LITERAL_CONVENTION), "outside the supported range"),
            (lambda: decomp_basis(3, PhaseConvention(1, 0)), SIGN_MESSAGE),
            (
                lambda: decomp_basis(3, PhaseConvention(1, 1.5)),
                "^decomp_sign must be an integer, got 1.5$",
            ),
            (lambda: decomp_basis(3, PhaseConvention(1, 2)), SIGN_MESSAGE),
        ],
        ids=["bell-i", "bell-d", "decomp-k", "bell", "aux", "decomp", "unitary", "basis",
             "basis-sign-0", "basis-sign-float", "basis-sign-2"],
    )
    def test_arguments_outside_the_domain_raise_value_error(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_the_basis_cache_checks_a_float_equal_to_a_cached_int(self):
        decomp_basis(3, LITERAL_CONVENTION)  # a cache keyed by value alone would hand this to 3.0
        with pytest.raises(ValueError, match="dimension must be an integer, got 3.0"):
            decomp_basis(3.0, LITERAL_CONVENTION)


class TestShiftClockUnitary:
    def test_identity_at_origin(self):
        np.testing.assert_allclose(shift_clock_unitary(3, 0, 0, LITERAL_CONVENTION), np.eye(3))

    def test_pure_clock_for_phase_index(self):
        # i=1, j=0 needs the diagonal (1, w, w^2) up to a global phase
        u = shift_clock_unitary(3, 1, 0, LITERAL_CONVENTION)
        diag = np.diag(u)
        assert np.max(np.abs(u - np.diag(diag))) < 1e-12
        np.testing.assert_allclose(diag / diag[0], [1, W, W**2], atol=1e-12)

    def test_pure_shift_for_shift_index(self):
        # i=0, j=1 is X: |n> -> |(n+1) mod 3>
        x = shift_clock_unitary(3, 0, 1, LITERAL_CONVENTION)
        np.testing.assert_array_equal(x, np.roll(np.eye(3), 1, axis=0))

    def test_weyl_commutation(self):
        # Z X = w X Z, with Z = (1, 0) and X = (0, 1) under the literal signs
        z = shift_clock_unitary(3, 1, 0, LITERAL_CONVENTION)
        x = shift_clock_unitary(3, 0, 1, LITERAL_CONVENTION)
        np.testing.assert_allclose(z @ x, W * (x @ z), atol=1e-12)
        np.testing.assert_allclose(shift_clock_unitary(3, 1, 1, LITERAL_CONVENTION), x @ z,
                                   atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("conv", [LITERAL_CONVENTION, REFERENCE_CONVENTION],
                             ids=lambda c: c.label())
    def test_reaches_every_bell_state(self, d, conv):
        from hdbsm.core import apply_local_unitary

        source = bell_state(d, 0, 0, conv)
        for i in range(d):
            for j in range(d):
                u = shift_clock_unitary(d, i, j, conv)
                prepared = apply_local_unitary(source, u, 1)
                assert abs(np.vdot(bell_state(d, i, j, conv).amps, prepared.amps)) > 1 - 1e-9

    @pytest.mark.parametrize("conv", ALL_CONVENTIONS, ids=lambda c: c.label())
    @pytest.mark.parametrize(
        "d, i, j", [(d, i, j) for d in range(2, 7) for i in range(d) for j in range(d)]
    )
    def test_equals_sequential_search(self, d, i, j, conv):
        expected = oracles.sequential_search_monomial(
            bell_state(d, 0, 0, conv), bell_state(d, i, j, conv), d, factor=1
        )
        assert shift_clock_unitary(d, i, j, conv).tobytes() == expected.tobytes()


class TestArrayFormulas:
    """Each family's array formula equals its digit-by-digit loop, byte for byte."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_bell_state(self, d, sign):
        for i in range(d):
            for j in range(d):
                got = bell_state(d, i, j, PhaseConvention(sign, 1)).amps
                assert got.tobytes() == oracles.loop_bell_amps(d, i, j, sign).tobytes()

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_decomp_state(self, d, sign):
        for k in range(d):
            for m in range(d):
                got = decomp_state(d, k, m, PhaseConvention(1, sign)).amps
                assert got.tobytes() == oracles.loop_decomp_amps(d, k, m, sign).tobytes()
