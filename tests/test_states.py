import numpy as np
import pytest

from hdbsm.core import State, fidelity, inner_product
from hdbsm.states import (
    ALL_CONVENTIONS,
    CalibrationError,
    LITERAL_CONVENTION,
    PhaseConvention,
    REFERENCE_CONVENTION,
    _monomial_stack,
    _search_monomial,
    aux_state,
    bell_state,
    clock_matrix,
    decomp_state,
    shift_clock_unitary,
    shift_matrix,
)

import oracles
from literal_tables import BELL_D3_LITERAL, DECOMP_D3_LITERAL, W

S3 = np.sqrt(3)


def assert_state_equals(state: State, table: dict, scale: float) -> None:
    nonzero = state.nonzero(tol=1e-12)
    assert set(nonzero) == set(table)
    for label, amp in table.items():
        assert abs(nonzero[label] - amp / scale) < 1e-12


class TestLiteralConformance:
    @pytest.mark.parametrize("ij", sorted(BELL_D3_LITERAL))
    def test_bell_d3(self, ij):
        i, j = ij
        assert_state_equals(bell_state(3, i, j), BELL_D3_LITERAL[ij], S3)

    def test_aux_d3(self):
        assert_state_equals(aux_state(3), {(p, p): 1 for p in range(3)}, S3)

    @pytest.mark.parametrize("km", sorted(DECOMP_D3_LITERAL))
    def test_decomp_d3(self, km):
        k, m = km
        assert_state_equals(decomp_state(3, k, m), DECOMP_D3_LITERAL[km], S3)

    def test_decomp_matches_naive_oracle(self):
        for k in range(3):
            for m in range(3):
                expected = oracles.naive_decomp(3, k, m)
                got = decomp_state(3, k, m).nonzero(tol=1e-12)
                assert set(got) == set(expected)
                for label in expected:
                    assert abs(got[label] - expected[label]) < 1e-12


class TestBellStates:
    def test_d2_singlet_like(self):
        # i=1, j=1 at d=2: (|01> - |10>)/sqrt(2)
        s = bell_state(2, 1, 1)
        assert abs(s.amplitude((0, 1)) - 1 / np.sqrt(2)) < 1e-12
        assert abs(s.amplitude((1, 0)) + 1 / np.sqrt(2)) < 1e-12

    def test_phase_entry(self):
        assert abs(bell_state(3, 1, 0).amplitude((1, 1)) - W / S3) < 1e-12

    def test_bell_sign_conjugates_phases(self):
        minus = bell_state(3, 1, 0, PhaseConvention(-1, 1))
        assert abs(minus.amplitude((1, 1)) - W**2 / S3) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("conv", ALL_CONVENTIONS, ids=lambda c: c.label())
    def test_orthonormal(self, d, conv):
        basis = [bell_state(d, i, j, conv) for i in range(d) for j in range(d)]
        gram = np.array([[inner_product(u, v) for v in basis] for u in basis])
        assert np.max(np.abs(gram - np.eye(d * d))) < 1e-9

    def test_index_validation(self):
        with pytest.raises(ValueError):
            bell_state(3, 3, 0)
        with pytest.raises(ValueError):
            bell_state(3, 0, -1)

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
        assert abs(inner_product(aux_state(3), aux_state(3)) - 1) < 1e-12


class TestDecompStates:
    def test_shifted_support(self):
        # (k=0, m=1): letters shift down by one, |0 c> + |1 a> + |2 b>
        assert_state_equals(
            decomp_state(3, 0, 1), {(0, 2): 1, (1, 0): 1, (2, 1): 1}, S3
        )

    def test_phase_entry(self):
        assert abs(decomp_state(3, 1, 2).amplitude((1, 2)) - W / S3) < 1e-12

    def test_gram_matrix_d3(self):
        # all 81 inner products: exact Kronecker deltas
        states = {(k, m): decomp_state(3, k, m) for k in range(3) for m in range(3)}
        for (k, m), u in states.items():
            for (kp, mp), v in states.items():
                expected = 1.0 if (k, m) == (kp, mp) else 0.0
                assert abs(inner_product(u, v) - expected) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_completeness(self, d):
        rng = np.random.default_rng(40 + d)
        basis = [decomp_state(d, k, m) for k in range(d) for m in range(d)]
        for _ in range(5):
            v = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
            state = State((d, d), v / np.linalg.norm(v))
            total = sum(abs(inner_product(b, state)) ** 2 for b in basis)
            assert abs(total - 1.0) < 1e-9

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_construction_rule_shift(self, d):
        # the m-th state is the m=0 state with its auxiliary digit lowered by m
        for k in range(d):
            base = decomp_state(d, k, 0).reshaped()
            for m in range(d):
                shifted = decomp_state(d, k, m).reshaped()
                for q in range(d):
                    for a in range(d):
                        assert abs(shifted[q, (a - m) % d] - base[q, a]) < 1e-12


class TestPhaseConvention:
    def test_labels(self):
        assert PhaseConvention(1, -1).label() == "+-"
        assert PhaseConvention.from_label("-+") == REFERENCE_CONVENTION

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseConvention(0, 1)
        with pytest.raises(ValueError):
            PhaseConvention.from_label("+x")


class TestShiftClockUnitary:
    def test_identity_at_origin(self):
        np.testing.assert_allclose(shift_clock_unitary(3, 0, 0, LITERAL_CONVENTION), np.eye(3))

    def test_pure_clock_for_phase_index(self):
        # i=1, j=0 needs the diagonal (1, w, w^2) up to a global phase
        u = shift_clock_unitary(3, 1, 0, LITERAL_CONVENTION)
        diag = np.diag(u)
        assert np.max(np.abs(u - np.diag(diag))) < 1e-12
        np.testing.assert_allclose(diag / diag[0], [1, W, W**2], atol=1e-12)

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
                assert fidelity(bell_state(d, i, j, conv), prepared) > 1 - 1e-9

    @pytest.mark.parametrize("conv", ALL_CONVENTIONS, ids=lambda c: c.label())
    @pytest.mark.parametrize(
        "d, i, j", [(d, i, j) for d in range(2, 7) for i in range(d) for j in range(d)]
    )
    def test_equals_sequential_search(self, d, i, j, conv):
        expected = oracles.sequential_search_monomial(
            bell_state(d, 0, 0, conv), bell_state(d, i, j, conv), d, factor=1
        )
        assert np.array_equal(shift_clock_unitary(d, i, j, conv), expected)

    def test_calibration_failure_on_unreachable_target(self):
        # a product state is not reachable from a Bell state by any monomial
        from hdbsm.core import basis_state

        source = bell_state(3, 0, 0, LITERAL_CONVENTION)
        target = basis_state((3, 3), (0, 0))
        with pytest.raises(CalibrationError):
            _search_monomial(source, target, 3, factor=1)


class TestClockShiftMatrices:
    def test_clock(self):
        np.testing.assert_allclose(
            np.diag(clock_matrix(3)), [1, W, W**2], atol=1e-15
        )

    def test_shift(self):
        x = shift_matrix(3)
        v = np.zeros(3)
        v[1] = 1.0
        np.testing.assert_allclose(x @ v, [0, 0, 1], atol=1e-15)

    def test_weyl_commutation(self):
        # Z X = w X Z
        z, x = clock_matrix(3), shift_matrix(3)
        np.testing.assert_allclose(z @ x, W * (x @ z), atol=1e-12)


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

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_monomial_stack(self, d):
        assert _monomial_stack(d).tobytes() == oracles.comparison_monomial_stack(d).tobytes()
