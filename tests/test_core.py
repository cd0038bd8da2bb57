import itertools

import numpy as np
import pytest

from hdbsm import core
from hdbsm.core import (
    State,
    apply_local_unitary,
    basis_state,
    fourier_matrix,
    inner_product,
    permute_factors,
    tensor_product,
)

W3 = np.exp(2j * np.pi / 3)


def rand_state(rng, radices):
    n = int(np.prod(radices))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return State(tuple(radices), v / np.linalg.norm(v))


class TestStateBasics:
    def test_factor_zero_is_most_significant(self):
        # |1, 0> on (2, 3) sits at offset 1*3 + 0
        assert np.flatnonzero(basis_state((2, 3), (1, 0)).amps).tolist() == [3]
        for offset, digits in enumerate(itertools.product(range(3), range(2), range(4))):
            state = basis_state((3, 2, 4), digits)
            assert np.flatnonzero(state.amps).tolist() == [offset]
            assert state.nonzero() == {digits: 1.0}

    @pytest.mark.parametrize("digits", [(0,), (0, 2), (-1, 0), (2, 0)])
    def test_basis_state_rejects_bad_digits(self, digits):
        with pytest.raises(ValueError):
            basis_state((2, 2), digits)

    def test_invalid_radix(self):
        with pytest.raises(ValueError):
            State((1,), np.ones(1))

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            State((2, 2), np.ones(3))

    def test_non_finite(self):
        with pytest.raises(ValueError):
            State((2,), np.array([np.nan, 1.0]))

    def test_amplitudes_read_only(self):
        s = basis_state((2, 2), (0, 1))
        with pytest.raises(ValueError):
            s.amps[0] = 5.0


class TestCheckDimension:
    @pytest.mark.parametrize("d", [0, 1, core.MAX_DIMENSION + 1])
    def test_outside_range(self, d):
        with pytest.raises(ValueError, match=r"supported range \(2\.\.6\)"):
            core.check_dimension(d)


class TestTensorProduct:
    def test_bit_identical_to_kron(self):
        rng = np.random.default_rng(4)
        u, v = rand_state(rng, (3, 2)), rand_state(rng, (4,))
        assert np.array_equal(tensor_product(u, v).amps, np.kron(u.amps, v.amps))

    def test_basis_case(self):
        # |0> (x) |1> is the basis state |01> with amplitude 1
        out = tensor_product(basis_state((2,), (0,)), basis_state((2,), (1,)))
        assert out.radices == (2, 2)
        assert out.amplitude((0, 1)) == 1.0
        assert np.count_nonzero(out.amps) == 1

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            u = rand_state(rng, (3, 2))
            v = rand_state(rng, (4,))
            assert abs(tensor_product(u, v).norm() - 1.0) < 1e-12

    def test_hyperentangled_d3_hand_enumeration(self):
        # (sum_n |nn>)(sum_p |pp>)/3: exactly the nine labels (n, n, p, p),
        # every amplitude 1/3, in an 81-dimensional space.
        bell = State((3, 3), np.eye(3).reshape(-1) / np.sqrt(3))
        aux = State((3, 3), np.eye(3).reshape(-1) / np.sqrt(3))
        out = tensor_product(bell, aux)
        assert out.dim == 81
        expected = {(n, n, p, p): 1 / 3 for n in range(3) for p in range(3)}
        nonzero = out.nonzero()
        assert set(nonzero) == set(expected)
        for label, amp in expected.items():
            assert abs(nonzero[label] - amp) < 1e-12

    def test_associative(self):
        rng = np.random.default_rng(8)
        u, v, w = rand_state(rng, (2,)), rand_state(rng, (3,)), rand_state(rng, (2, 2))
        left = tensor_product(tensor_product(u, v), w)
        right = tensor_product(u, tensor_product(v, w))
        assert left.radices == right.radices
        np.testing.assert_allclose(left.amps, right.amps, atol=1e-15)


class TestInnerProduct:
    def test_orthogonal_basis_states(self):
        assert inner_product(basis_state((2,), (0,)), basis_state((2,), (1,))) == 0.0

    def test_self_overlap_is_one(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            u = rand_state(rng, (3, 3))
            assert abs(inner_product(u, u) - 1.0) < 1e-12

    def test_conjugate_linear_in_first_argument(self):
        rng = np.random.default_rng(10)
        u, v = rand_state(rng, (4,)), rand_state(rng, (4,))
        scaled = State((4,), (0.3 + 0.4j) * u.amps)
        assert abs(
            inner_product(scaled, v) - np.conj(0.3 + 0.4j) * inner_product(u, v)
        ) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(basis_state((2, 2), (0, 0)), basis_state((4,), (0,)))


class TestFourierMatrix:
    def test_entries(self):
        f = fourier_matrix(3, -1)
        for r in range(3):
            for c in range(3):
                assert abs(f[r, c] - np.exp(-2j * np.pi * r * c / 3) / np.sqrt(3)) < 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_unitary(self, d, sign):
        f = fourier_matrix(d, sign)
        assert np.max(np.abs(f.conj().T @ f - np.eye(d))) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_adjoint_is_opposite_sign(self, d):
        np.testing.assert_allclose(
            fourier_matrix(d, 1).conj().T, fourier_matrix(d, -1), atol=1e-12
        )

    def test_d2_rows(self):
        np.testing.assert_allclose(
            fourier_matrix(2, -1), np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15
        )

    def test_sorting_identities_d3(self):
        # The conjugate 3-point transform sends the three phase-ramp columns
        # (1, w^k, w^2k)/sqrt(3) to the standard basis vectors exactly.
        f = fourier_matrix(3, -1)
        for k in range(3):
            column = np.array([1, W3**k, W3 ** (2 * k)]) / np.sqrt(3)
            np.testing.assert_allclose(f @ column, np.eye(3)[k], atol=1e-12)

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            fourier_matrix(1)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            fourier_matrix(3, 2)


class TestApplyLocalUnitary:
    def test_identity(self):
        rng = np.random.default_rng(20)
        s = rand_state(rng, (3, 3))
        out = apply_local_unitary(s, np.eye(3), 0)
        np.testing.assert_allclose(out.amps, s.amps, atol=1e-15)

    def test_unitary_then_adjoint(self):
        rng = np.random.default_rng(21)
        s = rand_state(rng, (2, 3, 2))
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        back = apply_local_unitary(apply_local_unitary(s, u, 1), u.conj().T, 1)
        np.testing.assert_allclose(back.amps, s.amps, atol=1e-12)

    def test_fourier_creates_uniform_superposition(self):
        s = basis_state((3, 3), (0, 2))
        out = apply_local_unitary(s, fourier_matrix(3, 1), 0)
        for n in range(3):
            assert abs(abs(out.amplitude((n, 2))) - 1 / np.sqrt(3)) < 1e-12

    def test_factor_out_of_range(self):
        with pytest.raises(ValueError):
            apply_local_unitary(basis_state((2, 2), (0, 0)), np.eye(2), 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_local_unitary(basis_state((2, 3), (0, 0)), np.eye(2), 1)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_norm_preserved_on_random_states(self, d):
        rng = np.random.default_rng(100 + d)
        for trial in range(100):
            n_factors = rng.integers(1, 4)
            radices = (d,) * int(n_factors)
            s = rand_state(rng, radices)
            factor = int(rng.integers(0, n_factors))
            u = np.linalg.qr(
                rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            )[0]
            out = apply_local_unitary(s, u, factor)
            assert abs(out.norm() - s.norm()) < 1e-12


class TestPermuteFactors:
    def test_roundtrip(self):
        rng = np.random.default_rng(30)
        s = rand_state(rng, (2, 3, 4))
        fwd = permute_factors(s, (2, 0, 1))
        assert fwd.radices == (4, 2, 3)
        back = permute_factors(fwd, (1, 2, 0))
        np.testing.assert_allclose(back.amps, s.amps, atol=1e-15)

    def test_moves_amplitudes(self):
        s = basis_state((2, 3), (1, 2))
        out = permute_factors(s, (1, 0))
        assert out.amplitude((2, 1)) == 1.0

    def test_invalid_permutation(self):
        with pytest.raises(ValueError):
            permute_factors(basis_state((2, 2), (0, 0)), (0, 0))
