import dataclasses
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from hdbsm import core, decomposition, optics, states
from hdbsm.audit import audit_reference_table, load_reference_table
from hdbsm.classifier import (
    CoincidenceTable,
    build_decoding_table,
    sample_outcomes,
)
from hdbsm.core import (
    State,
    apply_local_unitary,
    check_dimension,
    fourier_matrix,
    permute_factors,
    tensor_product,
)
from hdbsm.decomposition import (
    IndexLaw,
    _decompose_row,
    decompose,
    decompose_all,
    find_convention,
    hyperentangled_state,
    reference_index_law,
)
from hdbsm.optics import BsaLayout, bsa_layout, prepare_bell, run_experiment
from hdbsm.states import (
    ALL_CONVENTIONS,
    REFERENCE_CONVENTION,
    BellIndex,
    aux_state,
    bell_state,
    decomp_basis,
    decomp_state,
    shift_clock_unitary,
)

W3 = np.exp(2j * np.pi / 3)


def rand_state(rng, radices):
    n = int(np.prod(radices))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return State(tuple(radices), v / np.linalg.norm(v))


# The bound that core owns, first in the file so that pytest -x reaches it early.


def test_documented_value():
    assert core.LOGIC_TOL == 1e-9


def test_format_bound_prints_each_bound_as_the_docs_write_it():
    assert [core.format_bound(b) for b in (1e-9, 1e-6, 1e-12)] == ["1e-9", "1e-6", "1e-12"]


class TestStateBasics:
    def test_factor_zero_is_most_significant(self):
        # |1, 0> on (2, 3) sits at offset 1*3 + 0
        ket = State((2, 3), np.outer(np.eye(2)[1], np.eye(3)[0]))
        assert np.flatnonzero(ket.amps).tolist() == [3]
        for offset, digits in enumerate(itertools.product(range(3), range(2), range(4))):
            state = State((3, 2, 4), np.eye(24)[offset])
            assert np.flatnonzero(state.amps).tolist() == [offset]
            assert oracles.nonzero(state) == {digits: 1.0}

    def test_invalid_radix(self):
        with pytest.raises(ValueError):
            State((1,), np.ones(1))

    @pytest.mark.parametrize("radix", [3.5, 3.0, np.float64(3.0), "3"])
    def test_non_integral_radix(self, radix):
        with pytest.raises(ValueError, match="every radix must be an integer"):
            State((radix,), np.ones(3))

    def test_numpy_integer_radix_stored_as_int(self):
        state = State((np.int64(2), np.uint8(3)), np.ones(6))
        assert state.radices == (2, 3)
        assert all(type(r) is int for r in state.radices)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            State((2, 2), np.ones(3))

    def test_non_finite(self):
        with pytest.raises(ValueError):
            State((2,), np.array([np.nan, 1.0]))

    def test_amplitudes_read_only(self):
        s = State((2, 2), np.eye(4)[1])
        with pytest.raises(ValueError):
            s.amps[0] = 5.0


class TestCheckDimension:
    """The argument domain: d is an integer in 2..6 and each index an integer in 0..d-1."""

    @pytest.mark.parametrize("d", [0, 1, core.MAX_DIMENSION + 1])
    def test_outside_range(self, d):
        with pytest.raises(ValueError, match=r"supported range \(2\.\.6\)"):
            core.check_dimension(d)

    def test_returns_a_plain_int(self):
        # d alone comes back as an int, d with indices as a tuple of ints in argument order.
        # MAX_DIMENSION itself is inside the range.
        for d in (3, np.int64(3), np.uint8(3), core.MAX_DIMENSION):
            assert type(check_dimension(d)) is int and check_dimension(d) == d
            checked = check_dimension(d, i=np.uint64(2), j=True, k=np.int64(0), m=np.uint8(1))
            assert checked == (d, 2, 1, 0, 1)
            assert all(type(n) is int for n in checked)

    @pytest.mark.parametrize(
        "d, indices, message",
        [
            (3.0, {}, "dimension must be an integer, got 3.0"),
            ("3", {}, "dimension must be an integer, got '3'"),
            (3, {"i": 1.5}, "i must be an integer, got 1.5"),
            (3, {"i": 0, "j": "0"}, "j must be an integer, got '0'"),
            (7, {"i": 1.5}, "dimension 7 outside the supported range (2..6)"),
            (3, {"k": 3, "m": 1.5}, "k=3 out of range for dimension 3"),
            (np.int64(4), {"m": np.int64(-1)}, "m=-1 out of range for dimension 4"),
        ],
    )
    def test_first_bad_argument_is_named(self, d, indices, message):
        with pytest.raises(ValueError) as info:
            check_dimension(d, **indices)
        assert str(info.value) == message


class TestTensorProduct:
    def test_bit_identical_to_kron(self):
        rng = np.random.default_rng(4)
        u, v = rand_state(rng, (3, 2)), rand_state(rng, (4,))
        assert np.array_equal(tensor_product(u, v).amps, np.kron(u.amps, v.amps))

    def test_basis_case(self):
        # |0> (x) |1> is the basis state |01> with amplitude 1
        out = tensor_product(State((2,), np.eye(2)[0]), State((2,), np.eye(2)[1]))
        assert out.radices == (2, 2)
        assert out.reshaped()[0, 1] == 1.0
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
        assert out.amps.size == 81
        expected = {(n, n, p, p): 1 / 3 for n in range(3) for p in range(3)}
        nonzero = oracles.nonzero(out)
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
            fourier_matrix(1, 1)

    @pytest.mark.parametrize("d", [3.5, 3.0, "3"])
    def test_non_integer_dimension_rejected(self, d):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            fourier_matrix(d, 1)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            fourier_matrix(3, 2)


class TestIsUnitary:
    def test_fourier_matrix_is_unitary(self):
        f = fourier_matrix(3, 1)
        np.testing.assert_allclose(f.conj().T @ f, np.eye(3), rtol=0, atol=1e-12)


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
        s = State((3, 3), np.eye(9)[2])  # |0, 2>
        out = apply_local_unitary(s, fourier_matrix(3, 1), 0)
        for n in range(3):
            assert abs(abs(out.reshaped()[n, 2]) - 1 / np.sqrt(3)) < 1e-12

    def test_factor_out_of_range(self):
        with pytest.raises(ValueError):
            apply_local_unitary(State((2, 2), np.eye(4)[0]), np.eye(2), 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_local_unitary(State((2, 3), np.eye(6)[0]), np.eye(2), 1)

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
        s = State((2, 3), np.eye(6)[5])  # |1, 2>
        out = permute_factors(s, (1, 0))
        assert out.reshaped()[2, 1] == 1.0

    def test_invalid_permutation(self):
        with pytest.raises(ValueError):
            permute_factors(State((2, 2), np.eye(4)[0]), (0, 0))


C = REFERENCE_CONVENTION


def four() -> State:
    """A state of four unequal factors, built inside each test rather than at collection."""
    return State((2, 3, 2, 3), np.arange(36) * W3)


# The core entries with an integer argument besides d, each as a call of the value v
# that it reads in place of 1.
INTEGER_READS = {
    "factor": lambda v: apply_local_unitary(four(), np.diag(W3 ** np.arange(3)), v).amps,
    "every factor of order": lambda v: permute_factors(four(), (2, 0, v, 3)).amps,
    "sign": lambda v: fourier_matrix(3, v),
}


class TestIntegerReads:
    """apply_local_unitary, permute_factors and fourier_matrix read their integers with as_index."""

    @pytest.mark.parametrize("name", list(INTEGER_READS))
    @pytest.mark.parametrize("value", [1.0, "1", 1.5])
    def test_a_non_integer_raises_value_error_naming_the_argument(self, name, value):
        with pytest.raises(ValueError) as info:
            INTEGER_READS[name](value)
        assert str(info.value) == f"{name} must be an integer, got {value!r}"

    def test_every_entry_of_order_is_read(self):
        with pytest.raises(ValueError, match="^every factor of order must be an integer, got 3.0$"):
            permute_factors(four(), (0, 1, 2, 3.0))

    @pytest.mark.parametrize("name", list(INTEGER_READS))
    @pytest.mark.parametrize("value", [np.int64(1), True], ids=["int64", "bool"])
    def test_a_numpy_integer_or_a_bool_reads_as_an_int(self, name, value):
        assert INTEGER_READS[name](value).tobytes() == INTEGER_READS[name](1).tobytes()


class TestArgumentDomain:
    """Calls that once returned, or raised TypeError or IndexError, outside the domain."""

    def test_a_numpy_dimension_finds_the_row_cached_for_an_int(self):
        _decompose_row.cache_clear()
        assert decompose(3, 1, 0, C) is decompose(np.int64(3), 1, 0, C)
        assert _decompose_row.cache_info().currsize == 1

    def test_a_numpy_index_finds_the_row_cached_for_an_int(self):
        _decompose_row.cache_clear()
        assert decompose(3, 1, 0, C) is decompose(3, np.uint8(1), 0, C)
        assert decompose(3, 1, 0, C) is decompose(3, True, 0, C)
        assert _decompose_row.cache_info().currsize == 1

    def test_a_numpy_row_finds_the_basis_cached_for_an_int(self):
        # The row's tables store the checked d either way, and both rows share one basis.
        _decompose_row.cache_clear()
        states._decomp_basis.cache_clear()
        _decompose_row(3, 1, C.bell_sign, C.decomp_sign)
        _decompose_row(np.int64(3), 1, C.bell_sign, C.decomp_sign)
        assert states._decomp_basis.cache_info().currsize == 1

    def test_a_numpy_run_finds_the_source_and_layout_cached_for_an_int(self):
        for cached in (optics._bsa_layout, decomposition._hyperentangled_state):
            cached.cache_clear()
        run_experiment(3, 1, 2, 10, 0, C)
        run_experiment(np.int64(3), np.int64(1), np.int64(2), np.int64(10), np.int64(0), C)
        assert optics._bsa_layout.cache_info().currsize == 1
        assert decomposition._hyperentangled_state.cache_info().currsize == 1

    @pytest.mark.parametrize(
        "seed, message",
        [
            # numpy seeds PCG64(None) from the operating system, so two such runs differ.
            (None, "seed must be an integer, got None"),
            (1.5, "seed must be an integer, got 1.5"),
        ],
        ids=["none", "float"],
    )
    def test_seed_must_be_a_non_negative_integer(self, seed, message):
        table = CoincidenceTable(2, np.full((2,) * 4, 1 / 16))
        for call in (
            lambda: sample_outcomes(table, 10, seed),
            lambda: run_experiment(3, 1, 2, 10**5, seed, C),
            lambda: run_experiment(3, 1, 2, 0, seed, C),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    def test_stored_values_are_plain_ints(self):
        for bell in (
            decompose(3, True, 0, C).bell,
            run_experiment(3, np.int64(1), np.int64(0), 0, 0, C).bell,
        ):
            assert bell == (1, 0)
            assert type(bell.i) is int and type(bell.j) is int
        assert type(build_decoding_table(np.int64(3), C).d) is int
        assert type(reference_index_law(np.int64(3)).d) is int

    @pytest.mark.parametrize(
        "build", [lambda d: BsaLayout(d, bsa_layout(2, C).unitary, 0.0)], ids=["layout"]
    )
    def test_value_types_store_the_checked_dimension(self, build):
        assert type(build(np.int64(2)).d) is int
        with pytest.raises(ValueError, match="dimension must be an integer, got 2.0"):
            build(2.0)


# The entries that take indices, each called with (d, a, b) and a convention.
INDEX_CALLS = {
    "bell_state": lambda d, a, b, c: bell_state(d, a, b, c),
    "decomp_state": lambda d, a, b, c: decomp_state(d, a, b, c),
    "shift_clock_unitary": lambda d, a, b, c: shift_clock_unitary(d, a, b, c),
    "hyperentangled_state": lambda d, a, b, c: hyperentangled_state(d, a, b, c),
    "decompose": lambda d, a, b, c: decompose(d, a, b, c),
    "_decompose_row": lambda d, a, b, c: _decompose_row(d, a, c.bell_sign, c.decomp_sign),
    "IndexLaw": lambda d, a, b, c: IndexLaw(d, a, b, c.bell_sign == 1),
    "prepare_bell": lambda d, a, b, c: prepare_bell(d, a, b, c),
    "run_experiment": lambda d, a, b, c: run_experiment(d, a, b, 100, 0, c),
}


def fingerprint(value):
    """The bytes of every array and the type and value of every scalar a result holds."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, tuple):
        return tuple(fingerprint(v) for v in value)
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return type(value).__name__, tuple(fingerprint(getattr(value, f.name)) for f in fields)
    return type(value).__name__, value


@pytest.mark.parametrize("name", list(INDEX_CALLS))
@pytest.mark.parametrize("integer", [np.int64, np.uint64, np.uint8])
def test_numpy_integers_act_as_the_equal_int(name, integer):
    """Signed and unsigned numpy integers give exactly what the int call gives.

    Bell index (2, 1) under every convention, so the minus Bell sign negates a
    nonzero index, which for an unsigned numpy integer is not representable.
    """
    for convention in ALL_CONVENTIONS:
        expected = fingerprint(INDEX_CALLS[name](3, 2, 1, convention))
        got = INDEX_CALLS[name](integer(3), integer(2), integer(1), convention)
        assert fingerprint(got) == expected


# Every exported entry that takes d or an index, with the arguments it takes from
# (d, a, b, n, s, convention): a and b are indices, n is a shot count and s a seed.
CALLS = {
    "bell_state": lambda d, a, b, n, s, c: bell_state(d, a, b, c),
    "aux_state": lambda d, a, b, n, s, c: aux_state(d),
    "decomp_state": lambda d, a, b, n, s, c: decomp_state(d, a, b, c),
    "shift_clock_unitary": lambda d, a, b, n, s, c: shift_clock_unitary(d, a, b, c),
    "decomp_basis": lambda d, a, b, n, s, c: decomp_basis(d, c.decomp_sign),
    "decompose": lambda d, a, b, n, s, c: decompose(d, a, b, c),
    "_decompose_row": lambda d, a, b, n, s, c: _decompose_row(d, a, c.bell_sign, c.decomp_sign),
    "decompose_all": lambda d, a, b, n, s, c: decompose_all(d, c),
    "find_convention": lambda d, a, b, n, s, c: find_convention(d),
    "hyperentangled_state": lambda d, a, b, n, s, c: hyperentangled_state(d, a, b, c),
    "bsa_layout": lambda d, a, b, n, s, c: bsa_layout(d, c),
    "prepare_bell": lambda d, a, b, n, s, c: prepare_bell(d, a, b, c),
    "run_experiment": lambda d, a, b, n, s, c: run_experiment(d, a, b, n, s, c),
    "build_decoding_table": lambda d, a, b, n, s, c: build_decoding_table(d, c),
    "audit_reference_table": lambda d, a, b, n, s, c: audit_reference_table(d, c),
    "load_reference_table": lambda d, a, b, n, s, c: load_reference_table(d),
    "reference_index_law": lambda d, a, b, n, s, c: reference_index_law(d),
}
USES = {  # the drawn arguments each entry reads, besides d
    "bell_state": "ab", "decomp_state": "ab", "shift_clock_unitary": "ab",
    "decompose": "ab", "_decompose_row": "a", "hyperentangled_state": "ab",
    "prepare_bell": "ab", "run_experiment": "abns",
}

NEAR_INTEGERS = st.integers(-2, 9)
ARGUMENTS = st.one_of(
    NEAR_INTEGERS,
    NEAR_INTEGERS.map(float),
    st.floats(),
    NEAR_INTEGERS.map(np.int64),
    st.integers(0, 9).map(np.uint64),
    st.integers(0, 9).map(np.uint8),
    NEAR_INTEGERS.map(np.float64),
    st.floats().map(np.float64),
    st.booleans(),
    st.text(max_size=2),
    NEAR_INTEGERS.map(str),
)


def integer(value):
    try:
        return operator.index(value)
    except TypeError:
        return None


def in_domain(d, args: dict, uses: str) -> bool:
    """d is an integer in 2..6, each used index one in 0..d-1, a shot count and a seed >= 0."""
    d = integer(d)
    if d is None or not 2 <= d <= core.MAX_DIMENSION:
        return False
    limits = {"a": d, "b": d, "n": math.inf, "s": math.inf}
    values = {name: integer(args[name]) for name in uses}
    return all(v is not None and 0 <= v < limits[name] for name, v in values.items())


INSIDE = st.integers(2, core.MAX_DIMENSION).flatmap(
    lambda d: st.fixed_dictionaries(
        {
            "d": st.just(d),
            "a": st.integers(0, d - 1),
            "b": st.integers(0, d - 1),
            "n": st.integers(0, 9),
            "s": st.integers(0, 9),
        }
    )
)


@pytest.mark.parametrize("name", list(CALLS))
@settings(max_examples=60, deadline=None)
@given(inside=INSIDE, value=ARGUMENTS, convention=st.sampled_from(ALL_CONVENTIONS))
# None in every argument, the seed included: numpy would seed PCG64(None) from the OS.
@example(inside={"d": 3, "a": 1, "b": 2, "n": 1, "s": 0}, value=None, convention=C)
def test_entry_returns_only_inside_the_domain(name, inside, value, convention):
    """Each entry returns only for arguments in the domain; otherwise it raises ValueError.

    The drawn value replaces each argument the entry reads in turn, with the others
    drawn inside the domain, so a check missing on any single argument shows.
    """
    uses = USES.get(name, "")
    for wrong in "d" + uses:
        args = {**inside, wrong: value}
        try:
            CALLS[name](**args, c=convention)
        except ValueError:
            continue
        assert in_domain(args.pop("d"), args, uses), f"returned for {wrong}={value!r}"
