"""Dense complex linear algebra over small multi-qudit Hilbert spaces.

States live on labeled composite bases described by a tuple of radices,
one per tensor factor. Factor 0 is the most significant digit: the flat
offset of a digit tuple (n0, n1, ...) is n0 * prod(radices[1:]) + ..., so
labels read left to right exactly like ket labels |n0 n1 ...>.

Tolerances used throughout the package:
  * ALGEBRA_TOL (1e-12) for pure algebraic identities,
  * LOGIC_TOL (1e-9) for zero/nonzero coefficient decisions. All coefficients
    of interest have magnitude 1/d >= 1/6, eight orders above the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

ALGEBRA_TOL = 1e-12
LOGIC_TOL = 1e-9

MAX_DIMENSION = 6


def check_dimension(d: int) -> None:
    """Raise ValueError unless 2 <= d <= MAX_DIMENSION."""
    if not 2 <= d <= MAX_DIMENSION:
        raise ValueError(f"dimension {d} outside the supported range (2..{MAX_DIMENSION})")


@dataclass(frozen=True, eq=False)
class State:
    """Complex amplitude vector over a labeled mixed-radix composite basis.

    Instances are immutable value objects: the amplitude array is copied on
    construction and marked read-only. All functions in this package treat
    states as pure values, so sharing across threads is safe.
    """

    radices: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self) -> None:
        radices = tuple(int(r) for r in self.radices)
        if not radices or any(r < 2 for r in radices):
            raise ValueError(f"every radix must be >= 2, got {radices}")
        amps = np.ascontiguousarray(self.amps, dtype=np.complex128).reshape(-1).copy()
        if amps.size != math.prod(radices):
            raise ValueError(
                f"amplitude count {amps.size} does not match basis size "
                f"{math.prod(radices)} for radices {radices}"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "radices", radices)
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.amps.size

    @property
    def num_factors(self) -> int:
        return len(self.radices)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def reshaped(self) -> np.ndarray:
        """Read-only view with one axis per tensor factor."""
        return self.amps.reshape(self.radices)

    def amplitude(self, digits: Sequence[int]) -> complex:
        """Amplitude at a basis label given as a digit tuple."""
        return complex(self.reshaped()[tuple(digits)])

    def nonzero(self, tol: float = LOGIC_TOL) -> dict[tuple[int, ...], complex]:
        """Map from digit tuple to amplitude, restricted to |amp| > tol."""
        flat = np.flatnonzero(np.abs(self.amps) > tol)
        digits = zip(*(axis.tolist() for axis in np.unravel_index(flat, self.radices)))
        return dict(zip(digits, self.amps[flat].tolist()))


def basis_state(radices: Sequence[int], digits: Sequence[int]) -> State:
    """The computational basis state |digits> on the given composite basis.

    Raises:
        ValueError: the digit count differs from the factor count, or a
            digit is outside 0..radix-1.
    """
    radices = tuple(int(r) for r in radices)
    amps = np.zeros(math.prod(radices), dtype=np.complex128)
    amps[np.ravel_multi_index(tuple(digits), radices)] = 1.0
    return State(radices, amps)


def tensor_product(u: State, v: State) -> State:
    """Joint state u (x) v; factor radices are concatenated in order."""
    return State(u.radices + v.radices, np.multiply.outer(u.amps, v.amps).reshape(-1))


def inner_product(u: State, v: State) -> complex:
    """<u|v>, conjugate-linear in the first argument.

    Raises:
        ValueError: if the two states have different basis shapes.
    """
    if u.radices != v.radices:
        raise ValueError(f"shape mismatch: {u.radices} vs {v.radices}")
    return complex(np.vdot(u.amps, v.amps))


def fidelity(u: State, v: State) -> float:
    """|<u|v>|, insensitive to global phase."""
    return abs(inner_product(u, v))


def fourier_matrix(d: int, sign: int = 1) -> np.ndarray:
    """Discrete Fourier matrix with entry (r, c) = exp(sign*2j*pi*r*c/d)/sqrt(d).

    Args:
        d: dimension, at least 2.
        sign: +1 or -1, the sign of the exponent.
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    grid = np.outer(np.arange(d), np.arange(d))
    return np.exp(sign * 2j * np.pi * grid / d) / np.sqrt(d)


def is_unitary(u: np.ndarray, tol: float = LOGIC_TOL) -> bool:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < tol)


def apply_local_unitary(state: State, u: np.ndarray, factor: int) -> State:
    """Apply a single-factor unitary to one tensor factor of a state.

    Args:
        state: input state.
        u: matrix of shape (r, r) where r is the radix of the chosen factor.
        factor: index of the tensor factor to act on.

    Raises:
        ValueError: if the factor index is out of range or the matrix
            dimension does not match the factor radix.
    """
    if not 0 <= factor < state.num_factors:
        raise ValueError(f"factor {factor} out of range for {state.num_factors} factors")
    u = np.ascontiguousarray(u, dtype=np.complex128)
    radix = state.radices[factor]
    if u.shape != (radix, radix):
        raise ValueError(f"matrix shape {u.shape} does not match factor radix {radix}")
    left = math.prod(state.radices[:factor])
    right = math.prod(state.radices[factor + 1 :])
    amps = np.einsum("ij,ajb->aib", u, state.amps.reshape(left, radix, right))
    return State(state.radices, amps)


def permute_factors(state: State, order: Iterable[int]) -> State:
    """Reorder tensor factors; new factor i is old factor order[i]."""
    order = tuple(order)
    if sorted(order) != list(range(state.num_factors)):
        raise ValueError(f"{order} is not a permutation of {state.num_factors} factors")
    new_radices = tuple(state.radices[f] for f in order)
    amps = np.ascontiguousarray(state.reshaped().transpose(order)).reshape(-1)
    return State(new_radices, amps)
