"""Dense complex linear algebra over small multi-qudit Hilbert spaces.

States live on labeled composite bases described by a tuple of radices,
one per tensor factor. Factor 0 is the most significant digit: the flat
offset of a digit tuple (n0, n1, ...) is n0 * prod(radices[1:]) + ..., so
labels read left to right exactly like ket labels |n0 n1 ...>.

LOGIC_TOL decides zero/nonzero coefficients throughout the package; every
coefficient of interest has magnitude 1/d >= 1/6, eight orders above it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from typing import Iterable

import numpy as np

LOGIC_TOL = 1e-9

MAX_DIMENSION = 6

format_bound = partial(np.format_float_scientific, trim="-", exp_digits=1)  # 1e-9, not 1e-09


class InvariantError(RuntimeError):
    """A computed result breaks the protocol's structure; the CLI exits 1 on any subclass."""


def as_index(value, name: str, minimum: int | None = None) -> int:
    """``operator.index(value)``, with a ValueError naming the argument, not a TypeError.

    A value below ``minimum``, when one is given, raises ValueError as well.
    """
    try:
        index = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and index < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {index}")
    return index


def check_dimension(d: int, **indices: int) -> int | tuple[int, ...]:
    """The plain ints of d and its named indices, the one read of each.

    ``check_dimension(d)`` returns d; ``check_dimension(d, i=i, j=j)`` returns
    ``(d, i, j)``, the indices in the order they are named. Each argument is
    read with ``as_index``, so numpy integers and bools come back as the equal
    ``int``. ValueError unless d is in 2..MAX_DIMENSION and each index in
    0..d-1; each index is read and range-checked before the next, so the
    message names the first bad argument.
    """
    d = as_index(d, "dimension")
    if not 2 <= d <= MAX_DIMENSION:
        raise ValueError(f"dimension {d} outside the supported range (2..{MAX_DIMENSION})")
    if not indices:
        return d
    checked = [d]
    for name, value in indices.items():
        index = as_index(value, name)
        if not 0 <= index < d:
            raise ValueError(f"{name}={value} out of range for dimension {d}")
        checked.append(index)
    return tuple(checked)


@dataclass(frozen=True, eq=False)
class State:
    """Complex amplitude vector over a labeled mixed-radix composite basis.

    Instances are immutable value objects: the amplitude array is copied on
    construction and marked read-only. All functions in this package treat
    states as pure values, so sharing across threads is safe.

    Raises:
        ValueError: a radix is not an integer >= 2 (numpy integers are stored
            as ``int``), the amplitude count is not the product of the
            radices, or an amplitude is not finite.
    """

    radices: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self) -> None:
        radices = tuple(as_index(r, "every radix") for r in self.radices)
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

    def norm(self) -> float:
        """Euclidean norm; inf when a finite amplitude above ~1e154 overflows its square."""
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(self.amps))

    def reshaped(self) -> np.ndarray:
        """Read-only view with one axis per tensor factor."""
        return self.amps.reshape(self.radices)


def tensor_product(u: State, v: State) -> State:
    """Joint state u (x) v; factor radices are concatenated in order."""
    return State(u.radices + v.radices, np.multiply.outer(u.amps, v.amps).reshape(-1))


def fourier_matrix(d: int, sign: int) -> np.ndarray:
    """Discrete Fourier matrix with entry (r, c) = exp(sign*2j*pi*r*c/d)/sqrt(d).

    Args:
        d: dimension, an integer of at least 2.
        sign: +1 or -1, the sign of the exponent, read with ``as_index``.
    """
    d = as_index(d, "dimension", minimum=2)
    sign = as_index(sign, "sign")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    grid = np.outer(np.arange(d), np.arange(d))
    return np.exp(sign * 2j * np.pi * grid / d) / np.sqrt(d)


def apply_local_unitary(state: State, u: np.ndarray, factor: int) -> State:
    """Apply a single-factor unitary to one tensor factor of a state.

    Args:
        state: input state.
        u: matrix of shape (r, r) where r is the radix of the chosen factor.
        factor: index of the tensor factor to act on, read with ``as_index``.

    Raises:
        ValueError: if the factor index is not an integer or out of range,
            or the matrix dimension does not match the factor radix.
    """
    factor = as_index(factor, "factor")
    if not 0 <= factor < len(state.radices):
        raise ValueError(f"factor {factor} out of range for {len(state.radices)} factors")
    u = np.ascontiguousarray(u, dtype=np.complex128)
    radix = state.radices[factor]
    if u.shape != (radix, radix):
        raise ValueError(f"matrix shape {u.shape} does not match factor radix {radix}")
    left = math.prod(state.radices[:factor])
    right = math.prod(state.radices[factor + 1 :])
    amps = np.einsum("ij,ajb->aib", u, state.amps.reshape(left, radix, right))
    return State(state.radices, amps)


def permute_factors(state: State, order: Iterable[int]) -> State:
    """Reorder tensor factors; new factor i is old factor order[i].

    Each entry is read with ``as_index``; ValueError unless they are integers
    that permute the factors.
    """
    order = tuple(as_index(f, "every factor of order") for f in order)
    if sorted(order) != list(range(len(state.radices))):
        raise ValueError(f"{order} is not a permutation of {len(state.radices)} factors")
    new_radices = tuple(state.radices[f] for f in order)
    amps = np.ascontiguousarray(state.reshaped().transpose(order)).reshape(-1)
    return State(new_radices, amps)
