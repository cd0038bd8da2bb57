"""Constructors for the named state families of the protocol.

Three families, all for arbitrary dimension d:

  * two-particle Bell states in the system degree of freedom,
  * the maximally entangled two-particle auxiliary state,
  * single-particle "decomposition" states, maximally entangled between one
    particle's system and auxiliary degrees of freedom.

The exponent signs of the phase factors are an explicit PhaseConvention
parameter rather than a constant: the literal construction signs (+, +)
and the signs required by the reference decomposition tables disagree, and
which combination reconciles them is an empirical finding of this package
(see hdbsm.decomposition.find_convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import LOGIC_TOL, State


class BellIndex(NamedTuple):
    """Index pair (i, j) of a two-particle Bell state: i the phase index, j the shift."""

    i: int
    j: int


@dataclass(frozen=True)
class PhaseConvention:
    """Signs of the phase exponents in the Bell and decomposition families."""

    bell_sign: int = 1
    decomp_sign: int = 1

    def __post_init__(self) -> None:
        if self.bell_sign not in (1, -1) or self.decomp_sign not in (1, -1):
            raise ValueError("phase convention signs must be +1 or -1")

    def label(self) -> str:
        plus_minus = {1: "+", -1: "-"}
        return plus_minus[self.bell_sign] + plus_minus[self.decomp_sign]

    @classmethod
    def from_label(cls, label: str) -> "PhaseConvention":
        signs = {"+": 1, "-": -1}
        if len(label) != 2 or label[0] not in signs or label[1] not in signs:
            raise ValueError(f"convention label must be two of '+'/'-', got {label!r}")
        return cls(signs[label[0]], signs[label[1]])


#: The signs of the construction formulas taken literally.
LITERAL_CONVENTION = PhaseConvention(1, 1)

#: The convention that reproduces the reference decomposition tables while
#: keeping the decomposition states literal (so the analyser matrix identities
#: hold as displayed). See decomposition.find_convention for the derivation.
REFERENCE_CONVENTION = PhaseConvention(-1, 1)

ALL_CONVENTIONS = (
    PhaseConvention(1, 1),
    PhaseConvention(1, -1),
    PhaseConvention(-1, 1),
    PhaseConvention(-1, -1),
)


def _check_index(d: int, name: str, value: int) -> None:
    if not 0 <= value < d:
        raise ValueError(f"{name}={value} out of range for dimension {d}")


def bell_state(d: int, i: int, j: int, convention: PhaseConvention = LITERAL_CONVENTION) -> State:
    """Two-particle Bell state on the system degree of freedom.

    Shape (d, d), factor 0 the first particle's digit (particle B), factor 1
    the second particle's (particle A):

        (1/sqrt(d)) * sum_n exp(bell_sign*2j*pi*i*n/d) |n, (n+j) mod d>
    """
    _check_index(d, "i", i)
    _check_index(d, "j", j)
    amps = np.zeros((d, d), dtype=np.complex128)
    phases = np.exp(convention.bell_sign * 2j * np.pi * i * np.arange(d) / d)
    for n in range(d):
        amps[n, (n + j) % d] = phases[n]
    return State((d, d), amps.reshape(-1) / np.sqrt(d))


def aux_state(d: int) -> State:
    """Maximally entangled auxiliary state (1/sqrt(d)) * sum_p |p, p>."""
    amps = np.zeros((d, d), dtype=np.complex128)
    amps[np.arange(d), np.arange(d)] = 1.0
    return State((d, d), amps.reshape(-1) / np.sqrt(d))


def decomp_state(
    d: int, k: int, m: int, convention: PhaseConvention = LITERAL_CONVENTION
) -> State:
    """Single-particle decomposition state across system and auxiliary factors.

    Shape (d, d), factor 0 the system digit, factor 1 the auxiliary digit:

        (1/sqrt(d)) * sum_q exp(decomp_sign*2j*pi*k*q/d) |q, (q-m) mod d>

    The auxiliary letters a, b, c, ... are the digits 0, 1, 2, ..., because
    the construction rule does modular arithmetic on them. Successive m
    shift the auxiliary letter of every term down by one, matching the
    construction rule that builds the m > 0 states from the m = 0 ones.
    """
    _check_index(d, "k", k)
    _check_index(d, "m", m)
    amps = np.zeros((d, d), dtype=np.complex128)
    phases = np.exp(convention.decomp_sign * 2j * np.pi * k * np.arange(d) / d)
    for q in range(d):
        amps[q, (q - m) % d] = phases[q]
    return State((d, d), amps.reshape(-1) / np.sqrt(d))


def clock_matrix(d: int, exponent: int = 1) -> np.ndarray:
    """Diagonal clock matrix Z^exponent with Z|n> = exp(2j*pi*n/d)|n>."""
    return np.diag(np.exp(2j * np.pi * exponent * np.arange(d) / d))


def shift_matrix(d: int, exponent: int = 1) -> np.ndarray:
    """Cyclic shift matrix X^exponent with X|n> = |(n+1) mod d>."""
    u = np.zeros((d, d), dtype=np.complex128)
    u[(np.arange(d) + exponent) % d, np.arange(d)] = 1.0
    return u


class CalibrationError(RuntimeError):
    """No shift/clock monomial maps the base Bell state to the target."""


@lru_cache(maxsize=None)
def _monomial_stack(d: int) -> np.ndarray:
    """Read-only stack of the 2*d*d shift/clock monomials in search order.

    Candidate 2*(a*d + b) is X^a Z^b and candidate 2*(a*d + b) + 1 is Z^b X^a,
    each the same product of shift_matrix and clock_matrix, taken for all
    (a, b) in two batched products.
    """
    n = np.arange(d)
    shifts = ((n[:, None] - n) % d == n[:, None, None]).astype(np.complex128)
    clocks = np.zeros((d, d, d), dtype=np.complex128)
    clocks[:, n, n] = np.exp(2j * np.pi * n[:, None] * n / d)
    pairs = (shifts[:, None] @ clocks, clocks @ shifts[:, None])
    stack = np.stack(pairs, axis=2).reshape(2 * d * d, d, d)
    stack.flags.writeable = False
    return stack


def _search_monomial(source: State, target: State, d: int, factor: int) -> np.ndarray:
    """First monomial, in stack order, mapping source to target on one factor.

    All candidates are scored in one product: the overlap of the target with
    the source after candidate U on the factor is sum(U * M), where M contracts
    the conjugate target with the source over every other factor.
    """
    left = math.prod(source.radices[:factor])
    right = math.prod(source.radices[factor + 1 :])
    shape = (left, d, right)
    m = np.einsum("lmr,lkr->mk", target.amps.reshape(shape).conj(), source.amps.reshape(shape))
    stack = _monomial_stack(d)
    fidelities = np.abs(stack.reshape(len(stack), d * d) @ m.reshape(-1))
    reached = np.flatnonzero(fidelities >= 1.0 - LOGIC_TOL)
    if reached.size == 0:
        raise CalibrationError(
            "no shift/clock monomial reaches the target state; "
            "this indicates an inconsistent phase convention"
        )
    return stack[reached[0]].copy()


def shift_clock_unitary(
    d: int, i: int, j: int, convention: PhaseConvention = LITERAL_CONVENTION
) -> np.ndarray:
    """Local unitary on particle A's system factor turning the (0, 0) Bell state into (i, j).

    The matrix is a monomial in the clock and shift matrices. The exact
    exponents and ordering are found by an exhaustive fidelity search rather
    than assumed, so the result is correct for either sign convention. All
    2*d*d candidates X^a Z^b and Z^b X^a, held in one read-only stack per d,
    are scored in one batched product, and the first in the order
    a, b, then X^a Z^b before Z^b X^a whose fidelity reaches 1 - LOGIC_TOL
    is returned, as a search testing one candidate at a time would return.

    Raises:
        CalibrationError: if no monomial achieves unit fidelity.
    """
    _check_index(d, "i", i)
    _check_index(d, "j", j)
    source = bell_state(d, 0, 0, convention)
    target = bell_state(d, i, j, convention)
    return _search_monomial(source, target, d, factor=1)
