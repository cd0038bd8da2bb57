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

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import State, as_index, check_dimension


class BellIndex(NamedTuple):
    """Index pair (i, j) of a two-particle Bell state: i the phase index, j the shift."""

    i: int
    j: int


@dataclass(frozen=True)
class PhaseConvention:
    """Signs of the phase exponents in the Bell and decomposition families, each a plain int ±1."""

    bell_sign: int
    decomp_sign: int

    def __post_init__(self) -> None:
        bell = as_index(self.bell_sign, "bell_sign")
        decomp = as_index(self.decomp_sign, "decomp_sign")
        if bell not in (1, -1) or decomp not in (1, -1):
            raise ValueError("phase convention signs must be +1 or -1")
        object.__setattr__(self, "bell_sign", bell)
        object.__setattr__(self, "decomp_sign", decomp)

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


def bell_state(d: int, i: int, j: int, convention: PhaseConvention) -> State:
    """Two-particle Bell state on the system degree of freedom.

    Shape (d, d), factor 0 the first particle's digit (particle B), factor 1
    the second particle's (particle A):

        (1/sqrt(d)) * sum_n exp(bell_sign*2j*pi*i*n/d) |n, (n+j) mod d>
    """
    d, i, j = check_dimension(d, i=i, j=j)
    n = np.arange(d)
    amps = np.zeros((d, d), dtype=np.complex128)
    amps[n, (n + j) % d] = np.exp(convention.bell_sign * 2j * np.pi * i * n / d)
    return State((d, d), amps.reshape(-1) / np.sqrt(d))


def aux_state(d: int) -> State:
    """Maximally entangled auxiliary state (1/sqrt(d)) * sum_p |p, p>."""
    d = check_dimension(d)
    amps = np.zeros((d, d), dtype=np.complex128)
    amps[np.arange(d), np.arange(d)] = 1.0
    return State((d, d), amps.reshape(-1) / np.sqrt(d))


def decomp_state(d: int, k: int, m: int, convention: PhaseConvention) -> State:
    """Single-particle decomposition state across system and auxiliary factors.

    Shape (d, d), factor 0 the system digit, factor 1 the auxiliary digit:

        (1/sqrt(d)) * sum_q exp(decomp_sign*2j*pi*k*q/d) |q, (q-m) mod d>

    The auxiliary letters a, b, c, ... are the digits 0, 1, 2, ..., because
    the construction rule does modular arithmetic on them. Successive m
    shift the auxiliary letter of every term down by one, matching the
    construction rule that builds the m > 0 states from the m = 0 ones.
    """
    d, k, m = check_dimension(d, k=k, m=m)
    return State((d, d), decomp_basis(d, convention)[k * d + m])


def decomp_basis(d: int, convention: PhaseConvention) -> np.ndarray:
    """Read-only (d*d, d*d) array whose row k*d + m is decomposition state (k, m).

    Row k*d + m holds exp(decomp_sign*2j*pi*k*q/d)/sqrt(d) at column
    q*d + (q - m) mod d. Built once per (d, decomp_sign), so the two
    conventions that share a decomposition sign share one array, which
    :func:`decomp_state` and the pair projections of hdbsm.decomposition read.
    d is read before the cache lookup, so every spelling of an integer finds
    the one array built for it.
    """
    return _decomp_basis(check_dimension(d), convention.decomp_sign)


@lru_cache(maxsize=None)
def _decomp_basis(d: int, decomp_sign: int) -> np.ndarray:
    digits = np.arange(d)
    phases = np.exp(decomp_sign * 2j * np.pi * digits[:, None] * digits / d) / np.sqrt(d)
    k, m, q = np.ix_(digits, digits, digits)
    rows = np.zeros((d, d, d, d), dtype=np.complex128)  # [k, m, system q, auxiliary]
    rows[k, m, q, (q - m) % d] = phases[k, q]
    rows = rows.reshape(d * d, d * d)
    rows.flags.writeable = False
    return rows


def shift_clock_unitary(d: int, i: int, j: int, convention: PhaseConvention) -> np.ndarray:
    """Local unitary on particle A's system factor turning the (0, 0) Bell state into (i, j).

    The monomial X^j Z^b with b = bell_sign * i mod d, the shift X|n> =
    |(n+1) mod d> applied after the clock Z|n> = exp(2j*pi*n/d)|n>, written
    as one array formula: column n holds exp(2j*pi*b*n/d) at row (n+j) mod d
    and zeros elsewhere. It maps sum_n |n, n> onto the bell_state(d, i, j)
    sum under either sign convention. Every monomial X^a Z^b is unique up to
    a phase, so no other shift/clock monomial reaches the target except as a
    phase multiple.
    """
    d, i, j = check_dimension(d, i=i, j=j)
    b = (convention.bell_sign * i) % d
    n = np.arange(d)
    u = np.zeros((d, d), dtype=np.complex128)
    u[(n + j) % d, n] = np.exp(2j * np.pi * b * n / d)
    return u
