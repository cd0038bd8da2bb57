"""Amplitude-level simulation of the proposed path/OAM measurement optics.

Pipeline per run: the ideal two-particle source state, preparation of an
arbitrary Bell index by a local unitary on one particle's path factor, and a
Bell state analyser per particle. The analyser first converts the OAM digit
into an expanded-path label (a pure relabeling that groups the d modes of
each decomposition m-sector together) and then applies one d-point conjugate
Fourier transform per group, so that detector (group m, port k) fires
exactly for the decomposition state with index (k, m).

Everything is ideal-amplitude simulation: no loss, no detector model, one
photon per arm. The OAM values of the d=3 proposal (-1, 0, +1) map to
digits (0, 1, 2) in alphabetical-label order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .classifier import CoincidenceTable, ShotRecord, sample_outcomes
from .core import State, apply_local_unitary, as_index, check_dimension, fourier_matrix
from .decomposition import hyperentangled_state, pair_product
from .states import BellIndex, PhaseConvention, decomp_basis, shift_clock_unitary

EQUIVALENCE_TOL = 1e-9  # an analyser is equivalent when its operator gap lies strictly below it


def prepare_bell(d: int, i: int, j: int, convention: PhaseConvention) -> State:
    """Source state, the cached hyperentangled state (0, 0), steered to (i, j) on A's path.

    The steering unitary is the monomial X^j Z^(bell_sign * i) of
    :func:`hdbsm.states.shift_clock_unitary`.
    """
    d, i, j = check_dimension(d, i=i, j=j)
    unitary = shift_clock_unitary(d, i, j, convention)
    return apply_local_unitary(hyperentangled_state(d, 0, 0, convention), unitary, factor=2)


@dataclass(frozen=True, eq=False)
class BsaLayout:
    """A particle's read-only analyser ``unitary`` U and ``equivalence_gap`` max |U - conj(S)|."""

    d: int
    unitary: np.ndarray
    equivalence_gap: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", check_dimension(self.d))


def bsa_layout(d: int, convention: PhaseConvention) -> BsaLayout:
    """Analyser layout for one particle.

    Every group carries the same transform, kept only to write U: the Fourier
    matrix conjugate to the decomposition-state phases, so the projection onto
    the literal decomposition basis comes out exactly under any convention.
    U, row k*d + m (detector) and column path*d + oam (input mode), is the
    OAM-to-path sort, group = (path - oam) mod d, then the transform on every
    group. U comes from this wiring and S from the state formula in
    ``decomp_basis``, so the gap checks one against the other. Built once per
    (d, convention), with d read by ``check_dimension`` before the cache lookup.
    """
    return _bsa_layout(check_dimension(d), convention)


@lru_cache(maxsize=None)
def _bsa_layout(d: int, convention: PhaseConvention) -> BsaLayout:
    transform = fourier_matrix(d, -convention.decomp_sign)
    port_out, group, port_in = np.ix_(*[np.arange(d)] * 3)
    unitary = np.zeros((d,) * 4, dtype=np.complex128)  # [port out, group, port in, oam]
    unitary[port_out, group, port_in, (port_in - group) % d] = transform[port_out, port_in]
    unitary = unitary.reshape(d * d, d * d)
    unitary.flags.writeable = False
    gap = float(np.max(np.abs(unitary - decomp_basis(d, convention).conj())))
    return BsaLayout(d, unitary, gap)


def pipeline_probabilities(state: State, layout: BsaLayout) -> CoincidenceTable:
    """Joint detector distribution of the two-particle optics, indexed [k, m, k', m'].

    Applies the analyser U to each particle's (system, auxiliary) factor pair,
    the :func:`hdbsm.decomposition.pair_product` of the state with U, and squares it.
    """
    amplitudes = pair_product(state.reshaped()[None], layout.unitary)[0]
    return CoincidenceTable(layout.d, np.abs(amplitudes) ** 2)


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Everything one simulated run produces; ``equivalence_gap`` is the layout's operator gap."""

    bell: BellIndex
    probabilities: CoincidenceTable
    record: ShotRecord | None
    equivalence_gap: float


def run_experiment(
    d: int,
    i: int,
    j: int,
    shots: int,
    seed: int,
    convention: PhaseConvention,
) -> ExperimentResult:
    """Full optics run: prepare, analyse both particles, and sample.

    ``shots = 0`` produces the theoretical table only. The state is projected
    once, through the analyser; ``equivalence_gap`` is the operator distance
    max |U - conj(S)| of its layout, not a distance between tables.

    Raises:
        ValueError: ``shots``, ``seed``, d, i or j is not an integer or is out of range.
    """
    shots = as_index(shots, "shots", minimum=0)
    seed = as_index(seed, "seed", minimum=0)
    d, i, j = check_dimension(d, i=i, j=j)
    state = prepare_bell(d, i, j, convention)
    layout = bsa_layout(d, convention)
    table = pipeline_probabilities(state, layout)
    record = sample_outcomes(table, shots, seed) if shots > 0 else None
    return ExperimentResult(BellIndex(i, j), table, record, layout.equivalence_gap)
