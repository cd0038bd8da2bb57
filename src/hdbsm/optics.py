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
from .core import State, apply_local_unitary, check_dimension, fourier_matrix
from .decomposition import hyperentangled_state
from .states import BellIndex, PhaseConvention, decomp_basis, shift_clock_unitary


@lru_cache(maxsize=None)
def prepare_source(d: int, convention: PhaseConvention) -> State:
    """Ideal source output: the (0, 0) Bell state times the auxiliary state.

    Shape (d, d, d, d) ordered (B system, B auxiliary, A system, A auxiliary).
    Built once per (d, convention) and shared; a State is immutable.
    """
    check_dimension(d)
    return hyperentangled_state(d, 0, 0, convention)


def prepare_bell(d: int, i: int, j: int, convention: PhaseConvention) -> State:
    """Source state steered to Bell index (i, j) by a local unitary on particle A's path."""
    unitary = shift_clock_unitary(d, i, j, convention)
    return apply_local_unitary(prepare_source(d, convention), unitary, factor=2)


def oam_sort(state: State) -> State:
    """Convert the OAM digit of a single-particle state into an expanded path label.

    Pure relabeling (path, oam) -> (group, port) with group = (path - oam)
    mod d and port = path. Group g then carries exactly the support of the
    decomposition states with m = g. Norm is preserved exactly and the map
    is invertible.
    """
    if len(state.radices) != 2 or state.radices[0] != state.radices[1]:
        raise ValueError(f"expected a single-particle (d, d) state, got {state.radices}")
    d = state.radices[0]
    group, port = np.ix_(np.arange(d), np.arange(d))
    return State((d, d), state.reshaped()[port, (port - group) % d])


@dataclass(frozen=True, eq=False)
class BsaLayout:
    """Analyser wiring: the one d-point transform that every expanded-path group applies.

    Also the whole read-only analyser ``unitary`` U and ``equivalence_gap``, the
    operator distance max |U - conj(S)| from the conjugate decomposition basis S.
    """

    d: int
    convention: PhaseConvention
    transform: np.ndarray
    unitary: np.ndarray
    equivalence_gap: float


@lru_cache(maxsize=None)
def bsa_layout(d: int, convention: PhaseConvention) -> BsaLayout:
    """Analyser layout for one particle.

    Every group carries the same transform: the Fourier matrix conjugate to
    the decomposition-state phases, so the projection onto the literal
    decomposition basis comes out exactly regardless of the convention.
    U comes from the wiring and S from the state formula in ``decomp_basis``,
    so the gap checks one against the other. Built once per (d, convention).
    """
    transform = fourier_matrix(d, -convention.decomp_sign)
    transform.flags.writeable = False
    unitary = bsa_unitary(d, transform)
    unitary.flags.writeable = False
    gap = float(np.max(np.abs(unitary - decomp_basis(d, convention.decomp_sign).conj())))
    return BsaLayout(d, convention, transform, unitary, gap)


def analyse(state: State, layout: BsaLayout) -> np.ndarray:
    """Detector amplitudes of a single-particle state, indexed [k, m].

    The amplitude at detector (k, m) equals the overlap of the input with
    the decomposition state (k, m).
    """
    return layout.transform @ oam_sort(state).reshaped().T


def bsa_unitary(d: int, transform: np.ndarray) -> np.ndarray:
    """Whole analyser as one d*d by d*d unitary.

    Row index k*d + m (detector), column index path*d + oam (input mode):
    the OAM-to-path sort composed with ``transform`` on every group.
    """
    port_out, group, port_in = np.ix_(*[np.arange(d)] * 3)
    u = np.zeros((d,) * 4, dtype=np.complex128)  # [port out, group, port in, oam]
    u[port_out, group, port_in, (port_in - group) % d] = transform[port_out, port_in]
    return u.reshape(d * d, d * d)


def pipeline_probabilities(state: State, layout: BsaLayout) -> CoincidenceTable:
    """Joint detector distribution of the two-particle optics, indexed [k, m, k', m'].

    Applies the analyser unitary to each particle's (system, auxiliary)
    factor pair and squares the resulting joint amplitudes.
    """
    d = layout.d
    if state.radices != (d,) * 4:
        raise ValueError(f"expected shape {(d,) * 4}, got {state.radices}")
    u = layout.unitary
    joint = state.amps.reshape(d * d, d * d)
    detector_amps = u @ joint @ u.T
    return CoincidenceTable(d, np.abs(detector_amps.reshape((d,) * 4)) ** 2)


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Everything one simulated run produces; ``equivalence_gap`` is the layout's operator gap."""

    d: int
    bell: BellIndex
    convention: PhaseConvention
    probabilities: CoincidenceTable
    record: ShotRecord | None
    equivalence_gap: float

    @property
    def equivalent(self) -> bool:
        """Analyser operator equals the conjugate decomposition basis within 1e-9."""
        return self.equivalence_gap < 1e-9


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
    """
    state = prepare_bell(d, i, j, convention)
    layout = bsa_layout(d, convention)
    table = pipeline_probabilities(state, layout)
    record = sample_outcomes(table, shots, seed) if shots > 0 else None
    return ExperimentResult(d, BellIndex(i, j), convention, table, record, layout.equivalence_gap)
