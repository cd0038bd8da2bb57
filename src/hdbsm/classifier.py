"""Measurement protocol built on the decomposition structure.

The d*d decomposition tables induce a partition of all d**4 single-particle
outcome pairs into d*d classes, one per Bell index: the decoding table.
Coincidence probabilities of any two-particle input over the outcome pairs
then classify the input by aggregating probability per class. A seeded
sampler turns probability tables into reproducible finite-shot records.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .core import LOGIC_TOL, State
from .decomposition import IndexLaw, decompose_all, pair_coefficients
from .states import BellIndex, PhaseConvention


class CollisionError(RuntimeError):
    """Two Bell indices claim the same outcome pair in the decoding table."""


UNREACHABLE = -1

# Indexed search of sample_outcomes: cells of [0, 1), one per value of a raw
# 64-bit word's top _CELL_BITS bits, and words drawn per step.
_CELL_BITS = 12
_CELLS = 1 << _CELL_BITS
_CHUNK = 1 << 14


@dataclass(frozen=True, eq=False)
class DecodingTable:
    """Total map from outcome pairs to Bell indices.

    ``bell_i`` and ``bell_j`` are int arrays indexed [k, m, k', m'];
    UNREACHABLE (-1) marks pairs no Bell input can produce. For the
    protocol's states no pair is unreachable: the classes partition all
    d**4 pairs into d*d groups of d*d.
    """

    d: int
    convention: PhaseConvention | None
    bell_i: np.ndarray
    bell_j: np.ndarray

    @cached_property
    def class_order(self) -> np.ndarray:
        """Flat outcome indices grouped by class, classes in (i, j) order.

        A stable argsort of the class index i*d + j, so each class lists its
        pairs in flat order.

        Raises:
            ValueError: the table is not d*d classes of d*d pairs each.
        """
        d = self.d
        classes = (self.bell_i * d + self.bell_j).reshape(-1)
        order = np.argsort(classes, kind="stable")
        partition = np.repeat(np.arange(d * d), d * d)
        in_range = ((self.bell_j >= 0) & (self.bell_j < d)).all()
        if not (in_range and np.array_equal(classes[order], partition)):
            raise ValueError(f"decoding table is not {d * d} classes of {d * d} pairs each")
        order.flags.writeable = False
        return order


def build_decoding_table(d: int, convention: PhaseConvention) -> DecodingTable:
    """Derive the decoding table from the d*d computed decompositions.

    Raises:
        CollisionError: two Bell indices share an outcome pair, which would
            falsify distinguishability and must not occur.
    """
    bell_i = np.full((d, d, d, d), UNREACHABLE, dtype=np.int64)
    bell_j = np.full((d, d, d, d), UNREACHABLE, dtype=np.int64)
    for bell, table in decompose_all(d, convention).items():
        for key in table.entries:
            if bell_i[key] != UNREACHABLE:
                claimed = BellIndex(int(bell_i[key]), int(bell_j[key]))
                raise CollisionError(
                    f"outcome pair {key} claimed by both {claimed} and {bell}"
                )
            bell_i[key] = bell.i
            bell_j[key] = bell.j
    bell_i.flags.writeable = False
    bell_j.flags.writeable = False
    return DecodingTable(d, convention, bell_i, bell_j)


def decoding_table_from_law(law: IndexLaw) -> DecodingTable:
    """Build the decoding table directly from an affine index law.

    Independent of any computed decomposition: used to cross-check the
    table derived from the brute-force supports.
    """
    d = law.d
    t_inv = pow(law.t, -1, d)
    k, m, kp, mp = np.indices((d,) * 4, dtype=np.int64)
    bell_i = (t_inv * (kp - law.s * k)) % d
    bell_j = (mp - m) % d
    bell_i.flags.writeable = False
    bell_j.flags.writeable = False
    return DecodingTable(d, None, bell_i, bell_j)


@dataclass(frozen=True, eq=False)
class CoincidenceTable:
    """Probabilities of every outcome pair, indexed [k, m, k', m'].

    Raises:
        ValueError: wrong shape, or an entry that is negative, nan or inf.
    """

    d: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        if probs.shape != (self.d,) * 4:
            raise ValueError(f"probability array shape {probs.shape} is not (d,)*4")
        if not np.isfinite(probs).all():
            raise ValueError("probabilities must be finite")
        if (probs < 0.0).any():
            raise ValueError("probabilities must be non-negative")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    def total(self) -> float:
        return float(self.probs.sum())


def coincidence_probabilities(
    state: State, convention: PhaseConvention
) -> CoincidenceTable:
    """Projection probabilities of a two-particle state onto all decomposition pairs.

    Args:
        state: normalized state of shape (d, d, d, d) ordered
            (B system, B auxiliary, A system, A auxiliary).
        convention: phase convention of the decomposition states.

    Raises:
        ValueError: wrong shape or norm off by more than 1e-6.
    """
    if abs(state.norm() - 1.0) > 1e-6:
        raise ValueError(f"input state norm {state.norm():.9f} is not 1")
    coeffs = pair_coefficients(state, convention)
    return CoincidenceTable(state.radices[0], np.abs(coeffs) ** 2)


def mix_with_white_noise(table: CoincidenceTable, noise: float) -> CoincidenceTable:
    """Admix an isotropic background: (1 - noise) * table + noise * uniform.

    The admixture acts at the probability level; noise = 1 gives the
    maximally mixed outcome distribution.
    """
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise weight {noise} outside [0, 1]")
    uniform = 1.0 / table.d**4
    return CoincidenceTable(table.d, (1.0 - noise) * table.probs + noise * uniform)


@dataclass(frozen=True)
class Classification:
    """Argmax Bell class of a coincidence distribution.

    ``confidence`` is the total probability mass of the winning class. Ties
    (within the logic tolerance) are reported, with the lexicographically
    smallest index as the nominal winner.
    """

    bell: BellIndex
    confidence: float
    tie: bool
    tied_with: tuple[BellIndex, ...]
    class_masses: dict[BellIndex, float]


def classify_table(table: CoincidenceTable, decoding: DecodingTable) -> Classification:
    """Aggregate a coincidence table by decoding class and take the argmax.

    Raises:
        ValueError: the dimensions differ, or the decoding table is not d*d
            classes of d*d pairs each.
    """
    if table.d != decoding.d:
        raise ValueError("table and decoding dimensions differ")
    d = table.d
    # Each row of the gather holds one class's pairs in flat order, as a boolean
    # mask selects them, so every mass equals that mask's sum bit for bit
    # (np.bincount with weights adds in another order and differs).
    sums = table.probs.reshape(-1)[decoding.class_order].reshape(d * d, d * d).sum(axis=1)
    masses = dict(zip(_bell_indices(d), sums.tolist()))
    best = max(masses.values())
    tied = tuple(sorted(b for b, mass in masses.items() if mass >= best - LOGIC_TOL))
    winner = tied[0]
    return Classification(
        bell=winner,
        confidence=masses[winner],
        tie=len(tied) > 1,
        tied_with=tied,
        class_masses=masses,
    )


@lru_cache(maxsize=None)
def _bell_indices(d: int) -> tuple[BellIndex, ...]:
    return tuple(BellIndex(i, j) for i in range(d) for j in range(d))


def classify(state: State, convention: PhaseConvention) -> Classification:
    """Classify a two-particle state by its decomposition-pair coincidences."""
    table = coincidence_probabilities(state, convention)
    decoding = build_decoding_table(table.d, convention)
    return classify_table(table, decoding)


@dataclass(frozen=True, eq=False)
class ShotRecord:
    """Outcome counts of a finite sampling run, indexed like the table."""

    seed: int
    shots: int
    counts: np.ndarray


def sample_outcomes(table: CoincidenceTable, shots: int, seed: int) -> ShotRecord:
    """Multinomial draw from a coincidence table with a deterministic generator.

    Sampling is inverse-CDF over PCG64 uniforms: each of ``shots`` uniform
    doubles from ``numpy.random.Generator(numpy.random.PCG64(seed))`` selects
    the outcome ``searchsorted(cdf, u, side="right")`` of the normalised CDF,
    which is restricted to the nonzero outcomes and ends at exactly 1.
    Identical (table, shots, seed) give bit-identical counts on every
    platform. Outcomes of exactly zero probability can never be drawn.

    The uniforms are never formed in full. PCG64's ``random()`` is
    ``(w >> 11) * 2**-53`` of its next raw 64-bit word w, so the words are
    drawn with ``random_raw`` instead. The search is indexed: [0, 1) is cut
    into ``_CELLS`` = 2**12 equal cells, and the draw of word w lies in cell
    ``w >> 52``, its top 12 bits. Unless a CDF value falls strictly inside
    the cell, every draw in it selects the outcome that the cell's left edge
    selects, so draws are only counted per cell. Only the draws in cells that
    a CDF value splits are turned into uniforms and go through
    ``searchsorted``. The counts equal those of searching every draw.

    The words are drawn ``_CHUNK`` at a time from one bit generator, which
    continues one stream. The split-cell words of each chunk are copied into
    one buffer of ``_CHUNK`` words. When the next chunk's words would overflow
    it, and once after the last chunk, the buffered words are sorted and
    searched in ascending order, which is faster than a search in draw order,
    so a table whose split cells fit the buffer is searched once per call. A
    draw's outcome depends neither on when nor in what order it is searched.
    The sampler holds under 1 MB whatever ``shots`` is.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    flat = table.probs.reshape(-1)
    support = np.flatnonzero(flat)
    if support.size == 0:
        raise ValueError("no outcome has nonzero probability")
    # The CDF is searched over the support only: a CDF that rounds short of 1
    # must not leave a sliver of [0, 1) to trailing zero-probability outcomes.
    cdf = np.cumsum(flat / flat.sum())[support]
    cdf[-1] = 1.0
    edges = np.arange(_CELLS + 1) / _CELLS
    first = np.searchsorted(cdf, edges[:-1], side="right")
    split = first != np.searchsorted(cdf, edges[1:], side="left")
    any_split = bool(split.any())
    bits = np.random.PCG64(seed)
    size = min(_CHUNK, shots)
    cell_buffer = np.empty(size, dtype=np.uint64)
    in_split = np.empty(size, dtype=bool)
    pending = np.empty(size, dtype=np.uint64)
    filled = 0
    per_cell = np.zeros(_CELLS, dtype=np.intp)
    hits = np.zeros(support.size, dtype=np.intp)
    for start in range(0, shots, _CHUNK):
        words = bits.random_raw(min(_CHUNK, shots - start))
        n = words.size
        cells = np.right_shift(words, 64 - _CELL_BITS, out=cell_buffer[:n]).view(np.int64)
        per_cell += np.bincount(cells, minlength=_CELLS)
        if any_split:
            # Every cell index is in range; "wrap" skips the bounds check.
            mask = np.take(split, cells, mode="wrap", out=in_split[:n])
            chosen = words[mask]
            if filled + chosen.size > size:
                _search_sorted(pending[:filled], cdf, hits)
                filled = 0
            pending[filled : filled + chosen.size] = chosen
            filled += chosen.size
    _search_sorted(pending[:filled], cdf, hits)
    np.add.at(hits, first[~split], per_cell[~split])
    counts = np.zeros(flat.size, dtype=hits.dtype)
    counts[support] = hits
    counts = counts.reshape(table.probs.shape)
    counts.flags.writeable = False
    return ShotRecord(seed=seed, shots=shots, counts=counts)


def _search_sorted(words: np.ndarray, cdf: np.ndarray, hits: np.ndarray) -> None:
    """Add to ``hits`` the outcomes that raw words select, searched in ascending order.

    Sorts ``words`` in place: a search over sorted uniforms follows the same
    path through ``cdf`` from one draw to the next, which is much faster than
    a search in draw order, and a draw's outcome does not depend on the order.
    """
    words.sort()
    uniforms = (words >> 11) * 2.0**-53
    hits += np.bincount(np.searchsorted(cdf, uniforms, side="right"), minlength=hits.size)
