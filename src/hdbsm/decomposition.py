"""Expansion of hyperentangled states in the decomposition-state pair basis.

For each Bell index the two-particle hyperentangled state (system Bell state
times auxiliary state) is expanded, by explicit inner products, in the basis
of products of single-particle decomposition states. The sparse support of
that expansion, the affine law linking the two particles' indices and the
root-of-unity coefficient phases are then fitted from the computed tables,
never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import LOGIC_TOL, InvariantError, State, check_dimension
from .states import (
    ALL_CONVENTIONS,
    BellIndex,
    PhaseConvention,
    REFERENCE_CONVENTION,
    aux_state,
    bell_state,
    decomp_basis,
)


class NoAffineLawError(InvariantError):
    """The computed supports are not affine in the Bell and Bob indices."""


class PhaseNotRootOfUnityError(InvariantError):
    """A coefficient phase is not an exact d-th root of unity."""


class NoMatchingConventionError(InvariantError):
    """No sign convention reproduces the reference index law."""


def hyperentangled_state(
    d: int, i: int, j: int, convention: PhaseConvention
) -> State:
    """Bell state (i, j) times the auxiliary state, factors ordered for per-particle grouping.

    Shape (d, d, d, d) with factor order (B system, B auxiliary, A system,
    A auxiliary), so factors (0, 1) are Bob's particle and (2, 3) Alice's.
    Cached by the plain ints that ``check_dimension`` reads first.
    """
    return _hyperentangled_state(*check_dimension(d, i=i, j=j), convention)


@lru_cache(maxsize=None)
def _hyperentangled_state(d: int, i: int, j: int, convention: PhaseConvention) -> State:
    return State((d,) * 4, _bell_row(d, i, convention)[j])


def _bell_row(d: int, i: int, convention: PhaseConvention) -> np.ndarray:
    """The d hyperentangled states of Bell row i, indexed [j, B sys, B aux, A sys, A aux].

    State j holds bell[n] * aux[p] at [n, p, (n + j) mod d, p], the product
    that ``core.tensor_product`` forms: bell is the diagonal of Bell state
    (i, 0), whose phases every Bell state (i, j) shares, and aux that of the
    auxiliary state.
    """
    bell = np.diagonal(bell_state(d, i, 0, convention).amps.reshape(d, d))
    aux = np.diagonal(aux_state(d).amps.reshape(d, d))
    j, n, p = np.ix_(*[np.arange(d)] * 3)
    psi = np.zeros((d,) * 5, dtype=np.complex128)
    psi[j, n, p, (n + j) % d, p] = np.multiply.outer(bell, aux)
    return psi


def pair_product(stack: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Amplitudes of each state of a stack on each product of two rows of a (d*d, d*d) basis.

    The pair basis is the Kronecker product basis (x) basis, so with each state
    reshaped to a d^2 x d^2 matrix Psi (rows Bob's digits, columns Alice's) its
    amplitudes are basis Psi basis^T, indexed [n, k, m, k', m'] for state n and
    rows k*d + m and k'*d + m', each bit for bit as in a stack of one. Any shape
    but (n, d, d, d, d) raises ValueError.
    """
    d = math.isqrt(len(basis))
    if stack.shape[1:] != (d,) * 4:
        raise ValueError(f"expected shape {(d,) * 4}, got {stack.shape[1:]}")
    return (basis @ stack.reshape(-1, d * d, d * d) @ basis.T).reshape(stack.shape)


def pair_coefficients(state: State, convention: PhaseConvention) -> np.ndarray:
    """Coefficients <alpha_km (x) alpha_k'm' | state> as an array indexed [k, m, k', m'].

    The :func:`pair_product` of the state, ordered (B system, B auxiliary, A system,
    A auxiliary), as a stack of one, with conj(S) for S = ``decomp_basis`` of the
    first radix, which is checked as a dimension (2..6) before the shape.
    """
    basis = decomp_basis(state.radices[0], convention.decomp_sign).conj()
    return pair_product(state.reshaped()[None], basis)[0]


@dataclass(frozen=True, eq=False)
class DecompositionTable:
    """Sparse expansion of one hyperentangled state over decomposition-state pairs.

    ``flat_support`` holds the flat pair index ((k*d + m)*d + k')*d + m' of
    every coefficient with magnitude above the logic threshold, and
    ``coeffs`` the coefficients in the same order. The first index pair
    (k, m) is Bob's particle, the second Alice's. :func:`decompose` and
    :func:`decompose_all` hand every caller the same cached tables, so theirs
    hold read-only arrays in ascending flat order. A d that is not an integer
    in 2..6, a ``flat_support`` that is not a 1-D integer array, ``coeffs``
    that is not a 1-D array, an index outside [0, d**4), a repeated index, or
    a coefficient count other than the index count raises ``ValueError``.
    """

    d: int
    bell: BellIndex
    flat_support: np.ndarray = field(repr=False)
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", check_dimension(self.d))
        flat = self.flat_support
        if not isinstance(flat, np.ndarray) or flat.dtype.kind not in "iu" or flat.ndim != 1:
            raise ValueError("flat_support must be a 1-D integer array")
        if not isinstance(self.coeffs, np.ndarray) or self.coeffs.ndim != 1:
            raise ValueError("coeffs must be a 1-D array")
        if self.coeffs.size != flat.size:
            raise ValueError(f"{self.coeffs.size} coefficients for {flat.size} pair indices")
        if not np.all((flat >= 0) & (flat < self.d**4)):
            raise ValueError(f"pair index outside [0, {self.d**4}) at d={self.d}")
        if (np.diff(np.sort(flat)) == 0).any():
            raise ValueError(f"repeated pair index in {flat.tolist()}")

    def phase_ints(self) -> np.ndarray:
        """Integers r with coefficient phase exp(2j*pi*r/d), aligned with ``flat_support``."""
        return _phase_ints(self.coeffs, self.d)


def _phase_ints(coeffs: np.ndarray, d: int) -> np.ndarray:
    """Integers r with each coefficient's phase within LOGIC_TOL of 2*pi*r/d."""
    angle = np.arctan2(coeffs.imag, coeffs.real)
    r = np.round(angle * d / (2 * math.pi)).astype(np.intp) % d
    residual = angle - 2 * math.pi * r / d
    residual = (residual + math.pi) % (2 * math.pi) - math.pi
    bad = np.flatnonzero(np.abs(residual) > LOGIC_TOL)
    if bad.size:
        n = bad[0]
        raise PhaseNotRootOfUnityError(
            f"phase {float(angle[n])} of coefficient {complex(coeffs[n])} is "
            f"{float(residual[n])} radians away from the nearest multiple of 2*pi/{d}"
        )
    return r


def decompose(
    d: int, i: int, j: int, convention: PhaseConvention
) -> DecompositionTable:
    """Expand one hyperentangled state over all decomposition-state pairs.

    The coefficients are the inner products of the (d, d, d, d) joint state
    with every product of single-particle decomposition states, Bob's factor
    first; entries below the logic threshold are dropped. The table is read
    from the cached projection of the whole Bell row i (see
    :func:`_decompose_row`), so it is shared with :func:`decompose_all`.
    """
    d, i, j = check_dimension(d, i=i, j=j)
    return _decompose_row(d, i, convention.bell_sign, convention.decomp_sign)[j]


@lru_cache(maxsize=None, typed=True)
def _decompose_row(
    d: int, i: int, bell_sign: int, decomp_sign: int
) -> tuple[DecompositionTable, ...]:
    """Decomposition tables of Bell row i (j = 0..d-1) from one stacked projection.

    The d hyperentangled states of :func:`_bell_row` go through one
    :func:`pair_product` with conj(S), so every coefficient equals, bit for
    bit, the one from projecting :func:`hyperentangled_state` on its own.
    Each table's arrays are read-only slices in ascending flat order.
    """
    d, i = check_dimension(d, i=i)
    conv = PhaseConvention(bell_sign, decomp_sign)
    # Referenced until return: freed inside pair_product, malloc trims its pages (~7% slower).
    stack = _bell_row(d, i, conv)
    coeffs = pair_product(stack, decomp_basis(d, decomp_sign).conj()).reshape(d, d**4)
    js, flat = np.nonzero(np.abs(coeffs) > LOGIC_TOL)
    values = coeffs[js, flat]
    flat.flags.writeable = False
    values.flags.writeable = False
    bounds = [0, *np.bincount(js, minlength=d).cumsum().tolist()]
    return tuple(
        DecompositionTable(d, BellIndex(i, j), flat[start:end], values[start:end])
        for j, (start, end) in enumerate(zip(bounds, bounds[1:]))
    )


def decompose_all(
    d: int, convention: PhaseConvention
) -> dict[BellIndex, DecompositionTable]:
    """Decomposition tables for all d*d Bell indices under one convention.

    Each Bell row i is projected in one stacked product and cached, so
    repeated calls, and :func:`decompose` calls, share the same tables.
    """
    d = check_dimension(d)
    return {
        table.bell: table
        for i in range(d)
        for table in _decompose_row(d, i, convention.bell_sign, convention.decomp_sign)
    }


@dataclass(frozen=True)
class IndexLaw:
    """Affine law k' = (s*k + t*i) mod d on the support, plus the m' = (m+j) mod d flag.

    d, s and t are stored as the plain ints that ``check_dimension`` returns, s and t in 0..d-1.
    """

    d: int
    s: int
    t: int
    m_law_holds: bool

    def __post_init__(self) -> None:
        d, s, t = check_dimension(self.d, s=self.s, t=self.t)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)


def reference_index_law(d: int) -> IndexLaw:
    """The published general law: s = t = d - 1 with m' = (m + j) mod d."""
    d = check_dimension(d)
    return IndexLaw(d, d - 1, d - 1, True)


def _check_complete(tables: dict[BellIndex, DecompositionTable]) -> int:
    """The dimension d of the tables, which must cover all d*d Bell indices."""
    if not tables:
        raise ValueError("no tables given")
    d = next(iter(tables.values())).d
    expected = {BellIndex(i, j) for i in range(d) for j in range(d)}
    if set(tables) != expected:
        raise ValueError(f"need all {d * d} Bell indices, got {len(tables)}")
    return d


def _support_digits(
    mapping: dict[BellIndex, DecompositionTable],
) -> tuple[int, list[DecompositionTable], np.ndarray, tuple[np.ndarray, ...]]:
    """Checked dimension d, tables in Bell order, sort permutation and digits.

    The permutation takes the tables' concatenated entries to (Bell index,
    flat pair index) order, the order of the digits (k, m, k', m', i, j).
    :func:`fit_phase_law` names the first bad phase in that order.
    """
    d = _check_complete(mapping)
    ordered = [mapping[bell] for bell in sorted(mapping)]
    flat = np.concatenate([table.flat_support for table in ordered])
    bell = np.repeat(np.arange(d * d), [table.flat_support.size for table in ordered])
    order = np.argsort(bell * d**4 + flat, kind="stable")
    k, m, kp, mp = np.unravel_index(flat[order], (d,) * 4)
    i, j = np.divmod(bell[order], d)
    return d, ordered, order, (k, m, kp, mp, i, j)


def fit_index_law(tables: dict[BellIndex, DecompositionTable]) -> IndexLaw:
    """Fit the unique affine index law reproducing every support tuple.

    The law constrains the support only through its (k, i, k') triples, so
    the triples present are marked in a (d, d, d) grid and every (s, t) is
    tested against them at once.

    Args:
        tables: the complete set of d*d decomposition tables for one
            (dimension, convention), as returned by :func:`decompose_all`.

    Raises:
        NoAffineLawError: no (s, t) pair reproduces all supports, which
            would indicate a construction bug.
    """
    d, _, _, (k, m, kp, mp, i, j) = _support_digits(tables)
    present = np.zeros((d,) * 3, dtype=bool)
    present[k, i, kp] = True
    # From here k, i and k' run over every digit, as axes of the (s, t, k, i, k') grid.
    s, t, k, i, kp = np.ix_(*[np.arange(d)] * 5)
    holds = ((s * k + t * i) % d == kp) | ~present
    fits = [tuple(fit) for fit in np.argwhere(holds.all(axis=(2, 3, 4))).tolist()]
    if not fits:
        raise NoAffineLawError(f"support is not affine in (k, i) at d={d}")
    if len(fits) > 1:
        raise NoAffineLawError(f"ambiguous affine law at d={d}: {fits}")
    s, t = fits[0]
    return IndexLaw(d, s, t, bool(((m + j) % d == mp).all()))


@dataclass(frozen=True, eq=False)
class PhaseLaw:
    """Fitted root-of-unity coefficient phases.

    ``table`` maps (k, m, i, j) to the integer r with coefficient phase
    exp(2j*pi*r/d). ``closed_form`` is the lexicographically first triple
    (u, v, w) with r = (u*k'*j + v*i*j + w) mod d fitting every entry, or
    None when the three-parameter form fits nothing.
    """

    table: dict[tuple[int, int, int, int], int]
    closed_form: tuple[int, int, int] | None


def fit_phase_law(tables: dict[BellIndex, DecompositionTable]) -> PhaseLaw:
    """Record every coefficient phase as an exact d-th root of unity and fit a closed form.

    Raises:
        PhaseNotRootOfUnityError: a coefficient phase deviates from every
            multiple of 2*pi/d by more than the logic tolerance.
    """
    d, ordered, order, (k, m, kp, mp, i, j) = _support_digits(tables)
    r = _phase_ints(np.concatenate([table.coeffs for table in ordered])[order], d)
    phase_table = dict(zip(zip(k.tolist(), m.tolist(), i.tolist(), j.tolist()), r.tolist()))
    # The form constrains the entries only through their (k'*j mod d,
    # i*j mod d, r) triples; mark those present and test every (u, v, w) at once.
    present = np.zeros((d,) * 3, dtype=bool)
    present[kp * j % d, i * j % d, r] = True
    # The (u, v, w, k'*j mod d, i*j mod d, r) grid.
    u, v, w, a, b, r = np.ix_(*[np.arange(d)] * 6)
    holds = ((u * a + v * b + w) % d == r) | ~present
    fits = np.argwhere(holds.all(axis=(3, 4, 5))).tolist()
    closed_form = tuple(fits[0]) if fits else None
    return PhaseLaw(phase_table, closed_form)


@dataclass(frozen=True, eq=False)
class ConventionSearch:
    """Result of fitting the index law under all four sign conventions.

    ``matching`` holds the conventions that reproduce the reference law, in
    preference order (see :func:`find_convention`).
    """

    laws: dict[PhaseConvention, IndexLaw]
    matching: tuple[PhaseConvention, ...]

    @property
    def preferred(self) -> PhaseConvention:
        """The first matching convention."""
        return self.matching[0]


def find_convention(d: int) -> ConventionSearch:
    """Search the four sign conventions for the ones matching the reference law.

    Only meaningful for d >= 3: at d = 2 every sign choice produces the same
    states, so nothing can be discriminated. The matching conventions are
    listed reference convention first: its decomposition states are literal
    (decomp_sign=+1), so the analyser's conjugate-transform identities hold
    exactly as displayed.

    Raises:
        ValueError: d < 3.
        NoMatchingConventionError: no convention fits s = t = d - 1, which
            would falsify the construction, not the reference tables.
    """
    d = check_dimension(d)
    if d < 3:
        raise ValueError("convention search needs d >= 3; all conventions coincide at d = 2")
    target = reference_index_law(d)
    laws: dict[PhaseConvention, IndexLaw] = {}
    matching = []
    for conv in ALL_CONVENTIONS:
        law = fit_index_law(decompose_all(d, conv))
        laws[conv] = law
        if law == target:
            matching.append(conv)
    if not matching:
        raise NoMatchingConventionError(f"no sign convention yields s = t = {d - 1} at d={d}")
    matching.sort(key=lambda c: (c != REFERENCE_CONVENTION,))
    return ConventionSearch(laws, tuple(matching))
