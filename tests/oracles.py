"""Naive reference implementations used as independent test oracles.

Everything here is deliberately written with plain python dicts, loops and
cmath, sharing no code with the package: states are sparse label->amplitude
dicts and expansion coefficients come from explicit sums. Slow but obvious.
Some oracles are the exception and keep an earlier path of the package:
``naive_decompose`` expands one state at a time, as ``decompose`` did before
it projected whole Bell rows, ``naive_sample_counts`` searches the CDF once
with every uniform of a single draw, as the sampler did before its search was
indexed, and ``sequential_search_monomial`` tests one shift/clock monomial at
a time, as the calibration did before it scored all candidates in one product.
The ``loop_*`` builders and ``comparison_monomial_stack`` construct the state
families, the OAM sort, the analyser unitary and the calibration candidates
one digit at a time, with the arithmetic of the package's array formulas, so
their results are compared byte for byte.
"""

from __future__ import annotations

import cmath
from itertools import product

import numpy as np


def naive_bell(d: int, i: int, j: int, bell_sign: int = 1) -> dict:
    """(label B digit, label A digit) -> amplitude."""
    omega = cmath.exp(2j * cmath.pi / d)
    return {
        (n, (n + j) % d): omega ** (bell_sign * i * n) / d**0.5 for n in range(d)
    }


def naive_aux(d: int) -> dict:
    return {(p, p): 1 / d**0.5 for p in range(d)}


def naive_decomp(d: int, k: int, m: int, decomp_sign: int = 1) -> dict:
    """(system digit, auxiliary digit) -> amplitude."""
    omega = cmath.exp(2j * cmath.pi / d)
    return {
        (q, (q - m) % d): omega ** (decomp_sign * k * q) / d**0.5 for q in range(d)
    }


def naive_joint(d: int, i: int, j: int, bell_sign: int, decomp_sign: int) -> dict:
    """(B sys, B aux, A sys, A aux) -> amplitude of the hyperentangled state."""
    bell = naive_bell(d, i, j, bell_sign)
    aux = naive_aux(d)
    out = {}
    for (nb, na), cb in bell.items():
        for (pb, pa), ca in aux.items():
            out[(nb, pb, na, pa)] = cb * ca
    return out


def naive_pair(d: int, k: int, m: int, kp: int, mp: int, decomp_sign: int) -> dict:
    """(B sys, B aux, A sys, A aux) -> amplitude of a decomposition pair state."""
    bob = naive_decomp(d, k, m, decomp_sign)
    alice = naive_decomp(d, kp, mp, decomp_sign)
    out = {}
    for (qb, ab), cb in bob.items():
        for (qa, aa), ca in alice.items():
            out[(qb, ab, qa, aa)] = cb * ca
    return out


def naive_inner(u: dict, v: dict) -> complex:
    """<u|v> over sparse label dicts (conjugate-linear in u)."""
    return sum(c.conjugate() * v.get(label, 0.0) for label, c in u.items())


def naive_sum_decompose(
    d: int, i: int, j: int, bell_sign: int, decomp_sign: int, tol: float = 1e-9
) -> dict:
    """(k, m, k', m') -> coefficient of the decomposition expansion."""
    state = naive_joint(d, i, j, bell_sign, decomp_sign)
    out = {}
    for k, m, kp, mp in product(range(d), repeat=4):
        coeff = naive_inner(naive_pair(d, k, m, kp, mp, decomp_sign), state)
        if abs(coeff) > tol:
            out[(k, m, kp, mp)] = coeff
    return out


def naive_pair_coefficients(d: int, state: dict, decomp_sign: int) -> dict:
    """(k, m, k', m') -> <pair|state> for every decomposition pair, by explicit sums."""
    return {
        (k, m, kp, mp): naive_inner(naive_pair(d, k, m, kp, mp, decomp_sign), state)
        for k, m, kp, mp in product(range(d), repeat=4)
    }


def naive_decompose(d: int, i: int, j: int, convention) -> dict:
    """(k, m, k', m') -> coefficient, one state at a time, entries in flat order.

    Builds ``hyperentangled_state``, projects it with ``pair_coefficients``
    and keeps the entries above the logic threshold.
    """
    from hdbsm.core import LOGIC_TOL
    from hdbsm.decomposition import hyperentangled_state, pair_coefficients

    coeffs = pair_coefficients(hyperentangled_state(d, i, j, convention), convention)
    entries = {}
    for flat in np.flatnonzero(np.abs(coeffs) > LOGIC_TOL):
        k, m, kp, mp = np.unravel_index(int(flat), (d, d, d, d))
        entries[(int(k), int(m), int(kp), int(mp))] = complex(coeffs[k, m, kp, mp])
    return entries


def loop_bell_amps(d: int, i: int, j: int, bell_sign: int = 1) -> np.ndarray:
    """Flat amplitudes of Bell state (i, j), one system digit n at a time."""
    amps = np.zeros((d, d), dtype=np.complex128)
    phases = np.exp(bell_sign * 2j * np.pi * i * np.arange(d) / d)
    for n in range(d):
        amps[n, (n + j) % d] = phases[n]
    return amps.reshape(-1) / np.sqrt(d)


def loop_decomp_amps(d: int, k: int, m: int, decomp_sign: int = 1) -> np.ndarray:
    """Flat amplitudes of decomposition state (k, m), one system digit q at a time."""
    amps = np.zeros((d, d), dtype=np.complex128)
    phases = np.exp(decomp_sign * 2j * np.pi * k * np.arange(d) / d)
    for q in range(d):
        amps[q, (q - m) % d] = phases[q]
    return amps.reshape(-1) / np.sqrt(d)


def loop_oam_sort(grid: np.ndarray) -> np.ndarray:
    """(group, port) grid of a (path, oam) grid: group = (path - oam) mod d, port = path."""
    d = grid.shape[0]
    out = np.empty((d, d), dtype=np.complex128)
    for group in range(d):
        for port in range(d):
            out[group, port] = grid[port, (port - group) % d]
    return out


def loop_bsa_unitary(d: int, transform: np.ndarray) -> np.ndarray:
    """Analyser unitary, row k*d + m and column path*d + oam, one entry at a time.

    Every group applies ``transform`` to its ports after the OAM sort.
    """
    u = np.zeros((d * d, d * d), dtype=np.complex128)
    for group in range(d):
        for port_out in range(d):
            for port_in in range(d):
                oam = (port_in - group) % d
                u[port_out * d + group, port_in * d + oam] = transform[port_out, port_in]
    return u


def comparison_monomial_stack(d: int) -> np.ndarray:
    """The 2*d*d candidates X^a Z^b, Z^b X^a, with each X^a found by comparing digits.

    X^a has a one at (r, c) exactly when (r - c) mod d == a, and Z^b the
    diagonal exp(2j*pi*b*n/d).
    """
    n = np.arange(d)
    shifts = ((n[:, None] - n) % d == n[:, None, None]).astype(np.complex128)
    clocks = np.zeros((d, d, d), dtype=np.complex128)
    clocks[:, n, n] = np.exp(2j * np.pi * n[:, None] * n / d)
    pairs = (shifts[:, None] @ clocks, clocks @ shifts[:, None])
    return np.stack(pairs, axis=2).reshape(2 * d * d, d, d)


def naive_sample_counts(probs, shots: int, seed: int) -> np.ndarray:
    """Flat outcome counts of ``shots`` PCG64 uniforms, all drawn and searched at once."""
    uniforms = np.random.Generator(np.random.PCG64(seed)).random(shots)
    return naive_search_counts(probs, uniforms)


def naive_search_counts(probs, uniforms) -> np.ndarray:
    """Flat outcome counts of the given uniforms, each searched on its own.

    The normalised CDF is restricted to the nonzero outcomes and ends at
    exactly 1; each uniform selects ``searchsorted(cdf, u, side="right")``.
    """
    flat = np.asarray(probs, dtype=np.float64).reshape(-1)
    support = np.flatnonzero(flat)
    cdf = np.cumsum(flat / flat.sum())[support]
    cdf[-1] = 1.0
    hits = np.bincount(np.searchsorted(cdf, uniforms, side="right"), minlength=support.size)
    counts = np.zeros(flat.size, dtype=hits.dtype)
    counts[support] = hits
    return counts


def sequential_search_monomial(source, target, d: int, factor: int) -> np.ndarray:
    """First shift/clock monomial mapping source to target, tested one at a time.

    Tries X^a Z^b, then Z^b X^a, for a = 0..d-1 and b = 0..d-1 in turn, and
    returns the first whose fidelity reaches 1 - LOGIC_TOL.
    """
    from hdbsm.core import LOGIC_TOL, apply_local_unitary, fidelity
    from hdbsm.states import CalibrationError, clock_matrix, shift_matrix

    for a in range(d):
        for b in range(d):
            for u in (
                shift_matrix(d, a) @ clock_matrix(d, b),
                clock_matrix(d, b) @ shift_matrix(d, a),
            ):
                if fidelity(target, apply_local_unitary(source, u, factor)) >= 1.0 - LOGIC_TOL:
                    return u
    raise CalibrationError("no shift/clock monomial reaches the target state")


def mask_class_masses(probs, decoding) -> dict:
    """BellIndex -> probability mass of its decoding class, one boolean mask per class.

    The per-class sum ``classify_table`` used before it gathered the classes
    in one step.
    """
    from hdbsm.states import BellIndex

    d = decoding.d
    masses = {}
    for i in range(d):
        for j in range(d):
            mask = (decoding.bell_i == i) & (decoding.bell_j == j)
            masses[BellIndex(i, j)] = float(np.asarray(probs)[mask].sum())
    return masses


def cyclotomic_polynomial(d: int) -> list[int]:
    """Integer coefficients of the d-th cyclotomic polynomial, lowest degree first."""
    poly = [-1] + [0] * (d - 1) + [1]  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            divisor = cyclotomic_polynomial(e)
            quotient = [0] * (len(poly) - len(divisor) + 1)
            for shift in range(len(quotient) - 1, -1, -1):
                factor = poly[shift + len(divisor) - 1]  # divisor is monic
                quotient[shift] = factor
                for n, c in enumerate(divisor):
                    poly[shift + n] -= factor * c
            poly = quotient
    return poly


def exact_decomposition(d: int, bell_sign: int, decomp_sign: int) -> dict:
    """(i, j) -> {(k, m, k', m'): r}: every nonzero coefficient, which is exactly omega**r / d.

    Each coefficient is d**-2 times a sum of powers omega**e, one per joint
    term of the hyperentangled state that a decomposition pair shares, with
    an integer exponent e. Its histogram H(x) = sum_e count_e * x**e (e mod d)
    is reduced modulo the cyclotomic polynomial Phi_d, the minimal polynomial
    of omega: the coefficient is zero exactly when the remainder is zero, and
    omega**r / d exactly when the remainder equals that of d * x**r. A
    nonzero coefficient of any other value raises ``AssertionError``.
    """
    phi = cyclotomic_polynomial(d)
    degree = len(phi) - 1
    # Row e of the reduction: the remainder of x**e modulo Phi_d.
    reduce_ = np.zeros((d, degree), dtype=np.int64)
    power = [1] + [0] * degree  # x**0, one spare slot for the top term
    for e in range(d):
        reduce_[e] = power[:degree]
        power = [0] + power[:degree]
        top = power[degree]
        power = [c - top * p for c, p in zip(power, phi)]
    # Joint term (n, p) of Bell state (i, j) and the auxiliary state sits at
    # labels (n, p, n + j, p) with exponent bell_sign*i*n. It meets the pairs
    # with m = n - p and m' = n + j - p, for every k and k', whose conjugated
    # decomposition amplitudes add -decomp_sign*(k*n + k'*(n + j)).
    i, j, n, p, k, kp = np.indices((d,) * 6).reshape(6, -1)
    m = (n - p) % d
    mp = (n + j - p) % d
    exponent = (bell_sign * i * n - decomp_sign * (k * n + kp * (n + j))) % d
    pair = ((k * d + m) * d + kp) * d + mp
    bins = ((i * d + j) * d**4 + pair) * d + exponent
    histogram = np.bincount(bins, minlength=d**7).reshape(d * d, d**4, d)
    remainder = histogram @ reduce_
    out = {}
    for bell in range(d * d):
        entries = {}
        for flat in np.flatnonzero(remainder[bell].any(axis=1)).tolist():
            matches = [
                r for r in range(d) if np.array_equal(remainder[bell, flat], d * reduce_[r])
            ]
            assert len(matches) == 1, f"coefficient {flat} of Bell {bell} is not omega**r / d"
            key = tuple(int(x) for x in np.unravel_index(flat, (d,) * 4))
            entries[key] = matches[0]
        out[divmod(bell, d)] = entries
    return out


def loop_fit_index_law(d: int, supports: dict) -> tuple[list[tuple[int, int]], bool]:
    """Every (s, t) with k' = (s*k + t*i) mod d, and whether m' = (m + j) mod d, one tuple at a time.

    ``supports`` maps (i, j) to an iterable of (k, m, k', m').
    """
    fits = [
        (s, t)
        for s in range(d)
        for t in range(d)
        if all(
            kp == (s * k + t * i) % d
            for (i, j), support in supports.items()
            for k, m, kp, mp in support
        )
    ]
    m_ok = all(
        mp == (m + j) % d
        for (i, j), support in supports.items()
        for k, m, kp, mp in support
    )
    return fits, m_ok


def loop_fit_phase_law(d: int, phases: dict) -> tuple[dict, tuple[int, int, int] | None]:
    """({(k, m, i, j): r}, first (u, v, w) with r = u*k'*j + v*i*j + w mod d) from {(i, j): {key: r}}."""
    table = {}
    for (i, j), entries in sorted(phases.items()):
        for (k, m, kp, mp), r in sorted(entries.items()):
            table[(k, m, i, j)] = r
    for u in range(d):
        for v in range(d):
            for w in range(d):
                if all(
                    (u * kp * j + v * i * j + w) % d == r
                    for (i, j), entries in phases.items()
                    for (k, m, kp, mp), r in entries.items()
                ):
                    return table, (u, v, w)
    return table, None
