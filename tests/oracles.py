"""Naive reference implementations used as independent test oracles.

Everything here is deliberately written with plain python dicts, loops and
cmath, sharing no code with the package: states are sparse label->amplitude
dicts and expansion coefficients come from explicit sums. Slow but obvious.
Three oracles are the exception and keep an earlier path of the package:
``naive_decompose`` expands one state at a time, as ``decompose`` did before
it projected whole Bell rows, ``naive_sample_counts`` searches the CDF once
with every uniform of a single draw, as the sampler did before its search was
indexed, and ``sequential_search_monomial`` tests one shift/clock monomial at
a time, as the calibration did before it scored all candidates in one product.
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
