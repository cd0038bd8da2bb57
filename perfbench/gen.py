"""Seeded inputs and their ground truth, computed without the package.

Everything here is a direct transcription of the construction formulas:

* Bell state (i, j): (1/sqrt d) sum_n exp(b*2*pi*i*i*n/d) |n, n+j>,
* auxiliary state: (1/sqrt d) sum_p |p, p>,
* decomposition state (k, m): (1/sqrt d) sum_q exp(s*2*pi*i*k*q/d) |q, q-m>,

with b and s the Bell and decomposition signs of a convention label such
as "-+". The pair coefficients are computed in factored form,
conj(S) . Psi . conj(S)^T, which shares no code with the package. The
workload generators return plain dicts and lists, so the same request can be
sent to the command line or to the library.
"""

from __future__ import annotations

import math
import random

import numpy as np

CONVENTIONS = ("++", "+-", "-+", "--")
REFERENCE = "-+"  # what the package's auto mode selects for every d >= 3
SIGNS = {"+": 1, "-": -1}
ZERO_PROB = 1e-12  # truth probabilities below this are exact zeros analytically


def default_convention(d: int) -> str:
    """Convention the command line resolves when --convention is omitted."""
    return "++" if d == 2 else REFERENCE


def hyperentangled(d: int, i: int, j: int, conv: str) -> np.ndarray:
    """Bell (i, j) times the auxiliary state, axes (B sys, B aux, A sys, A aux)."""
    psi = np.zeros((d, d, d, d), dtype=np.complex128)
    n = np.arange(d)
    phases = np.exp(SIGNS[conv[0]] * 2j * np.pi * i * n / d) / d
    for p in range(d):
        psi[n, p, (n + j) % d, p] = phases
    return psi


def decomposition_rows(d: int, conv: str) -> np.ndarray:
    """Row k*d + m holds decomposition state (k, m) flattened over (system, auxiliary)."""
    rows = np.zeros((d * d, d * d), dtype=np.complex128)
    q = np.arange(d)
    for k in range(d):
        phases = np.exp(SIGNS[conv[1]] * 2j * np.pi * k * q / d) / math.sqrt(d)
        for m in range(d):
            rows[k * d + m, q * d + (q - m) % d] = phases
    return rows


def pair_coefficients(psi: np.ndarray, conv: str) -> np.ndarray:
    """<alpha_km (x) alpha_k'm' | psi>, indexed [k, m, k', m']."""
    d = psi.shape[0]
    s = decomposition_rows(d, conv).conj()
    return (s @ psi.reshape(d * d, d * d) @ s.T).reshape((d,) * 4)


def probabilities(psi: np.ndarray, conv: str) -> np.ndarray:
    return np.abs(pair_coefficients(psi, conv)) ** 2


def class_masses(weights: dict[tuple[int, int], float], d: int, noise: float) -> dict:
    """Class masses of a Bell mixture after (1 - q) * state + q * uniform."""
    uniform = noise / (d * d)  # each class holds d*d of the d**4 outcome pairs
    return {
        (i, j): (1.0 - noise) * weights.get((i, j), 0.0) + uniform
        for i in range(d)
        for j in range(d)
    }


def mixture_state(rng: random.Random, d: int, conv: str) -> dict:
    """A Bell state, or a two-Bell superposition with a known dominant weight.

    Returns the amplitudes, the dominant index and the class weights.
    """
    first = (rng.randrange(d), rng.randrange(d))
    if rng.random() < 0.5:
        return {"amps": hyperentangled(d, *first, conv), "bell": first, "weights": {first: 1.0}}
    second = first
    while second == first:
        second = (rng.randrange(d), rng.randrange(d))
    w = rng.uniform(0.6, 0.95)
    phase = np.exp(2j * np.pi * rng.random())
    amps = math.sqrt(w) * hyperentangled(d, *first, conv) + (
        math.sqrt(1.0 - w) * phase * hyperentangled(d, *second, conv)
    )
    return {"amps": amps, "bell": first, "weights": {first: w, second: 1.0 - w}}


def noise_level(rng: random.Random) -> float:
    return 0.0 if rng.random() < 0.25 else rng.uniform(0.0, 0.9)


def format_state_file(amps: np.ndarray) -> str:
    d = amps.shape[0]
    lines = [f"d={d}"] + [f"{float(a.real)!r} {float(a.imag)!r}" for a in amps.reshape(-1)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# cli-cold: blocks of 19 requests with a fixed composition
# ---------------------------------------------------------------------------

# (command, d, convention mode, format). The composition is fixed so that the
# quantiles sit inside clusters of similar cost and do not drift with the
# seed: the light requests (d <= 4, or an explicit convention, which skips the
# search) are 3/4 of a block and hold p50; the four d = 5 auto requests hold
# p90; the d = 6 auto verify, whose four-convention search builds the d**4 x
# d**4 pair bases, is the top 1/19.
CLI_BLOCK = (
    ("verify", 6, "auto", "json"),
    ("verify", 5, "auto", "json"),
    ("decompose", 5, "auto", "json"),
    ("classify", 5, "auto", "json"),
    ("simulate", 5, "auto", "json"),
    ("verify", 2, "default", "json"),
    ("verify", 3, "auto", "json"),
    ("verify", 4, "auto", "json"),
    ("verify", 4, "explicit", "json"),
    ("decompose", 2, "default", "csv"),
    ("decompose", 3, "auto", "json"),
    ("decompose", 4, "auto", "csv"),
    ("decompose", 6, "explicit", "csv"),
    ("simulate", 2, "default", "json"),
    ("simulate", 3, "auto", "csv"),
    ("simulate", 4, "explicit", "json"),
    ("classify", 2, "default", "json"),
    ("classify", 3, "auto", "csv"),
    ("classify", 4, "explicit", "json"),
)
CLI_BLOCK_SIZE = len(CLI_BLOCK)
# "--" is left out: on Python 3.11 argparse drops the value of
# `--convention=--` and the command exits with code 2 (a known defect of the
# command line, recorded in perfbench/README.md). The library workloads use it.
CLI_EXPLICIT = ("++", "+-", "-+")
SHOTS_RANGE = (10_000, 50_000)


def cli_request(rng: random.Random, kind: tuple, name: str) -> dict:
    """One command line request with everything the checker needs to know.

    ``state`` holds the text of the state file a classify request reads; the
    caller writes it to ``name`` before the request is sent.
    """
    command, d, mode, fmt = kind
    conv = rng.choice(CLI_EXPLICIT) if mode == "explicit" else default_convention(d)
    argv = [command, "-d", str(d)] if command != "classify" else [command]
    if mode == "explicit":
        argv.append(f"--convention={conv}")
    elif mode == "auto" and rng.random() < 0.5:
        argv.append("--convention=auto")
    if fmt == "csv":
        argv += ["--format", "csv"]
    req = {"argv": argv, "command": command, "d": d, "conv": conv, "format": fmt}
    if command in ("decompose", "simulate"):
        i, j = rng.randrange(d), rng.randrange(d)
        argv += ["-i", str(i), "-j", str(j)]
        req["bell"] = (i, j)
        req["truth"] = pair_coefficients(hyperentangled(d, i, j, conv), conv)
    if command == "simulate":
        shots = rng.randint(*SHOTS_RANGE)
        seed = rng.getrandbits(64)
        argv += ["--shots", str(shots), "--seed", str(seed)]
        req["shots"] = shots
    if command == "classify":
        state = mixture_state(rng, d, conv)
        noise = noise_level(rng) if mode != "default" else 0.0
        if noise > 0.0:
            argv += ["--noise", repr(noise)]
        argv.append(name)
        req["state"] = format_state_file(state["amps"])
        req["bell"] = state["bell"]
        req["masses"] = class_masses(state["weights"], d, noise)
    return req


def cli_block(rng: random.Random, block: int, workdir: str) -> list[dict]:
    """One shuffled block of requests, each with its own argv.

    State files are named under ``workdir``, a path relative to the checkout.
    """
    reqs = [
        cli_request(rng, kind, f"{workdir}/state_{block}_{n}.txt")
        for n, kind in enumerate(CLI_BLOCK)
    ]
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# classify-stream and sample-heavy: in-process operations
# ---------------------------------------------------------------------------

# d shares 2:2:3:3 out of 10 put p50 inside the d = 5 cluster and p90 inside
# the d = 6 cluster instead of on a boundary between two of them.
STREAM_DIMS = (3, 3, 4, 4, 5, 5, 5, 6, 6, 6)


def stream_inputs(rng: random.Random, count: int) -> list[dict]:
    """States to classify: stratified over d, mostly the reference convention."""
    out = []
    while len(out) < count:
        dims = list(STREAM_DIMS)
        rng.shuffle(dims)
        for d in dims:
            conv = REFERENCE if rng.random() < 0.75 else rng.choice(CONVENTIONS)
            state = mixture_state(rng, d, conv)
            noise = noise_level(rng)
            out.append(
                {
                    "d": d,
                    "conv": conv,
                    "amps": state["amps"],
                    "noise": noise,
                    "bell": state["bell"],
                    "masses": class_masses(state["weights"], d, noise),
                }
            )
    return out[:count]


SAMPLE_DIMS = (2, 3, 4, 5, 6)
SAMPLE_SHOTS = 1_000_000


def sample_inputs(rng: random.Random, count: int) -> list[dict]:
    """run_experiment arguments, one of each d per group of five, with truth tables."""
    out = []
    while len(out) < count:
        dims = list(SAMPLE_DIMS)
        rng.shuffle(dims)
        for d in dims:
            conv = default_convention(d)
            i, j = rng.randrange(d), rng.randrange(d)
            out.append(
                {
                    "d": d,
                    "conv": conv,
                    "bell": (i, j),
                    "shots": SAMPLE_SHOTS,
                    "seed": rng.getrandbits(64),
                    "probs": probabilities(hyperentangled(d, i, j, conv), conv),
                }
            )
    return out[:count]
