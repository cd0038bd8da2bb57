"""Checks of every operation's output against the generator's ground truth.

Each check returns a list of failure messages; an empty list means the
operation passed. The command line checks parse the report the way a user
would, from the JSON or CSV text on standard output.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

import gen

TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def check_masses(d: int, bell, masses: dict, argmax, tie: bool, truth: dict) -> list[str]:
    """Argmax equals the dominant Bell index and every class mass equals the known weight."""
    out = []
    if tuple(argmax) != tuple(bell) or tie:
        out.append(f"argmax {tuple(argmax)} (tie={tie}) != generating index {tuple(bell)}")
    if len(masses) != d * d:
        out.append(f"{len(masses)} class masses, expected {d * d}")
    for key, want in truth.items():
        got = masses.get(key)
        if got is None or not _close(got, want):
            out.append(f"class {key} mass {got} != {want}")
            break
    return out


def check_counts(counts: np.ndarray, probs: np.ndarray, shots: int) -> list[str]:
    """Counts sum to shots and are zero on every outcome of zero probability."""
    out = []
    if int(counts.sum()) != shots:
        out.append(f"counts sum to {int(counts.sum())}, expected {shots}")
    stray = int(counts[probs <= gen.ZERO_PROB].sum())
    if stray:
        out.append(f"{stray} shots on outcomes of zero probability")
    return out


def check_probabilities(got: np.ndarray, probs: np.ndarray) -> list[str]:
    gap = float(np.max(np.abs(got - probs)))
    return [] if gap <= TOL else [f"probabilities deviate from truth by {gap:.3e}"]


# ---------------------------------------------------------------------------
# in-process results
# ---------------------------------------------------------------------------


def check_classification(result, inp: dict) -> list[str]:
    masses = {tuple(k): v for k, v in result.class_masses.items()}
    return check_masses(inp["d"], inp["bell"], masses, result.bell, result.tie, inp["masses"])


def check_experiment(result, inp: dict) -> list[str]:
    out = []
    if not result.equivalence_gap < TOL:
        out.append(f"equivalence_gap {result.equivalence_gap:.3e} >= {TOL}")
    out += check_probabilities(result.probabilities.probs, inp["probs"])
    if result.record is None:
        return out + ["no shot record"]
    return out + check_counts(result.record.counts, inp["probs"], inp["shots"])


# ---------------------------------------------------------------------------
# command line reports
# ---------------------------------------------------------------------------


def _parse(text: str, fmt: str):
    """(passed, config, payload or csv rows) from a report in either format."""
    if fmt == "json":
        report = json.loads(text)
        conv = report["config"]["convention"]
        label = "+-"[conv["bell_sign"] < 0] + "+-"[conv["decomp_sign"] < 0]
        return report["passed"], {"d": report["config"]["d"], "convention": label}, report["payload"]
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            body.append(line)
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    return meta.get("passed") == "true", {"d": int(meta["d"]), "convention": meta["convention"]}, rows


def _coefficient_rows(rows: list[dict]) -> dict:
    return {
        (int(r["k"]), int(r["m"]), int(r["k_prime"]), int(r["m_prime"])): r for r in rows
    }


def _check_verify(req: dict, payload: dict) -> list[str]:
    d = req["d"]
    matching = payload["matching_conventions"]
    if d >= 3 and sorted(matching) != ["+-", "-+"]:
        return [f"matching conventions {matching} != ['+-', '-+']"]
    for label in matching:
        law = payload["index_laws"][label]
        if (law["s"], law["t"]) != (d - 1, d - 1):
            return [f"law under {label} has (s, t) = ({law['s']}, {law['t']}), expected {d - 1}"]
    return []


def _check_decompose(req: dict, rows: list[dict]) -> list[str]:
    d, truth = req["d"], req["truth"]
    entries = _coefficient_rows(rows)
    support = {tuple(int(x) for x in key) for key in zip(*np.nonzero(np.abs(truth) > TOL))}
    if set(entries) != support or len(support) != d * d:
        return [f"support of {len(entries)} entries differs from the {len(support)} expected"]
    for key, row in entries.items():
        if not abs(complex(float(row["re"]), float(row["im"])) - truth[key]) <= TOL:
            return [f"coefficient {key} = {row['re']}+{row['im']}j, expected {truth[key]}"]
    return []


def _check_simulate(req: dict, payload, rows: list[dict]) -> list[str]:
    d, probs = req["d"], np.abs(req["truth"]) ** 2
    out = []
    if payload is not None:
        if not payload["equivalence_gap"] < TOL:
            out.append(f"equivalence_gap {payload['equivalence_gap']:.3e} >= {TOL}")
        argmax = payload["classification"]["argmax"]
        if (argmax["i"], argmax["j"]) != tuple(req["bell"]):
            out.append(f"argmax {argmax} != {req['bell']}")
    got = np.zeros((d,) * 4)
    counts = np.zeros((d,) * 4, dtype=np.int64)
    for key, row in _coefficient_rows(rows).items():
        got[key] = float(row["probability"])
        counts[key] = int(row["count"])
    return out + check_probabilities(got, probs) + check_counts(counts, probs, req["shots"])


def _check_classify(req: dict, payload, rows: list[dict]) -> list[str]:
    d = req["d"]
    if payload is not None:
        cls = payload["classification"]
        argmax, tie, rows = (cls["argmax"]["i"], cls["argmax"]["j"]), cls["tie"], cls["class_masses"]
    else:
        argmax, tie = None, False
    masses = {(int(r["i"]), int(r["j"])): float(r["mass"]) for r in rows}
    if argmax is None:  # a CSV report carries only the masses, so check their argmax
        argmax = max(masses, key=masses.get)
    return check_masses(d, req["bell"], masses, argmax, tie, req["masses"])


def check_cli(req: dict, returncode: int, stdout: bytes) -> list[str]:
    """Check one command line request's exit code and report."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        passed, config, body = _parse(stdout.decode(), req["format"])
        if not passed:
            return ['report has "passed": false']
        if (config["d"], config["convention"]) != (req["d"], req["conv"]):
            return [f"report config {config} != d={req['d']} convention={req['conv']}"]
        payload = body if req["format"] == "json" else None
        command = req["command"]
        if command == "verify":
            return _check_verify(req, body)
        if command == "decompose":
            return _check_decompose(req, body["entries"] if payload is not None else body)
        if command == "simulate":
            return _check_simulate(req, payload, body["table"] if payload is not None else body)
        return _check_classify(req, payload, body)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable report: {exc!r}"]
