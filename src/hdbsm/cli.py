"""Command line surface: decompose, verify, simulate and classify.

Exit codes: 0 success, 1 invariant or equivalence failure, 2 usage error.
Reports go to stdout or, with ``-o``, to a file; relative paths resolve
against the ``HDBSM_OUTPUT_DIR`` environment variable when it is set.

State files are plain text: a ``d=<n>`` header line, then one amplitude per
line as ``re im`` in flat basis order of the (d, d, d, d) composite basis
(factor 0 most significant, factor order B system, B auxiliary, A system,
A auxiliary). Blank lines and lines starting with ``#`` are skipped; an
error cites its line number in the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from functools import lru_cache

import numpy as np

from . import audit as audit_mod
from . import classifier as cl
from . import decomposition as dec
from . import optics
from .core import MAX_DIMENSION, InvariantError, State, check_dimension, format_bound
from .report import build_report, check, render_csv, render_json, write_report
from .states import (
    ALL_CONVENTIONS,
    BellIndex,
    LITERAL_CONVENTION,
    PhaseConvention,
    REFERENCE_CONVENTION,
)

MAX_SEED = 2**64 - 1
REPORT_TOL = 1e-9  # magnitudes_uniform, total_weight and probabilities_total pass within it
ROW_THRESHOLD = 1e-12  # coincidence rows list the pairs above it, or with a count

_EXPLICIT = {  # every --convention value but auto, in the order --help lists them
    "literal": LITERAL_CONVENTION, "reference": REFERENCE_CONVENTION,
    **{c.label(): c for c in ALL_CONVENTIONS},
}
CONVENTION_CHOICES = ("auto", *_EXPLICIT)


class UsageError(Exception):
    """Invalid arguments or inputs; maps to exit code 2."""


def _resolve_convention(d: int, label: str | None) -> tuple[PhaseConvention, str]:
    """Convention and how it was selected; ``auto`` at d >= 3 is -+, as verify's search checks."""
    if label in _EXPLICIT:
        return _EXPLICIT[label], "explicit"
    if label is None and d == 2:
        return LITERAL_CONVENTION, "default"
    if d == 2:
        raise UsageError(
            "convention 'auto' is undefined at d=2 (all sign conventions "
            "coincide); omit the flag or pick one explicitly"
        )
    return REFERENCE_CONVENTION, "auto"


class _ConventionAction(argparse.Action):
    """Store ``--convention``, keeping the value ``--`` of ``--convention=--``.

    The argparse of Python 3.10, 3.11 and 3.12.1 (not 3.13) strips every
    ``--`` from an option's values, so ``--convention=--`` reaches the action
    as an empty list.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, "--" if values == [] else values)


def _check_bell_args(d: int, i: int, j: int) -> None:
    try:
        check_dimension(d, i=i, j=j)
    except ValueError as exc:
        raise UsageError(f"bell indices ({i}, {j}) out of range for d={d}") from exc


def _check_seed(seed: int) -> None:
    if not 0 <= seed <= MAX_SEED:
        raise UsageError(f"seed must fit in 64 bits, got {seed}")


def _emit(args, d, convention, selection, payload, checks, fields=None, rows=None) -> int:
    """Render the report as JSON, or as CSV of ``rows``, write it, and return the exit code.

    ``selection`` says how the convention was chosen: auto, explicit or default.
    Only ``simulate`` has a seed and shots; the other commands echo them as null.
    """
    # The output path is deliberately not echoed: report content depends
    # only on the scientific configuration, so identical configurations
    # render byte-identical reports wherever they are written.
    config = {
        "d": d,
        "convention": {
            "bell_sign": convention.bell_sign,
            "decomp_sign": convention.decomp_sign,
            "selection": selection,
        },
        "seed": getattr(args, "seed", None),
        "shots": getattr(args, "shots", None),
        "format": args.format,
    }
    report = build_report(args.command, config, payload, checks)
    label = convention.label()
    text = render_csv(report, label, fields, rows) if args.format == "csv" else render_json(report)
    try:
        write_report(text, args.output)
    except OSError as exc:
        raise UsageError(f"cannot write report: {exc}") from exc
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# payload serialization helpers
# ---------------------------------------------------------------------------


def _pair_rows(fields: list[str], d: int, flat: np.ndarray, *columns: list) -> list[dict]:
    """One row per flat pair index: its digits k, m, k', m', then one value per column."""
    digits = [digit.tolist() for digit in np.unravel_index(flat, (d,) * 4)]
    return [dict(zip(fields, values)) for values in zip(*digits, *columns)]


def _coincidence_rows(
    table: cl.CoincidenceTable, record: cl.ShotRecord | None
) -> tuple[list[str], list[dict]]:
    """Fields, and rows in flat order of the pairs above ROW_THRESHOLD or with a count."""
    probs = table.probs.reshape(-1)
    fields = ["k", "m", "k_prime", "m_prime", "probability"]
    shown = probs > ROW_THRESHOLD
    if record is not None:
        counts = record.counts.reshape(-1)
        shown |= counts != 0
        fields.append("count")
    flat = np.flatnonzero(shown)
    columns = [probs[flat].tolist()]
    if record is not None:
        columns.append(counts[flat].tolist())
    return fields, _pair_rows(fields, table.d, flat, *columns)


def _classification_dict(result: cl.Classification) -> dict:
    return {
        "argmax": result.bell._asdict(),
        "confidence": result.confidence,
        "tie": result.tie,
        "tied_with": [b._asdict() for b in result.tied_with],
        "class_masses": [
            {"i": bell.i, "j": bell.j, "mass": mass}
            for bell, mass in sorted(result.class_masses.items())
        ],
    }


def _audit_dict(table_audit: audit_mod.TableAudit) -> dict:
    rows = [
        {
            **dataclasses.asdict(row),
            "bell": row.bell._asdict(),
            "mismatches": [{"printed": p, "computed": c} for p, c in row.mismatches],
        }
        for row in table_audit.rows
    ]
    return {
        "source": table_audit.source,
        "convention": table_audit.convention.label(),
        "total_matches": table_audit.total_matches,
        "total_mismatches": table_audit.total_mismatches,
        "clean": table_audit.clean,
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# state file format
# ---------------------------------------------------------------------------


def parse_state_file(text: str) -> State:
    """Parse the documented state file format into a (d, d, d, d) state.

    Raises:
        UsageError: malformed header, unsupported dimension, malformed or
            non-finite amplitude line, wrong amplitude count, or a norm that
            classifier.check_normalized rejects.
    """
    lines = [(number, ln.strip()) for number, ln in enumerate(text.splitlines(), start=1)]
    lines = [(number, ln) for number, ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0][1].startswith("d="):
        raise UsageError("state file must start with a 'd=<n>' header line")
    header = lines[0][1]
    try:
        d = int(header[2:])
    except ValueError as exc:
        raise UsageError(f"bad dimension header {header!r}") from exc
    try:
        check_dimension(d)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    expected = d**4
    body = lines[1:]
    if len(body) != expected:
        raise UsageError(f"expected {expected} amplitude lines for d={d}, got {len(body)}")
    amps = np.empty(expected, dtype=np.complex128)
    for idx, (number, line) in enumerate(body):
        parts = line.split()
        if len(parts) != 2:
            raise UsageError(f"amplitude line {number} must be 're im', got {line!r}")
        try:
            real, imag = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise UsageError(f"bad amplitude on line {number}: {line!r}") from exc
        if not (math.isfinite(real) and math.isfinite(imag)):
            raise UsageError(f"non-finite amplitude on line {number}: {line!r}")
        amps[idx] = complex(real, imag)
    try:
        return cl.check_normalized(State((d, d, d, d), amps))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_decompose(args) -> int:
    _check_bell_args(args.d, args.i, args.j)
    convention, selection = _resolve_convention(args.d, args.convention)
    table = dec.decompose(args.d, args.i, args.j, convention)

    d = args.d
    # A support past d*d holds rounding-sized coefficients whose phases fail
    # phase_ints, so the size is checked first, where it names the real fault.
    if table.coeffs.size != d * d:
        raise InvariantError(
            f"decomposition of bell ({args.i}, {args.j}) has {table.coeffs.size} "
            f"nonzero coefficients, expected {d * d}"
        )
    coeffs = table.coeffs.tolist()
    # Python's complex abs, not numpy's, whose SIMD loops can round differently.
    magnitudes = [abs(c) for c in coeffs]
    weight = sum(mag**2 for mag in magnitudes)
    _, m, _, mp = np.unravel_index(table.flat_support, (d,) * 4)
    checks = [
        check(
            "support_size", len(coeffs), "==", d * d,
            f"{len(coeffs)} of {d * d} expected nonzero coefficients",
        ),
        check(
            "magnitudes_uniform", max(abs(mag - 1 / d) for mag in magnitudes), "<=", REPORT_TOL,
            f"all coefficient magnitudes within {format_bound(REPORT_TOL)} of 1/{d}",
        ),
        check(
            "total_weight", abs(weight - 1.0), "<=", REPORT_TOL, f"squared weight {weight:.12f}"
        ),
        check(
            "aux_shift_law", int(((m + args.j) % d != mp).sum()), "==", 0,
            "m' = (m + j) mod d on every support tuple",
        ),
    ]
    fields = ["k", "m", "k_prime", "m_prime", "re", "im", "magnitude", "phase_r"]
    rows = _pair_rows(
        fields, d, table.flat_support, table.coeffs.real.tolist(), table.coeffs.imag.tolist(),
        magnitudes, table.phase_ints().tolist(),
    )
    payload = {"bell": table.bell._asdict(), "entries": rows}
    return _emit(args, d, convention, selection, payload, checks, fields, rows)


def _cmd_verify(args) -> int:
    if args.format == "csv":
        raise UsageError("verify reports are structured; only --format json is supported")
    d = args.d
    convention, selection = _resolve_convention(d, args.convention)

    if d >= 3:
        # One search serves the four fitted laws and checks that auto's -+ matches
        # the law. A failed search or law fit is a structural error, and main reports it.
        search = dec.find_convention(d)
        laws = search.laws
        matching = [c.label() for c in search.matching]
        preferred = search.preferred.label()
        reference_check = check(
            "reference_law", REFERENCE_CONVENTION in search.matching, "==", True,
            f"s = t = {d - 1} under convention(s) " + ", ".join(matching),
        )
    else:
        laws = {conv: dec.fit_index_law(dec.decompose_all(d, conv)) for conv in ALL_CONVENTIONS}
        reference = dec.reference_index_law(d)
        matching = sorted(conv.label() for conv in laws)
        preferred = convention.label()
        reference_check = check(
            "reference_law", {(law.s, law.t) for law in laws.values()}, "==",
            {(reference.s, reference.t)}, "fitted law k' = (k + i) mod 2, m' = (m + j) mod 2",
        )
    phase_law = dec.fit_phase_law(dec.decompose_all(d, convention))

    partition = f"all {d**4} outcome pairs partition into {d * d} classes of {d * d}"
    detail = partition  # or why the supports do not partition the pairs as the law does
    try:
        decoding = cl.build_decoding_table(d, convention)
        classes = decoding.classes[decoding.classes != cl.UNREACHABLE]
        sizes = set(np.bincount(classes, minlength=d * d).tolist())
        if sizes != {d * d}:
            detail = f"unexpected class sizes {sorted(sizes)}"
        elif (cl.decoding_table_from_law(laws[convention]).classes != decoding.classes).any():
            detail = "decoding from supports disagrees with decoding from the law"
    except (cl.CollisionError, ValueError) as exc:  # ValueError: the law's t has no inverse mod d
        detail = str(exc)

    checks = [
        check(
            "index_law_affine", len(laws), "==", len(ALL_CONVENTIONS),
            "affine index law fitted under every sign convention",
        ),
        check(
            "aux_shift_law", sum(not law.m_law_holds for law in laws.values()), "==", 0,
            "m' = (m + j) mod d under every convention",
        ),
        reference_check,
        check(
            "phase_root_of_unity", len(phase_law.table), "==", d**4,
            "every coefficient phase is an exact d-th root of unity",
        ),
        check("decoding_partition", detail, "==", partition, detail),
    ]

    audits = []
    if d in audit_mod.TRANSCRIPTIONS:
        if selection == "explicit":
            audit_conventions = [convention]
        else:
            audit_conventions = [LITERAL_CONVENTION]
            if convention != LITERAL_CONVENTION:
                audit_conventions.append(convention)
        for conv in audit_conventions:
            audits.append(_audit_dict(audit_mod.audit_reference_table(d, conv)))
    payload = {
        "index_laws": {
            conv.label(): {"s": law.s, "t": law.t, "m_law_holds": law.m_law_holds}
            for conv, law in laws.items()
        },
        "matching_conventions": matching,
        "preferred_convention": preferred,
        "phase_law": {
            "convention": convention.label(),
            "closed_form": phase_law.closed_form,
            "entries": [
                {"k": k, "m": m, "i": i, "j": j, "r": r}
                for (k, m, i, j), r in sorted(phase_law.table.items())
            ],
        },
        "audits": audits,
    }
    return _emit(args, d, convention, selection, payload, checks)


def _cmd_simulate(args) -> int:
    _check_bell_args(args.d, args.i, args.j)
    _check_seed(args.seed)
    if args.shots < 0:
        raise UsageError(f"shots must be >= 0, got {args.shots}")
    convention, selection = _resolve_convention(args.d, args.convention)
    result = optics.run_experiment(args.d, args.i, args.j, args.shots, args.seed, convention)
    decoding = cl.build_decoding_table(args.d, convention)
    classification = cl.classify_table(result.probabilities, decoding)
    total = result.probabilities.total()

    checks = [
        check(
            "pipeline_equivalence", result.equivalence_gap, "<", optics.EQUIVALENCE_TOL,
            f"max |optics - abstract| = {result.equivalence_gap:.3e} "
            f"(tolerance {format_bound(optics.EQUIVALENCE_TOL)})",
        ),
        check(
            "probabilities_total", abs(total - 1.0), "<=", REPORT_TOL,
            f"total probability {total:.12f}",
        ),
        check(
            "classification_correct", (classification.bell, classification.tie), "==",
            (BellIndex(args.i, args.j), False),
            f"argmax class ({classification.bell.i}, {classification.bell.j})",
        ),
    ]
    if result.record is not None:
        observed = result.record.counts > 0
        checks.append(
            check(
                "outcomes_decode_to_input", set(decoding.classes[observed].tolist()), "==",
                {args.i * args.d + args.j},
                f"{result.record.shots} outcomes over {int(observed.sum())} pairs",
            )
        )

    fields, rows = _coincidence_rows(result.probabilities, result.record)
    payload = {
        "bell": result.bell._asdict(),
        "equivalence_gap": result.equivalence_gap,
        "classification": _classification_dict(classification),
        "table": rows,
    }
    return _emit(args, args.d, convention, selection, payload, checks, fields, rows)


def _cmd_classify(args) -> int:
    if not 0.0 <= args.noise <= 1.0:
        raise UsageError(f"noise weight must be in [0, 1], got {args.noise}")
    try:
        with open(args.state_file, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read state file: {exc}") from exc
    state = parse_state_file(text)
    d = state.radices[0]
    convention, selection = _resolve_convention(d, args.convention)

    table = cl.mix_with_white_noise(cl.coincidence_probabilities(state, convention), args.noise)
    decoding = cl.build_decoding_table(d, convention)
    classification = cl.classify_table(table, decoding)

    # The pair basis is complete, so the total is the state's squared norm,
    # mixed with the noise weight.
    expected_total = (1.0 - args.noise) * state.norm() ** 2 + args.noise
    total = table.total()
    checks = [
        check(
            "probabilities_total", abs(total - expected_total), "<=", REPORT_TOL,
            f"total probability {total:.12f}",
        ),
    ]
    payload = {
        "state_file": args.state_file,
        "noise": args.noise,
        "classification": _classification_dict(classification),
    }
    rows = payload["classification"]["class_masses"]
    return _emit(args, d, convention, selection, payload, checks, ["i", "j", "mass"], rows)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, with_d: bool = True) -> None:
    if with_d:
        sub.add_argument(
            "-d", type=int, required=True, choices=range(2, MAX_DIMENSION + 1),
            help="dimension of the system and auxiliary degrees of freedom",
        )
    sub.add_argument(
        "--convention", action=_ConventionAction, choices=CONVENTION_CHOICES, default=None,
        help="phase convention: bell/decomposition exponent signs "
        "(e.g. '-+'; use --convention=-+), 'literal' (++), 'reference' (-+), "
        "or 'auto' to pick the convention matching the reference law "
        "(default: auto for d >= 3, literal for d = 2)",
    )
    sub.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format",
    )
    sub.add_argument(
        "-o", "--output", default=None,
        help="report file path (default stdout); relative paths resolve "
        "against HDBSM_OUTPUT_DIR when set",
    )


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdbsm",
        description="High-dimensional Bell state measurement: decomposition "
        "tables, law verification, optics simulation and classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="expand one hyperentangled state")
    _add_common(p)
    p.add_argument("-i", type=int, required=True, help="bell phase index")
    p.add_argument("-j", type=int, required=True, help="bell shift index")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("verify", help="fit the index and phase laws and audit the reference tables")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("simulate", help="run the optics pipeline end to end")
    _add_common(p)
    p.add_argument("-i", type=int, required=True, help="bell phase index")
    p.add_argument("-j", type=int, required=True, help="bell shift index")
    p.add_argument("--shots", type=int, default=0, help="samples to draw (0: theory only)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (64-bit)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("classify", help="classify a state from a file")
    _add_common(p, with_d=False)
    p.add_argument("state_file", help="state file ('d=<n>' header, then 're im' lines)")
    p.add_argument(
        "--noise", type=float, default=0.0,
        help="white-noise weight q in [0, 1] admixed at the probability "
        "level: (1-q) * state + q * uniform",
    )
    p.set_defaults(func=_cmd_classify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1
