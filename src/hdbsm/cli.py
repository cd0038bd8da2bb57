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
import math
import sys

import numpy as np

from . import audit as audit_mod
from . import classifier as cl
from . import decomposition as dec
from . import optics
from .core import MAX_DIMENSION, State, check_dimension
from .report import RunConfig, build_report, check, render_csv, render_json, write_report
from .states import (
    ALL_CONVENTIONS,
    BellIndex,
    LITERAL_CONVENTION,
    PhaseConvention,
    REFERENCE_CONVENTION,
)

MAX_SEED = 2**64 - 1

CONVENTION_CHOICES = ("auto", "literal", "reference", "++", "+-", "-+", "--")


class UsageError(Exception):
    """Invalid arguments or inputs; maps to exit code 2."""


class InvariantError(RuntimeError):
    """A computed result breaks the protocol's structure; maps to exit code 1."""


def _resolve_convention(
    d: int, label: str | None, search: dec.ConventionSearch | None = None
) -> tuple[PhaseConvention, str]:
    """Convention and how it was selected; ``auto`` reuses ``search`` when given."""
    if label is None:
        if d == 2:
            return LITERAL_CONVENTION, "default"
        label = "auto"
    if label == "auto":
        if d == 2:
            raise UsageError(
                "convention 'auto' is undefined at d=2 (all sign conventions "
                "coincide); omit the flag or pick one explicitly"
            )
        if search is None:
            search = dec.find_convention(d)
        return search.preferred, "auto"
    if label == "literal":
        return LITERAL_CONVENTION, "explicit"
    if label == "reference":
        return REFERENCE_CONVENTION, "explicit"
    try:
        return PhaseConvention.from_label(label), "explicit"
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


class _ConventionAction(argparse.Action):
    """Store ``--convention``, keeping the value ``--`` of ``--convention=--``.

    The argparse of Python 3.10, 3.11 and 3.12.1 (not 3.13) strips every
    ``--`` from an option's values, so ``--convention=--`` reaches the action
    as an empty list.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, "--" if values == [] else values)


def _check_bell_args(d: int, i: int, j: int) -> None:
    if not (0 <= i < d and 0 <= j < d):
        raise UsageError(f"bell indices ({i}, {j}) out of range for d={d}")


def _write_report(text: str, output: str | None) -> None:
    try:
        write_report(text, output)
    except OSError as exc:
        raise UsageError(f"cannot write report: {exc}") from exc


def _check_seed(seed: int) -> None:
    if not 0 <= seed <= MAX_SEED:
        raise UsageError(f"seed must fit in 64 bits, got {seed}")


def _emit(command, args, config, payload, checks, fields=None, rows=None) -> int:
    """Render the report as JSON, or as CSV of ``rows``, write it, and return the exit code."""
    report = build_report(command, config, payload, checks)
    if args.format == "csv":
        text = render_csv(report, fields, rows)
    else:
        text = render_json(report)
    _write_report(text, args.output)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# payload serialization helpers
# ---------------------------------------------------------------------------


def _bell_dict(bell: BellIndex) -> dict:
    return {"i": bell.i, "j": bell.j}


def _pair_rows(fields: list[str], d: int, flat: np.ndarray, *columns: list) -> list[dict]:
    """One row per flat pair index: its digits k, m, k', m', then one value per column."""
    digits = [digit.tolist() for digit in np.unravel_index(flat, (d,) * 4)]
    return [dict(zip(fields, values)) for values in zip(*digits, *columns)]


def _coincidence_rows(
    table: cl.CoincidenceTable, record: cl.ShotRecord | None
) -> tuple[list[str], list[dict]]:
    """Fields, and rows in flat order of the pairs with probability above 1e-12 or a count."""
    probs = table.probs.reshape(-1)
    fields = ["k", "m", "k_prime", "m_prime", "probability"]
    shown = probs > 1e-12
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
        "argmax": _bell_dict(result.bell),
        "confidence": result.confidence,
        "tie": result.tie,
        "tied_with": [_bell_dict(b) for b in result.tied_with],
        "class_masses": [
            {"i": bell.i, "j": bell.j, "mass": mass}
            for bell, mass in sorted(result.class_masses.items())
        ],
    }


def _law_dict(law: dec.IndexLaw) -> dict:
    return {"s": law.s, "t": law.t, "m_law_holds": law.m_law_holds}


def _audit_dict(table_audit: audit_mod.TableAudit) -> dict:
    rows = []
    for row in table_audit.rows:
        rows.append(
            {
                "bell": _bell_dict(row.bell),
                "printed": row.printed,
                "matches": row.matches,
                "mismatches": [
                    {"printed": printed, "computed": computed}
                    for printed, computed in row.mismatches
                ],
                "duplicates": row.duplicates,
                "missing": row.missing,
                "repeated_bob": row.repeated_bob,
                "repeated_alice": row.repeated_alice,
            }
        )
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
            non-finite amplitude line, wrong amplitude count, or norm off by
            more than 1e-6.
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
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > 1e-6:
        raise UsageError(
            f"state is not normalized: norm {norm:.9f} deviates from 1 "
            f"by {abs(norm - 1.0):.3e} (tolerance 1e-6)"
        )
    return State((d, d, d, d), amps)


def format_state_file(state: State) -> str:
    """Render a (d, d, d, d) state in the documented file format."""
    lines = [f"d={state.radices[0]}"]
    for amp in state.amps:
        lines.append(f"{float(amp.real)!r} {float(amp.imag)!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_decompose(args) -> int:
    _check_bell_args(args.d, args.i, args.j)
    convention, selection = _resolve_convention(args.d, args.convention)
    config = RunConfig(args.d, convention, selection, fmt=args.format)
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
    weight = table.squared_weight()
    _, m, _, mp = np.unravel_index(table.flat_support, (d,) * 4)
    checks = [
        check(
            "support_size",
            len(coeffs) == d * d,
            f"{len(coeffs)} of {d * d} expected nonzero coefficients",
        ),
        check(
            "magnitudes_uniform",
            all(abs(mag - 1 / d) <= 1e-9 for mag in magnitudes),
            f"all coefficient magnitudes within 1e-9 of 1/{d}",
        ),
        check("total_weight", abs(weight - 1.0) <= 1e-9, f"squared weight {weight:.12f}"),
        check(
            "aux_shift_law",
            bool(((m + args.j) % d == mp).all()),
            "m' = (m + j) mod d on every support tuple",
        ),
    ]
    fields = ["k", "m", "k_prime", "m_prime", "re", "im", "magnitude", "phase_r"]
    rows = _pair_rows(
        fields, d, table.flat_support, table.coeffs.real.tolist(), table.coeffs.imag.tolist(),
        magnitudes, table.phase_ints().tolist(),
    )
    payload = {"bell": _bell_dict(table.bell), "entries": rows}
    return _emit("decompose", args, config, payload, checks, fields, rows)


def _cmd_verify(args) -> int:
    if args.format == "csv":
        raise UsageError("verify reports are structured; only --format json is supported")
    d = args.d
    # One convention search at d >= 3 serves the auto resolution, the four
    # fitted laws and the reference_law check. A failed search or law fit is
    # a structural error, and main reports it.
    search = dec.find_convention(d) if d >= 3 else None
    convention, selection = _resolve_convention(d, args.convention, search)
    config = RunConfig(d, convention, selection, fmt=args.format)

    if search is not None:
        laws = search.laws
        matching = [c.label() for c in search.matching]
        preferred = search.preferred.label()
        reference_check = check(
            "reference_law", True, f"s = t = {d - 1} under convention(s) " + ", ".join(matching)
        )
    else:
        laws = {conv: dec.fit_index_law(dec.decompose_all(d, conv)) for conv in ALL_CONVENTIONS}
        reference = dec.reference_index_law(d)
        matching = sorted(conv.label() for conv in laws)
        preferred = convention.label()
        reference_check = check(
            "reference_law",
            all((law.s, law.t) == (reference.s, reference.t) for law in laws.values()),
            "fitted law k' = (k + i) mod 2, m' = (m + j) mod 2",
        )
    phase_law = dec.fit_phase_law(dec.decompose_all(d, convention))

    decoding_ok = True
    decoding_detail = f"all {d**4} outcome pairs partition into {d * d} classes of {d * d}"
    try:
        decoding = cl.build_decoding_table(d, convention)
        reached = decoding.bell_i != cl.UNREACHABLE
        classes = decoding.bell_i[reached] * d + decoding.bell_j[reached]
        sizes = set(np.bincount(classes, minlength=d * d).tolist())
        if sizes != {d * d}:
            decoding_ok = False
            decoding_detail = f"unexpected class sizes {sorted(sizes)}"
        else:
            from_law = cl.decoding_table_from_law(laws[convention])
            if not (
                np.array_equal(decoding.bell_i, from_law.bell_i)
                and np.array_equal(decoding.bell_j, from_law.bell_j)
            ):
                decoding_ok = False
                decoding_detail = "decoding from supports disagrees with decoding from the law"
    except cl.CollisionError as exc:
        decoding_ok = False
        decoding_detail = str(exc)

    checks = [
        check("index_law_affine", True, "affine index law fitted under every sign convention"),
        check(
            "aux_shift_law",
            all(law.m_law_holds for law in laws.values()),
            "m' = (m + j) mod d under every convention",
        ),
        reference_check,
        check("phase_root_of_unity", True, "every coefficient phase is an exact d-th root of unity"),
        check("decoding_partition", decoding_ok, decoding_detail),
    ]

    audits = []
    if d in (3, 4):
        if selection == "explicit":
            audit_conventions = [convention]
        else:
            audit_conventions = [LITERAL_CONVENTION]
            if convention != LITERAL_CONVENTION:
                audit_conventions.append(convention)
        for conv in audit_conventions:
            audits.append(_audit_dict(audit_mod.audit_reference_table(d, conv)))
    payload = {
        "index_laws": {conv.label(): _law_dict(law) for conv, law in laws.items()},
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
    return _emit("verify", args, config, payload, checks)


def _cmd_simulate(args) -> int:
    _check_bell_args(args.d, args.i, args.j)
    _check_seed(args.seed)
    if args.shots < 0:
        raise UsageError(f"shots must be >= 0, got {args.shots}")
    convention, selection = _resolve_convention(args.d, args.convention)
    config = RunConfig(
        args.d, convention, selection, seed=args.seed, shots=args.shots, fmt=args.format
    )
    result = optics.run_experiment(args.d, args.i, args.j, args.shots, args.seed, convention)
    decoding = cl.build_decoding_table(args.d, convention)
    classification = cl.classify_table(result.probabilities, decoding)

    checks = [
        check(
            "pipeline_equivalence",
            result.equivalent,
            f"max |optics - abstract| = {result.equivalence_gap:.3e} (tolerance 1e-9)",
        ),
        check(
            "probabilities_total",
            abs(result.probabilities.total() - 1.0) <= 1e-9,
            f"total probability {result.probabilities.total():.12f}",
        ),
        check(
            "classification_correct",
            classification.bell == BellIndex(args.i, args.j) and not classification.tie,
            f"argmax class ({classification.bell.i}, {classification.bell.j})",
        ),
    ]
    if result.record is not None:
        observed = result.record.counts > 0
        decoded = set(zip(decoding.bell_i[observed].tolist(), decoding.bell_j[observed].tolist()))
        checks.append(
            check(
                "outcomes_decode_to_input",
                decoded == {(args.i, args.j)},
                f"{result.record.shots} outcomes over {int(observed.sum())} pairs",
            )
        )

    fields, rows = _coincidence_rows(result.probabilities, result.record)
    payload = {
        "bell": _bell_dict(result.bell),
        "equivalence_gap": result.equivalence_gap,
        "classification": _classification_dict(classification),
        "table": rows,
    }
    return _emit("simulate", args, config, payload, checks, fields, rows)


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
    config = RunConfig(d, convention, selection, fmt=args.format)

    table = cl.coincidence_probabilities(state, convention)
    if args.noise > 0.0:
        table = cl.mix_with_white_noise(table, args.noise)
    decoding = cl.build_decoding_table(d, convention)
    classification = cl.classify_table(table, decoding)

    # The pair basis is complete, so the total is the state's squared norm,
    # mixed with the noise weight.
    expected_total = (1.0 - args.noise) * state.norm() ** 2 + args.noise
    checks = [
        check(
            "probabilities_total",
            abs(table.total() - expected_total) <= 1e-9,
            f"total probability {table.total():.12f}",
        ),
    ]
    payload = {
        "state_file": args.state_file,
        "noise": args.noise,
        "classification": _classification_dict(classification),
    }
    rows = payload["classification"]["class_masses"]
    return _emit("classify", args, config, payload, checks, ["i", "j", "mass"], rows)


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


_STRUCTURAL_ERRORS = (
    InvariantError,
    dec.NoAffineLawError,
    dec.NoMatchingConventionError,
    dec.PhaseNotRootOfUnityError,
    cl.CollisionError,
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _STRUCTURAL_ERRORS as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
