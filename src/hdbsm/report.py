"""Machine-readable report documents for the command line surface.

Reports are deterministic: the same configuration (including seed) renders
byte-identical output. Every report embeds the convention actually used and
the seed, which is enough to reproduce it. The JSON layout is pinned by the
shipped schema file ``data/report.schema.json``; its version must be bumped
on any field change.
"""

from __future__ import annotations

import io
import json
import os

SCHEMA_VERSION = "1"
_SIDES = {"<=": lambda o, b: o <= b, "<": lambda o, b: o < b, "==": lambda o, b: o == b}


def check(name: str, observed, side: str, bound, detail: str) -> dict:
    """A named check: ``passed`` is ``observed <side> bound``; an unknown side raises KeyError."""
    return {"name": name, "passed": bool(_SIDES[side](observed, bound)), "detail": detail}


def build_report(command: str, config: dict, payload: dict, checks: list[dict]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "payload": payload,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def render_csv(report: dict, label: str, fieldnames: list[str], rows: list[dict]) -> str:
    """CSV rendering: '# key=value' metadata lines, the convention as ``label``, then rows."""
    buf = io.StringIO()
    config = report["config"]
    meta = [
        ("schema_version", report["schema_version"]),
        ("command", report["command"]),
        ("d", config["d"]),
        ("convention", label),
        ("seed", config["seed"]),
        ("shots", config["shots"]),
        ("passed", str(report["passed"]).lower()),
    ]
    for key, value in meta:
        if value is not None:
            buf.write(f"# {key}={value}\n")
    buf.write(",".join(fieldnames) + "\n")
    for row in rows:
        buf.write(",".join(_csv_cell(row[f]) for f in fieldnames) + "\n")
    return buf.getvalue()


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report(text: str, output: str | None) -> None:
    """Write report text to stdout, or to ``output`` under HDBSM_OUTPUT_DIR when set.

    ``os.path.join`` drops an empty base and keeps an absolute path as it is.
    """
    if output is None:
        print(text, end="")
        return
    path = os.path.join(os.environ.get("HDBSM_OUTPUT_DIR", ""), output)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)
