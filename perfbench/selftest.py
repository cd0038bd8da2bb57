"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

1. The checker: a wrong argmax, a count on a zero-probability outcome, a
   nonzero exit code and a report with "passed": false must each count as a
   failed operation, while the unmodified report passes.
2. The tracer lists a function the package no longer has as absent.
3. Smoke: every workload runs a few operations, traced and untraced, with no
   failure, and emits exactly the metrics BENCHMARK.json lists.
"""

from __future__ import annotations

import json
import random
import sys
from types import SimpleNamespace

import numpy as np

import checks
import gen
import run


def real_report(req: dict) -> bytes:
    """The program's own report for a request."""
    if "state" in req:
        (run.ROOT / req["argv"][-1]).write_text(req["state"])
    code, out, _, _ = run.Child(["-m", "hdbsm", *req["argv"]], run.WORK / "stderr.txt").finish()
    assert code == 0, run.stderr_tail(run.WORK / "stderr.txt")
    return out


def failures_for(req: dict, code: int, out: bytes) -> list[str]:
    """Send one request through CliRun with the program replaced by a canned answer."""

    class Canned:
        def __init__(self, args, stderr_path):
            stderr_path.write_text("canned\n")

        def finish(self):
            return code, out, 0.25, 30.0

    real_child, run.Child = run.Child, Canned
    try:
        cli = run.CliRun()
        cli.send(req)
    finally:
        run.Child = real_child
    assert len(cli.latencies) == 1
    return cli.failures


def request(command: str, d: int) -> dict:
    rng = random.Random(f"selftest:{command}")
    return gen.cli_request(rng, (command, d, "auto", "json"), f"{run.work_name()}/{command}.txt")


def edit_json(out: bytes, change) -> bytes:
    report = json.loads(out)
    change(report)
    return json.dumps(report).encode()


def test_cli_checker() -> None:
    classify, simulate = request("classify", 3), request("simulate", 3)
    classify_out, simulate_out = real_report(classify), real_report(simulate)
    assert failures_for(classify, 0, classify_out) == []
    assert failures_for(simulate, 0, simulate_out) == []

    def wrong_argmax(report):
        argmax = report["payload"]["classification"]["argmax"]
        argmax["i"] = (argmax["i"] + 1) % 3

    def count_on_zero(report):
        table = report["payload"]["table"]
        table[0]["count"] -= 1
        k, m, kp, mp = np.argwhere(np.abs(simulate["truth"]) ** 2 <= gen.ZERO_PROB)[0]
        table.append({"k": int(k), "m": int(m), "k_prime": int(kp), "m_prime": int(mp),
                      "probability": 0.0, "count": 1})

    def not_passed(report):
        report["passed"] = False

    cases = {
        "wrong argmax": (classify, 0, edit_json(classify_out, wrong_argmax)),
        "count on p = 0": (simulate, 0, edit_json(simulate_out, count_on_zero)),
        "nonzero exit": (classify, 1, classify_out),
        '"passed": false': (simulate, 0, edit_json(simulate_out, not_passed)),
    }
    for name, (req, code, out) in cases.items():
        found = failures_for(req, code, out)
        assert len(found) == 1, f"{name}: checker missed it"
        print(f"checker catches {name}: {found[0][:100]}")


def test_in_process_checker() -> None:
    rng = random.Random("selftest")
    inp = gen.stream_inputs(rng, 1)[0]
    d = inp["d"]
    good = SimpleNamespace(bell=inp["bell"], tie=False, class_masses=dict(inp["masses"]))
    assert checks.check_classification(good, inp) == []
    wrong = SimpleNamespace(**{**vars(good), "bell": ((inp["bell"][0] + 1) % d, inp["bell"][1])})
    assert checks.check_classification(wrong, inp)

    sample = gen.sample_inputs(rng, 1)[0]
    probs = sample["probs"]
    counts = np.zeros(probs.shape, dtype=np.int64)
    counts[np.unravel_index(int(np.argmax(probs)), probs.shape)] = sample["shots"]
    result = SimpleNamespace(
        equivalence_gap=0.0,
        probabilities=SimpleNamespace(probs=probs),
        record=SimpleNamespace(counts=counts),
    )
    assert checks.check_experiment(result, sample) == []
    counts[np.unravel_index(int(np.argmin(probs)), probs.shape)] += 1
    counts[np.unravel_index(int(np.argmax(probs)), probs.shape)] -= 1
    assert checks.check_experiment(result, sample)
    print("in-process checker catches a wrong argmax and a count on p = 0")


def test_absent_function() -> None:
    """A traced function missing from the package is reported absent and reads 0."""
    sys.path.insert(0, str(run.ROOT / "src"))
    import hdbsm.cli
    import hdbsm.report
    import spans

    original = hdbsm.report.write_report
    del hdbsm.report.write_report
    try:
        tracer = spans.Tracer()
        tracer.install()
    finally:
        hdbsm.report.write_report = original
    summary = tracer.summary()
    assert summary["absent"] == ["report.write_report"], summary["absent"]
    assert summary["calls"]["report.write_report"] == 0
    print("a missing function is listed as absent")


def test_smoke() -> None:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    small = {"cli-cold": 3, "classify-stream": 20, "sample-heavy": 5}
    run.CLI_MIN_BLOCKS = 1  # one block of requests instead of two
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            result = run.measure(workload, 0, 1.0, bool(trace), small[workload])
            assert not result["failures"], result["failures"][:3]
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            assert emitted == declared[trace], f"{workload} trace={trace}: metric names or units differ"
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), name
            print(f"smoke {workload} trace={trace}: {result['attempted']} ops, {len(emitted)} metrics")


def main() -> int:
    if not (run.ROOT / "src" / "hdbsm" / "__init__.py").is_file():
        print("error: run from the root of an hdbsm checkout", file=sys.stderr)
        return 2
    run.WORK.mkdir(parents=True, exist_ok=True)
    try:
        test_cli_checker()
        test_in_process_checker()
        test_absent_function()
    finally:
        run.remove_work()
    test_smoke()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
