"""One warm process of the classify-stream or sample-heavy workload.

    python perfbench/worker.py --workload NAME --seed N --start K --seconds T
    python perfbench/worker.py --workload NAME --seed N --trace-ops N

The process imports hdbsm and the benchmark's modules, runs the workload's
declared warm-up and prints ``ready``; the parent times set-up up to that
line. It then generates the run's pool of inputs (untimed; the same pool for
a seed in every process), runs a closed loop of single operations over the
pool from operation K on, and prints one JSON line with each operation's
pool index and latency, the failures and a digest of each input's output.
With ``--trace-ops`` it runs a fixed list of operations twice, untraced and
then traced, and also reports the trace summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time

import hdbsm

import checks
import gen
import spans

# At least 100 inputs, so that ten or more lie beyond p90 of their timings.
SAMPLE_POOL = 100  # twenty groups of one run_experiment per d
STREAM_POOL = 240


def warm_up(workload: str) -> None:
    """Build what a warm library process has already built.

    classify-stream: the convention search and every pair basis for d = 3..6.
    sample-heavy: the pair basis of each d under the convention it samples.
    """
    if workload == "classify-stream":
        for d in sorted(set(gen.STREAM_DIMS)):
            hdbsm.find_convention(d)
    else:
        for d in gen.SAMPLE_DIMS:
            conv = hdbsm.PhaseConvention.from_label(gen.default_convention(d))
            hdbsm.run_experiment(d, 0, 0, 0, 0, conv)


def classify_once(inp: dict):
    """The sequence the classify subcommand runs, from state to classification."""
    table = hdbsm.coincidence_probabilities(inp["state"], inp["convention"])
    if inp["noise"] > 0.0:
        table = hdbsm.mix_with_white_noise(table, inp["noise"])
    decoding = hdbsm.build_decoding_table(table.d, inp["convention"])
    return hdbsm.classify_table(table, decoding)


def sample_once(inp: dict):
    i, j = inp["bell"]
    return hdbsm.run_experiment(inp["d"], i, j, inp["shots"], inp["seed"], inp["convention"])


def inputs(workload: str, rng: random.Random, count: int) -> list[dict]:
    if workload == "classify-stream":
        pool = gen.stream_inputs(rng, count)
        for inp in pool:
            d = inp["d"]
            inp["state"] = hdbsm.State((d,) * 4, inp.pop("amps").reshape(-1))
    else:
        pool = gen.sample_inputs(rng, count)
    for inp in pool:
        inp["convention"] = hdbsm.PhaseConvention.from_label(inp["conv"])
    return pool


def fingerprint(workload: str, result) -> str:
    """Digest of an output's exact bytes, for the repeated-request check."""
    if workload == "classify-stream":
        data = repr(sorted(result.class_masses.items())).encode()
    else:
        data = result.record.counts.tobytes() + result.probabilities.probs.tobytes()
    return hashlib.sha256(data).hexdigest()


class Loop:
    """Closed loop over a pool of inputs, checking every output."""

    def __init__(self, workload: str, pool: list[dict]) -> None:
        self.workload = workload
        self.pool = pool
        self.op = classify_once if workload == "classify-stream" else sample_once
        self.check = (
            checks.check_classification if workload == "classify-stream" else checks.check_experiment
        )
        self.seen: dict[int, str] = {}
        self.times: list[tuple[int, float]] = []  # (pool index, latency s)
        self.failures: list[str] = []

    def run(self, n: int) -> None:
        key = n % len(self.pool)
        inp = self.pool[key]
        start = time.perf_counter()
        try:
            result = self.op(inp)
        except Exception as exc:  # a crashing operation is a failed one
            self.times.append((key, time.perf_counter() - start))
            self.failures.append(f"{self.workload} op {n}: {exc!r}")
            return
        self.times.append((key, time.perf_counter() - start))
        problems = self.check(result, inp)
        stamp = fingerprint(self.workload, result)
        if self.seen.setdefault(key, stamp) != stamp:
            problems.append("repeated identical request gave different output")
        if problems:
            self.failures.append(f"{self.workload} op {n}: {problems[0]}")

    def result(self) -> dict:
        return {"times": self.times, "failures": self.failures, "digests": self.seen}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("classify-stream", "sample-heavy"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-ops", type=int, default=0)
    args = parser.parse_args()

    warm_up(args.workload)
    print("ready", flush=True)

    rng = random.Random(f"{args.workload}:{args.seed}")
    size = STREAM_POOL if args.workload == "classify-stream" else SAMPLE_POOL
    if args.trace_ops:
        size = min(size, args.trace_ops)
    loop = Loop(args.workload, inputs(args.workload, rng, size))
    out: dict = {"hdbsm_file": hdbsm.__file__}
    if args.trace_ops:
        for n in range(args.trace_ops):
            loop.run(n)
        out["untraced"] = loop.result()
        traced = Loop(args.workload, loop.pool)
        traced.seen = loop.seen
        tracer = spans.Tracer()
        tracer.install()
        for n in range(args.trace_ops):
            traced.run(n)
        out["traced"] = traced.result()
        out["trace"] = tracer.summary()
    else:
        n = args.start
        deadline = time.perf_counter() + args.seconds
        while n == args.start or time.perf_counter() < deadline:
            loop.run(n)
            n += 1
        out["timed"] = loop.result()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
