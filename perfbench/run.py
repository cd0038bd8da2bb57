"""hdbsm benchmark: three workloads, end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` and nothing is installed. Workloads (see perfbench/README.md):

* cli-cold         one fresh ``python -m hdbsm ...`` process per operation;
* classify-stream  one state classified in a warm process per operation;
* sample-heavy     one ``run_experiment`` with 10**6 shots in a warm process.

Every operation is a closed loop with one caller, and every output is
checked against ground truth from perfbench/gen.py. At most one child
process runs at a time. Every input is timed more than once, spread over
the run, and its latency is the fastest of those times: slow spells of the
host then lift single timings, not the quantiles. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer ones. The line before it records the environment and the
sample counts.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # never above nproc; one caller, so one thread is what it gets
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# Set before numpy is imported here or in any child.
os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / "perfbench" / ".work" / str(os.getpid())  # scratch files of this run only
WORKLOADS = ("cli-cold", "classify-stream", "sample-heavy")
CHILD_TIMEOUT_S = 150.0
CLI_MIN_BLOCKS = 2  # blocks of gen.CLI_BLOCK_SIZE requests per timed cli-cold run, at least
CLI_PASSES = 3  # times each cli-cold request is sent in a timed run
WORKER_SLICES = 5  # warm processes per timed run; setup_s is the median of their set-ups
TRACE_OPS = {"cli-cold": gen.CLI_BLOCK_SIZE, "classify-stream": 1000, "sample-heavy": 25}

END_TO_END = {
    "setup_s": "s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
DERIVED = {
    "decomposition.pair_coefficients.peak_bytes": "B",
    "classifier.build_decoding_table.rebuild_ratio": "ratio",
    "classifier.sample_outcomes.ns_per_shot": "ns/shot",
    "classifier.sample_outcomes.peak_bytes_per_shot": "B/shot",
    "report.bytes": "B",
    "cli.process_overhead_ms": "ms",
    "trace.overhead_ratio": "ratio",
}
PER_LAYER = {
    **{f"{name}.{kind}": unit for name in spans.NAMES for kind, unit in (("calls", "count"), ("self_ms", "ms"))},
    **DERIVED,
}


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def child_env() -> dict:
    # Bytecode is cached next to the sources, as an installed package has it:
    # the untimed build step in measure() writes it, and every child reads it.
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Child:
    """One child process; always reaped, with its rusage, before the next starts."""

    def __init__(self, args: list[str], stderr_path: Path) -> None:
        self.stderr = open(stderr_path, "wb")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *args], stdout=subprocess.PIPE, stderr=self.stderr,
            env=child_env(), cwd=ROOT,
        )
        self.timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.timer.start()

    def finish(self) -> tuple[int, bytes, float, float]:
        """Read stdout to the end and reap: (exit code, stdout, wall s, max RSS MB)."""
        try:
            out = self.proc.stdout.read()
            _, status, usage = os.wait4(self.proc.pid, 0)
            wall = time.perf_counter() - self.start
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            return self.proc.returncode, out, wall, usage.ru_maxrss / 1024.0
        finally:
            self.close()

    def close(self) -> None:
        self.timer.cancel()
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


def work_name() -> str:
    """The scratch directory as the program sees it: relative to the checkout."""
    return str(WORK.relative_to(ROOT))


def stderr_tail(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------


class CliRun:
    """Sends command line requests one at a time and checks each report."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.times: dict[int, list[float]] = {}  # request number -> latencies
        self.failures: list[str] = []
        self.rss: list[float] = []
        self.seen: dict[tuple, bytes] = {}
        self.summaries: list[dict] = []
        self.overheads: list[float] = []

    def send(self, req: dict, traced: bool = False, number: int = 0) -> None:
        if "state" in req:
            (ROOT / req["argv"][-1]).write_text(req["state"])
        err = WORK / "stderr.txt"
        if traced:
            summary_path = WORK / "summary.json"
            summary_path.unlink(missing_ok=True)
            args = [str(HERE / "trace_cli.py"), str(summary_path), *req["argv"]]
        else:
            args = ["-m", "hdbsm", *req["argv"]]
        code, out, wall, rss = Child(args, err).finish()
        self.latencies.append(wall)
        self.times.setdefault(number, []).append(wall)
        self.rss.append(rss)
        problems = checks.check_cli(req, code, out)
        if code != 0:
            problems.append(stderr_tail(err))
        key = tuple(req["argv"])
        if self.seen.setdefault(key, out) != out:
            problems.append("repeated identical request gave different bytes")
        if problems:
            self.failures.append(f"{' '.join(req['argv'])}: {'; '.join(problems)}")
        if traced and summary_path.exists():
            summary = json.loads(summary_path.read_text())
            self.summaries.append(summary)
            self.overheads.append(wall - summary["cli_main_ns"] / 1e9)


def check_origin(path: str) -> None:
    if not Path(path).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"hdbsm imported from {path}, not from ./src")


def bare_import() -> tuple[float, float]:
    """One `import hdbsm` process: the set-up every command line request pays."""
    args = ["-c", "import hdbsm; print(hdbsm.__file__)"]
    code, out, wall, peak = Child(args, WORK / "stderr.txt").finish()
    if code != 0:
        raise BenchError(f"import hdbsm failed: {stderr_tail(WORK / 'stderr.txt')}")
    check_origin(out.decode().strip())
    return wall, peak


def run_cli_cold(seed: int, seconds: float, trace: bool, trace_ops: int) -> dict:
    rng = random.Random(f"cli-cold:{seed}")
    if trace:
        blocks = range(-(-trace_ops // gen.CLI_BLOCK_SIZE))
        reqs = [req for block in blocks for req in gen.cli_block(rng, block, work_name())]
        reqs = reqs[:trace_ops]
        plain, traced = CliRun(), CliRun()
        for req in reqs:
            plain.send(req)
        traced.seen = plain.seen
        for req in reqs:
            traced.send(req, traced=True)
        if not traced.summaries:
            raise BenchError("no traced process wrote a span summary")
        if len(traced.summaries) != len(reqs):
            traced.failures.append("a traced process wrote no span summary")
        return {
            "attempted": 2 * len(reqs),
            "failures": plain.failures + traced.failures,
            "untraced": plain.latencies,
            "traced": traced.latencies,
            "summary": spans.merge(traced.summaries),
            "process_overhead": traced.overheads,
        }
    # CLI_PASSES passes over the same requests: the first sends whole
    # blocks, so every run has the same request mix, and stops at the block
    # count that brings all passes closest to `seconds`; each later pass
    # sends them all again in a new order, so a request's sends lie a pass
    # apart. One bare import per block's worth of requests spreads the
    # set-up samples over the run.
    run, setups, setup_rss = CliRun(), [], []

    def bare() -> None:
        setup, peak = bare_import()
        setups.append(setup)
        setup_rss.append(peak)

    reqs: list[dict] = []
    start = time.perf_counter()
    while True:
        bare()
        for req in gen.cli_block(rng, len(reqs) // gen.CLI_BLOCK_SIZE, work_name()):
            run.send(req, number=len(reqs))
            reqs.append(req)
        blocks = len(reqs) // gen.CLI_BLOCK_SIZE
        elapsed = time.perf_counter() - start
        if blocks >= CLI_MIN_BLOCKS and CLI_PASSES * elapsed * (1 + 0.5 / blocks) >= seconds:
            break
    for _ in range(CLI_PASSES - 1):
        order = list(range(len(reqs)))
        rng.shuffle(order)
        for n, number in enumerate(order):
            if n % gen.CLI_BLOCK_SIZE == 0:
                bare()
            run.send(reqs[number], number=number)
    return {
        "attempted": len(run.latencies),
        "failures": run.failures,
        "times": run.times,
        "setups": setups,
        "rss": setup_rss + run.rss,
    }


# ---------------------------------------------------------------------------
# classify-stream and sample-heavy
# ---------------------------------------------------------------------------


def worker(workload: str, seed: int, extra: list[str]) -> tuple[float, dict, float]:
    """Run one warm worker: (set-up seconds, its result, max RSS MB)."""
    err = WORK / "stderr.txt"
    child = Child(
        [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *extra], err
    )
    try:
        ready = child.proc.stdout.readline()
        setup = time.perf_counter() - child.start
        if ready.strip() != b"ready":
            child.finish()
            raise BenchError(f"{workload} worker failed to start: {stderr_tail(err)}")
        code, out, _, rss = child.finish()
    finally:
        child.close()
    if code != 0 or not out.strip():
        raise BenchError(f"{workload} worker exited with {code}: {stderr_tail(err)}")
    result = json.loads(out.strip().splitlines()[-1])
    check_origin(result["hdbsm_file"])
    return setup, result, rss


def run_warm(workload: str, seed: int, seconds: float, trace: bool, trace_ops: int) -> dict:
    if trace:
        _, result, _ = worker(workload, seed, ["--trace-ops", str(trace_ops)])
        untraced, traced = result["untraced"], result["traced"]
        return {
            "attempted": len(untraced["times"]) + len(traced["times"]),
            "failures": untraced["failures"] + traced["failures"],
            "untraced": [t for _, t in untraced["times"]],
            "traced": [t for _, t in traced["times"]],
            "summary": spans.merge([result["trace"]]),
            "process_overhead": [],
        }
    # Each process carries on through the same pool where the previous one
    # stopped, so an input's timings are spread over the whole run.
    setups, rss, times, failures, digests = [], [], {}, [], {}
    start = 0
    for _ in range(WORKER_SLICES):
        extra = ["--start", str(start), "--seconds", repr(seconds / WORKER_SLICES)]
        setup, result, peak = worker(workload, seed, extra)
        setups.append(setup)
        rss.append(peak)
        timed = result["timed"]
        for key, latency in timed["times"]:
            times.setdefault(key, []).append(latency)
        start += len(timed["times"])
        failures += timed["failures"]
        for key, digest in timed["digests"].items():
            if digests.setdefault(key, digest) != digest:
                failures.append(f"{workload} input {key}: repeated identical request gave different output")
    return {
        "attempted": start,
        "failures": failures,
        "times": times,
        "setups": setups,
        "rss": rss,
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(run: dict) -> tuple[dict, dict]:
    # One latency per input: the fastest of its timings in the run.
    lat = [min(times) for times in run["times"].values()]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    values = {
        "setup_s": statistics.median(run["setups"]),
        "latency_ms.p50": 1e3 * statistics.median(lat),
        "latency_ms.p90": 1e3 * p90,
        "ops_per_s": len(lat) / sum(lat),
        "peak_rss_mb": max(run["rss"]),
    }
    samples = {
        "operations": run["attempted"],
        "inputs": len(lat),
        "beyond_p90": sum(t > p90 for t in lat),
        "setups": len(run["setups"]),
        "processes": len(run["rss"]),
    }
    return values, samples


def per_layer(run: dict) -> tuple[dict, dict]:
    s = run["summary"]
    values: dict[str, float] = {}
    for name in spans.NAMES:
        values[f"{name}.calls"] = s["calls"][name]
        values[f"{name}.self_ms"] = s["self_ns"][name] / 1e6
    builds = s["calls"]["classifier.build_decoding_table"]
    shots = s["shots"]
    overheads = run["process_overhead"]
    values.update(
        {
            "decomposition.pair_coefficients.peak_bytes": s["peak_bytes"]["decomposition.pair_coefficients"],
            "classifier.build_decoding_table.rebuild_ratio": builds / max(1, len(s["decoding_keys"])),
            "classifier.sample_outcomes.ns_per_shot": (
                s["self_ns"]["classifier.sample_outcomes"] / shots if shots else 0.0
            ),
            "classifier.sample_outcomes.peak_bytes_per_shot": s["peak_bytes_per_shot"],
            "report.bytes": s["report_bytes"],
            "cli.process_overhead_ms": 1e3 * statistics.median(overheads) if overheads else 0.0,
            # Same operations in both passes, so the ratio of rates is the ratio of times.
            "trace.overhead_ratio": sum(run["untraced"]) / sum(run["traced"]),
        }
    )
    samples = {"traced_ops": len(run["traced"]), "absent": s["absent"]}
    return values, samples


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hdbsm").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_revision() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "note": "page cache and CPU governor are not controlled",
    }


def remove_work() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        WORK.parent.rmdir()
    except OSError:  # another run still uses it
        pass


def measure(workload: str, seed: int, seconds: float, trace: bool, trace_ops: int | None = None) -> dict:
    """Run one workload and return its metrics, sample counts and failures."""
    ops = TRACE_OPS[workload] if trace_ops is None else trace_ops
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        # Build step: compiles the package's bytecode and warms the file cache.
        code, _, _, _ = Child(["-c", "import hdbsm.cli"], WORK / "stderr.txt").finish()
        if code != 0:
            raise BenchError(f"import hdbsm.cli failed: {stderr_tail(WORK / 'stderr.txt')}")
        if workload == "cli-cold":
            run = run_cli_cold(seed, seconds, trace, ops)
        else:
            run = run_warm(workload, seed, seconds, trace, ops)
    finally:
        remove_work()
    values, samples = per_layer(run) if trace else end_to_end(run)
    units = PER_LAYER if trace else END_TO_END
    return {
        "attempted": run["attempted"],
        "failures": run["failures"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "samples": samples,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM unwind normally, so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "hdbsm" / "__init__.py").is_file():
        print("error: run from the root of an hdbsm checkout (src/hdbsm is missing)", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = len(result["failures"])
    for line in result["failures"][:10]:
        print(f"FAILED {line}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fail_ratio": failed / result["attempted"],
        "samples": result["samples"],
        "environment": environment(),
    }
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": result["attempted"],
                "failed": failed,
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
