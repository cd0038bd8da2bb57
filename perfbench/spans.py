"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each function in ``TARGETS`` with a wrapper in
every ``hdbsm`` module namespace that binds it, because ``classifier``,
``optics`` and ``cli`` import some names directly. The package's files are
not touched. A function that no longer exists is listed as absent.

Spans are kept in memory as (name, start, end, parent) and reduced to counts
and self times when the run ends; a span's self time is its duration minus
the durations of its direct children. ``pair_coefficients`` and
``sample_outcomes`` also record their peak traced allocation per call.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

TARGETS = {
    "core": ("tensor_product", "apply_local_unitary", "permute_factors"),
    "states": ("bell_state", "aux_state", "decomp_state", "shift_clock_unitary"),
    "decomposition": (
        "hyperentangled_state", "pair_coefficients", "decompose", "decompose_all",
        "fit_index_law", "fit_phase_law", "find_convention",
    ),
    "audit": ("load_reference_table", "audit_reference_table"),
    "classifier": (
        "coincidence_probabilities", "mix_with_white_noise", "build_decoding_table",
        "decoding_table_from_law", "classify_table", "sample_outcomes",
    ),
    "optics": ("prepare_bell", "bsa_layout", "pipeline_probabilities", "run_experiment"),
    "report": ("build_report", "render_json", "render_csv", "write_report"),
    "cli": ("main", "parse_state_file"),
}
NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)
PEAK_TRACKED = ("decomposition.pair_coefficients", "classifier.sample_outcomes")


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.stack: list[int] = []
        self.absent: list[str] = []
        self.peak_bytes = {name: 0 for name in PEAK_TRACKED}
        self.shots = 0
        self.peak_bytes_per_shot = 0.0
        self.decoding_keys: set = set()
        self.report_bytes = 0

    def install(self) -> None:
        import hdbsm.cli  # noqa: F401  (loads every module that can bind a target)

        modules = [m for n, m in sys.modules.items() if n == "hdbsm" or n.startswith("hdbsm.")]
        for mod, fns in TARGETS.items():
            for fn in fns:
                name = f"{mod}.{fn}"
                original = getattr(sys.modules.get(f"hdbsm.{mod}"), fn, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, name: str, original):
        spans, stack = self.spans, self.stack
        peak = name in PEAK_TRACKED

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1])
            stack.append(index)
            measure = peak and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index][1:3] = start, end
                if measure:
                    used = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self._observe_peak(name, used, args, kwargs)
            self._observe(name, result, args, kwargs)
            return result

        return wrapper

    def _observe_peak(self, name: str, used: int, args, kwargs) -> None:
        self.peak_bytes[name] = max(self.peak_bytes[name], used)
        if name == "classifier.sample_outcomes":
            per_shot = used / _arg(args, kwargs, 1, "shots")
            self.peak_bytes_per_shot = max(self.peak_bytes_per_shot, per_shot)

    def _observe(self, name: str, result, args, kwargs) -> None:
        if name == "classifier.sample_outcomes":
            self.shots += _arg(args, kwargs, 1, "shots")
        elif name == "classifier.build_decoding_table":
            conv = _arg(args, kwargs, 1, "convention")
            self.decoding_keys.add((_arg(args, kwargs, 0, "d"), conv.label()))
        elif name in ("report.render_json", "report.render_csv"):
            self.report_bytes += len(result.encode())

    def summary(self) -> dict:
        """Mergeable totals: calls and self time per function, plus the observations."""
        calls = dict.fromkeys(NAMES, 0)
        self_ns = dict.fromkeys(NAMES, 0)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            self_ns[name] += end - start
            if parent >= 0:
                self_ns[self.spans[parent][0]] -= end - start
        main_ns = sum(end - start for name, start, end, _ in self.spans if name == "cli.main")
        return {
            "calls": calls,
            "self_ns": self_ns,
            "absent": self.absent,
            "peak_bytes": self.peak_bytes,
            "shots": self.shots,
            "peak_bytes_per_shot": self.peak_bytes_per_shot,
            "decoding_keys": sorted(self.decoding_keys),
            "report_bytes": self.report_bytes,
            "cli_main_ns": main_ns,
        }


def merge(summaries: list[dict]) -> dict:
    """Combine the summaries of several traced processes."""
    total = {
        "calls": dict.fromkeys(NAMES, 0),
        "self_ns": dict.fromkeys(NAMES, 0),
        "absent": sorted({n for s in summaries for n in s["absent"]}),
        "peak_bytes": {n: max(s["peak_bytes"][n] for s in summaries) for n in PEAK_TRACKED},
        "shots": sum(s["shots"] for s in summaries),
        "peak_bytes_per_shot": max(s["peak_bytes_per_shot"] for s in summaries),
        "decoding_keys": sorted({tuple(k) for s in summaries for k in s["decoding_keys"]}),
        "report_bytes": sum(s["report_bytes"] for s in summaries),
        "cli_main_ns": [s["cli_main_ns"] for s in summaries],
    }
    for s in summaries:
        for name in NAMES:
            total["calls"][name] += s["calls"][name]
            total["self_ns"][name] += s["self_ns"][name]
    return total
