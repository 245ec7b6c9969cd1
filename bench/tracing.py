"""Spans and counters around msbench's public functions, installed from outside.

The benchmark wraps the functions below at every module that bound them
(``msbench.tomography.evolve`` as well as ``msbench.simulator.evolve``), so a
call is seen whichever import path the caller used.  Layer functions get a
span per call: name, start, end, parent span and op id.  The small linalg
helpers and ``numpy.linalg.eigh`` run thousands of times per op, so they get
a counter instead of a span; their time stays in the calling layer's self
time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, function, span name). Self time of a span is its duration minus
# the time its child spans cover.
SPANS = (
    ("msbench.simulator", "evolve", "simulator.evolve"),
    ("msbench.simulator", "outcome_distribution", "simulator.outcome_distribution"),
    ("msbench.simulator", "sample_counts", "simulator.sample_counts"),
    ("msbench.simulator", "expectation", "simulator.expectation"),
    ("msbench.tomography", "run_qpt", "tomography.run_qpt"),
    ("msbench.tomography", "reconstruct_channel", "tomography.reconstruct_channel"),
    ("msbench.tomography", "process_fidelity", "tomography.process_fidelity"),
    ("msbench.tomography", "exact_process_fidelity", "tomography.exact_process_fidelity"),
    ("msbench.channels", "project_cptp", "channels.project_cptp"),
    ("msbench.noise", "build_noise_model", "noise.build_noise_model"),
    ("msbench.noise", "fit_depolarizing", "noise.fit_depolarizing"),
    ("msbench.metrics", "success_probability", "metrics.success_probability"),
    ("msbench.metrics", "stability_analysis", "metrics.stability_analysis"),
    ("msbench.cli", "cmd_decompose", "cli.decompose"),
    ("msbench.cli", "cmd_state", "cli.state"),
    ("msbench.cli", "cmd_qpt", "cli.qpt"),
    ("msbench.cli", "cmd_fit_noise", "cli.fit-noise"),
    ("msbench.cli", "cmd_stability", "cli.stability"),
)

# (module, function, counter name, span that must be open for the call to count).
COUNTERS = (
    ("msbench.linalg", "kron", "linalg.kron.calls", None),
    ("msbench.linalg", "as_matrix", "linalg.as_matrix.calls", None),
    ("msbench.linalg", "check_density_matrix", "linalg.check_density_matrix.calls", None),
    ("numpy.linalg", "eigh", "channels.project_cptp.eigh_calls", "channels.project_cptp"),
    ("msbench.tomography", "exact_process_fidelity", "noise.fit_depolarizing.evaluations",
     "noise.fit_depolarizing"),
)

# Per-layer metrics, per traced op: name -> unit.  ``.calls`` is the span
# count, ``.self_ms`` the summed self time.
CLI_COMMANDS = ("decompose", "state", "qpt", "fit-noise", "stability")
LAYER_METRICS = {
    **{f"{name}.{kind}": unit
       for name in ("simulator.evolve", "simulator.outcome_distribution",
                    "simulator.sample_counts", "simulator.expectation")
       for kind, unit in (("calls", "calls/op"), ("self_ms", "ms/op"))},
    "tomography.run_qpt.self_ms": "ms/op",
    "tomography.reconstruct_channel.self_ms": "ms/op",
    "channels.project_cptp.calls": "calls/op",
    "channels.project_cptp.self_ms": "ms/op",
    "channels.project_cptp.eigh_calls": "calls/op",
    "tomography.process_fidelity.self_ms": "ms/op",
    "noise.build_noise_model.calls": "calls/op",
    "noise.build_noise_model.self_ms": "ms/op",
    "noise.fit_depolarizing.evaluations": "calls/op",
    "linalg.kron.calls": "calls/op",
    "linalg.as_matrix.calls": "calls/op",
    "linalg.check_density_matrix.calls": "calls/op",
    **{f"cli.{cmd}.self_ms": "ms/op" for cmd in CLI_COMMANDS},
    "cli.bytes_written": "bytes/op",
    "metrics.success_probability.calls": "calls/op",
    "metrics.stability_analysis.self_ms": "ms/op",
    "trace.overhead_ms": "ms",
    "trace.ops": "count",
}

# Where each workload does the work a span or counter measures.  The run
# fails its self-check if a listed count is zero, or an unlisted one nonzero.
_EVERYWHERE = {
    "simulator.evolve.calls", "simulator.outcome_distribution.calls",
    "simulator.expectation.calls", "tomography.run_qpt.calls",
    "tomography.reconstruct_channel.calls", "tomography.process_fidelity.calls",
    "channels.project_cptp.calls", "channels.project_cptp.eigh_calls",
    "linalg.kron.calls", "linalg.as_matrix.calls", "linalg.check_density_matrix.calls",
}
EXPECTED_NONZERO = {
    "qpt_campaign": _EVERYWHERE | {"simulator.sample_counts.calls"},
    "noise_fit": _EVERYWHERE | {
        "noise.build_noise_model.calls", "noise.fit_depolarizing.calls",
        "tomography.exact_process_fidelity.calls", "noise.fit_depolarizing.evaluations",
        "cli.fit-noise.calls", "cli.bytes_written",
    },
    "cli_quickstart": _EVERYWHERE | {
        "simulator.sample_counts.calls", "noise.build_noise_model.calls",
        "metrics.success_probability.calls", "metrics.stability_analysis.calls",
        "cli.bytes_written",
        *(f"cli.{cmd}.calls" for cmd in CLI_COMMANDS if cmd != "fit-noise"),
    },
}
CHECKED_COUNTS = sorted(
    {f"{name}.calls" for _, _, name in SPANS} | {c for _, _, c, _ in COUNTERS}
    | {"cli.bytes_written"}
)


class Tracer:
    """Records spans and counts in memory while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, child seconds]
        self.counts = Counter()
        self.op_id = None
        self._stack = []
        self._open = Counter()
        # (module, function) -> (binding sites, original, outermost wrapper)
        self._wrapped = {}
        for mod, attr, name in SPANS:
            self._wrap(mod, attr, self._span_wrapper(name))
        for mod, attr, name, scope in COUNTERS:
            self._wrap(mod, attr, self._counter_wrapper(name, scope))

    def _wrap(self, module: str, attr: str, make_wrapper) -> None:
        if (module, attr) in self._wrapped:  # a span and a counter on one function nest
            sites, original, inner = self._wrapped[module, attr]
        else:
            original = inner = getattr(sys.modules[module], attr)
            candidates = [sys.modules[module]] if module.startswith("numpy") else [
                m for n, m in sys.modules.items()
                if (n == "msbench" or n.startswith("msbench.")) and m is not None
            ]
            sites = [(m, n) for m in candidates for n, v in vars(m).items() if v is original]
        self._wrapped[module, attr] = (sites, original, make_wrapper(inner))

    def _span_wrapper(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                parent = self._stack[-1] if self._stack else None
                index = len(self.spans)
                rec = [name, 0.0, 0.0, parent, self.op_id, 0.0]
                self.spans.append(rec)
                self._stack.append(index)
                self._open[name] += 1
                self.counts[f"{name}.calls"] += 1
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._open[name] -= 1
                    self._stack.pop()
                    rec[1], rec[2] = start, end
                    if parent is not None:
                        self.spans[parent][5] += end - start
            return wrapper
        return make

    def _counter_wrapper(self, name: str, scope: str | None):
        def make(fn):
            def wrapper(*args, **kwargs):
                if scope is None or self._open[scope]:
                    self.counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def install(self) -> None:
        for sites, _, wrapper in self._wrapped.values():
            for mod, name in sites:
                setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for sites, original, _ in self._wrapped.values():
            for mod, name in sites:
                setattr(mod, name, original)

    def self_ms(self) -> Counter:
        out = Counter()
        for name, start, end, _, _, child in self.spans:
            out[name] += (end - start - child) * 1e3
        return out

    def layer_metrics(self, ops: int, bytes_written: int) -> dict:
        """Per-op averages of every per-layer metric except the trace.* ones."""
        self_ms = self.self_ms()
        counts = self.counts + Counter({"cli.bytes_written": bytes_written})
        out = {}
        for metric in LAYER_METRICS:
            if metric.startswith("trace."):
                continue
            base, _, kind = metric.rpartition(".")
            total = self_ms[base] if kind == "self_ms" else counts[metric]
            out[metric] = total / ops
        return out

    def self_check(self, workload: str, bytes_written: int) -> list[str]:
        """Counts that are zero where the workload does the work, or nonzero where it does not."""
        counts = self.counts + Counter({"cli.bytes_written": bytes_written})
        expected = EXPECTED_NONZERO[workload]
        problems = []
        for name in CHECKED_COUNTS:
            if name in expected and counts[name] == 0:
                problems.append(f"{name} is 0 on {workload}, where work is expected")
            elif name not in expected and counts[name] != 0:
                problems.append(f"{name} is {counts[name]} on {workload}, where 0 is expected")
        return problems

    def write_spans(self, path) -> None:
        """One JSON array per line after a header line naming the fields;
        a span's id is its 0-based line number after the header."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start_s", "end_s", "parent", "op", "self_s"]) + "\n")
            for name, start, end, parent, op, child in self.spans:
                fh.write(json.dumps([name, start, end, parent, op, end - start - child]) + "\n")

