"""msbench benchmark: one closed-loop caller drives a workload through the public API.

    python3 bench/run.py --workload qpt_campaign --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, one row each

One caller runs the workload's ops back to back (the next op starts when the
previous one returns), checks each op's outputs outside the timing, prints
every metric with its unit, and prints one JSON result as the last line of
stdout.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
alternates untraced and traced ops and reports per-layer metrics per op and
the tracing overhead.  See bench/README.md.
"""

from __future__ import annotations

import os
import sys
import time

SETUP_START = time.perf_counter()

# One BLAS thread: faster than two, at half the CPU time, on the shared
# two-core test machine (see bench/README.md).
# Must be set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_DIR = ROOT / ".bench_run"  # results, spans and recorded counts; git-ignored
WORKLOAD_NAMES = ("qpt_campaign", "noise_fit", "cli_quickstart")
DEFAULT_SEED = 1  # the seed bench/reference.json was recorded with
SETUP_SAMPLES = 5  # this process's set-up plus four fresh processes
P90_MIN_OPS = 100  # p90 needs at least 10 samples beyond it
# Times are scaled to the machine speed at which ReferenceKernel takes this
# long: its median on the two-core test machine in its faster phases.
NOMINAL_KERNEL_S = 0.0035
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def import_msbench() -> None:
    """Import msbench from this checkout's src/, or exit non-zero."""
    src = ROOT / "src"
    needed = [src / "msbench" / "__init__.py", ROOT / "data" / "example_calibration.json",
              ROOT / "data" / "example_calibration_b.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"error: msbench checkout incomplete, missing {', '.join(missing)}")
    sys.path.insert(0, str(src))
    import msbench

    if Path(msbench.__file__).resolve().parent != (src / "msbench").resolve():
        sys.exit(f"error: imported msbench from {msbench.__file__}, not from {src}")


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                         env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    return {
        "commit": git.stdout.strip() if git.returncode == 0 else None,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
    }


def source_digest() -> str:
    """SHA-256 over the program and benchmark sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "msbench").glob("*.py"), *BENCH.glob("*.py"),
                        BENCH / "reference.json"]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class ReferenceKernel:
    """A fixed few milliseconds of the kind of work msbench ops do: small
    complex matrix and Kronecker products, a 16x16 Hermitian eigensolve and
    Python-level bookkeeping.  It never changes, so its time measures how
    fast the shared machine runs at that moment; its speed moved by a factor
    of 1.8 within minutes on the two-core test machine."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        self.h = a + a.conj().T
        self.b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))

    def __call__(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for _ in range(10):
            vals, _ = np.linalg.eigh(self.h)
            m = self.b
            for _ in range(10):
                m = np.kron(self.b[:2, :2], self.b[2:, 2:]) @ m @ self.b.conj().T
            table = {str(i): i for i in range(20)}
            acc += float(vals[0]) + abs(m[0, 0]) + sum(table.values())
        return time.perf_counter() - start

    def speed(self) -> float:
        """Nominal seconds per second of wall time right now."""
        return NOMINAL_KERNEL_S / statistics.median(self() for _ in range(5))


class Run:
    """Times ops of one workload and keeps what the checks found."""

    def __init__(self, workload):
        self.workload = workload
        self.times = []  # wall seconds per attempted op
        self.failures = []
        self.records = []  # check records of the first deck cycle

    def op(self, index: int, tracer=None) -> float:
        """Run deck entry ``index``, check it, and return its duration."""
        entry = self.workload.deck[index]
        self.workload.clear_outputs()
        if tracer is not None:
            tracer.op_id = len(self.times)
            tracer.install()
        start = time.perf_counter()
        try:
            result = self.workload.run(entry)
        except Exception:  # an op that raises is a failed op; the run goes on
            result = None
            self._fail(entry)
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        self.times.append(elapsed)
        if result is not None:
            try:
                record = self.workload.check(index, entry, result)
                if len(self.records) < len(self.workload.deck):
                    self.records.append(record)
            except Exception:  # a wrong or unreadable output fails the op
                self._fail(entry)
        return elapsed

    def _fail(self, entry) -> None:
        message = traceback.format_exc(limit=3)
        if not self.failures:
            print(f"first failed op ({entry}):\n{message}", file=sys.stderr)
        self.failures.append({"entry": entry, "error": message.strip().splitlines()[-1]})


def measure(run: Run, seconds: float) -> list[float]:
    """Run ops until ``seconds`` have passed, timing the reference kernel
    before the first op and after every op.  Returns each op's time scaled
    to nominal machine speed by the mean of the kernel times around it."""
    kernel = ReferenceKernel()
    kernels = [kernel()]
    deck = len(run.workload.deck)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        run.op(len(run.times) % deck)
        kernels.append(kernel())
    return [t * NOMINAL_KERNEL_S / (0.5 * (k0 + k1))
            for t, k0, k1 in zip(run.times, kernels, kernels[1:])]


def measure_traced(run: Run, tracer, seconds: float) -> dict:
    """Whole deck cycles, each op once untraced and once traced, alternating
    which goes first.  Returns per-layer metrics per traced op."""
    plain, traced, cycles = [], [], []
    bytes_written = 0
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        before = dict(tracer.counts)
        for index in range(len(run.workload.deck)):
            for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
                if with_trace:
                    traced.append(run.op(index, tracer))
                    bytes_written += run.workload.bytes_written()
                else:
                    plain.append(run.op(index))
        cycles.append({k: v - before.get(k, 0) for k, v in tracer.counts.items()})
    metrics = tracer.layer_metrics(len(traced), bytes_written)
    metrics["trace.overhead_ms"] = (statistics.median(traced) - statistics.median(plain)) * 1e3
    metrics["trace.ops"] = len(traced)
    run.cycle_counts = cycles
    return metrics


def repeat_problems(run: Run, name: str, seed: int) -> list[str]:
    """Counts that differ between deck cycles of this run, or from an earlier
    traced run of the same sources and seed."""
    first = run.cycle_counts[0]
    problems = [f"counts differ between deck cycles 1 and {i + 2}"
                for i, c in enumerate(run.cycle_counts[1:]) if c != first]
    path = RUN_DIR / "counts" / f"{name}-seed{seed}-{source_digest()[:16]}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        problems += [f"{k}: {first.get(k, 0)} per cycle, {earlier.get(k, 0)} in an earlier run"
                     for k in sorted(set(first) | set(earlier))
                     if first.get(k, 0) != earlier.get(k, 0)]
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(first, indent=1, sort_keys=True) + "\n")
    return problems


def setup_probes(name: str, seed: int) -> list[tuple[float, float]]:
    """(wall, nominal) set-up seconds of fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                              "--seed", str(seed), "--setup-only"],
                             capture_output=True, text=True, timeout=120, check=True)
        wall, nominal = out.stdout.split()
        samples.append((float(wall), float(nominal)))
    return samples


def run_workload(args) -> int:
    import_msbench()
    import tracing
    import workloads

    reference = json.loads((BENCH / "reference.json").read_text())
    RUN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUN_DIR, prefix="work-") as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp),
                                                      reference[args.workload])
        workload.run(workload.warmup)  # lazy caches, first file writes
        setup_wall = time.perf_counter() - SETUP_START
        setup = (setup_wall, setup_wall * ReferenceKernel().speed())
        if args.setup_only:
            print(*setup)
            return 0
        run = Run(workload)
        problems = []
        detail = {}
        if args.trace:
            tracer = tracing.Tracer()
            metrics = measure_traced(run, tracer, args.seconds)
            problems += tracer.self_check(args.workload, metrics["cli.bytes_written"])
            problems += repeat_problems(run, args.workload, args.seed)
            units = tracing.LAYER_METRICS
            spans_path = RUN_DIR / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            spans_path.parent.mkdir(exist_ok=True)
            tracer.write_spans(spans_path)
        else:
            nominal = measure(run, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setups = [setup, *setup_probes(args.workload, args.seed)]
            ok = len(run.times) - len(run.failures)
            metrics = {
                "setup_s": statistics.median(s[1] for s in setups),
                "ops_per_s": ok / sum(nominal),
                "op_p50_ms": statistics.median(nominal) * 1e3,
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END
            detail["wall_clock"] = {
                "setup_s": statistics.median(s[0] for s in setups),
                "ops_per_s": ok / sum(run.times),
                "op_p50_ms": statistics.median(run.times) * 1e3,
            }
            if len(run.times) >= P90_MIN_OPS:
                detail["op_p90_ms"] = float(np.quantile(nominal, 0.9)) * 1e3
                detail["wall_clock"]["op_p90_ms"] = float(np.quantile(run.times, 0.9)) * 1e3
            detail["setup_samples_s"] = setups

    attempted, failed = len(run.times), len(run.failures)
    for problem in problems:
        print(f"self-check failed: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    detail.update(fail_ratio=failed / attempted, ops=attempted, self_check_problems=problems,
                  failures=run.failures[:20], outputs=run.records)
    write_result(args, metrics, units, detail, correct)
    print_table(args.workload, metrics, units, detail)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def write_result(args, metrics, units, detail, correct) -> None:
    path = RUN_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(exist_ok=True)
    payload = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "correct": correct, "environment": environment(),
               "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
               **detail}
    path.write_text(json.dumps(payload, indent=1) + "\n")


def print_table(name, metrics, units, detail) -> None:
    print(f"workload {name}: {detail['ops']} ops, fail_ratio {detail['fail_ratio']:.4f}")
    for key, value in metrics.items():
        print(f"  {key:40s} {value:14.4f} {units[key]}")
    if "wall_clock" not in detail:
        return
    if "op_p90_ms" in detail:
        print(f"  {'op_p90_ms':40s} {detail['op_p90_ms']:14.4f} ms (n={detail['ops']})")
    else:
        print(f"  {'op_p90_ms':40s} {'n/a':>14s} (n={detail['ops']} < {P90_MIN_OPS})")
    print("  wall clock, not scaled to nominal machine speed:")
    for key, value in detail["wall_clock"].items():
        print(f"  {key:40s} {value:14.4f} {END_TO_END.get(key, 'ms')}")


def run_all(args) -> int:
    """Each workload in its own process, then one row per workload."""
    rows, ok = {}, True
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"{name}: exited with {child.returncode}")
            ok = False
            continue
        print("\n".join(lines[:-1]))
        rows[name] = json.loads(lines[-1])
        ok = ok and rows[name]["correct"]
    print(json.dumps(rows))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
