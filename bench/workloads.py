"""The benchmark's workloads: inputs drawn from a seed, one op, and its output checks.

Each workload builds its fixtures once, then holds a fixed ``deck`` of op
inputs drawn from the workload seed.  A run cycles through the deck, so for
the default seed every op can be checked against recorded reference values.
``clear_outputs()`` runs before each op and ``run(entry)`` is the timed op.
``check(index, entry, result)`` runs after it, outside the timing, raises
``CheckFailed`` on a wrong output and returns what it recorded.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import msbench
from msbench import cli
from msbench.circuits import BUILTIN_CIRCUITS
from msbench.simulator import BITSTRINGS
from msbench.tomography import exact_process_fidelity

ROOT = Path(__file__).resolve().parent.parent
CALIB_A = ROOT / "data" / "example_calibration.json"
CALIB_B = ROOT / "data" / "example_calibration_b.json"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

SHOTS = 4000
# Fixed, not fitted: a change to the fit algorithm cannot move qpt_campaign.
P_DEP = 0.0165
EXACT_FIDELITY = 0.9247  # exact-probability fidelity of MS at P_DEP
SAMPLED_BAND = 0.02  # criteria 04/05: sampled fidelity within this of EXACT_FIDELITY
DECOMPOSITION_TOL = 1e-9  # the CLI's own decomposition tolerance
FIT_TOL = 1e-3  # fit_depolarizing's default tol, which `fit-noise` uses
# project_cptp stops once successive iterates differ by less than 1e-9 in
# Frobenius norm; on these inputs the steps shrink by a factor of about 0.56
# per iteration.  Two implementations that both meet that criterion can stop
# on iterates up to 2 * 1e-9 / (1 - r) apart, which is 4.5e-9 at r = 0.56 and
# 1e-8 at r = 0.8.  For a trace-one Choi matrix, process fidelity against a
# unitary moves by at most that Frobenius distance, so 1e-8 is the largest
# fidelity change an equivalent reconstruction can cause.
FIDELITY_TOL = 1e-8
# Inside every (circuit, calibration) pair's achievable range: p_dep = 1 gives
# F = 1/16 and p_dep = 0 gives F >= 0.938 on both example calibrations.
TARGET_RANGE = (0.10, 0.92)
FIT_PAIRS = (("ms", CALIB_A), ("ms", CALIB_B), ("cx", CALIB_A), ("cx", CALIB_B))
# A fit costs 7 to 11 fidelity evaluations depending on its target, so
# noise_fit needs more distinct targets than the other workloads need inputs
# for its mean cost to be nearly the same for every seed.
TARGETS_PER_PAIR = 4
DECK = 4


class CheckFailed(Exception):
    """An op returned a wrong output."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def counts_digest(records: dict) -> str:
    """SHA-256 of a counts grid given as {"prep|setting": [n00, n01, n10, n11]}."""
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _dataset_digest(ds) -> str:
    return counts_digest({f"{p}|{s}": [rec.counts[b] for b in BITSTRINGS]
                          for (p, s), rec in ds.records.items()})


def _json_counts_digest(path: Path) -> str:
    records = json.loads(path.read_text())["records"]
    return counts_digest({key: [rec["counts"][b] for b in BITSTRINGS]
                          for key, rec in records.items()})


def _state_digest(path: Path) -> str:
    return counts_digest({"ZZ": [json.loads(path.read_text())["counts"][b] for b in BITSTRINGS]})


def _run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _check_fidelity(f: float, expected: float, what: str) -> None:
    _require(abs(f - expected) <= FIDELITY_TOL,
             f"{what}: fidelity {f!r} differs from reference {expected!r} by more than "
             f"{FIDELITY_TOL}")


class Workload:
    name = ""

    def __init__(self, seed: int, reference: dict | None):
        """``reference`` is this workload's entry of reference.json, or None
        while that file is being written.  Its outputs apply to its own seed."""
        self.reference = reference
        self.outputs = None  # reference outputs, one per deck entry
        if reference is not None and seed == reference["seed"]:
            _require(reference["deck"] == self.deck,
                     f"{self.name}: inputs drawn from seed {seed} differ from the reference")
            self.outputs = reference["outputs"]

    @property
    def warmup(self):
        """The input of the set-up's warm-up op."""
        return self.deck[0]

    def bytes_written(self) -> int:
        return 0

    def clear_outputs(self) -> None:
        """Remove the last op's output files, so that a check never reads
        files an earlier op wrote."""


class QptCampaign(Workload):
    """Sampled 16x9 QPT of the noisy MS circuit, reconstruction and fidelity."""

    name = "qpt_campaign"

    def __init__(self, seed: int, workdir: Path, reference: dict | None):
        cal = msbench.DeviceCalibration.load(CALIB_A).with_p_dep(P_DEP)
        self.noise = msbench.build_noise_model(cal)
        self.circuit = msbench.synthesize_ms_circuit()
        self.target = msbench.channel_from_unitary(msbench.ms_unitary().matrix)
        self.deck = [int(k) for k in np.random.default_rng(seed).integers(0, 2**31, DECK)]
        super().__init__(seed, reference)

    def run(self, k: int):
        ds = msbench.run_qpt(self.circuit, noise=self.noise, shots=SHOTS, seed=k)
        channel = msbench.reconstruct_channel(ds)
        return ds, msbench.process_fidelity(channel, self.target)

    def check(self, index: int, k: int, result) -> dict:
        ds, f = result
        record = {"seed": k, "counts_sha256": _dataset_digest(ds), "fidelity": f}
        _require(abs(f - EXACT_FIDELITY) <= SAMPLED_BAND,
                 f"sampled fidelity {f:.6f} outside {EXACT_FIDELITY} +- {SAMPLED_BAND}")
        if self.outputs is not None:
            ref = self.outputs[index]
            _require(record["counts_sha256"] == ref["counts_sha256"],
                     f"QPT counts for seed {k} differ from the reference")
            _check_fidelity(f, ref["fidelity"], f"QPT seed {k}")
        return record


class NoiseFit(Workload):
    """`msbench fit-noise` through cli.main for both circuits and calibrations."""

    name = "noise_fit"

    def __init__(self, seed: int, workdir: Path, reference: dict | None):
        self.out = workdir / "fit" / "fitted.json"
        rng = np.random.default_rng(seed)
        lo, hi = TARGET_RANGE
        width = (hi - lo) / TARGETS_PER_PAIR
        # Per pair, one target in each equal slice of the range, in random
        # order; pairs interleaved so that every stretch of the deck mixes
        # both circuits and both calibrations.
        targets = [[lo + (j + rng.random()) * width for j in rng.permutation(TARGETS_PER_PAIR)]
                   for _ in FIT_PAIRS]
        self.deck = [[circuit, calib.name, round(float(targets[p][j]), 6)]
                     for j in range(TARGETS_PER_PAIR)
                     for p, (circuit, calib) in enumerate(FIT_PAIRS)]
        super().__init__(seed, reference)

    @property
    def warmup(self):
        # The README's fit: its cost does not depend on the seed, as deck
        # entries' costs do (7 to 11 fidelity evaluations each).
        return ["ms", CALIB_A.name, EXACT_FIDELITY]

    def run(self, entry) -> int:
        circuit, calib, target = entry
        return _run_cli(["fit-noise", "--target-fidelity", repr(target), "--circuit", circuit,
                         "--calib", str(ROOT / "data" / calib), "--out", str(self.out)])

    def check(self, index: int, entry, code: int) -> dict:
        circuit, _, target = entry
        _require(code == 0, f"fit-noise {entry} exited with {code}")
        fitted = msbench.DeviceCalibration.load(self.out)
        achieved = exact_process_fidelity(BUILTIN_CIRCUITS[circuit](),
                                          msbench.build_noise_model(fitted))
        _require(abs(achieved - target) <= FIT_TOL,
                 f"fit {entry}: achieved F {achieved:.6f} not within {FIT_TOL} of the target")
        # p_dep is recorded, not compared: a better fit algorithm may move it.
        return {"target": target, "p_dep": fitted.p_dep, "achieved": achieved}

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.out.parent.iterdir())

    def clear_outputs(self) -> None:
        if self.out.parent.exists():
            shutil.rmtree(self.out.parent)


class CliQuickstart(Workload):
    """One pass of the README quick start through cli.main."""

    name = "cli_quickstart"

    def __init__(self, seed: int, workdir: Path, reference: dict | None):
        self.out = workdir / "quickstart"
        self.out.mkdir(parents=True)
        self.calib = workdir / "calib_fixed_p_dep.json"
        self.calib.write_text(msbench.DeviceCalibration.load(CALIB_A).with_p_dep(P_DEP).to_json())
        # Seeds of: state (13000 shots), sampled noisy qpt, noisy state.
        self.deck = [[int(s) for s in row] for row in
                     np.random.default_rng(seed).integers(0, 2**31, (DECK, 3))]
        super().__init__(seed, reference)

    def run(self, entry) -> list[int]:
        state_seed, qpt_seed, noisy_seed = (str(s) for s in entry)
        out, calib = self.out, str(self.calib)
        commands = [
            ["decompose", "--target", "ms", "--out", f"{out}/ms_circuit.json"],
            ["state", "--circuit", "ms", "--input", "00", "--shots", "13000",
             "--seed", state_seed, "--out", f"{out}/state.json"],
            ["qpt", "--circuit", "ms", "--exact", "--out", f"{out}/qpt_ideal.json"],
            ["qpt", "--circuit", "ms", "--shots", str(SHOTS), "--seed", qpt_seed,
             "--noise", calib, "--out", f"{out}/qpt_noisy.json"],
            ["state", "--circuit", "ms", "--noise", calib, "--seed", noisy_seed,
             "--out", f"{out}/state_noisy.json"],
            ["stability", "--calib-a", str(CALIB_A), "--calib-b", str(CALIB_B),
             "--out", f"{out}/stability.json"],
        ]
        return [_run_cli(argv) for argv in commands]

    def check(self, index: int, entry, codes: list[int]) -> dict:
        out = self.out
        _require(codes == [0] * len(codes), f"quick start exit codes {codes}")
        distance = json.loads((out / "ms_circuit.json").read_text())["phase_aligned_distance"]
        _require(distance <= DECOMPOSITION_TOL, f"decomposition distance {distance:.3e}")
        ideal = json.loads((out / "qpt_ideal.report.json").read_text())["process_fidelity"]
        _require(ideal >= 1.0 - FIDELITY_TOL, f"noiseless exact QPT fidelity {ideal!r}")
        noisy = json.loads((out / "qpt_noisy.report.json").read_text())["process_fidelity"]
        _require(abs(noisy - EXACT_FIDELITY) <= SAMPLED_BAND,
                 f"sampled fidelity {noisy:.6f} outside {EXACT_FIDELITY} +- {SAMPLED_BAND}")
        stability = json.loads((out / "stability.json").read_text())
        record = {
            "state_sha256": _state_digest(out / "state.json"),
            "qpt_noisy_sha256": _json_counts_digest(out / "qpt_noisy.json"),
            "qpt_noisy_fidelity": noisy,
            "state_noisy_sha256": _state_digest(out / "state_noisy.json"),
            "stability": stability,
        }
        if self.reference is not None:
            _require(_close(stability, self.reference["stability"]),
                     "stability figures differ from the reference")
        if self.outputs is not None:
            ref = self.outputs[index]
            for key in ("state_sha256", "qpt_noisy_sha256", "state_noisy_sha256"):
                _require(record[key] == ref[key], f"{key} differs from the reference")
            _check_fidelity(noisy, ref["qpt_noisy_fidelity"], "quick-start QPT")
        return record

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.out.iterdir())

    def clear_outputs(self) -> None:
        shutil.rmtree(self.out)
        self.out.mkdir()


def _close(a, b) -> bool:
    """Equal structure, strings and numbers equal up to the last binary digits."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
    return a == b


WORKLOADS = {w.name: w for w in (QptCampaign, NoiseFit, CliQuickstart)}
