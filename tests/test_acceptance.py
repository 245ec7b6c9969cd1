"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with plain ``pytest`` (the lines bypass capture) or ``pytest -s``.
Shared expensive artifacts (the fitted noise model) are built once per module.
"""

import json
import time

import numpy as np
import pytest

from msbench.channels import QuantumChannel, channel_from_unitary, project_cptp
from msbench.circuits import cx_circuit, ms_unitary, synthesize_ms_circuit
from msbench.cli import main
from msbench.metrics import scaling_table, stability_analysis, success_probability
from msbench.noise import DeviceCalibration, QubitCalibration, build_noise_model
from msbench.simulator import BITSTRINGS, basis_state, evolve, outcome_distribution, sample_counts
from msbench.tomography import (
    exact_process_fidelity,
    process_fidelity,
    reconstruct_channel,
    run_qpt,
)

from conftest import DATA_DIR, partial_trace, random_cptp_kraus, random_density_matrix

BASE_CALIBRATION = DATA_DIR / "example_calibration.json"

MS_TARGET_FIDELITY = 0.9247


@pytest.fixture(scope="module")
def check(request):
    """Emit one uncaptured PASS/FAIL line per criterion."""
    capmanager = request.config.pluginmanager.getplugin("capturemanager")

    def emit(number, name, ok, detail, elapsed=None):
        stamp = f", {elapsed:.2f}s" if elapsed is not None else ""
        line = f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail}{stamp})"
        with capmanager.global_and_fixture_disabled():
            print(line, flush=True)
        return ok

    return emit


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """CLI-fitted calibration hitting the hardware MS fidelity, plus its model."""
    out = tmp_path_factory.mktemp("fit") / "fitted_calibration.json"
    code = main([
        "fit-noise", "--target-fidelity", str(MS_TARGET_FIDELITY),
        "--circuit", "ms", "--calib", str(BASE_CALIBRATION), "--out", str(out),
    ])
    assert code == 0
    cal = DeviceCalibration.load(out)
    return out, cal, build_noise_model(cal)


def test_criterion_01_decomposition(check, tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "ms.json"
    code = main(["decompose", "--target", "ms", "--out", str(out)])
    payload = json.loads(out.read_text())
    elapsed = time.perf_counter() - t0
    ok = (
        code == 0
        and payload["cnot_count"] == 1
        and payload["phase_aligned_distance"] <= 1e-9
        and elapsed < 1.0
    )
    assert check(1, "single-CNOT decomposition", ok,
                 f"cnot_count={payload['cnot_count']}, "
                 f"distance={payload['phase_aligned_distance']:.2e}", elapsed)


def test_criterion_02_bell_state_logic(check):
    t0 = time.perf_counter()
    rho = evolve(synthesize_ms_circuit(), basis_state("00"))
    bell = np.array([1, 0, 0, 1j]) / np.sqrt(2)
    state_fidelity = float(np.real(bell.conj() @ rho @ bell))
    populations = outcome_distribution(rho, "ZZ")
    elapsed = time.perf_counter() - t0
    ok = (
        abs(state_fidelity - 1.0) <= 1e-10
        and np.allclose(populations, [0.5, 0, 0, 0.5], atol=1e-10)
        and elapsed < 1.0
    )
    assert check(2, "Bell-state logic", ok,
                 f"state F={state_fidelity:.12f}, ZZ={np.round(populations, 6)}", elapsed)


def test_criterion_03_noiseless_exact_qpt(check):
    t0 = time.perf_counter()
    ds = run_qpt(synthesize_ms_circuit(), shots=None)
    f = process_fidelity(reconstruct_channel(ds), channel_from_unitary(ms_unitary().matrix))
    elapsed = time.perf_counter() - t0
    ok = abs(f - 1.0) <= 1e-6 and elapsed < 10.0
    assert check(3, "noiseless exact-probability QPT", ok, f"F={f:.9f}", elapsed)


def test_criterion_04_finite_shot_band(check):
    t0 = time.perf_counter()
    target = channel_from_unitary(ms_unitary().matrix)
    circuit = synthesize_ms_circuit()
    fidelities = []
    for seed in range(20):
        ds = run_qpt(circuit, shots=4000, seed=seed)
        fidelities.append(process_fidelity(reconstruct_channel(ds), target))
    fidelities = np.array(fidelities)
    elapsed = time.perf_counter() - t0
    ok = fidelities.mean() >= 0.95 and fidelities.min() >= 0.93 and elapsed < 120.0
    assert check(4, "finite-shot QPT band (20 seeds x 4000 shots)", ok,
                 f"mean={fidelities.mean():.4f}, min={fidelities.min():.4f}", elapsed)


def test_criterion_05_hardware_figure_via_fit(check, fitted, tmp_path):
    t0 = time.perf_counter()
    fitted_path, cal, noise = fitted
    f_exact = exact_process_fidelity(synthesize_ms_circuit(), noise)

    out = tmp_path / "qpt_shots.json"
    code = main(["qpt", "--circuit", "ms", "--shots", "4000", "--noise",
                 str(fitted_path), "--out", str(out)])
    f_shots = json.loads((tmp_path / "qpt_shots.report.json").read_text())["process_fidelity"]
    elapsed = time.perf_counter() - t0
    ok = (
        code == 0
        and abs(f_exact - MS_TARGET_FIDELITY) <= 1e-3
        and abs(f_shots - MS_TARGET_FIDELITY) <= 0.02
        and elapsed < 60.0
    )
    assert check(5, "hardware figure via fitted noise", ok,
                 f"p_dep={cal.p_dep:.5f}, F_exact={f_exact:.5f}, F_4000={f_shots:.5f}",
                 elapsed)


def test_criterion_06_cx_near_parity(check, fitted):
    t0 = time.perf_counter()
    _, _, noise = fitted
    f_ms = exact_process_fidelity(synthesize_ms_circuit(), noise)
    f_cx = exact_process_fidelity(cx_circuit(), noise)
    elapsed = time.perf_counter() - t0
    ok = abs(f_cx - f_ms) <= 0.02 and elapsed < 60.0
    assert check(6, "CX near-parity under identical noise", ok,
                 f"F_ms={f_ms:.5f}, F_cx={f_cx:.5f}, |diff|={abs(f_cx - f_ms):.5f}", elapsed)


def test_criterion_07_success_probability(check, fitted):
    t0 = time.perf_counter()
    _, _, noise = fitted
    rho = evolve(synthesize_ms_circuit(), basis_state("00"), noise)
    dist = outcome_distribution(rho, "ZZ", noise.confusion)
    counts = dict(zip(BITSTRINGS, sample_counts(dist, 13_000, seed=42).tolist()))
    p_succ = success_probability(list(counts.values()))
    leakage = (counts["01"] + counts["10"]) / 13_000
    elapsed = time.perf_counter() - t0
    ok = (
        abs(p_succ - 0.942) <= 0.02
        and counts["01"] > 0
        and counts["10"] > 0
        and abs(p_succ + leakage - 1.0) <= 1e-12
        and elapsed < 10.0
    )
    assert check(7, "success probability at 13000 shots", ok,
                 f"P_succ={p_succ:.4f}, leakage 01/10={counts['01']}/"
                 f"{counts['10']}", elapsed)


def test_criterion_08_channel_oracle_suite(check):
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    worst_roundtrip = 0.0
    worst_apply = 0.0
    worst_idempotence = 0.0
    worst_eig = 0.0
    worst_tp = 0.0
    for _ in range(100):
        ch = random_cptp_kraus(rng, n_kraus=int(rng.integers(1, 6)))
        j = ch.choi_matrix()
        back = QuantumChannel.from_choi(j).convert("chi").convert("kraus").choi_matrix()
        worst_roundtrip = max(worst_roundtrip, float(np.linalg.norm(back - j)))

        rho = random_density_matrix(rng)
        via = [ch.convert(rep).apply(rho) for rep in ("kraus", "choi", "chi")]
        worst_apply = max(
            worst_apply,
            float(np.linalg.norm(via[0] - via[1])),
            float(np.linalg.norm(via[0] - via[2])),
        )

        g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        h = 0.5 * (g + g.conj().T)
        raw = j + 0.02 * h / np.linalg.norm(h)
        once = project_cptp(raw).choi_matrix()
        twice = project_cptp(once).choi_matrix()
        worst_idempotence = max(worst_idempotence, float(np.linalg.norm(twice - once)))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(once).min()))
        worst_tp = max(
            worst_tp,
            float(np.linalg.norm(4 * partial_trace(once, [1], [4, 4]) - np.eye(4))),
        )
    elapsed = time.perf_counter() - t0
    ok = (
        worst_roundtrip <= 1e-9
        and worst_apply <= 1e-9
        and worst_idempotence <= 1e-8
        and worst_eig >= -1e-9
        and worst_tp <= 1e-6
        and elapsed < 30.0
    )
    assert check(8, "channel oracle suite (100 random CPTP)", ok,
                 f"roundtrip={worst_roundtrip:.1e}, apply={worst_apply:.1e}, "
                 f"idem={worst_idempotence:.1e}, min_eig={worst_eig:.1e}, "
                 f"tp={worst_tp:.1e}", elapsed)


def test_criterion_09_end_to_end_identity(check):
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(10):
        ch = random_cptp_kraus(rng, n_kraus=int(rng.integers(1, 5)))
        recovered = reconstruct_channel(run_qpt(ch, shots=None))
        worst = max(worst, float(np.linalg.norm(recovered.choi_matrix() - ch.choi_matrix())))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    assert check(9, "end-to-end tomography identity (10 channels)", ok,
                 f"worst Choi distance={worst:.2e}", elapsed)


def test_criterion_10_depolarizing_closed_form(check):
    t0 = time.perf_counter()
    qubits = (QubitCalibration(0, 100.0, 80.0, 0.0), QubitCalibration(1, 100.0, 80.0, 0.0))
    worst = 0.0
    for p in (0.01, 0.05, 0.1):
        cal = DeviceCalibration(qubits, {"rz": 0, "sx": 0, "cnot": 0, "x": 0}, p)
        f = exact_process_fidelity(synthesize_ms_circuit(), build_noise_model(cal))
        worst = max(worst, abs(f - (1 - 15 * p / 16)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    assert check(10, "depolarizing closed form", ok, f"worst |F - (1-15p/16)|={worst:.2e}",
                 elapsed)


def test_criterion_11_scaling_table(check):
    t0 = time.perf_counter()
    table = scaling_table(0.058, 12)
    values = [v for _, v in table]
    elapsed = time.perf_counter() - t0
    ok = (
        table[0] == (1, 1.0 - 0.058)
        and abs(table[0][1] - 0.942) <= 1e-15
        and all(a > b for a, b in zip(values, values[1:]))
    )
    assert check(11, "scaling table", ok,
                 f"(1-eps)^1={table[0][1]:.6f}, (1-eps)^12={table[-1][1]:.6f}", elapsed)


def test_criterion_12_stability_analytics(check):
    t0 = time.perf_counter()
    snap_a = DeviceCalibration((
        QubitCalibration(0, 100.0, 80.0, 0.02),
        QubitCalibration(1, 140.0, 95.0, 0.035),
        QubitCalibration(2, 75.0, 60.0, 0.01),
    ))
    identical = stability_analysis(snap_a, snap_a)
    zero_var = all(
        v == 0.0 for per_q in identical.variation_percent.values() for v in per_q.values()
    )
    snap_b = DeviceCalibration((
        QubitCalibration(0, 150.0, 80.0, 0.02),   # T1 100 -> 150: 40% of the mean
        QubitCalibration(1, 140.0, 95.0, 0.07),   # readout 0.035 -> 0.07: 200/3 %
        QubitCalibration(2, 75.0, 60.0, 0.01),
    ))
    perturbed = stability_analysis(snap_a, snap_b)
    elapsed = time.perf_counter() - t0
    ok = (
        identical.quality_correlation == 1.0
        and zero_var
        and abs(perturbed.variation_percent["t1_us"][0] - 40.0) <= 1e-9
        and abs(perturbed.variation_percent["readout_error"][1] - 200.0 / 3.0) <= 1e-9
    )
    assert check(12, "stability analytics", ok,
                 f"r_identical={identical.quality_correlation}, "
                 f"t1 var={perturbed.variation_percent['t1_us'][0]:.6f}%", elapsed)
