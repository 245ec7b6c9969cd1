import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msbench.channels import QuantumChannel, channel_from_unitary, identity_channel, pauli_basis
from msbench.circuits import (
    Circuit,
    circuit_unitary,
    cx_circuit,
    cx_unitary,
    ms_unitary,
    synthesize_ms_circuit,
)
from msbench.linalg import kron
from msbench.noise import DeviceCalibration, QubitCalibration, build_noise_model
from msbench.tomography import (
    PAULI_LABELS,
    PREP_LABELS,
    SETTINGS,
    TomographyDataset,
    _experiment_seeds,
    _prepared_states,
    average_gate_fidelity,
    design_experiments,
    exact_process_fidelity,
    linear_inversion,
    prep_circuit,
    prep_state,
    process_fidelity,
    reconstruct_channel,
    run_qpt,
)
from msbench.simulator import (
    BITSTRINGS,
    CountsRecord,
    apply_gates,
    basis_state,
    evolve,
    expectation,
    outcome_distribution,
)

from conftest import circuits, count_numpy_random, random_cptp_kraus


DATA_DIR = Path(__file__).resolve().parent.parent / "data"
EXAMPLE_CALIBRATION = DATA_DIR / "example_calibration.json"


def example_noise():
    return build_noise_model(DeviceCalibration.load(EXAMPLE_CALIBRATION).with_p_dep(0.0165))


def dep_noise(p):
    qubits = (QubitCalibration(0, 100.0, 80.0, 0.0), QubitCalibration(1, 100.0, 80.0, 0.0))
    return build_noise_model(
        DeviceCalibration(qubits, {"rz": 0, "sx": 0, "cnot": 0, "x": 0}, p)
    )


def test_design_has_144_experiments():
    descriptors = design_experiments(synthesize_ms_circuit())
    assert len(descriptors) == 144
    assert len({(p, s) for p, s, _ in descriptors}) == 144
    assert len(PREP_LABELS) == 16 and len(SETTINGS) == 9


def test_zero_zero_prep_is_empty():
    assert len(prep_circuit("0:0")) == 0


def test_prep_circuits_prepare_labeled_states():
    for label in PREP_LABELS:
        rho = evolve(prep_circuit(label), basis_state("00"))
        assert np.linalg.norm(rho - prep_state(label)) <= 1e-12, label


def test_plusi_zero_prep():
    rho = evolve(prep_circuit("+i:0"), basis_state("00"))
    ket = kron(np.array([[1], [1j]]) / np.sqrt(2), np.array([[1], [0]])).reshape(-1)
    assert np.linalg.norm(rho - np.outer(ket, ket.conj())) <= 1e-12


def test_exact_qpt_of_ms_is_faithful():
    ds = run_qpt(synthesize_ms_circuit(), shots=None)
    ch = reconstruct_channel(ds)
    f = process_fidelity(ch, channel_from_unitary(ms_unitary().matrix))
    assert abs(f - 1.0) <= 1e-9


def test_exact_qpt_of_identity_circuit():
    ds = run_qpt(Circuit(), shots=None)
    ch = reconstruct_channel(ds)
    assert np.linalg.norm(ch.choi_matrix() - identity_channel(4).choi_matrix()) <= 1e-8


def test_exact_qpt_with_depolarizing_closed_form():
    ds = run_qpt(synthesize_ms_circuit(), noise=dep_noise(0.1), shots=None)
    ch = reconstruct_channel(ds)
    f = process_fidelity(ch, channel_from_unitary(ms_unitary().matrix))
    assert f == pytest.approx(1 - 0.1 * 15 / 16, abs=1e-4)


def test_qpt_recovers_random_channels(rng):
    for _ in range(5):
        ch = random_cptp_kraus(rng, n_kraus=int(rng.integers(1, 5)))
        ds = run_qpt(ch, shots=None)
        recovered = reconstruct_channel(ds)
        assert np.linalg.norm(recovered.choi_matrix() - ch.choi_matrix()) <= 1e-6


def test_sampled_qpt_seed_determinism():
    circuit = synthesize_ms_circuit()
    a = run_qpt(circuit, shots=500, seed=11)
    b = run_qpt(circuit, shots=500, seed=11)
    assert a.records == b.records
    c = run_qpt(circuit, shots=500, seed=12)
    assert any(a.records[k] != c.records[k] for k in a.records)


def test_sampled_qpt_single_seed_band():
    ds = run_qpt(synthesize_ms_circuit(), shots=4000, seed=0)
    f = process_fidelity(reconstruct_channel(ds), channel_from_unitary(ms_unitary().matrix))
    assert 0.93 <= f <= 1.0


def test_sampled_fidelity_converges_with_shots():
    circuit = synthesize_ms_circuit()
    target = channel_from_unitary(ms_unitary().matrix)
    gap = {}
    for shots in (4_000, 400_000):
        ds = run_qpt(circuit, shots=shots, seed=3)
        gap[shots] = abs(1.0 - process_fidelity(reconstruct_channel(ds), target))
    assert gap[400_000] < gap[4_000]


def test_dataset_json_roundtrip_and_standalone_reconstruction():
    ds = run_qpt(synthesize_ms_circuit(), shots=800, seed=21)
    text = ds.to_json()
    again = TomographyDataset.from_json(text)
    assert again.records == ds.records
    assert again.to_json() == text
    f1 = process_fidelity(reconstruct_channel(ds), channel_from_unitary(ms_unitary().matrix))
    f2 = process_fidelity(reconstruct_channel(again), channel_from_unitary(ms_unitary().matrix))
    assert f1 == f2


@st.composite
def datasets(draw):
    # The 144 cells come from a drawn seed: drawing each cell makes too large an example.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shots = draw(st.none() | st.integers(1, 10**6))
    records = {}
    for label, setting in itertools.product(PREP_LABELS, SETTINGS):
        dist = rng.dirichlet(np.ones(4))
        if shots is None:
            records[(label, setting)] = CountsRecord(setting, None, None, tuple(dist))
        else:
            counts = rng.multinomial(shots, dist)
            records[(label, setting)] = CountsRecord(setting, shots, dict(zip(BITSTRINGS, counts)))
    seed = None if shots is None else draw(st.integers(0, 2**63 - 1))
    circuit = draw(st.none() | circuits)
    return TomographyDataset(records, shots, seed, draw(st.text()),
                             None if circuit is None else circuit.to_json())


@settings(max_examples=20, deadline=None)
@given(ds=datasets())
def test_dataset_json_roundtrip_property(ds):
    text = ds.to_json()
    again = TomographyDataset.from_json(text)
    assert again.records == ds.records
    assert again.to_json() == text


def test_dataset_completeness_enforced():
    ds = run_qpt(Circuit(), shots=10, seed=0)
    broken = dict(ds.records)
    broken.pop(("0:0", "XX"))
    with pytest.raises(ValueError):
        TomographyDataset(broken, 10, 0, "noiseless", Circuit().to_json())


def test_dataset_uniform_shots_enforced():
    ds = run_qpt(Circuit(), shots=10, seed=0)
    with pytest.raises(ValueError):
        TomographyDataset(ds.records, 20, 0, "noiseless", Circuit().to_json())


def test_process_fidelity_self_is_one(rng):
    ch = random_cptp_kraus(rng, n_kraus=3)
    assert process_fidelity(ch, ch) == pytest.approx(1.0, abs=1e-9)
    ms = channel_from_unitary(ms_unitary().matrix)
    assert process_fidelity(ms, ms) == pytest.approx(1.0, abs=1e-12)


def test_process_fidelity_identity_vs_depolarizing():
    full_dep = QuantumChannel.from_kraus([p / 4 for p in pauli_basis(2)])
    f = process_fidelity(identity_channel(4), full_dep)
    assert f == pytest.approx(1 / 16, abs=1e-12)


def test_process_fidelity_cx_vs_ms_brute_force():
    u, v = cx_unitary().matrix, ms_unitary().matrix
    oracle = abs(np.trace(u.conj().T @ v) / 4) ** 2
    f = process_fidelity(channel_from_unitary(u), channel_from_unitary(v))
    assert f == pytest.approx(oracle, abs=1e-12)
    assert f == pytest.approx(0.125, abs=1e-12)


def test_process_fidelity_symmetric(rng):
    a = random_cptp_kraus(rng, n_kraus=2)
    b = random_cptp_kraus(rng, n_kraus=4)
    assert process_fidelity(a, b) == pytest.approx(process_fidelity(b, a), abs=1e-9)


def test_process_fidelity_ignores_global_phase(rng):
    u = ms_unitary().matrix
    a = channel_from_unitary(u)
    for _ in range(3):
        b = channel_from_unitary(np.exp(1j * rng.uniform(0, 2 * np.pi)) * u)
        assert process_fidelity(a, b) == pytest.approx(1.0, abs=1e-12)


def test_average_gate_fidelity_values():
    assert average_gate_fidelity(1.0) == 1.0
    assert average_gate_fidelity(0.9247) == pytest.approx(0.93976, abs=1e-12)
    assert average_gate_fidelity(1 / 16) == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ValueError):
        average_gate_fidelity(1.2)


def test_exact_process_fidelity_helper_noiseless():
    assert exact_process_fidelity(synthesize_ms_circuit()) == pytest.approx(1.0, abs=1e-9)


def test_run_qpt_rejects_noise_on_raw_channels(rng):
    ch = random_cptp_kraus(rng)
    with pytest.raises(ValueError):
        run_qpt(ch, noise=dep_noise(0.1), shots=None)


@pytest.mark.parametrize("circuit", [synthesize_ms_circuit(), cx_circuit()], ids=["ms", "cx"])
def test_batched_qpt_probabilities_equal_the_per_state_path(circuit):
    # Sampled counts sit on p = 0.5 ties, so a 1-ulp change can swap them.
    noise = example_noise()
    ds = run_qpt(circuit, noise=noise, shots=None)
    for label in PREP_LABELS:
        rho = evolve(prep_circuit(label).concat(circuit), basis_state("00"), noise)
        for setting in SETTINGS:
            expected = outcome_distribution(rho, setting, noise.confusion)
            assert ds.records[(label, setting)].probs == tuple(expected), (label, setting)


def test_sampled_qpt_counts_are_pinned():
    ds = run_qpt(synthesize_ms_circuit(), noise=example_noise(), shots=4000, seed=1)
    grid = {f"{p}|{s}": [rec.counts[b] for b in BITSTRINGS] for (p, s), rec in ds.records.items()}
    text = json.dumps(grid, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7465a389586044392a009ce98b8f1d3705ceb62b3a6c7b2ad39e8f6b157ea1ba")


def test_raw_channel_qpt_probabilities_are_pinned():
    """Recorded when each input went through ``apply`` on its own."""
    ch = random_cptp_kraus(np.random.default_rng(5), n_kraus=3)
    ds = run_qpt(ch, shots=None)
    grid = {f"{p}|{s}": list(rec.probs) for (p, s), rec in ds.records.items()}
    text = json.dumps(grid, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "56a2a97420e8009135c86249e39607778dcba86fb1d0d8e12192c69eed68071a")


@pytest.fixture(scope="module")
def design_matrix():
    """The 256x256 map from vec(J) to the 16 x 16 model expectations
    d * Tr(J (P_k (x) rho_j^T)), rows ordered (prep, Pauli)."""
    rows = []
    for label in PREP_LABELS:
        rho_t = prep_state(label).T
        for pk in pauli_basis(2):
            rows.append(4.0 * np.kron(pk, rho_t).T.reshape(-1))
    return np.array(rows)


def lstsq_choi(ds, design):
    """Least-squares Choi estimate from per-record expectations, identity
    terms averaged over the compatible settings."""
    measured = []
    for label in PREP_LABELS:
        for obs in PAULI_LABELS:
            compat = [s for s in SETTINGS if all(f in ("I", c) for f, c in zip(obs, s))]
            measured.append(np.mean([expectation(ds.records[(label, s)], obs) for s in compat]))
    x, *_ = np.linalg.lstsq(design, np.array(measured, dtype=complex), rcond=None)
    j = x.reshape(16, 16)
    return 0.5 * (j + j.conj().T)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_kraus=st.integers(1, 4))
def test_dual_frame_matches_least_squares_on_random_channels(design_matrix, seed, n_kraus):
    ch = random_cptp_kraus(np.random.default_rng(seed), n_kraus=n_kraus)
    ds = run_qpt(ch, shots=None)
    assert np.abs(linear_inversion(ds) - lstsq_choi(ds, design_matrix)).max() <= 1e-12


def test_dual_frame_matches_least_squares_on_sampled_data(design_matrix):
    ds = run_qpt(synthesize_ms_circuit(), noise=example_noise(), shots=4000, seed=7)
    assert np.abs(linear_inversion(ds) - lstsq_choi(ds, design_matrix)).max() <= 1e-12


@pytest.mark.parametrize("p_dep", [0.0, 0.0165, 0.3])
@pytest.mark.parametrize("calibration", ["example_calibration.json", "example_calibration_b.json"])
@pytest.mark.parametrize("circuit", [synthesize_ms_circuit(), cx_circuit()], ids=["ms", "cx"])
def test_prep_tree_equals_the_per_label_prefixes(circuit, calibration, p_dep):
    noise = build_noise_model(DeviceCalibration.load(DATA_DIR / calibration).with_p_dep(p_dep))
    per_label = np.array([apply_gates(prep_circuit(label), basis_state("00"), noise)
                          for label in PREP_LABELS])
    tree = _prepared_states(noise)
    assert tree.shape == (16, 4, 4) and np.array_equal(tree, per_label)
    # What run_qpt records is the per-label path's exact probabilities.
    expected = outcome_distribution(evolve(circuit, per_label, noise), SETTINGS, noise.confusion)
    ds = run_qpt(circuit, noise=noise, shots=None)
    for (p, label), (s, setting) in itertools.product(enumerate(PREP_LABELS), enumerate(SETTINGS)):
        assert ds.records[(label, setting)].probs == tuple(expected[p, s]), (label, setting)


def test_sampled_qpt_fidelity_is_pinned():
    """Recorded before the prep tree and the stacked sampling; they must not move it."""
    ds = run_qpt(synthesize_ms_circuit(), noise=example_noise(), shots=4000, seed=1)
    f = process_fidelity(reconstruct_channel(ds), channel_from_unitary(ms_unitary().matrix))
    assert abs(f - 0.9221541989274173) <= 1e-12


def _numpy_cell_seeds(master):
    """The documented rule, one SeedSequence per (prep, setting) cell."""
    return [int(np.random.SeedSequence(master, spawn_key=(p, s)).generate_state(1, np.uint64)[0])
            for p in range(len(PREP_LABELS)) for s in range(len(SETTINGS))]


@settings(max_examples=25, deadline=None)
@given(master=st.integers(0, 2**256 - 1))
@example(master=0)
@example(master=2**32 - 1)
@example(master=2**32)
@example(master=2**128)
@example(master=2**128 + 1)
def test_experiment_seeds_follow_the_documented_rule(master):
    assert _experiment_seeds(master).tolist() == _numpy_cell_seeds(master)


def test_sampled_run_qpt_builds_no_seed_sequence(monkeypatch):
    seed_sequences = count_numpy_random(monkeypatch, "SeedSequence")
    generators = count_numpy_random(monkeypatch, "PCG64")
    run_qpt(synthesize_ms_circuit(), shots=100, seed=3)
    assert seed_sequences == []
    assert len(generators) == 1


@pytest.mark.parametrize("seed", [-1, 1.5, None], ids=["negative", "float", "none"])
def test_run_qpt_rejects_seeds_that_are_not_non_negative_integers(seed):
    with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
        run_qpt(synthesize_ms_circuit(), shots=100, seed=seed)
