import functools
import gc
import hashlib
import itertools
import json
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msbench import channels, simulator, tomography
from msbench.channels import (
    QuantumChannel,
    channel_from_unitary,
    identity_channel,
    pauli_basis,
    project_cptp,
)
from msbench.circuits import (
    Circuit,
    Gate,
    cx_circuit,
    cx_unitary,
    ms_unitary,
    synthesize_ms_circuit,
)
from msbench.linalg import I2, PAULIS_1Q, kron
from msbench.noise import DeviceCalibration, build_noise_model
from msbench.tomography import (
    PAULI_LABELS,
    PREP_LABELS,
    SETTINGS,
    CountsRecord,
    TomographyDataset,
    _CELLS,
    _COMPATIBLE,
    _experiment_seeds,
    _pauli_table,
    _prepared_states,
    _split,
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
    apply_gates,
    basis_state,
    evolve,
    expectation,
    outcome_distribution,
)

from conftest import (
    DATA_DIR,
    circuits,
    count_numpy_random,
    examples,
    partial_trace,
    random_cptp_kraus,
    random_density_matrix,
    dep_cal,
    random_unitary,
)


EXAMPLE_CALIBRATION = DATA_DIR / "example_calibration.json"


def example_noise():
    return build_noise_model(DeviceCalibration.load(EXAMPLE_CALIBRATION).with_p_dep(0.0165))


def test_design_has_144_experiments():
    assert len(PREP_LABELS) == 16 and len(SETTINGS) == 9
    assert _CELLS == tuple(itertools.product(PREP_LABELS, SETTINGS))  # prep-major rows
    assert len(set(_CELLS)) == 144
    ds = run_qpt(synthesize_ms_circuit(), shots=10, seed=0)
    assert ds.outcomes.shape == (144, 4) and list(ds.records) == list(_CELLS)


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
    ds = run_qpt(synthesize_ms_circuit(), noise=build_noise_model(dep_cal(0.1)), shots=None)
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
    assert np.array_equal(a.outcomes, b.outcomes)
    c = run_qpt(circuit, shots=500, seed=12)
    assert not np.array_equal(a.outcomes, c.outcomes)


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
    assert again.shots == ds.shots and np.array_equal(again.outcomes, ds.outcomes)
    assert again.to_json() == text
    f1 = process_fidelity(reconstruct_channel(ds), channel_from_unitary(ms_unitary().matrix))
    f2 = process_fidelity(reconstruct_channel(again), channel_from_unitary(ms_unitary().matrix))
    assert f1 == f2


@st.composite
def datasets(draw):
    # The 144 cells come from a drawn seed: drawing each cell makes too large an example.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shots = draw(st.none() | st.integers(1, 10**6))
    dists = rng.dirichlet(np.ones(4), size=144)
    outcomes = dists if shots is None else rng.multinomial(shots, dists)
    seed = None if shots is None else draw(st.integers(0, 2**63 - 1))
    circuit = draw(st.none() | circuits)
    return TomographyDataset(outcomes, shots, seed, draw(st.text()),
                             None if circuit is None else circuit.to_json())


@settings(max_examples=examples(20), deadline=None)
@given(ds=datasets())
def test_dataset_json_roundtrip_property(ds):
    text = ds.to_json()
    again = TomographyDataset.from_json(text)
    assert again.shots == ds.shots and np.array_equal(again.outcomes, ds.outcomes)
    assert again.to_json() == text


def _record_dataset_json(ds) -> str:
    """The record-based writer ``to_json`` replaced: the oracle it must match."""
    def record(rec):
        if rec.shots is None:
            return {"setting": rec.setting, "exact": True, "probabilities": list(rec.probs)}
        return {"setting": rec.setting, "shots": rec.shots, "counts": dict(rec.counts)}

    return json.dumps({
        "circuit": json.loads(ds.circuit_json) if ds.circuit_json else None,
        "shots": ds.shots,
        "seed": ds.seed,
        "rng": ds.rng,
        "noise_fingerprint": ds.noise_fingerprint,
        "records": {f"{p}|{s}": record(rec) for (p, s), rec in sorted(ds.records.items())},
    }, indent=2)


# Probabilities that the dataset accepts and that json writes with care: signed
# zeros, subnormals, entries down to -1e-9 and reprs with an exponent.
_EDGE_PROBABILITIES = np.array([-0.0, 0.0, 5e-324, 2.5e-310, -1e-9, -3.0000000000000004e-10,
                                1e-05, 1.2345678901234567e-17, 1e-300])


@st.composite
def edge_datasets(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shots = draw(st.none() | st.integers(1, 10**9))
    dists = rng.dirichlet(np.ones(4), size=144)
    if shots is None:
        edge = rng.random(dists.shape) < 0.3
        dists[edge] = rng.choice(_EDGE_PROBABILITIES, size=edge.sum())
        # The rest of each row's mass goes to its largest entry, a Dirichlet draw.
        dists[np.arange(144), dists.argmax(axis=1)] += 1.0 - dists.sum(axis=1)
    outcomes = dists if shots is None else rng.multinomial(shots, dists)
    seed = None if shots is None else draw(st.integers(0, 2**63 - 1))
    circuit = draw(st.none() | circuits)
    fingerprint = draw(st.text() | st.sampled_from(['q"uote', "back\\slash", "ñø ascii ✓"]))
    return TomographyDataset(outcomes, shots, seed, fingerprint,
                             None if circuit is None else circuit.to_json())


@settings(max_examples=examples(40), deadline=None)
@given(ds=edge_datasets())
def test_dataset_json_matches_the_record_writer_and_round_trips(ds):
    text = ds.to_json()
    assert text == _record_dataset_json(ds)
    again = TomographyDataset.from_json(text)
    assert again.outcomes.dtype == ds.outcomes.dtype
    assert again.outcomes.tobytes() == ds.outcomes.tobytes()  # -0.0 included
    assert (again.shots, again.seed, again.rng, again.noise_fingerprint, again.circuit_json) == (
        ds.shots, ds.seed, ds.rng, ds.noise_fingerprint, ds.circuit_json)


def test_dataset_json_lists_cells_in_tuple_order_not_name_order():
    names = list(json.loads(run_qpt(Circuit(), shots=None).to_json())["records"])
    assert names == [f"{p}|{s}" for p, s in sorted(_CELLS)]
    assert names.index("+:+|XX") < names.index("+:+i|XX")
    assert sorted(names).index("+:+i|XX") < sorted(names).index("+:+|XX")


def test_dataset_completeness_enforced():
    d = json.loads(run_qpt(Circuit(), shots=10, seed=0).to_json())
    del d["records"]["0:0|XX"]
    with pytest.raises(ValueError, match=r"1 grid cells missing, first 0:0\|XX"):
        TomographyDataset.from_json(json.dumps(d))


def _exact_dataset_json() -> dict:
    return json.loads(run_qpt(synthesize_ms_circuit()).to_json())


def _relabel(d):
    d["records"]["0:0|XX"]["setting"] = "ZZ"


def _add_junk_cell(d):
    d["records"]["junk|ZZ"] = d["records"]["0:0|ZZ"]


def _set_probabilities(probs):
    def edit(d):
        d["records"]["0:0|XX"]["probabilities"] = probs
    return edit


def _replace_record(record):
    def edit(d):
        d["records"]["0:0|XX"] = record
    return edit


def _drop_setting(d):
    del d["records"]["0:0|XX"]["setting"]


def _set_counts(counts):
    def edit(d):
        d["shots"] = 10
        for rec in d["records"].values():
            rec.update(shots=10, counts={"00": 10})
            del rec["exact"], rec["probabilities"]
        d["records"]["0:0|XX"]["counts"] = counts
    return edit


def _set_exact(value, counted: bool = False):
    def edit(d):
        if counted:
            _set_counts({"00": 10})(d)
        d["records"]["0:0|XX"]["exact"] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (_relabel, r"cell 0:0\|XX holds a ZZ record"),
    (_add_junk_cell, r"outside the 16x9 grid: junk\|ZZ"),
    (_set_probabilities([float("nan"), 0.5, 0.25, 0.25]),
     r"records\['0:0\|XX'\]: probabilities \[nan, 0.5"),
    (_set_probabilities([0.9, 0.9, 0.9, 0.9]), r"cell 0:0\|XX: distribution sums to 3.6"),
    (_set_probabilities([0.5, 0.5]), r"records\['0:0\|XX'\]: probabilities \[0.5, 0.5\]"),
    (_set_counts({"00": 5, "0l": 5}), r"records\['0:0\|XX'\]: counts: unknown key '0l'"),
    (_set_counts({"00": 5.5, "11": 4.5}), r"records\['0:0\|XX'\]: counts\['00'\] = 5.5 is not"),
    (_replace_record([]), r"^records\['0:0\|XX'\]: expected a JSON object, got list$"),
    (_drop_setting, r"^records\['0:0\|XX'\]: missing key 'setting'$"),
    (_set_exact("no"), r"^records\['0:0\|XX'\]: exact must be true where given, got 'no'$"),
    (_set_exact(0, counted=True), r"^records\['0:0\|XX'\]: exact must be true where given, got 0$"),
    (_set_exact(False, counted=True),
     r"^records\['0:0\|XX'\]: exact must be true where given, got False$"),
], ids=["mislabeled", "extra-cell", "nan", "sum", "length", "unknown-outcome", "fractional-count",
        "record-not-an-object", "record-without-setting", "exact-string", "exact-zero-on-counts",
        "exact-false-on-counts"])
def test_dataset_json_rejects_malformed_cells_naming_them(edit, message):
    d = _exact_dataset_json()
    edit(d)
    with pytest.raises(ValueError, match=message):
        TomographyDataset.from_json(json.dumps(d))


def _set(key, value):
    def edit(d):
        d[key] = value
    return edit


def _drop(key):
    def edit(d):
        del d[key]
    return edit


@pytest.mark.parametrize("edit, message", [
    (_drop("records"), r"^dataset: missing key 'records'$"),
    (_drop("noise_fingerprint"), r"^dataset: missing key 'noise_fingerprint'$"),
    (_set("records", []), r"^dataset: records must be a JSON object, got list$"),
    (_set("extra", 1), r"^dataset: unknown key 'extra'; expected one of circuit, shots, seed"),
    (_set("seed", "x"), r"^dataset: seed must be a non-negative integer, got 'x'$"),
    (_set("seed", -1), r"^dataset: seed must be a non-negative integer, got -1$"),
    (_set("seed", True), r"^dataset: seed must be a non-negative integer, got True$"),
    (_set("shots", 0), r"^dataset: shots must be a positive integer below 2\*\*63, got 0$"),
    (_set("shots", True), r"^dataset: shots must be a positive integer below 2\*\*63, got True$"),
    (_set("shots", 10.0), r"^dataset: shots must be a positive integer below 2\*\*63, got 10.0$"),
    (_set("rng", 5), r"^dataset: rng must be a string, got 5$"),
    (_set("noise_fingerprint", None), r"^dataset: noise_fingerprint must be a string, got None$"),
    (_set("circuit", {"kind": "sx", "qubit": 0}),
     r"^dataset: circuit must be null or a list of gates, got dict$"),
    (_set("circuit", [{"kind": "zz"}]), r"^dataset: circuit: gates\[0\]: "),
], ids=["no-records", "no-fingerprint", "records-list", "unknown-key", "seed-str",
        "seed-negative", "seed-bool", "shots-zero", "shots-bool", "shots-float", "rng-int",
        "fingerprint-null", "circuit-object", "circuit-bad-gate"])
def test_dataset_json_rejects_a_malformed_header_naming_the_field(edit, message):
    d = _exact_dataset_json()
    edit(d)
    with pytest.raises(ValueError, match=message):
        TomographyDataset.from_json(json.dumps(d))


def test_dataset_json_must_be_an_object():
    with pytest.raises(ValueError, match=r"^dataset: expected a JSON object, got list$"):
        TomographyDataset.from_json("[]")


def test_dataset_uniform_shots_enforced():
    ds = run_qpt(Circuit(), shots=10, seed=0)
    with pytest.raises(ValueError, match=r"^cell 0:0\|XX: counts \[.*\] are not non-negative "
                                         r"integers summing to 20"):
        TomographyDataset(ds.outcomes, 20, 0, "noiseless", Circuit().to_json())
    d = json.loads(ds.to_json())
    d["shots"] = 20
    with pytest.raises(ValueError, match=r"^cell 0:0\|XX has shots 10, the dataset 20"):
        TomographyDataset.from_json(json.dumps(d))


@pytest.mark.parametrize("shots, row, value, message", [
    (None, 10, [np.nan, 0.5, 0.25, 0.25], r"cell 0:1\|XY: distribution row 10 has non-finite"),
    (None, 20, [0.5, 0.6, 0.0, -0.1], r"cell 0:\+\|XZ: negative probability -1.000e-01"),
    (None, 143, [0.5, 0.5, 0.5, 0.0], r"cell \+i:\+i\|ZZ: distribution sums to 1.5"),
    (10, 9, [5, 6, 0, -1], r"cell 0:1\|XX: counts \[5, 6, 0, -1\] are not"),
    (10, 0, [5.5, 4.5, 0, 0], r"cell 0:0\|XX: counts \[5.5, 4.5, 0.0, 0.0\] are not"),
    (10, 1, [5, 0, 0, 0], r"cell 0:0\|XY: counts \[5, 0, 0, 0\] are not"),
    # A count no int64 holds fails as its row, with no cast warning first.
    (10, 5, [10, np.nan, 0, 0], r"cell 0:0\|YZ: counts \[10.0, nan, 0.0, 0.0\] are not"),
    (10, 5, [10, 1e30, 0, 0], r"cell 0:0\|YZ: counts \[10.0, 1e\+30, 0.0, 0.0\] are not"),
    (10, 5, [10, -1e30, 0, 0], r"cell 0:0\|YZ: counts \[10.0, -1e\+30, 0.0, 0.0\] are not"),
], ids=["nan", "negative", "sum", "negative-count", "fractional-count", "count-sum",
        "nan-count", "huge-count", "huge-negative-count"])
@pytest.mark.filterwarnings("error")
def test_dataset_rejects_a_bad_row_naming_its_cell(shots, row, value, message):
    ds = run_qpt(Circuit(), shots=shots, seed=0)
    outcomes = ds.outcomes.astype(np.result_type(ds.outcomes, np.array(value)))
    outcomes[row] = value
    with pytest.raises(ValueError, match=f"^{message}"):
        TomographyDataset(outcomes, shots, ds.seed, "noiseless", None)


# shots 7 * 10**18: each row's true sum is shots + 2**64, which an int64 sum
# wraps round to shots; every count is below 2**63, as the reader requires.
_SHOTS_NEAR_2_63 = 7 * 10**18
_THIRD = (_SHOTS_NEAR_2_63 + 2**64) // 3
_QUARTER = (_SHOTS_NEAR_2_63 + 2**64) // 4


@pytest.mark.parametrize("row", [
    [_THIRD, _THIRD, _SHOTS_NEAR_2_63 + 2**64 - 2 * _THIRD, 0],
    [_QUARTER, _QUARTER, _QUARTER, _SHOTS_NEAR_2_63 + 2**64 - 3 * _QUARTER],
], ids=["counts-above-shots", "counts-below-shots"])
def test_dataset_row_sums_do_not_wrap(row):
    shots = _SHOTS_NEAR_2_63
    outcomes = [[shots, 0, 0, 0]] * 143 + [row]
    message = rf"^cell \+i:\+i\|ZZ: counts \[{row[0]}, .*\] are not non-negative integers"
    with pytest.raises(ValueError, match=message):
        TomographyDataset(outcomes, shots, 3, "noiseless", None)
    d = json.loads(run_qpt(Circuit(), shots=10, seed=3).to_json())
    d["shots"] = shots
    for name, cell in d["records"].items():
        counts = row if name == "+i:+i|ZZ" else (shots, 0, 0, 0)
        cell.update(shots=shots, counts=dict(zip(BITSTRINGS, counts)))
    with pytest.raises(ValueError, match=message):
        TomographyDataset.from_json(json.dumps(d))


@pytest.mark.parametrize("outcomes, shots, message", [
    (np.full((143, 4), 0.25), None, r"outcomes must have shape \(144, 4\), got \(143, 4\)"),
    (np.full((144, 4), 0.25), None, None),
    (np.zeros((144, 4)), 0, "positive shot number"),
], ids=["shape", "ok", "zero-shots"])
def test_dataset_checks_the_outcome_array(outcomes, shots, message):
    if message is None:
        assert TomographyDataset(outcomes, shots, None, "noiseless", None).outcomes.shape == (144, 4)
    else:
        with pytest.raises(ValueError, match=message):
            TomographyDataset(outcomes, shots, None, "noiseless", None)


def test_dataset_outcomes_are_a_read_only_copy_and_records_a_cached_view():
    dists = np.full((144, 4), 0.25)
    ds = TomographyDataset(dists, None, None, "noiseless", None)
    dists[0] = [1, 0, 0, 0]  # the caller's array is not the dataset's
    assert ds.outcomes[0].tolist() == [0.25] * 4
    with pytest.raises(ValueError, match="read-only"):
        ds.outcomes[0, 0] = 1.0
    assert ds.records is ds.records
    assert ds.records[("0:0", "XY")] == CountsRecord("XY", None, None, (0.25,) * 4)


def test_run_qpt_builds_no_counts_record():
    for shots in (None, 100):
        ds = run_qpt(synthesize_ms_circuit(), noise=example_noise(), shots=shots, seed=3)
        reconstruct_channel(ds)
        again = TomographyDataset.from_json(ds.to_json())
        reconstruct_channel(again)
        assert "records" not in ds.__dict__ and "records" not in again.__dict__
    assert len(ds.records) == 144 and "records" in ds.__dict__


@pytest.mark.parametrize("shots, digest", [
    (4000, "d71df4213b65da5ff7c75d28b09486706adce40b4cf6adbb2ff066ee961aa226"),
    (None, "9a0b3492db14f805c98dca9d6df4e0116db9e15f388e56e93286d44247b1932e"),
], ids=["sampled", "exact"])
def test_dataset_json_is_pinned(shots, digest):
    """Recorded when the dataset held one validated record per cell."""
    ds = run_qpt(synthesize_ms_circuit(), noise=example_noise(), shots=shots, seed=1)
    assert hashlib.sha256(ds.to_json().encode()).hexdigest() == digest


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


def test_exact_process_fidelity_helper_noiseless():
    assert exact_process_fidelity(synthesize_ms_circuit()) == pytest.approx(1.0, abs=1e-9)


def test_run_qpt_rejects_noise_on_raw_channels(rng):
    ch = random_cptp_kraus(rng)
    with pytest.raises(ValueError):
        run_qpt(ch, noise=build_noise_model(dep_cal(0.1)), shots=None)


@pytest.mark.parametrize("circuit", [synthesize_ms_circuit(), cx_circuit()], ids=["ms", "cx"])
def test_batched_qpt_probabilities_equal_the_per_state_path(circuit):
    # Sampled counts sit on p = 0.5 ties, so a 1-ulp change can swap them.
    noise = example_noise()
    grid = run_qpt(circuit, noise=noise, shots=None).outcomes.reshape(16, 9, 4).tolist()
    for label, row in zip(PREP_LABELS, grid):
        rho = evolve(Circuit(prep_circuit(label).gates + circuit.gates), basis_state("00"), noise)
        for setting, probs in zip(SETTINGS, row):
            expected = outcome_distribution(rho, setting, noise.confusion)
            assert probs == expected.tolist(), (label, setting)


def test_sampled_qpt_counts_are_pinned():
    ds = run_qpt(synthesize_ms_circuit(), noise=example_noise(), shots=4000, seed=1)
    grid = {f"{p}|{s}": row for (p, s), row in zip(_CELLS, ds.outcomes.tolist())}
    text = json.dumps(grid, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7465a389586044392a009ce98b8f1d3705ceb62b3a6c7b2ad39e8f6b157ea1ba")


def test_raw_channel_qpt_probabilities_are_pinned():
    """Recorded when each input went through ``apply`` on its own."""
    ch = random_cptp_kraus(np.random.default_rng(5), n_kraus=3)
    ds = run_qpt(ch, shots=None)
    grid = {f"{p}|{s}": row for (p, s), row in zip(_CELLS, ds.outcomes.tolist())}
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
    """Least-squares Choi estimate from per-cell expectations, identity
    terms averaged over the compatible settings."""
    freqs = dict(zip(_CELLS, ds.frequencies()))
    measured = []
    for label in PREP_LABELS:
        for obs in PAULI_LABELS:
            compat = [s for s in SETTINGS if all(f in ("I", c) for f, c in zip(obs, s))]
            measured.append(np.mean([expectation(freqs[(label, s)], obs) for s in compat]))
    x, *_ = np.linalg.lstsq(design, np.array(measured, dtype=complex), rcond=None)
    j = x.reshape(16, 16)
    return 0.5 * (j + j.conj().T)


@settings(max_examples=examples(25), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_kraus=st.integers(1, 4))
def test_dual_frame_matches_least_squares_on_random_channels(design_matrix, seed, n_kraus):
    ch = random_cptp_kraus(np.random.default_rng(seed), n_kraus=n_kraus)
    ds = run_qpt(ch, shots=None)
    assert np.abs(linear_inversion(ds.frequencies()) - lstsq_choi(ds, design_matrix)).max() <= 1e-12


def test_dual_frame_matches_least_squares_on_sampled_data(design_matrix):
    ds = run_qpt(synthesize_ms_circuit(), noise=example_noise(), shots=4000, seed=7)
    assert np.abs(linear_inversion(ds.frequencies()) - lstsq_choi(ds, design_matrix)).max() <= 1e-12


@pytest.mark.parametrize("p_dep", [0.0, 0.0165, 0.3])
@pytest.mark.parametrize("calibration", ["example_calibration.json", "example_calibration_b.json"])
@pytest.mark.parametrize("circuit", [synthesize_ms_circuit(), cx_circuit()], ids=["ms", "cx"])
def test_prep_tree_equals_the_per_label_prefixes(circuit, calibration, p_dep):
    """The shared-prefix tree against each label's own gates, as far as the
    BLAS build's kernels allow."""
    noise = build_noise_model(DeviceCalibration.load(DATA_DIR / calibration).with_p_dep(p_dep))
    per_label = np.array([apply_gates(prep_circuit(label), basis_state("00"), noise)
                          for label in PREP_LABELS])
    tree = _prepared_states(noise)
    assert tree.shape == (16, 4, 4) and np.array_equal(tree, per_label)
    # What run_qpt records is the per-label path's exact probabilities.
    expected = outcome_distribution(evolve(circuit, per_label, noise), SETTINGS, noise.confusion)
    ds = run_qpt(circuit, noise=noise, shots=None)
    for cell, row, want in zip(_CELLS, ds.outcomes.tolist(), expected.reshape(-1, 4).tolist()):
        assert row == want, cell


# Each setting's 4 outcome projectors, (x)(I +- P)/2 in BITSTRINGS order: (9, 4, 4, 4).
_PROJECTORS = np.array([[np.kron((I2 + (-1) ** int(x) * PAULIS_1Q[a]) / 2,
                                 (I2 + (-1) ** int(y) * PAULIS_1Q[b]) / 2)
                         for x, y in BITSTRINGS] for a, b in SETTINGS])
_ORACLE_MODELS = [None] + [(name, p) for name in ("example_calibration.json",
                                                  "example_calibration_b.json")
                           for p in (0.0, 0.0165, 1.0)]


@functools.cache
def _oracle_model(key):
    """One model per key, shared across examples, so its family's cached head
    meets many circuits."""
    if key is None:
        return None
    name, p_dep = key
    return build_noise_model(DeviceCalibration.load(DATA_DIR / name).with_p_dep(p_dep))


def _oracle_grid(circuit, noise) -> np.ndarray:
    """The exact (144, 4) outcome grid, rebuilt without the preparation tree, the
    circuit head, the settings' rotations or ``outcome_distribution``: each
    label's own preparation, the circuit's action on the 16 matrix units
    |i><j|, and each outcome's trace against its projector, then the confusion."""
    inputs = np.array([evolve(prep_circuit(label), basis_state("00"), noise)
                       for label in PREP_LABELS])
    images = apply_gates(circuit, np.eye(16, dtype=complex).reshape(16, 4, 4), noise)
    outputs = np.einsum("nu,ukl->nkl", inputs.reshape(16, 16), images)
    grid = np.einsum("sokl,nlk->nso", _PROJECTORS, outputs).real.reshape(-1, 4)
    return grid if noise is None else grid @ noise.confusion


@settings(max_examples=examples(50), deadline=None)
@given(circuit=circuits, model=st.sampled_from(_ORACLE_MODELS))
def test_exact_qpt_matches_an_independent_oracle(circuit, model):
    noise = _oracle_model(model)
    outcomes = run_qpt(circuit, noise=noise, shots=None).outcomes
    assert np.abs(outcomes - _oracle_grid(circuit, noise)).max() <= 1e-12


@settings(max_examples=examples(50), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), stack=st.integers(1, 16))
def test_an_identity_confusion_keeps_every_probability_bit(seed, stack):
    """The clipped probabilities are +0 or positive, so each other term of the
    confusion's ``einsum`` adds +0 and an exact identity returns them as they are."""
    rng = np.random.default_rng(seed)
    states = np.concatenate([_prepared_states(None), [basis_state(b) for b in BITSTRINGS],
                             [random_density_matrix(rng) for _ in range(stack)]])
    assert (outcome_distribution(states, SETTINGS, np.eye(4)).tobytes()
            == outcome_distribution(states, SETTINGS).tobytes())


@settings(max_examples=examples(50), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shots=st.sampled_from([None, 1, 7, 4000]))
def test_pauli_table_is_each_observables_mean_bit_for_bit(seed, shots):
    """The table's sum-and-divide is ``np.mean`` over the compatible settings,
    from the batched expectation's dots, as far as the BLAS build's kernels allow."""
    rng = np.random.default_rng(seed)
    if shots is None:
        freqs = rng.dirichlet(np.ones(4), size=len(_CELLS))
    else:
        freqs = rng.multinomial(shots, [0.1, 0.2, 0.3, 0.4], size=len(_CELLS)) / shots
    grid = freqs.reshape(len(PREP_LABELS), len(SETTINGS), 4)
    expected = np.ones((len(PREP_LABELS), len(PAULI_LABELS)))
    for k, obs in enumerate(PAULI_LABELS[1:], start=1):
        expected[:, k] = expectation(grid[:, _COMPATIBLE[obs]], obs).mean(axis=1)
    assert _pauli_table(freqs).tobytes() == expected.tobytes()


# The MS circuit's head: its gates before its CNOT.
_MS_HEAD = Circuit(synthesize_ms_circuit().gates[:3])


def test_a_models_inputs_are_prepared_once(monkeypatch):
    """The preparation tree and the circuit's head run once per model's
    single-qubit channels, which a with_p_dep sibling shares; a fresh build of
    the same file prepares anew."""
    import msbench.tomography

    calls = []

    def counting(circuit, *args):
        calls.append(circuit)
        return apply_gates(circuit, *args)

    monkeypatch.setattr(msbench.tomography, "apply_gates", counting)
    cal = DeviceCalibration.load(EXAMPLE_CALIBRATION)
    noise, circuit = build_noise_model(cal), synthesize_ms_circuit()
    runs = []
    for model in (noise, noise, noise.with_p_dep(0.3), build_noise_model(cal)):
        run_qpt(circuit, noise=model, shots=None)
        runs.append(len(calls))
    assert runs == [9, 9, 9, 18]  # 4 + 4 prefixes per tree, then the head
    assert calls.count(_MS_HEAD) == 2  # one head per family


def test_a_noise_model_family_owns_its_prepared_inputs(monkeypatch):
    """Each build_noise_model family prepares its inputs and the circuit's
    head once, however many families alternate; a with_p_dep sibling that
    runs first prepares them for its parent too; and both are freed with the
    last model of the family."""
    import msbench.tomography

    calls = []

    def counting(circuit, *args):
        calls.append(circuit)
        return apply_gates(circuit, *args)

    monkeypatch.setattr(msbench.tomography, "apply_gates", counting)
    cal = DeviceCalibration.load(EXAMPLE_CALIBRATION)
    circuit = synthesize_ms_circuit()
    families = [build_noise_model(cal.with_p_dep(p)) for p in (0.0, 0.1, 0.2, 0.3, 0.4)]
    for model in families * 2:  # round-robin, twice
        run_qpt(circuit, noise=model, shots=None)
    assert len(calls) == 5 * 9 and calls.count(_MS_HEAD) == 5
    parent = build_noise_model(cal)
    for model in (parent.with_p_dep(0.3), parent):
        run_qpt(circuit, noise=model, shots=None)
    assert len(calls) == 6 * 9 and calls.count(_MS_HEAD) == 6
    states = weakref.ref(_prepared_states(parent))
    head = weakref.ref(_split(circuit, parent)[0])
    del parent, model
    gc.collect()
    assert states() is None and head() is None


@pytest.mark.parametrize("noise", [None, example_noise()], ids=["noiseless", "noisy"])
def test_a_family_keeps_one_head_keyed_by_the_circuits_json(noise):
    """The head is the read-only stack after the gates before the first CNOT;
    a circuit whose JSON differs, as rz(-0.0)'s does from rz(0.0)'s, though
    the gates compare equal, replaces it; one that opens with a CNOT keeps none."""
    plus, minus = (Circuit((Gate.rz(0, zero), Gate.sx(1), Gate.cnot(0, 1), Gate.sx(0)))
                   for zero in (0.0, -0.0))
    assert plus == minus and plus.to_json() != minus.to_json()
    inputs = _prepared_states(noise)
    for circuit in (plus, minus, plus):
        head, tail = _split(circuit, noise)
        assert _split(circuit, noise)[0] is head and not head.flags.writeable
        assert tail.gates == circuit.gates[2:]
        assert head.tobytes() == apply_gates(Circuit(circuit.gates[:2]), inputs, noise).tobytes()
        expected = outcome_distribution(evolve(circuit, inputs, noise), SETTINGS,
                                        None if noise is None else noise.confusion)
        assert run_qpt(circuit, noise, shots=None).outcomes.tobytes() == expected.tobytes()
    kept = weakref.ref(head)
    cx_head, cx_tail = _split(cx_circuit(), noise)
    assert cx_head is inputs and cx_tail is cx_circuit()
    assert _split(plus, noise)[0] is head  # cx kept no head
    del head
    _split(minus, noise)
    gc.collect()
    assert kept() is None  # one head per family


@pytest.mark.parametrize("read, where", [
    (Circuit.from_json, "circuit"), (DeviceCalibration.from_json, "calibration"),
    (TomographyDataset.from_json, "dataset"), (QuantumChannel.from_json, "channel"),
], ids=["circuit", "calibration", "dataset", "channel"])
def test_file_readers_refuse_a_deeply_nested_document(read, where):
    with pytest.raises(ValueError, match=f"^{where}: nested too deeply$"):
        read("[" * 100000 + "]" * 100000)


@pytest.mark.parametrize("noise", [None, example_noise()], ids=["noiseless", "noisy"])
def test_prepared_states_are_read_only(noise):
    states = _prepared_states(noise)
    assert states is _prepared_states(noise)
    with pytest.raises(ValueError):
        states[0, 0, 0] = 0.0


def test_sampled_qpt_reconstruction_is_trace_preserving_to_1e_12():
    ds = run_qpt(synthesize_ms_circuit(), noise=example_noise(), shots=4000, seed=1)
    j = reconstruct_channel(ds).choi_matrix()
    assert np.linalg.norm(partial_trace(j, [1], [4, 4]) - np.eye(4) / 4) <= 1e-12


def test_process_fidelity_reuses_a_channels_read_only_choi_eigh(monkeypatch):
    target = channel_from_unitary(ms_unitary().matrix)
    raw = linear_inversion(run_qpt(synthesize_ms_circuit(), noise=example_noise(), shots=4000,
                                   seed=1).frequencies())
    estimate = project_cptp(raw)
    first = process_fidelity(estimate, target)
    vals, vecs = target.choi_eigh
    assert not vals.flags.writeable and not vecs.flags.writeable
    assert target.choi_eigh[0] is vals  # cached, not recomputed
    fresh = project_cptp(raw), channel_from_unitary(ms_unitary().matrix)
    calls = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or real(m))
    assert process_fidelity(estimate, target) == first
    assert calls == []
    assert process_fidelity(*fresh) == first
    assert len(calls) == 1  # the target's; the estimate's purity answers without one


def _process_fidelity_eigh_first(a, b):
    """``process_fidelity`` without its purity gate: each channel's
    ``choi_eigh`` decides, in turn, whether it is rank one."""
    ja, jb = a.choi_matrix(), b.choi_matrix()
    if ja.shape != jb.shape:
        raise ValueError("channels act on different dimensions")
    for first, second in ((a, jb), (b, ja)):
        vals, vecs = first.choi_eigh
        if vals[:-1].max(initial=0.0) <= 1e-12:
            v = vecs[:, -1]
            f = float(vals[-1] * np.real(np.vdot(v, second @ v)))
            return min(max(f, 0.0), 1.0)
    sq = tomography._sqrtm_psd(ja)
    ev = np.linalg.eigvalsh(sq @ jb @ sq)
    ev = ev[ev > max(ev.max(initial=0.0), 0.0) * 1e-13]  # drop numerical junk
    f = float(np.sum(np.sqrt(ev)) ** 2)
    return min(max(f, 0.0), 1.0)


def _choi_state(rng, n, vals):
    """V diag(vals) V^dag for a random n x n unitary V, Hermitian by construction."""
    v = random_unitary(rng, n)
    j = (v * vals) @ v.conj().T
    return 0.5 * (j + j.conj().T)


@settings(max_examples=examples(100), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4]),
       second=st.sampled_from([0.0, 1e-14, 1e-12, 1e-11, 1e-9, 1e-6]),
       partner=st.sampled_from(["rank-one", "full-rank"]), swap=st.booleans())
def test_purity_gate_keeps_the_eigh_first_fidelity_bit_for_bit(seed, dim, second, partner, swap):
    """Choi states whose second eigenvalue straddles the 1e-12 rank-one test,
    against a pure or a full-rank partner, in both argument orders. Bit-equal
    only as far as LAPACK's eigh allows."""
    rng, n = np.random.default_rng(seed), dim * dim
    vals = np.zeros(n)
    vals[:2] = 1.0 - second, second
    partner_vals = np.eye(n)[0] if partner == "rank-one" else rng.dirichlet(np.ones(n))
    pair = [_choi_state(rng, n, vals), _choi_state(rng, n, partner_vals)]
    if swap:
        pair.reverse()
    got = process_fidelity(*(QuantumChannel("choi", j) for j in pair))
    want = _process_fidelity_eigh_first(*(QuantumChannel("choi", j) for j in pair))
    assert got.hex() == want.hex()


def test_qpt_of_a_channel_applies_it_to_the_unchecked_constant_inputs(monkeypatch):
    """The 16 ideal inputs are valid by construction, so no call checks them
    again; the outcomes are those of the checked ``apply``."""
    channel = identity_channel(4)
    want = simulator.outcome_distribution(channel.apply(tomography._PREP_STATES),
                                          simulator.SETTINGS).reshape(-1, 4)
    calls = []
    real = channels.check_density_matrix
    monkeypatch.setattr(channels, "check_density_matrix",
                        lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    ds = run_qpt(channel, shots=None)
    assert calls == []
    assert ds.outcomes.tobytes() == want.tobytes()


def test_qpt_refuses_a_one_qubit_channel():
    with pytest.raises(ValueError, match=r"^process tomography takes a two-qubit channel, "
                                         r"dim 4, got dim 2$"):
        run_qpt(identity_channel(2), shots=None)


def test_sampled_qpt_fidelity_is_pinned():
    """Recorded with the exact CPTP projection, TP gap <= 1e-12; the dataset's
    counts are pinned above."""
    ds = run_qpt(synthesize_ms_circuit(), noise=example_noise(), shots=4000, seed=1)
    f = process_fidelity(reconstruct_channel(ds), channel_from_unitary(ms_unitary().matrix))
    assert abs(f - 0.9221541986081602) <= 1e-12


def _numpy_cell_seeds(master):
    """The documented rule, one SeedSequence per (prep, setting) cell."""
    return [int(np.random.SeedSequence(master, spawn_key=(p, s)).generate_state(1, np.uint64)[0])
            for p in range(len(PREP_LABELS)) for s in range(len(SETTINGS))]


@settings(max_examples=examples(25), deadline=None)
@given(master=st.integers(0, 2**256 - 1))
@example(master=0)
@example(master=2**32 - 1)
@example(master=2**32)
@example(master=2**128)
@example(master=2**128 + 1)
# Masters past 2**256: their words past the pool's four are mixed in before the keys.
@example(master=2**256)
@example(master=2**320 + 7)
@example(master=3**300)
def test_experiment_seeds_follow_the_documented_rule(master):
    """The 144 cell seeds of the stacked hash, whose uint32 and uint64 casting
    differs between numpy 1.24 and numpy 2, against numpy's SeedSequence."""
    assert _experiment_seeds(master).tolist() == _numpy_cell_seeds(master)


def test_sampled_run_qpt_builds_one_seed_sequence_for_the_master(monkeypatch):
    seed_sequences = count_numpy_random(monkeypatch, "SeedSequence")
    generators = count_numpy_random(monkeypatch, "PCG64")
    run_qpt(synthesize_ms_circuit(), shots=100, seed=3)
    assert seed_sequences == [(3,)]
    assert len(generators) == 144


def test_sampled_run_qpt_validates_only_the_master_seed(monkeypatch):
    """The 144 cell seeds reach ``seed_sequences`` as a uint64 array, valid by its
    dtype; only the master is checked, by ``run_qpt`` and by the dataset."""
    checked = {}
    for module in (simulator, tomography):
        def count(seed, module=module, real=module.validate_seed):
            checked.setdefault(module.__name__, []).append(seed)
            return real(seed)
        monkeypatch.setattr(module, "validate_seed", count)
    run_qpt(synthesize_ms_circuit(), shots=100, seed=3)
    assert checked == {"msbench.tomography": [3, 3]}
    # The same cell seeds as Python ints are checked one by one.
    simulator.sample_counts(np.full((144, 4), 0.25), 100, _experiment_seeds(3).tolist())
    assert len(checked["msbench.simulator"]) == 144


@pytest.mark.parametrize("shots", [None, 100], ids=["exact", "sampled"])
def test_run_qpt_checks_its_states_once(monkeypatch, shots):
    """``evolve`` checks the 16 prepared states; ``outcome_distribution`` takes
    the evolved ones as ``evolve`` returns them."""
    checked = []
    real = simulator.check_density_matrix
    monkeypatch.setattr(simulator, "check_density_matrix",
                        lambda rho, *args: checked.append(np.shape(rho)) or real(rho, *args))
    run_qpt(synthesize_ms_circuit(), build_noise_model(DeviceCalibration.load(EXAMPLE_CALIBRATION)),
            shots=shots, seed=3)
    assert checked == [(16, 4, 4)]


@pytest.mark.parametrize("seed", [-1, 1.5, None, True, np.True_],
                         ids=["negative", "float", "none", "bool", "numpy-bool"])
def test_run_qpt_rejects_seeds_that_are_not_non_negative_integers(seed):
    with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
        run_qpt(synthesize_ms_circuit(), shots=100, seed=seed)


@pytest.mark.parametrize("seed", [-1, 2.5, True, "3"], ids=["negative", "fraction", "bool", "str"])
def test_dataset_rejects_seeds_that_are_not_non_negative_integers(seed):
    ds = run_qpt(Circuit(), shots=10, seed=3)
    with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
        TomographyDataset(ds.outcomes, 10, seed, "noiseless", None)


def test_dataset_stores_a_numpy_integer_seed_as_an_int():
    ds = run_qpt(Circuit(), shots=10, seed=3)
    again = TomographyDataset(ds.outcomes, 10, np.int64(3), ds.noise_fingerprint, ds.circuit_json)
    assert type(again.seed) is int
    assert again.to_json() == ds.to_json()


@pytest.mark.parametrize("shots", [True, 10.0, 0, "10"], ids=["bool", "float", "zero", "str"])
def test_run_qpt_rejects_shots_that_are_not_positive_integers(shots):
    with pytest.raises(ValueError, match="^shots must be a positive integer"):
        run_qpt(synthesize_ms_circuit(), shots=shots, seed=3)
    outcomes = np.zeros((144, 4))
    outcomes[:, 0] = 10
    with pytest.raises(ValueError, match="positive shot number: shots must be a positive integer"):
        TomographyDataset(outcomes, shots, 3, "noiseless", None)


def test_shots_beyond_int64_are_refused_by_run_qpt_and_the_dataset_reader():
    message = r"shots must be a positive integer below 2\*\*63, got 1180591620717411303424$"
    with pytest.raises(ValueError, match=f"^{message}"):
        run_qpt(Circuit(), shots=2**70, seed=3)
    d = json.loads(run_qpt(Circuit(), shots=10, seed=3).to_json())
    d["shots"] = 2**70
    for cell in d["records"].values():
        cell.update(shots=2**70, counts={"00": 2**70})
    with pytest.raises(ValueError, match=f"^dataset: {message}"):
        TomographyDataset.from_json(json.dumps(d))


def test_run_qpt_stores_numpy_integer_shots_as_an_int():
    ds = run_qpt(synthesize_ms_circuit(), shots=np.int64(10), seed=3)
    assert type(ds.shots) is int
    assert ds.to_json() == run_qpt(synthesize_ms_circuit(), shots=10, seed=3).to_json()
    assert TomographyDataset.from_json(ds.to_json()).shots == 10
