import functools
import hashlib
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msbench.noise
from msbench.channels import QuantumChannel, channel_from_unitary, identity_channel
from msbench.circuits import (GATE_KINDS, Circuit, Gate, cx_circuit, ms_unitary,
                              synthesize_ms_circuit)
from msbench.noise import (
    DEFAULT_DURATIONS_NS,
    QUBIT_KEYS,
    DeviceCalibration,
    NoiseModel,
    QubitCalibration,
    UnachievableTargetError,
    build_noise_model,
    confusion_matrix,
    damping_channel,
    depolarizing_channel,
    fit_depolarizing,
)
from msbench.tomography import exact_process_fidelity, process_fidelity

from conftest import DATA_DIR, examples, random_density_matrix

EXAMPLE_CALIBRATIONS = ("example_calibration.json", "example_calibration_b.json")
EXCITED = np.diag([0.0, 1.0]).astype(complex)
GROUND = np.diag([1.0, 0.0]).astype(complex)


def make_cal(t1=(100.0, 100.0), t2=(80.0, 80.0), readout=(0.0, 0.0),
             durations=None, p_dep=0.0):
    qubits = tuple(
        QubitCalibration(i, t1[i], t2[i], readout[i]) for i in range(2)
    )
    return DeviceCalibration(qubits, durations or {}, p_dep)


# Scales putting an operator's norm on either side of, or at, the 1e-12 cut.
_NEAR_CUT = st.one_of(st.just(0.0), st.floats(1e-16, 1e-8), st.floats(0.0, 1.0),
                      st.sampled_from([1e-12, 0.5e-12, 2e-12, 0.25e-12, 0.125e-12]))


@settings(max_examples=examples(200), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4]),
       scales=st.lists(_NEAR_CUT, min_size=1, max_size=16))
def test_nonzero_keeps_what_the_norm_filter_keeps(seed, dim, scales):
    """``_nonzero`` takes a norm only near the cut, and keeps exactly the
    operators that ``np.linalg.norm(k) > 1e-12`` keeps, in order."""
    rng = np.random.default_rng(seed)
    ops = [s * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) for s in scales]
    ops += [s * np.eye(dim, dtype=complex) / np.sqrt(dim) for s in scales]  # norm exactly s
    kept = msbench.noise._nonzero(ops)
    expected = [k for k in ops if np.linalg.norm(k) > 1e-12]
    assert kept.shape == (len(expected), dim, dim)
    assert kept.tobytes() == np.array(expected, dtype=complex).reshape(-1, dim, dim).tobytes()


def test_damping_zero_duration_is_identity(rng):
    ch = damping_channel(100.0, 80.0, 0.0)
    rho = random_density_matrix(rng, 2)
    assert np.allclose(ch.apply(rho), rho, atol=1e-12)


def test_damping_gamma_closed_form():
    # one T1 of damping with T2 = 2*T1: gamma = 1 - 1/e, no pure dephasing
    t1 = 50.0
    ch = damping_channel(t1, 2 * t1, t1 * 1e3)
    gamma = 1 - math.exp(-1)
    out = ch.apply(EXCITED)
    assert out[1, 1].real == pytest.approx(1 - gamma, abs=1e-12)
    assert out[0, 0].real == pytest.approx(gamma, abs=1e-12)
    # coherence decays by exactly sqrt(1-gamma) when dephasing is absent
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert abs(ch.apply(plus)[0, 1]) == pytest.approx(0.5 * math.sqrt(1 - gamma), abs=1e-12)


def test_damping_long_time_limit(rng):
    ch = damping_channel(10.0, 15.0, 1e9)
    rho = random_density_matrix(rng, 2)
    assert np.allclose(ch.apply(rho), GROUND, atol=1e-8)


@pytest.mark.parametrize("args, match", [
    ((50.0, 120.0, 10.0), r"^require T1 > 0, T2 > 0 and T2 <= 2\*T1$"),
    ((-1.0, 1.0, 10.0), r"^require T1 > 0, T2 > 0 and T2 <= 2\*T1$"),
    ((100.0, 80.0, -1.0), "^duration must be non-negative$"),
    ((math.nan, 100.0, 35.0), "^t1_us = nan is not a number$"),
    ((120.0, math.nan, 35.0), "^t2_us = nan is not a number$"),
    ((120.0, 100.0, math.nan), "^duration_ns = nan is not a number$"),
    ((True, True, 35.0), "^t1_us = True is not a number$"),
    ((100.0, "80", 35.0), "^t2_us = '80' is not a number$"),
    ((100.0, 80.0, None), "^duration_ns = None is not a number$"),
    ((100.0, 80.0, 10**400), r"^duration_ns = 1000… \(an integer of 401 digits"),
], ids=["t2-above-2t1", "negative-t1", "negative-duration", "nan-t1", "nan-t2", "nan-duration",
        "bool-times", "string-t2", "none-duration", "huge-duration"])
def test_damping_rejects_unphysical(args, match):
    with pytest.raises(ValueError, match=match):
        damping_channel(*args)


@pytest.mark.parametrize("t2_factor", [2.0, 0.7])
def test_damping_semigroup(rng, t2_factor):
    t1 = 80.0
    t2 = t2_factor * t1
    s, t = 120.0, 450.0  # ns
    first = damping_channel(t1, t2, s)
    second = damping_channel(t1, t2, t)
    combined = damping_channel(t1, t2, s + t)
    for _ in range(5):
        rho = random_density_matrix(rng, 2)
        assert np.allclose(second.apply(first.apply(rho)), combined.apply(rho), atol=1e-9)


def test_depolarizing_limits(rng):
    rho = random_density_matrix(rng, 4)
    assert np.allclose(depolarizing_channel(0.0, 2).apply(rho), rho, atol=1e-12)
    assert np.allclose(depolarizing_channel(1.0, 2).apply(rho), np.eye(4) / 4, atol=1e-12)
    rho1 = random_density_matrix(rng, 2)
    assert np.allclose(depolarizing_channel(1.0, 1).apply(rho1), np.eye(2) / 2, atol=1e-12)


def test_depolarizing_fidelity_closed_form():
    p = 0.1
    ch = depolarizing_channel(p, 2)
    ident = channel_from_unitary(np.eye(4))
    # brute-force chi route: fidelity to identity is the chi_II diagonal
    chi = ch.chi_matrix()
    assert chi[0, 0].real == pytest.approx(1 - 15 * p / 16, abs=1e-12)
    assert process_fidelity(ch, ident) == pytest.approx(1 - 15 * p / 16, abs=1e-9)
    assert process_fidelity(ch, ident) == pytest.approx(0.90625, abs=1e-9)


@pytest.mark.parametrize("p, arity, match", [
    (-0.1, 2, r"^p = -0.1 outside \[0, 1\]$"),
    (1.1, 1, r"^p = 1.1 outside \[0, 1\]$"),
    (math.nan, 2, "^p = nan is not a number$"),
    (True, 2, "^p = True is not a number$"),
    ("0.5", 1, "^p = '0.5' is not a number$"),
    (0.5, True, "^arity must be 1 or 2, got True$"),
    (0.5, 3, "^arity must be 1 or 2, got 3$"),
    (0.5, 2.0, "^arity must be 1 or 2, got 2.0$"),
], ids=["negative", "above-one", "nan", "bool", "string", "bool-arity", "arity-3", "float-arity"])
def test_depolarizing_rejects_bad_probability(p, arity, match):
    with pytest.raises(ValueError, match=match):
        depolarizing_channel(p, arity)
    if match.startswith("^p"):  # QuantumChannel.depolarized applies the same rule to p
        with pytest.raises(ValueError, match=match):
            identity_channel(2 ** arity).depolarized(p)


def test_confusion_matrix_identity():
    cal = make_cal(readout=(0.0, 0.0))
    assert np.allclose(confusion_matrix(cal), np.eye(4))


def test_confusion_matrix_fully_random():
    cal = make_cal(readout=(0.5, 0.5))
    assert np.allclose(confusion_matrix(cal), np.full((4, 4), 0.25))


def test_confusion_matrix_product_entries():
    cal = make_cal(readout=(0.018, 0.019))
    c = confusion_matrix(cal)
    assert c[0, 0] == pytest.approx((1 - 0.018) * (1 - 0.019), abs=1e-12)
    assert c[0, 0] == pytest.approx(0.963342, abs=1e-6)
    assert np.allclose(c.sum(axis=1), 1.0, atol=1e-12)
    assert c.min() >= 0


def test_confusion_matrix_asymmetric_override():
    q0 = QubitCalibration(0, 100, 80, 0.02, readout_error_01=0.01, readout_error_10=0.05)
    q1 = QubitCalibration(1, 100, 80, 0.0)
    cal = DeviceCalibration((q0, q1))
    c = confusion_matrix(cal)
    assert c[0, 0] == pytest.approx(0.99)   # true 00 read correctly
    assert c[2, 0] == pytest.approx(0.05)   # true 10 read as 00
    assert np.allclose(c.sum(axis=1), 1.0, atol=1e-12)


def test_calibration_validation():
    with pytest.raises(ValueError):
        QubitCalibration(0, 100.0, 250.0, 0.01)  # T2 > 2*T1
    with pytest.raises(ValueError):
        QubitCalibration(0, -5.0, 10.0, 0.01)
    with pytest.raises(ValueError):
        QubitCalibration(0, 100.0, 80.0, 1.5)
    with pytest.raises(ValueError):
        make_cal(p_dep=1.5)


def test_calibration_json_roundtrip():
    cal = make_cal(t1=(120.0, 90.0), t2=(100.0, 70.0), readout=(0.018, 0.019), p_dep=0.01)
    again = DeviceCalibration.from_json(cal.to_json())
    assert again == cal
    assert again.fingerprint() == cal.fingerprint()
    assert again.durations_ns["x"] == DEFAULT_DURATIONS_NS["sx"]
    assert cal.to_json() is cal.to_json()  # written once, for the file and the fingerprint


def test_calibration_json_with_optional_qubit_keys_is_pinned():
    """Readout overrides are written when set, and a None metadata key is left
    out. Text and fingerprint recorded before the writer took its keys from
    ``QUBIT_KEYS``."""
    q0 = QubitCalibration(0, 100.0, 80.0, 0.02, frequency_ghz=5.1, readout_error_01=0.01,
                          readout_error_10=0.03)
    cal = DeviceCalibration((q0, QubitCalibration(1, 90.0, 70.0, 0.0)), {"cnot": 250.0}, 0.01)
    assert cal.to_json() == (
        '{\n  "durations_ns": {\n    "cnot": 250.0,\n    "rz": 0.0,\n    "sx": 35.0,\n'
        '    "x": 35.0\n  },\n  "p_dep": 0.01,\n  "qubits": [\n    {\n'
        '      "frequency_ghz": 5.1,\n      "id": 0,\n      "readout_error": 0.02,\n'
        '      "readout_error_01": 0.01,\n      "readout_error_10": 0.03,\n'
        '      "t1_us": 100.0,\n      "t2_us": 80.0\n    },\n    {\n      "id": 1,\n'
        '      "readout_error": 0.0,\n      "t1_us": 90.0,\n      "t2_us": 70.0\n    }\n'
        '  ]\n}')
    assert cal.fingerprint() == "f7bd6c4fb4148ee5"


@pytest.mark.parametrize("real, integer", [(np.float32, np.int64), (np.float64, np.int32)])
def test_a_calibration_stores_numpy_scalars_as_python_numbers(real, integer):
    """Every number field, qubit id, duration and p_dep may be a numpy scalar;
    each is stored as its ``.item()``, so the calibration writes, fingerprints,
    builds a model and reads back equal."""
    q0 = QubitCalibration(integer(0), real(100.0), real(80.0), real(0.02),
                          frequency_ghz=real(5.1), anharmonicity_ghz=real(-0.3),
                          readout_error_01=real(0.01), readout_error_10=real(0.03))
    cal = DeviceCalibration((q0, QubitCalibration(integer(1), 90.0, 70.0, 0.0)),
                            {"cnot": real(250.0), "sx": integer(35)}, real(0.01))
    fields = [*(getattr(q, f) for q in cal.qubits for f in ("qubit", *QUBIT_KEYS[1:])),
              *cal.durations_ns.values(), cal.p_dep]
    assert not any(isinstance(v, np.generic) for v in fields)
    again = DeviceCalibration.from_json(cal.to_json())
    assert again == cal and again.fingerprint() == cal.fingerprint()
    assert NoiseModel(cal).fingerprint == NoiseModel(again).fingerprint


def test_a_qubit_record_without_optional_keys_reads_their_defaults():
    cal = DeviceCalibration.from_json('{"qubits": [{"id": 0, "t1_us": 100.0, "t2_us": 80.0}]}')
    assert cal.qubits == (QubitCalibration(0, 100.0, 80.0, 0.0),)


def test_a_calibration_without_qubits_is_refused():
    with pytest.raises(ValueError, match="qubits: a calibration needs at least one qubit"):
        DeviceCalibration(())


def test_noise_model_zero_errors_is_identity(rng):
    cal = make_cal(durations={"rz": 0, "sx": 0, "cnot": 0, "x": 0})
    model = build_noise_model(cal)
    for gate_key, ch in model.single_qubit.items():
        assert ch is None
    assert model.cnot_channel is None
    assert np.array_equal(model.confusion, np.eye(4))


def test_noise_model_channels_are_cptp():
    cal = make_cal(t1=(120.0, 90.0), t2=(100.0, 70.0), readout=(0.02, 0.03), p_dep=0.05)
    model = build_noise_model(cal)
    for ch in list(model.single_qubit.values()) + [model.cnot_channel]:
        if ch is None:
            continue
        ops = ch.kraus_operators()
        comp = sum(k.conj().T @ k for k in ops)
        assert np.linalg.norm(comp - np.eye(4)) <= 1e-8
    assert np.allclose(model.confusion.sum(axis=1), 1.0, atol=1e-12)


def test_fit_depolarizing_trivial_target():
    cal = make_cal(durations={"rz": 0, "sx": 0, "cnot": 0, "x": 0})
    circuit = synthesize_ms_circuit()
    assert fit_depolarizing(1.0, circuit, cal)[0] == 0.0


def test_fit_depolarizing_closed_form_inverse():
    cal = make_cal(durations={"rz": 0, "sx": 0, "cnot": 0, "x": 0})
    circuit = synthesize_ms_circuit()
    p, _ = fit_depolarizing(0.9247, circuit, cal)
    # |F(p) - target| <= 1e-3 translates to |p - p*| <= 16/15 * 1e-3
    assert p == pytest.approx((1 - 0.9247) * 16 / 15, abs=1.2e-3)


def test_fit_depolarizing_with_damping_lands_below_closed_form():
    cal = make_cal(t1=(120.0, 90.0), t2=(100.0, 70.0))
    p, _ = fit_depolarizing(0.9247, synthesize_ms_circuit(), cal)
    assert 0.0 < p < 0.0804


def test_fit_depolarizing_unachievable_target():
    cal = make_cal(t1=(50.0, 50.0), t2=(40.0, 40.0), readout=(0.05, 0.05))
    with pytest.raises(UnachievableTargetError):
        fit_depolarizing(0.999, synthesize_ms_circuit(), cal)


@pytest.mark.parametrize("target, tol, message", [
    (True, 1e-3, "target fidelity must be a number, got True"),
    (False, 1e-3, "target fidelity must be a number, got False"),
    ("0.9", 1e-3, "target fidelity must be a number, got '0.9'"),
    (None, 1e-3, "target fidelity must be a number, got None"),
    (0.0, 1e-3, r"target fidelity must be in \(0, 1\]"),
    (1.5, 1e-3, r"target fidelity must be in \(0, 1\]"),
    (math.nan, 1e-3, r"target fidelity must be in \(0, 1\]"),
    (0.5, -1, "tol must be a finite positive number, got -1"),
    (0.5, 0, "tol must be a finite positive number, got 0"),
    (0.5, -0.0, "tol must be a finite positive number, got -0.0"),
    (0.5, math.nan, "tol must be a finite positive number, got nan"),
    (0.5, math.inf, "tol must be a finite positive number, got inf"),
    (0.5, True, "tol must be a finite positive number, got True"),
    (0.5, "0.001", "tol must be a finite positive number, got '0.001'"),
])
def test_fit_depolarizing_checks_its_arguments_before_any_qpt(monkeypatch, target, tol, message):
    """tol = -1 used to report an unachievable target, 0 and nan ran 80 QPTs,
    inf and True returned p = 0, and a target of True was read as 1.0."""
    calls = count_fidelity_evaluations(monkeypatch)
    with pytest.raises(ValueError, match=f"^{message}$"):
        fit_depolarizing(target, synthesize_ms_circuit(), make_cal(), tol=tol)
    assert calls == []


def test_fidelity_monotone_in_depolarizing_strength():
    cal = make_cal(durations={"rz": 0, "sx": 0, "cnot": 0, "x": 0})
    circuit = synthesize_ms_circuit()
    fids = [
        exact_process_fidelity(circuit, build_noise_model(cal.with_p_dep(p)))
        for p in (0.0, 0.02, 0.08, 0.2, 0.5)
    ]
    assert all(a >= b - 1e-9 for a, b in zip(fids, fids[1:]))


@pytest.mark.parametrize("field", ["t1_us", "t2_us"])
def test_qubit_calibration_rejects_nan_coherence_time(field):
    # Unchecked, a NaN T2 switches dephasing off silently (rate_phi > 1e-15 is
    # false) and a NaN T1 fails late with "empty Kraus set".
    times = {"t1_us": 100.0, "t2_us": 80.0, field: math.nan}
    with pytest.raises(ValueError, match=f"^qubit 0: {field} = nan"):
        QubitCalibration(0, times["t1_us"], times["t2_us"], 0.01)


def test_calibration_json_with_nan_t2_is_rejected():
    text = make_cal().to_json().replace('"t2_us": 80.0', '"t2_us": NaN', 1)
    with pytest.raises(ValueError, match="^qubit 0: t2_us = nan"):
        DeviceCalibration.from_json(text)


@pytest.mark.parametrize("field", ["t1_us", "t2_us"])
@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_qubit_calibration_rejects_infinite_coherence_time(field, value):
    # Unchecked, an infinite T1 passed and was written back as Infinity, which
    # a strict JSON reader refuses.
    times = {"t1_us": 100.0, "t2_us": 80.0, field: value}
    with pytest.raises(ValueError, match=rf"^qubit 0: {field} = {value} is not finite"):
        QubitCalibration(0, times["t1_us"], times["t2_us"], 0.01)


@pytest.mark.parametrize("field", ["t1_us", "t2_us"])
def test_calibration_json_with_overflowing_coherence_time_is_rejected(field):
    """Python's ``json`` reads 1e400 as inf."""
    text = json.dumps({"qubits": [{"id": 0, "t1_us": 100.0, "t2_us": 80.0, field: "X"}]})
    with pytest.raises(ValueError, match=f"^qubit 0: {field} = inf is not finite"):
        DeviceCalibration.from_json(text.replace('"X"', "1e400"))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_durations_reject_non_finite_values(value):
    # Unchecked, a NaN CNOT duration builds a model without CNOT relaxation.
    with pytest.raises(ValueError, match=rf"^durations_ns\['cnot'\] = {value}"):
        make_cal(durations={"cnot": value})


@pytest.mark.parametrize("field", ["frequency_ghz", "anharmonicity_ghz"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_calibration_metadata_must_be_finite(field, value):
    # JSON has no NaN or Infinity, so to_json could not write such a calibration.
    with pytest.raises(ValueError, match=rf"^qubit 0: {field} = {value} is not finite"):
        QubitCalibration(0, 100.0, 80.0, 0.01, **{field: value})


_METADATA = ("frequency_ghz", "anharmonicity_ghz")


@st.composite
def calibration_fields(draw):
    """Constructor arguments of a calibration: the qubits' keyword arguments,
    the durations and p_dep. Metadata may be non-finite."""
    probability = st.floats(0.0, 1.0)
    metadata = st.none() | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf])
    qubits = []
    for qubit in draw(st.lists(st.integers(0, 20), min_size=1, max_size=4, unique=True)):
        t1 = draw(st.floats(1e-3, 1e4))
        t2 = draw(st.floats(1e-3, 1.0)) * 2 * t1
        qubits.append(dict(
            qubit=qubit, t1_us=t1, t2_us=t2, readout_error=draw(probability),
            frequency_ghz=draw(metadata), anharmonicity_ghz=draw(metadata),
            readout_error_01=draw(st.none() | probability),
            readout_error_10=draw(st.none() | probability)))
    durations = draw(st.dictionaries(st.sampled_from(GATE_KINDS), st.floats(0.0, 1e6)))
    return qubits, durations, draw(probability)


@settings(max_examples=examples(50))
@given(fields=calibration_fields())
def test_calibration_json_roundtrip_property(fields):
    qubits, durations, p_dep = fields
    non_finite = [(q["qubit"], name) for q in qubits for name in _METADATA
                  if q[name] is not None and not math.isfinite(q[name])]
    if non_finite:
        qubit, name = non_finite[0]
        with pytest.raises(ValueError, match=rf"^qubit {qubit}: {name} = .* is not finite"):
            DeviceCalibration(tuple(QubitCalibration(**q) for q in qubits), durations, p_dep)
        return
    cal = DeviceCalibration(tuple(QubitCalibration(**q) for q in qubits), durations, p_dep)
    again = DeviceCalibration.from_json(cal.to_json())
    assert again == cal
    assert again.fingerprint() == cal.fingerprint()


def test_noise_fingerprint_covers_the_qubit_pair():
    qubits = tuple(QubitCalibration(i, 100.0, 80.0, 0.01 * (i + 1)) for i in range(3))
    cal = DeviceCalibration(qubits)
    a, b = build_noise_model(cal, (0, 1)), build_noise_model(cal, (1, 2))
    assert not np.array_equal(a.confusion, b.confusion)
    assert a.fingerprint != b.fingerprint
    assert build_noise_model(cal, (0, 1)).fingerprint == a.fingerprint


@pytest.mark.parametrize("qubits", [(0, 0), (0, True), (True, 0), (0,), (), (0, 1, 2), (0.0, 1),
                                    (0, "1"), "01", 0, None])
def test_build_noise_model_refuses_all_but_two_distinct_integer_ids(qubits):
    """(0, 0) would put both register qubits on one device qubit, and (0, True)
    would build the (0, 1) model under another fingerprint. ``confusion_matrix``
    takes the pair through the same check, and so does ``NoiseModel``."""
    for refuse in (build_noise_model, confusion_matrix, NoiseModel):
        with pytest.raises(ValueError, match=r"^qubits must be two distinct integer qubit ids, got "):
            refuse(make_cal(), qubits)


def test_build_noise_model_takes_any_two_integer_ids_as_the_pair():
    cal = make_cal()
    default = build_noise_model(cal)
    for qubits in ([0, 1], (np.int64(0), np.int64(1))):
        model = build_noise_model(cal, qubits)
        assert model.qubits == (0, 1) and model.fingerprint == default.fingerprint
    assert build_noise_model(cal, (1, 0)).fingerprint != default.fingerprint


def test_durations_reject_unknown_gate_names():
    with pytest.raises(ValueError, match="'cx'"):
        make_cal(durations={"cx": 600})
    with pytest.raises(ValueError, match="'cnot'"):
        make_cal(durations={"cnot": -1})


@pytest.mark.parametrize("value", [None, [], 0, False, "", [1]],
                         ids=["null", "empty-list", "zero", "false", "empty-string", "list"])
def test_durations_that_are_not_an_object_are_refused(value):
    record = make_cal().to_dict()
    with pytest.raises(ValueError, match="^durations_ns: expected a JSON object, got "):
        DeviceCalibration.from_dict({**record, "durations_ns": value})
    del record["durations_ns"]  # an absent key still means the defaults
    assert DeviceCalibration.from_dict(record).durations_ns == {**DEFAULT_DURATIONS_NS, "x": 35.0}


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("build, field", [
    (lambda v: QubitCalibration(0, 100.0, v, 0.0), "qubit 0: t2_us = "),
    (lambda v: make_cal(durations={"cnot": v}), "durations_ns['cnot'] = "),
    (lambda v: make_cal(p_dep=v), "p_dep = "),
    (lambda v: Gate.rz(0, v), "rz angle must be a finite number, got "),
], ids=["t2", "duration", "p_dep", "angle"])
def test_an_integer_past_the_float_range_gets_a_bounded_message(build, field, sign):
    with pytest.raises(ValueError) as err:
        build(sign * 10**400)
    message = str(err.value)
    assert message.startswith(field + "-" * (sign < 0) + "1000… (an integer of 401 digits, "
                              "beyond the float range)")
    assert len(message) < 200


def test_durations_are_read_only():
    cal = make_cal(durations={"cnot": 600})
    before = cal.fingerprint()
    with pytest.raises(TypeError):
        cal.durations_ns["cnot"] = 300
    assert cal.durations_ns["cnot"] == 600
    assert cal.fingerprint() == before


def test_from_dict_rejects_unknown_top_level_key():
    d = make_cal().to_dict()
    d["p_dpe"] = 0.3
    with pytest.raises(ValueError, match="'p_dpe'"):
        DeviceCalibration.from_dict(d)


def test_from_dict_rejects_unknown_qubit_key():
    d = make_cal().to_dict()
    d["qubits"][1]["readout_eror"] = 0.05
    with pytest.raises(ValueError, match=r"qubits\[1\].*'readout_eror'"):
        DeviceCalibration.from_dict(d)


def test_duplicate_qubit_ids_rejected():
    qubits = (QubitCalibration(0, 100.0, 80.0, 0.01), QubitCalibration(0, 90.0, 70.0, 0.02))
    with pytest.raises(ValueError, match="duplicate qubit id 0"):
        DeviceCalibration(qubits)


def test_bool_qubit_id_rejected():
    text = ('{"qubits": [{"id": true, "t1_us": 100.0, "t2_us": 80.0}, '
            '{"id": 0, "t1_us": 100.0, "t2_us": 80.0}]}')
    with pytest.raises(ValueError, match="^qubit id True is not an integer$"):
        DeviceCalibration.from_json(text)
    with pytest.raises(ValueError, match="^qubit id False is not an integer$"):
        QubitCalibration(False, 100.0, 80.0, 0.0)


def count_fidelity_evaluations(monkeypatch):
    """Count exact_process_fidelity calls made through msbench.noise."""
    calls = []
    original = msbench.noise.exact_process_fidelity

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(msbench.noise, "exact_process_fidelity", counting)
    return calls


@pytest.mark.parametrize("name", EXAMPLE_CALIBRATIONS)
@pytest.mark.parametrize("make_circuit", [synthesize_ms_circuit, cx_circuit])
def test_fit_depolarizing_affine_fidelity_takes_three_evaluations(monkeypatch, name, make_circuit):
    cal = DeviceCalibration.load(DATA_DIR / name)
    circuit = make_circuit()

    def fidelity(p):
        return exact_process_fidelity(circuit, build_noise_model(cal.with_p_dep(p)))

    f_zero, f_one = fidelity(0.0), fidelity(1.0)
    calls = count_fidelity_evaluations(monkeypatch)
    for frac in (0.002, 0.05, 0.4, 0.9):
        target = f_zero - frac * (f_zero - f_one)
        calls.clear()
        p, _ = fit_depolarizing(target, circuit, cal)
        assert len(calls) == 3
        assert abs(fidelity(p) - target) <= 1e-12


@pytest.mark.parametrize("make_circuit", [synthesize_ms_circuit, cx_circuit])
def test_fit_depolarizing_takes_its_targets_choi_eigh_once(monkeypatch, make_circuit):
    """Three evaluations share one target; each estimate's purity skips its eigh.
    A fresh instance of the circuit takes its target's eigh once; a second fit
    on the shared builtin takes it no more."""
    cal = DeviceCalibration.load(DATA_DIR / EXAMPLE_CALIBRATIONS[0])
    fit_depolarizing(0.9247, make_circuit(), cal)
    eighs = []
    real = QuantumChannel.choi_eigh.func
    counting = functools.cached_property(lambda ch: eighs.append(ch) or real(ch))
    counting.__set_name__(QuantumChannel, "choi_eigh")
    monkeypatch.setattr(QuantumChannel, "choi_eigh", counting)
    calls = count_fidelity_evaluations(monkeypatch)
    for circuit, target_eighs in ((Circuit(make_circuit().gates), 1), (make_circuit(), 0)):
        calls.clear()
        eighs.clear()
        fit_depolarizing(0.9247, circuit, cal)
        assert len(calls) == 3
        assert len(eighs) == target_eighs


@pytest.mark.parametrize("path", ["p = 0", "secant", "p = 1"])
def test_fit_depolarizing_returns_the_fidelity_at_the_fitted_p(path):
    circuit = synthesize_ms_circuit()
    if path == "secant":
        cal, target = DeviceCalibration.load(DATA_DIR / EXAMPLE_CALIBRATIONS[0]), 0.9247
    else:
        cal = make_cal(durations={"rz": 0, "sx": 0, "cnot": 0, "x": 0})
        target = 1.0 if path == "p = 0" else exact_process_fidelity(
            circuit, build_noise_model(cal.with_p_dep(1.0)))
    p, f = fit_depolarizing(target, circuit, cal)
    assert (p in (0.0, 1.0)) == (path != "secant")
    assert f == exact_process_fidelity(circuit, build_noise_model(cal.with_p_dep(p)))


def test_fit_depolarizing_target_within_tol_of_full_depolarization():
    cal = make_cal(durations={"rz": 0, "sx": 0, "cnot": 0, "x": 0})
    circuit = synthesize_ms_circuit()
    f_one = exact_process_fidelity(circuit, build_noise_model(cal.with_p_dep(1.0)))
    assert fit_depolarizing(f_one - 5e-4, circuit, cal)[0] == 1.0


def test_fit_depolarizing_two_cnot_circuit_lands_within_tol(monkeypatch):
    cal = DeviceCalibration.load(DATA_DIR / EXAMPLE_CALIBRATIONS[0])
    circuit = Circuit(synthesize_ms_circuit().gates + synthesize_ms_circuit().gates)
    assert circuit.cnot_count() == 2
    calls = count_fidelity_evaluations(monkeypatch)
    for target in (0.9, 0.5, 0.1):
        for tol in (1e-3, 1e-6):
            calls.clear()
            p, _ = fit_depolarizing(target, circuit, cal, tol=tol)
            # F is not affine here; the Illinois step keeps this to about 10
            # (plain false position needs up to 31).
            assert len(calls) <= 12
            achieved = exact_process_fidelity(circuit, build_noise_model(cal.with_p_dep(p)))
            assert abs(achieved - target) <= tol


@settings(max_examples=examples(10), deadline=None)
@given(target=st.floats(0.1, 0.93), tol=st.sampled_from([1e-3, 1e-6]),
       cnots=st.integers(1, 2))
def test_fit_then_evaluate_is_within_tol(target, tol, cnots):
    cal = make_cal(t1=(120.0, 90.0), t2=(100.0, 70.0))
    circuit = synthesize_ms_circuit()
    if cnots == 2:
        circuit = Circuit(circuit.gates + circuit.gates)
    p, _ = fit_depolarizing(target, circuit, cal, tol=tol)
    assert 0.0 <= p <= 1.0
    achieved = exact_process_fidelity(circuit, build_noise_model(cal.with_p_dep(p)))
    assert abs(achieved - target) <= tol


def test_noise_model_kraus_operators_match_recorded_digest():
    """The Kraus operators of both example calibrations' noise models, in value
    and order, hashed; they feed the simulator and hence every sampled count."""
    digest = hashlib.sha256()
    for name in EXAMPLE_CALIBRATIONS:
        cal = DeviceCalibration.load(DATA_DIR / name)
        for p_dep in (0.0, 0.0165, 0.3, 1.0):
            model = build_noise_model(cal.with_p_dep(p_dep))
            channels = [model.single_qubit[key] for key in sorted(model.single_qubit)]
            for ch in channels + [model.cnot_channel]:
                digest.update(b"|")
                if ch is not None:
                    for k in ch.data:
                        digest.update(np.ascontiguousarray(k, dtype=complex).tobytes())
                        digest.update(b",")
    assert digest.hexdigest() == (
        "c571e5602366bc3a682459e1c3533969c494692c5641d0aaf863057820f86018"
    )


def test_noise_model_builds_each_relaxation_channel_once(monkeypatch):
    """x defaults to sx's duration, so both share one lifted channel per qubit:
    2 single-qubit builds plus the CNOT's 2, for the example calibration."""
    import msbench.noise

    calls = []

    def counting(*args):
        calls.append(args)
        return damping_channel(*args)

    monkeypatch.setattr(msbench.noise, "damping_channel", counting)
    model = build_noise_model(DeviceCalibration.load(DATA_DIR / EXAMPLE_CALIBRATIONS[0]))
    assert len(calls) == len(set(calls)) == 4
    for pos in (0, 1):
        assert model.single_qubit[("x", pos)] is model.single_qubit[("sx", pos)]
        assert model.single_qubit[("rz", pos)] is None


@pytest.mark.parametrize("name", EXAMPLE_CALIBRATIONS)
def test_a_noise_model_build_makes_no_from_kraus_pass(monkeypatch, name):
    """The damping channels come from checked parameters, and their tensors are
    products of validated channels: neither is re-validated, in a build or in
    a ``with_p_dep`` sibling."""
    calls = []
    real = QuantumChannel.from_kraus
    monkeypatch.setattr(QuantumChannel, "from_kraus",
                        staticmethod(lambda ops: calls.append(len(ops)) or real(ops)))
    build_noise_model(DeviceCalibration.load(DATA_DIR / name)).with_p_dep(0.0165)
    assert calls == []


def _model_bytes(model):
    channels = [model.single_qubit[key] for key in sorted(model.single_qubit)]
    channels += [model.cnot_relaxation, model.cnot_channel]
    return ([None if ch is None else ch.data.tobytes() for ch in channels],
            model.confusion.tobytes(), model.fingerprint)


@pytest.mark.parametrize("p", [0, 0.0165, 1])
@pytest.mark.parametrize("qubits", [(0, 1), (1, 0)])
@pytest.mark.parametrize("name", EXAMPLE_CALIBRATIONS)
def test_a_noise_model_derives_from_its_calibration_and_pair_alone(name, qubits, p):
    """The one construction path: ``build_noise_model`` and a ``with_p_dep``
    sibling give the model ``NoiseModel(cal, qubits)`` derives, field by field."""
    cal = DeviceCalibration.load(DATA_DIR / name).with_p_dep(p)
    model = NoiseModel(cal, qubits)
    assert model.qubits == qubits and model.calibration is cal
    assert _model_bytes(model) == _model_bytes(build_noise_model(cal, qubits))
    assert _model_bytes(model) == _model_bytes(NoiseModel(cal.with_p_dep(0), qubits).with_p_dep(p))


def test_a_noise_model_takes_no_channels_beside_its_calibration():
    """Channels passed beside the calibration would carry its fingerprint, as
    an empty map and no relaxation would at p_dep 0.0165 with an exact MS
    fidelity of 0.98453, not 0.92470."""
    cal = DeviceCalibration.load(DATA_DIR / EXAMPLE_CALIBRATIONS[0])
    with pytest.raises(TypeError):
        NoiseModel(cal, (0, 1), {}, None, None)
    assert list(inspect.signature(NoiseModel).parameters) == ["calibration", "qubits"]
    assert NoiseModel(cal).qubits == (0, 1)


@pytest.mark.parametrize("build", [NoiseModel, build_noise_model])
@pytest.mark.parametrize("calibration", [
    json.loads((DATA_DIR / EXAMPLE_CALIBRATIONS[0]).read_text()), None], ids=["parsed-dict", "none"])
def test_a_noise_model_refuses_what_is_not_a_calibration(build, calibration):
    """The parsed JSON of a calibration file is not a calibration: it once
    failed with an AttributeError deep in the build."""
    with pytest.raises(ValueError, match="^calibration: expected a DeviceCalibration, got "):
        build(calibration)


@settings(max_examples=examples(30), deadline=None)
@given(cal=st.sampled_from([*(DeviceCalibration.load(DATA_DIR / name) for name in EXAMPLE_CALIBRATIONS),
                            make_cal(durations={"cnot": 0})]),  # a model without CNOT relaxation
       p=st.one_of(st.just(0), st.just(1), st.floats(0.0, 1.0)))
def test_with_p_dep_equals_a_fresh_build(cal, p):
    derived = build_noise_model(cal.with_p_dep(0)).with_p_dep(p)
    assert _model_bytes(derived) == _model_bytes(build_noise_model(cal.with_p_dep(p)))


def test_fit_builds_each_relaxation_channel_once(monkeypatch):
    """One model build per fit: the example fit's 3 evaluations build the 4
    relaxation channels once, and the 2 at p_dep > 0 share one build of the
    CNOT relaxation's Pauli products."""
    import msbench.noise

    calls, builds = [], []

    def counting(*args):
        calls.append(args)
        return damping_channel(*args)

    products = QuantumChannel._pauli_products

    def counting_products(channel):
        builds.append(channel)
        return products.func(channel)

    counted = functools.cached_property(counting_products)
    counted.__set_name__(QuantumChannel, "_pauli_products")
    monkeypatch.setattr(msbench.noise, "damping_channel", counting)
    monkeypatch.setattr(QuantumChannel, "_pauli_products", counted)
    cal = DeviceCalibration.load(DATA_DIR / EXAMPLE_CALIBRATIONS[0])
    p_dep, _ = fit_depolarizing(0.9247, synthesize_ms_circuit(), cal)
    assert (len(calls), len(builds), round(p_dep, 6)) == (4, 1, 0.0165)


def test_noise_model_single_qubit_channels_are_read_only():
    model = build_noise_model(DeviceCalibration.load(DATA_DIR / EXAMPLE_CALIBRATIONS[0]))
    with pytest.raises(TypeError):
        model.single_qubit[("sx", 0)] = None
    assert model.with_p_dep(0.5).single_qubit is model.single_qubit


@pytest.mark.parametrize("build", [
    lambda: identity_channel(2),
    ms_unitary,
    lambda: build_noise_model(DeviceCalibration.load(DATA_DIR / EXAMPLE_CALIBRATIONS[0])),
], ids=["QuantumChannel", "TargetUnitary", "NoiseModel"])
def test_array_holding_values_compare_and_hash_by_identity(build):
    a, b = build(), build()
    assert (a == b) is False
    assert a == a
    assert len({a, b, a}) == 2


def test_calibrations_hash_like_they_compare():
    cal = DeviceCalibration.load(DATA_DIR / EXAMPLE_CALIBRATIONS[0])
    reordered = DeviceCalibration(cal.qubits, dict(sorted(cal.durations_ns.items(), reverse=True)),
                                  cal.p_dep)  # given in reverse key order
    assert reordered == cal and hash(reordered) == hash(cal)
    assert len({cal, reordered, cal.with_p_dep(0.5)}) == 2
