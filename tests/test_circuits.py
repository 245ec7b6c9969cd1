import json
import re

import numpy as np
import pytest
from hypothesis import given

from msbench.circuits import (
    Circuit,
    Gate,
    TargetUnitary,
    circuit_unitary,
    cnot_matrix,
    cx_circuit,
    cx_unitary,
    ms_unitary,
    phase_aligned_distance,
    synthesize_ms_circuit,
)
from msbench.linalg import I2, PAULI_X, kron
from msbench.noise import DeviceCalibration

from conftest import circuits, random_unitary


def test_ms_unitary_entries():
    u = ms_unitary().matrix
    s = 1 / np.sqrt(2)
    assert u[0, 0] == pytest.approx(s)
    assert u[0, 3] == pytest.approx(1j * s)
    # full structure: s on the diagonal, i*s on the anti-diagonal
    expected = (np.eye(4) + 1j * np.fliplr(np.eye(4))) * s
    assert np.allclose(u, expected, atol=1e-15)


def test_ms_maps_00_to_bell():
    u = ms_unitary().matrix
    out = u @ np.array([1, 0, 0, 0], dtype=complex)
    bell = np.array([1, 0, 0, 1j]) / np.sqrt(2)
    assert np.allclose(out, bell, atol=1e-12)


def test_ms_unitarity():
    u = ms_unitary().matrix
    assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-12


def test_empty_circuit_is_identity():
    assert np.allclose(circuit_unitary(Circuit()), np.eye(4))


def test_cnot_truth_table():
    # qubit 0 is the most significant bit: CNOT(0->1) swaps |10> and |11>
    u = circuit_unitary(Circuit((Gate.cnot(0, 1),)))
    expected = np.zeros((4, 4))
    mapping = {0: 0, 1: 1, 2: 3, 3: 2}
    for src, dst in mapping.items():
        expected[dst, src] = 1
    assert np.allclose(u, expected)
    # and control on qubit 1 swaps |01> and |11>
    u10 = cnot_matrix(1, 0)
    mapping = {0: 0, 1: 3, 2: 2, 3: 1}
    expected = np.zeros((4, 4))
    for src, dst in mapping.items():
        expected[dst, src] = 1
    assert np.allclose(u10, expected)


def test_double_sx_is_x_up_to_phase():
    c = Circuit((Gate.sx(0), Gate.sx(0)))
    assert phase_aligned_distance(circuit_unitary(c), kron(PAULI_X, I2)) <= 1e-12


def test_phase_aligned_distance_is_phase_blind(rng):
    # The expanded form sqrt(|u|^2 + |v|^2 - 2 |tr v^dag u|) cancels: on these
    # 500 pairs it read up to 4.2e-8, and above 1e-9 on 42 of them.
    for _ in range(500):
        u = random_unitary(rng, 4)
        theta = rng.uniform(0, 2 * np.pi)
        assert phase_aligned_distance(u, np.exp(1j * theta) * u) <= 1e-12
    # and positive for genuinely different unitaries
    assert phase_aligned_distance(np.eye(4), cnot_matrix()) > 1.0


def test_synthesized_circuit_has_one_cnot():
    assert synthesize_ms_circuit().cnot_count() == 1


def test_synthesized_circuit_matches_target():
    c = synthesize_ms_circuit()
    assert phase_aligned_distance(circuit_unitary(c), ms_unitary().matrix) <= 1e-9


def test_cx_circuit():
    c = cx_circuit()
    assert len(c) == 1
    u = circuit_unitary(c)
    assert np.allclose(u, cx_unitary().matrix)
    e00 = np.array([1, 0, 0, 0])
    e10 = np.array([0, 0, 1, 0])
    e11 = np.array([0, 0, 0, 1])
    assert np.allclose(u @ e00, e00)
    assert np.allclose(u @ e10, e11)


def test_concatenation_matches_product(rng):
    a = Circuit((Gate.rz(0, 0.7), Gate.sx(1), Gate.cnot(1, 0)))
    b = Circuit((Gate.x(0), Gate.rz(1, -1.2)))
    lhs = circuit_unitary(Circuit(a.gates + b.gates))
    rhs = circuit_unitary(b) @ circuit_unitary(a)
    assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("m, accepted", [
    (np.diag([1.0, 1.0, 1.0, 1.0 + 1e-11]), True),  # |U^dag U - I|_F = 2e-11
    (np.diag([1.0, 1.0, 1.0, 1.0 + 1e-9]), False),
    (np.eye(3), False),
    (np.eye(4)[:, :2], False),
    (np.diag([1.0, np.nan, 1.0, 1.0]), False),
], ids=["within-1e-10", "beyond-1e-10", "3x3", "4x2", "nan"])
def test_target_unitary_must_be_a_4x4_unitary(m, accepted):
    if accepted:
        assert TargetUnitary(m).matrix.tolist() == m.tolist()
    else:
        with pytest.raises(ValueError):
            TargetUnitary(m)


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate.cnot(0, 0)
    with pytest.raises(ValueError):
        Gate.rz(2, 0.5)
    with pytest.raises(ValueError):
        Gate.rz(0, float("inf"))
    with pytest.raises(ValueError):
        Gate("hadamard", qubit=0)
    with pytest.raises(ValueError, match="rz angle must be a finite number, got True"):
        Gate.rz(0, True)
    with pytest.raises(ValueError, match="sx qubit indices must be 0 or 1, got True"):
        Gate.sx(True)
    with pytest.raises(ValueError, match="cnot qubit indices must be 0 or 1, got False, True"):
        Gate.cnot(False, True)
    assert Gate.x(np.int64(1)).qubit == 1


@pytest.mark.parametrize("make, message", [
    (lambda: Gate("sx", qubit=0, angle=1.0), "^sx: unknown key 'angle'; expected one of qubit$"),
    (lambda: Gate("rz", qubit=0, angle=1.0, target=1), "^rz: unknown key 'target'"),
    (lambda: Gate("cnot", qubit=0, control=0, target=1), "^cnot: unknown key 'qubit'"),
    (lambda: Gate.x(1.0), "^x qubit indices must be 0 or 1, got 1.0$"),
    (lambda: Gate.cnot(np.float64(0.0), 1), "^cnot qubit indices must be 0 or 1, got "),
], ids=["sx-angle", "rz-target", "cnot-qubit", "float-qubit", "numpy-float-control"])
def test_a_gate_refuses_a_field_its_kind_does_not_write(make, message):
    """A field that ``matrix`` would ignore and ``to_dict`` drop, or a qubit
    index that is no integer, fails naming it, so that every gate equals the
    gate its JSON reads back as."""
    with pytest.raises(ValueError, match=message):
        make()


def test_a_gate_stores_numpy_integer_indices_as_ints():
    gates = (Gate.rz(np.int64(0), 1.0), Gate.sx(np.int8(1)), Gate.cnot(np.uint8(1), np.int32(0)))
    assert all(type(q) is int for g in gates for q in g.qubits())
    circuit = Circuit(gates)
    assert Circuit.from_json(circuit.to_json()) == circuit
    assert circuit.to_json() == Circuit((Gate.rz(0, 1.0), Gate.sx(1), Gate.cnot(1, 0))).to_json()


@pytest.mark.parametrize("record, message", [
    ({"kind": "sx", "qubit": 0, "angle": 1.0}, "unknown key 'angle'; expected one of kind, qubit"),
    ({"kind": "cnot", "control": 0, "target": 1, "qubitt": 3}, "unknown key 'qubitt'"),
    ({"kind": "rz", "qubit": 0, "angle": True}, "rz angle must be a finite number, got True"),
    ({"kind": "h", "qubit": 0}, "unknown gate kind 'h'"),
    ({"kind": {}, "qubit": 0}, r"unknown gate kind \{\}"),
    ({"kind": [], "qubit": 0}, r"unknown gate kind \[\]"),
    ({"qubit": 0}, "missing key 'kind'"),
    ({"kind": "cnot", "control": 1, "target": 1}, "cnot control and target must differ"),
    ({"kind": "sx", "qubit": True}, "sx qubit indices must be 0 or 1, got True"),
    ({"kind": "cnot", "control": False, "target": True},
     "cnot qubit indices must be 0 or 1, got False, True"),
    ({"kind": "sx", "qubit": 1.0}, "sx qubit indices must be 0 or 1, got 1.0"),
], ids=["sx-angle", "cnot-typo", "bool-angle", "unknown-kind", "object-kind", "list-kind",
        "no-kind", "cnot-same-qubit", "bool-qubit", "bool-cnot-indices", "float-qubit"])
def test_circuit_json_rejects_bad_gate_records_naming_them(record, message):
    with pytest.raises(ValueError, match=rf"^gates\[1\]: {message}"):
        Circuit.from_json(json.dumps([{"kind": "x", "qubit": 1}, record]))
    with pytest.raises(ValueError, match=rf"^gate: {message}"):
        Gate.from_dict(record, "gate")


@pytest.mark.parametrize("load, text", [
    (Circuit.load, '[{"kind": "x", "qubit": 0}] \u00e9'),
    (DeviceCalibration.load, '{"qubits": [{"id": 0, "t1_us": 100.0, "t2_us": 80.0}]} \u00e9'),
], ids=["circuit", "calibration"])
def test_a_file_that_is_not_utf8_fails_naming_its_path(tmp_path, load, text):
    """Read in the locale's encoding, a Latin-1 file failed without its path."""
    path = tmp_path / "latin1.json"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: 'utf-8' codec can't decode "
                                         f"byte 0xe9 in position"):
        load(path)


def test_circuit_json_roundtrip():
    c = synthesize_ms_circuit()
    again = Circuit.from_json(c.to_json())
    assert again == c
    assert np.allclose(circuit_unitary(again), circuit_unitary(c))


def test_circuit_unitary_is_built_once_read_only():
    c = synthesize_ms_circuit()
    u = circuit_unitary(c)
    assert circuit_unitary(c) is u
    assert not u.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        u[0, 0] = 0.0
    fresh = Circuit(synthesize_ms_circuit().gates)  # the builtin itself is one shared instance
    assert fresh == c and hash(fresh) == hash(c)
    assert circuit_unitary(fresh) is not u
    assert circuit_unitary(fresh).tobytes() == u.tobytes()


@pytest.mark.parametrize("gate", [Gate.rz(0, np.pi / 2), Gate.rz(1, -0.0), Gate.sx(0),
                                  Gate.sx(1), Gate.x(0), Gate.x(1)], ids=repr)
def test_a_gate_builds_its_factor_once_read_only_and_lifts_it_per_call(gate):
    """The lift is ``np.kron`` of the 2x2 factor formula, bit for bit, and a
    new array per call; the factor is the gate's own, read-only."""
    if gate.kind == "rz":
        u = np.array([[np.exp(-1j * gate.angle / 2), 0], [0, np.exp(1j * gate.angle / 2)]])
    else:
        u = {"sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]), "x": PAULI_X}[gate.kind]
    expected = np.kron(u, I2) if gate.qubit == 0 else np.kron(I2, u)
    first = gate.matrix()
    assert first.tobytes() == expected.tobytes() and gate.matrix() is not first
    assert gate._factor is gate._factor and not gate._factor.flags.writeable


@pytest.mark.parametrize("make_circuit", [synthesize_ms_circuit, cx_circuit])
def test_builtin_circuit_is_one_shared_instance_with_a_read_only_channel(make_circuit):
    c = make_circuit()
    assert make_circuit() is c
    assert not circuit_unitary(c).flags.writeable
    kraus = c._channel.kraus_operators()
    assert make_circuit()._channel.kraus_operators() is kraus
    assert not kraus.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        kraus[0, 0, 0] = 0.0


@given(circuit=circuits)
def test_circuit_json_roundtrip_keeps_the_gates(circuit):
    again = Circuit.from_json(circuit.to_json())
    assert again.gates == circuit.gates
    assert again.to_json() == circuit.to_json()
    # Written once per circuit, as json.dumps writes the gate records.
    assert circuit.to_json() is circuit.to_json()
    assert circuit.to_json() == json.dumps([g.to_dict() for g in circuit.gates])
