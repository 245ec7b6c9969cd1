import json

import numpy as np
import pytest
from hypothesis import given

from msbench.circuits import (
    Circuit,
    Gate,
    circuit_unitary,
    cnot_matrix,
    cx_circuit,
    cx_unitary,
    makhlin_invariants,
    ms_unitary,
    phase_aligned_distance,
    synthesize_ms_circuit,
)
from msbench.linalg import I2, PAULI_X, kron

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
    for _ in range(5):
        u = random_unitary(rng, 4)
        theta = rng.uniform(0, 2 * np.pi)
        assert phase_aligned_distance(u, np.exp(1j * theta) * u) <= 1e-9
    # and positive for genuinely different unitaries
    assert phase_aligned_distance(np.eye(4), cnot_matrix()) > 1.0


def test_makhlin_identity():
    g1, g2 = makhlin_invariants(np.eye(4, dtype=complex))
    assert g1 == pytest.approx(1.0, abs=1e-9)
    assert g2 == pytest.approx(3.0, abs=1e-9)


def test_makhlin_cnot():
    g1, g2 = makhlin_invariants(cnot_matrix())
    assert abs(g1) <= 1e-9
    assert g2 == pytest.approx(1.0, abs=1e-9)


def test_makhlin_ms_matches_cnot():
    g1_ms, g2_ms = makhlin_invariants(ms_unitary().matrix)
    g1_cx, g2_cx = makhlin_invariants(cnot_matrix())
    assert abs(g1_ms - g1_cx) <= 1e-9
    assert g2_ms == pytest.approx(g2_cx, abs=1e-9)


def test_makhlin_rejects_nonunitary():
    with pytest.raises(ValueError):
        makhlin_invariants(np.ones((4, 4)))


def test_makhlin_local_invariance(rng):
    u = cnot_matrix()
    g1_ref, g2_ref = makhlin_invariants(u)
    for _ in range(8):
        dressed = (
            kron(random_unitary(rng, 2), random_unitary(rng, 2))
            @ u
            @ kron(random_unitary(rng, 2), random_unitary(rng, 2))
        )
        g1, g2 = makhlin_invariants(dressed)
        assert abs(g1 - g1_ref) <= 1e-8
        assert abs(g2 - g2_ref) <= 1e-8


def test_synthesized_circuit_has_one_cnot():
    assert synthesize_ms_circuit().cnot_count() == 1


def test_synthesized_circuit_matches_target():
    c = synthesize_ms_circuit()
    assert phase_aligned_distance(circuit_unitary(c), ms_unitary().matrix) <= 1e-9


def test_synthesized_circuit_invariants_match_cnot():
    g1_c, g2_c = makhlin_invariants(circuit_unitary(synthesize_ms_circuit()))
    g1_x, g2_x = makhlin_invariants(cnot_matrix())
    assert abs(g1_c - g1_x) <= 1e-9
    assert g2_c == pytest.approx(g2_x, abs=1e-9)


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
    lhs = circuit_unitary(a.concat(b))
    rhs = circuit_unitary(b) @ circuit_unitary(a)
    assert np.allclose(lhs, rhs, atol=1e-12)


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


@pytest.mark.parametrize("record, message", [
    ({"kind": "sx", "qubit": 0, "angle": 1.0}, "unknown key 'angle'; expected one of kind, qubit"),
    ({"kind": "cnot", "control": 0, "target": 1, "qubitt": 3}, "unknown key 'qubitt'"),
    ({"kind": "rz", "qubit": 0, "angle": True}, "rz angle must be a finite number, got True"),
    ({"kind": "h", "qubit": 0}, "unknown gate kind 'h'"),
    ({"qubit": 0}, "missing key 'kind'"),
    ({"kind": "cnot", "control": 1, "target": 1}, "cnot control and target must differ"),
    ({"kind": "sx", "qubit": True}, "sx qubit indices must be 0 or 1, got True"),
    ({"kind": "cnot", "control": False, "target": True},
     "cnot qubit indices must be 0 or 1, got False, True"),
], ids=["sx-angle", "cnot-typo", "bool-angle", "unknown-kind", "no-kind", "cnot-same-qubit",
        "bool-qubit", "bool-cnot-indices"])
def test_circuit_json_rejects_bad_gate_records_naming_them(record, message):
    with pytest.raises(ValueError, match=rf"^gates\[1\]: {message}"):
        Circuit.from_json(json.dumps([{"kind": "x", "qubit": 1}, record]))
    with pytest.raises(ValueError, match=rf"^gate: {message}"):
        Gate.from_dict(record, "gate")


def test_circuit_json_roundtrip():
    c = synthesize_ms_circuit()
    again = Circuit.from_json(c.to_json())
    assert again == c
    assert np.allclose(circuit_unitary(again), circuit_unitary(c))


@given(circuit=circuits)
def test_circuit_json_roundtrip_keeps_the_gates(circuit):
    again = Circuit.from_json(circuit.to_json())
    assert again.gates == circuit.gates
    assert again.to_json() == circuit.to_json()
