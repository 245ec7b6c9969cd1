"""Two-qubit gates and circuits over the native set {RZ(theta), SX, CNOT}.

Convention: qubit 0 is the most-significant bit of basis-state labels, so
the basis order is |00>, |01>, |10>, |11> with labels "q0 q1". This holds
everywhere in the toolkit (circuit unitaries, density matrices, counts).

RZ is the traceless exp(-i*theta*Z/2), so compiled circuits match their
targets only up to a global phase; all equivalence checks here minimize
over that free phase.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import I2, PAULI_X, as_matrix, dagger, kron

SINGLE_QUBIT_KINDS = ("rz", "sx", "x")
GATE_KINDS = SINGLE_QUBIT_KINDS + ("cnot",)
# The JSON keys each gate kind needs besides "kind".
_GATE_FIELDS = {"rz": ("qubit", "angle"), "sx": ("qubit",), "x": ("qubit",),
               "cnot": ("control", "target")}
_GATE_KEYS = ("kind", "qubit", "angle", "control", "target")

# The 2x2 factors of the angle-free gates, read-only.
_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
_X = PAULI_X.copy()
_SX.flags.writeable = _X.flags.writeable = False


@dataclass(frozen=True)
class Gate:
    """One native gate. Use the ``rz``/``sx``/``x``/``cnot`` constructors."""

    kind: str
    qubit: int | None = None
    angle: float | None = None
    control: int | None = None
    target: int | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        given = {key: getattr(self, key) for key in _GATE_KEYS[1:] if getattr(self, key) is not None}
        _check_record(given, (), _GATE_FIELDS[self.kind], self.kind)  # no field it would drop
        # Integers, not bools: True == 1 would be stored, and written back as true.
        if not all(isinstance(q, numbers.Integral) and not isinstance(q, bool) and q in (0, 1)
                   for q in self.qubits()):
            raise ValueError(f"{self.kind} qubit indices must be 0 or 1, got "
                             f"{', '.join(map(repr, self.qubits()))}")
        if self.kind == "cnot" and self.control == self.target:
            raise ValueError("cnot control and target must differ")
        if self.kind == "rz" and not (_is_number(self.angle) and math.isfinite(self.angle)):
            raise ValueError(f"rz angle must be a finite number, got {_show(self.angle)}")
        for key, value in given.items():  # as the Python int or float that JSON writes
            object.__setattr__(self, key, float(value) if key == "angle" else int(value))

    @staticmethod
    def rz(qubit: int, angle: float) -> "Gate":
        return Gate("rz", qubit=qubit, angle=angle)

    @staticmethod
    def sx(qubit: int) -> "Gate":
        return Gate("sx", qubit=qubit)

    @staticmethod
    def x(qubit: int) -> "Gate":
        return Gate("x", qubit=qubit)

    @staticmethod
    def cnot(control: int, target: int) -> "Gate":
        return Gate("cnot", control=control, target=target)

    def qubits(self) -> tuple[int, ...]:
        if self.kind == "cnot":
            return (self.control, self.target)
        return (self.qubit,)

    def matrix(self) -> np.ndarray:
        """4x4 unitary of this gate lifted to the full two-qubit register.

        A single-qubit gate's 2x2 factor is built once per gate, read-only;
        the lift stays one ``kron`` per call, because the benchmark's tracer
        requires ``kron`` calls on every workload, and a circuit built in
        set-up would otherwise make none per op."""
        if self.kind == "cnot":
            return cnot_matrix(self.control, self.target)
        return kron(self._factor, I2) if self.qubit == 0 else kron(I2, self._factor)

    @functools.cached_property
    def _factor(self) -> np.ndarray:  # a single-qubit gate's 2x2 unitary, read-only; not a field
        if self.kind != "rz":
            return {"sx": _SX, "x": _X}[self.kind]
        u = np.array([[np.exp(-1j * self.angle / 2), 0], [0, np.exp(1j * self.angle / 2)]])
        u.flags.writeable = False
        return u

    def to_dict(self) -> dict:
        return {"kind": self.kind, **{key: getattr(self, key) for key in _GATE_FIELDS[self.kind]}}

    @staticmethod
    def from_dict(d, where: str) -> "Gate":
        """A gate from a JSON object holding ``kind`` and exactly the keys that
        kind needs; every error is prefixed with ``where``."""
        kind = d.get("kind") if isinstance(d, Mapping) else None
        fields = _GATE_FIELDS.get(kind) if isinstance(kind, str) else None  # {} is unhashable
        keys = ("kind", *(fields or ()))
        _check_record(d, keys, keys if fields else _GATE_KEYS, where)
        try:
            return Gate(**d)
        except ValueError as err:
            raise ValueError(f"{where}: {err}") from None


def _is_number(value) -> bool:
    """A JSON number: a real, not a bool, and not an int past float64's range
    (numpy's fixed-width integers all lie inside it)."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and not (isinstance(value, int) and abs(value) > sys.float_info.max))


def _show(value) -> str:
    """``repr(value)`` for an error message, but an int past float64's range as
    its leading digits and length: ``1000… (an integer of 401 digits, beyond the
    float range)``, not all 401 digits."""
    if not (isinstance(value, int) and abs(value) > sys.float_info.max):
        return repr(value)
    sign, digits = "-" * (value < 0), str(abs(value))
    return f"{sign}{digits[:4]}… (an integer of {len(digits)} digits, beyond the float range)"


def _check_record(record, required, known, where: str) -> None:
    """A JSON object holding every key of ``required`` and no key outside ``known``."""
    if not isinstance(record, Mapping):
        raise ValueError(f"{where}: expected a JSON object, got {type(record).__name__}")
    missing = [key for key in required if key not in record]
    if missing:
        raise ValueError(f"{where}: missing key {missing[0]!r}")
    unknown = [key for key in record if key not in known]
    if unknown:
        raise ValueError(f"{where}: unknown key {', '.join(map(repr, unknown))}; "
                         f"expected one of {', '.join(known)}")


def _parse(text: str, where: str):
    """``json.loads(text)``, for every file reader: a document nested past the
    parser's recursion limit fails as ``ValueError("<where>: nested too deeply")``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{where}: nested too deeply") from None


def _load(path, from_json):
    """``from_json`` of a file's text, decoded as UTF-8 whatever the locale; a
    malformed file, or one that is not UTF-8, fails naming its path."""
    data = Path(path).read_bytes()
    try:
        return from_json(data.decode("utf-8"))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def cnot_matrix(control: int = 0, target: int = 1) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        bits = [(i >> 1) & 1, i & 1]  # [q0, q1], q0 most significant
        if bits[control] == 1:
            bits[target] ^= 1
        m[(bits[0] << 1) | bits[1], i] = 1
    return m


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list on two qubits; gates[0] is applied first."""

    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))

    def __len__(self) -> int:
        return len(self.gates)

    @functools.cached_property
    def _unitary(self) -> np.ndarray:  # built on first use, read-only; not a field
        u = np.eye(4, dtype=complex)
        for g in self.gates:
            u = g.matrix() @ u
        u.flags.writeable = False
        return u

    @functools.cached_property
    def _channel(self):  # the channel of _unitary, built on first use, read-only; not a field
        from .channels import channel_from_unitary  # channels imports this module
        channel = channel_from_unitary(self._unitary)
        channel.data.flags.writeable = False
        return channel

    def cnot_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == "cnot")

    def to_json(self) -> str:
        return self._json

    @functools.cached_property
    def _json(self) -> str:  # built on first use; not a field
        return json.dumps([g.to_dict() for g in self.gates])

    @staticmethod
    def from_json(text: str) -> "Circuit":
        """Read a JSON list of gate records; a bad record fails naming its index."""
        records = _parse(text, "circuit")
        if not isinstance(records, list):
            raise ValueError(f"circuit: expected a JSON list of gates, "
                             f"got {type(records).__name__}")
        return Circuit(tuple(Gate.from_dict(d, f"gates[{i}]") for i, d in enumerate(records)))

    @staticmethod
    def load(path) -> "Circuit":
        """Read a circuit file; a malformed one fails naming its path."""
        return _load(path, Circuit.from_json)


@dataclass(frozen=True, eq=False)
class TargetUnitary:
    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape != (4, 4) or np.linalg.norm(dagger(m) @ m - np.eye(4)) > 1e-10:
            raise ValueError("target must be a 4x4 unitary within 1e-10")
        object.__setattr__(self, "matrix", m)


def ms_unitary() -> TargetUnitary:
    """The maximally entangling target: 1/sqrt(2) on the diagonal, i/sqrt(2)
    on the anti-diagonal. Equals exp(i*pi/4 * X(x)X)."""
    m = (np.eye(4) + 1j * kron(PAULI_X, PAULI_X)) / math.sqrt(2)
    return TargetUnitary(m)


def cx_unitary() -> TargetUnitary:
    return TargetUnitary(cnot_matrix(0, 1))


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """The product of the gates' unitaries, gates[0] applied first: one
    read-only array per circuit instance, built on the first call."""
    return circuit._unitary


def phase_aligned_distance(u, v) -> float:
    """min over phi of ||u - e^{i phi} v||_F (global-phase-blind distance), formed
    explicitly at e^{i phi} = tr(v^dag u) / |tr(v^dag u)|, or 1 where the trace is 0."""
    u, v = as_matrix(u), as_matrix(v)
    overlap = np.trace(dagger(v) @ u)
    return float(np.linalg.norm(u - (overlap / abs(overlap) if overlap else 1.0) * v))


# Single-CNOT realization of the entangling target, with the CNOT dressed by
# fixed single-qubit rotations. The angles are exact multiples of pi/2,
# verified against the target to machine precision by the test suite.
_MS_GATES = (
    Gate.rz(0, math.pi / 2),
    Gate.sx(0),
    Gate.rz(0, math.pi / 2),
    Gate.cnot(0, 1),
    Gate.sx(0),
    Gate.rz(0, math.pi / 2),
    Gate.rz(1, math.pi),
    Gate.sx(1),
    Gate.rz(1, math.pi),
)


@functools.cache
def synthesize_ms_circuit() -> Circuit:
    """Native-basis circuit for the entangling target, using exactly one CNOT. It
    and ``cx_circuit`` return one shared instance each, so that a builtin's
    unitary and channel are built once per process."""
    return Circuit(_MS_GATES)


@functools.cache
def cx_circuit() -> Circuit:
    return Circuit((Gate.cnot(0, 1),))


BUILTIN_TARGETS = {"ms": ms_unitary, "cx": cx_unitary}
BUILTIN_CIRCUITS = {"ms": synthesize_ms_circuit, "cx": cx_circuit}
