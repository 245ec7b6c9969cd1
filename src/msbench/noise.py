"""Device-calibration data model and the error channels derived from it.

A calibration snapshot carries per-qubit T1/T2 and readout error plus gate
durations; the noise model it builds attaches a thermal-relaxation channel
after every gate on the acted qubits, a two-qubit depolarizing channel after
each CNOT, and a classical confusion matrix at readout. Frequency and
anharmonicity are carried as metadata only.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .channels import QuantumChannel, identity_channel, pauli_basis
from .circuits import GATE_KINDS, Circuit, _check_record, _is_number
from .linalg import I2, kron

DEFAULT_DURATIONS_NS = {"rz": 0.0, "sx": 35.0, "cnot": 300.0}
CALIBRATION_KEYS = ("qubits", "durations_ns", "p_dep")
_FIT_MAX_STEPS = 80  # fit_depolarizing's cap; one-CNOT circuits need 1
# Optional per-qubit fields: written only when set, read as None when absent.
_OPTIONAL_QUBIT_KEYS = ("frequency_ghz", "anharmonicity_ghz", "readout_error_01",
                        "readout_error_10")
QUBIT_KEYS = ("id", "t1_us", "t2_us", "readout_error") + _OPTIONAL_QUBIT_KEYS
_REQUIRED_QUBIT_KEYS = ("id", "t1_us", "t2_us")


class UnachievableTargetError(ValueError):
    """The requested fidelity cannot be reached by tuning the depolarizing knob."""


@dataclass(frozen=True)
class QubitCalibration:
    qubit: int
    t1_us: float
    t2_us: float
    readout_error: float
    frequency_ghz: float | None = None  # metadata only
    anharmonicity_ghz: float | None = None  # metadata only
    readout_error_01: float | None = None  # P(read 1 | prepared 0) override
    readout_error_10: float | None = None  # P(read 0 | prepared 1) override

    def __post_init__(self):
        if not isinstance(self.qubit, numbers.Integral):
            raise ValueError(f"qubit id {self.qubit!r} is not an integer")
        for name in ("t1_us", "t2_us", "readout_error") + _OPTIONAL_QUBIT_KEYS:
            value = getattr(self, name)
            if not _is_number(value) and (value is not None or name not in _OPTIONAL_QUBIT_KEYS):
                raise ValueError(f"qubit {self.qubit}: {name} = {value!r} is not a number")
        for name in ("t1_us", "t2_us"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"qubit {self.qubit}: {name} = nan is not a number")
        for name in ("frequency_ghz", "anharmonicity_ghz"):  # JSON has no NaN or Infinity
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise ValueError(f"qubit {self.qubit}: {name} = {v} is not finite")
        if self.t1_us <= 0 or self.t2_us <= 0:
            raise ValueError(f"qubit {self.qubit}: T1 and T2 must be positive")
        if self.t2_us > 2 * self.t1_us + 1e-12:
            raise ValueError(
                f"qubit {self.qubit}: T2 = {self.t2_us} exceeds 2*T1 = {2 * self.t1_us}"
            )
        for name in ("readout_error", "readout_error_01", "readout_error_10"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"qubit {self.qubit}: {name} = {v} outside [0, 1]")

    def confusion_1q(self) -> np.ndarray:
        """Row-stochastic [true, read] confusion; row t holds P(read | true t)."""
        e01 = self.readout_error if self.readout_error_01 is None else self.readout_error_01
        e10 = self.readout_error if self.readout_error_10 is None else self.readout_error_10
        return np.array([[1 - e01, e01], [e10, 1 - e10]])


@dataclass(frozen=True)
class DeviceCalibration:
    """Calibration snapshot. ``durations_ns`` is stored read-only, filled in
    from ``DEFAULT_DURATIONS_NS`` (and ``x`` from ``sx``) where not given."""

    qubits: tuple[QubitCalibration, ...]
    durations_ns: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_DURATIONS_NS))
    p_dep: float = 0.0

    def __post_init__(self):
        if not _is_number(self.p_dep) or not 0.0 <= self.p_dep <= 1.0:
            raise ValueError(f"p_dep = {self.p_dep!r} is not a number in [0, 1]")
        object.__setattr__(self, "qubits", tuple(self.qubits))
        ids = [q.qubit for q in self.qubits]
        duplicates = sorted({i for i in ids if ids.count(i) > 1})
        if duplicates:
            raise ValueError(f"duplicate qubit id {', '.join(map(str, duplicates))}")
        given = self.durations_ns or {}
        _check_record(given, (), GATE_KINDS, "durations_ns")
        durations = {**DEFAULT_DURATIONS_NS, **given}
        durations.setdefault("x", durations["sx"])  # X is a single pulse, like SX
        for key, value in durations.items():
            if not _is_number(value) or not math.isfinite(value):
                raise ValueError(f"durations_ns[{key!r}] = {value!r} is not a finite number")
            if value < 0:
                raise ValueError(f"durations_ns[{key!r}] = {value} is negative")
        object.__setattr__(self, "durations_ns", MappingProxyType(durations))

    def qubit(self, index: int) -> QubitCalibration:
        for q in self.qubits:
            if q.qubit == index:
                return q
        raise ValueError(f"no calibration for qubit {index}")

    def with_p_dep(self, p_dep: float) -> "DeviceCalibration":
        return DeviceCalibration(self.qubits, dict(self.durations_ns), p_dep)

    def to_dict(self) -> dict:
        qs = []
        for q in self.qubits:
            rec = {
                "id": q.qubit,
                "t1_us": q.t1_us,
                "t2_us": q.t2_us,
                "readout_error": q.readout_error,
            }
            for key in _OPTIONAL_QUBIT_KEYS:
                if getattr(q, key) is not None:
                    rec[key] = getattr(q, key)
            qs.append(rec)
        return {"qubits": qs, "durations_ns": dict(self.durations_ns), "p_dep": self.p_dep}

    @staticmethod
    def from_dict(d: dict) -> "DeviceCalibration":
        _check_record(d, ("qubits",), CALIBRATION_KEYS, "calibration")
        if not isinstance(d["qubits"], list):
            raise ValueError("calibration: qubits must be a list of qubit records")
        for i, rec in enumerate(d["qubits"]):
            _check_record(rec, _REQUIRED_QUBIT_KEYS, QUBIT_KEYS, f"qubits[{i}]")
        qubits = tuple(
            QubitCalibration(
                qubit=rec["id"],
                t1_us=rec["t1_us"],
                t2_us=rec["t2_us"],
                readout_error=rec.get("readout_error", 0.0),
                **{key: rec.get(key) for key in _OPTIONAL_QUBIT_KEYS},
            )
            for rec in d["qubits"]
        )
        return DeviceCalibration(qubits, d.get("durations_ns", {}), d.get("p_dep", 0.0))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "DeviceCalibration":
        return DeviceCalibration.from_dict(json.loads(text))

    @staticmethod
    def load(path) -> "DeviceCalibration":
        """Read a calibration file; a malformed one fails naming its path."""
        with open(path) as fh:
            text = fh.read()
        try:
            return DeviceCalibration.from_json(text)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]


def damping_channel(t1_us: float, t2_us: float, duration_ns: float) -> QuantumChannel:
    """Single-qubit relaxation over ``duration_ns``: amplitude damping with
    gamma = 1 - exp(-t/T1) composed with pure dephasing at rate
    1/Tphi = 1/T2 - 1/(2*T1)."""
    if t1_us <= 0 or t2_us <= 0 or t2_us > 2 * t1_us + 1e-12:
        raise ValueError("require T1 > 0, T2 > 0 and T2 <= 2*T1")
    if duration_ns < 0:
        raise ValueError("duration must be non-negative")
    t_us = duration_ns * 1e-3
    gamma = 1.0 - math.exp(-t_us / t1_us)
    rate_phi = 1.0 / t2_us - 1.0 / (2.0 * t1_us)
    # Phase-flip probability reproducing the exp(-t/Tphi) coherence decay.
    p_z = 0.5 * (1.0 - math.exp(-t_us * rate_phi)) if rate_phi > 1e-15 else 0.0

    amp = [
        np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex),
        np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex),
    ]
    deph = [
        math.sqrt(1 - p_z) * I2,
        math.sqrt(p_z) * np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    ops = [d @ a for d in deph for a in amp]
    return QuantumChannel.from_kraus([k for k in ops if np.linalg.norm(k) > 1e-12])


def depolarizing_channel(p: float, arity: int = 2) -> QuantumChannel:
    """rho -> (1-p) rho + p I/d, as a Pauli Kraus set."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p = {p} outside [0, 1]")
    if arity not in (1, 2):
        raise ValueError("arity must be 1 or 2")
    paulis = pauli_basis(arity)
    d2 = len(paulis)
    ops = [math.sqrt(1 - p + p / d2) * paulis[0]]
    ops += [math.sqrt(p / d2) * pm for pm in paulis[1:]]
    return QuantumChannel.from_kraus([k for k in ops if np.linalg.norm(k) > 1e-12])


def confusion_matrix(cal: DeviceCalibration, qubits: tuple[int, int] = (0, 1)) -> np.ndarray:
    """4x4 row-stochastic confusion, entry [true, read] = P(read | true).
    Applies to outcome distributions, never to quantum states."""
    c0 = cal.qubit(qubits[0]).confusion_1q()
    c1 = cal.qubit(qubits[1]).confusion_1q()
    return kron(c0, c1).real


@dataclass(frozen=True)
class NoiseModel:
    """Concrete error channels for each circuit layer, plus readout confusion.

    ``fingerprint`` covers the calibration and the device qubit pair.
    """

    single_qubit: dict  # (kind, qubit) -> QuantumChannel, 2-qubit, or None if identity
    cnot_channel: QuantumChannel | None
    confusion: np.ndarray | None
    fingerprint: str

    def channel_for(self, gate) -> QuantumChannel | None:
        if gate.kind == "cnot":
            return self.cnot_channel
        return self.single_qubit.get((gate.kind, gate.qubit))


def _lift(ch: QuantumChannel, qubit: int) -> QuantumChannel:
    ident = identity_channel(2)
    return ch.tensor(ident) if qubit == 0 else ident.tensor(ch)


def build_noise_model(cal: DeviceCalibration, qubits: tuple[int, int] = (0, 1)) -> NoiseModel:
    """Assemble per-gate channels from a calibration snapshot.

    Gate noise is attached after the ideal unitary: relaxation on the acted
    qubits for the gate's duration, plus a global depolarizing channel after
    each CNOT when p_dep > 0.
    """
    single: dict = {}
    lifted: dict = {}  # (position, duration) -> channel; x defaults to sx's duration
    for kind in ("rz", "sx", "x"):
        dur = cal.durations_ns.get(kind, 0.0)
        for pos, device_q in enumerate(qubits):
            q = cal.qubit(device_q)
            if dur <= 0:
                single[(kind, pos)] = None
                continue
            if (pos, dur) not in lifted:
                lifted[(pos, dur)] = _lift(damping_channel(q.t1_us, q.t2_us, dur), pos)
            single[(kind, pos)] = lifted[(pos, dur)]

    dur_cnot = cal.durations_ns.get("cnot", 0.0)
    q0, q1 = (cal.qubit(qubits[0]), cal.qubit(qubits[1]))
    cnot_ch: QuantumChannel | None = None
    if dur_cnot > 0:
        cnot_ch = damping_channel(q0.t1_us, q0.t2_us, dur_cnot).tensor(
            damping_channel(q1.t1_us, q1.t2_us, dur_cnot)
        )
    if cal.p_dep > 0:
        dep = depolarizing_channel(cal.p_dep, arity=2)
        cnot_ch = dep if cnot_ch is None else cnot_ch.compose(dep)

    confusion = confusion_matrix(cal, qubits)
    if np.allclose(confusion, np.eye(4), atol=1e-15):
        confusion = None
    # The pair selects which qubits' T1/T2 and readout enter, so it is provenance.
    provenance = json.dumps({"calibration": cal.to_dict(), "qubits": list(qubits)}, sort_keys=True)
    fingerprint = hashlib.sha256(provenance.encode()).hexdigest()[:16]
    return NoiseModel(single, cnot_ch, confusion, fingerprint)


def fit_depolarizing(
    target_fidelity: float,
    circuit: Circuit,
    cal: DeviceCalibration,
    tol: float = 1e-3,
) -> tuple[float, float]:
    """Find the two-qubit depolarizing probability at which the exact-probability
    tomographic fidelity of ``circuit`` under the calibration matches
    ``target_fidelity`` within ``tol``.

    Returns ``(p_dep, fidelity)``: the fitted probability and the fidelity
    the fit evaluated there, equal to ``exact_process_fidelity(circuit,
    build_noise_model(cal.with_p_dep(p_dep)))``.

    Regula falsi on [0, 1] with the Illinois step (Dowell & Jarratt, BIT 11,
    168, 1971): each secant through the bracket ends is evaluated, replaces the
    end on its side, and an end kept twice in a row has its residual halved so
    the bracket keeps shrinking. For the one-CNOT circuits F(p) is affine, so
    the first secant lands on the target and a fit costs F(0), F(1) and one
    verifying evaluation. Circuits with more CNOTs converge in a few more.
    """
    if not 0.0 < target_fidelity <= 1.0:
        raise ValueError("target fidelity must be in (0, 1]")

    from .tomography import exact_process_fidelity  # deferred: avoids an import cycle

    def fidelity_at(p: float) -> float:
        return exact_process_fidelity(circuit, build_noise_model(cal.with_p_dep(p)))

    f_zero = fidelity_at(0.0)
    if f_zero < target_fidelity - tol:
        raise UnachievableTargetError(
            f"target fidelity {target_fidelity} above the p=0 fidelity {f_zero:.6f}"
        )
    if abs(f_zero - target_fidelity) <= tol:
        return 0.0, f_zero
    f_hi = fidelity_at(1.0)
    if f_hi > target_fidelity + tol:
        raise UnachievableTargetError(
            f"target fidelity {target_fidelity} below the p=1 fidelity {f_hi:.6f}"
        )
    if abs(f_hi - target_fidelity) <= tol:
        return 1.0, f_hi
    # Residuals F - target: positive at the low end, negative at the high end.
    lo, r_lo = 0.0, f_zero - target_fidelity
    hi, r_hi = 1.0, f_hi - target_fidelity
    kept = None  # the end that the previous step left in place
    for _ in range(_FIT_MAX_STEPS):
        p = (lo * r_hi - hi * r_lo) / (r_hi - r_lo)
        f = fidelity_at(p)
        r = f - target_fidelity
        if abs(r) <= tol:
            return p, f
        if r > 0:
            lo, r_lo = p, r
            if kept == "hi":
                r_hi *= 0.5
            kept = "hi"
        else:
            hi, r_hi = p, r
            if kept == "lo":
                r_lo *= 0.5
            kept = "lo"
    raise UnachievableTargetError(
        f"false position failed to reach fidelity {target_fidelity} within {tol} "
        f"after {_FIT_MAX_STEPS} false-position steps"
    )
