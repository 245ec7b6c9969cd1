"""Device-calibration data model and the error channels derived from it.

A calibration snapshot carries per-qubit T1/T2 and readout error plus gate
durations. ``NoiseModel(calibration, qubits)`` derives every channel from it
and the device qubit pair alone, so a model's fingerprint names all it holds:
a thermal-relaxation channel after every gate on the acted qubits, a
two-qubit depolarizing channel after each CNOT, and a classical confusion
matrix at readout. Frequency and anharmonicity are carried as metadata only.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .channels import QuantumChannel, _nonzero, depolarizing_channel, identity_channel
from .circuits import GATE_KINDS, Circuit, _check_record, _is_number, _load, _parse, _show
from .linalg import I2, PAULI_Z, kron
from .tomography import exact_process_fidelity

DEFAULT_DURATIONS_NS = {"rz": 0.0, "sx": 35.0, "cnot": 300.0}
CALIBRATION_KEYS = ("qubits", "durations_ns", "p_dep")
_FIT_MAX_STEPS = 80  # fit_depolarizing's cap; one-CNOT circuits need 1
# Optional per-qubit fields: written only when set, read as None when absent.
_OPTIONAL_QUBIT_KEYS = ("frequency_ghz", "anharmonicity_ghz", "readout_error_01",
                        "readout_error_10")
QUBIT_KEYS = ("id", "t1_us", "t2_us", "readout_error") + _OPTIONAL_QUBIT_KEYS
_REQUIRED_QUBIT_KEYS = ("id", "t1_us", "t2_us")


def _plain(value):  # a numpy scalar as the Python number that JSON writes; else as given
    return value.item() if isinstance(value, np.generic) else value


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
        for name in ("qubit", *QUBIT_KEYS[1:]):
            object.__setattr__(self, name, _plain(getattr(self, name)))
        if not isinstance(self.qubit, numbers.Integral) or isinstance(self.qubit, bool):
            raise ValueError(f"qubit id {self.qubit!r} is not an integer")
        for name in QUBIT_KEYS[1:]:
            value = getattr(self, name)
            if not _is_number(value) and (value is not None or name not in _OPTIONAL_QUBIT_KEYS):
                raise ValueError(f"qubit {self.qubit}: {name} = {_show(value)} is not a number")
        for name in ("t1_us", "t2_us", "frequency_ghz", "anharmonicity_ghz"):  # JSON has no NaN/inf
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
        object.__setattr__(self, "p_dep", _plain(self.p_dep))
        if not _is_number(self.p_dep) or not 0.0 <= self.p_dep <= 1.0:
            raise ValueError(f"p_dep = {_show(self.p_dep)} is not a number in [0, 1]")
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if not self.qubits:
            raise ValueError("qubits: a calibration needs at least one qubit")
        ids = [q.qubit for q in self.qubits]
        duplicates = sorted({i for i in ids if ids.count(i) > 1})
        if duplicates:
            raise ValueError(f"duplicate qubit id {', '.join(map(str, duplicates))}")
        _check_record(self.durations_ns, (), GATE_KINDS, "durations_ns")  # null too
        durations = {**DEFAULT_DURATIONS_NS, **self.durations_ns}
        durations.setdefault("x", durations["sx"])  # X is a single pulse, like SX
        for key, value in durations.items():
            durations[key] = value = _plain(value)
            if not _is_number(value) or not math.isfinite(value):
                raise ValueError(f"durations_ns[{key!r}] = {_show(value)} is not a finite number")
            if value < 0:
                raise ValueError(f"durations_ns[{key!r}] = {value} is negative")
        object.__setattr__(self, "durations_ns", MappingProxyType(durations))

    def __hash__(self):  # == compares durations_ns as a dict, whatever its key order
        return hash((self.qubits, frozenset(self.durations_ns.items()), self.p_dep))

    def qubit(self, index: int) -> QubitCalibration:
        for q in self.qubits:
            if q.qubit == index:
                return q
        raise ValueError(f"no calibration for qubit {index}")

    def with_p_dep(self, p_dep: float) -> "DeviceCalibration":
        return DeviceCalibration(self.qubits, dict(self.durations_ns), p_dep)

    def to_dict(self) -> dict:
        qubits = [{"id": q.qubit, **{key: getattr(q, key) for key in QUBIT_KEYS[1:]
                                     if getattr(q, key) is not None}} for q in self.qubits]
        return {"qubits": qubits, "durations_ns": dict(self.durations_ns), "p_dep": self.p_dep}

    @staticmethod
    def from_dict(d: dict) -> "DeviceCalibration":
        _check_record(d, ("qubits",), CALIBRATION_KEYS, "calibration")
        if not isinstance(d["qubits"], list):
            raise ValueError("calibration: qubits must be a list of qubit records")
        for i, rec in enumerate(d["qubits"]):
            _check_record(rec, _REQUIRED_QUBIT_KEYS, QUBIT_KEYS, f"qubits[{i}]")
        records = [{"readout_error": 0.0, **rec} for rec in d["qubits"]]
        qubits = [QubitCalibration(rec.pop("id"), **rec) for rec in records]
        return DeviceCalibration(qubits, d.get("durations_ns", {}), d.get("p_dep", 0.0))

    def to_json(self) -> str:
        return self._json

    @functools.cached_property
    def _json(self) -> str:  # built on first use, for the file and the fingerprint; not a field
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "DeviceCalibration":
        return DeviceCalibration.from_dict(_parse(text, "calibration"))

    @staticmethod
    def load(path) -> "DeviceCalibration":
        """Read a calibration file; a malformed one fails naming its path."""
        return _load(path, DeviceCalibration.from_json)

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]


def damping_channel(t1_us: float, t2_us: float, duration_ns: float) -> QuantumChannel:
    """Single-qubit relaxation over ``duration_ns``: amplitude damping with
    gamma = 1 - exp(-t/T1) composed with pure dephasing at rate
    1/Tphi = 1/T2 - 1/(2*T1). Its arguments are checked; the closed-form
    Kraus set, complete by construction, is stored as it is."""
    for name, value in (("t1_us", t1_us), ("t2_us", t2_us), ("duration_ns", duration_ns)):
        if not _is_number(value) or math.isnan(value):
            raise ValueError(f"{name} = {_show(value)} is not a number")
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
    deph = [math.sqrt(1 - p_z) * I2, math.sqrt(p_z) * PAULI_Z]
    return QuantumChannel("kraus", _nonzero([d @ a for d in deph for a in amp]))


def _check_pair(qubits) -> tuple[int, int]:
    """``qubits`` as a tuple of ints, if it holds two distinct integer qubit ids."""
    if not (isinstance(qubits, (tuple, list)) and len(qubits) == 2
            and all(isinstance(q, numbers.Integral) and not isinstance(q, bool) for q in qubits)
            and qubits[0] != qubits[1]):
        raise ValueError(f"qubits must be two distinct integer qubit ids, got {qubits!r}")
    return tuple(map(int, qubits))


def confusion_matrix(cal: DeviceCalibration, qubits: tuple[int, int] = (0, 1)) -> np.ndarray:
    """4x4 row-stochastic confusion, entry [true, read] = P(read | true), of
    two distinct device qubits. Applies to outcome distributions, never to
    quantum states."""
    qubits = _check_pair(qubits)
    c0 = cal.qubit(qubits[0]).confusion_1q()
    c1 = cal.qubit(qubits[1]).confusion_1q()
    return kron(c0, c1).real


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Concrete error channels for each circuit layer, plus readout confusion,
    derived from a calibration snapshot and the two distinct device qubits
    that register qubits 0 and 1 stand for, and from nothing else.

    Each gate's noise follows its ideal unitary: relaxation on the acted
    qubits for the gate's duration, and after a CNOT, when p_dep > 0, the
    two-qubit depolarizing channel (``cnot_channel``, by
    ``QuantumChannel.depolarized``). ``single_qubit`` is read-only and maps
    (kind, qubit) to a 2-qubit channel, or None for the identity; ``x``
    shares ``sx``'s at equal duration. ``confusion`` is always the 4x4 matrix.
    ``fingerprint`` covers the calibration and the qubit pair.

    p_dep enters only ``cnot_channel`` and ``fingerprint``: a ``with_p_dep``
    sibling holds every other channel, and the confusion, as the same object.
    A QPT of several siblings in one pass (``tomography.run_qpt``) relies on
    that: it runs each shared step once and only the CNOT channel per model.
    """

    calibration: DeviceCalibration
    qubits: tuple[int, int] = (0, 1)
    single_qubit: Mapping = field(init=False)
    cnot_relaxation: QuantumChannel | None = field(init=False)
    confusion: np.ndarray = field(init=False)
    cnot_channel: QuantumChannel | None = field(init=False)
    fingerprint: str = field(init=False)
    # The family's QPT inputs under "inputs" and one circuit's head under "head",
    # each filled on first use by ``tomography`` (``_holder``) and shared by
    # every ``with_p_dep`` sibling: the p_dep-free work of a QPT.
    _prepared: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        cal, qubits = self.calibration, _check_pair(self.qubits)
        if not isinstance(cal, DeviceCalibration):
            raise ValueError(f"calibration: expected a DeviceCalibration, got {type(cal).__name__}")
        single, lifted = {}, {}  # lifted: (position, duration) -> channel, so x shares sx's
        for kind in ("rz", "sx", "x"):
            dur = cal.durations_ns.get(kind, 0.0)
            for pos, device_q in enumerate(qubits):
                q = cal.qubit(device_q)
                if dur > 0 and (pos, dur) not in lifted:
                    lifted[(pos, dur)] = _lift(damping_channel(q.t1_us, q.t2_us, dur), pos)
                single[(kind, pos)] = lifted.get((pos, dur))  # None where dur <= 0

        dur_cnot = cal.durations_ns.get("cnot", 0.0)
        q0, q1 = (cal.qubit(qubits[0]), cal.qubit(qubits[1]))
        relaxation = (damping_channel(q0.t1_us, q0.t2_us, dur_cnot).tensor(
            damping_channel(q1.t1_us, q1.t2_us, dur_cnot)) if dur_cnot > 0 else None)
        for name, value in (("qubits", qubits), ("single_qubit", MappingProxyType(single)),
                            ("cnot_relaxation", relaxation),
                            ("confusion", confusion_matrix(cal, qubits))):
            object.__setattr__(self, name, value)
        self._derive_cnot_and_fingerprint()

    def _derive_cnot_and_fingerprint(self):
        """Set the fields that the calibration's p_dep enters."""
        cnot_ch, p_dep = self.cnot_relaxation, self.calibration.p_dep
        if p_dep > 0:
            cnot_ch = depolarizing_channel(p_dep) if cnot_ch is None else cnot_ch.depolarized(p_dep)
        object.__setattr__(self, "cnot_channel", cnot_ch)
        # The pair selects which qubits' T1/T2 and readout enter, so it is provenance.
        provenance = json.dumps({"calibration": self.calibration.to_dict(),
                                 "qubits": list(self.qubits)}, sort_keys=True).encode()
        object.__setattr__(self, "fingerprint", hashlib.sha256(provenance).hexdigest()[:16])

    def with_p_dep(self, p_dep: float) -> "NoiseModel":
        """The model of the calibration at ``p_dep``, equal to a fresh
        ``NoiseModel`` of it: a shallow copy with a new calibration, CNOT
        channel and fingerprint, and no other channel built. It shares
        ``cnot_relaxation``, whose Pauli products and Choi plan are built once
        (``QuantumChannel.depolarized``), and the ``_prepared`` holder: the QPT
        inputs and the head of the last circuit run, the stack after its gates
        before its first CNOT, which act alike at every p_dep."""
        sibling = copy.copy(self)
        object.__setattr__(sibling, "calibration", self.calibration.with_p_dep(p_dep))
        sibling._derive_cnot_and_fingerprint()
        return sibling

    def channel_for(self, gate) -> QuantumChannel | None:
        if gate.kind == "cnot":
            return self.cnot_channel
        return self.single_qubit.get((gate.kind, gate.qubit))


_IDENTITY_1Q = identity_channel(2)


def _lift(ch: QuantumChannel, qubit: int) -> QuantumChannel:
    return ch.tensor(_IDENTITY_1Q) if qubit == 0 else _IDENTITY_1Q.tensor(ch)


def build_noise_model(cal: DeviceCalibration, qubits: tuple[int, int] = (0, 1)) -> NoiseModel:
    """``NoiseModel(cal, qubits)``: the model that the calibration snapshot
    and the device qubit pair derive (see ``NoiseModel``)."""
    return NoiseModel(cal, qubits)


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
    build_noise_model(cal.with_p_dep(p_dep)))``. The fit builds one model,
    at p_dep = 0, and evaluates each further p on its ``with_p_dep(p)``, so
    only the CNOT channel is built per evaluation: the relaxation's Pauli
    products are scaled, summed into a Choi state and split into its Kraus
    set, and the products and the sum's plan are built once per fit. The
    bracket's ends, F(0) and F(1), come from one ``exact_process_fidelity``
    call on the two siblings, which runs each step before the first CNOT
    channel once for both (``simulator.apply_gates``), so F(1) is computed
    even where F(0) alone ends the fit. The target, the ideal channel that
    ``exact_process_fidelity`` caches on ``circuit``, is built once per
    circuit instance, so its Choi ``eigh`` is taken once per fit, not once
    per evaluation, and once per process for a builtin circuit, whose
    instance is shared.

    Regula falsi on [0, 1] with the Illinois step (Dowell & Jarratt, BIT 11,
    168, 1971): each secant through the bracket ends is evaluated, replaces the
    end on its side, and an end kept twice in a row has its residual halved so
    the bracket keeps shrinking. For the one-CNOT circuits F(p) is affine, so
    the first secant lands on the target and a fit costs the paired F(0) and
    F(1) and one verifying evaluation. Circuits with more CNOTs converge in a
    few more.
    """
    if not _is_number(target_fidelity):
        raise ValueError(f"target fidelity must be a number, got {_show(target_fidelity)}")
    if not 0.0 < target_fidelity <= 1.0:
        raise ValueError("target fidelity must be in (0, 1]")
    if not _is_number(tol) or not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be a finite positive number, got {_show(tol)}")

    base = build_noise_model(cal.with_p_dep(0.0))

    def fidelity_at(p: float) -> float:
        return exact_process_fidelity(circuit, base.with_p_dep(p))

    f_zero, f_hi = exact_process_fidelity(circuit, (base, base.with_p_dep(1.0)))
    if f_zero < target_fidelity - tol:
        raise UnachievableTargetError(
            f"target fidelity {target_fidelity} above the p=0 fidelity {f_zero:.6f}"
        )
    if abs(f_zero - target_fidelity) <= tol:
        return 0.0, f_zero
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
