"""Full two-qubit process tomography.

Experiment design: the 16 product inputs over {|0>, |1>, |+>, |+i>} per
qubit, each measured in the 9 settings {X, Y, Z}^2. Identity-containing
Pauli expectations are obtained from marginals of the measured settings
(averaged over the compatible ones), so the full 16-observable set per
input is available from 9 physical settings.

Reconstruction: the 16 inputs span all 4x4 operators, so the expectation
table fixes the channel exactly; the product frame's closed-form dual
(see ``linear_inversion``) gives the Choi estimate, which is then projected
onto the CPTP set.

Simulation: the 16 preparation prefixes run as a 4+4 tree. Qubit 0's
prefix for each of the 4 tokens runs on |00>, then each of qubit 1's 4
prefixes runs on that stack of 4 states at once: 10 gate applications, not
40. The 16 prepared states go through the process in one ``evolve`` call,
with the arithmetic per state of evolving each full circuit on its own, so
sampled counts are unchanged. One ``outcome_distribution`` call gives all
144 cells' distributions, and one ``sample_counts`` call draws each cell
from its own seed (``_experiment_seeds``, one array hash). Either result, a
(144, 4) array in ``_CELLS`` order, goes unchanged into the dataset, which
checks it once, and on to ``linear_inversion``.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .channels import QuantumChannel, channel_from_unitary, pauli_basis, project_cptp
from .circuits import Circuit, Gate, circuit_unitary
from .linalg import dagger, kron
from .simulator import (
    BITSTRINGS,
    RNG_ALGORITHM,
    CountsRecord,
    apply_gates,
    basis_state,
    compatible,
    distribution_defect,
    evolve,
    expectation,
    outcome_distribution,
    sample_counts,
    spawn_seeds,
    validate_seed,
)

DEFAULT_SEED = 42

SETTINGS = tuple(a + b for a, b in itertools.product("XYZ", "XYZ"))
PAULI_LABELS = tuple(a + b for a, b in itertools.product("IXYZ", "IXYZ"))

# Each token's ideal ket, and the native gates preparing it on qubit q from |0>.
_PREPARATIONS = {
    "0": (np.array([1, 0], dtype=complex), lambda q: ()),
    "1": (np.array([0, 1], dtype=complex), lambda q: (Gate.x(q),)),
    "+": (np.array([1, 1], dtype=complex) / np.sqrt(2),
          lambda q: (Gate.sx(q), Gate.rz(q, np.pi / 2))),
    "+i": (np.array([1, 1j], dtype=complex) / np.sqrt(2),
           lambda q: (Gate.sx(q), Gate.rz(q, np.pi))),
}
PREP_TOKENS = tuple(_PREPARATIONS)

PREP_LABELS = tuple(f"{a}:{b}" for a, b in itertools.product(PREP_TOKENS, PREP_TOKENS))
# The 144 (prep, setting) grid cells, prep-major: the row order of stacked outcomes.
_CELLS = tuple(itertools.product(PREP_LABELS, SETTINGS))
# Their spawn keys (prep index, setting index), as a (2 x 144) uint32 array.
_CELL_KEYS = np.indices((len(PREP_LABELS), len(SETTINGS)), dtype=np.uint32).reshape(2, -1)


def prep_state(label: str) -> np.ndarray:
    """Ideal two-qubit density matrix for a preparation label like ``"0:+i"``."""
    t0, t1 = label.split(":")
    ket = kron(_PREPARATIONS[t0][0].reshape(2, 1), _PREPARATIONS[t1][0].reshape(2, 1))
    return ket @ dagger(ket)


# The 16 ideal inputs, stacked in PREP_LABELS order.
_PREP_STATES = np.array([prep_state(label) for label in PREP_LABELS])


def prep_circuit(label: str) -> Circuit:
    t0, t1 = label.split(":")
    return Circuit(_PREPARATIONS[t0][1](0) + _PREPARATIONS[t1][1](1))


def _prepared_states(noise) -> np.ndarray:
    """The 16 prepared states in ``PREP_LABELS`` order, as a 4+4 tree: qubit
    0's prefix for each token on |00>, then each qubit-1 prefix on that stack
    of 4. Every state gets the gates of its ``prep_circuit``, in order."""
    first = np.array([apply_gates(Circuit(gates(0)), basis_state("00"), noise)
                      for _, gates in _PREPARATIONS.values()])
    second = [apply_gates(Circuit(gates(1)), first, noise) for _, gates in _PREPARATIONS.values()]
    return np.stack(second, axis=1).reshape(-1, 4, 4)  # (t0, t1) -> label index


def _experiment_seeds(master: int) -> np.ndarray:
    """Documented splitting rule: cell (prep, setting) is sampled with seed
    ``SeedSequence(master, spawn_key=(prep, setting)).generate_state(1,
    np.uint64)[0]``; all 144 in ``_CELLS`` order, from one hash."""
    return spawn_seeds(master, _CELL_KEYS)


@dataclass(frozen=True, eq=False)
class TomographyDataset:
    """The 16 x 9 grid of one process as a read-only (144, 4) array in
    ``_CELLS`` order over ``BITSTRINGS``: counts summing to ``shots`` in each
    row, or exact probabilities when ``shots`` is None."""

    outcomes: np.ndarray
    shots: int | None
    seed: int | None
    noise_fingerprint: str
    circuit_json: str | None
    rng: str = RNG_ALGORITHM

    def __post_init__(self):
        outcomes = np.array(self.outcomes, dtype=float if self.shots is None else None)
        if outcomes.shape != (len(_CELLS), 4):
            raise ValueError(f"outcomes must have shape (144, 4), got {outcomes.shape}")
        if self.shots is None:
            defect = distribution_defect(outcomes)
        elif self.shots <= 0:
            raise ValueError("a counted dataset needs a positive shot number")
        else:
            ok = ((outcomes >= 0) & (outcomes == np.round(outcomes))).all(axis=1)
            ok &= outcomes.sum(axis=1) == self.shots
            i = int(np.argmin(ok))
            defect = None if ok[i] else (i, f"counts {outcomes[i].tolist()} are not "
                                            f"non-negative integers summing to {self.shots}")
            outcomes = outcomes.astype(np.int64)
        if defect is not None:
            raise ValueError(f"cell {'|'.join(_CELLS[defect[0]])}: {defect[1]}")
        outcomes.flags.writeable = False
        object.__setattr__(self, "outcomes", outcomes)

    @functools.cached_property
    def records(self) -> dict:
        """(prep label, setting) -> ``CountsRecord``, built on first read."""
        if self.shots is None:
            return {cell: CountsRecord(cell[1], None, None, tuple(row))
                    for cell, row in zip(_CELLS, self.outcomes.tolist())}
        return {cell: CountsRecord(cell[1], self.shots, dict(zip(BITSTRINGS, row)))
                for cell, row in zip(_CELLS, self.outcomes.tolist())}

    def to_json(self) -> str:
        payload = {
            "circuit": json.loads(self.circuit_json) if self.circuit_json else None,
            "shots": self.shots,
            "seed": self.seed,
            "rng": self.rng,
            "noise_fingerprint": self.noise_fingerprint,
            "records": {
                f"{p}|{s}": rec.to_dict() for (p, s), rec in sorted(self.records.items())
            },
        }
        return json.dumps(payload, indent=2)

    @staticmethod
    def from_json(text: str) -> "TomographyDataset":
        """Read a dataset: exactly the 144 grid cells, each a valid record of its
        setting and of the dataset's shot count; an error names the cell."""
        d = json.loads(text)
        records, shots = d["records"], d.get("shots")
        names = [f"{p}|{s}" for p, s in _CELLS]
        extra = sorted(records.keys() - set(names))
        if extra:
            raise ValueError(f"dataset has cells outside the 16x9 grid: {', '.join(extra)}")
        missing = [name for name in names if name not in records]
        if missing:
            raise ValueError(f"dataset incomplete: {len(missing)} grid cells missing, "
                             f"first {missing[0]}")
        rows = []
        for name, (_, setting) in zip(names, _CELLS):
            rec = CountsRecord.from_dict(records[name], f"records[{name!r}]")
            if rec.setting != setting:
                raise ValueError(f"cell {name} holds a {rec.setting} record")
            if rec.shots != shots:
                raise ValueError(f"cell {name} has shots {rec.shots}, the dataset {shots}")
            rows.append(rec.probs if rec.exact else [rec.counts[b] for b in BITSTRINGS])
        circuit_json = json.dumps(d["circuit"]) if d.get("circuit") is not None else None
        return TomographyDataset(
            rows, shots, d.get("seed"), d["noise_fingerprint"], circuit_json,
            d.get("rng", RNG_ALGORITHM),
        )


def run_qpt(process, noise=None, shots: int | None = None, seed: int = DEFAULT_SEED
            ) -> TomographyDataset:
    """Run the full tomography grid against the simulator.

    ``process`` is a Circuit (evolved under the optional noise model) or a
    QuantumChannel applied directly to the ideal input states. ``shots=None``
    records exact outcome probabilities instead of sampled counts. ``seed``
    is a non-negative integer.
    """
    seed = validate_seed(seed)
    circuit_mode = isinstance(process, Circuit)
    if not circuit_mode and noise is not None:
        raise ValueError("noise models apply to circuits, not to raw channels")
    confusion = noise.confusion if noise is not None else None

    if circuit_mode:
        states = evolve(process, _prepared_states(noise), noise)
    else:
        states = process.apply(_PREP_STATES)
    outcomes = outcome_distribution(states, SETTINGS, confusion).reshape(-1, 4)
    if shots is not None:
        outcomes = sample_counts(outcomes, shots, _experiment_seeds(seed).tolist())

    return TomographyDataset(
        outcomes=outcomes,
        shots=shots,
        seed=seed if shots is not None else None,
        noise_fingerprint=noise.fingerprint if noise is not None else "noiseless",
        circuit_json=process.to_json() if circuit_mode else None,
    )


_COMPATIBLE = {
    obs: [i for i, s in enumerate(SETTINGS) if compatible(obs, s)] for obs in PAULI_LABELS
}
# Rows vec(rho_j) of the 16 ideal inputs, and the Pauli products P_k.
_PREP_FRAME = _PREP_STATES.reshape(len(PREP_LABELS), -1)
_PAULIS = pauli_basis(2)


def _pauli_table(ds: TomographyDataset) -> np.ndarray:
    """(prep x Pauli) table of the 16 Pauli expectations for each input.

    An identity-containing observable averages its compatible settings; the
    all-identity column is 1.
    """
    freqs = ds.outcomes if ds.shots is None else ds.outcomes / ds.shots
    freqs = freqs.reshape(len(PREP_LABELS), len(SETTINGS), 4)
    table = np.ones((len(PREP_LABELS), len(PAULI_LABELS)))
    for k, obs in enumerate(PAULI_LABELS[1:], start=1):
        table[:, k] = expectation(freqs[:, _COMPATIBLE[obs]], obs).mean(axis=1)
    return table


def linear_inversion(ds: TomographyDataset) -> np.ndarray:
    """Unconstrained Choi estimate that reproduces the expectation table exactly.

    With m_jk = Tr(P_k E(rho_j)) and the inputs a basis of operators, the
    dual frame gives Y_k = E^dag(P_k)^T / 4 from vec(Y_k) = (R^-1 m)[:, k] / 4,
    R having rows vec(rho_j), and then J = (1/4) sum_k P_k (x) Y_k.
    """
    y = np.linalg.solve(_PREP_FRAME, _pauli_table(ds)).T.reshape(16, 4, 4) / 4.0
    j = np.einsum("kab,kcd->acbd", _PAULIS, y).reshape(16, 16) / 4.0
    return 0.5 * (j + dagger(j))


def reconstruct_channel(ds: TomographyDataset) -> QuantumChannel:
    """Linear-inversion Choi estimate from the dataset, projected onto CPTP."""
    return project_cptp(linear_inversion(ds))


def process_fidelity(a: QuantumChannel, b: QuantumChannel) -> float:
    """Uhlmann fidelity between the normalized Choi states of two channels.

    When either Choi state is rank one (any unitary channel) this reduces to
    the plain overlap <phi|J|phi>, which is evaluated directly for accuracy.
    """
    ja, jb = a.choi_matrix(), b.choi_matrix()
    if ja.shape != jb.shape:
        raise ValueError("channels act on different dimensions")
    for first, second in ((ja, jb), (jb, ja)):
        vals, vecs = np.linalg.eigh(first)
        if vals[:-1].max(initial=0.0) <= 1e-12:
            v = vecs[:, -1]
            f = float(vals[-1] * np.real(np.vdot(v, second @ v)))
            return min(max(f, 0.0), 1.0)
    sq = _sqrtm_psd(ja)
    ev = np.linalg.eigvalsh(sq @ jb @ sq)
    ev = ev[ev > max(ev.max(initial=0.0), 0.0) * 1e-13]  # drop numerical junk
    f = float(np.sum(np.sqrt(ev)) ** 2)
    return min(max(f, 0.0), 1.0)


def _sqrtm_psd(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (m + dagger(m)))
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ dagger(vecs)


def average_gate_fidelity(f_proc: float) -> float:
    """Companion metric (d * F_proc + 1) / (d + 1) for d = 4."""
    if not 0.0 <= f_proc <= 1.0:
        raise ValueError(f"process fidelity {f_proc} outside [0, 1]")
    return (4.0 * f_proc + 1.0) / 5.0


def exact_process_fidelity(circuit: Circuit, noise=None) -> float:
    """Exact-probability tomographic fidelity of a circuit against its own
    ideal unitary; the deterministic evaluator behind noise fitting."""
    ds = run_qpt(circuit, noise=noise, shots=None)
    reconstructed = reconstruct_channel(ds)
    target = channel_from_unitary(circuit_unitary(circuit))
    return process_fidelity(reconstructed, target)
