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

Simulation: the 16 preparation prefixes run as a 4+4 tree, once per noise
model family (``_prepared_states``). Qubit 0's prefix for each of the 4
tokens runs on |00>, then each of qubit 1's 4 prefixes on that stack of 4 at
once, and the ``sx`` that ``+`` and ``+i`` share runs once per qubit: 8 gate
applications in 8 ``apply_gates`` calls, not 40. The model keeps the stack,
and its ``with_p_dep`` siblings share it. The 16 go through the process in
one ``evolve`` call, with the arithmetic per state of evolving each full
circuit on its own, so sampled counts are unchanged. One
``outcome_distribution`` call gives all 144 cells' distributions, and one
``sample_counts`` call draws each cell from its own seed
(``_experiment_seeds``, one array hash). Either result, a (144, 4) array in
``_CELLS`` order, goes unchanged into the dataset, which checks it once, to
the file writer, ``TomographyDataset.to_json``, and as frequencies to
``linear_inversion``, whose Pauli table reads them in two batched
``expectation`` calls. The file reader parses each cell straight into a row
and checks only its JSON structure and types: its keys, its setting, its
shots, and numbers that an int64 count or a float64 probability holds. The
dataset then checks every row's values once, for every cell alike.
``CountsRecord`` is just the row type of the lazy ``records`` view.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import QuantumChannel, pauli_basis, project_cptp
from .circuits import Circuit, Gate, _check_record, _is_number, _parse
from .linalg import dagger, kraus_sum, kron
from .simulator import (
    BITSTRINGS,
    RNG_ALGORITHM,
    SETTINGS,
    apply_gates,
    basis_state,
    distribution_defect,
    evolve,
    expectation,
    outcome_distribution,
    sample_counts,
    spawn_seeds,
    validate_seed,
    validate_shots,
)

DEFAULT_SEED = 42

PAULI_LABELS = tuple(a + b for a, b in itertools.product("IXYZ", "IXYZ"))

# Each token's ideal ket, and the native gates preparing it on a qubit q from
# |0>, in order, each as its constructor of q: ``+`` and ``+i`` share ``Gate.sx``.
_PREPARATIONS = {
    "0": (np.array([1, 0], dtype=complex), ()),
    "1": (np.array([0, 1], dtype=complex), (Gate.x,)),
    "+": (np.array([1, 1], dtype=complex) / np.sqrt(2),
          (Gate.sx, lambda q: Gate.rz(q, np.pi / 2))),
    "+i": (np.array([1, 1j], dtype=complex) / np.sqrt(2),
           (Gate.sx, lambda q: Gate.rz(q, np.pi))),
}
PREP_TOKENS = tuple(_PREPARATIONS)

PREP_LABELS = tuple(f"{a}:{b}" for a, b in itertools.product(PREP_TOKENS, PREP_TOKENS))
# The 144 (prep, setting) grid cells, prep-major: the row order of stacked outcomes.
_CELLS = tuple(itertools.product(PREP_LABELS, SETTINGS))
# Their spawn keys (prep index, setting index), as a (2 x 144) uint32 array.
_CELL_KEYS = np.indices((len(PREP_LABELS), len(SETTINGS)), dtype=np.uint32).reshape(2, -1)
# A dataset file lists the cells in sorted (prep, setting) tuple order, which
# is not the order of their "prep|setting" names:
# "+:+i|XX" sorts before "+:+|XX" as a string, after it as a tuple.
_WRITE_ORDER = sorted(range(len(_CELLS)), key=_CELLS.__getitem__)
# A dataset file's top-level keys, in the order ``to_json`` writes them.
_DATASET_KEYS = ("circuit", "shots", "seed", "rng", "noise_fingerprint", "records")
_RECORD_HEADS = [f'    "{p}|{s}": {{\n      "setting": "{s}",\n'
                 for p, s in (_CELLS[i] for i in _WRITE_ORDER)]


class CountsRecord(NamedTuple):
    """A cell as ``TomographyDataset.records`` gives it, unchecked: counts keyed
    by ``BITSTRINGS`` with ``shots``, or exact ``probs`` with ``shots`` None."""

    setting: str
    shots: int | None
    counts: dict | None
    probs: tuple | None = None


def prep_state(label: str) -> np.ndarray:
    """Ideal two-qubit density matrix for a preparation label like ``"0:+i"``."""
    t0, t1 = label.split(":")
    ket = kron(_PREPARATIONS[t0][0].reshape(2, 1), _PREPARATIONS[t1][0].reshape(2, 1))
    return ket @ dagger(ket)


# The 16 ideal inputs, stacked in PREP_LABELS order.
_PREP_STATES = np.array([prep_state(label) for label in PREP_LABELS])


def prep_circuit(label: str) -> Circuit:
    t0, t1 = label.split(":")
    return Circuit([gate(0) for gate in _PREPARATIONS[t0][1]]
                   + [gate(1) for gate in _PREPARATIONS[t1][1]])


def _prepare(noise) -> np.ndarray:
    """The read-only preparation tree (see the module docstring): every state
    gets the gates of its ``prep_circuit``, in order. Each qubit's prefixes
    form a trie, so a gate that tokens share runs once, on the stack so far."""
    states = basis_state("00")
    for q in (0, 1):
        done = {(): states}  # constructor prefix -> the stack after its gates
        for _, path in _PREPARATIONS.values():
            for i in range(1, len(path) + 1):
                if path[:i] not in done:
                    done[path[:i]] = apply_gates(Circuit((path[i - 1](q),)), done[path[:i - 1]],
                                                 noise)
        states = np.stack([done[path] for _, path in _PREPARATIONS.values()], axis=-3)
    states = states.reshape(-1, 4, 4)  # (t0, t1) -> label index
    states.flags.writeable = False
    return states


_IDEAL_PREPARED = _prepare(None)


def _prepared_states(noise) -> np.ndarray:
    """The 16 prepared states in ``PREP_LABELS`` order: ``_IDEAL_PREPARED``
    without noise, else prepared on first use into the model's ``_prepared``
    holder, which ``with_p_dep`` hands on, so a model and its siblings prepare
    once and the states go when the last of them does."""
    if noise is None:
        return _IDEAL_PREPARED
    if not noise._prepared:
        noise._prepared.append(_prepare(noise))
    return noise._prepared[0]


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
        else:
            try:
                object.__setattr__(self, "shots", validate_shots(self.shots))
            except ValueError as err:
                raise ValueError(f"a counted dataset needs a positive shot number: {err}") from None
            ok = ((outcomes >= 0) & (outcomes <= self.shots)
                  & (outcomes == np.round(outcomes))).all(axis=1)
            # A failing row casts as zeros, so a NaN or huge count never reaches the cast.
            counts = np.where(ok[:, None], outcomes, 0).astype(np.int64)
            # Counts at most shots < 2**63 cannot wrap a uint64 running sum
            # before it passes shots, so the row test is exact.
            running = np.cumsum(counts.view(np.uint64), axis=1)
            ok &= (running <= self.shots).all(axis=1) & (running[:, -1] == self.shots)
            i = int(np.argmin(ok))
            defect = None if ok[i] else (i, f"counts {outcomes[i].tolist()} are not "
                                            f"non-negative integers summing to {self.shots}")
            outcomes = counts
        if self.seed is not None:
            object.__setattr__(self, "seed", validate_seed(self.seed))
        if defect is not None:
            raise ValueError(f"cell {'|'.join(_CELLS[defect[0]])}: {defect[1]}")
        outcomes.flags.writeable = False
        object.__setattr__(self, "outcomes", outcomes)

    @functools.cached_property
    def records(self) -> dict:
        """(prep label, setting) -> ``CountsRecord``, built on first read for callers
        such as the benchmark's output check; the file writer and reader skip it."""
        return {cell: CountsRecord(cell[1], None, None, tuple(row)) if self.shots is None
                else CountsRecord(cell[1], self.shots, dict(zip(BITSTRINGS, row)))
                for cell, row in zip(_CELLS, self.outcomes.tolist())}

    def frequencies(self) -> np.ndarray:
        """The (144, 4) frequencies: counts over shots, or the exact probabilities."""
        return self.outcomes if self.shots is None else self.outcomes / self.shots

    def to_json(self) -> str:
        """The dataset as ``json.dumps(..., indent=2)`` writes it, with one record
        per cell under ``records`` in sorted (prep, setting) order. ``json``
        writes the header; the records come from ``outcomes``, already checked,
        with counts as ints and probabilities by ``repr``, as ``json`` writes a
        finite float."""
        header = json.dumps({
            "circuit": json.loads(self.circuit_json) if self.circuit_json else None,
            **{key: getattr(self, key) for key in _DATASET_KEYS[1:-1]},
        }, indent=2)
        rows = self.outcomes[_WRITE_ORDER].tolist()
        if self.shots is None:
            body = (f'{head}      "exact": true,\n      "probabilities": [\n        {a!r},\n'
                    f'        {b!r},\n        {c!r},\n        {d!r}\n      ]\n    }}'
                    for head, (a, b, c, d) in zip(_RECORD_HEADS, rows))
        else:
            shots = json.dumps(self.shots)
            body = (f'{head}      "shots": {shots},\n      "counts": {{\n        "00": {a},\n'
                    f'        "01": {b},\n        "10": {c},\n        "11": {d}\n      }}\n    }}'
                    for head, (a, b, c, d) in zip(_RECORD_HEADS, rows))
        # The header without its closing "\n}", then the records block.
        return header[:-2] + ',\n  "records": {\n' + ",\n".join(body) + "\n  }\n}"

    @staticmethod
    def from_json(text: str) -> "TomographyDataset":
        """Read a dataset: the writer's header fields, each of its type (an error
        starts ``dataset:`` and names the field), and exactly the 144 grid
        cells, each a valid record of its setting and of the dataset's shot
        count (an error names the cell)."""
        d = _parse(text, "dataset")
        _check_record(d, ("records", "noise_fingerprint"), _DATASET_KEYS, "dataset")
        records, shots, seed, circuit = (d["records"], d.get("shots"), d.get("seed"),
                                         d.get("circuit"))
        if not isinstance(records, dict):
            raise ValueError(f"dataset: records must be a JSON object, "
                             f"got {type(records).__name__}")
        try:
            if shots is not None:
                validate_shots(shots)
            if seed is not None:
                validate_seed(seed)
        except ValueError as err:
            raise ValueError(f"dataset: {err}") from None
        for key in ("rng", "noise_fingerprint"):
            if not isinstance(d.get(key, ""), str):
                raise ValueError(f"dataset: {key} must be a string, got {d[key]!r}")
        circuit_json = None
        if circuit is not None:
            if not isinstance(circuit, list):
                raise ValueError(f"dataset: circuit must be null or a list of gates, "
                                 f"got {type(circuit).__name__}")
            circuit_json = json.dumps(circuit)
            try:
                Circuit.from_json(circuit_json)
            except ValueError as err:
                raise ValueError(f"dataset: circuit: {err}") from None
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
            cell, where = records[name], f"records[{name!r}]"
            exact = isinstance(cell, dict) and "exact" in cell  # a JSON object is a dict
            if exact and cell["exact"] is not True:
                raise ValueError(f"{where}: exact must be true where given, got {cell['exact']!r}")
            keys = ("setting", "probabilities") if exact else ("setting", "shots", "counts")
            _check_record(cell, keys, ("exact", *keys), where)
            if cell["setting"] != setting:
                raise ValueError(f"cell {name} holds a {cell['setting']} record")
            given = cell.get("shots")  # None in an exact cell
            if type(given) is not type(shots) or given != shots:  # refuses true and 10.0
                raise ValueError(f"cell {name} has shots {given!r}, the dataset {shots}")
            if exact:
                row = cell["probabilities"]
                # Refuses NaN and infinities, which JSON lacks, and integers past float64.
                if not (isinstance(row, list) and len(row) == 4
                        and all(_is_number(p) and abs(p) <= sys.float_info.max for p in row)):
                    raise ValueError(f"{where}: probabilities {row} are not 4 finite numbers")
            else:
                if shots is None:
                    raise ValueError(f"{where}: counted records need a positive shot number")
                counts = cell["counts"]
                _check_record(counts, (), BITSTRINGS, f"{where}: counts")
                for key, value in counts.items():
                    # JSON true is a bool, not an int; an int64 holds the rest.
                    if type(value) is not int or not 0 <= value < 2**63:
                        raise ValueError(f"{where}: counts[{key!r}] = {value!r} "
                                         f"is not a non-negative integer below 2**63")
                row = [counts.get(b, 0) for b in BITSTRINGS]
            rows.append(row)
        return TomographyDataset(rows, shots, seed, d["noise_fingerprint"], circuit_json,
                                 d.get("rng", RNG_ALGORITHM))


def run_qpt(process, noise=None, shots: int | None = None, seed: int = DEFAULT_SEED
            ) -> TomographyDataset:
    """Run the full tomography grid against the simulator.

    ``process`` is a Circuit (evolved under the optional noise model) or a
    QuantumChannel applied directly to the ideal input states. ``shots=None``
    records exact outcome probabilities instead of sampled counts, else
    ``shots`` is a positive integer. ``seed`` is a non-negative integer.
    """
    seed = validate_seed(seed)  # spawn_seeds needs a valid int
    circuit_mode = isinstance(process, Circuit)
    if not circuit_mode and noise is not None:
        raise ValueError("noise models apply to circuits, not to raw channels")
    confusion = noise.confusion if noise is not None else None

    if circuit_mode:
        states = evolve(process, _prepared_states(noise), noise)
    elif process.dim != 4:
        raise ValueError(f"process tomography takes a two-qubit channel, dim 4, "
                         f"got dim {process.dim}")
    else:  # the constant inputs, valid by construction, go unchecked
        states = kraus_sum(process.kraus_operators(), _PREP_STATES)
    outcomes = outcome_distribution(states, SETTINGS, confusion).reshape(-1, 4)
    if shots is not None:
        outcomes = sample_counts(outcomes, shots, _experiment_seeds(seed))

    return TomographyDataset(
        outcomes=outcomes,
        shots=shots,
        seed=seed if shots is not None else None,
        noise_fingerprint=noise.fingerprint if noise is not None else "noiseless",
        circuit_json=process.to_json() if circuit_mode else None,
    )


# The settings measuring each observable: every non-identity factor in its basis.
_COMPATIBLE = {obs: np.array([i for i, s in enumerate(SETTINGS)
                              if all(f in ("I", b) for f, b in zip(obs, s))])
               for obs in PAULI_LABELS}
# A correlator is read in its own setting (SETTINGS order); a marginal, one
# identity factor, in its 3 compatible settings.
_MARGINALS = tuple(obs for obs in PAULI_LABELS[1:] if "I" in obs)
_MARGINAL_SETTINGS = np.array([_COMPATIBLE[obs] for obs in _MARGINALS])
_CORRELATOR_COLUMNS = [PAULI_LABELS.index(obs) for obs in SETTINGS]
_MARGINAL_COLUMNS = [PAULI_LABELS.index(obs) for obs in _MARGINALS]
# Rows vec(rho_j) of the 16 ideal inputs, and the Pauli products P_k.
_PREP_FRAME = _PREP_STATES.reshape(len(PREP_LABELS), -1)
_PAULIS = pauli_basis(2)


def _pauli_table(freqs: np.ndarray) -> np.ndarray:
    """(prep x Pauli) table of the 16 Pauli expectations for each input.

    An identity-containing observable averages its compatible settings; the
    all-identity column is 1. Two ``expectation`` calls read every block as
    the per-observable calls would, a (1, 4) block per correlator and a
    (3, 4) block per marginal, so each mean is theirs bit for bit: the sum
    and division of ``.mean(axis=1)``, without its per-call overhead.
    """
    freqs = np.asarray(freqs, dtype=float).reshape(len(PREP_LABELS), len(SETTINGS), 4)
    table = np.ones((len(PREP_LABELS), len(PAULI_LABELS)))
    table[:, _CORRELATOR_COLUMNS] = expectation(freqs[:, :, None], SETTINGS)[..., 0]
    marginals = expectation(freqs[:, _MARGINAL_SETTINGS], _MARGINALS)
    table[:, _MARGINAL_COLUMNS] = np.add.reduce(marginals, axis=-1) / _MARGINAL_SETTINGS.shape[1]
    return table


def linear_inversion(freqs) -> np.ndarray:
    """Unconstrained Choi estimate that reproduces exactly the expectation table
    of (144, 4) outcome frequencies in ``_CELLS`` order; the rows go unchecked.

    With m_jk = Tr(P_k E(rho_j)) and the inputs a basis of operators, the
    dual frame gives Y_k = E^dag(P_k)^T / 4 from vec(Y_k) = (R^-1 m)[:, k] / 4,
    R having rows vec(rho_j), and then J = (1/4) sum_k P_k (x) Y_k.
    """
    y = np.linalg.solve(_PREP_FRAME, _pauli_table(freqs)).T.reshape(16, 4, 4) / 4.0
    j = np.einsum("kab,kcd->acbd", _PAULIS, y).reshape(16, 16) / 4.0
    return 0.5 * (j + dagger(j))


def reconstruct_channel(ds: TomographyDataset) -> QuantumChannel:
    """Linear-inversion Choi estimate from the dataset, projected onto CPTP."""
    return project_cptp(linear_inversion(ds.frequencies()))


def process_fidelity(a: QuantumChannel, b: QuantumChannel) -> float:
    """Uhlmann fidelity between the normalized Choi states of two channels.

    When either Choi state is rank one (any unitary channel) this reduces to
    the plain overlap <phi|J|phi>, which is evaluated directly for accuracy.
    A channel counts as rank one when its ``choi_eigh`` puts every eigenvalue
    but the largest at or below 1e-12. Each channel's Choi eigendecomposition
    is cached on it, so a fixed target pays for its ``eigh`` once.

    A purity gate skips a channel's ``eigh`` when Tr(J)^2 - |J|_F^2, twice
    the sum of the eigenvalue products l_i l_j (i < j), exceeds
    1e-9 max(1, Tr(J)^2). It never skips a channel that the eigenvalue test
    calls rank one. Every Choi constructor admits eigenvalues down to -1e-8
    (``from_choi``'s PSD tolerance) and Tr J = 1 within its TP tolerance, so
    the d^2 - 1 <= 15 eigenvalues below the largest, l_max, lie in
    [-1e-8, 1e-12], and the gap is at most 3e-11 l_max + 2.3e-14, far under
    the bound. A NaN gap is not above it, so ``eigh`` decides as before.
    """
    ja, jb = a.choi_matrix(), b.choi_matrix()
    if ja.shape != jb.shape:
        raise ValueError("channels act on different dimensions")
    for first, j, second in ((a, ja, jb), (b, jb, ja)):
        trace_sq = np.trace(j).real ** 2
        if trace_sq - np.vdot(j, j).real > 1e-9 * max(1.0, trace_sq):
            continue  # not rank one: its eigh would say so
        vals, vecs = first.choi_eigh
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


def exact_process_fidelity(circuit: Circuit, noise=None) -> float:
    """Exact-probability tomographic fidelity of a circuit against its own
    ideal unitary; the deterministic evaluator behind noise fitting. The
    target channel is cached on the circuit instance, as its unitary is, so
    repeated evaluations of one circuit build it, and take its Choi ``eigh``,
    once."""
    ds = run_qpt(circuit, noise=noise, shots=None)
    reconstructed = reconstruct_channel(ds)
    return process_fidelity(reconstructed, circuit._channel)
