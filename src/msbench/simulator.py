"""Density-matrix evolution of two-qubit circuits and seeded shot sampling.

The simulator is exact: gates act as unitaries, noise acts through Kraus
sets, and measurement probabilities are computed in closed form. Shot noise
is the only stochastic element, drawn multinomially from a seeded generator.

Batches: ``evolve``, ``outcome_distribution``, ``sample_counts`` and
``expectation`` take a leading stack axis; a single entry is the one-element
case of the same code, and ``sample_counts`` returns counts in the shape of
its input, (4,) for one 4-vector and (n, 4) for a stack. Inputs are checked
once, where they enter: ``evolve`` checks its states
(``check_density_matrix``) and ``sample_counts`` its distributions
(``distribution_defect``), each in one pass over the stack, and a defective
entry fails with the message it fails with alone. ``apply_gates`` and
``outcome_distribution`` take states as ``evolve`` returns them, unchecked.
Each entry goes through exactly the floating-point operations it would go
through alone: ``u @ rho @ u^dag`` for the whole stack in the two GEMMs of
``linalg.conjugate``, each channel as K rho K^dag for all its operators and
states in 1 + k GEMMs, and the setting rotations, read from a prebuilt
stack for the 9 tomography ``SETTINGS``, the same way (``linalg.sandwich``:
grouping changes the number of BLAS calls, not any entry's dot product,
measured bit for bit for d >= 4; a 2x2 left product stays per matrix), the
channel's terms added in the order it lists them, per-state normalization,
an ``einsum`` for the readout confusion, and a per-row clip,
renormalization and draw from the row's own PCG64 stream. Sampled counts
depend on this. Many outcome distributions sit on ties such as p = 0.5
between two outcomes, where a one-ulp change flips the binomial draw and
swaps two counts; folding the gates into one superoperator, or the confusion
into one flattened matrix product, changes such ulps. ``expectation`` also
takes a list of observables and reads every (observable, block) pair in one
``matmul``, whose per-block BLAS calls are those of one observable's call.

RNG: numpy PCG64 (algorithm id ``numpy-PCG64-multinomial``). A row
sampled with seed s gets the counts of
``np.random.Generator(np.random.PCG64(s)).multinomial``; identical seeds
reproduce identical counts. numpy builds each row's PCG64 from a seed
sequence, through its public interface: ``PCG64`` asks any ``ISeedSequence``
for ``generate_state(4, np.uint64)``. A seed given as a Python int or in a
list is checked (``validate_seed``) and gets numpy's ``SeedSequence``. A
uint64 seed array, such as a QPT's 144 cell seeds, is valid by its dtype and
hashes in one pass: numpy's ``SeedSequence`` hash (a pool of four uint32
words, after O'Neill's randutils ``seed_seq``) runs as uint32 array
operations over all pool words and all seeds at once, with its
data-independent constants tabled once. It is fixed-width integer
arithmetic, so the stacked hash is exact. ``spawn_seeds`` takes the master's
pool from numpy's ``SeedSequence`` and mixes only the spawn keys per child.
The tests check the seeds, the states and the draws against numpy's own
classes.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .circuits import Circuit
from .linalg import I2, check_density_matrix, conjugate, dagger, kraus_sum, kron, sandwich

RNG_ALGORITHM = "numpy-PCG64-multinomial"
# How far a probability may fall below 0, and a distribution's sum stray from 1.
_PROB_ATOL = 1e-9

# numpy's SeedSequence: pool size and the hashmix/mix constants of
# numpy.random.bit_generator.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
# Shifts giving the low and high 32-bit words of a row of uint64 seeds.
_WORD_SHIFTS = np.array([[0], [32]], dtype=np.uint64)


def _integer(value, low: int, high: float, rule: str) -> int:
    """``value`` as a Python int in [low, high]; bools, floats, None and strings
    are refused, not cast, with ``ValueError("<rule>, got <value>")``."""
    try:
        n = None if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:
        n = None
    if n is None or not low <= n <= high:
        raise ValueError(f"{rule}, got {value!r}")
    return n


def validate_seed(seed) -> int:
    return _integer(seed, 0, np.inf, "seed must be a non-negative integer")


def validate_shots(shots) -> int:
    """Up to 2**63 - 1, the most ``Generator.multinomial`` draws."""
    return _integer(shots, 1, 2**63 - 1, "shots must be a positive integer below 2**63")


@functools.lru_cache(maxsize=32)  # a few lengths per seed width in use
def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The constants of the first n hashmix calls of one sequence, as a read-only
    (2, n, 1) uint32 array: call k xors with init * mult**k and multiplies by
    init * mult**(k + 1), mod 2**32. Data-independent, so built once per length."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    table = np.array([consts[:-1], consts[1:]], dtype=np.uint32)[..., None]
    table.flags.writeable = False
    return table


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    value = (values ^ consts[0]) * consts[1]
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_MULT_L * x - _MIX_MULT_R * y
    return value ^ value >> 16


# Each pool word in turn is hashed into the other three; it does not change
# during its own step, so its three destinations mix at once.
_CROSS_MIX = [(src, [dst for dst in range(_POOL_SIZE) if dst != src]) for src in range(_POOL_SIZE)]


def _mix_in(pool: np.ndarray, words: np.ndarray, start: int) -> np.ndarray:
    """Mix each row of a (k x n) uint32 array of entropy words into every word
    of a (4 x n) pool, ``start`` hashmix calls into the sequence."""
    consts = _hash_consts(_INIT_A, _MULT_A, start + _POOL_SIZE * len(words))[:, start:]
    hashed = _hashmix(words[:, None], consts.reshape(2, -1, _POOL_SIZE, 1))
    for row in hashed:
        pool = _mix(pool, row)
    return pool


def _entropy_pool(entropy: np.ndarray) -> np.ndarray:
    """The (4 x n) mixed pool of ``SeedSequence`` for each column of a (4 x n)
    uint32 array of seed words, zero-padded to the pool size."""
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
    pool = _hashmix(entropy, consts[:, :_POOL_SIZE])
    for src, dst in _CROSS_MIX:
        step = _POOL_SIZE + (_POOL_SIZE - 1) * src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[:, step:step + _POOL_SIZE - 1]))
    return pool


def _generate_state(pool: np.ndarray, n_words: int) -> np.ndarray:
    """``generate_state(n_words, np.uint64)`` of each pool column, as
    (n_words x n) uint64: two uint32 words each, the low one first."""
    words = _hashmix(pool[np.arange(2 * n_words) % _POOL_SIZE],
                     _hash_consts(_INIT_B, _MULT_B, 2 * n_words)).astype(np.uint64)
    return words[0::2] | words[1::2] << np.uint64(32)


def spawn_seeds(master: int, keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(master, spawn_key=key).generate_state(1, np.uint64)[0]``
    for each column of a (k x n) uint32 array of spawn keys, k >= 1 (each key
    entry below 2^32, so one word), as n uint64 seeds; ``master`` is a
    validated seed. numpy hashes the master once, as ``SeedSequence(master)``;
    a spawn key's words follow the master's, padded to the pool size, so they
    are mixed into its pool from hashmix call 4 max(4, words) on."""
    start = _POOL_SIZE * max(_POOL_SIZE, -(-master.bit_length() // 32))
    pool = np.random.SeedSequence(master).pool[:, None]  # (4 x 1): broadcast by the first key
    return _generate_state(_mix_in(pool, keys, start), 1)[0]


class _HashedSeed(ISeedSequence):
    """One uint64 seed's ``SeedSequence(seed).generate_state(4, np.uint64)``,
    from a stacked hash: the one request ``PCG64`` makes of its seed."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a hashed seed holds generate_state(4, np.uint64) only, "
                             f"got ({n_words!r}, {dtype!r})")
        return self.words


def seed_sequences(seeds) -> list[ISeedSequence]:
    """One seed sequence per seed; ``np.random.PCG64`` of each starts where
    ``PCG64(seed)`` does.

    A 1-D uint64 array is valid by its dtype: its seeds are split into words
    by two array ops and hashed in one pass, and each gets its four words as
    a read-only, C-contiguous (4,) uint64 array. Any other sequence is
    checked seed by seed (``validate_seed``), and each seed gets numpy's
    ``SeedSequence``.
    """
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64 and seeds.ndim == 1:
        entropy = np.zeros((_POOL_SIZE, len(seeds)), dtype=np.uint32)
        entropy[:2] = seeds >> _WORD_SHIFTS & np.uint64(_MASK32)
        words = np.ascontiguousarray(_generate_state(_entropy_pool(entropy), 4).T)
        words.flags.writeable = False
        return [_HashedSeed(row) for row in words]
    return [np.random.SeedSequence(validate_seed(s)) for s in seeds]


BITSTRINGS = ("00", "01", "10", "11")
MEASUREMENT_BASES = ("X", "Y", "Z")

# Rotations taking the measurement basis to the computational basis:
# X by the Hadamard-equivalent, Y by S^dag then Hadamard.
_HAD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_BASIS_ROTATION = {
    "X": _HAD,
    "Y": _HAD @ np.diag([1, -1j]).astype(complex),
    "Z": I2,
}
SETTINGS = tuple(a + b for a in MEASUREMENT_BASES for b in MEASUREMENT_BASES)
# Each setting's rotation, in SETTINGS order: the stack a tomography grid reads.
_SETTINGS_ROTATIONS = np.array([kron(_BASIS_ROTATION[a], _BASIS_ROTATION[b]) for a, b in SETTINGS])
_SETTINGS_ROTATIONS.flags.writeable = False


def validate_setting(setting: str) -> str:
    if not isinstance(setting, str) or setting not in SETTINGS:
        raise ValueError(f"measurement setting must be two of X/Y/Z, got {setting!r}")
    return setting


@functools.lru_cache(maxsize=32)  # a few tuples of settings in use
def _rotations(settings: tuple[str, ...]) -> np.ndarray:
    """The read-only stack of the validated settings' rotations, gathered once per tuple."""
    rotations = _SETTINGS_ROTATIONS[[SETTINGS.index(s) for s in settings]]
    rotations.flags.writeable = False
    return rotations


def basis_state(bitstring: str) -> np.ndarray:
    """|b0 b1><b0 b1| with qubit 0 the most significant bit."""
    if bitstring not in BITSTRINGS:
        raise ValueError(f"bitstring must be one of {BITSTRINGS}, got {bitstring!r}")
    rho = np.zeros((4, 4), dtype=complex)
    idx = int(bitstring, 2)
    rho[idx, idx] = 1.0
    return rho


def apply_gates(circuit: Circuit, rho, noise=None) -> np.ndarray:
    """Each gate's unitary, then its noise channel (if a model is given), on
    a density matrix or a stack of them; no validation, no re-symmetrizing.

    Running a circuit's prefix here and the rest through ``evolve`` gives the
    same bits as evolving the whole circuit at once.
    """
    for gate in circuit.gates:
        rho = conjugate(gate.matrix(), rho)
        if noise is not None:
            channel = noise.channel_for(gate)
            if channel is not None:
                rho = kraus_sum(channel.kraus_operators(), rho)
    return rho


def evolve(circuit: Circuit, rho, noise=None) -> np.ndarray:
    """Run the circuit on a density matrix, or on each of a stack of them:
    each gate's unitary, then its noise channel (if a model is given)."""
    rho = apply_gates(circuit, check_density_matrix(rho), noise)
    return 0.5 * (rho + dagger(rho))


def outcome_distribution(rho, setting, confusion=None) -> np.ndarray:
    """Outcome probabilities for measuring both qubits in the given bases,
    optionally pushed through a row-stochastic [true, read] confusion matrix.

    ``rho`` is one density matrix or a stack of them; ``setting`` is one
    setting or a sequence of them. The result has the stack shape, then one
    axis over the settings if a sequence was given, then the 4 outcomes.
    The states are taken as ``evolve`` returns them, with no validation.
    """
    settings = (setting,) if isinstance(setting, str) else setting
    r = _rotations(tuple(map(validate_setting, settings)))  # each validated before the lookup
    rho = np.asarray(rho, dtype=complex)
    rotated = np.moveaxis(sandwich(r, rho), 0, -3)  # stack, setting, 4, 4
    probs = np.real(np.diagonal(rotated, axis1=-2, axis2=-1))
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum(axis=-1, keepdims=True)
    if confusion is not None:
        probs = np.einsum("...i,ij->...j", probs, np.asarray(confusion))
    return probs[..., 0, :] if isinstance(setting, str) else probs


def distribution_defect(rows: np.ndarray) -> tuple[int, str] | None:
    """The first row of an (n, 4) stack that is not a probability 4-vector (a
    NaN or inf fails a test), with the message it fails with alone, or None."""
    ok = (rows.min(axis=1) >= -_PROB_ATOL) & (np.abs(rows.sum(axis=1) - 1.0) <= _PROB_ATOL)
    if ok.all():
        return None
    i = int(np.argmin(ok))
    if not np.isfinite(rows[i]).all():
        return i, f"distribution row {i} has non-finite entries"
    if rows[i].min() < -_PROB_ATOL:
        return i, f"negative probability {rows[i].min():.3e}"
    return i, f"distribution sums to {rows[i].sum():.12f}, not 1"


def sample_counts(dist, shots: int, seed) -> np.ndarray:
    """Deterministic multinomial draw from a probability 4-vector: the (4,)
    int64 counts of ``np.random.Generator(np.random.PCG64(seed)).multinomial``,
    for a non-negative integer ``seed``, in ``BITSTRINGS`` order.

    Given an (n, 4) stack instead, ``seed`` is a 1-D sequence of one seed
    per row (a uint64 array goes to ``seed_sequences`` as it is), and the
    result is the (n, 4) int64 array of the counts the single-row calls
    would draw.
    """
    dist = np.asarray(dist, dtype=float)
    if dist.ndim not in (1, 2) or dist.shape[-1] != 4:
        raise ValueError("distribution must be a 4-vector")
    if dist.size == 0:
        raise ValueError("empty stack of distributions: need at least one row")
    rows = dist.reshape(-1, 4)
    defect = distribution_defect(rows)
    if defect is not None:
        raise ValueError(defect[1])
    shots = validate_shots(shots)
    rows = np.clip(rows, 0.0, None)
    rows /= rows.sum(axis=1, keepdims=True)
    if dist.ndim == 1:
        seed = [seed]
    elif np.ndim(seed) != 1 or len(seed) != len(rows):
        raise ValueError("a stack of distributions needs one seed per row")
    counts = np.empty(rows.shape, dtype=np.int64)
    for out, row, sequence in zip(counts, rows, seed_sequences(seed)):
        out[:] = np.random.Generator(np.random.PCG64(sequence)).multinomial(shots, row)
    return counts.reshape(dist.shape)


# Each two-qubit Pauli observable's signs over BITSTRINGS: an outcome's sign
# is the parity of its bits under non-identity factors.
_OUTCOME_SIGNS = {
    obs: np.array([(-1.0) ** sum(bit == "1" for bit, factor in zip(bits, obs) if factor != "I")
                   for bits in BITSTRINGS])
    for obs in (a + b for a in "IXYZ" for b in "IXYZ")
}


def expectation(freqs, observable):
    """Empirical Pauli expectation from frequency 4-vectors: an array whose
    last axis holds the outcomes ``BITSTRINGS`` of a setting that measures
    every non-identity factor of the observable.

    The observable is a string of two of I/X/Y/Z. Identity factors
    marginalize the corresponding bit.

    A list or tuple of k observables reads them all in one call: the result
    is ``np.matmul``'s broadcast of ``freqs``, as a stack of (m, 4) blocks,
    against the k observables' sign columns, without its last axis. So
    observable j reads ``freqs[..., j, :, :]``, or every block if that axis
    has length 1 or ``freqs`` has fewer than 3 axes. numpy makes each block
    the BLAS call that ``expectation(block, observable)`` makes (a dot for
    m = 1, a GEMV otherwise), so each entry has that call's bits.
    """
    if isinstance(observable, (list, tuple)):
        signs = _sign_columns(tuple(map(_observable, observable)))  # each validated first
        return (np.asarray(freqs, dtype=float) @ signs)[..., 0]
    return np.asarray(freqs, dtype=float) @ _OUTCOME_SIGNS[_observable(observable)]


def _observable(observable) -> str:
    if not isinstance(observable, str) or observable not in _OUTCOME_SIGNS:
        raise ValueError(f"observable must be two of I/X/Y/Z, got {observable!r}")
    return observable


@functools.lru_cache(maxsize=32)  # a few tuples of observables in use
def _sign_columns(observables: tuple[str, ...]) -> np.ndarray:
    """The read-only (k, 4, 1) stack of the validated observables' signs, built once per tuple."""
    signs = np.array([_OUTCOME_SIGNS[obs] for obs in observables]).reshape(-1, 4, 1)
    signs.flags.writeable = False
    return signs
