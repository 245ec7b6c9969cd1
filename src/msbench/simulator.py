"""Density-matrix evolution of two-qubit circuits and seeded shot sampling.

The simulator is exact: gates act as unitaries, noise acts through Kraus
sets, and measurement probabilities are computed in closed form. Shot noise
is the only stochastic element, drawn multinomially from a seeded generator.

Batches: ``evolve``, ``outcome_distribution``, ``sample_counts`` and
``expectation`` take a leading stack axis; a single entry is the one-element
case of the same code, and ``sample_counts`` returns counts in the shape of
its input, (4,) for one 4-vector and (n, 4) for a stack. Input checks
(``check_density_matrix``, ``distribution_defect``) run once over the stack,
and a defective entry fails with the message it fails with alone. Each entry
goes through exactly the floating-point operations it would go through
alone: ``u @ rho @ u^dag`` for the whole stack in two GEMMs, each channel
as K rho K^dag for all its operators and states in 1 + k GEMMs, and the
setting rotations the same way (``linalg.sandwich``: grouping changes the
number of BLAS calls, not any entry's dot product, measured bit for bit for
d >= 4; a 2x2 left product stays per matrix), the channel's terms added in
the order it lists them, per-state normalization, an ``einsum`` for the
readout confusion, and a per-row clip, renormalization and draw from the
row's own PCG64 stream. Sampled counts depend on this. Many outcome distributions sit on ties such as p = 0.5
between two outcomes, where a one-ulp change flips the binomial draw and
swaps two counts; folding the gates into one superoperator, or the confusion
into one flattened matrix product, changes such ulps.

RNG: numpy PCG64 (algorithm id ``numpy-PCG64-multinomial``). A row
sampled with seed s gets the counts of
``np.random.Generator(np.random.PCG64(s)).multinomial``; identical seeds
reproduce identical counts. ``sample_counts`` builds one generator per call
and, before each row's draw, sets it to the state ``PCG64(s)`` would start
in. ``pcg64_states`` computes those states for a whole stack of seeds at
once. Both steps of PCG64 seeding are fixed-width integer arithmetic, so
the stacked computation is exact: numpy's ``SeedSequence`` hash (a pool of
four uint32 words, after O'Neill's randutils ``seed_seq``) runs as uint32
array operations over all pool words and all seeds at once, with its
data-independent constants tabled once, and PCG's two-step 128-bit LCG
seeding (O'Neill, HMC-CS-2014-0905) on Python integers. ``spawn_seeds``
hashes a master seed once and mixes only the spawn keys per child. A uint64
seed array is valid by its dtype and is split into words by array ops; a
seed given as a Python int or in a list is checked (``validate_seed``). A
reused generator draws what a fresh one would, because its only other
state, the binomial set-up cache, is a function of (n, p) alone. The tests
check the seeds, the states and the draws against numpy's own classes.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .circuits import Circuit
from .linalg import I2, check_density_matrix, dagger, kraus_sum, kron, sandwich

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
# PCG's default 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


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


def _seed_width(value: int) -> int:
    """Number of uint32 words a seed hashes as, padded up to the pool size.

    Zero words up to the pool size hash exactly like absent ones, so this
    padding never changes a seed's hash; words past the pool size are mixed
    in a further loop, so longer seeds are never padded."""
    return max(_POOL_SIZE, -(-value.bit_length() // 32))


def _int_words(values, width: int) -> np.ndarray:
    """(width x n) uint32 array of each value's little-endian 32-bit words."""
    return np.array([[v >> 32 * i & _MASK32 for v in values] for i in range(width)],
                    dtype=np.uint32)


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
    """The (4 x n) mixed pool of ``SeedSequence`` for each column of a (words x n)
    uint32 array of assembled entropy, padded by the caller to the pool size."""
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
    pool = _hashmix(entropy[:_POOL_SIZE], consts[:, :_POOL_SIZE])
    for src, dst in _CROSS_MIX:
        step = _POOL_SIZE + (_POOL_SIZE - 1) * src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[:, step:step + _POOL_SIZE - 1]))
    return _mix_in(pool, entropy[_POOL_SIZE:], _POOL_SIZE * _POOL_SIZE)


def _generate_state(pool: np.ndarray, n_words: int) -> np.ndarray:
    """``generate_state(n_words)`` of each pool column, as (n_words x n) uint32."""
    return _hashmix(pool[np.arange(n_words) % _POOL_SIZE],
                    _hash_consts(_INIT_B, _MULT_B, n_words))


def _seed_sequence(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``np.random.SeedSequence(...).generate_state(n_words)`` for every
    column of a (words x n) uint32 array of assembled entropy, as an
    (n_words x n) uint32 array; every pool word hashes in one step."""
    return _generate_state(_entropy_pool(entropy), n_words)


def spawn_seeds(master: int, keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(master, spawn_key=key).generate_state(1, np.uint64)[0]``
    for each column of a (k x n) uint32 array of spawn keys, k >= 1 (each key
    entry below 2^32, so one word), as n uint64 seeds; ``master`` is a
    validated seed. The master's words hash once, in one column; only the
    key words are mixed into the pool across the n columns."""
    width = _seed_width(master)  # a spawn key pads the master's words to the pool size
    pool = _entropy_pool(_int_words([master], width))  # (4 x 1): broadcast by the first key
    lo, hi = _generate_state(_mix_in(pool, keys, _POOL_SIZE * width), 2).astype(np.uint64)
    return lo | hi << np.uint64(32)


def pcg64_states(seeds) -> list[tuple[int, int]]:
    """The ``(state, inc)`` pair ``np.random.PCG64(seed)`` starts in, per seed.

    ``PCG64(seed)`` takes four uint64 words w0..w3 from
    ``SeedSequence(seed).generate_state(4, np.uint64)``, then seeds PCG with
    initstate = w0:w1 and initseq = w2:w3: inc = 2 initseq + 1 and
    state = ((inc + initstate) MULT + inc) mod 2^128.

    A 1-D uint64 array is valid by its dtype: its seeds are split into words
    by two array ops and hashed in one pass. Any other sequence is checked
    seed by seed (``validate_seed``), and its seeds hash in groups of one
    width, so seeds past 2^128 hash as the wider ``SeedSequence`` input.
    """
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64 and seeds.ndim == 1:
        entropy = np.zeros((_POOL_SIZE, len(seeds)), dtype=np.uint32)
        entropy[:2] = seeds >> _WORD_SHIFTS & np.uint64(_MASK32)
        words = _seed_sequence(entropy, 8)
    else:
        seeds = [validate_seed(s) for s in seeds]
        words = np.empty((8, len(seeds)), dtype=np.uint32)
        widths = [_seed_width(s) for s in seeds]
        for width in set(widths):  # seeds longer than the pool hash in groups of one length
            rows = [i for i, w in enumerate(widths) if w == width]
            words[:, rows] = _seed_sequence(_int_words([seeds[i] for i in rows], width), 8)
    w0, w1, w2, w3 = (words[0::2].astype(np.uint64)
                      | words[1::2].astype(np.uint64) << np.uint64(32)).tolist()
    states = []
    for initstate_hi, initstate_lo, initseq_hi, initseq_lo in zip(w0, w1, w2, w3):
        inc = ((initseq_hi << 64 | initseq_lo) << 1 | 1) & _MASK128
        state = ((inc + (initstate_hi << 64 | initstate_lo)) * _PCG_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


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
_SETTING_ROTATION = {
    a + b: kron(_BASIS_ROTATION[a], _BASIS_ROTATION[b])
    for a in MEASUREMENT_BASES for b in MEASUREMENT_BASES
}


def validate_setting(setting: str) -> str:
    if len(setting) != 2 or any(b not in MEASUREMENT_BASES for b in setting):
        raise ValueError(f"measurement setting must be two of X/Y/Z, got {setting!r}")
    return setting


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
        rho = sandwich(gate.matrix()[None], rho)[0]
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
    """
    settings = [setting] if isinstance(setting, str) else list(setting)
    r = np.array([_SETTING_ROTATION[validate_setting(s)] for s in settings])
    rho = check_density_matrix(rho)
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

    Given an (n, 4) stack instead, ``seed`` holds one seed per row (a uint64
    array goes to ``pcg64_states`` as it is), and the result is the (n, 4)
    int64 array of the counts the single-row calls would draw.
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
    seeds = [seed] if dist.ndim == 1 else seed if isinstance(seed, np.ndarray) else list(seed)
    if len(seeds) != len(rows):
        raise ValueError("a stack of distributions needs one seed per row")
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    counts = np.empty(rows.shape, dtype=np.int64)
    pcg = {"state": 0, "inc": 0}
    record = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for out, row, (state, inc) in zip(counts, rows, pcg64_states(seeds)):
        pcg["state"], pcg["inc"] = state, inc
        bit_generator.state = record
        out[:] = rng.multinomial(shots, row)
    return counts.reshape(dist.shape)


# Each two-qubit Pauli observable's signs over BITSTRINGS: an outcome's sign
# is the parity of its bits under non-identity factors.
_OUTCOME_SIGNS = {
    obs: np.array([(-1.0) ** sum(bit == "1" for bit, factor in zip(bits, obs) if factor != "I")
                   for bits in BITSTRINGS])
    for obs in (a + b for a in "IXYZ" for b in "IXYZ")
}


def expectation(freqs, observable: str):
    """Empirical Pauli expectation from frequency 4-vectors: an array whose
    last axis holds the outcomes ``BITSTRINGS`` of a setting that measures
    every non-identity factor of the observable.

    The observable is a string of two of I/X/Y/Z. Identity factors
    marginalize the corresponding bit.
    """
    if not isinstance(observable, str) or observable not in _OUTCOME_SIGNS:
        raise ValueError(f"observable must be two of I/X/Y/Z, got {observable!r}")
    return np.asarray(freqs, dtype=float) @ _OUTCOME_SIGNS[observable]
