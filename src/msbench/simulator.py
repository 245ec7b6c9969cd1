"""Density-matrix evolution of two-qubit circuits and seeded shot sampling.

The simulator is exact: gates act as unitaries, noise acts through Kraus
sets, and measurement probabilities are computed in closed form. Shot noise
is the only stochastic element, drawn multinomially from a seeded generator.

Batches: ``evolve``, ``outcome_distribution``, ``sample_counts`` and
``expectation`` take a leading stack axis; a single entry is the one-element
case of the same code, except that ``sample_counts`` turns one 4-vector into
a ``CountsRecord`` and a stack into an (n, 4) count array. Input checks
(``check_density_matrix``, ``distribution_defect``) run once over the stack,
and a defective entry fails with the message it fails with alone. Each entry
goes through exactly the floating-point operations it would go through
alone: stacked ``u @ rho @ u^dag`` products, Kraus terms summed by
``linalg.kraus_sum`` in the order the channel lists them, per-state
normalization, an ``einsum`` for the readout confusion, and a per-row clip,
renormalization and draw from the row's own PCG64 stream. Sampled counts
depend on this. Many outcome distributions sit on ties such as p = 0.5
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
array operations, and PCG's two-step 128-bit LCG seeding (O'Neill,
HMC-CS-2014-0905) on Python integers. A reused generator draws what a fresh
one would, because its only other state, the binomial set-up cache, is a
function of (n, p) alone. The tests check the seeds, the states and the
draws against numpy's own classes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, _check_record
from .linalg import I2, check_density_matrix, dagger, kraus_sum, kron

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
# PCG's default 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def validate_seed(seed) -> int:
    """A seed is a non-negative integer; floats and None are refused, not cast."""
    try:
        value = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}") from None
    if value < 0:
        raise ValueError(f"seed must be a non-negative integer, got {value}")
    return value


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


def _seed_sequence(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``np.random.SeedSequence(...).generate_state(n_words)`` for every
    column of a (words x n) uint32 array of assembled entropy, as an
    (n_words x n) uint32 array."""

    def hash_consts(init, mult):  # data-independent: the constant runs on per call
        while True:
            nxt = init * mult & _MASK32
            yield np.uint32(init), np.uint32(nxt)
            init = nxt

    def hashmix(value, consts):
        xor, mul = next(consts)
        value = (value ^ xor) * mul
        return value ^ value >> 16

    def mix(x, y):
        value = _MIX_MULT_L * x - _MIX_MULT_R * y
        return value ^ value >> 16

    consts = hash_consts(_INIT_A, _MULT_A)
    pool = [hashmix(word, consts) for word in entropy[:_POOL_SIZE]]  # padded by the caller
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src], consts))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word, consts))
    consts = hash_consts(_INIT_B, _MULT_B)
    return np.array([hashmix(pool[i % _POOL_SIZE], consts) for i in range(n_words)])


def spawn_seeds(master: int, keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(master, spawn_key=key).generate_state(1, np.uint64)[0]``
    for each column of a (k x n) uint32 array of spawn keys (each key entry
    below 2^32, so one word), as n uint64 seeds."""
    master = validate_seed(master)
    width = _seed_width(master)  # a spawn key pads the master's words to the pool size
    entropy = np.vstack([np.broadcast_to(_int_words([master], width), (width, keys.shape[1])),
                         keys])
    lo, hi = _seed_sequence(entropy, 2).astype(np.uint64)
    return lo | hi << np.uint64(32)


def pcg64_states(seeds) -> list[tuple[int, int]]:
    """The ``(state, inc)`` pair ``np.random.PCG64(seed)`` starts in, per seed.

    ``PCG64(seed)`` takes four uint64 words w0..w3 from
    ``SeedSequence(seed).generate_state(4, np.uint64)``, then seeds PCG with
    initstate = w0:w1 and initseq = w2:w3: inc = 2 initseq + 1 and
    state = ((inc + initstate) MULT + inc) mod 2^128.
    """
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


@dataclass(frozen=True)
class CountsRecord:
    """Outcome record for one measurement setting.

    Either integer ``counts`` with ``shots``, or an exact probability vector
    (``shots`` is None) when the run bypassed sampling.
    """

    setting: str
    shots: int | None
    counts: dict | None
    probs: tuple | None = None

    def __post_init__(self):
        validate_setting(self.setting)
        if self.counts is not None:
            if self.shots is None or self.shots <= 0:
                raise ValueError("counted records need a positive shot number")
            _check_record(self.counts, (), BITSTRINGS, "counts")
            for key, value in self.counts.items():
                if not (type(value) is int or isinstance(value, np.integer)) or value < 0:
                    raise ValueError(f"counts[{key!r}] = {value!r} is not a non-negative integer")
            if sum(self.counts.values()) != self.shots:
                raise ValueError("counts do not sum to shots")
            object.__setattr__(
                self, "counts", {b: int(self.counts.get(b, 0)) for b in BITSTRINGS}
            )
        elif self.probs is None:
            raise ValueError("record needs counts or exact probabilities")
        else:
            probs = tuple(float(p) for p in self.probs)
            # A NaN or infinite entry makes the sum fail the second test.
            if len(probs) != 4 or not (min(probs) >= -_PROB_ATOL
                                       and abs(sum(probs) - 1.0) <= _PROB_ATOL):
                raise ValueError(f"probabilities {list(probs)} are not 4 finite entries, "
                                 f"each >= -{_PROB_ATOL:g}, summing to 1 within {_PROB_ATOL:g}")
            object.__setattr__(self, "probs", probs)

    @property
    def exact(self) -> bool:
        return self.counts is None

    def frequencies(self) -> np.ndarray:
        if self.exact:
            return np.array(self.probs)
        return np.array([self.counts[b] for b in BITSTRINGS]) / self.shots

    def to_dict(self) -> dict:
        if self.exact:
            return {"setting": self.setting, "exact": True, "probabilities": list(self.probs)}
        return {"setting": self.setting, "shots": self.shots, "counts": dict(self.counts)}

    @staticmethod
    def from_dict(d, where: str) -> "CountsRecord":
        """The record a JSON object holds; every error is prefixed with ``where``."""
        exact = isinstance(d, dict) and bool(d.get("exact"))  # a JSON object is a dict
        keys = ("setting", "probabilities") if exact else ("setting", "shots", "counts")
        _check_record(d, keys, ("exact", *keys), where)
        try:
            return CountsRecord(d["setting"], d.get("shots"), d.get("counts"),
                                d.get("probabilities"))
        except ValueError as err:
            raise ValueError(f"{where}: {err}") from None


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
        u = gate.matrix()
        rho = u @ rho @ dagger(u)
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
    probs = np.real(np.diagonal(r @ rho[..., None, :, :] @ dagger(r), axis1=-2, axis2=-1))
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


def sample_counts(dist, shots: int, seed, setting="ZZ") -> CountsRecord | np.ndarray:
    """Deterministic multinomial draw from a probability 4-vector: the counts
    of ``np.random.Generator(np.random.PCG64(seed)).multinomial``, for a
    non-negative integer ``seed``, as a record of ``setting``.

    Given an (n, 4) stack instead, ``seed`` holds one seed per row, and the
    result is the (n, 4) int64 array of the counts the single-row calls
    would draw, in ``BITSTRINGS`` order.
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
    if shots <= 0:
        raise ValueError("shots must be positive")
    rows = np.clip(rows, 0.0, None)
    rows /= rows.sum(axis=1, keepdims=True)
    seeds = [seed] if dist.ndim == 1 else list(seed)
    if len(seeds) != len(rows):
        raise ValueError("a stack of distributions needs one seed per row")
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    counts = np.empty(rows.shape, dtype=np.int64)
    for out, row, (state, inc) in zip(counts, rows, pcg64_states(seeds)):
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        out[:] = rng.multinomial(shots, row)
    return counts if dist.ndim == 2 else CountsRecord(setting, shots,
                                                      dict(zip(BITSTRINGS, counts[0].tolist())))


def compatible(observable: str, setting: str) -> bool:
    """Whether the setting measures every non-identity factor of the observable."""
    return all(factor in ("I", basis) for factor, basis in zip(observable, setting))


def expectation(data, observable: str):
    """Empirical Pauli expectation from a counts record, or from frequency
    4-vectors (an array whose last axis holds the outcomes ``BITSTRINGS``).

    The observable is two of I/X/Y/Z. For a record, every non-identity factor
    must match the record's measurement setting at that position; frequencies
    must come from such a setting. Identity factors marginalize the
    corresponding bit.
    """
    if len(observable) != 2 or any(c not in "IXYZ" for c in observable):
        raise ValueError(f"observable must be two of I/X/Y/Z, got {observable!r}")
    if isinstance(data, CountsRecord):
        if not compatible(observable, data.setting):
            raise ValueError(f"observable {observable} incompatible with setting {data.setting}")
        return float(expectation(data.frequencies(), observable))
    # An outcome's sign is the parity of its bits under non-identity factors.
    signs = np.array([
        (-1.0) ** sum(bit == "1" for bit, factor in zip(bits, observable) if factor != "I")
        for bits in BITSTRINGS
    ])
    return np.asarray(data, dtype=float) @ signs
