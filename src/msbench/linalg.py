"""Small dense complex linear algebra used throughout the toolkit.

Matrices are plain 2-D complex numpy arrays, row-major, at most 16x16;
``dagger``, ``kraus_sum`` and ``check_density_matrix`` also map over a
leading stack axis. ``sandwich`` is the toolkit's one A X A^dag: a gate's
unitary step, every channel term (``kraus_sum`` adds them in the channel's
order), the measurement rotations and ``project_cptp``'s change of basis.
Its grouped GEMMs keep the per-matrix products' bits, and its docstring
says why. Everything here is a pure function; inputs are never mutated.
"""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULIS_1Q = {"I": I2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

_DENSITY_ATOL = 1e-8  # check_density_matrix's Hermiticity, trace and PSD tolerance


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-D complex array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def kron(a, b) -> np.ndarray:
    """``np.kron`` of two matrices as complex arrays, bit for bit: ``kron_pairs``
    of the two one-matrix stacks; no validation."""
    return kron_pairs(np.asarray(a, dtype=complex)[None], np.asarray(b, dtype=complex)[None])[0]


def kron_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kron(a[i], b[j]) for each pair from two stacks, i-major: one broadcast
    product making ``np.kron``'s multiply per entry; no validation."""
    (n, p, _), (m, r, _) = a.shape, b.shape
    return (a[:, None, :, None, :, None] * b[None, :, None, :, None, :]).reshape(n * m, p * r, -1)


def matmul_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[j] for each pair from two stacks of d x d matrices, as an
    (n, m, d, d) array, i-major; no validation.

    For d >= 4 it is one GEMM, a's rows stacked times b's matrices side by
    side, with the bits of the per-pair products. For d = 2 the grouped
    product changed the bits of 43,195 of 46,048 products, in 576 of 600
    random pairs of stacks of 1-16 matrices (OpenBLAS 0.3.31, SkylakeX
    kernels), so 2x2 pairs stay one matmul each."""
    (n, d, _), m = a.shape, len(b)
    if d == 2:
        return np.matmul(a[:, None], b)
    left = a.reshape(n * d, d) @ b.swapaxes(0, 1).reshape(d, m * d)
    return left.reshape(n, d, m, d).swapaxes(1, 2)


def sandwich(ops, rho) -> np.ndarray:
    """K rho K^dag for each K of a (k, d, d) stack and each state of ``rho``
    (one matrix or a stack), shaped (k, *rho.shape); no validation.

    ``matmul_pairs`` makes every K rho, then one GEMM per operator takes all
    its products times K^dag: 1 + k BLAS calls, not 2 k per state. A GEMM
    computes each output entry as one dot product over the inner dimension,
    so grouping changes the number of calls, not any entry's operands, order
    or bits: each equals ``K @ rho @ dagger(K)`` by ``tobytes`` for d = 4, 8
    and 16, signed zeros included (OpenBLAS 0.3.31, its SkylakeX kernels;
    ``OPENBLAS_CORETYPE`` selects another set, whose bits may differ). The
    2x2 left product is the exception (``matmul_pairs``)."""
    ops, rho = np.asarray(ops), np.asarray(rho)
    k, d, _ = ops.shape
    left = matmul_pairs(ops, rho.reshape(-1, d, d)).reshape(k, -1, d)
    return (left @ dagger(ops)).reshape((k,) + rho.shape)


def kraus_sum(ops, rho) -> np.ndarray:
    """sum_k K rho K^dag on a density matrix or a stack of them; no validation.

    ``sandwich`` makes every term, and ``np.add.reduce`` adds them from 0 in
    the order of ``ops``: the bits of ``out = 0; out += K rho K^dag`` term
    by term."""
    return np.add.reduce(sandwich(ops, rho), axis=0, dtype=complex, initial=0j)


def check_density_matrix(rho, dim: int = 4) -> np.ndarray:
    """Validate a density matrix, or each of a stack of them: real and
    imaginary parts within 2, Hermitian, unit trace, PSD within -1e-8.
    Returns the complex array. A stack is checked with one batched
    ``eigvalsh``; a defective state in it fails with the message it fails
    with alone. The bound refuses no state the other checks admit, whose
    entries lie within about 1, and keeps the Hermitian part's sums finite:
    a huge finite entry fails here, not as an overflow and a ``LinAlgError``."""
    try:
        rho = np.asarray(rho, dtype=complex)
    except ValueError:  # states of different shapes: fail on the first bad one
        for state in rho:
            check_density_matrix(state, dim)
        raise
    if rho.ndim not in (2, 3):
        raise ValueError(f"expected a 2-D matrix, got ndim={rho.ndim}")
    peak = np.abs(np.ascontiguousarray(rho).view(float)).max(initial=0)
    if not peak <= 2:  # NaN fails it too
        if not np.isfinite(peak):
            raise ValueError("matrix has non-finite entries")
        raise ValueError("density matrix has an entry beyond 2; a state's lie within 1")
    if rho.shape[-2:] != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} density matrix, got {rho.shape[-2:]}")
    states = rho.reshape(-1, dim, dim)
    if not len(states):
        raise ValueError("empty stack of density matrices: need at least one state")
    if (np.linalg.norm(states - dagger(states), axis=(1, 2)) > _DENSITY_ATOL).any():
        raise ValueError("density matrix is not Hermitian")
    traces = np.trace(states, axis1=1, axis2=2)
    off = np.abs(traces.real - 1.0) > _DENSITY_ATOL
    if off.any():
        raise ValueError(f"density matrix trace {traces[off][0]:.3g} != 1")
    if np.linalg.eigvalsh(0.5 * (states + dagger(states))).min() < -_DENSITY_ATOL:
        raise ValueError("density matrix is not positive semidefinite")
    return rho
