"""Small dense complex linear algebra used throughout the toolkit.

Matrices are plain 2-D complex numpy arrays, row-major, at most 16x16;
``dagger``, ``kraus_sum`` and ``check_density_matrix`` also map over a
leading stack axis. ``kraus_sum`` is the one place a channel acts on a
state. Everything here is a pure function; inputs are never mutated.
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
    return np.swapaxes(np.asarray(m).conj(), -1, -2)


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def kron(a, b) -> np.ndarray:
    a, b = as_matrix(a), as_matrix(b)
    return kron_pairs(a[None], b[None])[0]


def kron_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kron(a[i], b[j]) for each pair from two stacks, i-major: one broadcast
    product making ``np.kron``'s multiply per entry; no validation."""
    (n, p, _), (m, r, _) = a.shape, b.shape
    return (a[:, None, :, None, :, None] * b[None, :, None, :, None, :]).reshape(n * m, p * r, -1)


def kraus_sum(ops, rho) -> np.ndarray:
    """sum_k K rho K^dag, term by term in the order of ``ops``, on a density
    matrix or a stack of them; no validation."""
    out = np.zeros_like(rho, dtype=complex)
    for k in ops:
        out += k @ rho @ dagger(k)
    return out


def partial_trace(m, keep, dims) -> np.ndarray:
    """Trace out the subsystems of ``m`` not listed in ``keep``.

    ``dims`` gives the dimension of each subsystem in order; ``keep`` is a
    sequence of subsystem indices to retain (original order preserved).
    """
    m = as_matrix(m)
    dims = list(int(d) for d in dims)
    keep = sorted(int(k) for k in np.atleast_1d(keep))
    n = len(dims)
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValueError(f"matrix shape {m.shape} inconsistent with dims {dims}")
    if any(k < 0 or k >= n for k in keep) or len(set(keep)) != len(keep):
        raise ValueError(f"invalid keep selector {keep} for {n} subsystems")

    t = m.reshape(dims + dims)
    traced = 0
    for q in range(n):
        if q not in keep:
            axis = q - traced
            nleft = len(t.shape) // 2
            t = np.trace(t, axis1=axis, axis2=axis + nleft)
            traced += 1
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


def is_unitary(m, atol: float = 1e-10) -> bool:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return frobenius(dagger(m) @ m - np.eye(m.shape[0])) <= atol


def check_density_matrix(rho, dim: int = 4) -> np.ndarray:
    """Validate a density matrix, or each of a stack of them: Hermitian, unit
    trace, PSD within -1e-8. Returns the complex array. A stack is checked
    with one batched ``eigvalsh``; a defective state in it fails with the
    message it fails with alone."""
    try:
        rho = np.asarray(rho, dtype=complex)
    except ValueError:  # states of different shapes: fail on the first bad one
        for state in rho:
            check_density_matrix(state, dim)
        raise
    if rho.ndim not in (2, 3):
        raise ValueError(f"expected a 2-D matrix, got ndim={rho.ndim}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("matrix has non-finite entries")
    if rho.shape[-2:] != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} density matrix, got {rho.shape[-2:]}")
    states = rho.reshape(-1, dim, dim)
    if (np.linalg.norm(states - dagger(states), axis=(1, 2)) > _DENSITY_ATOL).any():
        raise ValueError("density matrix is not Hermitian")
    traces = np.trace(states, axis1=1, axis2=2)
    off = np.abs(traces.real - 1.0) > _DENSITY_ATOL
    if off.any():
        raise ValueError(f"density matrix trace {traces[off][0]:.3g} != 1")
    if np.linalg.eigvalsh(0.5 * (states + dagger(states))).min() < -_DENSITY_ATOL:
        raise ValueError("density matrix is not positive semidefinite")
    return rho
