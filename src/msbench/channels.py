"""Quantum channels in Kraus, Choi, and chi (process-matrix) form.

Conventions, fixed across the toolkit:

* Choi matrices are stored as *states*: J = (E (x) Id)(|Omega><Omega|) with
  |Omega> = sum_i |ii>/sqrt(d), ordered output (x) input. Tr(J) = 1 and
  trace preservation reads Tr_out(J) = I/d.
* chi matrices hold the expansion E(rho) = sum_mn chi_mn P_m rho P_n^dag
  over the d^2 Pauli products ordered (I, X, Y, Z) per qubit, qubit 0 first.
  With this scaling Tr(chi) = 1 for trace-preserving maps, and chi is the
  Choi state rewritten in the (orthonormalized) Pauli basis, so the two share
  eigenvalues.
* Kraus operators act as E(rho) = sum_k K rho K^dag with sum K^dag K = I.

Every representation applies to states through its Kraus operators
(``linalg.kraus_sum``); a Choi or chi channel is converted first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import (
    PAULIS_1Q,
    as_matrix,
    check_density_matrix,
    dagger,
    frobenius,
    is_unitary,
    kraus_sum,
    kron,
    partial_trace,
)

REPRESENTATIONS = ("kraus", "choi", "chi")

_EIG_CLIP = 1e-12


class ProjectionError(RuntimeError):
    """Alternating projection onto the CPTP set failed to converge."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"CPTP projection did not converge after {iterations} iterations "
            f"(last successive-iterate residual {residual:.3e})"
        )


def pauli_basis(num_qubits: int) -> list[np.ndarray]:
    """Unnormalized Pauli products, (I, X, Y, Z) per qubit, qubit 0 first."""
    labels = ("I", "X", "Y", "Z")
    ops = [PAULIS_1Q[l] for l in labels]
    out = ops
    for _ in range(num_qubits - 1):
        out = [kron(a, b) for a, b in itertools.product(out, ops)]
    return out


def _pauli_change_of_basis(dim: int) -> np.ndarray:
    """Unitary with columns flat(P_m)/sqrt(d); maps chi to Choi."""
    n = dim.bit_length() - 1
    cols = [p.reshape(-1) / np.sqrt(dim) for p in pauli_basis(n)]
    return np.column_stack(cols)


_BASIS_CACHE: dict[int, np.ndarray] = {}


def _basis_matrix(dim: int) -> np.ndarray:
    if dim not in _BASIS_CACHE:
        _BASIS_CACHE[dim] = _pauli_change_of_basis(dim)
    return _BASIS_CACHE[dim]


@dataclass(frozen=True)
class QuantumChannel:
    """A CPTP map on 1 or 2 qubits, in one of three representations."""

    representation: str
    data: tuple[np.ndarray, ...] | np.ndarray
    dim: int

    @staticmethod
    def from_kraus(operators) -> "QuantumChannel":
        """Validate the operators as one (count, d, d) stack; the stored
        operators are its rows, equal in value and order to the input."""
        ops = list(operators)
        if not ops:
            raise ValueError("empty Kraus set")
        shape_error = ValueError("Kraus operators must share a square 2x2 or 4x4 shape")
        try:
            stack = np.array(ops, dtype=complex)
        except ValueError:
            if len({np.shape(k) for k in ops}) > 1:  # operators of different shapes
                raise shape_error from None
            raise
        if stack.ndim != 3:
            raise ValueError(f"expected a 2-D matrix, got ndim={stack.ndim - 1}")
        if not np.isfinite(stack).all():
            raise ValueError("matrix has non-finite entries")
        _, dim, cols = stack.shape
        if dim not in (2, 4) or cols != dim:
            raise shape_error
        comp = np.einsum("kji,kjl->il", stack.conj(), stack)
        if frobenius(comp - np.eye(dim)) > 1e-8:
            raise ValueError("Kraus set is not trace-preserving (completeness fails)")
        return QuantumChannel("kraus", tuple(stack), dim)

    @staticmethod
    def from_choi(matrix, atol_psd: float = 1e-8, atol_tp: float = 1e-6) -> "QuantumChannel":
        j = as_matrix(matrix)
        side = j.shape[0]
        dim = int(np.sqrt(side))
        if j.shape != (side, side) or dim * dim != side or dim not in (2, 4):
            raise ValueError(f"Choi matrix has unsupported shape {j.shape}")
        if frobenius(j - dagger(j)) > 1e-8:
            raise ValueError("Choi matrix is not Hermitian")
        j = 0.5 * (j + dagger(j))
        if np.linalg.eigvalsh(j).min() < -atol_psd:
            raise ValueError("Choi matrix is not positive semidefinite")
        tp_gap = frobenius(dim * partial_trace(j, [1], [dim, dim]) - np.eye(dim))
        if tp_gap > atol_tp:
            raise ValueError(f"Choi matrix is not trace-preserving (residual {tp_gap:.3e})")
        return QuantumChannel("choi", j, dim)

    @staticmethod
    def from_chi(matrix) -> "QuantumChannel":
        c = as_matrix(matrix)
        side = c.shape[0]
        dim = int(np.sqrt(side))
        if c.shape != (side, side) or dim * dim != side or dim not in (2, 4):
            raise ValueError(f"chi matrix has unsupported shape {c.shape}")
        if frobenius(c - dagger(c)) > 1e-8:
            raise ValueError("chi matrix is not Hermitian")
        if abs(np.trace(c).real - 1.0) > 1e-8:
            raise ValueError("chi matrix trace != 1 under the normalized convention")
        b = _basis_matrix(dim)
        QuantumChannel.from_choi(b @ c @ dagger(b))  # CP/TP validation
        return QuantumChannel("chi", c, dim)

    def to_dict(self) -> dict:
        """JSON form: representation tag plus row-major [re, im] entry pairs."""
        def encode(m):
            return [[float(z.real), float(z.imag)] for z in np.asarray(m).reshape(-1)]

        if self.representation == "kraus":
            return {
                "representation": "kraus",
                "dim": self.dim,
                "operators": [encode(k) for k in self.data],
            }
        return {
            "representation": self.representation,
            "dim": self.dim,
            "entries": encode(self.data),
        }

    @staticmethod
    def from_dict(d: dict) -> "QuantumChannel":
        dim = int(d["dim"])

        def decode(pairs, side):
            flat = np.array([complex(re, im) for re, im in pairs])
            return flat.reshape(side, side)

        if d["representation"] == "kraus":
            return QuantumChannel.from_kraus([decode(op, dim) for op in d["operators"]])
        m = decode(d["entries"], dim * dim)
        if d["representation"] == "choi":
            return QuantumChannel.from_choi(m)
        if d["representation"] == "chi":
            return QuantumChannel.from_chi(m)
        raise ValueError(f"unknown representation {d['representation']!r}")

    def kraus_operators(self) -> tuple[np.ndarray, ...]:
        return self.convert("kraus").data

    def choi_matrix(self) -> np.ndarray:
        return self.convert("choi").data

    def chi_matrix(self) -> np.ndarray:
        return self.convert("chi").data

    def convert(self, to: str) -> "QuantumChannel":
        if to not in REPRESENTATIONS:
            raise ValueError(f"unknown representation {to!r}")
        if to == self.representation:
            return self
        if self.representation == "kraus":
            j = _kraus_to_choi(self.data, self.dim)
            ch = QuantumChannel("choi", j, self.dim)
            return ch if to == "choi" else ch.convert("chi")
        if self.representation == "choi":
            if to == "kraus":
                return QuantumChannel("kraus", _choi_to_kraus(self.data, self.dim), self.dim)
            b = _basis_matrix(self.dim)
            return QuantumChannel("chi", dagger(b) @ self.data @ b, self.dim)
        # chi -> choi (-> kraus)
        b = _basis_matrix(self.dim)
        ch = QuantumChannel("choi", b @ self.data @ dagger(b), self.dim)
        return ch if to == "choi" else ch.convert("kraus")

    def apply(self, rho) -> np.ndarray:
        """Apply the channel to a density matrix, or to each of a stack of
        them, through its Kraus operators."""
        return kraus_sum(self.kraus_operators(), check_density_matrix(rho, dim=self.dim))

    def tensor(self, other: "QuantumChannel") -> "QuantumChannel":
        """Parallel composition: self on the first factor, other on the second."""
        ops = [kron(a, b) for a in self.kraus_operators() for b in other.kraus_operators()]
        return QuantumChannel.from_kraus(ops)

    def compose(self, after: "QuantumChannel") -> "QuantumChannel":
        """Sequential composition: ``after`` is applied after self."""
        if after.dim != self.dim:
            raise ValueError("cannot compose channels of different dimension")
        ops = [b @ a for b in after.kraus_operators() for a in self.kraus_operators()]
        ch = QuantumChannel.from_kraus(ops)
        if len(ops) > self.dim**2:
            ch = ch.convert("choi").convert("kraus")  # compress to a minimal set
        return ch


def _kraus_to_choi(ops, dim: int) -> np.ndarray:
    j = np.zeros((dim * dim, dim * dim), dtype=complex)
    for k in ops:
        v = k.reshape(-1, 1)  # row-major flatten matches output (x) input ordering
        j += v @ dagger(v)
    return j / dim


def _choi_to_kraus(j, dim: int) -> tuple[np.ndarray, ...]:
    vals, vecs = np.linalg.eigh(0.5 * (j + dagger(j)))
    ops = []
    for lam, v in zip(vals, vecs.T):
        if lam > _EIG_CLIP:
            ops.append(np.sqrt(dim * lam) * v.reshape(dim, dim))
    return tuple(ops) if ops else (np.zeros((dim, dim), dtype=complex),)


def channel_from_unitary(u) -> QuantumChannel:
    u = as_matrix(u)
    if not is_unitary(u, atol=1e-8):
        raise ValueError("matrix is not unitary within 1e-8")
    return QuantumChannel.from_kraus([u])


def identity_channel(dim: int = 4) -> QuantumChannel:
    return QuantumChannel.from_kraus([np.eye(dim, dtype=complex)])


def project_cptp(
    raw,
    tol: float = 1e-9,
    max_iterations: int = 10_000,
) -> QuantumChannel:
    """Project a Hermitian Choi-form matrix onto the CPTP set.

    Alternating projections between the trace-preserving affine subspace and
    the positive-semidefinite cone, with a Dykstra correction on the cone
    step. Stops when successive iterates differ by less than ``tol`` in
    Frobenius norm; the final iterate leaves the PSD step, so its spectrum is
    clean and any residual TP error is bounded by the stopping tolerance.
    The default tolerance is tight enough that re-projecting an output moves
    it by less than 1e-8.
    """
    x = as_matrix(raw)
    side = x.shape[0]
    dim = int(np.sqrt(side))
    if x.shape != (side, side) or dim * dim != side:
        raise ValueError(f"expected a square d^2 x d^2 Choi-form matrix, got {x.shape}")
    if frobenius(x - dagger(x)) > 1e-6:
        raise ValueError("input is not Hermitian within 1e-6")
    x = 0.5 * (x + dagger(x))

    target_in = np.eye(dim, dtype=complex) / dim

    def project_tp(m):  # m is validated above; Tr_out by reshape, as in partial_trace
        m = m.reshape(dim, dim, dim, dim).copy()
        gap = np.trace(m, axis1=0, axis2=2) - target_in
        # Subtracting I_out (x) gap / dim touches only the diagonal blocks (a, a).
        np.einsum("aiaj->aij", m)[...] -= gap / dim
        return m.reshape(side, side)

    def project_psd(m):
        vals, vecs = np.linalg.eigh(0.5 * (m + dagger(m)))
        clipped = np.clip(vals, 0.0, None)
        return (vecs * clipped) @ dagger(vecs)

    correction = np.zeros_like(x)
    prev = None
    residual = np.inf
    for _ in range(max_iterations):
        y = project_tp(x)
        z = project_psd(y + correction)
        correction = y + correction - z
        if prev is not None:
            residual = frobenius(z - prev)
            if residual < tol:
                return QuantumChannel("choi", 0.5 * (z + dagger(z)), dim)
        prev = z
        x = z
    raise ProjectionError(max_iterations, residual)
