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
(``linalg.kraus_sum``); a Choi or chi channel is converted once, on first use.

Kraus sets are (count, d, d) stacks, and ``tensor``, ``compose`` and the Choi
state run on them as array operations that give each entry the operations,
in term order, of a term-by-term loop. Sampled counts depend on the last ulp
of the noise channels (see ``simulator``), so a closed form or a reassociated
sum would move them.
"""

from __future__ import annotations

import functools
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
    kron_pairs,
)

REPRESENTATIONS = ("kraus", "choi", "chi")

_EIG_CLIP = 1e-12
_CHOI_ATOL_PSD = 1e-8
_CHOI_ATOL_TP = 1e-6
# project_cptp's absolute bound on |Tr_out J - I/d|_F, and its step cap.
_TP_GAP = 1e-12
_NEWTON_STEP_CAP = 50


class ProjectionError(RuntimeError):
    """``project_cptp`` reached its step cap with the TP gap above ``_TP_GAP``."""

    def __init__(self, steps: int, tp_gap: float):
        self.steps = steps
        self.tp_gap = tp_gap
        super().__init__(f"CPTP projection reached its Newton step cap ({steps}) at TP "
                         f"gap {tp_gap:.3e}, above {_TP_GAP:.0e}")


@functools.cache
def pauli_basis(num_qubits: int) -> np.ndarray:
    """Unnormalized Pauli products, (I, X, Y, Z) per qubit, qubit 0 first: one
    read-only (4^n, 2^n, 2^n) stack, built once per n."""
    out = ops = np.array([PAULIS_1Q[l] for l in ("I", "X", "Y", "Z")])
    for _ in range(num_qubits - 1):
        out = kron_pairs(out, ops)
    out.flags.writeable = False
    return out


@functools.cache
def _pauli_change_of_basis(dim: int) -> np.ndarray:
    """Unitary with columns flat(P_m)/sqrt(d); maps chi to Choi."""
    return np.column_stack([p.reshape(-1) / np.sqrt(dim)
                            for p in pauli_basis(dim.bit_length() - 1)])


@functools.cache
def _lifted_basis(dim: int) -> np.ndarray:
    """The stack of I_out (x) B_k, over the orthonormal Hermitian basis
    B_k = P_k/sqrt(d) of the input space that ``_pauli_change_of_basis`` holds."""
    return np.kron(np.eye(dim), _pauli_change_of_basis(dim).T.reshape(-1, dim, dim))


def _tp_residual(j: np.ndarray, dim: int) -> np.ndarray:
    """Coordinates Tr(B_k (Tr_out J - I/d)), J Hermitian; 2-norm |Tr_out J - I/d|_F."""
    coords = (_lifted_basis(dim).reshape(dim * dim, -1) @ j.T.reshape(-1)).real
    coords[0] -= 1 / np.sqrt(dim)  # Tr(B_0 I/d), as B_0 = I/sqrt(d)
    return coords


@dataclass(frozen=True)
class QuantumChannel:
    """A CPTP map on 1 or 2 qubits, in one of three representations."""

    representation: str
    data: np.ndarray  # a (count, d, d) Kraus stack, or a Choi or chi matrix
    dim: int

    @staticmethod
    def from_kraus(operators) -> "QuantumChannel":
        """Validate the operators as one (count, d, d) stack and store it; its
        rows equal the input operators in value and order."""
        ops = operators if isinstance(operators, np.ndarray) else list(operators)
        if len(ops) == 0:
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
        return QuantumChannel("kraus", stack, dim)

    @staticmethod
    def from_choi(matrix) -> "QuantumChannel":
        """Validate a Choi state: Hermitian, PSD within ``_CHOI_ATOL_PSD`` and
        trace-preserving within ``_CHOI_ATOL_TP`` (Frobenius)."""
        j = as_matrix(matrix)
        side = j.shape[0]
        dim = int(np.sqrt(side))
        if j.shape != (side, side) or dim * dim != side or dim not in (2, 4):
            raise ValueError(f"Choi matrix has unsupported shape {j.shape}")
        if frobenius(j - dagger(j)) > 1e-8:
            raise ValueError("Choi matrix is not Hermitian")
        j = 0.5 * (j + dagger(j))
        if np.linalg.eigvalsh(j).min() < -_CHOI_ATOL_PSD:
            raise ValueError("Choi matrix is not positive semidefinite")
        tp_gap = dim * frobenius(_tp_residual(j, dim))
        if tp_gap > _CHOI_ATOL_TP:
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
        b = _pauli_change_of_basis(dim)
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

    def kraus_operators(self) -> np.ndarray:
        return self._kraus

    @functools.cached_property
    def _kraus(self) -> np.ndarray:  # one Choi eigh per channel, not per apply
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
            b = _pauli_change_of_basis(self.dim)
            return QuantumChannel("chi", dagger(b) @ self.data @ b, self.dim)
        # chi -> choi (-> kraus)
        b = _pauli_change_of_basis(self.dim)
        ch = QuantumChannel("choi", b @ self.data @ dagger(b), self.dim)
        return ch if to == "choi" else ch.convert("kraus")

    def apply(self, rho) -> np.ndarray:
        """Apply the channel to a density matrix, or to each of a stack of
        them, through its Kraus operators."""
        return kraus_sum(self.kraus_operators(), check_density_matrix(rho, dim=self.dim))

    def tensor(self, other: "QuantumChannel") -> "QuantumChannel":
        """Parallel composition: self on the first factor, other on the second."""
        return QuantumChannel.from_kraus(kron_pairs(self._kraus, other._kraus))

    def compose(self, after: "QuantumChannel") -> "QuantumChannel":
        """Sequential composition: ``after`` is applied after self."""
        if after.dim != self.dim:
            raise ValueError("cannot compose channels of different dimension")
        a, b = self._kraus, after._kraus
        ops = np.matmul(b[:, None], a).reshape(-1, self.dim, self.dim)  # b_i @ a_j, i-major
        ch = QuantumChannel.from_kraus(ops)
        if len(ops) > self.dim**2:
            ch = ch.convert("choi").convert("kraus")  # compress to a minimal set
        return ch


def _kraus_to_choi(ops, dim: int) -> np.ndarray:
    """sum_k v_k v_k^dag / d, v_k = flat(K_k): each row sums the 1-deep products
    ``v @ dagger(v)`` makes in k order, in row blocks of <= 256 d^2 products."""
    cols = np.reshape(ops, (len(ops), -1, 1))  # row-major flatten matches output (x) input
    rows, step = dagger(cols), max(1, 256 // len(ops))
    return np.concatenate([np.add.reduce(cols[:, r:r + step] @ rows, axis=0)
                           for r in range(0, dim * dim, step)]) / dim


def _choi_to_kraus(j, dim: int) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (j + dagger(j)))
    keep = vals > _EIG_CLIP
    ops = (np.sqrt(dim * vals[keep])[:, None] * vecs.T[keep]).reshape(-1, dim, dim)
    return ops if keep.any() else np.zeros((1, dim, dim), dtype=complex)


def channel_from_unitary(u) -> QuantumChannel:
    u = as_matrix(u)
    if not is_unitary(u, atol=1e-8):
        raise ValueError("matrix is not unitary within 1e-8")
    return QuantumChannel.from_kraus([u])


def identity_channel(dim: int = 4) -> QuantumChannel:
    return QuantumChannel.from_kraus([np.eye(dim, dtype=complex)])


def project_cptp(raw) -> QuantumChannel:
    """Project a Hermitian Choi-form matrix X onto the CPTP set (Frobenius norm).

    J = P(X + I_out (x) L), where P clips negative eigenvalues and the
    Hermitian d x d matrix L makes Tr_out J = I/d. Semismooth Newton (Malick,
    SIAM J. Matrix Anal. Appl. 26, 272 (2004); Qi & Sun, ibid. 28, 360 (2006))
    finds L from X_tp, the projection of X onto the trace-preserving subspace.
    Its Jacobian takes the divided differences of max(., 0); each step solves
    (Jac + mu I) dL = g for the TP residual g, with mu = |g|/|X_tp|_F, so no
    step outruns |X_tp|_F where Jac is singular. J is PSD, and its TP gap
    |Tr_out J - I/d|_F is at most ``_TP_GAP``.
    """
    x = as_matrix(raw)
    side = x.shape[0]
    dim = int(np.sqrt(side))
    if x.shape != (side, side) or dim * dim != side or dim not in (2, 4):
        raise ValueError(f"expected a 4x4 or 16x16 Choi-form matrix, got {x.shape}")
    if frobenius(x - dagger(x)) > 1e-6:
        raise ValueError("input is not Hermitian within 1e-6")
    x = 0.5 * (x + dagger(x))

    lifted = _lifted_basis(dim)
    x = x - np.tensordot(_tp_residual(x, dim), lifted, 1) / dim  # X_tp
    scale = frobenius(x)
    coords = np.zeros(dim * dim)  # of L, less the shift that gave X_tp
    for step in range(_NEWTON_STEP_CAP + 1):
        vals, vecs = np.linalg.eigh(x + np.tensordot(coords, lifted, 1))
        clipped = np.maximum(vals, 0.0)
        j = (vecs * clipped) @ dagger(vecs)
        residual = _tp_residual(j, dim)  # also that of j's Hermitian part
        tp_gap = frobenius(residual)
        if tp_gap <= _TP_GAP:
            return QuantumChannel("choi", 0.5 * (j + dagger(j)), dim)
        if step == _NEWTON_STEP_CAP:
            raise ProjectionError(step, tp_gap)
        # Jac_kl = Re Tr(T_k (omega o T_l)) with T_k = V^dag (I (x) B_k) V.
        t = (dagger(vecs) @ lifted @ vecs).reshape(dim * dim, -1)
        gaps = vals[:, None] - vals
        omega = np.where(gaps == 0, vals[:, None] >= 0, 0.0)
        np.divide(clipped[:, None] - clipped, gaps, out=omega, where=gaps != 0)
        jac = ((t * omega.reshape(-1)) @ dagger(t)).real
        coords -= np.linalg.solve(jac + tp_gap / scale * np.eye(dim * dim), residual)
