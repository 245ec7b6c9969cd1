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

Every channel derives its other forms from its Choi state, built once, on
first use, and kept read-only; it applies to states through its Kraus
operators (``linalg.kraus_sum``), which a Choi or chi channel derives once.

Kraus sets are (count, d, d) stacks, and ``apply``, ``tensor``, ``compose``
and the Choi state run on them as array operations that give each entry the
operations, in term order, of a term-by-term loop; every Kraus stack's Choi
sum is the sparse one (``_choi_sum``), which skips only terms that are +0,
which leave the sum's bits alone. Their matrix products go through
``linalg.matmul_pairs``, one call for all of ``compose``'s pairs, and
``project_cptp`` takes its lifted basis into each eigenbasis through
``linalg.sandwich``; both keep the per-matrix products' bits. The memory
order of ``_lifted_rows`` is part of the projection's bits too: it picks the
kernel of the GEMVs that give the TP residual.
Sampled counts depend on the last ulp of the noise channels (see
``simulator``), so a closed form or a reassociated sum would move them.

``depolarized(p)`` is ``compose(depolarizing_channel(p))`` for many p on one
channel. The channel keeps the products P_i K_j of the unscaled Pauli
products with its operators, and their Choi sum's sparse plan; each p scales
P_i K_j by sqrt(w_i), sums the Choi state and takes its Kraus set. That is
exact: a Pauli product is monomial with entries +-1 and +-i, so each entry of
P_i K_j is one term, exactly, and multiplying it by sqrt(w_i) rounds once, as
the GEMM of sqrt(w_i) P_i with K_j does. Only signed zeros may differ, and
the Choi sum reads none.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .circuits import _check_record, _is_number, _parse, _show
from .linalg import (
    PAULIS_1Q,
    as_matrix,
    check_density_matrix,
    dagger,
    frobenius,
    kraus_sum,
    kron_pairs,
    matmul_pairs,
    sandwich,
)

REPRESENTATIONS = ("kraus", "choi", "chi")

_EIG_CLIP = 1e-12
_CHOI_ATOL_PSD = 1e-8
_CHOI_ATOL_TP = 1e-6
# project_cptp's absolute bound on |Tr_out J - I/d|_F, and its step cap.
_TP_GAP = 1e-12
_NEWTON_STEP_CAP = 50
_KRAUS_SHAPE = "Kraus operators must share a square 2x2 or 4x4 shape"


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
    """The read-only stack of I_out (x) B_k, over the orthonormal Hermitian basis
    B_k = P_k/sqrt(d) of the input space that ``_pauli_change_of_basis`` holds.
    Its memory runs row, k, column: the matrices side by side, as
    ``matmul_pairs`` reads them, so ``sandwich`` takes them as a view."""
    lifted = np.kron(np.eye(dim), _pauli_change_of_basis(dim).T.reshape(-1, dim, dim))
    side_by_side = np.ascontiguousarray(lifted.swapaxes(0, 1))
    side_by_side.flags.writeable = False
    return side_by_side.swapaxes(0, 1)


@functools.cache
def _lifted_rows(dim: int) -> np.ndarray:
    """``_lifted_basis`` as a read-only (d^2, d^4) Fortran-ordered array, one
    flattened matrix per row. Its order picks ``_tp_residual``'s and the
    shift's GEMV kernels, so it is part of the projection's bits."""
    rows = np.asfortranarray(_lifted_basis(dim).reshape(dim * dim, -1))
    rows.flags.writeable = False
    return rows


def _choi_form(matrix, name: str) -> tuple[np.ndarray, int]:
    """``linalg.as_matrix`` of a d^2 x d^2 matrix, d 2 or 4, and d."""
    m = as_matrix(matrix)
    if m.shape not in ((4, 4), (16, 16)):
        raise ValueError(f"{name} must be 4x4 or 16x16, got shape {m.shape}")
    return m, math.isqrt(len(m))


def _state_form(matrix, name: str) -> tuple[np.ndarray, int]:
    """``_choi_form`` of a Choi or chi matrix whose entries' real and imaginary
    parts lie within 2. What the later checks admit is within about 1e-6 of a
    PSD matrix of unit trace, whose entries lie within 1, so this refuses none
    of it; and it bounds their sums, so a huge finite entry fails here, not as
    an overflow warning, a stored inf or NaN, or a ``LinAlgError``."""
    m, dim = _choi_form(matrix, name)
    if max(np.abs(m.real).max(), np.abs(m.imag).max()) > 2:
        raise ValueError(f"{name} has an entry beyond 2; a channel's lie within 1")
    return m, dim


def _tp_residual(j: np.ndarray, dim: int) -> np.ndarray:
    """Coordinates Tr(B_k (Tr_out J - I/d)), J Hermitian; 2-norm |Tr_out J - I/d|_F."""
    coords = (_lifted_rows(dim) @ j.T.reshape(-1)).real
    coords[0] -= 1 / np.sqrt(dim)  # Tr(B_0 I/d), as B_0 = I/sqrt(d)
    return coords


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """A CPTP map on 1 or 2 qubits, in one of three representations."""

    representation: str
    data: np.ndarray  # a (count, d, d) Kraus stack, or a Choi or chi matrix

    def __post_init__(self):  # the tag and shape only; the from_* constructors check values
        try:  # a complex array is kept as it is, so no stored bit moves
            data = np.asarray(self.data, dtype=complex)
        except (TypeError, ValueError):
            name = type(self.data).__name__
            raise ValueError(f"data: {name} is not an array of numbers") from None
        object.__setattr__(self, "data", data)
        rep, shape = self.representation, data.shape
        if rep not in REPRESENTATIONS:
            raise ValueError(f"representation: unknown {rep!r}, expected one of {REPRESENTATIONS}")
        if not (shape[1:] in ((2, 2), (4, 4)) and shape[0] > 0 if rep == "kraus"
                else shape in ((4, 4), (16, 16))):
            raise ValueError(f"data: shape {shape} fits no {rep} channel")

    @property
    def dim(self) -> int:  # a Kraus stack's last axis, or the root of a matrix's side
        return self.data.shape[-1] if self.representation == "kraus" else math.isqrt(len(self.data))

    @staticmethod
    def from_kraus(operators) -> "QuantumChannel":
        """Validate the operators as one (count, d, d) stack and store it; its
        rows equal the input operators in value and order."""
        ops = operators if isinstance(operators, np.ndarray) else list(operators)
        if len(ops) == 0:
            raise ValueError("empty Kraus set")
        try:
            stack = np.array(ops, dtype=complex)
        except ValueError:
            if len({np.shape(k) for k in ops}) > 1:  # operators of different shapes
                raise ValueError(_KRAUS_SHAPE) from None
            raise
        if stack.ndim != 3:
            raise ValueError(f"expected a 2-D matrix, got ndim={stack.ndim - 1}")
        if not np.isfinite(stack).all():
            raise ValueError("matrix has non-finite entries")
        _, dim, cols = stack.shape
        if dim not in (2, 4) or cols != dim:
            raise ValueError(_KRAUS_SHAPE)
        comp = np.einsum("kji,kjl->il", stack.conj(), stack)
        if frobenius(comp - np.eye(dim)) > 1e-8:
            raise ValueError("Kraus set is not trace-preserving (completeness fails)")
        return QuantumChannel("kraus", stack)

    @staticmethod
    def from_choi(matrix) -> "QuantumChannel":
        """Validate a Choi state: Hermitian, PSD within ``_CHOI_ATOL_PSD`` and
        trace-preserving within ``_CHOI_ATOL_TP`` (Frobenius)."""
        j, dim = _state_form(matrix, "Choi matrix")
        if frobenius(j - dagger(j)) > 1e-8:
            raise ValueError("Choi matrix is not Hermitian")
        j = 0.5 * (j + dagger(j))
        if np.linalg.eigvalsh(j).min() < -_CHOI_ATOL_PSD:
            raise ValueError("Choi matrix is not positive semidefinite")
        tp_gap = dim * frobenius(_tp_residual(j, dim))
        if tp_gap > _CHOI_ATOL_TP:
            raise ValueError(f"Choi matrix is not trace-preserving (residual {tp_gap:.3e})")
        return QuantumChannel("choi", j)

    @staticmethod
    def from_chi(matrix) -> "QuantumChannel":
        c, dim = _state_form(matrix, "chi matrix")
        if frobenius(c - dagger(c)) > 1e-8:
            raise ValueError("chi matrix is not Hermitian")
        if abs(np.trace(c).real - 1.0) > 1e-8:
            raise ValueError("chi matrix trace != 1 under the normalized convention")
        ch = QuantumChannel("chi", c)
        QuantumChannel.from_choi(ch._choi)  # CP/TP validation, of the state kept for use
        return ch

    def to_json(self) -> str:
        """JSON form, as ``json.dumps(..., indent=2)`` writes it: the representation
        tag, ``dim``, and the row-major [re, im] pairs of the matrix (``entries``)
        or of each Kraus operator (``operators``), floats by ``repr``."""
        header = json.dumps({"representation": self.representation, "dim": self.dim}, indent=2)
        kraus = self.representation == "kraus"
        pad = " " * (6 if kraus else 4)
        pairs = [f"{pad}[\n{pad}  {re!r},\n{pad}  {im!r}\n{pad}]"
                 for re, im in zip(self.data.real.reshape(-1).tolist(),
                                   self.data.imag.reshape(-1).tolist())]
        if kraus:
            n = self.dim * self.dim
            key, body = "operators", ",\n".join("    [\n" + ",\n".join(pairs[k:k + n]) + "\n    ]"
                                                for k in range(0, len(pairs), n))
        else:
            key, body = "entries", ",\n".join(pairs)
        return header[:-2] + f',\n  "{key}": [\n{body}\n  ]\n}}'  # header less its "\n}"

    @staticmethod
    def from_json(text: str) -> "QuantumChannel":
        """Read what ``to_json`` writes, validated by the representation's
        constructor; a malformed file fails naming the field."""
        d = _parse(text, "channel")
        kraus = isinstance(d, dict) and d.get("representation") == "kraus"
        key = "operators" if kraus else "entries"
        _check_record(d, ("representation", "dim", key), ("representation", "dim", key), "channel")
        rep, dim, pairs = d["representation"], d["dim"], d[key]
        if rep not in REPRESENTATIONS:
            raise ValueError(f"channel: unknown representation {rep!r}; "
                             f"expected one of {', '.join(REPRESENTATIONS)}")
        if not isinstance(dim, int) or dim not in (2, 4):
            raise ValueError(f"channel: dim must be 2 or 4, got {dim!r}")
        n = dim * dim
        if kraus:
            if not (isinstance(pairs, list) and pairs
                    and all(isinstance(op, list) and len(op) == n for op in pairs)):
                raise ValueError(f"channel: operators must be a non-empty list of "
                                 f"Kraus operators of {n} pairs each")
            pairs = [pair for op in pairs for pair in op]
        elif not isinstance(pairs, list) or len(pairs) != n * n:
            raise ValueError(f"channel: entries must hold {n * n} pairs for dim {dim}")
        if not all(isinstance(p, list) and len(p) == 2 and all(map(_is_number, p)) for p in pairs):
            raise ValueError(f"channel: {key} must be [re, im] number pairs")
        m = np.array(pairs, dtype=float).view(complex)  # bit for bit
        if kraus:
            return QuantumChannel.from_kraus(m.reshape(-1, dim, dim))
        m = m.reshape(n, n)
        return QuantumChannel.from_choi(m) if rep == "choi" else QuantumChannel.from_chi(m)

    def kraus_operators(self) -> np.ndarray:
        return self._kraus

    def choi_matrix(self) -> np.ndarray:
        return self._choi

    def chi_matrix(self) -> np.ndarray:
        b = _pauli_change_of_basis(self.dim)
        return self.data if self.representation == "chi" else dagger(b) @ self._choi @ b

    @functools.cached_property
    def _choi(self) -> np.ndarray:  # the state every other form derives from; once, read-only
        if self.representation == "kraus":
            flat = self.data.reshape(len(self.data), -1)  # row-major flatten: output (x) input
            j = _choi_sum(flat, self.dim, _choi_plan(flat))
        elif self.representation == "chi":
            b = _pauli_change_of_basis(self.dim)
            j = b @ self.data @ dagger(b)
        else:
            j = self.data.view()  # read-only here; the stored matrix stays its owner's
        j.flags.writeable = False
        return j

    @functools.cached_property
    def _kraus(self) -> np.ndarray:  # one Choi eigh per channel, not per apply
        return self.data if self.representation == "kraus" else _choi_to_kraus(self._choi, self.dim)

    @functools.cached_property
    def choi_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """``np.linalg.eigh(self.choi_matrix())``, computed once per channel, read-only."""
        vals, vecs = np.linalg.eigh(self.choi_matrix())
        vals.flags.writeable = vecs.flags.writeable = False
        return vals, vecs

    def convert(self, to: str) -> "QuantumChannel":
        forms = {"kraus": self.kraus_operators, "choi": self.choi_matrix, "chi": self.chi_matrix}
        if to not in forms:
            raise ValueError(f"unknown representation {to!r}")
        return self if to == self.representation else QuantumChannel(to, forms[to]())

    def apply(self, rho) -> np.ndarray:
        """Apply the channel to a density matrix, or to each of a stack of
        them, through its Kraus operators."""
        return kraus_sum(self.kraus_operators(), check_density_matrix(rho, dim=self.dim))

    def tensor(self, other: "QuantumChannel") -> "QuantumChannel":
        """Parallel composition: self on the first factor, other on the second.
        The Kraus products of two validated channels are stored as they are,
        as in ``compose``; a product beyond 4x4 is refused."""
        if self.dim * other.dim > 4:
            raise ValueError(_KRAUS_SHAPE)
        return QuantumChannel("kraus", kron_pairs(self._kraus, other._kraus))

    def compose(self, after: "QuantumChannel") -> "QuantumChannel":
        """Sequential composition: ``after`` is applied after self."""
        if after.dim != self.dim:
            raise ValueError("cannot compose channels of different dimension")
        a, b = self._kraus, after._kraus
        ops = matmul_pairs(b, a).reshape(-1, self.dim, self.dim)  # b_i @ a_j, i-major
        ch = QuantumChannel("kraus", ops)  # products of two validated channels
        if len(ops) > self.dim**2:  # compress to a minimal set
            ch = QuantumChannel("kraus", _choi_to_kraus(ch._choi, self.dim))
        return ch

    def depolarized(self, p: float) -> "QuantumChannel":
        """The channel followed by the depolarizing channel of probability p,
        ``self.compose(depolarizing_channel(p, arity))`` bit for bit, from the
        ``_pauli_products`` built once per channel (see the module docstring),
        summed on the products' Choi plan even where a scaled product
        underflows to zero (``_choi_sum``). A channel of one operator, whose
        d^2 products ``compose`` returns as they are, and a p whose Pauli
        terms ``_nonzero`` may drop (below about 6e-23) go through
        ``compose``."""
        d2 = self.dim * self.dim
        amplitudes = _depolarizing_amplitudes(p, d2)
        if len(self._kraus) == 1 or min(amplitudes) <= 2e-12:  # _nonzero keeps all Paulis above
            return self.compose(depolarizing_channel(p, self.dim.bit_length() - 1))
        products, plan = self._pauli_products
        scaled = (products.view(float) * np.array(amplitudes)[:, None]).view(complex)
        j = _choi_sum(scaled.reshape(-1, d2), self.dim, plan)
        return QuantumChannel("kraus", _choi_to_kraus(j, self.dim))

    @functools.cached_property
    def _pauli_products(self) -> tuple[np.ndarray, tuple]:
        """P_i K_j over the unscaled Pauli products P_i and the channel's
        operators K_j, i-major, one row of flattened products per P_i, and
        the ``_choi_plan`` of the flattened products."""
        paulis = pauli_basis(self.dim.bit_length() - 1)
        products = matmul_pairs(paulis, self._kraus).reshape(len(paulis), -1)
        return products, _choi_plan(products.reshape(-1, self.dim * self.dim))


def _choi_plan(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sparse sum's plan for a (count, d^2) stack of flattened operators:
    the support, each operator's nonzero entries padded to m, and the Choi
    entry of each term."""
    n = flat.shape[1]
    nonzero = flat != 0
    width = max(2, nonzero.sum(axis=1).max())
    entries = np.arange(n)  # zero entries sort after the nonzero ones
    support = np.sort(np.where(nonzero, entries, entries + n), axis=1)[:, :width] % n
    return support, (n * support[:, :, None] + support[:, None, :]).reshape(-1)


def _choi_sum(flat: np.ndarray, dim: int, plan: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """sum_k v_k v_k^dag / d over the flattened operators v_k, with the bits of
    the loop that adds each ``v @ dagger(v)`` to a zero matrix in k order, from
    only the terms on the ``_choi_plan`` of a stack nonzero wherever they are.

    Each term is made by numpy's 1-deep matmul loop, which writes the real and
    imaginary parts of a product as 0 + (...): a product with a zero factor is
    +0, and no product is -0. So no partial sum is -0 either, and adding a +0
    term leaves its bits alone: J[a, b] needs only the terms where v_k[a] and
    v_k[b] are both nonzero, added in k order. This holds for finite
    operators, as inf * 0 is nan; every stack the package builds is finite.
    Each operator's nonzero entries, in order and padded with its own zero
    entries (whose terms are +0) to the widest operator's count m >= 2 (at
    m = 1 numpy would take its dot, not that loop), make an m x m outer
    product, and ``np.bincount`` adds the k-major terms to their entries from
    +0, in order. The plan's support may hold zeros of ``flat`` besides its
    padding, such as entries that underflowed when the stack was scaled;
    their terms are +0 too, so the sum has the bits of the full sum."""
    support, bins = plan
    n = flat.shape[1]
    u = np.take_along_axis(flat, support, axis=1)[:, :, None]
    terms = (u @ dagger(u)).reshape(-1)
    j = np.empty(n * n, dtype=complex)
    j.real, j.imag = (np.bincount(bins, part, n * n) for part in (terms.real, terms.imag))
    return j.reshape(n, n) / dim


def _choi_to_kraus(j, dim: int) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (j + dagger(j)))
    keep = vals > _EIG_CLIP
    ops = (np.sqrt(dim * vals[keep])[:, None] * vecs.T[keep]).reshape(-1, dim, dim)
    return ops if keep.any() else np.zeros((1, dim, dim), dtype=complex)


def depolarizing_channel(p: float, arity: int = 2) -> QuantumChannel:
    """rho -> (1-p) rho + p I/d, as a Pauli Kraus set. Its arguments are
    checked; the closed-form set, complete by construction, is stored as it is."""
    if not (isinstance(arity, numbers.Integral) and not isinstance(arity, bool)
            and arity in (1, 2)):
        raise ValueError(f"arity must be 1 or 2, got {_show(arity)}")
    paulis = pauli_basis(arity)
    amplitudes = _depolarizing_amplitudes(p, len(paulis))
    return QuantumChannel("kraus", _nonzero([a * m for a, m in zip(amplitudes, paulis)]))


def _depolarizing_amplitudes(p: float, d2: int) -> list[float]:
    """The square roots of the weights of the d^2 Pauli products, identity
    first, in the depolarizing channel of probability p, a number in [0, 1]."""
    if not _is_number(p) or math.isnan(p):
        raise ValueError(f"p = {_show(p)} is not a number")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p = {p} outside [0, 1]")
    return [math.sqrt(1 - p + p / d2)] + [math.sqrt(p / d2)] * (d2 - 1)


def _nonzero(ops) -> np.ndarray:
    """The stack of the operators, in order, whose ``np.linalg.norm`` is above
    1e-12. A d x d operator's norm lies between its largest entry m and d m,
    so only one with m in (0.5e-12 / d, 2e-12] needs its norm taken."""
    ops = np.array(ops)
    peaks = np.abs(ops).max(axis=(1, 2))
    return ops[[m > 2e-12 or (len(k) * m > 0.5e-12 and np.linalg.norm(k) > 1e-12)
                for k, m in zip(ops, peaks)]]


def channel_from_unitary(u) -> QuantumChannel:
    """The channel of one Kraus operator; ``from_kraus`` refuses it unless
    it is unitary within 1e-8 (Frobenius), as it refuses an incomplete set."""
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
    x, dim = _choi_form(raw, "Choi-form matrix")
    if frobenius(x - dagger(x)) > 1e-6:
        raise ValueError("input is not Hermitian within 1e-6")
    x = 0.5 * (x + dagger(x))

    n = dim * dim
    rows, eye = _lifted_rows(dim), np.eye(n)
    x = x - np.dot(_tp_residual(x, dim), rows).reshape(n, n) / dim  # X_tp
    scale = frobenius(x)
    coords = np.zeros(n)  # of L, less the shift that gave X_tp
    for step in range(_NEWTON_STEP_CAP + 1):
        vals, vecs = np.linalg.eigh(x + np.dot(coords, rows).reshape(n, n))
        clipped, vecs_h = np.maximum(vals, 0.0), dagger(vecs)
        j = (vecs * clipped) @ vecs_h
        residual = _tp_residual(j, dim)  # also that of j's Hermitian part
        tp_gap = frobenius(residual)
        if tp_gap <= _TP_GAP:
            return QuantumChannel("choi", 0.5 * (j + dagger(j)))
        if step == _NEWTON_STEP_CAP:
            raise ProjectionError(step, tp_gap)
        # Jac_kl = Re Tr(T_k (omega o T_l)) with T_k = V^dag (I (x) B_k) V.
        t = sandwich(vecs_h[None], _lifted_basis(dim))[0].reshape(n, -1)
        gaps = vals[:, None] - vals
        omega = np.where(gaps == 0, vals[:, None] >= 0, 0.0)
        np.divide(clipped[:, None] - clipped, gaps, out=omega, where=gaps != 0)
        jac = ((t * omega.reshape(-1)) @ dagger(t)).real
        coords -= np.linalg.solve(jac + tp_gap / scale * eye, residual)
