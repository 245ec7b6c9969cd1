import numpy as np
import pytest
from hypothesis import strategies as st

from msbench.channels import QuantumChannel
from msbench.circuits import Circuit, Gate


def count_numpy_random(monkeypatch, name: str) -> list:
    """Record every construction of ``np.random.<name>`` made through that
    attribute; the returned list grows by one argument tuple per call."""
    calls = []
    real = getattr(np.random, name)

    def build(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, name, build)
    return calls


def random_unitary(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density_matrix(rng, dim: int = 4) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_cptp_kraus(rng, dim: int = 4, n_kraus: int = 3) -> QuantumChannel:
    """Random CPTP channel from a Haar-ish random Stinespring isometry."""
    g = rng.normal(size=(dim * n_kraus, dim)) + 1j * rng.normal(size=(dim * n_kraus, dim))
    v, _ = np.linalg.qr(g)  # v^dag v = I on the dim-dimensional input
    ops = [v[i * dim:(i + 1) * dim, :] for i in range(n_kraus)]
    return QuantumChannel.from_kraus(ops)


_GATES = st.one_of(
    st.builds(Gate.rz, st.integers(0, 1), st.floats(allow_nan=False, allow_infinity=False)),
    st.builds(Gate.sx, st.integers(0, 1)),
    st.builds(Gate.x, st.integers(0, 1)),
    st.sampled_from([Gate.cnot(0, 1), Gate.cnot(1, 0)]),
)
circuits = st.lists(_GATES, max_size=12).map(lambda gates: Circuit(tuple(gates)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
