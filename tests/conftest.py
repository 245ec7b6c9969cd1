from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from msbench.channels import QuantumChannel
from msbench.circuits import Circuit, Gate
from msbench.linalg import as_matrix
from msbench.noise import DeviceCalibration, QubitCalibration

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

# `pytest --hypothesis-profile=ci`, as CI runs tier-1, runs every property at ten times its
# default examples: a property sets its count by `examples(n)`, and one that sets none takes
# hypothesis' default of 100, which this profile makes 1000. The default run is unchanged.
settings.register_profile("ci", max_examples=1000)


def examples(n: int) -> int:
    """A test's own example count, scaled by the loaded profile's over hypothesis'
    default of 100: n by default, 10 n under the "ci" profile."""
    return n * settings.default.max_examples // 100


def dep_cal(p_dep) -> DeviceCalibration:
    """Two qubits of T1 100 us and T2 80 us with no readout error, and every gate
    of zero duration: the CNOT's depolarizing channel at p_dep is all the noise."""
    qubits = (QubitCalibration(0, 100.0, 80.0, 0.0), QubitCalibration(1, 100.0, 80.0, 0.0))
    return DeviceCalibration(qubits, {"rz": 0, "sx": 0, "cnot": 0, "x": 0}, p_dep)


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
