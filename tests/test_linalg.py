import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples, partial_trace, random_density_matrix, random_unitary

from msbench.circuits import Circuit, Gate
from msbench.linalg import (
    I2,
    PAULI_X,
    PAULI_Z,
    check_density_matrix,
    dagger,
    kraus_sum,
    kron,
    sandwich,
)
from msbench.simulator import evolve


def test_kron_identities():
    assert np.allclose(kron(I2, I2), np.eye(4))


def test_kron_projectors():
    p0 = np.diag([1, 0]).astype(complex)
    p1 = np.diag([0, 1]).astype(complex)
    assert np.allclose(kron(p0, p1), np.diag([0, 1, 0, 0]))


def test_kron_zz():
    assert np.allclose(kron(PAULI_Z, PAULI_Z), np.diag([1, -1, -1, 1]))


def test_kraus_sum_maps_over_a_stack(rng):
    ops = [np.sqrt(0.7) * I2, np.sqrt(0.3) * PAULI_X]
    states = np.array([random_density_matrix(rng, 2) for _ in range(3)])
    before = states.copy()
    stacked = kraus_sum(ops, states)
    assert np.array_equal(states, before)
    for rho, out in zip(states, stacked):
        assert out.tobytes() == kraus_sum(ops, rho).tobytes()
        assert np.allclose(out, 0.7 * rho + 0.3 * PAULI_X @ rho @ PAULI_X, atol=1e-15)


def _term_by_term(ops, rho) -> np.ndarray:
    out = np.zeros_like(rho, dtype=complex)
    for k in ops:
        out += k @ rho @ dagger(k)
    return out


def _matrices(rng, shape, zeros: float) -> np.ndarray:
    """Complex normal matrices with a share ``zeros`` of their real and imaginary
    parts set to +0.0 or -0.0."""
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for part in (m.real, m.imag):
        hit = rng.random(shape) < zeros
        part[hit] = rng.choice([0.0, -0.0], hit.sum())
    return m


@settings(max_examples=examples(200), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 16), dim=st.sampled_from([2, 4]),
       stack=st.sampled_from([None, 1, 3, 16]), zeros=st.floats(0.0, 0.5))
def test_stacked_kraus_sum_matches_the_term_by_term_loop(seed, count, dim, stack, zeros):
    """Bit for bit, on one matrix or a stack, with a share of entries set to +0.0 or -0.0.
    The grouped GEMMs' bits are a property of the BLAS build, and numpy 1.24's
    wheel ships another OpenBLAS."""
    rng = np.random.default_rng(seed)
    ops = _matrices(rng, (count, dim, dim), zeros)
    rho = _matrices(rng, (dim, dim) if stack is None else (stack, dim, dim), zeros)
    out = kraus_sum(ops, rho)
    assert out.shape == rho.shape
    assert out.tobytes() == _term_by_term(ops, rho).tobytes()


_NATIVE_GATES = [Gate.sx(0), Gate.sx(1), Gate.x(0), Gate.x(1), Gate.rz(0, np.pi / 2),
                 Gate.rz(1, np.pi), Gate.rz(0, -0.7), Gate.cnot(0, 1), Gate.cnot(1, 0)]

_SEEDS = st.integers(0, 2**32 - 1)

# The operator stacks that reach ``sandwich``: random ones, with signed zeros;
# one native gate's matrix, as ``apply_gates`` passes it; and the conjugate
# transpose of a unitary in either memory order, as ``project_cptp`` passes
# ``dagger`` of ``eigh``'s eigenvectors.
_OPERATOR_STACKS = st.one_of(
    st.builds(lambda seed, count, dim, zeros:
              _matrices(np.random.default_rng(seed), (count, dim, dim), zeros),
              _SEEDS, st.integers(1, 16), st.sampled_from([2, 4, 16]), st.floats(0.0, 0.5)),
    st.sampled_from(_NATIVE_GATES).map(lambda gate: gate.matrix()[None]),
    st.builds(lambda seed, dim, fortran:
              dagger((np.asfortranarray if fortran else np.asarray)(
                  random_unitary(np.random.default_rng(seed), dim)))[None],
              _SEEDS, st.sampled_from([4, 16]), st.booleans()))


@settings(max_examples=examples(400), deadline=None)
@given(ops=_OPERATOR_STACKS, seed=_SEEDS,
       stack=st.sampled_from([None, 1, 3, 16, 144]) | st.integers(1, 16),
       zeros=st.floats(0.0, 0.5))
def test_grouped_sandwich_matches_the_per_matrix_product(ops, seed, stack, zeros):
    """Grouped GEMMs give each K rho K^dag the bits of its own ``k @ rho @ dagger(k)``,
    on one matrix or a stack, as far as the BLAS build's kernels allow."""
    dim = ops.shape[-1]
    rho = _matrices(np.random.default_rng(seed), (dim, dim) if stack is None
                    else (stack, dim, dim), zeros)
    out = sandwich(ops, rho)
    assert out.shape == (len(ops),) + rho.shape
    assert out.tobytes() == np.array([k @ rho @ dagger(k) for k in ops]).tobytes()


def test_partial_trace_product_state(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.allclose(partial_trace(kron(a, b), [0], [2, 2]), a * np.trace(b))
    assert np.allclose(partial_trace(kron(a, b), [1], [2, 2]), b * np.trace(a))


def test_partial_trace_bell_state():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    assert np.allclose(partial_trace(rho, [0], [2, 2]), I2 / 2)


def test_partial_trace_identity():
    assert np.allclose(partial_trace(np.eye(4), [1], [2, 2]), 2 * I2)


def test_partial_trace_rejects_bad_dims():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), [0], [2, 3])


def test_partial_trace_linear_and_trace_preserving(rng):
    for _ in range(5):
        m1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        c = complex(rng.normal(), rng.normal())
        lhs = partial_trace(m1 + c * m2, [0], [2, 2])
        rhs = partial_trace(m1, [0], [2, 2]) + c * partial_trace(m2, [0], [2, 2])
        assert np.allclose(lhs, rhs, atol=1e-12)
        assert np.trace(partial_trace(m1, [1], [2, 2])) == pytest.approx(
            np.trace(m1), abs=1e-12
        )


def test_kron_matmul_mixed_product(rng):
    for _ in range(10):
        mats = [
            rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4)
        ]
        a, b, c, d = mats
        lhs = kron(a @ b, c @ d)
        rhs = kron(a, c) @ kron(b, d)
        assert np.linalg.norm(lhs - rhs) <= 1e-10


def _with_nan(rho):
    rho = rho.copy()
    rho[1, 2] = np.nan
    return rho


def _non_hermitian(rho):
    rho = rho.copy()
    rho[0, 3] += 1e-3
    return rho


def _huge_coherence(rho):
    rho = rho.copy()
    rho[0, 1], rho[1, 0] = 1e308, 1e308
    return rho


# Each defect, applied to one state of a stack of valid ones.
DEFECTS = {
    "non-finite": _with_nan,
    "huge entry": _huge_coherence,
    "wrong shape": lambda rho: rho[:3, :3],
    "not 2-D": lambda rho: np.diag(rho),
    "non-Hermitian": _non_hermitian,
    "trace": lambda rho: 2.0 * rho,
    "negative eigenvalue": lambda rho: np.diag([1.2, -0.2, 0, 0]).astype(complex),
}


@pytest.mark.parametrize("position", [0, 2])
@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_stacked_density_check_fails_like_the_defective_state(rng, defect, position):
    states = [random_density_matrix(rng) for _ in range(3)]
    states[position] = DEFECTS[defect](states[position])
    with pytest.raises(ValueError) as single:
        check_density_matrix(states[position])
    with pytest.raises(ValueError) as stacked:
        check_density_matrix(states)
    assert str(stacked.value) == str(single.value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("check", [check_density_matrix, lambda rho: evolve(Circuit(), rho)],
                         ids=["direct", "evolve"])
@pytest.mark.parametrize("coherence", [1e308, 1e308j, 2.5], ids=["real", "imaginary", "2.5"])
def test_a_huge_finite_entry_is_refused_without_a_warning(check, coherence):
    """A unit-trace Hermitian state with a coherence beyond 2 is refused with a
    ValueError before its Hermitian part is formed: near the float64 maximum
    that sum overflows, and ``eigvalsh`` of it raised ``LinAlgError``."""
    rho = np.diag([1, 0, 0, 0]).astype(complex)
    rho[0, 1], rho[1, 0] = coherence, np.conj(coherence)
    with pytest.raises(ValueError, match="^density matrix has an entry beyond 2; a state's lie"):
        check(rho)


def test_stacked_density_check_of_a_uniform_wrong_shape():
    with pytest.raises(ValueError) as single:
        check_density_matrix(np.eye(3) / 3)
    with pytest.raises(ValueError) as stacked:
        check_density_matrix(np.array([np.eye(3) / 3] * 2))
    assert str(stacked.value) == str(single.value) == (
        "expected a 4x4 density matrix, got (3, 3)")


def test_stacked_density_check_returns_the_stack(rng):
    states = np.array([random_density_matrix(rng) for _ in range(5)])
    out = check_density_matrix(states)
    assert out.dtype == complex and np.array_equal(out, states)
