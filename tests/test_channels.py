import inspect
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msbench import channels
from msbench.channels import (
    REPRESENTATIONS,
    ProjectionError,
    QuantumChannel,
    channel_from_unitary,
    identity_channel,
    pauli_basis,
    project_cptp,
)
from msbench.circuits import circuit_unitary, ms_unitary, synthesize_ms_circuit
from msbench.linalg import I2, PAULI_X, PAULIS_1Q, dagger, kron, matmul_pairs
from msbench.noise import (DeviceCalibration, build_noise_model, damping_channel,
                           depolarizing_channel)

from conftest import (
    DATA_DIR,
    examples,
    partial_trace,
    random_cptp_kraus,
    random_density_matrix,
)


def maximally_entangled_choi():
    omega = np.zeros(16, dtype=complex)
    for i in range(4):
        omega[i * 4 + i] = 0.5
    return np.outer(omega, omega.conj())


def tp_residual(j):
    return np.linalg.norm(4 * partial_trace(j, [1], [4, 4]) - np.eye(4))


def test_identity_channel_choi_is_bell_projector():
    j = identity_channel(4).choi_matrix()
    assert np.allclose(j, maximally_entangled_choi(), atol=1e-12)
    assert np.trace(j) == pytest.approx(1.0, abs=1e-12)


def test_unitary_channel_choi_is_rank_one():
    j = channel_from_unitary(ms_unitary().matrix).choi_matrix()
    vals = np.linalg.eigvalsh(j)
    assert vals[-1] == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.abs(vals[:-1]) <= 1e-10)


def test_channel_from_unitary_rejects_nonunitary():
    with pytest.raises(ValueError):
        channel_from_unitary(np.diag([1.0, 2.0, 1.0, 1.0]))


_MS = ms_unitary().matrix


@pytest.mark.parametrize("u, accepted", [
    (_MS * (1 + 1e-9), True),  # |U^dag U - I|_F = 4e-9
    (_MS * (1 + 1e-8), False),  # 4e-8
    (np.diag([1.0, 2.0, 1.0, 1.0]), False),
    (np.where(np.eye(4) == 1, np.nan, 0), False),
    (np.eye(3), False),
    (np.eye(4)[:, :2], False),
], ids=["within-1e-8", "beyond-1e-8", "non-unitary", "nan", "3x3", "4x2"])
def test_channel_from_unitary_takes_a_unitary_within_1e8(u, accepted):
    if accepted:
        assert channel_from_unitary(u).kraus_operators().tolist() == [u.tolist()]
    else:
        with pytest.raises(ValueError):
            channel_from_unitary(u)


@pytest.mark.parametrize("read", [QuantumChannel.from_choi, QuantumChannel.from_chi, project_cptp],
                         ids=["from_choi", "from_chi", "project_cptp"])
@pytest.mark.parametrize("shape", [(9, 9), (16, 4), (8, 8), (64, 64)])
def test_choi_form_readers_take_only_4x4_and_16x16(read, shape):
    with pytest.raises(ValueError, match=re.escape(f"must be 4x4 or 16x16, got shape {shape}")):
        read(np.eye(*shape) / shape[0])


def test_x_tensor_i_chi_single_diagonal():
    chi = channel_from_unitary(kron(PAULI_X, I2)).chi_matrix()
    expected = np.zeros((16, 16), dtype=complex)
    expected[4, 4] = 1.0  # index 4 = (X, I) in the (I, X, Y, Z)^2 ordering
    assert np.allclose(chi, expected, atol=1e-12)


def test_fully_depolarizing_choi_and_chi():
    # rho -> I/4 has Kraus set {P_m / 4} over all 16 Paulis
    ops = [p / 4 for p in pauli_basis(2)]
    ch = QuantumChannel.from_kraus(ops)
    assert np.allclose(ch.choi_matrix(), np.eye(16) / 16, atol=1e-12)
    assert np.allclose(ch.chi_matrix(), np.eye(16) / 16, atol=1e-12)


def test_identity_roundtrip():
    ch = identity_channel(4)
    j = ch.choi_matrix()
    back = ch.convert("choi").convert("kraus").convert("choi")
    assert np.linalg.norm(back.data - j) <= 1e-12


def test_random_roundtrips(rng):
    for _ in range(20):
        ch = random_cptp_kraus(rng, n_kraus=int(rng.integers(1, 6)))
        j = ch.choi_matrix()
        j_back = (
            QuantumChannel.from_choi(j).convert("chi").convert("kraus").convert("choi").data
        )
        assert np.linalg.norm(j_back - j) <= 1e-9


def test_apply_agrees_across_representations(rng):
    for _ in range(10):
        ch = random_cptp_kraus(rng, n_kraus=4)
        rho = random_density_matrix(rng)
        via_kraus = ch.apply(rho)
        via_choi = ch.convert("choi").apply(rho)
        via_chi = ch.convert("chi").apply(rho)
        assert np.linalg.norm(via_kraus - via_choi) <= 1e-9
        assert np.linalg.norm(via_kraus - via_chi) <= 1e-9
        assert np.trace(via_kraus) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_stacked_apply_equals_per_state_apply(rng, representation):
    for n_kraus in (1, 3, 5):
        ch = random_cptp_kraus(rng, n_kraus=n_kraus).convert(representation)
        states = np.array([random_density_matrix(rng) for _ in range(6)])
        stacked = ch.apply(states)
        assert stacked.shape == states.shape
        for rho, out in zip(states, stacked):
            assert np.array_equal(out, ch.apply(rho))


@settings(max_examples=examples(40), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_kraus=st.integers(1, 5), dim=st.sampled_from([2, 4]))
def test_representations_describe_one_cptp_map(seed, n_kraus, dim):
    rng = np.random.default_rng(seed)
    ch = random_cptp_kraus(rng, dim=dim, n_kraus=n_kraus)
    rho = random_density_matrix(rng, dim)
    via = [ch.convert(rep).apply(rho) for rep in REPRESENTATIONS]
    assert max(np.abs(out - via[0]).max() for out in via) <= 1e-10
    j = ch.choi_matrix()
    back = ch.convert("choi").convert("chi").convert("choi").data
    assert np.linalg.norm(back - j) <= 1e-12
    assert np.linalg.norm(partial_trace(j, [1], [dim, dim]) - np.eye(dim) / dim) <= 1e-12
    assert np.linalg.eigvalsh(j).min() >= -1e-12


def test_apply_identity_and_depolarizing(rng):
    rho = random_density_matrix(rng)
    assert np.allclose(identity_channel(4).apply(rho), rho, atol=1e-12)
    full_dep = QuantumChannel.from_kraus([p / 4 for p in pauli_basis(2)])
    assert np.allclose(full_dep.apply(rho), np.eye(4) / 4, atol=1e-12)


def test_apply_ms_channel_prepares_bell():
    ch = channel_from_unitary(ms_unitary().matrix)
    rho00 = np.zeros((4, 4), dtype=complex)
    rho00[0, 0] = 1
    bell = np.array([1, 0, 0, 1j]) / np.sqrt(2)
    assert np.allclose(ch.apply(rho00), np.outer(bell, bell.conj()), atol=1e-12)


def test_apply_rejects_invalid_density():
    ch = identity_channel(4)
    with pytest.raises(ValueError):
        ch.apply(np.eye(4))  # trace 4
    with pytest.raises(ValueError):
        ch.apply(np.diag([1.5, -0.5, 0, 0]).astype(complex))  # negative eigenvalue


def test_kraus_completeness_enforced():
    with pytest.raises(ValueError):
        QuantumChannel.from_kraus([0.5 * np.eye(4)])


def test_from_kraus_keeps_operators_in_value_and_order(rng):
    ops = list(random_cptp_kraus(rng, n_kraus=5).data)
    ch = QuantumChannel.from_kraus(k for k in ops)  # a generator is accepted
    assert len(ch.data) == len(ops)
    assert all(np.array_equal(a, b) for a, b in zip(ch.data, ops))
    real = QuantumChannel.from_kraus([np.eye(2)])
    assert real.data[0].dtype == complex


@pytest.mark.parametrize("ops, message", [
    ([], "empty Kraus set"),
    ([np.full((2, 2), np.nan)], "non-finite"),
    ([np.eye(2), np.diag([np.inf, 1.0])], "non-finite"),
    ([np.eye(2), np.eye(4)], "share a square"),
    ([np.eye(3)], "share a square"),
    ([np.ones((2, 4))], "share a square"),
    ([np.ones(4)], "2-D matrix"),
])
def test_from_kraus_rejects_malformed_sets(ops, message):
    with pytest.raises(ValueError, match=message):
        QuantumChannel.from_kraus(ops)


def test_choi_validation():
    with pytest.raises(ValueError):
        QuantumChannel.from_choi(np.eye(16))  # trace-16, not TP under the convention
    j = maximally_entangled_choi()
    j[0, 1] += 1.0  # break Hermiticity
    with pytest.raises(ValueError):
        QuantumChannel.from_choi(j)


@pytest.mark.parametrize("dim", [2, 4])
def test_lifted_basis_and_rows_keep_their_stated_layouts(dim):
    """Both equal the kron of I_out with B_k = P_k/sqrt(d), in stated memory
    orders. ``_lifted_basis`` lies side by side, so ``matmul_pairs`` reads it
    with no copy. ``_lifted_rows`` is Fortran-ordered, as ``np.kron``'s output
    left it before the order was stated, and the order picks the GEMV
    kernels of ``_tp_residual``: C-ordered rows moved 7 tier-1 pins, both
    ``test_cli.py::test_qpt_outputs_are_pinned`` cases and 5 of the 8
    ``test_fit_noise_outputs_are_pinned`` cases."""
    expected = np.kron(np.eye(dim), pauli_basis(dim.bit_length() - 1) / np.sqrt(dim))
    lifted, rows = channels._lifted_basis(dim), channels._lifted_rows(dim)
    assert np.array_equal(lifted, expected)
    assert np.array_equal(rows, expected.reshape(dim * dim, -1))
    assert lifted.swapaxes(0, 1).flags.c_contiguous and not lifted.flags.writeable
    assert rows.flags.f_contiguous and not rows.flags.writeable


def test_project_cptp_fixed_point(rng):
    ch = random_cptp_kraus(rng, n_kraus=3)
    j = ch.choi_matrix()
    out = project_cptp(j).choi_matrix()
    assert np.linalg.norm(out - j) <= 1e-9


def test_project_cptp_perturbation(rng):
    j_ideal = channel_from_unitary(ms_unitary().matrix).choi_matrix()
    eps = 1e-3
    g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    h = 0.5 * (g + g.conj().T)
    # remove the trace-non-preserving component so the perturbation is TP-tangent
    h -= kron(np.eye(4), partial_trace(h, [1], [4, 4])) / 4
    h /= np.linalg.norm(h)
    out = project_cptp(j_ideal + eps * h).choi_matrix()
    # projections onto a convex set at most double the distance to a member
    assert np.linalg.norm(out - j_ideal) <= 2.5 * eps + 1e-7
    assert np.linalg.eigvalsh(out).min() >= -1e-9
    assert tp_residual(out) <= 1e-6


def test_project_cptp_clips_negative_eigenvalue(rng):
    ch = random_cptp_kraus(rng, n_kraus=4)
    j = ch.choi_matrix()
    vals, vecs = np.linalg.eigh(j)
    vals[0] = -0.01
    vals /= vals.sum()
    raw = (vecs * vals) @ vecs.conj().T
    out = project_cptp(raw).choi_matrix()
    assert np.linalg.eigvalsh(out).min() >= -1e-9
    assert tp_residual(out) <= 1e-6


def test_project_cptp_idempotent(rng):
    g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    raw = maximally_entangled_choi() + 0.05 * (g + g.conj().T) / np.linalg.norm(g)
    once = project_cptp(raw).choi_matrix()
    twice = project_cptp(once).choi_matrix()
    assert np.linalg.norm(twice - once) <= 1e-8


def test_project_cptp_never_moves_away_from_cptp_points(rng):
    j_ideal = channel_from_unitary(ms_unitary().matrix).choi_matrix()
    for _ in range(5):
        g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        h = 0.5 * (g + g.conj().T) / np.linalg.norm(g)
        raw = j_ideal + 0.02 * h
        out = project_cptp(raw).choi_matrix()
        assert np.linalg.norm(out - j_ideal) <= np.linalg.norm(raw - j_ideal) + 1e-7


def test_project_cptp_rejects_nonhermitian():
    raw = np.zeros((16, 16), dtype=complex)
    raw[0, 1] = 1.0
    with pytest.raises(ValueError):
        project_cptp(raw)


@settings(max_examples=examples(60), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4]),
       log_scale=st.floats(-2.0, 0.0))
def test_project_cptp_is_the_exact_projection(seed, dim, log_scale):
    """PSD, trace-preserving and idempotent to 1e-12, and X - J makes an
    obtuse angle with every CPTP Y - J: J is the nearest CPTP point to X."""
    rng = np.random.default_rng(seed)
    side = dim * dim
    g = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    x = 10**log_scale * (g + g.conj().T) / np.linalg.norm(g)
    j = project_cptp(x).choi_matrix()
    assert np.linalg.eigvalsh(j).min() >= -1e-12
    assert np.linalg.norm(partial_trace(j, [1], [dim, dim]) - np.eye(dim) / dim) <= 1e-12
    assert np.linalg.norm(project_cptp(j).choi_matrix() - j) <= 1e-12
    y = random_cptp_kraus(rng, dim=dim, n_kraus=int(rng.integers(1, 5))).choi_matrix()
    assert np.trace((x - j) @ (y - j)).real <= 1e-10


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("factor", [0.0, -1.0, 1.0])
def test_project_cptp_maps_multiples_of_identity_to_full_depolarizing(dim, factor):
    out = project_cptp(factor * np.eye(dim * dim)).choi_matrix()
    assert np.abs(out - np.eye(dim * dim) / dim**2).max() <= 1e-12


def test_project_cptp_raises_at_its_step_cap(rng, monkeypatch):
    monkeypatch.setattr(channels, "_NEWTON_STEP_CAP", 1)
    g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    far = 10 * (g + g.conj().T) / np.linalg.norm(g)
    with pytest.raises(ProjectionError, match="step cap") as info:
        project_cptp(far)
    assert info.value.steps == 1
    assert info.value.tp_gap > 1e-12
    assert f"{info.value.tp_gap:.3e}" in str(info.value)


def test_channel_json_roundtrip(rng):
    for rep in ("kraus", "choi", "chi"):
        ch = random_cptp_kraus(rng, n_kraus=2).convert(rep)
        again = QuantumChannel.from_json(ch.to_json())
        assert again.representation == rep
        assert np.linalg.norm(again.choi_matrix() - ch.choi_matrix()) <= 1e-9


def _edit_choi_json(edit) -> str:
    d = json.loads(identity_channel(4).convert("choi").to_json())
    edit(d)
    return json.dumps(d)


@pytest.mark.parametrize("text, match", [
    (_edit_choi_json(lambda d: d["entries"].pop()), "entries must hold 256 pairs"),
    (_edit_choi_json(lambda d: d.pop("dim")), "missing key 'dim'"),
    (_edit_choi_json(lambda d: d["entries"][0].pop()), r"entries must be \[re, im\] number pairs"),
    (_edit_choi_json(lambda d: d["entries"][0].__setitem__(0, 10**400)),
     r"entries must be \[re, im\] number pairs"),
    (_edit_choi_json(lambda d: d.update(note="x")), "unknown key 'note'"),
    (_edit_choi_json(lambda d: d.update(dim=3)), "dim must be 2 or 4, got 3"),
    (_edit_choi_json(lambda d: d.update(representation="ptm")), "unknown representation 'ptm'"),
    (json.dumps({"representation": "kraus", "dim": 2, "operators": [[[1.0, 0.0]] * 3]}),
     "operators must be a non-empty list of Kraus operators of 4 pairs"),
], ids=["short-entries", "no-dim", "one-element-pair", "integer-past-float64", "unknown-key",
        "dim-3", "representation", "short-operator"])
def test_channel_from_json_names_the_malformed_field(text, match):
    with pytest.raises(ValueError, match=match):
        QuantumChannel.from_json(text)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("read", [
    QuantumChannel.from_choi, QuantumChannel.from_chi,
    lambda m: QuantumChannel.from_json(json.dumps(
        {"representation": "choi", "dim": 2, "entries": [[x, 0.0] for x in m.reshape(-1)]})),
], ids=["from_choi", "from_chi", "from_json"])
@pytest.mark.parametrize("entries", [((0, 0), (3, 3)), ((0, 1), (1, 0))],
                         ids=["diagonal", "off-diagonal"])
def test_a_huge_finite_entry_is_refused_without_a_warning(read, entries):
    """Sums of entries near the float64 maximum overflow: refused first, with a
    ValueError, and nothing non-finite is checked or stored."""
    m = np.zeros((4, 4))
    for index in entries:
        m[index] = 1e308
    with pytest.raises(ValueError, match="matrix has an entry beyond 2"):
        read(m)


def test_compose_and_tensor(rng):
    a = random_cptp_kraus(rng, dim=2, n_kraus=2)
    b = random_cptp_kraus(rng, dim=2, n_kraus=2)
    joint = a.tensor(b)
    rho = random_density_matrix(rng, 4)
    assert joint.dim == 4
    # tensor acts factor-wise on product states
    ra = random_density_matrix(rng, 2)
    rb = random_density_matrix(rng, 2)
    assert np.allclose(joint.apply(kron(ra, rb)), kron(a.apply(ra), b.apply(rb)), atol=1e-10)
    c = random_cptp_kraus(rng, dim=4, n_kraus=3)
    seq = joint.compose(c)
    assert np.allclose(seq.apply(rho), c.apply(joint.apply(rho)), atol=1e-9)


# Term-by-term reference loops for the stacked channel algebra. Sampled counts
# depend on the last ulp of every Kraus operator, so the stacked forms must
# agree with these byte for byte, signed zeros included.

def _tensor_loop(a: QuantumChannel, b: QuantumChannel) -> list:
    return [np.kron(x, y) for x in a.kraus_operators() for y in b.kraus_operators()]


def _choi_loop(ops, dim: int) -> np.ndarray:
    j = np.zeros((dim * dim, dim * dim), dtype=complex)
    for k in ops:
        v = k.reshape(-1, 1)
        j += v @ dagger(v)
    return j / dim


def _kraus_loop(j, dim: int) -> list:
    vals, vecs = np.linalg.eigh(0.5 * (j + dagger(j)))
    ops = [np.sqrt(dim * lam) * v.reshape(dim, dim) for lam, v in zip(vals, vecs.T) if lam > 1e-12]
    return ops or [np.zeros((dim, dim), dtype=complex)]


def _compose_loop(a: QuantumChannel, after: QuantumChannel) -> list:
    ops = [y @ x for y in after.kraus_operators() for x in a.kraus_operators()]
    ops = list(QuantumChannel.from_kraus(ops).data)
    return _kraus_loop(_choi_loop(ops, a.dim), a.dim) if len(ops) > a.dim**2 else ops


def _same_bytes(stack, ops) -> bool:
    return len(stack) == len(ops) and all(
        np.asarray(x).tobytes() == np.asarray(y).tobytes() for x, y in zip(stack, ops))


def _matrices(rng, count: int, rows: int, cols: int) -> np.ndarray:
    """Complex matrices whose real and imaginary parts are each normal, +0.0
    or -0.0, so that products meet signed zeros."""
    parts = rng.normal(size=(2, count, rows, cols))
    pick = rng.integers(0, 3, size=parts.shape)
    parts = np.where(pick == 1, 0.0, np.where(pick == 2, -0.0, parts))
    out = np.empty((count, rows, cols), dtype=complex)
    out.real, out.imag = parts
    return out


def _kraus_set(rng, count: int, dim: int, paulis: bool) -> QuantumChannel:
    """A random isometry cut into ``count`` blocks, or a random mixture of
    phase-flipped Pauli products, whose entries hold zeros of both signs."""
    if not paulis:
        return random_cptp_kraus(rng, dim=dim, n_kraus=count)
    basis = pauli_basis(dim.bit_length() - 1)
    weights = rng.dirichlet(np.ones(count))
    phases = np.array([1, -1, 1j, -1j])[rng.integers(0, 4, count)]
    picks = rng.integers(0, len(basis), count)
    return QuantumChannel.from_kraus(
        [np.sqrt(w) * z * basis[i] for w, z, i in zip(weights, phases, picks)])


_KRAUS_SETS = dict(seed=st.integers(0, 2**32 - 1), n_a=st.integers(1, 16),
                   n_b=st.integers(1, 16), paulis=st.booleans())


@settings(max_examples=examples(40), deadline=None)
@given(**_KRAUS_SETS)
def test_stacked_tensor_matches_the_pairwise_kron_loop(seed, n_a, n_b, paulis):
    rng = np.random.default_rng(seed)
    a, b = (_kraus_set(rng, n, 2, paulis) for n in (n_a, n_b))
    assert _same_bytes(a.tensor(b).data, _tensor_loop(a, b))


@settings(max_examples=examples(40), deadline=None)
@given(dim=st.sampled_from([2, 4]), **_KRAUS_SETS)
def test_stacked_compose_matches_the_pairwise_product_loop(seed, n_a, n_b, paulis, dim):
    """Covers the compression through the Choi state when n_a * n_b > d^2. The
    one grouped GEMM of all pairs keeps each product's bits as far as the BLAS
    build's kernels allow."""
    rng = np.random.default_rng(seed)
    a, b = (_kraus_set(rng, n, dim, paulis) for n in (n_a, n_b))
    assert _same_bytes(a.compose(b).data, _compose_loop(a, b))


_RELAXATION = st.builds(
    lambda t1, t2_share, duration: damping_channel(t1, 2 * t1 * t2_share, duration),
    st.floats(1.0, 1e3), st.floats(1e-3, 1.0),  # T2 = 2 T1 at a share of 1
    st.sampled_from([0.0, 35.0, 300.0, 1e6]) | st.floats(0.0, 1e6))


_CPTP_FACTOR = st.builds(lambda seed, count, paulis:
                         _kraus_set(np.random.default_rng(seed), count, 2, paulis),
                         st.integers(0, 2**32 - 1), st.integers(1, 8), st.booleans())


@settings(max_examples=examples(100), deadline=None)
@given(t1=st.floats(1e-3, 1e6), t2_share=st.floats(1e-6, 1.0),  # T2 = 2 T1 at a share of 1
       duration=st.sampled_from([0.0, 35.0, 300.0, 1e9]) | st.floats(0.0, 1e9),
       p=st.sampled_from([0.0, 1e-30, 1.0]) | st.floats(0.0, 1.0), arity=st.sampled_from([1, 2]),
       a=_CPTP_FACTOR | _RELAXATION, b=_CPTP_FACTOR | _RELAXATION)
def test_closed_form_kraus_sets_pass_from_kraus_as_they_are(t1, t2_share, duration, p, arity,
                                                            a, b):
    """``damping_channel``, ``depolarizing_channel`` and ``tensor`` store their
    operators without ``from_kraus``; it would accept them and store the same
    bytes, so the check they skip is redundant."""
    damping = damping_channel(t1, 2 * t1 * t2_share, duration)
    depolarizing = depolarizing_channel(p, arity)
    products = [np.kron(x, y) for x in a.kraus_operators() for y in b.kraus_operators()]
    for channel, operators in ((damping, list(damping.data)),
                               (depolarizing, list(depolarizing.data)), (a.tensor(b), products)):
        checked = QuantumChannel.from_kraus(operators)
        assert (checked.representation, checked.dim) == ("kraus", channel.dim)
        assert checked.data.tobytes() == channel.data.tobytes()


@pytest.mark.parametrize("a, b", [(4, 2), (2, 4), (4, 4)])
def test_tensor_refuses_a_product_beyond_4x4(a, b):
    with pytest.raises(ValueError, match="^Kraus operators must share a square 2x2 or 4x4 shape$"):
        identity_channel(a).tensor(identity_channel(b))


@example(channel=QuantumChannel.from_kraus([I2, [[0, 5e-324], [0, 0]]]), p=0.3)  # underflows
@settings(max_examples=examples(60), deadline=None)
@given(channel=st.builds(lambda seed, count, dim, paulis:
                         _kraus_set(np.random.default_rng(seed), count, dim, paulis),
                         st.integers(0, 2**32 - 1), st.integers(1, 20), st.sampled_from([2, 4]),
                         st.booleans())
       | st.builds(QuantumChannel.tensor, _RELAXATION, _RELAXATION),
       p=st.sampled_from([1e-30, 1e-12, 0.0165, 1.0]) | st.floats(0.0, 1.0))
def test_depolarized_matches_compose_with_the_depolarizing_channel(channel, p):
    """Random Kraus sets and CNOT relaxations, zero and 10^6 ns durations
    among them, at p where ``_nonzero`` drops Pauli terms and where it keeps
    all; the second call reuses the Pauli products and their plan. The two are
    equal because zgemm writes an entry of one nonzero term as that term's
    product."""
    expected = channel.compose(depolarizing_channel(p, channel.dim.bit_length() - 1)).data
    for _ in range(2):
        assert _same_bytes(channel.depolarized(p).data, expected)


def _sparse_stack(seed: int, count: int, dim: int, zero_entries: float,
                  zero_operators: float) -> np.ndarray:
    """``_matrices`` with a share of entries, and of whole operators, set to
    zeros whose parts are +0.0 or -0.0."""
    rng = np.random.default_rng(seed)
    ops = _matrices(rng, count, dim, dim)
    zero = rng.random(ops.shape) < zero_entries
    zero |= (rng.random(count) < zero_operators)[:, None, None]
    for part in (ops.real, ops.imag):
        part[zero] = rng.choice([0.0, -0.0], zero.sum())
    return ops


def _relaxation_then_depolarizing(name: str, p: float) -> np.ndarray:
    """The stack whose Choi state ``NoiseModel.with_p_dep`` takes: the products
    of the depolarizing operators at p with an example calibration's CNOT
    relaxation operators, 256 of them for p > 0."""
    relaxation = build_noise_model(DeviceCalibration.load(DATA_DIR / f"{name}.json")).cnot_relaxation
    return matmul_pairs(depolarizing_channel(p).kraus_operators(),
                        relaxation.kraus_operators()).reshape(-1, 4, 4)


_CHOI_STACKS = [
    circuit_unitary(synthesize_ms_circuit())[None],  # one operator: the ms target
    _sparse_stack(1, 256, 4, 0.0, 0.0),
    _sparse_stack(2, 256, 4, 0.9, 0.1),
    *(_relaxation_then_depolarizing(name, p)
      for name in ("example_calibration", "example_calibration_b") for p in (0, 0.0165, 0.3, 1)),
]


def _each_choi_stack(test):
    for ops in _CHOI_STACKS:
        test = example(ops=ops)(test)
    return test


@_each_choi_stack
@settings(max_examples=examples(60), deadline=None)
@given(ops=st.builds(_sparse_stack, seed=st.integers(0, 2**32 - 1), count=st.integers(1, 256),
                     dim=st.sampled_from([2, 4]),
                     zero_entries=st.sampled_from([0.0, 0.5, 0.9, 0.97, 1.0]),
                     zero_operators=st.sampled_from([0.0, 0.1, 0.5])))
def test_rowwise_kraus_to_choi_matches_the_outer_product_loop(ops):
    """Dense stacks and sparse ones against the loop that adds every term, by
    the sparse sum, which skips the +0 terms, as a Kraus channel's Choi state
    takes it; among them the relaxation-then-depolarizing stacks of both
    example calibrations, whose 256 operators at p > 0 hold 576 nonzero
    entries in 4096. The sparse sum equals the loop because numpy's 1-deep
    matmul loop writes each product as 0 + x*conj(y), and numpy 1.24 ships its
    own build of that loop."""
    dim = ops.shape[1]
    loop = _choi_loop(ops, dim).tobytes()
    flat = ops.reshape(len(ops), -1)
    assert channels._choi_sum(flat, dim, channels._choi_plan(flat)).tobytes() == loop


@settings(max_examples=examples(40), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shapes=st.lists(st.integers(1, 4), min_size=4, max_size=4))
def test_broadcast_kron_matches_numpys(seed, shapes):
    rng = np.random.default_rng(seed)
    a = _matrices(rng, 1, *shapes[:2])[0]
    b = _matrices(rng, 1, *shapes[2:])[0]
    assert kron(a, b).tobytes() == np.kron(a, b).tobytes()


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_pauli_basis_is_built_once_read_only_and_matches_the_kron_loop(num_qubits):
    ops = [PAULIS_1Q[label] for label in "IXYZ"]
    expected = ops
    for _ in range(num_qubits - 1):
        expected = [np.kron(a, b) for a, b in itertools.product(expected, ops)]
    basis = pauli_basis(num_qubits)
    assert basis is pauli_basis(num_qubits)
    assert not basis.flags.writeable
    assert _same_bytes(basis, expected)


def test_choi_channel_derives_its_kraus_set_once(rng, monkeypatch):
    ch = random_cptp_kraus(rng, n_kraus=3).convert("choi")
    rho = random_density_matrix(rng, 4)
    calls = []
    real = np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    first, second = ch.apply(rho), ch.apply(rho)
    assert len(calls) == 1
    assert first.tobytes() == second.tobytes()
    assert ch.kraus_operators() is ch.kraus_operators()


def _pairs_channel_json(ch: QuantumChannel) -> str:
    """The ``json.dumps`` writer ``to_json`` replaced: the oracle it must match."""
    def encode(m):
        return [[float(z.real), float(z.imag)] for z in np.asarray(m).reshape(-1)]

    if ch.representation == "kraus":
        payload = {"representation": "kraus", "dim": ch.dim,
                   "operators": [encode(k) for k in ch.data]}
    else:
        payload = {"representation": ch.representation, "dim": ch.dim, "entries": encode(ch.data)}
    return json.dumps(payload, indent=2)


@settings(max_examples=examples(40), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 16), dim=st.sampled_from([2, 4]),
       paulis=st.booleans(), representation=st.sampled_from(REPRESENTATIONS))
def test_channel_json_matches_the_pairs_writer_and_round_trips(seed, count, dim, paulis,
                                                                representation):
    """Valid channels of every representation; the Pauli mixtures carry -0.0."""
    kraus = _kraus_set(np.random.default_rng(seed), count, dim, paulis)
    ch = {"kraus": kraus, "choi": QuantumChannel.from_choi(kraus.choi_matrix()),
          "chi": QuantumChannel.from_chi(kraus.chi_matrix())}[representation]
    text = ch.to_json()
    assert text == _pairs_channel_json(ch)
    again = QuantumChannel.from_json(text)
    assert (again.representation, again.dim) == (representation, dim)
    assert again.data.tobytes() == ch.data.tobytes()


@settings(max_examples=examples(40), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 4), dim=st.sampled_from([2, 4]),
       representation=st.sampled_from(REPRESENTATIONS))
def test_channel_json_writes_any_finite_entries_as_json_does(seed, count, dim, representation):
    """Entries the writer meets unvalidated: signed zeros, subnormals, exponents."""
    rng = np.random.default_rng(seed)
    side = dim if representation == "kraus" else dim * dim
    data = _matrices(rng, count, side, side) * 10.0 ** rng.integers(-300, 300, (count, side, side))
    data[rng.random(data.shape) < 0.1] = complex(5e-324, -0.0)
    ch = QuantumChannel(representation, data if representation == "kraus" else data[0])
    assert ch.to_json() == _pairs_channel_json(ch)


def test_a_channel_reads_its_dim_from_its_data():
    """A Choi state of 16 x 16 is a two-qubit channel; no third argument can
    say otherwise and split it into 2 x 2 Kraus operators."""
    j = identity_channel(4).choi_matrix()
    with pytest.raises(TypeError):
        QuantumChannel("choi", j, 2)
    assert list(inspect.signature(QuantumChannel).parameters) == ["representation", "data"]
    assert QuantumChannel("choi", j).dim == 4


@pytest.mark.parametrize("representation, data, message", [
    ("bogus", np.eye(16) / 16, "^representation: unknown 'bogus'"),
    ("choi", np.eye(3) / 3, r"^data: shape \(3, 3\) fits no choi channel$"),
    ("chi", np.eye(4)[None] / 4, r"^data: shape \(1, 4, 4\) fits no chi channel$"),
    ("kraus", np.eye(4), r"^data: shape \(4, 4\) fits no kraus channel$"),
    ("kraus", np.zeros((0, 2, 2)), r"^data: shape \(0, 2, 2\) fits no kraus channel$"),
    ("kraus", np.ones((1, 3, 3)), r"^data: shape \(1, 3, 3\) fits no kraus channel$"),
])
def test_a_raw_channel_refuses_an_unknown_tag_or_a_shape_that_does_not_fit_it(
        representation, data, message):
    """The raw constructor checks the tag and the shape alone: a (count, d, d)
    Kraus stack with d 2 or 4, or a 4x4 or 16x16 Choi or chi matrix."""
    with pytest.raises(ValueError, match=message):
        QuantumChannel(representation, data)


def test_a_raw_channel_stores_nested_lists_as_a_complex_array():
    """A nested list is stored as the complex array of its numbers; a complex
    array is stored as itself."""
    kraus = QuantumChannel("kraus", [[[1, 0], [0, 1]]])
    assert kraus.dim == 2 and kraus.data.dtype == complex
    assert np.array_equal(kraus.kraus_operators(), [np.eye(2)])
    choi = QuantumChannel("choi", (np.eye(4) / 4).tolist())
    assert choi.choi_matrix().tobytes() == (np.eye(4, dtype=complex) / 4).tobytes()
    j = identity_channel(2).choi_matrix().copy()
    assert QuantumChannel("choi", j).data is j
    with pytest.raises(ValueError, match="^data: list is not an array of numbers$"):
        QuantumChannel("kraus", [[[1, 0], [0]]])


@pytest.mark.parametrize("name", ["example_calibration", "example_calibration_b"])
def test_every_channel_of_an_example_build_keeps_its_dim(name):
    """The damping channels are 1-qubit and the model's channels 2-qubit, in
    every representation and when made again from their data alone."""
    cal = DeviceCalibration.load(DATA_DIR / f"{name}.json").with_p_dep(0.0165)
    model = build_noise_model(cal)
    built = [(ch, 4) for ch in (*model.single_qubit.values(), model.cnot_relaxation,
                                model.cnot_channel) if ch is not None]
    built += [(damping_channel(q.t1_us, q.t2_us, cal.durations_ns["cnot"]), 2) for q in cal.qubits]
    assert len(built) == 8  # sx and x on each qubit, the CNOT relaxation and channel, 2 dampings
    for ch, dim in built:
        for rep in REPRESENTATIONS:
            converted = ch.convert(rep)
            assert converted.dim == QuantumChannel(rep, converted.data).dim == dim


@pytest.mark.parametrize("dim", [2, 4])
def test_kraus_channel_builds_its_choi_state_once_read_only(rng, dim):
    ch = random_cptp_kraus(rng, dim=dim, n_kraus=3)
    j = ch.choi_matrix()
    assert ch.choi_matrix() is j
    assert not j.flags.writeable
    assert j.tobytes() == _choi_loop(ch.data, dim).tobytes()


@pytest.mark.parametrize("representation", ["choi", "chi"])
@pytest.mark.parametrize("dim", [2, 4])
def test_choi_and_chi_channels_keep_one_read_only_choi_state(rng, dim, representation):
    """A chi channel changes basis once, and both hand out their state read-only,
    so no caller can write into the state that the channel's other forms derive
    from; a Choi channel's stored matrix stays writable by its owner."""
    kraus = random_cptp_kraus(rng, dim=dim, n_kraus=3)
    ch = (QuantumChannel.from_choi(kraus.choi_matrix()) if representation == "choi"
          else QuantumChannel.from_chi(kraus.chi_matrix()))
    j = ch.choi_matrix()
    assert ch.choi_matrix() is j
    assert not j.flags.writeable
    if representation == "choi":
        assert np.shares_memory(j, ch.data) and ch.data.flags.writeable
    else:
        assert ch.convert("choi").data is j


def _parent_forms(ch: QuantumChannel) -> dict:
    """Each form of a channel as the term-by-term formulas give it: the loop
    for a Kraus set's Choi state, the change of basis between Choi and chi,
    and ``_choi_to_kraus`` of the Choi state for the Kraus set."""
    rep, data, b = ch.representation, ch.data, channels._pauli_change_of_basis(ch.dim)
    j = _choi_loop(data, ch.dim) if rep == "kraus" else data if rep == "choi" else b @ data @ dagger(b)
    return {"kraus": data if rep == "kraus" else channels._choi_to_kraus(j, ch.dim),
            "choi": j, "chi": data if rep == "chi" else dagger(b) @ j @ b}


@settings(max_examples=examples(40), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 16), dim=st.sampled_from([2, 4]),
       paulis=st.booleans(), representation=st.sampled_from(REPRESENTATIONS))
def test_every_conversion_has_the_bits_of_its_formula(seed, count, dim, paulis, representation):
    """``convert`` wraps the form derived from the cached Choi state, with the
    bits of the formula for each pair of representations; the Pauli mixtures
    carry zeros of both signs."""
    kraus = _kraus_set(np.random.default_rng(seed), count, dim, paulis)
    ch = {"kraus": kraus, "choi": QuantumChannel.from_choi(_choi_loop(kraus.data, dim)),
          "chi": QuantumChannel.from_chi(_parent_forms(kraus)["chi"])}[representation]
    expected = _parent_forms(ch)
    for to in REPRESENTATIONS:
        converted = ch.convert(to)
        assert converted.representation == to
        assert converted.data.tobytes() == expected[to].tobytes()
