import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msbench.circuits import Circuit, Gate, circuit_unitary, synthesize_ms_circuit
from msbench.noise import DeviceCalibration, QubitCalibration, build_noise_model
from msbench.simulator import (
    BITSTRINGS,
    MEASUREMENT_BASES,
    CountsRecord,
    basis_state,
    evolve,
    expectation,
    outcome_distribution,
    pcg64_states,
    sample_counts,
)

from conftest import count_numpy_random, random_density_matrix, random_unitary

BELL = np.array([1, 0, 0, 1j]) / np.sqrt(2)


def dep_cal(p_dep):
    qubits = (QubitCalibration(0, 100.0, 80.0, 0.0), QubitCalibration(1, 100.0, 80.0, 0.0))
    return DeviceCalibration(qubits, {"rz": 0, "sx": 0, "cnot": 0, "x": 0}, p_dep)


def test_evolve_noiseless_ms_prepares_bell():
    rho = evolve(synthesize_ms_circuit(), basis_state("00"))
    assert np.linalg.norm(rho - np.outer(BELL, BELL.conj())) <= 1e-10


def test_evolve_empty_circuit():
    rho = random_density_matrix(np.random.default_rng(3))
    assert np.allclose(evolve(Circuit(), rho), rho, atol=1e-12)


def test_evolve_matches_direct_unitary(rng):
    circuit = Circuit((Gate.rz(0, 0.3), Gate.sx(1), Gate.cnot(1, 0), Gate.x(0)))
    u = circuit_unitary(circuit)
    for _ in range(5):
        rho = random_density_matrix(rng)
        assert np.linalg.norm(evolve(circuit, rho) - u @ rho @ u.conj().T) <= 1e-10


def test_evolve_with_full_depolarizing_matches_channel_path():
    noise = build_noise_model(dep_cal(1.0))
    circuit = synthesize_ms_circuit()
    rho = evolve(circuit, basis_state("00"), noise)
    # oracle: apply gate unitaries and the depolarizing channel by hand
    expected = basis_state("00")
    for gate in circuit.gates:
        u = gate.matrix()
        expected = u @ expected @ u.conj().T
        if gate.kind == "cnot":
            ch = noise.cnot_channel
            out = np.zeros_like(expected)
            for k in ch.kraus_operators():
                out += k @ expected @ k.conj().T
            expected = out
    assert np.linalg.norm(rho - expected) <= 1e-10
    purity = np.trace(rho @ rho).real
    assert purity == pytest.approx(np.trace(expected @ expected).real, abs=1e-10)
    assert purity < 0.5  # fully depolarized at the CNOT, far from a pure state


def test_evolve_preserves_density_matrix_invariants(rng):
    cal = DeviceCalibration(
        (QubitCalibration(0, 120.0, 100.0, 0.02), QubitCalibration(1, 90.0, 70.0, 0.03)),
        {}, 0.05,
    )
    noise = build_noise_model(cal)
    rho = evolve(synthesize_ms_circuit(), random_density_matrix(rng), noise)
    assert np.linalg.norm(rho - rho.conj().T) <= 1e-12
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.eigvalsh(rho).min() >= -1e-9


def test_outcome_distribution_zz_basis_states():
    assert np.allclose(outcome_distribution(basis_state("00"), "ZZ"), [1, 0, 0, 0])
    assert np.allclose(outcome_distribution(basis_state("10"), "ZZ"), [0, 0, 1, 0])


def test_outcome_distribution_bell_zz():
    rho = np.outer(BELL, BELL.conj())
    assert np.allclose(outcome_distribution(rho, "ZZ"), [0.5, 0, 0, 0.5], atol=1e-12)


def test_outcome_distribution_bell_xy():
    # <X(x)Y> = +1 on (|00> + i|11>)/sqrt2, so XY outcomes concentrate on even parity
    rho = np.outer(BELL, BELL.conj())
    dist = outcome_distribution(rho, "XY")
    assert np.allclose(dist, [0.5, 0, 0, 0.5], atol=1e-12)


def test_outcome_distribution_confusion():
    conf = np.array([
        [0.9, 0.1, 0, 0],
        [0.1, 0.9, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1.0],
    ])
    dist = outcome_distribution(basis_state("00"), "ZZ", conf)
    assert np.allclose(dist, [0.9, 0.1, 0, 0])


def test_outcome_distribution_marginal_setting_independence(rng):
    # qubit-0 marginal in setting ZB must not depend on B for product states
    for _ in range(5):
        u0, u1 = random_unitary(rng, 2), random_unitary(rng, 2)
        rho = np.kron(
            u0 @ np.diag([1, 0]).astype(complex) @ u0.conj().T,
            u1 @ np.diag([1, 0]).astype(complex) @ u1.conj().T,
        )
        marginals = []
        for b in "XYZ":
            d = outcome_distribution(rho, "Z" + b)
            marginals.append([d[0] + d[1], d[2] + d[3]])
        for m in marginals[1:]:
            assert np.allclose(m, marginals[0], atol=1e-10)


def test_stacked_states_match_single_state_calls(rng):
    cal = DeviceCalibration(
        (QubitCalibration(0, 120.0, 100.0, 0.02), QubitCalibration(1, 90.0, 70.0, 0.03)),
        {}, 0.05,
    )
    noise = build_noise_model(cal)
    circuit = synthesize_ms_circuit()
    states = np.array([random_density_matrix(rng) for _ in range(3)])
    evolved = evolve(circuit, states, noise)
    dists = outcome_distribution(evolved, ["XY", "ZZ"], noise.confusion)
    assert dists.shape == (3, 2, 4)
    assert outcome_distribution(evolved, "XY").shape == (3, 4)
    for rho, out, dist in zip(states, evolved, dists):
        assert np.array_equal(evolve(circuit, rho, noise), out)
        for setting, row in zip(["XY", "ZZ"], dist):
            assert np.array_equal(outcome_distribution(out, setting, noise.confusion), row)
    freqs = dists[:, 1]
    zz = [expectation(CountsRecord("ZZ", None, None, tuple(f)), "ZZ") for f in freqs]
    assert np.allclose(expectation(freqs, "ZZ"), zz, atol=1e-15)


def test_outcome_distribution_rejects_bad_setting():
    with pytest.raises(ValueError):
        outcome_distribution(basis_state("00"), "ZQ")


def test_sample_counts_point_mass():
    rec = sample_counts([1, 0, 0, 0], 500, seed=1)
    assert rec.counts == {"00": 500, "01": 0, "10": 0, "11": 0}


def test_sample_counts_bell_statistics():
    rec = sample_counts([0.5, 0, 0, 0.5], 13_000, seed=9)
    sigma = np.sqrt(13_000 * 0.25)
    assert abs(rec.counts["00"] - 6_500) <= 4 * sigma
    assert abs(rec.counts["11"] - 6_500) <= 4 * sigma
    assert rec.counts["01"] == 0 and rec.counts["10"] == 0


def test_sample_counts_deterministic():
    a = sample_counts([0.3, 0.3, 0.2, 0.2], 4_000, seed=123)
    b = sample_counts([0.3, 0.3, 0.2, 0.2], 4_000, seed=123)
    assert a.counts == b.counts
    c = sample_counts([0.3, 0.3, 0.2, 0.2], 4_000, seed=124)
    assert c.counts != a.counts


def test_sample_counts_convergence():
    dist = np.array([0.4, 0.3, 0.2, 0.1])
    rec = sample_counts(dist, 1_000_000, seed=5)
    assert np.abs(rec.frequencies() - dist).max() <= 5e-3


def test_sample_counts_clips_tiny_negatives():
    rec = sample_counts([1.0 + 5e-10, -5e-10, 0, 0], 100, seed=0)
    assert rec.counts["00"] == 100


def test_sample_counts_rejects_bad_distributions():
    with pytest.raises(ValueError):
        sample_counts([0.5, 0.5, 0.1, -0.1], 100, seed=0)
    with pytest.raises(ValueError):
        sample_counts([0.5, 0.2, 0.1, 0.1], 100, seed=0)  # sums to 0.9
    with pytest.raises(ValueError):
        sample_counts([1, 0, 0, 0], 0, seed=0)


def test_expectation_examples():
    all00 = CountsRecord("ZZ", 100, {"00": 100, "01": 0, "10": 0, "11": 0})
    assert expectation(all00, "ZZ") == 1.0
    all01 = CountsRecord("ZZ", 50, {"00": 0, "01": 50, "10": 0, "11": 0})
    assert expectation(all01, "ZI") == 1.0
    assert expectation(all01, "IZ") == -1.0
    half = CountsRecord("ZZ", 1000, {"00": 500, "01": 0, "10": 0, "11": 500})
    assert expectation(half, "ZZ") == 1.0
    assert expectation(half, "ZI") == 0.0
    assert expectation(half, "II") == 1.0


def test_expectation_rejects_incompatible_observable():
    rec = CountsRecord("XZ", 10, {"00": 10, "01": 0, "10": 0, "11": 0})
    with pytest.raises(ValueError):
        expectation(rec, "ZZ")
    assert expectation(rec, "XI") == 1.0
    assert expectation(rec, "IZ") == 1.0


def test_counts_record_validation():
    with pytest.raises(ValueError):
        CountsRecord("ZZ", 10, {"00": 5, "01": 0, "10": 0, "11": 0})  # sums to 5
    with pytest.raises(ValueError):
        CountsRecord("ZZ", None, None, None)  # neither counts nor probabilities
    rec = CountsRecord("XY", None, None, (0.25, 0.25, 0.25, 0.25))
    assert rec.exact and np.allclose(rec.frequencies(), 0.25)


@pytest.mark.parametrize("probs", [
    (float("nan"), 0.5, 0.25, 0.25),
    (0.5, float("nan"), 0.25, 0.25),
    (float("inf"), 0.0, 0.0, 0.0),
    (0.9, 0.9, 0.9, 0.9),
    (0.5, 0.5),
    (1.0 + 1e-6, -1e-6, 0.0, 0.0),
], ids=["nan", "nan-not-first", "inf", "sum", "length", "negative"])
def test_exact_counts_record_needs_a_probability_4_vector(probs):
    with pytest.raises(ValueError, match=r"^probabilities \[.*\] are not 4 finite entries"):
        CountsRecord("ZZ", None, None, probs)


@pytest.mark.parametrize("counts, message", [
    ({"00": 5, "ab": 5}, r"^counts: unknown key 'ab'; expected one of 00, 01, 10, 11"),
    ({"00": 5.5, "11": 4.5}, r"^counts\['00'\] = 5.5 is not a non-negative integer"),
    ({"00": 11, "11": -1}, r"^counts\['11'\] = -1 is not a non-negative integer"),
    ({"00": True, "11": 9}, r"^counts\['00'\] = True is not a non-negative integer"),
    ([10, 0, 0, 0], r"^counts: expected a JSON object, got list"),
], ids=["unknown-key", "fraction", "negative", "bool", "not-a-mapping"])
def test_counted_record_rejects_foreign_keys_and_non_integer_counts(counts, message):
    with pytest.raises(ValueError, match=message):
        CountsRecord("ZZ", 10, counts)


def test_counted_record_takes_numpy_integers_and_fills_missing_outcomes():
    rec = CountsRecord("ZZ", 10, {"00": np.int64(4), "11": np.uint8(6)})
    assert rec.counts == {"00": 4, "01": 0, "10": 0, "11": 6}
    assert all(type(v) is int for v in rec.counts.values())


def test_exact_counts_record_allows_sample_counts_rounding():
    rec = CountsRecord("ZZ", None, None, (1.0 + 5e-10, -5e-10, 0.0, 0.0))
    assert rec.probs == (1.0 + 5e-10, -5e-10, 0.0, 0.0)


def test_basis_state_rejects_garbage():
    with pytest.raises(ValueError):
        basis_state("02")


_SETTINGS = [a + b for a in MEASUREMENT_BASES for b in MEASUREMENT_BASES]


@settings(max_examples=50, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 0),
            st.integers(0, 2**64 - 1),
            st.sampled_from(_SETTINGS),
        ),
        min_size=1, max_size=8,
    ),
    shots=st.integers(1, 5000),
)
def test_stacked_sample_counts_equal_single_calls(rows, shots):
    dists = np.array([np.array(w) / sum(w) for w, _, _ in rows])
    seeds = [seed for _, seed, _ in rows]
    stacked = sample_counts(dists, shots, seeds)
    assert stacked.dtype == np.int64 and stacked.shape == (len(rows), 4)
    for counts, dist, seed, (_, _, setting) in zip(stacked, dists, seeds, rows):
        single = sample_counts(dist, shots, seed, setting)
        assert single.setting == setting
        assert counts.tolist() == [single.counts[b] for b in BITSTRINGS]


@pytest.mark.parametrize("bad", [[0.5, 0.5, 0.1, -0.1], [0.5, 0.2, 0.1, 0.1]],
                         ids=["negative", "sum"])
def test_stacked_sample_counts_fail_like_the_bad_row(bad):
    with pytest.raises(ValueError) as single:
        sample_counts(bad, 100, seed=0)
    with pytest.raises(ValueError) as stacked:
        sample_counts([[1, 0, 0, 0], bad, [0, 0, 0, 1]], 100, [0, 1, 2])
    assert str(stacked.value) == str(single.value)


def test_stacked_sample_counts_need_a_seed_per_row():
    with pytest.raises(ValueError, match="one seed per row"):
        sample_counts([[1, 0, 0, 0]] * 2, 10, [1])
    with pytest.raises(ValueError, match="4-vector"):
        sample_counts(np.ones((2, 2, 4)) / 4, 10, [1, 2])


def test_sample_counts_rejects_an_empty_stack():
    with pytest.raises(ValueError, match="empty stack of distributions"):
        sample_counts(np.zeros((0, 4)), 10, [])


@pytest.mark.parametrize("dist, seed, row", [
    ([np.nan, 0.5, 0.25, 0.25], 0, 0),
    ([[0.25] * 4, [0.5, np.inf, 0.0, 0.0], [np.nan] * 4], [1, 2, 3], 1),
], ids=["vector", "stack"])
def test_sample_counts_rejects_non_finite_rows_naming_the_first(dist, seed, row):
    with pytest.raises(ValueError, match=f"^distribution row {row} has non-finite entries"):
        sample_counts(dist, 10, seed)


@settings(max_examples=50, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1) | st.integers(0, 2**320), min_size=1,
                      max_size=8))
# One stack of 1- and 2-word seeds, one of exactly 4 words, and 5-, 7- and 10-word ones.
@example(seeds=[0, 1, 2**32 - 1, 2**32, 2**63 + 17, 2**64 - 1, 2**128 - 1, 2**128 + 1,
                2**200 + 3, 3**200])
def test_pcg64_states_equal_numpys(seeds):
    assert [{"state": state, "inc": inc} for state, inc in pcg64_states(seeds)] == [
        np.random.PCG64(seed).state["state"] for seed in seeds]


@st.composite
def dyadic_distributions(draw):
    """Outcome 4-vectors in 64ths: they sum to exactly 1, with zeros and
    p = 0.5 ties among them."""
    cuts = sorted(draw(st.lists(st.sampled_from([0, 16, 32, 48, 64]) | st.integers(0, 64),
                                min_size=3, max_size=3)))
    return np.diff([0, *cuts, 64]) / 64.0


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(st.tuples(dyadic_distributions(),
                               st.integers(0, 2**64 - 1) | st.integers(0, 2**160)),
                     min_size=1, max_size=8),
       shots=st.integers(1, 5000))
def test_stacked_sample_counts_equal_numpys_generator(rows, shots):
    dists = np.array([dist for dist, _ in rows])
    seeds = [seed for _, seed in rows]
    counts = sample_counts(dists, shots, seeds)
    for row, dist, seed in zip(counts, dists, seeds):
        draw = np.random.Generator(np.random.PCG64(seed)).multinomial(shots, dist)
        assert row.tolist() == draw.tolist()


def test_sample_counts_builds_one_generator_per_call(monkeypatch):
    built = count_numpy_random(monkeypatch, "PCG64")
    sample_counts(np.full((144, 4), 0.25), 100, list(range(144)))
    assert len(built) == 1
    sample_counts([0.25] * 4, 100, 7)
    assert len(built) == 2


@pytest.mark.parametrize("seed", [-1, 1.0, 2.5, np.float64(3.0), None, "3"],
                         ids=["negative", "float", "fraction", "numpy-float", "none", "str"])
def test_sample_counts_rejects_seeds_that_are_not_non_negative_integers(seed):
    with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
        sample_counts([1, 0, 0, 0], 10, seed)
    with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
        sample_counts([[1, 0, 0, 0]] * 2, 10, [0, seed])


def test_sample_counts_takes_numpy_integer_seeds():
    dist = [0.3, 0.3, 0.2, 0.2]
    expected = sample_counts(dist, 1000, 2**63 + 5)
    assert sample_counts(dist, 1000, np.uint64(2**63 + 5)) == expected
    stacked = sample_counts([dist], 1000, np.array([2**63 + 5], dtype=np.uint64))
    assert stacked.tolist() == [[expected.counts[b] for b in BITSTRINGS]]
