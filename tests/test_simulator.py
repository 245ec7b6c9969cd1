import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msbench.channels import identity_channel
from msbench.circuits import Circuit, Gate, circuit_unitary, synthesize_ms_circuit
from msbench.noise import DeviceCalibration, QubitCalibration, build_noise_model
from msbench.simulator import (
    basis_state,
    evolve,
    expectation,
    outcome_distribution,
    sample_counts,
    seed_sequences,
    validate_seed,
    validate_setting,
    validate_shots,
)
from msbench.tomography import _CELLS, TomographyDataset, run_qpt

from conftest import count_numpy_random, dep_cal, examples, random_density_matrix, random_unitary

BELL = np.array([1, 0, 0, 1j]) / np.sqrt(2)


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
    zz = [expectation(f, "ZZ") for f in freqs]
    assert np.allclose(expectation(freqs, "ZZ"), zz, atol=1e-15)


def test_outcome_distribution_rejects_bad_setting():
    with pytest.raises(ValueError):
        outcome_distribution(basis_state("00"), "ZQ")


@pytest.mark.parametrize("entry", [["Z", "Z"], {"a": 1}, 7], ids=["list", "dict", "int"])
def test_a_setting_or_observable_that_is_not_a_string_fails_naming_it(entry):
    """Refused before the per-tuple caches, which an unhashable entry would fail
    with a ``TypeError``, and after a valid tuple has filled them."""
    outcome_distribution(basis_state("00"), ["ZZ"])
    expectation([0.25] * 4, ["ZZ"])
    named = re.escape(f"got {entry!r}")
    with pytest.raises(ValueError, match=f"^measurement setting must be two of X/Y/Z, {named}$"):
        validate_setting(entry)
    with pytest.raises(ValueError, match=f"^measurement setting must be two of X/Y/Z, {named}$"):
        outcome_distribution(basis_state("00"), [entry])
    with pytest.raises(ValueError, match=f"^observable must be two of I/X/Y/Z, {named}$"):
        expectation([0.25] * 4, [entry])


def test_sample_counts_point_mass():
    counts = sample_counts([1, 0, 0, 0], 500, seed=1)
    assert counts.dtype == np.int64 and counts.tolist() == [500, 0, 0, 0]


def test_sample_counts_bell_statistics():
    n00, n01, n10, n11 = sample_counts([0.5, 0, 0, 0.5], 13_000, seed=9)
    sigma = np.sqrt(13_000 * 0.25)
    assert abs(n00 - 6_500) <= 4 * sigma
    assert abs(n11 - 6_500) <= 4 * sigma
    assert n01 == 0 and n10 == 0


def test_sample_counts_deterministic():
    a = sample_counts([0.3, 0.3, 0.2, 0.2], 4_000, seed=123)
    b = sample_counts([0.3, 0.3, 0.2, 0.2], 4_000, seed=123)
    assert a.tolist() == b.tolist()
    c = sample_counts([0.3, 0.3, 0.2, 0.2], 4_000, seed=124)
    assert c.tolist() != a.tolist()


def test_sample_counts_convergence():
    dist = np.array([0.4, 0.3, 0.2, 0.1])
    counts = sample_counts(dist, 1_000_000, seed=5)
    assert np.abs(counts / 1_000_000 - dist).max() <= 5e-3


def test_sample_counts_clips_tiny_negatives():
    counts = sample_counts([1.0 + 5e-10, -5e-10, 0, 0], 100, seed=0)
    assert counts[0] == 100


def test_sample_counts_rejects_bad_distributions():
    with pytest.raises(ValueError):
        sample_counts([0.5, 0.5, 0.1, -0.1], 100, seed=0)
    with pytest.raises(ValueError):
        sample_counts([0.5, 0.2, 0.1, 0.1], 100, seed=0)  # sums to 0.9
    with pytest.raises(ValueError):
        sample_counts([1, 0, 0, 0], 0, seed=0)


@pytest.mark.parametrize("shots", [2.5, 10.0, True, 0, None, "10"],
                         ids=["fraction", "float", "bool", "zero", "none", "str"])
def test_sample_counts_rejects_shots_that_are_not_positive_integers(shots):
    with pytest.raises(ValueError, match="^shots must be a positive integer"):
        sample_counts([0.5, 0, 0, 0.5], shots, 1)


_MAX_SHOTS = 2**63 - 1  # the most Generator.multinomial draws


def test_sample_counts_takes_the_most_shots_numpy_draws_and_refuses_more():
    assert sample_counts([1, 0, 0, 0], _MAX_SHOTS, 0).tolist() == [_MAX_SHOTS, 0, 0, 0]
    for shots in (_MAX_SHOTS + 1, 2**70):
        with pytest.raises(ValueError, match=r"^shots must be a positive integer below 2\*\*63, "):
            sample_counts([1, 0, 0, 0], shots, 0)


_INTEGER_LIKE = st.one_of(
    st.integers(), st.integers(-2**200, 2**200),
    st.sampled_from([0, 1, _MAX_SHOTS, _MAX_SHOTS + 1, 2**70, 10**400]),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(-128, 127).map(np.int8),
    st.booleans(), st.booleans().map(np.bool_),
    st.floats(), st.floats().map(np.float64), st.none(), st.text(max_size=4),
)


@settings(max_examples=examples(300), deadline=None)
@given(value=_INTEGER_LIKE)
def test_seed_and_shots_accept_exactly_the_integers_in_their_range(value):
    """Python and numpy integers in range are taken, as a plain int; bools,
    floats, None and strings never are, whatever their value."""
    integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    for validate, low, high, rule in (
            (validate_seed, 0, float("inf"), "seed must be a non-negative integer"),
            (validate_shots, 1, _MAX_SHOTS, "shots must be a positive integer below 2**63")):
        if integral and low <= int(value) <= high:
            result = validate(value)
            assert type(result) is int and result == int(value)
        else:
            with pytest.raises(ValueError) as err:
                validate(value)
            assert str(err.value) == f"{rule}, got {value!r}"


def test_sample_counts_takes_numpy_integer_shots():
    dist = [0.3, 0.3, 0.2, 0.2]
    assert (sample_counts(dist, np.int64(1000), 4).tolist()
            == sample_counts(dist, 1000, 4).tolist())


@pytest.mark.parametrize("observable", ["XQ", "X", "XYZ", "", ["X", "Y"], None],
                         ids=["letter", "one", "three", "empty", "list", "none"])
def test_expectation_rejects_observables_that_are_not_two_pauli_letters(observable):
    with pytest.raises(ValueError, match="^observable must be two of I/X/Y/Z, got "):
        expectation([0.25] * 4, observable)


@settings(max_examples=examples(100), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 16), m=st.integers(1, 9),
       layout=st.sampled_from(["vector", "matrix", "shared", "zipped"]),
       shots=st.sampled_from([None, 7, 4000]))
def test_batched_expectation_is_each_observables_call_bit_for_bit(seed, k, m, layout, shots):
    """A list of observables gives each entry the bits of the one-observable
    call on its block: one 4-vector or (m, 4) block read by every observable,
    or a stack of blocks, shared by all observables or one per observable. The
    dots and GEMVs keep those bits as far as the BLAS build's kernels allow."""
    rng = np.random.default_rng(seed)
    observables = [a + b for a, b in rng.choice(list("IXYZ"), (k, 2))]
    shape = {"vector": (4,), "matrix": (m, 4), "shared": (3, 1, m, 4),
             "zipped": (3, k, m, 4)}[layout]
    rows = int(np.prod(shape[:-1]))
    if shots is None:
        freqs = rng.dirichlet(np.ones(4), rows)
    else:
        freqs = rng.multinomial(shots, rng.dirichlet(np.ones(4)), rows) / shots
    freqs = freqs.reshape(shape)
    out = expectation(freqs, observables)
    assert out.shape == {"vector": (k,), "matrix": (k, m)}.get(layout, (3, k, m))
    for j, obs in enumerate(observables):
        if layout in ("vector", "matrix"):
            block, got = freqs, out[j]
        else:
            block, got = freqs[:, j if layout == "zipped" else 0], out[:, j]
        assert got.tobytes() == expectation(block, obs).tobytes()


def test_expectation_examples():
    all00 = [1.0, 0.0, 0.0, 0.0]
    assert expectation(all00, "ZZ") == 1.0
    all01 = [0.0, 1.0, 0.0, 0.0]
    assert expectation(all01, "ZI") == 1.0
    assert expectation(all01, "IZ") == -1.0
    half = [0.5, 0.0, 0.0, 0.5]
    assert expectation(half, "ZZ") == 1.0
    assert expectation(half, "ZI") == 0.0
    assert expectation(half, "II") == 1.0


def _read_with_cell(shots, /, **fields):
    """Read the dataset file of ``run_qpt(Circuit(), shots=shots)`` with
    ``fields`` set in its cell 0:0|ZZ."""
    d = json.loads(run_qpt(Circuit(), shots=shots, seed=0).to_json())
    d["records"]["0:0|ZZ"].update(fields)
    return TomographyDataset.from_json(json.dumps(d))


_NOT_4_NUMBERS = r"^records\['0:0\|ZZ'\]: probabilities .* are not 4 finite numbers$"


@pytest.mark.parametrize("probs, message", [
    ([float("nan"), 0.5, 0.25, 0.25], _NOT_4_NUMBERS),
    ([0.5, float("nan"), 0.25, 0.25], _NOT_4_NUMBERS),
    ([float("inf"), 0.0, 0.0, 0.0], _NOT_4_NUMBERS),
    ([0.9, 0.9, 0.9, 0.9], r"^cell 0:0\|ZZ: distribution sums to 3.600000000000, not 1$"),
    ([0.5, 0.5], _NOT_4_NUMBERS),
    ([1.0 + 1e-6, -1e-6, 0.0, 0.0], r"^cell 0:0\|ZZ: negative probability -1.000e-06$"),
    (None, _NOT_4_NUMBERS),
    (5, _NOT_4_NUMBERS),
    ([True, False, False, False], _NOT_4_NUMBERS),
    ([0.25, 0.25, 0.25, "0.25"], _NOT_4_NUMBERS),
], ids=["nan", "nan-not-first", "inf", "sum", "length", "negative", "null", "number", "bools",
        "string"])
def test_exact_counts_record_needs_a_probability_4_vector(probs, message):
    with pytest.raises(ValueError, match=message):
        _read_with_cell(None, probabilities=probs)


@pytest.mark.parametrize("shots, fields, message", [
    (10, {"counts": {"00": 2**70}}, r"^records\['0:0\|ZZ'\]: counts\['00'\] = "
                                    r"1180591620717411303424 is not a non-negative integer below "
                                    r"2\*\*63$"),
    (None, {"probabilities": [10**400, 0, 0, 0]}, _NOT_4_NUMBERS),
    (None, {"probabilities": [1.0, 0, 0, -10**400]}, _NOT_4_NUMBERS),
], ids=["count", "probability", "negative-probability"])
def test_dataset_reader_refuses_json_integers_numpy_cannot_hold(shots, fields, message):
    with pytest.raises(ValueError, match=message):
        _read_with_cell(shots, **fields)


@pytest.mark.parametrize("shots, fields, message", [
    (10, {"counts": {"00": 5, "ab": 5}},
     r"^records\['0:0\|ZZ'\]: counts: unknown key 'ab'; expected one of 00, 01, 10, 11"),
    (10, {"counts": {"00": 5.5, "11": 4.5}},
     r"^records\['0:0\|ZZ'\]: counts\['00'\] = 5.5 is not a non-negative integer"),
    (10, {"counts": {"00": 11, "11": -1}},
     r"^records\['0:0\|ZZ'\]: counts\['11'\] = -1 is not a non-negative integer"),
    (10, {"counts": {"00": True, "11": 9}},
     r"^records\['0:0\|ZZ'\]: counts\['00'\] = True is not a non-negative integer"),
    (10, {"counts": [10, 0, 0, 0]},
     r"^records\['0:0\|ZZ'\]: counts: expected a JSON object, got list"),
    (10, {"counts": {"00": 5}},
     r"^cell 0:0\|ZZ: counts \[5, 0, 0, 0\] are not non-negative integers summing to 10"),
    (1, {"shots": True}, r"^cell 0:0\|ZZ has shots True, the dataset 1$"),
    (10, {"shots": 10.0}, r"^cell 0:0\|ZZ has shots 10.0, the dataset 10$"),
], ids=["unknown-key", "fraction", "negative", "bool", "not-a-mapping", "sum", "bool-shots",
        "float-shots"])
def test_counted_record_rejects_foreign_keys_and_non_integer_counts(shots, fields, message):
    with pytest.raises(ValueError, match=message):
        _read_with_cell(shots, **fields)


def test_counted_record_needs_a_counted_dataset():
    d = json.loads(run_qpt(Circuit(), shots=None).to_json())
    d["records"]["0:0|ZZ"] = {"setting": "ZZ", "shots": None, "counts": {"00": 1}}
    with pytest.raises(ValueError, match=r"^records\['0:0\|ZZ'\]: counted records need a "
                                         r"positive shot number$"):
        TomographyDataset.from_json(json.dumps(d))


def test_counted_record_fills_missing_outcomes():
    ds = _read_with_cell(10, counts={"00": 10})
    assert ds.outcomes[_CELLS.index(("0:0", "ZZ"))].tolist() == [10, 0, 0, 0]


def test_exact_counts_record_allows_sample_counts_rounding():
    ds = _read_with_cell(None, probabilities=[1.0 + 5e-10, -5e-10, 0.0, 0.0])
    assert ds.outcomes[_CELLS.index(("0:0", "ZZ"))].tolist() == [1.0 + 5e-10, -5e-10, 0.0, 0.0]


def test_basis_state_rejects_garbage():
    with pytest.raises(ValueError):
        basis_state("02")


@settings(max_examples=examples(50), deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 0),
            st.integers(0, 2**64 - 1),
        ),
        min_size=1, max_size=8,
    ),
    shots=st.integers(1, 5000),
)
def test_stacked_sample_counts_equal_single_calls(rows, shots):
    dists = np.array([np.array(w) / sum(w) for w, _ in rows])
    seeds = [seed for _, seed in rows]
    stacked = sample_counts(dists, shots, seeds)
    assert stacked.dtype == np.int64 and stacked.shape == (len(rows), 4)
    for counts, dist, seed in zip(stacked, dists, seeds):
        single = sample_counts(dist, shots, seed)
        assert single.dtype == np.int64 and single.shape == (4,)
        assert counts.tolist() == single.tolist()


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


@pytest.mark.parametrize("seed", [5, np.uint64(5), np.array(5, dtype=np.uint64)],
                         ids=["int", "numpy-uint64", "0-d-array"])
def test_a_stack_given_one_scalar_seed_is_refused(seed):
    with pytest.raises(ValueError, match="^a stack of distributions needs one seed per row$"):
        sample_counts([[0.5, 0.5, 0, 0]], 10, seed)


def test_sample_counts_rejects_an_empty_stack():
    with pytest.raises(ValueError, match="empty stack of distributions"):
        sample_counts(np.zeros((0, 4)), 10, [])


@pytest.mark.parametrize("call, message", [
    (lambda: evolve(Circuit(), np.zeros((0, 4, 4))), "empty stack of density matrices"),
    (lambda: identity_channel().apply(np.zeros((0, 4, 4))), "empty stack of density matrices"),
    (lambda: outcome_distribution(basis_state("00"), []), "empty sequence of settings"),
    (lambda: expectation([0.25] * 4, []), "empty sequence of observables"),
], ids=["evolve", "channel-apply", "no-settings", "no-observables"])
def test_an_empty_stack_or_settings_list_fails_naming_it(call, message):
    with pytest.raises(ValueError, match=f"^{message}: need at least one"):
        call()


@pytest.mark.parametrize("dist, seed, row", [
    ([np.nan, 0.5, 0.25, 0.25], 0, 0),
    ([[0.25] * 4, [0.5, np.inf, 0.0, 0.0], [np.nan] * 4], [1, 2, 3], 1),
], ids=["vector", "stack"])
def test_sample_counts_rejects_non_finite_rows_naming_the_first(dist, seed, row):
    with pytest.raises(ValueError, match=f"^distribution row {row} has non-finite entries"):
        sample_counts(dist, 10, seed)


@settings(max_examples=examples(50), deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1) | st.integers(0, 2**320), min_size=1,
                      max_size=8))
# One stack of 1- and 2-word seeds, one of exactly 4 words, and 5-, 7- and 10-word ones.
@example(seeds=[0, 1, 2**32 - 1, 2**32, 2**63 + 17, 2**64 - 1, 2**128 - 1, 2**128 + 1,
                2**200 + 3, 3**200])
def test_seed_sequences_start_pcg64_where_numpy_does(seeds):
    """PCG64 takes each stacked sequence as an ISeedSequence, as numpy's own."""
    numpys = [np.random.PCG64(seed).state for seed in seeds]
    assert [np.random.PCG64(seq).state for seq in seed_sequences(seeds)] == numpys
    # The seeds below 2**64 once more, as the uint64 array that takes no per-seed checks.
    small = np.array([seed for seed in seeds if seed < 2**64], dtype=np.uint64)
    assert [np.random.PCG64(seq).state for seq in seed_sequences(small)] == [
        state for seed, state in zip(seeds, numpys) if seed < 2**64]


@settings(max_examples=examples(50), deadline=None)
@given(value=st.integers(0, 2**64 - 1))
@example(value=0)
@example(value=2**32 - 1)
@example(value=2**32)
@example(value=2**64 - 1)
def test_seed_sequence_equals_numpys(value):
    """The stacked hash mixes uint32 and uint64 arrays, whose casting differs
    between numpy 1.24 (value-based) and numpy 2 (NEP 50)."""
    # Two seeds, so that a row of the stacked words can be a strided view.
    values = [value, 2**64 - 1 - value]
    for v, sequence in zip(values, seed_sequences(np.array(values, dtype=np.uint64))):
        words = sequence.generate_state(4, np.uint64)
        assert words.dtype == np.uint64  # a legacy-casting promotion would fail here
        assert words.flags.c_contiguous and words.shape == (4,)
        assert words.tolist() == np.random.SeedSequence(v).generate_state(4, np.uint64).tolist()


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64),
                                            (5, np.uint64), (4, np.int64)])
def test_a_hashed_seed_refuses_requests_other_than_four_uint64_words(n_words, dtype):
    (sequence,) = seed_sequences(np.array([7], dtype=np.uint64))
    with pytest.raises(ValueError, match=r"generate_state\(4, np.uint64\) only"):
        sequence.generate_state(n_words, dtype)
    assert sequence.generate_state(4, "uint64").tolist() == [
        int(w) for w in np.random.SeedSequence(7).generate_state(4, np.uint64)]


@st.composite
def dyadic_distributions(draw):
    """Outcome 4-vectors in 64ths: they sum to exactly 1, with zeros and
    p = 0.5 ties among them."""
    cuts = sorted(draw(st.lists(st.sampled_from([0, 16, 32, 48, 64]) | st.integers(0, 64),
                                min_size=3, max_size=3)))
    return np.diff([0, *cuts, 64]) / 64.0


@settings(max_examples=examples(50), deadline=None)
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


@settings(max_examples=examples(50), deadline=None)
@given(rows=st.lists(st.tuples(dyadic_distributions(), st.integers(0, 2**64 - 1)),
                     min_size=1, max_size=8),
       shots=st.integers(1, 5000))
def test_sample_counts_from_a_uint64_seed_array_equal_numpys_generator(rows, shots):
    dists = np.array([dist for dist, _ in rows])
    seeds = np.array([seed for _, seed in rows], dtype=np.uint64)
    counts = sample_counts(dists, shots, seeds)
    for row, dist, seed in zip(counts, dists, seeds.tolist()):
        draw = np.random.Generator(np.random.PCG64(seed)).multinomial(shots, dist)
        assert row.tolist() == draw.tolist()


def test_sample_counts_builds_one_pcg64_per_row_and_a_seed_sequence_per_int_seed(monkeypatch):
    sequences = count_numpy_random(monkeypatch, "SeedSequence")
    generators = count_numpy_random(monkeypatch, "PCG64")
    sample_counts(np.full((144, 4), 0.25), 100, np.arange(144, dtype=np.uint64))
    assert (len(sequences), len(generators)) == (0, 144)
    sample_counts([0.25] * 4, 100, 7)
    assert sequences == [(7,)]
    assert len(generators) == 145


@pytest.mark.parametrize("seed", [-1, 1.0, 2.5, np.float64(3.0), None, "3", True, np.True_],
                         ids=["negative", "float", "fraction", "numpy-float", "none", "str", "bool",
                              "numpy-bool"])
def test_sample_counts_rejects_seeds_that_are_not_non_negative_integers(seed):
    with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
        sample_counts([1, 0, 0, 0], 10, seed)
    with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
        sample_counts([[1, 0, 0, 0]] * 2, 10, [0, seed])


@pytest.mark.parametrize("seeds", [np.array([0, -1]), np.array([False, True])],
                         ids=["int64-negative", "bool"])
def test_seed_arrays_other_than_uint64_are_checked_seed_by_seed(seeds):
    with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
        seed_sequences(seeds)
    with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
        sample_counts([[1, 0, 0, 0]] * 2, 10, seeds)


def test_sample_counts_takes_numpy_integer_seeds():
    dist = [0.3, 0.3, 0.2, 0.2]
    expected = sample_counts(dist, 1000, 2**63 + 5)
    assert sample_counts(dist, 1000, np.uint64(2**63 + 5)).tolist() == expected.tolist()
    stacked = sample_counts([dist], 1000, np.array([2**63 + 5], dtype=np.uint64))
    assert stacked.tolist() == [expected.tolist()]
