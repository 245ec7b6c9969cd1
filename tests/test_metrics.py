import pytest

from msbench.metrics import (
    scaling_table,
    stability_analysis,
    success_probability,
)
from msbench.noise import DeviceCalibration, QubitCalibration


def make_cal(values):
    """values: list of (qubit, t1, t2, readout)."""
    return DeviceCalibration(tuple(QubitCalibration(q, a, b, c) for q, a, b, c in values))


def test_success_probability_representative_populations():
    # populations 0.494 / 0.448 with the leakage split over 01/10
    assert success_probability([6422, 377, 377, 5824]) == pytest.approx(0.942, abs=1e-12)


def test_success_probability_limits():
    assert success_probability([480, 0, 0, 520]) == 1.0
    assert success_probability([100, 100, 100, 100]) == 0.5


def test_success_probability_plus_leakage_is_one():
    counts = [400, 60, 90, 450]  # 00, 01, 10, 11
    leakage = (counts[1] + counts[2]) / sum(counts)
    assert success_probability(counts) + leakage == 1.0


@pytest.mark.parametrize("counts", [
    [10, 0, 0], [[5, 0, 0, 5]], [-1, 5, 3, 3], [0, 0, 0, 0], [float("nan"), 1, 1, 1],
    [float("inf"), 1, 1, 1], ["5", "0", "0", "5"], [True, False, False, True],
], ids=["length", "stacked", "negative", "zero-sum", "nan", "inf", "str", "bool"])
def test_success_probability_refuses_anything_but_a_count_4_vector(counts):
    with pytest.raises(ValueError, match="^success probability needs 4 non-negative counts"):
        success_probability(counts)


def test_scaling_table_zero_epsilon():
    assert all(v == 1.0 for _, v in scaling_table(0.0, 10))


def test_scaling_table_benchmark_epsilon():
    table = dict(scaling_table(0.058, 12))
    assert table[1] == pytest.approx(0.942, abs=1e-15)
    assert table[12] == pytest.approx(0.942**12, abs=1e-15)
    assert table[12] == pytest.approx(0.4881, abs=5e-4)


def test_scaling_table_monotone():
    values = [v for _, v in scaling_table(0.058, 20)]
    assert all(a > b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        scaling_table(1.3, 5)


def test_stability_identical_snapshots():
    cal = make_cal([(0, 100, 80, 0.02), (1, 120, 90, 0.03), (2, 90, 60, 0.01)])
    rep = stability_analysis(cal, cal)
    assert rep.quality_correlation == 1.0
    for per_qubit in rep.variation_percent.values():
        assert all(v == 0.0 for v in per_qubit.values())


def test_stability_single_metric_variation():
    a = make_cal([(0, 100, 80, 0.02), (1, 100, 80, 0.02)])
    b = make_cal([(0, 150, 80, 0.02), (1, 100, 80, 0.02)])
    rep = stability_analysis(a, b)
    # symmetric-mean denominator: |100-150| / 125 = 40%
    assert rep.variation_percent["t1_us"][0] == pytest.approx(40.0, abs=1e-9)
    assert rep.variation_percent["t1_us"][1] == 0.0


def test_stability_doubled_metric():
    a = make_cal([(0, 100, 80, 0.02), (1, 100, 80, 0.02)])
    b = make_cal([(0, 200, 80, 0.02), (1, 100, 80, 0.02)])
    rep = stability_analysis(a, b)
    assert rep.variation_percent["t1_us"][0] == pytest.approx(200 / 3, abs=1e-9)


def test_stability_anticorrelated_quality():
    a = make_cal([(0, 150, 100, 0.01), (1, 100, 70, 0.03), (2, 50, 40, 0.05)])
    b = make_cal([(0, 50, 40, 0.05), (1, 100, 70, 0.03), (2, 150, 100, 0.01)])
    rep = stability_analysis(a, b)
    assert rep.quality_correlation == pytest.approx(-1.0, abs=1e-9)


def test_stability_symmetric_in_arguments():
    a = make_cal([(0, 100, 80, 0.02), (1, 130, 60, 0.04)])
    b = make_cal([(0, 90, 85, 0.01), (1, 140, 75, 0.05)])
    rab = stability_analysis(a, b)
    rba = stability_analysis(b, a)
    assert rab.variation_percent == rba.variation_percent
    assert rab.quality_correlation == pytest.approx(rba.quality_correlation, abs=1e-12)


def test_stability_rejects_mismatched_qubits():
    a = make_cal([(0, 100, 80, 0.02)])
    b = make_cal([(1, 100, 80, 0.02)])
    with pytest.raises(ValueError):
        stability_analysis(a, b)


def test_stability_csv_rows():
    cal = make_cal([(0, 100, 80, 0.02), (1, 120, 90, 0.03)])
    rows = stability_analysis(cal, cal).to_csv_rows()
    assert rows[0] == ["metric", "qubit", "variation_percent"]
    assert len(rows) == 1 + 6 + 1  # header, 3 metrics x 2 qubits, correlation
