import numpy as np
import pytest

from msbench.metrics import (
    scaling_table,
    stability_analysis,
    success_probability,
)
from msbench.noise import DeviceCalibration, QubitCalibration
from msbench.simulator import CountsRecord


def make_cal(values):
    """values: list of (qubit, t1, t2, readout)."""
    return DeviceCalibration(tuple(QubitCalibration(q, a, b, c) for q, a, b, c in values))


def test_success_probability_representative_populations():
    # populations 0.494 / 0.448 with the leakage split over 01/10
    rec = CountsRecord("ZZ", 13_000, {"00": 6422, "01": 377, "10": 377, "11": 5824})
    assert success_probability(rec) == pytest.approx(0.942, abs=1e-12)


def test_success_probability_limits():
    ideal = CountsRecord("ZZ", 1000, {"00": 480, "01": 0, "10": 0, "11": 520})
    assert success_probability(ideal) == 1.0
    uniform = CountsRecord("ZZ", 400, {"00": 100, "01": 100, "10": 100, "11": 100})
    assert success_probability(uniform) == 0.5


def test_success_probability_plus_leakage_is_one():
    rec = CountsRecord("ZZ", 1000, {"00": 400, "01": 60, "10": 90, "11": 450})
    leakage = (rec.counts["01"] + rec.counts["10"]) / rec.shots
    assert success_probability(rec) + leakage == 1.0


def test_success_probability_rejects_wrong_setting():
    rec = CountsRecord("XZ", 10, {"00": 10, "01": 0, "10": 0, "11": 0})
    with pytest.raises(ValueError):
        success_probability(rec)


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
