"""Benchmark-facing metrics: subspace success probability, infidelity
scaling, and calibration stability analytics."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .circuits import _is_number, _show
from .noise import DeviceCalibration
from .simulator import _integer

STABILITY_METRICS = ("t1_us", "t2_us", "readout_error")
SCALING_DEPTH = 12  # circuit depths the cumulative-success table covers


def success_probability(counts) -> float:
    """Share of the ZZ counts, a 4-vector in ``BITSTRINGS`` order, on {00, 11}."""
    counts = np.asarray(counts)
    if not (counts.shape == (4,) and counts.dtype.kind in "iuf" and (counts >= 0).all()
            and 0 < counts.sum() < np.inf):  # a NaN fails the first test, an inf the second
        raise ValueError(f"success probability needs 4 non-negative counts with a positive "
                         f"sum, got {counts.tolist()}")
    f = counts / counts.sum()
    return float(f[0] + f[3])


def scaling_table(epsilon: float, n_max: int) -> list[tuple[int, float]]:
    """Cumulative success (1 - epsilon)^n, as Python floats, for circuit
    depths 1..n_max; ``n_max`` is an integer of at least 1."""
    if not _is_number(epsilon):
        raise ValueError(f"epsilon = {_show(epsilon)} is not a number")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon = {epsilon} outside [0, 1]")
    n_max = _integer(n_max, 1, np.inf, "n_max must be an integer of at least 1")
    keep = 1.0 - float(epsilon)
    return [(n, keep ** n) for n in range(1, n_max + 1)]


@dataclass
class StabilityReport:
    """Calibration drift between two snapshots.

    The per-qubit quality score (mean of z-scored T1, T2 and negated readout
    error within a snapshot) is a toolkit-defined composite, not a published
    metric; it is flagged as such in the serialized output.
    """

    variation_percent: dict  # metric -> {qubit id -> percent}
    average_variation_percent: dict  # metric -> percent
    quality_scores_a: dict  # qubit id -> score
    quality_scores_b: dict
    quality_correlation: float

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "quality_score_definition": (
                "toolkit-defined: mean of z-scored T1, T2 and negated readout "
                "error within each snapshot"
            ),
        }

    def to_csv_rows(self) -> list[list]:
        rows = [["metric", "qubit", "variation_percent"]]
        for metric, per_qubit in self.variation_percent.items():
            for qubit, value in per_qubit.items():
                rows.append([metric, qubit, value])
        rows.append(["quality_correlation", "", self.quality_correlation])
        return rows


def _percent_variation(a: float, b: float) -> float:
    # A common power of two keeps every ratio's bits and keeps a + b finite.
    e = math.frexp(max(abs(a), abs(b)))[1]
    a, b = math.ldexp(a, -e), math.ldexp(b, -e)
    mean = 0.5 * (a + b)
    if mean == 0.0:
        return 0.0
    return abs(a - b) / mean * 100.0


def _quality_scores(cal: DeviceCalibration) -> dict:
    cols = {}
    for metric in STABILITY_METRICS:
        vals = np.array([getattr(q, metric) for q in cal.qubits], dtype=float)
        if metric == "readout_error":
            vals = -vals
        # Largest magnitude in [0.5, 1), exactly: no square in the std overflows.
        vals = np.ldexp(vals, -math.frexp(np.abs(vals).max())[1])
        std = vals.std()
        cols[metric] = (vals - vals.mean()) / std if std > 0 else np.zeros_like(vals)
    scores = np.mean([cols[m] for m in STABILITY_METRICS], axis=0)
    return {q.qubit: float(s) for q, s in zip(cal.qubits, scores)}


def stability_analysis(a: DeviceCalibration, b: DeviceCalibration) -> StabilityReport:
    ids_a = [q.qubit for q in a.qubits]
    ids_b = [q.qubit for q in b.qubits]
    if sorted(ids_a) != sorted(ids_b):
        raise ValueError(f"calibration qubit sets differ: {ids_a} vs {ids_b}")

    variation: dict = {m: {} for m in STABILITY_METRICS}
    for qa in a.qubits:
        qb = b.qubit(qa.qubit)
        for metric in STABILITY_METRICS:
            variation[metric][qa.qubit] = _percent_variation(
                getattr(qa, metric), getattr(qb, metric)
            )
    averages = {m: float(np.mean(list(v.values()))) for m, v in variation.items()}

    scores_a = _quality_scores(a)
    scores_b = _quality_scores(b)
    va = np.array([scores_a[q] for q in sorted(scores_a)])
    vb = np.array([scores_b[q] for q in sorted(scores_b)])
    if np.allclose(va, vb, atol=1e-15):
        r = 1.0
    elif va.std() == 0 or vb.std() == 0:
        r = 0.0
    else:
        r = float(np.corrcoef(va, vb)[0, 1])
    return StabilityReport(variation, averages, scores_a, scores_b, r)
