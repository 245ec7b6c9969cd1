"""msbench: desk-scale two-qubit gate benchmarking.

Compiles a maximally entangling target into the native set {RZ, SX, CNOT},
simulates it under calibrated device noise, characterizes it with full
process tomography, and reports fidelity and success-probability benchmarks.
"""

__version__ = "0.1.0"

from .channels import QuantumChannel, channel_from_unitary, project_cptp
from .circuits import (
    Circuit,
    Gate,
    circuit_unitary,
    cx_circuit,
    cx_unitary,
    makhlin_invariants,
    ms_unitary,
    phase_aligned_distance,
    synthesize_ms_circuit,
)
from .metrics import (
    BenchmarkReport,
    StabilityReport,
    compare_gates,
    scaling_table,
    stability_analysis,
    success_probability,
)
from .noise import (
    DeviceCalibration,
    NoiseModel,
    QubitCalibration,
    build_noise_model,
    confusion_matrix,
    damping_channel,
    depolarizing_channel,
    fit_depolarizing,
)
from .simulator import CountsRecord, basis_state, evolve, expectation, outcome_distribution, sample_counts
from .tomography import (
    TomographyDataset,
    average_gate_fidelity,
    process_fidelity,
    reconstruct_channel,
    run_qpt,
)
