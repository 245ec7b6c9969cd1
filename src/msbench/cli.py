"""Command-line front end.

Commands map onto the two benchmark experiments plus utilities:

* ``decompose``  -- emit the native-basis circuit for a target and verify it
* ``state``      -- direct state measurement with success-probability report
* ``qpt``        -- full process tomography with fidelity against a target
* ``fit-noise``  -- calibrate the depolarizing knob to a target fidelity
* ``stability``  -- drift analytics between two calibration snapshots

Every command runs through ``main``: a handler computes its results, prints
the human summary to stdout and returns its exit code, its calibration
fingerprint and the files it produced; ``main`` then writes those files and
a run manifest, ``<out>.manifest.json``, that lists exactly them. The
wall-clock timestamp lives only in the manifest, so result files are
byte-identical across reruns with the same inputs. Seeds default to a fixed
constant (42) so runs are reproducible by default. If MSBENCH_OUTPUT_DIR is
set, relative output paths are resolved under it.

Errors: a usage error (unknown flag or choice, bad ``--input``, ``--shots``
or ``--seed``) exits 2 with argparse's message. A bad input file, a missing
path or an unreachable target prints ``error: <message>`` to stderr and
exits 1, writing no output and no manifest.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import os
import sys
from pathlib import Path

from . import __version__
from .channels import channel_from_unitary
from .circuits import (
    BUILTIN_CIRCUITS,
    BUILTIN_TARGETS,
    Circuit,
    circuit_unitary,
    phase_aligned_distance,
)
from .metrics import SCALING_DEPTH, scaling_table, stability_analysis, success_probability
from .noise import DeviceCalibration, build_noise_model, fit_depolarizing
from .simulator import (BITSTRINGS, RNG_ALGORITHM, basis_state, evolve, outcome_distribution,
                        sample_counts, validate_seed, validate_shots)
from .tomography import DEFAULT_SEED, process_fidelity, reconstruct_channel, run_qpt

DECOMPOSITION_TOLERANCE = 1e-9

# What a command handler returns: its exit code, the calibration fingerprint
# for the manifest, and the files it produced as {path: text}, for ``main``
# to write.
_Handled = tuple[int, str, dict[Path, str]]


def _resolve_out(path: str) -> Path:
    p = Path(path)
    base = os.environ.get("MSBENCH_OUTPUT_DIR")
    if base and not p.is_absolute():
        p = Path(base) / p
    return p


def _sibling(out: Path, suffix: str) -> Path:
    stem = out.name[: -len(".json")] if out.name.endswith(".json") else out.name
    return out.with_name(stem + suffix)


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _write_manifest(out: Path, args: argparse.Namespace, cal_fingerprint: str,
                    outputs: list[Path]) -> None:
    manifest = {
        "command": args.command,
        "flags": vars(args),
        "seed": getattr(args, "seed", None),
        "rng": RNG_ALGORITHM,
        "calibration_fingerprint": cal_fingerprint,
        "version": __version__,
        "outputs": [str(p) for p in outputs],
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    out.with_name(out.name + ".manifest.json").write_text(_json(manifest))


def _load_circuit(name_or_path: str) -> tuple[Circuit, str]:
    if name_or_path in BUILTIN_CIRCUITS:
        return BUILTIN_CIRCUITS[name_or_path](), name_or_path
    return Circuit.load(name_or_path), "custom"


def _load_noise(path: str | None):
    if path is None:
        return None, None
    cal = DeviceCalibration.load(path)
    return build_noise_model(cal), cal


def cmd_decompose(args, out: Path) -> _Handled:
    circuit = BUILTIN_CIRCUITS[args.target]()
    target = BUILTIN_TARGETS[args.target]()
    distance = phase_aligned_distance(circuit_unitary(circuit), target.matrix)
    payload = {
        "target": args.target,
        "circuit": json.loads(circuit.to_json()),
        "gate_count": len(circuit),
        "cnot_count": circuit.cnot_count(),
        "phase_aligned_distance": distance,
    }
    ok = distance <= DECOMPOSITION_TOLERANCE
    print(f"target {args.target}: {len(circuit)} gates, {circuit.cnot_count()} CNOT, "
          f"phase-aligned distance {distance:.3e} "
          f"({'OK' if ok else 'FAIL'} at {DECOMPOSITION_TOLERANCE:.0e})")
    return 0 if ok else 1, "none", {out: _json(payload)}


def cmd_state(args, out: Path) -> _Handled:
    circuit, label = _load_circuit(args.circuit)
    noise, cal = _load_noise(args.noise)
    rho = evolve(circuit, basis_state(args.input), noise)
    dist = outcome_distribution(rho, "ZZ", noise.confusion if noise else None)
    counts = sample_counts(dist, args.shots, args.seed)
    p_succ = success_probability(counts)
    counts = dict(zip(BITSTRINGS, counts.tolist()))
    epsilon = 1.0 - p_succ
    scaling = scaling_table(epsilon, SCALING_DEPTH)
    payload = {
        "setting": "ZZ",
        "input": args.input,
        "shots": args.shots,
        "seed": args.seed,
        "rng": RNG_ALGORITHM,
        "counts": counts,
        "success_probability": p_succ,
        "epsilon": epsilon,
        "scaling": scaling,
    }
    csv = "n,success\n" + "\n".join(f"{n},{v:.12f}" for n, v in scaling) + "\n"
    print(f"{label} on |{args.input}>: counts {counts}")
    print(f"P_succ = {p_succ:.4f}, epsilon = {epsilon:.4f}")
    return 0, cal.fingerprint() if cal else "none", {out: _json(payload),
                                                     _sibling(out, ".csv"): csv}


@functools.cache
def _target_channel(label: str):
    """A builtin target's read-only channel, built and ``eigh``-ed once per process."""
    channel = channel_from_unitary(BUILTIN_TARGETS[label]().matrix)
    channel.data.flags.writeable = False
    return channel


def cmd_qpt(args, out: Path) -> _Handled:
    circuit, label = _load_circuit(args.circuit)
    noise, cal = _load_noise(args.noise)
    shots = None if args.exact else args.shots
    ds = run_qpt(circuit, noise=noise, shots=shots, seed=args.seed)
    channel = reconstruct_channel(ds)

    target_label = args.target or (label if label in BUILTIN_TARGETS else "self")
    target = circuit._channel if target_label == "self" else _target_channel(target_label)
    fidelity = process_fidelity(channel, target)

    report = {
        "gate": label,
        "backend": "exact" if shots is None else f"shots={shots},seed={args.seed}",
        "noise_fingerprint": ds.noise_fingerprint,
        "process_fidelity": fidelity,
    }
    backend = "exact probabilities" if shots is None else f"{shots} shots/setting"
    print(f"{label} QPT ({backend}): process fidelity {fidelity:.6f} vs {target_label}")
    return 0, cal.fingerprint() if cal else "none", {
        out: ds.to_json() + "\n",
        _sibling(out, ".channel.json"): channel.convert("choi").to_json() + "\n",
        _sibling(out, ".report.json"): _json(report),
    }


def cmd_fit_noise(args, out: Path) -> _Handled:
    circuit, label = _load_circuit(args.circuit)
    cal = DeviceCalibration.load(args.calib)
    p_dep, achieved = fit_depolarizing(args.target_fidelity, circuit, cal)
    fitted = cal.with_p_dep(p_dep)
    print(f"fitted p_dep = {p_dep:.6f} for {label} "
          f"(target F = {args.target_fidelity}, achieved F = {achieved:.6f})")
    return 0, fitted.fingerprint(), {out: fitted.to_json() + "\n"}


def cmd_stability(args, out: Path) -> _Handled:
    cal_a = DeviceCalibration.load(args.calib_a)
    cal_b = DeviceCalibration.load(args.calib_b)
    report = stability_analysis(cal_a, cal_b)
    csv = "\n".join(",".join(str(c) for c in row) for row in report.to_csv_rows()) + "\n"
    print(f"quality correlation r = {report.quality_correlation:.4f}")
    for metric, avg in report.average_variation_percent.items():
        print(f"average {metric} variation: {avg:.2f}%")
    return 0, f"{cal_a.fingerprint()},{cal_b.fingerprint()}", {
        out: _json(report.to_dict()), _sibling(out, ".csv"): csv}


def _int_flag(validate):
    """An argparse type: ``int`` of the text, then ``validate``, whose refusal
    argparse reports as a usage error naming the flag."""
    def parse(text: str) -> int:
        value = int(text)  # a ValueError here reads "invalid int value"
        try:
            return validate(value)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    parse.__name__ = "int"
    return parse


_SHOTS, _SEED = _int_flag(validate_shots), _int_flag(validate_seed)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msbench",
        description="Two-qubit gate benchmarking: compilation, noisy simulation, tomography.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="emit and verify a native-basis circuit")
    p.add_argument("--target", choices=("ms", "cx"), required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("state", help="direct state measurement in the ZZ basis")
    p.add_argument("--circuit", default="ms", help="builtin name (ms, cx) or circuit JSON path")
    p.add_argument("--input", choices=BITSTRINGS, default="00", help="initial basis state")
    p.add_argument("--shots", type=_SHOTS, default=13_000)
    p.add_argument("--seed", type=_SEED, default=DEFAULT_SEED)
    p.add_argument("--noise", help="calibration JSON path")
    p.add_argument("--out", required=True)

    p = sub.add_parser("qpt", help="full process tomography")
    p.add_argument("--circuit", default="ms")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--shots", type=_SHOTS, default=4_000)
    group.add_argument("--exact", action="store_true", help="exact probabilities, no sampling")
    p.add_argument("--seed", type=_SEED, default=DEFAULT_SEED)
    p.add_argument("--noise", help="calibration JSON path")
    p.add_argument("--target", choices=("ms", "cx"), help="fidelity target (default: the circuit)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit-noise", help="fit p_dep so the circuit hits a target fidelity")
    p.add_argument("--target-fidelity", type=float, required=True)
    p.add_argument("--circuit", default="ms")
    p.add_argument("--calib", required=True, help="baseline calibration JSON path")
    p.add_argument("--out", required=True)

    p = sub.add_parser("stability", help="compare two calibration snapshots")
    p.add_argument("--calib-a", required=True)
    p.add_argument("--calib-b", required=True)
    p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up per call, so that a handler replaced on the module (by a tracer
    # or a test) is the one that runs.
    handlers = {"decompose": cmd_decompose, "state": cmd_state, "qpt": cmd_qpt,
                "fit-noise": cmd_fit_noise, "stability": cmd_stability}
    out = _resolve_out(args.out)
    try:
        code, cal_fingerprint, outputs = handlers[args.command](args, out)
        out.parent.mkdir(parents=True, exist_ok=True)
        for path, text in outputs.items():
            path.write_text(text)
        _write_manifest(out, args, cal_fingerprint, list(outputs))
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
