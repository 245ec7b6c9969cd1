import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from msbench import cli
from msbench.channels import QuantumChannel, channel_from_unitary
from msbench.circuits import BUILTIN_TARGETS, Circuit, circuit_unitary, synthesize_ms_circuit
from msbench.cli import main
from msbench.noise import DeviceCalibration, QubitCalibration, build_noise_model
from msbench.tomography import (TomographyDataset, exact_process_fidelity, process_fidelity,
                                reconstruct_channel)

from conftest import DATA_DIR


def write_cal(path, t1=(120.0, 90.0), t2=(100.0, 70.0), readout=(0.0, 0.0),
              durations=None, p_dep=0.0):
    qubits = tuple(QubitCalibration(i, t1[i], t2[i], readout[i]) for i in range(2))
    cal = DeviceCalibration(qubits, durations or {}, p_dep)
    path.write_text(cal.to_json())
    return cal


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def assert_strict_json(directory):
    """Every .json file in ``directory``, manifests included, parses with no
    NaN, Infinity or -Infinity, which ``json`` writes and strict JSON lacks."""
    paths = sorted(directory.glob("*.json"))
    assert paths
    for path in paths:
        json.loads(path.read_text(), parse_constant=_refuse_constant)


def test_decompose_ms(tmp_path, capsys):
    out = tmp_path / "ms.json"
    assert main(["decompose", "--target", "ms", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["cnot_count"] == 1
    assert payload["phase_aligned_distance"] <= 1e-9
    assert (tmp_path / "ms.json.manifest.json").exists()
    assert "OK" in capsys.readouterr().out


def test_decompose_cx(tmp_path):
    out = tmp_path / "cx.json"
    assert main(["decompose", "--target", "cx", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["gate_count"] == 1 and payload["cnot_count"] == 1


def test_decompose_unknown_target_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["decompose", "--target", "foo", "--out", str(tmp_path / "x.json")])
    assert err.value.code == 2


def test_state_noiseless_bell(tmp_path):
    out = tmp_path / "state.json"
    assert main(["state", "--circuit", "ms", "--input", "00", "--shots", "13000",
                 "--seed", "7", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["success_probability"] == 1.0
    assert payload["counts"]["01"] == 0 and payload["counts"]["10"] == 0
    assert (tmp_path / "state.csv").exists()


def test_state_input_11_stays_in_subspace(tmp_path):
    out = tmp_path / "state11.json"
    assert main(["state", "--circuit", "ms", "--input", "11", "--shots", "10000",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    counts = payload["counts"]
    assert counts["01"] == 0 and counts["10"] == 0
    assert abs(counts["00"] - 5000) <= 4 * np.sqrt(10000 * 0.25)


def test_state_bad_bitstring_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["state", "--input", "02", "--out", str(tmp_path / "x.json")])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["state", "qpt"])
def test_negative_seed_exits_2_naming_the_flag(tmp_path, capsys, command):
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as err:
        main([command, "--seed", "-1", "--out", str(out)])
    assert err.value.code == 2
    assert "argument --seed: seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["state", "qpt"])
def test_shots_beyond_int64_exit_2_naming_the_flag(tmp_path, capsys, command):
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as err:
        main([command, "--shots", "99999999999999999999999", "--out", str(out)])
    assert err.value.code == 2
    assert ("argument --shots: shots must be a positive integer below 2**63, "
            "got 99999999999999999999999") in capsys.readouterr().err
    assert not out.exists()


def test_qpt_exact_noiseless(tmp_path, capsys):
    out = tmp_path / "qpt.json"
    assert main(["qpt", "--circuit", "ms", "--exact", "--out", str(out)]) == 0
    report = json.loads((tmp_path / "qpt.report.json").read_text())
    assert abs(report["process_fidelity"] - 1.0) <= 1e-6
    channel = json.loads((tmp_path / "qpt.channel.json").read_text())
    assert channel["representation"] == "choi"
    dataset = json.loads(out.read_text())
    assert len(dataset["records"]) == 144


def test_qpt_run_is_byte_reproducible(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    args = ["qpt", "--circuit", "ms", "--shots", "300", "--seed", "5"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    fid_a = json.loads((tmp_path / "a.report.json").read_text())["process_fidelity"]
    fid_b = json.loads((tmp_path / "b.report.json").read_text())["process_fidelity"]
    assert fid_a == fid_b


@pytest.mark.parametrize("flags, digests, report", [
    (["--shots", "4000"],
     {".channel.json": "70ba3ca5b2eb529da82d5e2f8084335f752bf7c4dbc26514acdcc81e0e366d1c",
      ".report.json": "1d968286c5e30c893e56a92910c1c0a57328ce067384f42e0311b22d0013373d"},
     {"gate": "ms", "backend": "shots=4000,seed=1", "noise_fingerprint": "4e6a3ff91ddc8940",
      "process_fidelity": 0.9317480627728779}),
    (["--exact"],
     {".channel.json": "36d1e071c7e7e07851fb20346a87dd5f1b4dcb631af864e84e44e838af6cdc79",
      ".report.json": "db0d6e5416ce7462db2c11a638fc98f53243155a5817fcf69d0ac4623f9008a7"},
     {"gate": "ms", "backend": "exact", "noise_fingerprint": "4e6a3ff91ddc8940",
      "process_fidelity": 0.9391649223905055}),
], ids=["sampled", "exact"])
def test_qpt_outputs_are_pinned(tmp_path, flags, digests, report):
    """Channel digests recorded when the channel file was written by
    ``json.dumps(indent=2)``; report digests when the report became these four keys."""
    assert main(["qpt", "--noise", str(DATA_DIR / "example_calibration.json"), "--seed", "1",
                 *flags, "--out", str(tmp_path / "qpt.json")]) == 0
    assert json.loads((tmp_path / "qpt.report.json").read_text()) == report
    for suffix, digest in digests.items():
        assert hashlib.sha256((tmp_path / f"qpt{suffix}").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("flags, digests", [
    (["--seed", "7", "--shots", "13000"],
     {".json": "cdb661fa29d9cb99221cbc1bbaa525aff2e4df2716303636ff4691f4aa1e53e2",
      ".csv": "972208fa9f39b84d1adc2458196311f07a50f2395bfacaacf851185dc5b37ff0"}),
    (["--noise", str(DATA_DIR / "example_calibration.json"), "--seed", "123"],
     {".json": "5e4efd2112a61c04e05b5dae40c03d1e86e61c2835706b0410b11ddfa2401ca2",
      ".csv": "5b0b4ad63bbae9601dc8a2199f25491e1855930fa769dd3a1f9d967fb527b546"}),
], ids=["noiseless", "noisy"])
def test_state_outputs_are_pinned(tmp_path, flags, digests):
    """Digests recorded while ``state`` sampled into a ``CountsRecord``: they
    pin the counts, and the success probability, epsilon and scaling that
    these two inputs give, to the last bit."""
    assert main(["state", *flags, "--out", str(tmp_path / "state.json")]) == 0
    for suffix, digest in digests.items():
        assert hashlib.sha256((tmp_path / f"state{suffix}").read_bytes()).hexdigest() == digest


def test_decompose_and_stability_outputs_are_pinned(tmp_path):
    """Digests of the circuit and stability writers, as recorded before they
    were derived from the readers' key lists. ms.json's was recorded again when
    ``phase_aligned_distance`` began to form the difference explicitly: MS reads
    2.9825041104932014e-16, not the cancelled 0.0."""
    digests = {
        "ms.json": "4f0a3ef62ffa5a95e94fa39312aad374427d53464f8e1f2e090d03d7dd990639",
        "cx.json": "8b86ed656a27dc10c5f686c2dd0dfbac3bea7656fcc2351c8fe0a4ac00773d33",
        "stability.json": "5cb74a5339b71bcbea1d2ab002e67895de3d95b1ccfe3620109b81ea3c4ba5e6",
        "stability.csv": "7c62890619ef13a2eb9eb677a98180887f8baa55e6ae415c9a805232b8f50ee3",
    }
    for target in ("ms", "cx"):
        assert main(["decompose", "--target", target,
                     "--out", str(tmp_path / f"{target}.json")]) == 0
    assert main(["stability", "--calib-a", str(DATA_DIR / "example_calibration.json"),
                 "--calib-b", str(DATA_DIR / "example_calibration_b.json"),
                 "--out", str(tmp_path / "stability.json")]) == 0
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_qpt_on_a_circuit_file_reports_against_itself(tmp_path):
    circuit = tmp_path / "ms_circuit.json"
    circuit.write_text(synthesize_ms_circuit().to_json())
    assert main(["qpt", "--circuit", str(circuit), "--exact",
                 "--out", str(tmp_path / "custom.json")]) == 0
    report = json.loads((tmp_path / "custom.report.json").read_text())
    assert report == {
        "gate": "custom", "backend": "exact", "noise_fingerprint": "noiseless",
        "process_fidelity": pytest.approx(1.0, abs=1e-9)}
    ds = TomographyDataset.from_json((tmp_path / "custom.json").read_text())
    target = channel_from_unitary(circuit_unitary(Circuit.load(circuit)))
    assert report["process_fidelity"] == process_fidelity(reconstruct_channel(ds), target)


@pytest.mark.parametrize("label", ["ms", "cx"])
def test_qpt_takes_a_builtin_target_from_one_read_only_channel(tmp_path, label):
    target = cli._target_channel(label)
    assert cli._target_channel(label) is target
    assert not target.kraus_operators().flags.writeable
    fresh = channel_from_unitary(BUILTIN_TARGETS[label]().matrix)
    assert target.kraus_operators().tobytes() == fresh.kraus_operators().tobytes()
    assert main(["qpt", "--circuit", "ms", "--exact", "--target", label,
                 "--out", str(tmp_path / "qpt.json")]) == 0
    ds = TomographyDataset.from_json((tmp_path / "qpt.json").read_text())
    report = json.loads((tmp_path / "qpt.report.json").read_text())
    assert report["process_fidelity"] == process_fidelity(reconstruct_channel(ds), fresh)


def test_qpt_cx_against_ms_target(tmp_path):
    out = tmp_path / "cx_vs_ms.json"
    assert main(["qpt", "--circuit", "cx", "--exact", "--target", "ms",
                 "--out", str(out)]) == 0
    report = json.loads((tmp_path / "cx_vs_ms.report.json").read_text())
    assert report["process_fidelity"] == pytest.approx(0.125, abs=1e-6)


def test_fit_noise_trivial_target(tmp_path):
    calib = tmp_path / "cal.json"
    write_cal(calib, durations={"rz": 0, "sx": 0, "cnot": 0, "x": 0})
    out = tmp_path / "fitted.json"
    assert main(["fit-noise", "--target-fidelity", "1.0", "--circuit", "ms",
                 "--calib", str(calib), "--out", str(out)]) == 0
    fitted = DeviceCalibration.load(out)
    assert fitted.p_dep == 0.0


def count_calls(monkeypatch, fn):
    """Record the positional arguments of each call to ``fn`` through every
    msbench module that binds it."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "msbench" or name.startswith("msbench."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def test_fit_noise_reuses_the_fits_fidelity(tmp_path, monkeypatch, capsys):
    evaluations = count_calls(monkeypatch, exact_process_fidelity)
    builds = count_calls(monkeypatch, build_noise_model)
    assert main(["fit-noise", "--target-fidelity", "0.9247", "--circuit", "ms",
                 "--calib", str(DATA_DIR / "example_calibration.json"),
                 "--out", str(tmp_path / "fitted.json")]) == 0
    # F(0) and F(1) as one paired call, then the verifying evaluation.
    assert (len(evaluations), len(builds)) == (2, 1)
    assert [len(noise) if isinstance(noise, tuple) else 1 for _, noise in evaluations] == [2, 1]
    assert capsys.readouterr().out == (
        "fitted p_dep = 0.016500 for ms (target F = 0.9247, achieved F = 0.924700)\n")


@pytest.mark.parametrize("circuit, calib, target, digest", [
    ("ms", "example_calibration", "0.9",
     "61a1edc71d6cadd59c5e515aa253a1bb95d7798853a278c4a436f7d66315215a"),
    ("ms", "example_calibration", "0.5",
     "0255be065a39545decc4c4ab42832486efc4f4060425413e88c8e072462e9040"),
    ("ms", "example_calibration_b", "0.9",
     "d0cf1af3c872a09b3c0a3ace45e26f05faea3635e9d53bf3800e6f93c72f5d1a"),
    ("ms", "example_calibration_b", "0.5",
     "42b0e52b98cfd5d11d28509c305dfad8c5f6892e4d87f5cdf8ca3362d7faee34"),
    ("cx", "example_calibration", "0.9",
     "063eef3d0ff8ae5fff8179c7d62659f914577418c26aaa25672565493eb3eaad"),
    ("cx", "example_calibration", "0.5",
     "3a4d953813b83dfc0aded0febf62d8bc5ea96c8795222768c8d644fe6a0abd1f"),
    ("cx", "example_calibration_b", "0.9",
     "1af8fe942e2f0fbab7a99c1de521e81b163ed4d2da0ed420845e653ca3ec36ec"),
    ("cx", "example_calibration_b", "0.5",
     "8aba37274c35a5e75c1d5bc1e0f3a5fc93cbaec68db879c5090df19021466673"),
])
def test_fit_noise_outputs_are_pinned(tmp_path, circuit, calib, target, digest):
    """Digests recorded before the Kraus sum became one stacked product: the
    fitted p_dep, to the last bit, for both circuits and example calibrations."""
    out = tmp_path / "fitted.json"
    assert main(["fit-noise", "--target-fidelity", target, "--circuit", circuit,
                 "--calib", str(DATA_DIR / f"{calib}.json"), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_fit_noise_unachievable_target(tmp_path, capsys):
    calib = tmp_path / "cal.json"
    write_cal(calib, readout=(0.05, 0.05))
    out = tmp_path / "fitted.json"
    assert main(["fit-noise", "--target-fidelity", "0.999", "--circuit", "ms",
                 "--calib", str(calib), "--out", str(out)]) == 1
    assert "error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cal.json"]


def test_stability_identical_files(tmp_path, capsys):
    calib = tmp_path / "cal.json"
    write_cal(calib, t1=(100.0, 120.0), t2=(80.0, 95.0), readout=(0.01, 0.02))
    out = tmp_path / "stab.json"
    assert main(["stability", "--calib-a", str(calib), "--calib-b", str(calib),
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["quality_correlation"] == 1.0
    assert (tmp_path / "stab.csv").exists()


def test_stability_near_the_float_maximum_writes_finite_json(tmp_path):
    """T1 = 1.7e308 and 1.6e308 overflowed the percent variation's sum and the
    quality scores' mean: stability wrote a 0% variation and NaN scores."""
    text = (DATA_DIR / "example_calibration.json").read_text()
    calibs = []
    for name, t1 in (("a.json", ("1.7e308", "1.6e308")), ("b.json", ("1.6e308", "90.0"))):
        calibs.append(tmp_path / name)
        calibs[-1].write_text(text.replace('"t1_us": 120.0', f'"t1_us": {t1[0]}', 1)
                              .replace('"t1_us": 90.0', f'"t1_us": {t1[1]}', 1))
    out = tmp_path / "runs" / "stability.json"
    assert main(["stability", "--calib-a", str(calibs[0]), "--calib-b", str(calibs[1]),
                 "--out", str(out)]) == 0
    assert_strict_json(out.parent)
    report = json.loads(out.read_text())
    assert report["variation_percent"]["t1_us"]["0"] == pytest.approx(100 * 0.1 / 1.65)
    assert report["quality_scores_a"] == {"0": pytest.approx(1.0), "1": pytest.approx(-1.0)}


def test_stability_mismatched_qubits_fails(tmp_path):
    cal_a = tmp_path / "a.json"
    write_cal(cal_a)
    cal_b = tmp_path / "b.json"
    qubits = (QubitCalibration(3, 100.0, 80.0, 0.01), QubitCalibration(4, 100.0, 80.0, 0.01))
    cal_b.write_text(DeviceCalibration(qubits).to_json())
    out = tmp_path / "stab.json"
    assert main(["stability", "--calib-a", str(cal_a), "--calib-b", str(cal_b),
                 "--out", str(out)]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]


def test_output_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("MSBENCH_OUTPUT_DIR", str(tmp_path / "runs"))
    assert main(["decompose", "--target", "ms", "--out", "ms.json"]) == 0
    assert (tmp_path / "runs" / "ms.json").exists()


def test_manifest_replay_reproduces_bytes(tmp_path):
    out_a = tmp_path / "a.json"
    assert main(["qpt", "--circuit", "ms", "--shots", "250", "--seed", "17",
                 "--out", str(out_a)]) == 0
    flags = json.loads((tmp_path / "a.json.manifest.json").read_text())["flags"]
    out_b = tmp_path / "b.json"
    replay = ["qpt", "--circuit", flags["circuit"], "--shots", str(flags["shots"]),
              "--seed", str(flags["seed"]), "--out", str(out_b)]
    assert main(replay) == 0
    for suffix in (".json", ".report.json", ".channel.json"):
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()
    assert "timestamp" in json.loads((tmp_path / "b.json.manifest.json").read_text())


def test_fit_noise_replay_reproduces_bytes(tmp_path):
    calib = tmp_path / "cal.json"
    write_cal(calib)
    outs = [tmp_path / "fit_a.json", tmp_path / "fit_b.json"]
    for out in outs:
        assert main(["fit-noise", "--target-fidelity", "0.9247", "--circuit", "ms",
                     "--calib", str(calib), "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def _replay_argv(manifest_path, out) -> list[str]:
    """The command line that reruns a manifest's command, writing to ``out``."""
    manifest = json.loads(manifest_path.read_text())
    argv = [manifest["command"]]
    for key, value in manifest["flags"].items():
        if key in ("command", "out") or value is None or value is False:
            continue
        argv.append("--" + key.replace("_", "-"))
        if value is not True:
            argv.append(str(value))
    return argv + ["--out", str(out)]


EXAMPLE_CALIBRATIONS = [str(DATA_DIR / "example_calibration.json"),
                        str(DATA_DIR / "example_calibration_b.json")]


@pytest.mark.parametrize("argv, suffixes", [
    (["decompose", "--target", "ms"], [".json"]),
    (["state", "--circuit", "ms", "--input", "01", "--shots", "3000", "--seed", "11"],
     [".json", ".csv"]),
    (["state", "--circuit", "cx", "--input", "10", "--seed", "12",
      "--noise", EXAMPLE_CALIBRATIONS[0]], [".json", ".csv"]),
    (["stability", "--calib-a", EXAMPLE_CALIBRATIONS[0], "--calib-b", EXAMPLE_CALIBRATIONS[1]],
     [".json", ".csv"]),
], ids=["decompose", "state", "state-noise", "stability"])
def test_manifest_replay_reproduces_every_output(tmp_path, argv, suffixes):
    assert main(argv + ["--out", str(tmp_path / "a.json")]) == 0
    replay = _replay_argv(tmp_path / "a.json.manifest.json", tmp_path / "b.json")
    assert main(replay) == 0
    for suffix in suffixes:
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()
    assert_strict_json(tmp_path)


QPT_READERS = {".json": TomographyDataset.from_json, ".channel.json": QuantumChannel.from_json}


@pytest.mark.parametrize("argv, readers", [
    (["qpt", "--shots", "300", "--seed", "5"], QPT_READERS),
    (["qpt", "--exact"], QPT_READERS),
    (["fit-noise", "--target-fidelity", "0.9247", "--calib", EXAMPLE_CALIBRATIONS[0]],
     {".json": DeviceCalibration.from_json}),
], ids=["qpt-sampled", "qpt-exact", "fit-noise"])
def test_written_files_re_serialize_to_their_own_bytes(tmp_path, argv, readers):
    """Each dataset, channel file and fitted calibration a command writes reads
    back, by its reader, to an object whose ``to_json()`` and a newline are the
    file's text."""
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 0
    for suffix, read in readers.items():
        text = (tmp_path / f"out{suffix}").read_text()
        assert read(text).to_json() + "\n" == text, suffix
    assert_strict_json(tmp_path)


def test_manifest_contents(tmp_path):
    out = tmp_path / "qpt.json"
    assert main(["qpt", "--circuit", "ms", "--shots", "200", "--seed", "9",
                 "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "qpt.json.manifest.json").read_text())
    assert manifest["command"] == "qpt"
    assert manifest["seed"] == 9
    assert manifest["rng"] == "numpy-PCG64-multinomial"
    assert manifest["flags"]["shots"] == 200
    assert str(out) in manifest["outputs"]
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    assert manifest["blas_kernel"] == cli._blas_kernel()


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                    or cli._blas_kernel() is None,
                    reason="needs numpy's bundled OpenBLAS on x86-64")
def test_manifest_names_the_blas_kernel_that_runs(tmp_path):
    """``OPENBLAS_CORETYPE`` picks the kernel set at load, so a fresh process reads it."""
    out = tmp_path / "ms.json"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": "Nehalem",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "msbench.cli", "decompose", "--target", "ms",
                    "--out", str(out)], env=env, check=True, capture_output=True)
    manifest = json.loads((tmp_path / "ms.json.manifest.json").read_text())
    assert manifest["blas_kernel"] == "Nehalem"


def test_decompose_manifest_records_every_flag(tmp_path):
    out = tmp_path / "ms.json"
    assert main(["decompose", "--target", "ms", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "ms.json.manifest.json").read_text())
    assert manifest["flags"] == {"command": "decompose", "target": "ms", "out": str(out)}
    assert manifest["seed"] is None and manifest["outputs"] == [str(out)]


def test_every_main_call_shares_one_parser(tmp_path, monkeypatch):
    constructed = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        cli.build_parser()
        one_tree = len(constructed)
        cli.build_parser.cache_clear()
        constructed.clear()
        for i in range(3):
            assert main(["decompose", "--target", "ms", "--out", str(tmp_path / f"{i}.json")]) == 0
        assert len(constructed) == one_tree
    finally:
        cli.build_parser.cache_clear()


def test_a_patched_handler_runs_on_every_call(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, cli.cmd_qpt)
    for name in ("a", "b"):
        assert main(["qpt", "--exact", "--out", str(tmp_path / f"{name}.json")]) == 0
    assert len(calls) == 2


def _calibration_with_unknown_key():
    d = json.loads((DATA_DIR / "example_calibration.json").read_text())
    d["qubits"][0]["t3_us"] = 50.0
    return json.dumps(d)


def _calibration_with_qubit(**fields):
    return json.dumps({"qubits": [{"id": 0, "t1_us": 100.0, "t2_us": 80.0, **fields}]})


QPT_NOISE = ["qpt", "--exact", "--noise", "{dir}/bad.json"]
FIT_CALIB = ["fit-noise", "--target-fidelity", "0.9", "--calib", "{dir}/bad.json"]
QPT_CIRCUIT = ["qpt", "--exact", "--circuit", "{dir}/bad.json"]
HUGE = 10**400  # a JSON integer past float64's range
NOT_UTF8 = ["bad.json: 'utf-8' codec can't decode byte 0xff in position 0"]


@pytest.mark.parametrize("argv, content, names", [
    (QPT_NOISE, _calibration_with_unknown_key(), ["qubits[0]", "t3_us"]),
    (["fit-noise", "--target-fidelity", "0.9", "--calib", "{dir}/missing.json"], None,
     ["missing.json"]),
    (["state", "--circuit", "{dir}/missing_circuit.json"], None, ["missing_circuit.json"]),
    (FIT_CALIB, json.dumps({"qubits": [{"id": 0, "t2_us": 80.0}]}),
     ["bad.json", "qubits[0]: missing key 't1_us'"]),
    (FIT_CALIB, _calibration_with_qubit(t1_us="abc"), ["bad.json", "t1_us = 'abc'"]),
    (FIT_CALIB, json.dumps({"qubits": [], "p_dep": "x"}), ["bad.json", "p_dep = 'x'"]),
    (FIT_CALIB, json.dumps({"p_dep": 0.1}), ["bad.json", "missing key 'qubits'"]),
    (FIT_CALIB, "[]", ["bad.json", "calibration: expected a JSON object"]),
    (QPT_CIRCUIT, '[{"kind": "rz", "qubit": 0}]', ["bad.json", "gates[0]: missing key 'angle'"]),
    (["state", "--circuit", "{dir}/bad.json"], '[{"kind": "sx"}]',
     ["bad.json", "gates[0]: missing key 'qubit'"]),
    (QPT_CIRCUIT, "[1]", ["bad.json", "gates[0]: expected a JSON object"]),
    (QPT_CIRCUIT, json.dumps([{"kind": "sx", "qubit": 0, "angle": 1.0}]),
     ["bad.json", "gates[0]: unknown key 'angle'"]),
    (QPT_CIRCUIT, json.dumps([{"kind": "rz", "qubit": 0, "angle": True}]),
     ["bad.json", "gates[0]: rz angle must be a finite number, got True"]),
    (QPT_CIRCUIT, json.dumps([{"kind": "sx", "qubit": True}]),
     ["bad.json", "gates[0]: sx qubit indices must be 0 or 1, got True"]),
    (QPT_CIRCUIT, json.dumps([{"kind": "cnot", "control": False, "target": True}]),
     ["bad.json", "gates[0]: cnot qubit indices must be 0 or 1, got False, True"]),
    (QPT_CIRCUIT, "{}", ["bad.json", "expected a JSON list of gates"]),
    (["stability", "--calib-a", "{dir}/bad.json",
      "--calib-b", str(DATA_DIR / "example_calibration.json")],
     "{", ["bad.json", "Expecting property name"]),
    (["stability", "--calib-a", "{dir}/bad.json", "--calib-b", "{dir}/bad.json"],
     json.dumps({"qubits": []}), ["bad.json", "qubits: a calibration needs at least one qubit"]),
    (FIT_CALIB, _calibration_with_qubit(), ["bad.json", "no calibration for qubit 1"]),
    (QPT_NOISE, _calibration_with_qubit(), ["bad.json", "no calibration for qubit 1"]),
    (FIT_CALIB, _calibration_with_qubit(t1_us=HUGE), ["bad.json", "qubit 0: t1_us = 1000"]),
    (FIT_CALIB, _calibration_with_qubit(t2_us=HUGE), ["bad.json", "qubit 0: t2_us = 1000"]),
    (FIT_CALIB, _calibration_with_qubit(frequency_ghz=HUGE),
     ["bad.json", "qubit 0: frequency_ghz = 1000"]),
    (FIT_CALIB, _calibration_with_qubit(anharmonicity_ghz=-HUGE),
     ["bad.json", "qubit 0: anharmonicity_ghz = -1000"]),
    (FIT_CALIB, json.dumps({**json.loads(_calibration_with_qubit()),
                            "durations_ns": {"cnot": HUGE}}),
     ["bad.json", "durations_ns['cnot'] = 1000"]),
    (QPT_CIRCUIT, json.dumps([{"kind": "rz", "qubit": 0, "angle": HUGE}]),
     ["bad.json", "gates[0]: rz angle must be a finite number, got 1000"]),
    (QPT_CIRCUIT, '[{"kind": {}, "qubit": 0}]', ["bad.json", "gates[0]: unknown gate kind {}"]),
    (QPT_CIRCUIT, '[{"kind": "x", "qubit": 0}, {"kind": [], "qubit": 0}]',
     ["bad.json", "gates[1]: unknown gate kind []"]),
    (FIT_CALIB, "[" * 100000 + "]" * 100000, ["bad.json", "calibration: nested too deeply"]),
    (FIT_CALIB, json.dumps({**json.loads(_calibration_with_qubit()), "durations_ns": None}),
     ["bad.json", "durations_ns: expected a JSON object"]),
    (FIT_CALIB, json.dumps({**json.loads(_calibration_with_qubit()), "durations_ns": []}),
     ["bad.json", "durations_ns: expected a JSON object"]),
    (FIT_CALIB, b"\xff" + _calibration_with_qubit().encode(), NOT_UTF8),
    (QPT_CIRCUIT, b"\xff[]", NOT_UTF8),
    (["stability", "--calib-a", "{dir}/bad.json",
      "--calib-b", str(DATA_DIR / "example_calibration.json")], b"\xff{}", NOT_UTF8),
], ids=["noise-unknown-key", "missing-calib", "missing-circuit", "calib-missing-t1",
        "calib-string-t1", "calib-string-p-dep", "calib-missing-qubits", "calib-not-an-object",
        "rz-missing-angle", "sx-missing-qubit", "gate-not-an-object", "sx-unknown-key",
        "rz-bool-angle", "sx-bool-qubit", "cnot-bool-indices", "circuit-not-a-list",
        "calib-not-json", "stability-no-qubits", "fit-calib-no-qubit-1",
        "qpt-noise-no-qubit-1", "calib-huge-t1", "calib-huge-t2",
        "calib-huge-frequency", "calib-huge-anharmonicity", "calib-huge-duration",
        "rz-huge-angle", "object-kind", "list-kind", "calib-nested", "calib-null-durations",
        "calib-list-durations", "calib-not-utf8", "circuit-not-utf8", "stability-not-utf8"])
def test_bad_input_file_exits_1_naming_it_and_writes_nothing(tmp_path, capsys, argv, content,
                                                             names):
    if isinstance(content, bytes):
        (tmp_path / "bad.json").write_bytes(content)
    elif content is not None:
        (tmp_path / "bad.json").write_text(content)
    before = sorted(tmp_path.iterdir())
    out = tmp_path / "runs" / "x.json"
    argv = [arg.format(dir=tmp_path) for arg in argv]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for name in names:
        assert name in err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv", [
    ["fit-noise", "--target-fidelity", "0.9", "--calib", "{bad}"],
    ["stability", "--calib-a", "{bad}", "--calib-b", str(DATA_DIR / "example_calibration_b.json")],
], ids=["fit-noise", "stability"])
def test_an_infinite_t1_exits_1_naming_the_file_and_writes_nothing(tmp_path, capsys, argv):
    """Unchecked, fit-noise wrote "t1_us": Infinity back and stability wrote NaN."""
    text = (DATA_DIR / "example_calibration.json").read_text()
    bad = tmp_path / "inf_t1.json"
    bad.write_text(text.replace('"t1_us": 120.0', '"t1_us": 1e400', 1))
    argv = [arg.format(bad=bad) for arg in argv]
    assert main(argv + ["--out", str(tmp_path / "runs" / "x.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "inf_t1.json" in err and "qubit 0: t1_us = inf is not finite" in err
    assert sorted(tmp_path.iterdir()) == [bad]
