"""Smoke tests of the benchmark itself: python3 -m pytest bench/test_smoke.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_msbench()
import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((run.BENCH / "reference.json").read_text())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_deck_entry_passes_its_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name](run.DEFAULT_SEED, tmp_path, REFERENCE[name])
    assert workload.outputs is not None  # the default seed is checked against the reference
    for index, entry in enumerate(workload.deck):
        workload.check(index, entry, workload.run(entry))


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_op_passes_the_wrapper_self_check(name, tmp_path):
    workload = workloads.WORKLOADS[name](run.DEFAULT_SEED + 1, tmp_path, REFERENCE[name])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload.run(workload.deck[0])
    finally:
        tracer.uninstall()
    assert tracer.self_check(name, workload.bytes_written()) == []
    # Uninstalled wrappers record nothing more.
    calls = sum(tracer.counts.values())
    workload.run(workload.deck[0])
    assert sum(tracer.counts.values()) == calls


def test_wrong_output_fails_the_check(tmp_path):
    workload = workloads.QptCampaign(run.DEFAULT_SEED, tmp_path, REFERENCE["qpt_campaign"])
    ds, fidelity = workload.run(workload.deck[0])
    with pytest.raises(workloads.CheckFailed):
        workload.check(0, workload.deck[0], (ds, fidelity + 1e-6))


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_one_json_result(trace):
    out = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "cli_quickstart",
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "qpt_campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
    assert not Path(tmp_path / ".bench_run").exists()
