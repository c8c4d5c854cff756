"""Smoke test of the end-to-end benchmark: plumbing, never a measurement.

Each workload runs at ``--scale smoke`` (one pass at 1/20 size) in its
own interpreter, untraced and traced: spans are process-wide class
patches, which a test process must not share with the rest of tier-1.
The eight runs are started together; nothing here is timed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
MANIFEST = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in MANIFEST["workloads"]]


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory: pytest.TempPathFactory) -> dict:
    """(workload, trace) -> (result line, full report, stdout)."""
    tmp = tmp_path_factory.mktemp("e2e-smoke")
    started = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = tmp / f"{workload}-{trace}.json"
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3"]
            command += ["--scale", "smoke", "--trace", str(trace), "--out", str(out)]
            started[workload, trace] = out, subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
            )
    runs = {}
    for key, (out, process) in started.items():
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, stdout + stderr
        result = json.loads(stdout.strip().splitlines()[-1])
        runs[key] = result, json.loads(out.read_text())["runs"][key[0]], stdout
    return runs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_declared_metric(workload: str, smoke_runs: dict) -> None:
    fingerprints = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, report, text = smoke_runs[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and not report["violations"]
        assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
        assert "SMOKE (not comparable)" in text
        declared = {entry["name"]: entry["unit"] for entry in MANIFEST[section]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
        for name in declared:
            assert f"\n{name} " in text, f"{name} missing from the table"
        fingerprints.append(report["sim_fingerprint"])
        if trace:
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            shares = [v for name, v in metrics.items() if name.endswith(".share")]
            assert all(share >= 0.0 for share in shares)
            # self times partition the traced pass: layers + harness = its wall
            assert sum(shares) == pytest.approx(1.0, abs=1e-6)
            assert metrics["trace_overhead_ratio"] > 0
            assert report["spans"]["rows"] or workload == "sweep_stream"
        else:
            assert all(m["value"] != 0 for m in result["metrics"].values())
    assert fingerprints[0] == fingerprints[1], "traced and untraced runs computed different things"
