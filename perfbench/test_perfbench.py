"""Self-tests of the benchmark.

Run from the checkout root:

    python3 -m pytest perfbench/test_perfbench.py -q

The traced tests run `run.py --trace 1` twice per workload (about a
minute per workload) and require the computed counts and call counts
to repeat exactly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

# Largest self time of each single-purpose workload's traced pass: its
# reason for being.  compute-mix mixes three mechanisms and has none.
DOMINANT = {
    "cli-light": "import",
    "grid-2d3d": "spectral.basis_matrix",
    "calibrate-1d": "kernels.SpdSolver.factor",
    "sample-mc": "sampling.sample_coefficients",
}


def _traced(workload: str, seed: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), proc.stdout


def _counts(result: dict) -> dict:
    keep = {name for name, _ in layers.COMPUTED}
    return {name: m["value"] for name, m in result["metrics"].items()
            if name in keep or name.endswith(".calls")}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, report = _traced(workload, seed=7)
    second, _ = _traced(workload, seed=7)
    assert first["correct"] and second["correct"], report
    assert set(first["metrics"]) == set(layers.metric_units())
    assert _counts(first) == _counts(second)
    if workload in DOMINANT:
        ranking = report.split("largest self times")[1].splitlines()[1].split()
        assert ranking[0] == DOMINANT[workload], report


def test_same_seed_same_inputs(tmp_path):
    a = workloads.generate("calibrate-1d", 3, str(tmp_path / "a"))
    b = workloads.generate("calibrate-1d", 3, str(tmp_path / "b"))
    for job_a, job_b in zip(a, b):
        cfg_a, cfg_b = job_a["argv"][job_a["argv"].index("--config") + 1], \
            job_b["argv"][job_b["argv"].index("--config") + 1]
        with open(cfg_a, encoding="utf-8") as fa, open(cfg_b, encoding="utf-8") as fb:
            assert fa.read().replace("/a/", "/b/") == fb.read()


def test_oracle_rejects_a_perturbed_fit(tmp_path):
    from bridgegp import cli

    jobs = workloads.generate("cli-light", 5, str(tmp_path))
    oracle = oracles.Oracle()
    for job in jobs:
        assert cli.main(job["argv"]) == 0
        oracle.check(job)
    fit = next(job for job in jobs if job["id"].endswith("/fit"))
    with open(fit["out"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    row = lines[header + 5].split(",")
    row[1] = repr(float(row[1]) * (1.0 + 1e-6))
    lines[header + 5] = ",".join(row)
    with open(fit["out"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(oracles.OracleError):
        oracle.check(fit)
