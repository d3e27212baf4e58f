"""Import weight: `import bridgegp` loads numpy and scipy.linalg only.

Every CLI call pays for the package import before it does any work, so
the scipy submodules that only the studies use are imported inside
those functions.  The `beta` and inversion searches are written in numpy
and never import `scipy.optimize`.  These tests run a fresh interpreter,
so modules already loaded by other tests cannot hide an eager import.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

DEFERRED = ("scipy.stats", "scipy.integrate", "scipy.spatial", "scipy.optimize")

PROBE = (
    "import bridgegp.cli, json, sys; "
    f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))"
)


# The convergence study's slope fit needs a t quantile, which
# `scipy.special` provides without the cost of importing `scipy.stats`.
STUDY_PROBE = (
    "import json, sys; from bridgegp import KernelSpec, convergence_study; "
    "convergence_study(lambda x: x * (1 - x), None, KernelSpec('bridge', order=32), "
    "[4, 8, 16]); print(json.dumps(['scipy.stats'] if 'scipy.stats' in sys.modules else []))"
)


# `beta`, a linear and an expression `invert`, and `study model-error`,
# each through `cli.main`; the configs are written by the test.
SEARCH_PROBE = (
    "import json, sys; from bridgegp import cli; "
    "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]; "
    "print(json.dumps([codes, 'scipy.optimize' in sys.modules]))"
)

SEARCH_RUNS = [
    (["beta"], {"kernel": {"family": "bridge", "dim": 1, "order": 64}, "mesh_size": 20,
                "observed": {"epsilon": 0.5}, "hyper": {"kind": "jeffreys"}}),
    (["invert"], {
        "kernel": {"family": "bridge", "dim": 1, "order": 16},
        "family": {"components": [{"expression": "sin(pi*x)"}, {"expression": "sin(2*pi*x)"}]},
        "data": {"x": [0.2, 0.4, 0.6, 0.8], "y": [0.1, 0.12, 0.09, 0.03]}, "sigma2": 1e-4}),
    (["invert"], {
        "kernel": {"family": "bridge", "dim": 1, "order": 16},
        "family": {"expression": "a*exp(-(x-b)^2)", "free": ["a", "b"]},
        "observed": {"coefficients": [0.5, 0.01, 0.05, 0.002]}, "init": [5.0, 0.4]}),
    (["study", "model-error"], {"kernel": {"family": "bridge", "dim": 1, "order": 64},
                                "mesh_size": 20, "eps_values": [0.5, 1.0]}),
]


def _loaded_in_fresh_interpreter(probe: str, *args, **env_updates):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    for key, value in env_updates.items():  # None removes the variable
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    out = subprocess.run(
        [sys.executable, "-c", probe, *args], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    offending = _loaded_in_fresh_interpreter(PROBE)
    assert not offending, (
        "import bridgegp.cli loaded modules that should be imported lazily: "
        + ", ".join(offending)
    )


def test_beta_and_inversion_searches_leave_scipy_optimize_unloaded(tmp_path):
    runs = []
    for i, (command, cfg) in enumerate(SEARCH_RUNS):
        path = tmp_path / f"config{i}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        runs.append(command + ["--config", str(path), "--out", str(tmp_path / f"out{i}.csv")])
    codes, optimize_loaded = _loaded_in_fresh_interpreter(SEARCH_PROBE, json.dumps(runs))
    assert codes == [0, 0, 0, 0]
    assert not optimize_loaded


def test_convergence_study_leaves_scipy_stats_unloaded():
    assert _loaded_in_fresh_interpreter(STUDY_PROBE) == []


# `import bridgegp` sets OPENBLAS_THREAD_TIMEOUT before numpy loads, so the
# idle OpenBLAS workers of numpy and scipy sleep between calls instead of
# spinning.  This test process has imported bridgegp, so each child starts
# without the variable unless the test sets it.
TIMEOUT_PROBE = (
    "import bridgegp, json, os; "
    "print(json.dumps(os.environ.get('OPENBLAS_THREAD_TIMEOUT')))"
)

# CPU time a 0.3 s sleep costs after one threaded GEMM (numpy's OpenBLAS)
# and one Cholesky (scipy's); a spinning worker burns 0.1-0.2 s of it.
IDLE_PROBE = (
    "import bridgegp, json, time; import numpy as np, scipy.linalg; "
    "a = np.random.default_rng(0).standard_normal((512, 512)); g = a @ a.T; "
    "scipy.linalg.cho_factor(g + 512 * np.eye(512)); "
    "t = time.process_time(); time.sleep(0.3); "
    "print(json.dumps(time.process_time() - t))"
)


def test_import_sets_blas_idle_timeout():
    assert _loaded_in_fresh_interpreter(TIMEOUT_PROBE, OPENBLAS_THREAD_TIMEOUT=None) == "4"


def test_preset_blas_idle_timeout_is_kept():
    assert _loaded_in_fresh_interpreter(TIMEOUT_PROBE, OPENBLAS_THREAD_TIMEOUT="20") == "20"


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="BLAS runs one thread")
def test_idle_blas_workers_do_not_spin():
    cpu_s = _loaded_in_fresh_interpreter(IDLE_PROBE, OPENBLAS_THREAD_TIMEOUT=None)
    assert cpu_s < 0.03, f"a 0.3 s sleep after BLAS calls burned {cpu_s:.3f} s of CPU"
