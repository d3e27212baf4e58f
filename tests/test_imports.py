"""Import weight: `import bridgegp` loads numpy and no scipy module.

Every CLI call pays for the package import before it does any work.  The
library's linear algebra, quadrature, design metrics and t quantile are
numpy's or its own, so every command runs without scipy; scipy serves the
tests as an oracle.  These tests run a fresh interpreter, so modules
already loaded by other tests cannot hide an eager import.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"

PROBE = f"import bridgegp.cli, json, sys; print(json.dumps({SCIPY_MODULES}))"


# The convergence study's design metrics and slope interval, called directly.
STUDY_PROBE = (
    "import json, sys; from bridgegp import KernelSpec, convergence_study; "
    "convergence_study(lambda x: x * (1 - x), None, KernelSpec('bridge', order=32), "
    f"[4, 8, 16]); print(json.dumps({SCIPY_MODULES}))"
)


# Runs each argv through `cli.main`; prints the exit codes and the scipy
# modules loaded.  The configs are written by the test.
COMMANDS_PROBE = (
    "import json, sys; from bridgegp import cli; "
    "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]; "
    f"print(json.dumps([codes, {SCIPY_MODULES}]))"
)

# `beta`, a linear and an expression `invert`, and `study model-error`.
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

# With SEARCH_RUNS, every command but `study convergence`.
KERNEL_1D = {"family": "bridge", "dim": 1, "order": 16}
OTHER_RUNS = [
    (["solve"], {"kernel": KERNEL_1D, "source": {"expression": "sin(pi*x)"}, "grid": 11}),
    (["sample"], {"kernel": KERNEL_1D, "grid": 11, "count": 2, "moment_draws": 16}),
    (["sample"], {"kernel": KERNEL_1D, "mode": "posterior", "grid": 11, "count": 2,
                  "moment_draws": 16, "data": {"x": [0.3, 0.7], "y": [0.1, -0.1]},
                  "sigma2": 1e-4}),
    (["fit"], {"kernel": {"family": "bridge", "dim": 2, "order": 8}, "grid": 5,
               "data": {"x": [[0.2, 0.3], [0.6, 0.7]], "y": [0.1, 0.2]}, "sigma2": 1e-4}),
]


def _run_commands(tmp_path, runs):
    argvs = []
    for i, (command, cfg) in enumerate(runs):
        path = tmp_path / f"config{i}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        argvs.append(command + ["--config", str(path), "--out", str(tmp_path / f"out{i}.csv")])
    return _loaded_in_fresh_interpreter(COMMANDS_PROBE, json.dumps(argvs))


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
        "import bridgegp.cli loaded scipy modules: "
        + ", ".join(offending)
    )


def test_import_generates_no_dataclass():
    # a frozen dataclass executes generated source for each class at import;
    # the package's records share the methods of `record.Record` instead
    probe = "import bridgegp, json, sys; print(json.dumps('dataclasses' in sys.modules))"
    assert _loaded_in_fresh_interpreter(probe) is False


def test_every_command_but_convergence_loads_no_scipy_module(tmp_path):
    runs = SEARCH_RUNS + OTHER_RUNS
    codes, loaded = _run_commands(tmp_path, runs)
    assert codes == [0] * len(runs)
    assert loaded == []


def test_beta_and_inversion_searches_leave_scipy_optimize_unloaded(tmp_path):
    codes, loaded = _run_commands(tmp_path, SEARCH_RUNS)
    assert codes == [0, 0, 0, 0]
    assert "scipy.optimize" not in loaded


def test_convergence_study_leaves_scipy_stats_unloaded():
    assert _loaded_in_fresh_interpreter(STUDY_PROBE) == []


def test_study_convergence_command_loads_no_scipy_module(tmp_path):
    runs = [(["study", "convergence"], {
        "kernel": KERNEL_1D, "assumed_source": {"expression": "0"},
        "truth": {"expression": "sin(pi*x) + 0.3*x*(1-x)"}, "ns": [4, 8, 16, 32],
        "grid": 101})]
    assert _run_commands(tmp_path, runs) == [[0], []]


# `import bridgegp` sets two OpenBLAS defaults before numpy loads: one thread
# unless a thread count is set in any variable OpenBLAS reads, and an idle
# timeout under which workers sleep between calls instead of spinning.  This
# test process has imported bridgegp, so each child starts with
# OPENBLAS_NUM_THREADS=1 and without OPENBLAS_THREAD_TIMEOUT unless the test
# sets them.
UNSET_THREADS = dict.fromkeys(("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))

TIMEOUT_PROBE = (
    "import bridgegp, json, os; "
    "print(json.dumps(os.environ.get('OPENBLAS_THREAD_TIMEOUT')))"
)

THREADS_PROBE = (
    "import bridgegp, json, os; "
    "print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))"
)

# Threads of the process after one GEMM; OpenBLAS starts its workers on load.
TASKS_PROBE = (
    "import bridgegp, json, os; import numpy as np; "
    "a = np.ones((512, 512)); a @ a; "
    "print(json.dumps(len(os.listdir('/proc/self/task'))))"
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


@pytest.mark.parametrize("preset, expected", [
    ({}, "1"),
    ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
    ({"OMP_NUM_THREADS": "2"}, None),  # OpenBLAS reads it itself
], ids=["unset", "openblas-preset", "omp-preset"])
def test_import_sets_one_blas_thread_unless_a_count_is_set(preset, expected):
    assert _loaded_in_fresh_interpreter(THREADS_PROBE, **{**UNSET_THREADS, **preset}) == expected


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_default_runs_blas_on_one_thread():
    assert _loaded_in_fresh_interpreter(TASKS_PROBE, **UNSET_THREADS) == 1


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="BLAS runs one thread")
def test_idle_blas_workers_do_not_spin():
    # two threads named, so a worker exists that could spin
    cpu_s = _loaded_in_fresh_interpreter(IDLE_PROBE, OPENBLAS_THREAD_TIMEOUT=None,
                                         **{**UNSET_THREADS, "OPENBLAS_NUM_THREADS": "2"})
    assert cpu_s < 0.03, f"a 0.3 s sleep after BLAS calls burned {cpu_s:.3f} s of CPU"
