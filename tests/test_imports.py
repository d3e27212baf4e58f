"""Import weight: `import bridgegp` loads numpy and scipy.linalg only.

Every CLI call pays for the package import before it does any work, so
the scipy submodules that only the studies and the beta/inversion
searches use are imported inside those functions.  This test runs a
fresh interpreter, so modules already loaded by other tests cannot hide
an eager import.
"""

import json
import os
import pathlib
import subprocess
import sys

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


def _loaded_in_fresh_interpreter(probe: str) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    offending = _loaded_in_fresh_interpreter(PROBE)
    assert not offending, (
        "import bridgegp.cli loaded modules that should be imported lazily: "
        + ", ".join(offending)
    )


def test_convergence_study_leaves_scipy_stats_unloaded():
    assert _loaded_in_fresh_interpreter(STUDY_PROBE) == []
