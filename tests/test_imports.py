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


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    offending = json.loads(out.stdout.strip().splitlines()[-1])
    assert not offending, (
        "import bridgegp.cli loaded modules that should be imported lazily: "
        + ", ".join(offending)
    )
