"""Environment record written into every result.

Run as a script (in a child with the same environment as the jobs) it
prints JSON with the Python/numpy/scipy versions and, for each OpenBLAS
library numpy and scipy loaded, its configuration string and thread
count.  `host()` adds what the parent can read without numpy: nproc,
CPU model and last-level cache size.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import sys


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc_size() -> str:
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (-1, "unknown")
    try:
        for entry in os.listdir(base):
            try:
                with open(os.path.join(base, entry, "level"), encoding="utf-8") as fh:
                    level = int(fh.read())
                with open(os.path.join(base, entry, "size"), encoding="utf-8") as fh:
                    size = fh.read().strip()
            except (OSError, ValueError):
                continue
            if level > best[0]:
                best = (level, size)
    except OSError:
        pass
    return best[1]


def host() -> dict:
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(), "llc_size": _llc_size(),
            "python": platform.python_version()}


def _blas_libraries() -> list[dict]:
    """Vendor string and live thread count of each loaded OpenBLAS."""
    paths = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                paths.add(path)
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for pattern in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_",
                        "openblas_{}"):
            try:
                get_threads = getattr(lib, pattern.format("get_num_threads"))
                get_config = getattr(lib, pattern.format("get_config"))
            except AttributeError:
                continue
            get_threads.restype = ctypes.c_int
            get_config.restype = ctypes.c_char_p
            info["threads"] = get_threads()
            info["config"] = get_config().decode()
            break
        found.append(info)
    return found


def child() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": _blas_libraries(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


if __name__ == "__main__":
    json.dump(child(), sys.stdout)
