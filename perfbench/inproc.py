"""Run a workload's jobs in one process through `bridgegp.cli.main(argv)`.

Usage (from the checkout root, with PYTHONPATH=src):

    python perfbench/inproc.py JOBS.json RESULT.json [--trace]

Without --trace the jobs run untimed by anything but a wall clock per
job; this is the baseline the tracing overhead is measured against, and
(under OPENBLAS_NUM_THREADS=1) the single-threaded pass.  With --trace
every public function and method of the package's modules is wrapped by
replacing the module or class attribute, so calls between modules and
within a module (which go through module globals) are both recorded.
Each call becomes a span [name, start, end, parent, job]; spans stay in
memory and are written out with the wall times when the jobs end, and
every wrapper is restored afterwards.

Computed counts are kept next to the spans, at the same boundaries:
bytes of every basis and kernel matrix (from its shape), Cholesky flops
(n^3 / 3 per factorization), jitter retries (SpdSolver.jitter > 0 after
construction), factorizations per distinct dataset, and draws.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

MODULES = ("cli", "expressions", "spectral", "pde", "kernels", "regression",
           "sampling", "harness")


class Tracer:
    """Span recorder installed by attribute replacement."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job: str | None = None
        self.counts: Counter = Counter()
        self._restore: list[tuple] = []

    def _replace(self, owner, attr, wrapper, original):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = original(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(self.counts, args, result)
            return result

        self._replace(owner, attr, wrapper, original)

    def count(self, owner, attr: str, hook) -> None:
        """Count calls without recording a span."""
        original = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            hook(self)
            return original(*args, **kwargs)

        self._replace(owner, attr, wrapper, original)

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _matrix_bytes(key):
    def after(counts, args, result):
        counts[key] += int(result.shape[0]) * int(result.shape[1]) * result.itemsize
    return after


def _factor_counts(counts, args, result):
    solver, matrix = args[0], args[1]
    n = len(matrix)
    counts["kernels.SpdSolver.factor.flops"] += n**3 / 3.0
    if solver.jitter > 0.0:
        counts["kernels.SpdSolver.jitter.count"] += 1


def _draw_counts(counts, args, result):
    counts["sampling.draws"] += int(result.shape[0])


def _philox_outside_sampler(tracer: Tracer) -> None:
    # The CLI's posterior sampler opens one stream per draw itself.
    top = tracer.spans[tracer.stack[-1]][0] if tracer.stack else ""
    if top != "sampling.sample_coefficients":
        tracer.counts["sampling.draws"] += 1


def _dataset_count(tracer: Tracer) -> None:
    tracer.counts["datasets"] += 1


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every package module."""
    hooks = {
        "spectral.basis_matrix": _matrix_bytes("spectral.basis_matrix.bytes"),
        "kernels.kernel_matrix": _matrix_bytes("kernels.kernel_matrix.bytes"),
        "sampling.sample_coefficients": _draw_counts,
    }
    for short in MODULES:
        mod = importlib.import_module(f"bridgegp.{short}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{short}.{attr}"
                tracer.wrap(mod, attr, name, hooks.get(name))
            elif inspect.isclass(obj):
                for member, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and (not member.startswith("_")
                                                   or member == "__call__"):
                        tracer.wrap(obj, member, f"{short}.{attr}.{member}")
    kernels = importlib.import_module("bridgegp.kernels")
    tracer.wrap(kernels.SpdSolver, "__init__", "kernels.SpdSolver.factor", _factor_counts)
    regression = importlib.import_module("bridgegp.regression")
    tracer.count(regression.Dataset, "__post_init__", _dataset_count)
    sampling = importlib.import_module("bridgegp.sampling")
    tracer.count(sampling, "_philox", _philox_outside_sampler)


def run_jobs(jobs: list[dict], tracer: Tracer | None) -> list[dict]:
    from bridgegp import cli

    results = []
    for job in jobs:
        if tracer is not None:
            tracer.job = job["id"]
        start = time.perf_counter()
        try:
            code = cli.main(job["argv"])
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 1
        results.append({"id": job["id"], "code": code,
                        "wall_s": time.perf_counter() - start})
    if tracer is not None:
        tracer.job = None
    return results


def main(argv: list[str]) -> int:
    jobs_path, out_path = argv[0], argv[1]
    traced = "--trace" in argv[2:]
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    import bridgegp  # noqa: F401  (import cost is measured separately)

    tracer = Tracer() if traced else None
    if tracer is not None:
        install(tracer)
    try:
        results = run_jobs(jobs, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    payload = {"jobs": results}
    if tracer is not None:
        payload["spans"] = tracer.spans
        payload["counts"] = dict(tracer.counts)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
