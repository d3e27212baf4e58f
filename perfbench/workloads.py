"""Seeded input generators, one per workload.

Each generator takes the workload seed and a work directory, writes the
JSON configs and CSV data files there, and returns the list of jobs.
A job is a plain dict (JSON-serializable, so the traced child process
can read it back):

    id      "<workload>/<name>", unique within the workload
    argv    arguments after `bridgegp` (the CLI entry point)
    out     path of the artifact the job writes
    check   oracle description consumed by `oracles.check`

Data are scattered points with y from a known truth plus Gaussian
noise; the linear-inversion data come from a known theta.  The same
seed always gives byte-identical files.
"""

from __future__ import annotations

import json
import os

import numpy as np

WORKLOADS = ("cli-light", "grid-2d3d", "calibrate-1d", "sample-mc", "compute-mix")

PI2 = np.pi**2


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
    return path


def _write_points(path: str, x: np.ndarray, y: np.ndarray) -> str:
    x = x.reshape(len(y), -1)
    cols = ["x"] if x.shape[1] == 1 else [f"x{i + 1}" for i in range(x.shape[1])]
    lines = [",".join(cols + ["y"])]
    lines += [",".join(repr(float(v)) for v in (*row, yi)) for row, yi in zip(x, y)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


class _JobSet:
    """Collects the jobs of one workload under one directory."""

    def __init__(self, workload: str, workdir: str):
        self.workload = workload
        self.dir = os.path.join(workdir, workload)
        os.makedirs(self.dir, exist_ok=True)
        self.jobs: list[dict] = []

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def job(self, name: str, command: list[str], config: dict, check: dict,
            fmt: str = "csv") -> None:
        cfg = _write_json(self.path(f"{name}.json"), config)
        out = self.path(f"{name}.out.{fmt}")
        argv = command + ["--config", cfg, "--out", out, "--format", fmt]
        self.jobs.append({"id": f"{self.workload}/{name}", "argv": argv, "out": out,
                          "check": check})


def _bridge_deviation(rng, x: np.ndarray, beta: float, order: int = 512) -> np.ndarray:
    """One draw of the zero-mean 1D bridge prior, truncated at `order`."""
    n = np.arange(1, order + 1)
    scales = np.sqrt(1.0 / (PI2 * n**2 * beta))
    xi = rng.standard_normal(order)
    return (np.sqrt(2.0) * np.sin(np.pi * np.outer(x, n))) @ (scales * xi)


def _interior(rng, n: int, dim: int, margin: float = 0.02) -> np.ndarray:
    pts = rng.uniform(margin, 1.0 - margin, size=(n, dim))
    return pts[:, 0] if dim == 1 else pts


# --- cli-light ---------------------------------------------------------------
# Why: five small jobs, each almost all interpreter start and `import
# bridgegp` (about 1.7 s; `bridgegp.harness` is about 1.0 s of it under
# -X importtime), while the in-process work is well under 0.1 s.  This
# is the target for trimming import weight (ROADMAP item 5) and the
# no-change control for items 2 to 4.

def cli_light(seed: int, workdir: str) -> list[dict]:
    rng = np.random.default_rng([seed, 1])
    b = _JobSet("cli-light", workdir)

    # fit: 1D, n in [5, 20], grid 21, like the golden fixture.
    n = int(rng.integers(5, 21))
    x = np.sort(_interior(rng, n, 1, 0.05))
    a2 = float(rng.uniform(-0.3, 0.3))
    y = 2.0 * np.sin(np.pi * x) + a2 * np.sin(2 * np.pi * x) + 0.01 * rng.standard_normal(n)
    spec = {"family": "bridge", "dim": 1, "order": 64, "beta": 2.0}
    source = {"expression": "2*pi^2*sin(pi*x)"}
    data = _write_points(b.path("fit_data.csv"), x, y)
    b.job("fit", ["fit"], {"kernel": spec, "source": source, "data": {"path": data},
                           "sigma2": 1e-4, "grid": 21, "seed": 0},
          {"kind": "fit", "kernel": spec, "source": source, "data": data, "sigma2": 1e-4})

    # solve: 1D, default order 512, sine source with a known solution.
    c, k = float(rng.uniform(0.5, 3.0)), int(rng.integers(1, 7))
    b.job("solve", ["solve"],
          {"kernel": {"family": "bridge", "dim": 1},
           "source": {"expression": "c*sin(k*pi*x)", "parameters": {"c": c, "k": k}},
           "grid": 101},
          {"kind": "solve", "terms": [[c / (PI2 * k * k), [k]]]})

    # beta: 50 observed coefficients, Jeffreys prior, exact observation.
    # The optimum (M - 2) / ||dev||_H^2 sits near beta_true, well inside
    # the log-beta bracket [-12, 12].
    order, m = 128, 50
    q = rng.standard_normal(8)
    lam = 1.0 / (PI2 * np.arange(1, order + 1) ** 2)
    c0 = np.zeros(order)
    c0[:8] = lam[:8] * q
    beta_true = float(np.exp(rng.uniform(np.log(2.0), np.log(50.0))))
    observed = c0[:m] + np.sqrt(lam[:m] / beta_true) * rng.standard_normal(m)
    dev2 = float(np.sum((observed - c0[:m]) ** 2 / lam[:m]))
    b.job("beta", ["beta"],
          {"kernel": {"family": "bridge", "dim": 1, "order": order},
           "source": {"coefficients": q.tolist()}, "mesh_size": m,
           "observed": {"coefficients": observed.tolist()}, "sigma2": 0.0,
           "hyper": {"kind": "jeffreys"}},
          {"kind": "beta", "beta": (m - 2) / dev2}, fmt="json")

    # invert: linear family of three coefficient-space components,
    # observed on 40 coefficients with a prior deviation at beta_true.
    order, m, comps = 64, 40, 3
    lam = 1.0 / (PI2 * np.arange(1, order + 1) ** 2)
    qs = rng.standard_normal((comps, order)) / np.arange(1, order + 1)
    theta = rng.uniform(-3.0, 3.0, comps)
    beta_true = float(np.exp(rng.uniform(np.log(5.0), np.log(50.0))))
    observed = (lam * (theta @ qs))[:m] + np.sqrt(lam[:m] / beta_true) * rng.standard_normal(m)
    b.job("invert", ["invert"],
          {"kernel": {"family": "bridge", "dim": 1, "order": order},
           "family": {"components": [{"coefficients": row.tolist()} for row in qs]},
           "observed": {"coefficients": observed.tolist()}, "sigma2": 1e-10,
           "hyper": {"kind": "jeffreys"}},
          {"kind": "invert_linear", "theta": theta.tolist()}, fmt="json")

    # study model-error: three nonzero eps, so no row hits the Dirac limit.
    eps = np.sort(rng.uniform(0.2, 2.0, 3))
    b.job("model_error", ["study", "model-error"],
          {"kernel": {"family": "bridge", "dim": 1, "order": 64}, "mesh_size": 20,
           "eps_values": eps.tolist(), "hyper": {"kind": "flat"}},
          {"kind": "model_error", "rows": 3})
    return b.jobs


# --- grid-2d3d ---------------------------------------------------------------
# Why: the dense N x S^d basis matrices dominate.  With a 50 x 50 grid
# for the 2D fit and 8^3 for the 3D fit, `spectral.basis_matrix` self
# time was about 2.7 s of 3.3 s and 6.2 s of 6.7 s in-process.
# Regression is prediction-heavy here: one factorization, then many
# cross-kernel rows.  Target of ROADMAP item 3 (grid prediction by
# tensor synthesis).

def grid_2d3d(seed: int, workdir: str) -> list[dict]:
    rng = np.random.default_rng([seed, 2])
    b = _JobSet("grid-2d3d", workdir)

    # fit 2D, S = 64, n = 400 scattered points, 30 x 30 grid.
    spec = {"family": "bridge", "dim": 2, "order": 64, "beta": 1.0}
    source = {"expression": "2*pi^2*sin(pi*x1)*sin(pi*x2)"}
    x = _interior(rng, 400, 2)
    a = float(rng.uniform(-0.5, 0.5))
    y = (np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
         + a * np.sin(2 * np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
         + 0.01 * rng.standard_normal(len(x)))
    data = _write_points(b.path("fit2d_data.csv"), x, y)
    b.job("fit2d", ["fit"], {"kernel": spec, "source": source, "data": {"path": data},
                             "sigma2": 1e-4, "grid": 30},
          {"kind": "fit", "kernel": spec, "source": source, "data": data, "sigma2": 1e-4})

    # solve 2D, S = 64, grid 41, product-sine source.
    c = float(rng.uniform(0.5, 3.0))
    k1, k2 = (int(v) for v in rng.integers(1, 5, 2))
    b.job("solve2d", ["solve"],
          {"kernel": {"family": "bridge", "dim": 2, "order": 64},
           "source": {"expression": "c*sin(k1*pi*x1)*sin(k2*pi*x2)",
                      "parameters": {"c": c, "k1": k1, "k2": k2}},
           "grid": 41},
          {"kind": "solve", "terms": [[c / (PI2 * (k1 * k1 + k2 * k2)), [k1, k2]]]})

    # fit 3D, S = 32, n = 60 scattered points, 6 x 6 x 6 grid.
    spec = {"family": "bridge", "dim": 3, "order": 32, "beta": 1.0}
    source = {"expression": "3*pi^2*sin(pi*x1)*sin(pi*x2)*sin(pi*x3)"}
    x = _interior(rng, 60, 3)
    y = (np.prod(np.sin(np.pi * x), axis=1) * float(rng.uniform(0.8, 1.2))
         + 0.01 * rng.standard_normal(len(x)))
    data = _write_points(b.path("fit3d_data.csv"), x, y)
    b.job("fit3d", ["fit"], {"kernel": spec, "source": source, "data": {"path": data},
                             "sigma2": 1e-4, "grid": 6},
          {"kind": "fit", "kernel": spec, "source": source, "data": data, "sigma2": 1e-4})
    return b.jobs


# --- calibrate-1d ------------------------------------------------------------
# Why: many factorizations per dataset and few predictions, the other
# way round from grid-2d3d.  The linear invert on n = 650 points runs
# one Cholesky per beta it tries (121 grid points plus the refinement);
# the expression invert rebuilds and refactors the Gram on every BFGS
# call of `log_marginal` (about 40-50 calls).  The 1D bridge kernel has a
# closed form, so the spectral grid path barely runs.  Target of ROADMAP
# item 2, and the only workload that runs `harness.convergence_study`.

def calibrate_1d(seed: int, workdir: str, n_invert: int = 650) -> list[dict]:
    rng = np.random.default_rng([seed, 3])
    b = _JobSet("calibrate-1d", workdir)

    # Point data from a known theta on two sine sources, plus a prior
    # deviation at beta_true and observation noise, so the evidence
    # peaks inside the bracket.  The solution of -u'' = sin(k pi x) is
    # sin(k pi x) / (k pi)^2.
    n = n_invert
    x = _interior(rng, n, 1, 0.001)
    theta = rng.uniform(2.0, 8.0, 2) * rng.choice([-1.0, 1.0], 2)
    beta_true = float(np.exp(rng.uniform(-0.5, 0.5)))
    y = (theta[0] * np.sin(np.pi * x) / PI2 + theta[1] * np.sin(2 * np.pi * x) / (4 * PI2)
         + _bridge_deviation(rng, x, beta_true) + 0.01 * rng.standard_normal(n))
    data = _write_points(b.path("invert_data.csv"), x, y)
    kernel = {"family": "bridge", "dim": 1, "order": 128}
    b.job("invert_linear", ["invert"],
          {"kernel": kernel,
           "family": {"components": [{"expression": "sin(pi*x)"},
                                     {"expression": "sin(2*pi*x)"}]},
           "data": {"path": data}, "sigma2": 1e-4, "hyper": {"kind": "flat"}},
          {"kind": "invert_linear", "theta": theta.tolist()}, fmt="json")
    # Same model written as an expression family, at a fixed beta: BFGS
    # calls `log_marginal` (one Gram build and Cholesky each) until it
    # lands on the generalized-least-squares answer at that beta.
    b.job("invert_expression", ["invert"],
          {"kernel": kernel,
           "family": {"expression": "a*sin(pi*x) + b*sin(2*pi*x)", "free": ["a", "b"]},
           "data": {"path": data}, "sigma2": 1e-4,
           "hyper": {"kind": "fixed", "beta0": 1.0},
           "init": np.round(theta).tolist()},
          {"kind": "invert_expression", "modes": [1, 2], "beta": 1.0, "sigma2": 1e-4,
           "data": data}, fmt="json")

    # fit 1D, n = 1000 scattered points, grid 1001.
    n = 1000
    x = _interior(rng, n, 1, 0.001)
    spec = {"family": "bridge", "dim": 1, "beta": 1.0}
    source = {"expression": "pi^2*sin(pi*x)"}
    y = (np.sin(np.pi * x) + _bridge_deviation(rng, x, 50.0)
         + 0.01 * rng.standard_normal(n))
    data = _write_points(b.path("fit_data.csv"), x, y)
    b.job("fit", ["fit"], {"kernel": spec, "source": source, "data": {"path": data},
                           "sigma2": 1e-4, "grid": 1001},
          {"kind": "fit", "kernel": spec, "source": source, "data": data, "sigma2": 1e-4})

    # study convergence over ns {100, 200, 400, 800}, misspecified prior.
    a = float(rng.uniform(0.2, 1.0))
    b.job("convergence", ["study", "convergence"],
          {"kernel": {"family": "bridge", "dim": 1},
           "assumed_source": {"expression": "0"},
           "truth": {"expression": f"sin(pi*x) + {a!r}*x*(1-x)"},
           "ns": [100, 200, 400, 800], "grid": 1001},
          {"kind": "convergence", "rows": 4})
    return b.jobs


# --- sample-mc ---------------------------------------------------------------
# Why: the only workload where `sampling` does most of the work.  At
# 100k draws `sample_coefficients` was about 3.9 s of 4.4 s in-process,
# and building one Philox generator per draw about 2.0 s of that.
# Target of ROADMAP item 4 (one sampler, block-keyed streams).

def sample_mc(seed: int, workdir: str) -> list[dict]:
    rng = np.random.default_rng([seed, 4])
    b = _JobSet("sample-mc", workdir)

    # prior, 1D, S = 512, 50k moment draws on the default 101-point grid.
    beta, c = float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 3.0))
    b.job("prior1d", ["sample"],
          {"kernel": {"family": "bridge", "dim": 1, "beta": beta},
           "source": {"expression": "c*sin(pi*x)", "parameters": {"c": c}},
           "moment_draws": 50000, "count": 3, "mode": "prior",
           "seed": int(rng.integers(0, 2**31))},
          {"kind": "sample_prior", "dim": 1, "order": 512, "beta": beta,
           "mean_terms": [[c / PI2, [1]]], "draws": 50000})

    # posterior, 1D, n = 300, grid 401, 10k draws.
    n = 300
    x = _interior(rng, n, 1, 0.01)
    c = float(rng.uniform(0.5, 2.0))
    y = (c * np.sin(np.pi * x) / PI2 + _bridge_deviation(rng, x, 20.0)
         + 0.01 * rng.standard_normal(n))
    data = _write_points(b.path("posterior_data.csv"), x, y)
    b.job("posterior1d", ["sample"],
          {"kernel": {"family": "bridge", "dim": 1, "beta": 20.0},
           "source": {"expression": "c*sin(pi*x)", "parameters": {"c": c}},
           "data": {"path": data}, "sigma2": 1e-4, "grid": 401,
           "moment_draws": 10000, "count": 3, "mode": "posterior",
           "seed": int(rng.integers(0, 2**31))},
          {"kind": "sample_posterior", "beta": 20.0, "mean_terms": [[c / PI2, [1]]],
           "data": data, "sigma2": 1e-4, "draws": 10000})

    # prior, 2D, S = 32, grid 41, 4096 draws, zero mean.
    beta = float(rng.uniform(0.5, 4.0))
    b.job("prior2d", ["sample"],
          {"kernel": {"family": "bridge", "dim": 2, "order": 32, "beta": beta},
           "grid": 41, "moment_draws": 4096, "count": 3, "mode": "prior",
           "seed": int(rng.integers(0, 2**31))},
          {"kind": "sample_prior", "dim": 2, "order": 32, "beta": beta,
           "mean_terms": [], "draws": 4096})
    return b.jobs


# --- compute-mix -------------------------------------------------------------
# Why: the three compute workloads above in one round, so that one gated
# workload covers basis matrices, factorizations and Monte Carlo draws.
# On a 2-vCPU machine whose speed drifts by 10-20% over seconds, a run
# has to measure for tens of seconds to give a steady median.  The time
# budget for all runs allows about 45 s per run with two gated workloads,
# and about 20 s with four.  Two rounds of all ten jobs would not fit in
# 45 s, so the round keeps one job per mechanism: the 3D fit (basis
# matrices), both inversions (factorizations), the convergence study
# (`harness`), and both 1D samplers (per-draw streams, posterior
# covariance), with the inversions on 500 points instead of 650.  A
# round takes about 21 s.  The single-purpose workloads
# stay runnable for a per-layer look at one mechanism.

COMPUTE_MIX_SKIP = ("grid-2d3d/fit2d", "grid-2d3d/solve2d", "calibrate-1d/fit",
                    "sample-mc/prior2d")


def compute_mix(seed: int, workdir: str) -> list[dict]:
    jobs = (grid_2d3d(seed, workdir) + calibrate_1d(seed, workdir, n_invert=500)
            + sample_mc(seed, workdir))
    return [job for job in jobs if job["id"] not in COMPUTE_MIX_SKIP]


GENERATORS = {
    "cli-light": cli_light,
    "grid-2d3d": grid_2d3d,
    "calibrate-1d": calibrate_1d,
    "sample-mc": sample_mc,
    "compute-mix": compute_mix,
}


def generate(workload: str, seed: int, workdir: str) -> list[dict]:
    """Write the workload's inputs under `workdir` and return its jobs."""
    return GENERATORS[workload](seed, workdir)
