"""Oracle checks for job artifacts.

Every check uses a route independent of the one being timed, with
tolerances fixed here before any measurement:

    fit              mean against `krr_solve` at eta = sigma2 * beta / n on
                     up to 64 grid rows (relative 1e-8); sd finite, >= 0
    solve            analytic solution of the sine source (relative 1e-9)
    sample (prior)   mean and variance against the prior: 1D variance is
                     x(1-x)/beta up to the truncation tail 2/(pi^2 S beta),
                     2D uses the truncated Mercer sum; both within a
                     6-sigma Monte Carlo bound
    sample (post.)   mean and variance against a dense closed-form bridge
                     posterior computed here in numpy, 6-sigma bound
    beta             beta_star against (M - 2) / ||dev||_H^2 (relative 1e-6)
    invert, linear   every theta within 5 posterior sd of the generating theta
    invert, expr.    theta within 0.05 sd of a dense GLS solve at the same beta
    studies          finite values; convergence: decreasing error, slope < 0;
                     model-error: ratio to the closed form within 1e-6

Byte digests are deliberately not compared: the golden `fit` fixture
already differs in the last 1-2 ULPs between machines.

A `boundary` flag in a beta or invert artifact fails the check.
"""

from __future__ import annotations

import json
import math

import numpy as np

PI2 = np.pi**2
MC_SIGMAS = 6.0


class OracleError(Exception):
    """An artifact disagrees with its oracle."""


def _num(token: str):
    if token == "":
        return None
    try:
        return float(token)
    except ValueError:
        return token


def read_artifact(path: str) -> tuple[dict, list[str], list[list]]:
    """Return (extras, columns, rows) of a CSV or JSON artifact."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        payload = json.loads(text)
        return payload["extras"], payload["columns"], payload["rows"]
    extras: dict = {}
    lines = text.splitlines()
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            extras[key] = value
        else:
            body.append(line)
    columns = body[0].split(",")
    rows = [[_num(tok) for tok in line.split(",")] for line in body[1:]]
    return extras, columns, rows


def _table(path: str):
    extras, columns, rows = read_artifact(path)
    return extras, {c: [r[i] for r in rows] for i, c in enumerate(columns)}, columns


def _points(cols: dict, columns: list[str]) -> np.ndarray:
    names = [c for c in columns if c == "x" or (c.startswith("x") and c[1:].isdigit())]
    return np.array([cols[c] for c in names], dtype=float).T


def _sine_sum(pts: np.ndarray, terms) -> np.ndarray:
    out = np.zeros(pts.shape[0])
    for amp, ks in terms:
        out += amp * np.prod([np.sin(k * np.pi * pts[:, i]) for i, k in enumerate(ks)], axis=0)
    return out


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleError(message)


def _single_row(path: str) -> dict:
    _, columns, rows = read_artifact(path)
    _require(len(rows) == 1, f"expected one row, got {len(rows)}")
    return dict(zip(columns, rows[0]))


def _load_points(path: str):
    arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return arr[:, :-1], arr[:, -1]


class Oracle:
    """Checks artifacts; caches the expensive reference of each job."""

    def __init__(self):
        self._refs: dict[str, object] = {}

    def check(self, job: dict) -> None:
        """Raise OracleError unless the job's artifact passes its oracle."""
        spec = job["check"]
        getattr(self, "_" + spec["kind"])(job, spec)

    def _ref(self, job: dict, build):
        if job["id"] not in self._refs:
            self._refs[job["id"]] = build()
        return self._refs[job["id"]]

    # -- fit / solve --------------------------------------------------------

    def _fit(self, job, spec):
        _, cols, columns = _table(job["out"])
        pts = _points(cols, columns)
        mean = np.array(cols["mean"], dtype=float)
        sd = np.array(cols["sd"], dtype=float)
        _require(np.all(np.isfinite(sd)) and np.all(sd >= 0.0), "sd not finite and >= 0")
        rows = np.unique(np.linspace(0, len(mean) - 1, min(64, len(mean))).astype(int))
        ref = self._ref(job, lambda: _krr_reference(spec, pts[rows]))
        scale = 1.0 + float(np.max(np.abs(ref)))
        err = float(np.max(np.abs(mean[rows] - ref)))
        _require(err <= 1e-8 * scale, f"fit mean differs from krr_solve by {err:.3e}")

    def _solve(self, job, spec):
        _, cols, columns = _table(job["out"])
        pts = _points(cols, columns)
        ref = _sine_sum(pts, spec["terms"])
        err = float(np.max(np.abs(np.array(cols["u0"], dtype=float) - ref)))
        scale = 1.0 + float(np.max(np.abs(ref)))
        _require(err <= 1e-9 * scale, f"solve differs from the analytic solution by {err:.3e}")

    # -- sampling -----------------------------------------------------------

    def _moments(self, cols, columns, draws, mean_ref, var_ref, var_slack):
        mean = np.array(cols["mean"], dtype=float)
        sd = np.array(cols["sd"], dtype=float)
        tol_mean = MC_SIGMAS * np.sqrt(var_ref / draws) + 1e-9
        bad = np.abs(mean - mean_ref) > tol_mean
        _require(not bad.any(), f"sample mean outside the Monte Carlo bound at {bad.sum()} points")
        tol_var = MC_SIGMAS * np.sqrt(2.0 / draws) * var_ref + var_slack + 1e-10
        bad = np.abs(sd**2 - var_ref) > tol_var
        _require(not bad.any(),
                 f"sample variance outside the Monte Carlo bound at {bad.sum()} points")

    def _sample_prior(self, job, spec):
        _, cols, columns = _table(job["out"])
        pts = _points(cols, columns)
        beta, order = spec["beta"], spec["order"]
        mean_ref = _sine_sum(pts, spec["mean_terms"])
        if spec["dim"] == 1:
            x = pts[:, 0]
            var_ref = x * (1.0 - x) / beta
            slack = 2.0 / (PI2 * order * beta)
        else:
            var_ref = self._ref(job, lambda: _truncated_prior_var_2d(pts, order, beta))
            slack = 0.0
        self._moments(cols, columns, spec["draws"], mean_ref, var_ref, slack)

    def _sample_posterior(self, job, spec):
        _, cols, columns = _table(job["out"])
        pts = _points(cols, columns)[:, 0]
        mean_ref, var_ref = self._ref(job, lambda: _bridge_posterior(spec, pts))
        self._moments(cols, columns, spec["draws"], mean_ref, var_ref, 0.0)

    # -- calibration and inversion -----------------------------------------

    def _beta(self, job, spec):
        row = _single_row(job["out"])
        _require(not row["boundary"], f"beta search hit the {row['boundary']} boundary")
        rel = abs(row["beta_star"] / spec["beta"] - 1.0)
        _require(rel <= 1e-6, f"beta_star off the closed form by {rel:.3e} (relative)")

    def _invert_common(self, row, m):
        _require(not row["boundary"], f"invert hit the {row['boundary']} boundary")
        _require(row["converged"] == 1, "invert did not converge")
        theta = np.array([row[f"theta_{j}"] for j in range(m)], dtype=float)
        cov = np.array([[row[f"cov_{i}_{j}"] for j in range(m)] for i in range(m)], dtype=float)
        _require(np.all(np.isfinite(theta)) and np.all(np.isfinite(cov)), "non-finite theta")
        return theta, np.sqrt(np.abs(np.diag(cov)))

    def _invert_linear(self, job, spec):
        truth = np.array(spec["theta"])
        row = _single_row(job["out"])
        _require(row["n_flat_directions"] == 0, "unidentified theta directions")
        theta, sd = self._invert_common(row, truth.size)
        z = np.abs(theta - truth) / sd
        _require(np.all(z <= 5.0), f"theta {z.max():.2f} posterior sd from the truth")

    def _invert_expression(self, job, spec):
        m = len(spec["modes"])
        theta, _ = self._invert_common(_single_row(job["out"]), m)
        ref, sd = self._ref(job, lambda: _gls_reference(spec))
        z = np.abs(theta - ref) / sd
        _require(np.all(z <= 0.05), f"BFGS theta {z.max():.3f} sd from the GLS answer")

    # -- studies ------------------------------------------------------------

    def _model_error(self, job, spec):
        _, cols, _ = _table(job["out"])
        _require(len(cols["eps"]) == spec["rows"], "wrong number of study rows")
        _require(not any(cols["boundary"]), "model-error row hit a bracket boundary")
        ratio = np.array(cols["ratio"], dtype=float)
        _require(np.all(np.abs(ratio - 1.0) <= 1e-6), "beta_star off the closed form")

    def _convergence(self, job, spec):
        extras, cols, _ = _table(job["out"])
        _require(len(cols["n"]) == spec["rows"], "wrong number of study rows")
        values = np.array([cols[c] for c in ("fill", "l2_error", "var_integral", "sd_l2")],
                          dtype=float)
        _require(np.all(np.isfinite(values)), "non-finite study values")
        err = values[1]
        _require(np.all(np.diff(err) < 0.0), "L2 error does not decrease under refinement")
        slope = float(extras["slope"])
        _require(math.isfinite(slope) and slope < 0.0, f"slope {slope} is not negative")


def _krr_reference(spec: dict, pts: np.ndarray) -> np.ndarray:
    """Posterior mean by the kernel-ridge route, at eta = sigma2 * beta / n."""
    from bridgegp import kernels, pde, regression

    kspec = kernels.KernelSpec(spec["kernel"]["family"], dim=spec["kernel"]["dim"],
                               order=spec["kernel"].get("order"),
                               beta=spec["kernel"].get("beta", 1.0))
    src = spec["source"]
    prior = pde.solve(pde.ClosedFormSource(src["expression"], src.get("parameters")), kspec)
    x, y = _load_points(spec["data"])
    data = regression.Dataset(x[:, 0] if kspec.dim == 1 else x, y, spec["sigma2"])
    eta = data.sigma2 * kspec.beta / data.n
    return regression.krr_solve(kspec, prior, data, eta)(pts)


def _gls_reference(spec: dict):
    """GLS theta for u = sum_k theta_k sin(k pi x) / (k pi)^2 at a fixed beta.

    The covariance is the dense 1D bridge, (min(x, y) - x y) / beta plus
    sigma2 on the diagonal.  Returns the estimate and its sd.
    """
    x, y = _load_points(spec["data"])
    x = x[:, 0]
    cov = (np.minimum(x[:, None], x[None, :]) - np.outer(x, x)) / spec["beta"]
    cov += spec["sigma2"] * np.eye(x.size)
    design = np.stack([np.sin(k * np.pi * x) / (PI2 * k * k) for k in spec["modes"]], axis=1)
    w = np.linalg.solve(cov, design)
    prec = design.T @ w
    theta = np.linalg.solve(prec, w.T @ y)
    return theta, np.sqrt(np.diag(np.linalg.inv(prec)))


def _truncated_prior_var_2d(pts: np.ndarray, order: int, beta: float) -> np.ndarray:
    """sum over n, m <= S of 4 sin^2(n pi x) sin^2(m pi y) / (pi^2 (n^2 + m^2) beta)."""
    n = np.arange(1, order + 1)
    sx = np.sin(np.pi * np.outer(pts[:, 0], n)) ** 2
    sy = np.sin(np.pi * np.outer(pts[:, 1], n)) ** 2
    lam = 1.0 / (PI2 * (n[:, None] ** 2 + n[None, :] ** 2))
    return 4.0 * np.einsum("pi,ij,pj->p", sx, lam, sy) / beta


def _bridge_posterior(spec: dict, g: np.ndarray):
    """Dense 1D bridge posterior, k(x, y) = (min(x, y) - x y) / beta."""
    x, y = _load_points(spec["data"])
    x = x[:, 0]
    beta, s2 = spec["beta"], spec["sigma2"]

    def k(a, b):
        return (np.minimum(a[:, None], b[None, :]) - np.outer(a, b)) / beta

    a = k(x, x) + s2 * np.eye(x.size)
    kgx = k(g, x)
    resid = y - _sine_sum(x[:, None], spec["mean_terms"])
    mean = _sine_sum(g[:, None], spec["mean_terms"]) + kgx @ np.linalg.solve(a, resid)
    var = (g - g * g) / beta - np.einsum("ij,ji->i", kgx, np.linalg.solve(a, kgx.T))
    return mean, np.maximum(var, 0.0)
