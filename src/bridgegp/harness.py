"""Design diagnostics and reproducible studies.

Two studies mirror the two failure axes of the method: `convergence_study`
tracks posterior error and uncertainty as point designs refine, and
`model_error_study` tracks the calibrated trust weight as the truth is
pushed away from the prior mean along a fixed direction.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels, pde, regression, spectral
from .record import Factory, Record


class DesignMetrics(Record):
    """Fill distance, separation radius, and their mesh ratio."""

    n: int
    fill: float
    separation: float

    @property
    def mesh_ratio(self) -> float:
        return self.fill / self.separation


def design_metrics(x) -> DesignMetrics:
    """Space-filling diagnostics of a 1D point design in [0, 1].

    Exact, from the sorted design x_(1) <= ... <= x_(n): the fill distance
    sup_x min_i |x - x_i| is max(x_(1), 1 - x_(n), half the largest gap),
    and the separation radius is half the smallest gap.  Designs need at
    least two distinct points; a design of several columns raises ValueError.
    """
    xs = np.sort(spectral.validate_points(x, 1)[:, 0])
    if xs.size < 2:
        raise ValueError("design metrics need at least two points")
    gaps = np.diff(xs)
    separation = 0.5 * float(gaps.min())
    if separation == 0.0:
        raise ValueError("design contains duplicate points")
    fill = max(float(xs[0]), float(1.0 - xs[-1]), 0.5 * float(gaps.max()))
    return DesignMetrics(xs.size, fill, separation)


class StudyReport(Record):
    """Rows plus headline numbers from one study run."""

    kind: str
    params: dict
    columns: tuple
    rows: tuple
    extras: dict = Factory(dict)


def _l2_on_grid(values: np.ndarray, grid: np.ndarray) -> float:
    return float(np.sqrt(np.trapezoid(values**2, grid)))


def _t_two_sided(t: float, df: int) -> float:
    """P(|T| <= t) for Student's t with integer df >= 1, t >= 0
    (Abramowitz & Stegun 26.7.3-4), the series summed by Horner's rule."""
    cos2 = df / (df + t * t)
    sin = t / math.sqrt(df + t * t)
    series = 1.0
    if df % 2 == 0:
        for k in range(df // 2 - 1, 0, -1):
            series = 1.0 + cos2 * (2 * k - 1) / (2 * k) * series
        return sin * series
    theta = math.atan(t / math.sqrt(df))
    if df == 1:
        return 2.0 * theta / math.pi
    for k in range((df - 1) // 2 - 1, 0, -1):
        series = 1.0 + cos2 * (2 * k) / (2 * k + 1) * series
    return 2.0 / math.pi * (theta + sin * math.sqrt(cos2) * series)


# A cap on the Newton steps of `_t_quantile`; from t = 0 they take at most
# 25 for p <= 1 - 1e-6 at any df.
_QUANTILE_STEPS = 100


def _t_quantile(df: int, p: float) -> float:
    """Quantile of Student's t with integer df >= 1 at 1/2 < p < 1.

    Newton on P(|T| <= t) = 2p - 1 from t = 0.  That CDF is concave for
    t >= 0, so the iterates increase monotonically to the root; they stop
    once a step no longer moves t.
    """
    target = 2.0 * p - 1.0
    log_density0 = (math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
                    - 0.5 * math.log(df * math.pi))
    t = 0.0
    for _ in range(_QUANTILE_STEPS):
        density = math.exp(log_density0 - (df + 1) / 2 * math.log1p(t * t / df))
        step = (target - _t_two_sided(t, df)) / (2.0 * density)
        if not t + step > t:
            break
        t += step
    return t


def fit_loglog_slope(fills, errors):
    """Slope of log(error) against log(1/fill) with a 95% half-width.

    Errors decaying like fill^a come out as slope -a, so refinement
    studies report negative slopes.  Needs at least three rows.  Slope
    and standard error follow `scipy.stats.linregress`; the half-width
    takes Student's t quantile at n - 2 degrees of freedom from its
    closed-form CDF (`_t_quantile`).
    """
    fills = np.asarray(fills, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if fills.size < 3:
        raise ValueError("a slope fit needs at least three refinement levels")
    ssxm, ssxym, _, ssym = np.cov(np.log(1.0 / fills), np.log(errors), bias=1).flat
    if ssxm == 0.0:
        raise ValueError("a slope fit needs at least two distinct fill distances")
    df = fills.size - 2
    if ssym == 0.0:
        return 0.0, 0.0  # constant errors: an exact fit with slope zero
    r = float(np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0))
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / df)
    return float(ssxym / ssxm), float(_t_quantile(df, 0.975) * stderr)


def convergence_study(truth, assumed_source, spec: kernels.KernelSpec, ns,
                      sigma2: float = 1e-8, seed: int = 0,
                      noise_sigma2: float = 0.0, grid: int = 2001) -> StudyReport:
    """Posterior error and uncertainty under design refinement (dim 1).

    For each n the design is the interior uniform grid {i/(n+1)}, the
    data are y = truth(X) (plus optional Gaussian noise), and the
    posterior uses the possibly misspecified prior mean solved from
    `assumed_source`.  sigma2 is deliberately tiny by default: the
    point is the data-rich regime, where a noise floor would mask the
    refinement rate.

    Reports per n: the fill distance, the L2 error of the posterior
    mean against the truth, and the integrated posterior variance (and
    its square root).  The headline slope is the log-log regression of
    the L2 error against the design density 1/h, with a 95% confidence
    half-width; an h^a error decay therefore shows up as slope -a.
    """
    if spec.dim != 1:
        raise ValueError("the convergence study is one-dimensional")
    ns = [int(n) for n in ns]
    if any(n < 1 for n in ns) or sorted(set(ns)) != ns:
        raise ValueError("ns must be strictly increasing positive integers")
    prior = pde.solve(assumed_source, spec) if assumed_source is not None else None
    grid_x = np.linspace(0.0, 1.0, int(grid))
    truth_on_grid = np.asarray(truth(grid_x), dtype=float)
    rows = []
    fills, errors = [], []
    for n in ns:
        x = np.arange(1, n + 1) / (n + 1.0)
        y = np.asarray(truth(x), dtype=float)
        if noise_sigma2 > 0.0:
            rng = np.random.default_rng([seed, n])
            y = y + rng.normal(scale=np.sqrt(noise_sigma2), size=n)
        post = regression.condition(spec, prior, regression.Dataset(x, y, sigma2))
        mean, var = post.on_grid(grid_x)
        err = _l2_on_grid(mean - truth_on_grid, grid_x)
        var_int = float(np.trapezoid(var, grid_x))
        metrics = design_metrics(x)
        rows.append({
            "n": n,
            "fill": metrics.fill,
            "l2_error": err,
            "var_integral": var_int,
            "sd_l2": float(np.sqrt(var_int)),
        })
        fills.append(metrics.fill)
        errors.append(err)
    extras = {"slope": None, "slope_half_width": None}
    if len(ns) >= 3:
        slope, half = fit_loglog_slope(fills, errors)
        extras = {"slope": slope, "slope_half_width": half}
    params = {"ns": ns, "sigma2": sigma2, "noise_sigma2": noise_sigma2,
              "seed": seed, "grid": int(grid)}
    return StudyReport("convergence", params,
                       ("n", "fill", "l2_error", "var_integral", "sd_l2"),
                       tuple(rows), extras)


def model_error_study(spec: kernels.KernelSpec, mesh_size: int, eps_values,
                      hyper: regression.HyperPrior = regression.FLAT,
                      sigma2: float = 0.0, prior=None, seed: int = 0) -> StudyReport:
    """Calibrated trust weight against controlled model error.

    The truth is the prior mean plus eps times the first basis
    function; its leading `mesh_size` coefficients are observed with
    variance `sigma2` (zero by default: the observation is exact).
    Each row reports the calibrated beta, the closed-form prediction
    M / ||deviation||_H^2 (flat prior; M - 2 in place of M for
    Jeffreys), their ratio, and the bracket boundary flag.  At eps = 0
    the evidence is monotone in beta and the search reports the upper
    boundary, i.e. the Dirac limit.
    """
    if hyper.kind == "fixed":
        raise ValueError("the study calibrates beta; use a flat or Jeffreys prior")
    mesh_size = int(mesh_size)
    if not 1 <= mesh_size <= spec.n_coeffs:
        raise ValueError(f"mesh_size must be in [1, {spec.n_coeffs}]")
    prior_field = pde.prior_mean(prior, spec)
    c0 = prior_field.coeffs[:mesh_size]
    rows = []
    for eps in [float(e) for e in eps_values]:
        observed = np.array(c0)
        observed[0] += eps
        obs = regression.CoefficientObservations(observed, sigma2)
        rows.append({"eps": eps,
                     **regression.calibration_row(spec, prior_field, obs, hyper)})
    params = {"mesh_size": mesh_size, "hyper": hyper.kind, "sigma2": sigma2,
              "seed": seed}
    return StudyReport("model-error", params,
                       ("eps", "beta_star", "boundary", "dirac_limit",
                        "deviation_norm2", "formula_beta", "ratio"),
                       tuple(rows))
