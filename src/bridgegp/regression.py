"""Gaussian-process regression against the physics prior, and the
hyperparameter machinery built on top of it.

The prior is u ~ GP(u0, beta^{-1} k) with u0 a forward PDE solution
and k a kernel from `kernels`.  Point data y = u(X) + noise gives the
usual conjugate posterior; the same posterior mean solves a kernel
ridge problem

    min_u  (1/n) sum_i (u(x_i) - y_i)^2 + eta ||u - u0||_H^2

with eta = sigma^2 * beta / n, where ||.||_H is the beta = 1 native
norm.  Both routes are implemented separately (`condition` works with
the beta-scaled covariance, `krr_solve` with the beta = 1 Gram) so the
equivalence is a checkable property rather than a definition.

Observing coefficients instead of point values makes everything
diagonal; that route powers the marginal-likelihood calibration of
beta, its closed-form gradient, and linear/nonlinear source inversion.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import kernels, pde, spectral
from .errors import NumericalError, OrderMismatchError, SingularSystemError

logger = logging.getLogger(__name__)

NOISE_FLOOR = 1e-12

LOG_BETA_RANGE = (-12.0, 12.0)


@dataclass(frozen=True)
class Dataset:
    """Point observations y_i = u(x_i) + eps_i with iid noise.

    Parameters
    ----------
    X : ndarray
        Locations, (n,) for dim 1 or (n, d); must lie in the closed
        unit cube.
    y : ndarray
        Observed values, shape (n,).
    sigma2 : float
        Noise variance; values below 1e-12 are floored to 1e-12 with a
        warning, since dense Gram solves are not trustworthy below
        that.
    """

    X: np.ndarray
    y: np.ndarray
    sigma2: float

    def __post_init__(self):
        x = np.asarray(self.X, dtype=float)
        dim = 1 if x.ndim <= 1 else x.shape[1]
        pts = spectral.validate_points(x, dim)
        y = np.array(np.asarray(self.y, dtype=float).reshape(-1))
        if y.size != pts.shape[0]:
            raise ValueError(f"{pts.shape[0]} points but {y.size} values")
        if pts.shape[0] == 0:
            raise ValueError("dataset must contain at least one observation")
        if not np.all(np.isfinite(y)):
            raise ValueError("observations must be finite")
        s2 = float(self.sigma2)
        if not np.isfinite(s2) or s2 < 0.0:
            raise ValueError(f"sigma2 must be finite and nonnegative, got {self.sigma2}")
        if s2 < NOISE_FLOOR:
            warnings.warn(
                f"sigma2 = {s2:.3e} floored to {NOISE_FLOOR:.0e} for Gram stability"
            )
            s2 = NOISE_FLOOR
        pts = np.array(pts)
        pts.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "X", pts)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "sigma2", s2)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class HyperPrior:
    """Prior on the trust weight beta: flat, Jeffreys, or a point mass."""

    kind: str
    beta0: float | None = None

    def __post_init__(self):
        if self.kind not in ("flat", "jeffreys", "fixed"):
            raise ValueError(f"unknown hyper prior {self.kind!r}")
        if self.kind == "fixed":
            if self.beta0 is None or not np.isfinite(self.beta0) or self.beta0 <= 0:
                raise ValueError("fixed hyper prior needs a positive beta0")
            object.__setattr__(self, "beta0", float(self.beta0))
        elif self.beta0 is not None:
            raise ValueError(f"beta0 is only meaningful for kind='fixed'")

    def log_density(self, beta: float) -> float:
        if self.kind == "jeffreys":
            return -float(np.log(beta))
        return 0.0

    def dlog_density(self, beta: float) -> float:
        if self.kind == "fixed":
            raise ValueError("a point-mass prior has no density gradient")
        if self.kind == "jeffreys":
            return -1.0 / beta
        return 0.0


FLAT = HyperPrior("flat")
JEFFREYS = HyperPrior("jeffreys")


def fixed(beta0: float) -> HyperPrior:
    return HyperPrior("fixed", beta0)


class PosteriorModel:
    """Conjugate GP posterior from point data.

    Exposes the posterior mean, covariance, and pointwise variance; the
    variance is clamped at zero (tiny negative values are round-off and
    are logged, never returned).  It needs V = K / beta + sigma2 I at
    the spec's beta only, so it Cholesky-factors V once with
    `kernels.SpdSolver` and keeps the factor, not the Gram.
    """

    def __init__(self, spec: kernels.KernelSpec, prior, data: Dataset):
        if data.dim != spec.dim:
            raise OrderMismatchError(
                f"data dimension {data.dim} does not match spec dimension {spec.dim}"
            )
        self.spec = spec
        self.prior = pde.prior_mean(prior, spec)
        self.data = data
        self.eta = data.sigma2 * spec.beta / data.n
        # V = K / beta + sigma2 I, factored once; the Gram is not kept.
        self._solver = kernels.SpdSolver(
            kernels.kernel_matrix(spec, data.X) + data.sigma2 * np.eye(data.n)
        )
        self._weights = self._solver.solve(data.y - spectral.evaluate(self.prior, data.X))

    def _cross(self, x) -> np.ndarray:
        return kernels.kernel_matrix(self.spec, x, self.data.X)

    def mean(self, x):
        """Posterior mean at a point or batch of points."""
        pts, single = spectral.as_point_batch(x, self.spec.dim)
        vals = spectral.evaluate(self.prior, pts) + self._cross(pts) @ self._weights
        return float(vals[0]) if single else vals

    def cov(self, x, x2=None) -> np.ndarray:
        """Posterior covariance matrix between two batches of points."""
        a = spectral.validate_points(x, self.spec.dim)
        b = a if x2 is None else spectral.validate_points(x2, self.spec.dim)
        ka = self._cross(a)
        kb = ka if x2 is None else self._cross(b)
        out = kernels.kernel_matrix(self.spec, a, b) - ka @ self._solver.solve(kb.T)
        if x2 is None:
            out = 0.5 * (out + out.T)
        return out

    def var(self, x) -> np.ndarray:
        """Pointwise posterior variance, clamped at zero."""
        pts = spectral.validate_points(x, self.spec.dim)
        ka = self._cross(pts)
        v = kernels.kernel_diag(self.spec, pts) - np.einsum(
            "ij,ji->i", ka, self._solver.solve(ka.T)
        )
        worst = v.min() if v.size else 0.0
        if worst < -1e-10:
            warnings.warn(f"clamping negative posterior variance {worst:.3e} to zero")
        elif worst < 0.0:
            logger.debug("clamping negative posterior variance %.3e to zero", worst)
        if worst < 0.0:
            v = np.maximum(v, 0.0)
        return v


def condition(spec: kernels.KernelSpec, prior, data: Dataset) -> PosteriorModel:
    """Condition the GP prior (mean from `prior`, covariance from `spec`)
    on point data."""
    return PosteriorModel(spec, prior, data)


class KrrSolution:
    """Representer-theorem solution of the ridge problem.

    Minimizes (1/n) sum (u(x_i) - y_i)^2 + eta ||u - u0||_H^2 over the
    native space of the beta = 1 kernel; the solution is u0 plus a
    kernel expansion over the data sites.
    """

    def __init__(self, spec, prior, data: Dataset, eta: float):
        if eta <= 0 or not np.isfinite(eta):
            raise ValueError(f"eta must be finite and positive, got {eta}")
        self.spec = spec
        self.prior = pde.prior_mean(prior, spec)
        self.data = data
        self.eta = eta
        # beta = 1 Gram via exact rescaling (kernel_matrix includes the 1/beta).
        k1 = spec.beta * kernels.kernel_matrix(spec, data.X)
        solver = kernels.SpdSolver(k1 + data.n * eta * np.eye(data.n))
        self.alpha = solver.solve(data.y - spectral.evaluate(self.prior, data.X))

    def __call__(self, x):
        pts = spectral.validate_points(x, self.spec.dim)
        cross1 = self.spec.beta * kernels.kernel_matrix(self.spec, pts, self.data.X)
        vals = spectral.evaluate(self.prior, pts) + cross1 @ self.alpha
        return vals


def krr_solve(spec: kernels.KernelSpec, prior, data: Dataset, eta: float) -> KrrSolution:
    """Solve the kernel ridge problem; at eta = sigma2 * beta / n the
    evaluator coincides with the posterior mean of `condition`."""
    return KrrSolution(spec, prior, data, eta)


@dataclass(frozen=True)
class PointObservations:
    """Point-evaluation measurement model wrapping a Dataset."""

    data: Dataset

    @property
    def n(self) -> int:
        return self.data.n


@dataclass(frozen=True)
class CoefficientObservations:
    """Direct observation of the first M canonical coefficients.

    The per-coefficient noise variance may be exactly zero: the algebra
    is diagonal, so no Gram solve is involved and the point-data noise
    floor does not apply.
    """

    values: np.ndarray
    sigma2: float = 0.0

    def __post_init__(self):
        v = np.array(np.asarray(self.values, dtype=float).reshape(-1))
        if v.size == 0 or not np.all(np.isfinite(v)):
            raise ValueError("observed coefficients must be a nonempty finite vector")
        s2 = float(self.sigma2)
        if not np.isfinite(s2) or s2 < 0.0:
            raise ValueError(f"sigma2 must be finite and nonnegative, got {self.sigma2}")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "sigma2", s2)

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class CustomObservations:
    """A user-supplied observation map R acting on coefficient vectors.

    `apply` maps an (M,) coefficient vector to n observables and
    `jacobian` returns the (n, M) derivative; the jacobian is validated
    against central differences along random directions at
    construction (relative error below 1e-4).
    """

    y: np.ndarray
    gamma: np.ndarray
    apply: callable
    jacobian: callable
    n_coeffs: int

    def __post_init__(self):
        y = np.array(np.asarray(self.y, dtype=float).reshape(-1))
        g = np.array(np.asarray(self.gamma, dtype=float).reshape(-1))
        if g.size == 1:
            g = np.full(y.size, float(g[0]))
        if g.size != y.size or np.any(g <= 0) or not np.all(np.isfinite(g)):
            raise ValueError("gamma must give a positive noise variance per observation")
        y.flags.writeable = False
        g.flags.writeable = False
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "n_coeffs", int(self.n_coeffs))
        self._validate_jacobian()

    def _validate_jacobian(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal(self.n_coeffs)
        jac = np.asarray(self.jacobian(c), dtype=float)
        if jac.shape != (self.y.size, self.n_coeffs):
            raise ValueError(
                f"jacobian shape {jac.shape} != {(self.y.size, self.n_coeffs)}"
            )
        h = 1e-6
        for _ in range(3):
            v = rng.standard_normal(self.n_coeffs)
            v /= np.linalg.norm(v)
            fd = (np.asarray(self.apply(c + h * v)) - np.asarray(self.apply(c - h * v))) / (2 * h)
            jv = jac @ v
            err = np.linalg.norm(fd - jv) / max(np.linalg.norm(jv), 1e-12)
            if err > 1e-4:
                raise ValueError(
                    f"jacobian disagrees with finite differences (relative error {err:.2e})"
                )

    @property
    def n(self) -> int:
        return self.y.size


class _MarginalCovariance:
    """Marginal covariance V(beta) = K / beta + sigma2 I of the observations.

    The one place that knows V for each observation model.  The beta = 1
    covariance K = U diag(w) U^T is decomposed once, so V(beta) =
    U diag(w / beta + sigma2) U^T costs O(n) plus rotations per beta.
    Point data take one eigendecomposition of the Gram, which is not
    kept; coefficient data are diagonal (w the leading kernel eigenvalues,
    U the identity, no rotation).  A variance w / beta + sigma2 <= 0 gets
    `kernels.SpdSolver`'s jitter rule once (1e-12 times their mean,
    logged); if one stays <= 0, SingularSystemError is raised.
    """

    def __init__(self, spec: kernels.KernelSpec, obs):
        if isinstance(obs, CoefficientObservations):
            self._w, self._u = _leading_eigenvalues(spec, obs.n), None
            self.sigma2 = obs.sigma2
        elif isinstance(obs, PointObservations):
            k1 = kernels.kernel_matrix(spec.with_beta(1.0), obs.data.X)
            self._w, self._u = scipy.linalg.eigh(
                k1, overwrite_a=True, check_finite=False, driver="evd"
            )
            self.sigma2 = obs.data.sigma2
        else:
            raise TypeError(f"unsupported observation model {type(obs).__name__}")
        self.n = obs.n

    def _variances(self, beta: float) -> np.ndarray:
        """The eigenvalues w / beta + sigma2 of V(beta), after the floor."""
        v = self._w / beta + self.sigma2
        if v.min() <= 0.0:
            jitter = kernels._JITTER_SCALE * np.mean(v)
            logger.info("marginal covariance at beta %.3e: adding jitter %.3e", beta, jitter)
            v = v + jitter
            if v.min() <= 0.0:
                raise SingularSystemError(
                    f"marginal covariance at beta {beta:.3e} is not positive definite "
                    f"after jitter {jitter:.3e}"
                )
        return v

    def _rotate(self, mat) -> np.ndarray:
        """U^T mat: coordinates in the eigenbasis of V."""
        mat = np.asarray(mat, dtype=float)
        return mat if self._u is None else self._u.T @ mat

    def solve(self, beta: float, mat) -> np.ndarray:
        """V(beta)^{-1} applied to a vector or to the columns of a matrix."""
        v = self._variances(beta)
        z = self._rotate(mat)
        z = z / (v if z.ndim == 1 else v[:, None])
        return z if self._u is None else self._u @ z

    def log_density(self, beta: float, resid) -> float:
        """Log-density of the residual under N(0, V(beta))."""
        v = self._variances(beta)
        r = self._rotate(resid)
        return float(
            -0.5 * r @ (r / v)
            - 0.5 * float(np.sum(np.log(v)))
            - 0.5 * self.n * np.log(2.0 * np.pi)
        )


def _coeff_moments(lam, c0, obs: CoefficientObservations, beta: float):
    """Posterior mean and variance per coefficient under identity observation."""
    if obs.sigma2 == 0.0:
        return np.array(obs.values), np.zeros(obs.n)
    tvar = 1.0 / (beta / lam + 1.0 / obs.sigma2)
    tmean = tvar * (obs.values / obs.sigma2 + beta * c0 / lam)
    return tmean, tvar


def _leading_eigenvalues(spec: kernels.KernelSpec, m: int) -> np.ndarray:
    if m > spec.n_coeffs:
        raise OrderMismatchError(
            f"cannot observe {m} coefficients of a {spec.n_coeffs}-coefficient expansion"
        )
    return kernels.eigenvalues(spec)[:m]


def _coeff_prefix(spec: kernels.KernelSpec, prior, m: int):
    return _leading_eigenvalues(spec, m), pde.prior_mean(prior, spec).coeffs[:m]


def closed_form_beta(spec: kernels.KernelSpec, prior, observed,
                     hyper: HyperPrior) -> tuple[float, float]:
    """Closed-form trust weight for exactly observed leading coefficients.

    Returns the squared native-norm deviation
    dev2 = sum (observed_alpha - c0_alpha)^2 / lambda_alpha of the M
    observed coefficients from the prior mean, and the beta that
    maximizes the evidence in the noise-free limit: M / dev2 under a
    flat prior, (M - 2) / dev2 under Jeffreys, infinite when dev2 = 0.
    """
    if hyper.kind == "fixed":
        raise ValueError("the closed form needs a flat or Jeffreys hyper prior")
    observed = np.asarray(observed, dtype=float).reshape(-1)
    lam, c0 = _coeff_prefix(spec, prior, observed.size)
    dev2 = float(np.sum((observed - c0) ** 2 / lam))
    numerator = observed.size if hyper.kind == "flat" else observed.size - 2
    return dev2, (numerator / dev2 if dev2 > 0 else np.inf)


def _check_beta(beta) -> float:
    beta = float(beta)
    if not np.isfinite(beta) or beta <= 0:
        raise ValueError(f"beta must be finite and positive, got {beta}")
    return beta


def _residual(mean: spectral.SpectralField, obs) -> np.ndarray:
    """Observations minus what the prior mean predicts for them."""
    if isinstance(obs, CoefficientObservations):
        return obs.values - mean.coeffs[: obs.n]
    return obs.data.y - spectral.evaluate(mean, obs.data.X)


def log_marginal(spec: kernels.KernelSpec, prior, obs, beta: float | None = None) -> float:
    """Log marginal likelihood of the observations with u integrated out.

    For point data this is the Gaussian density of y under mean u0(X)
    and covariance beta^{-1} K_XX + sigma2 I; for coefficient data the
    covariance is diagonal with entries lambda_alpha / beta + sigma2.
    `beta` overrides the spec's trust weight.  Each call builds its own
    covariance, so for point data every call computes the n x n Gram
    and eigendecomposes it.  `beta_map` and `invert_source` evaluate the
    same density from one covariance per dataset instead, so their
    searches build and decompose the Gram once, and each beta they try
    costs no factorization.
    """
    beta = _check_beta(spec.beta if beta is None else beta)
    marginal = _MarginalCovariance(spec, obs)
    return marginal.log_density(beta, _residual(pde.prior_mean(prior, spec), obs))


def beta_gradient(spec: kernels.KernelSpec, prior, obs: CoefficientObservations,
                  beta: float, hyper: HyperPrior = FLAT) -> float:
    """Closed-form d/d beta of the log posterior of beta.

    Valid for coefficient observations, where the posterior over the
    observed coefficients is diagonal: with posterior moments
    (m_alpha, s_alpha),

        grad = M / (2 beta) + d log p(beta)
               - 1/2 sum (m_alpha - c0_alpha)^2 / lambda_alpha
               - 1/2 sum s_alpha / lambda_alpha.
    """
    if not isinstance(obs, CoefficientObservations):
        raise TypeError("the closed-form gradient requires coefficient observations")
    lam, c0 = _coeff_prefix(spec, prior, obs.n)
    tmean, tvar = _coeff_moments(lam, c0, obs, beta)
    return float(
        obs.n / (2.0 * beta)
        + hyper.dlog_density(beta)
        - 0.5 * np.sum((tmean - c0) ** 2 / lam)
        - 0.5 * np.sum(tvar / lam)
    )


@dataclass(frozen=True)
class BetaMapResult:
    """Outcome of the trust-weight calibration."""

    beta: float
    log_beta: float
    objective: float
    boundary: str | None = None

    @property
    def dirac_limit(self) -> bool:
        """True when the search ran into the upper bracket: the evidence
        wants beta -> infinity, i.e. the prior mean explains the data."""
        return self.boundary == "upper"


def _maximize_over_log_beta(objective):
    """Grid scan then golden-section refinement of a scalar objective
    over log beta in the fixed bracket."""
    lo, hi = LOG_BETA_RANGE
    grid = np.linspace(lo, hi, 121)

    def safe(t):
        val = objective(float(t))
        return -np.inf if not np.isfinite(val) else float(val)

    vals = np.array([safe(t) for t in grid])
    best = int(np.argmax(vals))
    if vals[best] == -np.inf:
        raise NumericalError("the beta objective is not finite anywhere in the bracket")
    if best == 0:
        return grid[0], vals[0], "lower"
    if best == len(grid) - 1:
        return grid[-1], vals[-1], "upper"
    import scipy.optimize  # deferred import: keeps `import bridgegp` light

    try:
        res = scipy.optimize.minimize_scalar(
            lambda t: -safe(t),
            bracket=(grid[best - 1], grid[best], grid[best + 1]),
            method="golden",
            options={"xtol": 1e-10},
        )
        t_star = float(np.clip(res.x, lo, hi))
    except ValueError:
        # Flat neighborhood; the grid point is as good as any.
        t_star = float(grid[best])
    return t_star, safe(t_star), None


def beta_map(spec: kernels.KernelSpec, prior, obs, hyper: HyperPrior) -> BetaMapResult:
    """Maximum a posteriori trust weight over log beta in [-12, 12].

    Scans a coarse grid, then golden-section refines to 1e-10 in log
    beta.  A maximizer at either end of the bracket is returned as-is
    with a boundary flag and a warning; the upper end means the Dirac
    limit (the data never contradict the prior mean).
    """
    if hyper.kind == "fixed":
        raise ValueError("beta_map needs a flat or Jeffreys hyper prior")
    marginal = _MarginalCovariance(spec, obs)
    resid = _residual(pde.prior_mean(prior, spec), obs)

    def objective(t):
        b = float(np.exp(t))
        return marginal.log_density(b, resid) + hyper.log_density(b)

    t_star, value, boundary = _maximize_over_log_beta(objective)
    if boundary is not None:
        warnings.warn(f"beta search terminated at the {boundary} bracket boundary")
    return BetaMapResult(float(np.exp(t_star)), t_star, value, boundary)


def calibration_row(spec: kernels.KernelSpec, prior, obs: CoefficientObservations,
                    hyper: HyperPrior) -> dict:
    """`beta_map` beside `closed_form_beta` for the same observations.

    Keys: beta_star, log_beta, objective, boundary ('' inside the
    bracket), dirac_limit (0 or 1), deviation_norm2, formula_beta, and
    ratio = beta_star / formula_beta (None when the formula is infinite).
    """
    res = beta_map(spec, prior, obs, hyper)
    dev2, formula = closed_form_beta(spec, prior, obs.values, hyper)
    return {"beta_star": res.beta, "log_beta": res.log_beta, "objective": res.objective,
            "boundary": res.boundary or "", "dirac_limit": int(res.dirac_limit),
            "deviation_norm2": dev2, "formula_beta": formula,
            "ratio": res.beta / formula if np.isfinite(formula) else None}


@dataclass(frozen=True)
class InversionResult:
    """Posterior summary for source parameters theta (and beta)."""

    theta_mean: np.ndarray
    theta_cov: np.ndarray
    flat_directions: np.ndarray
    beta: float
    objective: float
    boundary: str | None
    method: str
    converged: bool = True


def _gls_design(obs, family: pde.LinearSourceFamily, spec: kernels.KernelSpec):
    """Affine observation map theta -> A theta + b: returns A, the data
    minus b, and the marginal covariance V(beta) of the data."""
    marginal = _MarginalCovariance(spec, obs)
    lam_full = kernels.eigenvalues(spec)
    q_cols, q_off = family.coefficient_design(spec.dim, spec.order)
    u_cols = lam_full[:, None] * q_cols
    u_off = lam_full * q_off
    if isinstance(obs, CoefficientObservations):
        return u_cols[: obs.n], obs.values - u_off[: obs.n], marginal
    psi = spectral.basis_matrix(spec.dim, spec.order, obs.data.X)
    return psi @ u_cols, obs.data.y - psi @ u_off, marginal


def _pseudo_posterior(a, resid, marginal: _MarginalCovariance, beta):
    """Eigen-based pseudo-solve of the normal equations at one beta."""
    wa = marginal.solve(beta, a)
    prec = a.T @ wa
    prec = 0.5 * (prec + prec.T)
    rhs = wa.T @ resid
    eigvals, eigvecs = np.linalg.eigh(prec)
    tol = max(eigvals.max(), 0.0) * 1e-10
    keep = eigvals > tol
    inv = np.zeros_like(eigvals)
    inv[keep] = 1.0 / eigvals[keep]
    mean = eigvecs @ (inv * (eigvecs.T @ rhs))
    cov = (eigvecs * inv) @ eigvecs.T
    flat = eigvecs[:, ~keep].T
    return mean, cov, flat


def invert_source(obs, family, hyper: HyperPrior, spec: kernels.KernelSpec,
                  init=None) -> InversionResult:
    """Infer source parameters theta jointly with the trust weight.

    Linear families get the exact Gaussian theta-posterior: the profile
    likelihood (theta at its conditional mean) is maximized over beta,
    and the conditional moments at that beta are returned.  Designs
    with fewer effective directions than parameters are reported via
    `flat_directions` (the unidentified combinations); the mean uses
    the pseudo-inverse and no exception is raised.

    Expression families with nonlinear parameters are optimized by
    quasi-Newton descent on the joint negative log posterior; `init` is
    required in that case.  Their covariance is the Laplace
    approximation: the conditional moments at the optimal beta of the
    forward map theta -> u0 linearized at the optimal theta (its Jacobian
    by central differences), i.e. what the linear branch returns for that
    linearization, flat directions included.
    """
    if family.n_params > obs.n:
        raise ValueError(
            f"{family.n_params} parameters but only {obs.n} observations"
        )
    if isinstance(family, pde.LinearSourceFamily):
        a, resid, marginal = _gls_design(obs, family, spec)

        def profile(beta):
            mean, _, _ = _pseudo_posterior(a, resid, marginal, beta)
            return marginal.log_density(beta, resid - a @ mean)

        if hyper.kind == "fixed":
            beta_star, boundary = hyper.beta0, None
            objective = profile(beta_star)
        else:
            t_star, objective, boundary = _maximize_over_log_beta(
                lambda t: profile(float(np.exp(t))) + hyper.log_density(float(np.exp(t)))
            )
            beta_star = float(np.exp(t_star))
        mean, cov, flat = _pseudo_posterior(a, resid, marginal, beta_star)
        return InversionResult(mean, cov, flat, beta_star, objective, boundary, "linear")
    if isinstance(family, pde.ExpressionSourceFamily):
        if init is None:
            raise ValueError("nonlinear inversion needs an initial theta")
        theta0 = np.asarray(init, dtype=float).reshape(-1)
        if theta0.size != family.n_params:
            raise ValueError(f"init has {theta0.size} entries, expected {family.n_params}")
        m = family.n_params
        marginal = _MarginalCovariance(spec, obs)

        def resid_at(theta):
            return _residual(pde.solve(family.source_at(theta), spec).u0, obs)

        def neg_log_post(z):
            theta = z[:m]
            beta = hyper.beta0 if hyper.kind == "fixed" else float(np.exp(z[m]))
            try:
                beta = _check_beta(beta)
                val = marginal.log_density(beta, resid_at(theta))
            except (ValueError, FloatingPointError):
                return np.inf
            if hyper.kind != "fixed":
                val += hyper.log_density(beta)
            return -val if np.isfinite(val) else np.inf

        z0 = theta0 if hyper.kind == "fixed" else np.append(theta0, 0.0)
        import scipy.optimize  # deferred import: keeps `import bridgegp` light

        res = scipy.optimize.minimize(
            neg_log_post, z0, method="BFGS", options={"gtol": 1e-8, "maxiter": 500}
        )
        theta = res.x[:m]
        beta_star = hyper.beta0 if hyper.kind == "fixed" else float(np.exp(res.x[m]))
        boundary = None
        if hyper.kind != "fixed":
            if res.x[m] <= LOG_BETA_RANGE[0]:
                boundary = "lower"
            elif res.x[m] >= LOG_BETA_RANGE[1]:
                boundary = "upper"
        # Laplace covariance: the conditional moments at beta* of the
        # forward map linearized at theta*, J by central differences.
        steps = 1e-5 * np.maximum(1.0, np.abs(theta))
        jac = np.column_stack([
            (resid_at(theta - h * e) - resid_at(theta + h * e)) / (2.0 * h)
            for h, e in zip(steps, np.eye(m))
        ])
        _, cov, flat = _pseudo_posterior(jac, resid_at(theta), marginal, beta_star)
        # BFGS differentiates numerically, so its gradient cannot drop
        # below ~|f| * 1.5e-8 of forward-difference noise; a "precision
        # loss" exit with the gradient at that floor is a converged run.
        grad_norm = float(np.linalg.norm(np.atleast_1d(res.jac)))
        converged = bool(res.success) or grad_norm <= 1e-5 * (1.0 + abs(float(res.fun)))
        return InversionResult(
            theta, cov, flat, beta_star, float(-res.fun), boundary, "laplace",
            converged=converged,
        )
    raise TypeError(f"unsupported source family {type(family).__name__}")


@dataclass(frozen=True)
class MapEstimate:
    """Penalized maximum a posteriori field estimate."""

    field: spectral.SpectralField
    converged: bool
    iterations: int
    grad_norm: float
    objective: float


def map_nonlinear(obs, source: pde.SourceModel, spec: kernels.KernelSpec,
                  init=None, maxiter: int = 500) -> MapEstimate:
    """Minimize data misfit plus the scaled native-norm penalty.

    Solves min_c Phi(c) + (beta/2) ||c - c0||_H^2 over coefficient
    vectors, where Phi is half the Gamma-weighted squared residual of
    the observation map and c0 solves the PDE for `source`.  The
    optimizer works in whitened variables z = (c - c0) / sqrt(lambda /
    beta), which makes the penalty the identity and keeps quasi-Newton
    steps well scaled; convergence means the whitened gradient norm
    fell below 1e-8 within `maxiter` iterations.

    One-dimensional only: the coefficient count equals the order.
    """
    if spec.dim != 1:
        raise ValueError("the nonlinear estimator is one-dimensional")
    prior = pde.solve(source, spec) if not isinstance(source, pde.PdeSolution) else source
    c0 = prior.u0.coeffs
    lam = kernels.eigenvalues(spec)
    scale = np.sqrt(lam / spec.beta)

    if isinstance(obs, PointObservations):
        psi = spectral.basis_matrix(spec.dim, spec.order, obs.data.X)
        y = obs.data.y
        gamma = np.full(obs.data.n, obs.data.sigma2)

        def apply(c):
            return psi @ c

        def jacobian(_c):
            return psi
    elif isinstance(obs, CustomObservations):
        if obs.n_coeffs != spec.n_coeffs:
            raise OrderMismatchError(
                f"observation map acts on {obs.n_coeffs} coefficients, "
                f"spec has {spec.n_coeffs}"
            )
        y, gamma, apply, jacobian = obs.y, obs.gamma, obs.apply, obs.jacobian
    else:
        raise TypeError(f"unsupported observation model {type(obs).__name__}")

    def objective(z):
        c = c0 + scale * z
        resid = y - np.asarray(apply(c), dtype=float)
        phi = 0.5 * np.sum(resid**2 / gamma)
        grad = -scale * (np.asarray(jacobian(c), dtype=float).T @ (resid / gamma)) + z
        return phi + 0.5 * z @ z, grad

    z0 = np.zeros(spec.n_coeffs) if init is None else (
        (np.asarray(init, dtype=float).reshape(-1) - c0) / scale
    )
    import scipy.optimize  # deferred import: keeps `import bridgegp` light

    res = scipy.optimize.minimize(
        objective, z0, jac=True, method="L-BFGS-B",
        options={"maxiter": maxiter, "ftol": 1e-18, "gtol": 1e-12},
    )
    z, iterations = res.x, int(res.nit)
    value, grad = objective(z)
    # Quasi-Newton stalls a little above the target once rounding in the
    # misfit dominates; a few Gauss-Newton steps (exact for linear
    # observation maps) push the gradient to the contract.
    for _ in range(3):
        if np.linalg.norm(grad) < 1e-8 or iterations >= maxiter:
            break
        c = c0 + scale * z
        jw = np.asarray(jacobian(c), dtype=float) / np.sqrt(gamma)[:, None] * scale
        step = np.linalg.solve(jw.T @ jw + np.eye(z.size), -grad)
        trial_value, trial_grad = objective(z + step)
        if not np.isfinite(trial_value) or trial_value > value + 1e-12 * abs(value):
            break
        z, value, grad = z + step, trial_value, trial_grad
        iterations += 1
    grad_norm = float(np.linalg.norm(grad))
    converged = grad_norm < 1e-8 and iterations < maxiter
    field = spectral.SpectralField(spec.dim, spec.order, c0 + scale * z)
    return MapEstimate(field, converged, iterations, grad_norm, float(value))
