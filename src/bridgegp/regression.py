"""Gaussian-process regression against the physics prior, and the
hyperparameter machinery built on top of it.

The prior is u ~ GP(u0, beta^{-1} k) with u0 a forward PDE solution
and k a kernel from `kernels`.  Point data y = u(X) + noise gives the
usual conjugate posterior; the same posterior mean solves a kernel
ridge problem

    min_u  (1/n) sum_i (u(x_i) - y_i)^2 + eta ||u - u0||_H^2

with eta = sigma^2 * beta / n, where ||.||_H is the beta = 1 native
norm.  Both routes are implemented separately (`condition` runs a Kalman
filter for the 1D bridge and works with the beta-scaled covariance
otherwise, `krr_solve` solves with the beta = 1 Gram by Cholesky) so the
equivalence is a checkable property rather than a definition.

Calibration of beta, source inversion and the conditioning of every
truncated kernel share one exact solver, `_MarginalCovariance`, which
eigendecomposes the beta = 1 marginal covariance once per dataset (diagonal
for observed coefficients).  Its `forms` rotate a set of observation-space
columns C once and return, as a function of an array of betas, C^T V^-1 C
and log det V, V = K / beta + sigma2 I, with their first two derivatives in
log beta; its `whitening` gives a square root of V^-1, which the posterior
uses.  Each beta search builds the forms of its columns once, and `_gls`
turns them into the generalized least squares step and its profile (C =
[a r]), which with no design columns is the evidence of the residual
(C = r).  Beta is found by a 121-point scan over log beta, one call, refined
by safeguarded Newton; theta by generalized least squares, which is exact
for linear source families and is the damped Gauss-Newton step, alternated
with the beta search, for nonlinear expression families.
"""

from __future__ import annotations

import functools
import logging
import warnings

import numpy as np

from . import kernels, pde, spectral
from .errors import NumericalError, OrderMismatchError, SingularSystemError
from .record import Record

logger = logging.getLogger(__name__)

NOISE_FLOOR = 1e-12

LOG_BETA_RANGE = (-12.0, 12.0)


class Dataset(Record):
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


class HyperPrior(Record):
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
            raise ValueError("beta0 is only meaningful for kind='fixed'")

    def log_density(self, beta):
        """log p(beta) up to a constant, elementwise for an array of betas."""
        out = -np.log(beta) if self.kind == "jeffreys" else np.zeros(np.shape(beta))
        return out if np.ndim(out) else float(out)

    def dlog_density(self, beta):
        """d log p / d beta, elementwise for an array of betas."""
        if self.kind == "fixed":
            raise ValueError("a point-mass prior has no density gradient")
        out = (-1.0 / np.asarray(beta, dtype=float) if self.kind == "jeffreys"
               else np.zeros(np.shape(beta)))
        return out if np.ndim(out) else float(out)


FLAT = HyperPrior("flat")
JEFFREYS = HyperPrior("jeffreys")


def fixed(beta0: float) -> HyperPrior:
    return HyperPrior("fixed", beta0)


def _clamp_variance(v: np.ndarray) -> np.ndarray:
    """Clamp negative variances (round-off) at zero; warn below -1e-10."""
    worst = v.min() if v.size else 0.0
    if worst < -1e-10:
        warnings.warn(f"clamping negative posterior variance {worst:.3e} to zero")
    elif worst < 0.0:
        logger.debug("clamping negative posterior variance %.3e to zero", worst)
    if worst < 0.0:
        v = np.maximum(v, 0.0)
    return v


class PosteriorModel:
    """Conjugate GP posterior from point data.

    Exposes the posterior mean, the pointwise variance (never negative:
    round-off below zero is clamped and logged) and, as the dense oracle of
    the tests, which no command calls, the covariance k(x, x') -
    k(x, X) V^-1 k(X, x'), V = K / beta + sigma2 I factored per call.

    The 1D bridge is a Markov process, so its posterior is exact in O(n + N)
    without a Gram matrix: one Kalman filter and smoother over the data sites
    (`_site_pass`) on the residual r = y - u0(X), all it keeps of the data, and
    the N query points filled in by the bridge between the sites around each,
    which is free of the data.  Every other kernel is a finite Mercer sum
    psi(x)^T Lambda psi(y) / beta, so its posterior lives in coefficient space
    (GPML section 2.1).  With Psi the basis at the data sites X and W W^T =
    V^-1 the whitening of `_MarginalCovariance`, the one factorization the
    evidence uses too, let G = Lambda Psi^T W / beta.  The mean is the field
    `mean_field`, c0 + G W^T r, the variance k(x, x) - |G^T psi(x)|^2, and
    `coefficient_draws` draws by pathwise conditioning; of V only G and the
    noise scale sqrt(1 - g) of `whitening` are kept.  G is the one n x S^d
    array held, written a block of its rows at a time
    (`spectral.basis_blocks`); `on_grid` evaluates both moments on a tensor
    grid by synthesis, without a basis matrix of the grid.
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
        self._resid = _residual(data, self.prior)
        if spec.closed_form:
            self.mean_field = None
            self._site_pass()
            return
        whiten, self._noise_sd = _MarginalCovariance(spec, data).whitening(spec.beta)
        self._lam = kernels._over_beta(kernels.eigenvalues(spec), spec.beta)
        # G = (Lambda Psi^T / beta) W, (S^d, n) in C order for `on_grid`,
        # written a block of basis columns (rows of G) at a time
        self._factor = np.empty((spec.n_coeffs, data.n))
        for start, block in spectral.basis_blocks(spec.dim, spec.order, data.X):
            stop = start + block.shape[1]
            block *= self._lam[start:stop]
            np.matmul(block.T, whiten, out=self._factor[start:stop])
        self.mean_field = spectral.SpectralField(
            spec.dim, spec.order, self.prior.coeffs + self._factor @ (whiten.T @ self._resid))

    def _site_pass(self):
        """Filter and smooth the residual over its knots `_knots`: 0, the sites
        inside (0, 1) ascending, and 1 (where the bridge is pinned, so sites
        there see only noise).  Keeps the smoothed means and variances there
        (`_smoothed`) and the backward kernels (`_backward`): f at knot i given
        the data and f at knot i + 1 has mean c_i f(knot i + 1) + d_i and
        variance v_i.  The filter steps once per observation in sorted order
        (repeats are steps of factor 1 and variance 0), the RTS smoother once
        per site; variances are sums of nonnegative terms."""
        x = self.data.X[:, 0]
        order = np.argsort(x, kind="stable")
        order = order[(x[order] > 0.0) & (x[order] < 1.0)]
        t = x[order]
        prev = np.concatenate([[0.0], t[:-1]])
        a = (1.0 - t) / (1.0 - prev)
        q = kernels._over_beta((t - prev) * a, self.spec.beta)
        s2, m, p, mf, pf, pp = self.data.sigma2, 0.0, 0.0, [], [], []
        for ai, qi, ri in zip(a.tolist(), q.tolist(), self._resid[order].tolist()):
            p = ai * ai * p + qi
            pp.append(p)
            g = p + s2
            m, p = (s2 * (ai * m) + p * ri) / g, p * s2 / g
            mf.append(m)
            pf.append(p)
        mf, pf, pp = np.array(mf), np.array(pf), np.array(pp)
        first = np.flatnonzero(np.diff(t, prepend=-1.0))  # each site's first observation
        mf, pf = (u[np.flatnonzero(np.diff(t, append=2.0))] for u in (mf, pf))  # and last
        # f(t_i) | f(t_{i+1}), data to t_i: mean c f(t_{i+1}) + w m_f, variance w P_f,
        # c = a P_f / P_p, w = q / P_p = 1 - c a (P_p, a, q of the step to t_{i+1},
        # 0 from the last site to 1); when P_p = 0, c = 0 and w = 1.
        a, q, pp = (np.append(u, 0.0)[np.append(first, t.size)[1:]] for u in (a, q, pp))
        c = np.divide(a * pf, pp, out=np.zeros(pp.size), where=pp != 0.0)
        w = np.divide(q, pp, out=np.ones(pp.size), where=pp != 0.0)
        c, d, v = (np.pad(u, 1) for u in (c, w * mf, w * pf))
        mean, var = [0.0], [0.0]
        for ci, di, vi in zip(c[-2:0:-1].tolist(), d[-2:0:-1].tolist(), v[-2:0:-1].tolist()):
            mean.append(ci * mean[-1] + di)
            var.append(ci * ci * var[-1] + vi)
        self._knots = np.concatenate([[0.0], t[first], [1.0]])
        self._smoothed = np.array([0.0] + mean[::-1]), np.array([0.0] + var[::-1])
        self._backward = c, d, v

    def _gaps(self, x):
        """Per 1D point x, the index of its knots a <= x < b (a < x = b at 1),
        x - a, and the weights w_a = (b - x) / (b - a) and w_b = 1 - w_a."""
        knots = self._knots
        lo = np.searchsorted(knots, x, side="right").clip(max=knots.size - 1) - 1
        a, b = knots[lo], knots[lo + 1]
        return lo, x - a, (b - x) / (b - a), (x - a) / (b - a)

    def _bridge_moments(self, x):
        """Smoothed mean and variance of the residual at 1D points `x`: given
        f(a) and f(b), f(x) is a bridge of variance (x - a) w_a / beta, free of
        the data, so its variance is that plus (w_a c_a + w_b)^2 P(b) +
        w_a^2 v_a, P the smoothed variance (P(a) itself at a knot)."""
        lo, h, wa, wb = self._gaps(x)
        mean, var = self._smoothed
        c, _, v = self._backward
        out = kernels._over_beta(h * wa, self.spec.beta) + (wa * c[lo] + wb) ** 2 * var[lo + 1]
        return wa * mean[lo] + wb * mean[lo + 1], out + wa**2 * v[lo]

    def knot_draws(self, xi):
        """Draws of the residual at the k knots inside (0, 1) from point-major
        normals xi (k, r), overwritten: leftwards from the last knot,
        f_i = c_i f_{i+1} + d_i + sqrt(v_i) xi[i] (Carter & Kohn, 1994)."""
        c, d, v = self._backward
        xi *= np.sqrt(v[1:-1])[:, None]
        xi += d[1:-1, None]
        for i, ci in zip(range(len(xi) - 2, -1, -1), c[-3:0:-1].tolist()):
            xi[i] += ci * xi[i + 1]

    def mean(self, x):
        """Posterior mean at a point or batch of points."""
        pts, single = spectral.as_point_batch(x, self.spec.dim)
        if self.mean_field is None:
            vals = spectral.evaluate(self.prior, pts) + self._bridge_moments(pts[:, 0])[0]
        else:
            vals = spectral.evaluate(self.mean_field, pts)
        return float(vals[0]) if single else vals

    def coefficient_draws(self, xi):
        """Draws by pathwise conditioning (Wilson et al., 2020) from point-major
        normals xi (S^d + n, r), overwritten: mean + s xi1 - G (G^T (xi1 / s) +
        sqrt(1 - g) xi2), s = sqrt(lambda / beta), is the prior draw c0 + s xi1
        less G W^T (Psi s xi1 + eps), of covariance Lambda / beta - G G^T."""
        head, noise = np.split(xi, [self._lam.size])
        scales = np.sqrt(self._lam)[:, None]
        update = self._factor.T @ (head / scales) + self._noise_sd[:, None] * noise
        head *= scales
        head += self.mean_field.coeffs[:, None]
        head -= self._factor @ update
        return head

    def cov(self, x, x2=None) -> np.ndarray:
        """Posterior covariance matrix between two batches of points."""
        a = spectral.validate_points(x, self.spec.dim)
        b = a if x2 is None else spectral.validate_points(x2, self.spec.dim)
        solver = kernels.SpdSolver(kernels.kernel_matrix(self.spec, self.data.X)
                                   + self.data.sigma2 * np.eye(self.data.n))
        za = solver.whiten(kernels.kernel_matrix(self.spec, self.data.X, a))
        zb = za if x2 is None else solver.whiten(kernels.kernel_matrix(self.spec, self.data.X, b))
        out = kernels.kernel_matrix(self.spec, a, b) - za.T @ zb
        return 0.5 * (out + out.T) if x2 is None else out

    def var(self, x) -> np.ndarray:
        """Pointwise posterior variance, clamped at zero."""
        pts = spectral.validate_points(x, self.spec.dim)
        if self.mean_field is None:
            return self._bridge_moments(pts[:, 0])[1]
        psi = spectral.basis_matrix(self.spec.dim, self.spec.order, pts)
        z = psi @ self._factor  # G^T psi = W^T k(X, pts), one row a point
        prior_var = np.einsum("ij,j,ij->i", psi, self._lam, psi)
        return _clamp_variance(prior_var - np.einsum("ij,ij->i", z, z))

    def on_grid(self, axis):
        """Posterior mean and variance on the tensor grid axis x ... x axis,
        flattened in C order (the last coordinate varies fastest).

        For the 1D bridge `axis` may be any points, filled from the site pass
        as by `mean` and `var`.  In coefficient space the mean is the synthesis
        of `mean_field`, the prior variance that of lambda / beta with squared
        tables, and the subtracted term that of the n columns of G, a chunk
        of first-axis coordinates at a time (`spectral.grid_tables` of width
        n), so a chunk's table and every step of the synthesis of its n
        columns stay within `spectral._GRID_BLOCK` values.
        """
        axis = spectral.validate_points(axis, 1)[:, 0]
        if self.mean_field is None:
            mean, var = self._bridge_moments(axis)
            return spectral.evaluate(self.prior, axis) + mean, var
        order, dim = self.spec.order, self.spec.dim
        factor = self._factor.reshape((order,) * dim + (-1,))
        mean, var = [], []
        for tables in spectral.grid_tables(axis, dim, order, factor.shape[-1]):
            mean.append(spectral.synthesize(self.mean_field.as_tensor(), tables))
            z = spectral.synthesize(factor, tables)
            explained = np.einsum("...j,...j->...", z, z)
            del z  # before the squared tables take as much
            var.append(spectral.synthesize(self._lam.reshape(factor.shape[:-1]),
                                           [t * t for t in tables]) - explained)
        return np.concatenate(mean).reshape(-1), _clamp_variance(np.concatenate(var).reshape(-1))


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
        self._unit = spec.with_beta(1.0)
        solver = kernels.SpdSolver(kernels.kernel_matrix(self._unit, data.X)
                                   + data.n * eta * np.eye(data.n))
        self.alpha = solver.solve(data.y - spectral.evaluate(self.prior, data.X))

    def __call__(self, x):
        pts = spectral.validate_points(x, self.spec.dim)
        cross = kernels.kernel_matrix(self._unit, pts, self.data.X)
        return spectral.evaluate(self.prior, pts) + cross @ self.alpha


def krr_solve(spec: kernels.KernelSpec, prior, data: Dataset, eta: float) -> KrrSolution:
    """Solve the kernel ridge problem; at eta = sigma2 * beta / n the
    evaluator coincides with the posterior mean of `condition`."""
    return KrrSolution(spec, prior, data, eta)


class CoefficientObservations(Record):
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


class _MarginalCovariance:
    """Marginal covariance V(beta) = K / beta + sigma2 I of the observations.

    The one place that knows V for each observation model, and its one
    factorization in production.  The beta = 1 covariance K = U diag(w) U^T
    is decomposed once, so V(beta) = U diag(v) U^T with v = w / beta + sigma2.
    Callers reach V through two methods: `forms`, which rotates a set of
    columns by U^T once and returns their quadratic forms and log determinant,
    with their log-beta derivatives, as a function of an array of betas, and
    `whitening`, a square root of V^-1 at one beta; each applies U itself.
    For a `Dataset` K is the Gram of `kernels.kernel_matrix`, which this
    class does not build itself; coefficient data are diagonal (w the leading
    kernel eigenvalues, U the identity).  A beta with a variance
    v <= 0 gets one jitter of 1e-12 times the mean of its v, logged; if one
    stays <= 0, SingularSystemError is raised.
    """

    def __init__(self, spec: kernels.KernelSpec, obs):
        if isinstance(obs, CoefficientObservations):
            self._w, self._u = _leading_eigenvalues(spec, obs.n), None
        elif isinstance(obs, Dataset):
            k1 = kernels.kernel_matrix(spec.with_beta(1.0), obs.X)
            self._w, self._u = np.linalg.eigh(k1)  # LAPACK syevd
        else:
            raise TypeError(f"unsupported observation model {type(obs).__name__}")
        self.sigma2, self.n = obs.sigma2, obs.n

    def _variances(self, betas):
        """The eigenvalues v = w / beta + sigma2 of V, one row per beta, after
        the jitter rule, and g = (w / beta) / v, so that dv/dt = -g v."""
        betas = np.asarray(betas, dtype=float).reshape(-1, 1)
        scaled = kernels._over_beta(self._w, betas)
        v = scaled + self.sigma2
        for i in np.flatnonzero(v.min(axis=1) <= 0.0):
            beta, jitter = betas[i, 0], kernels._JITTER_SCALE * np.mean(v[i])
            logger.info("marginal covariance at beta %.3e: adding jitter %.3e", beta, jitter)
            v[i] += jitter
            if v[i].min() <= 0.0:
                raise SingularSystemError(f"marginal covariance at beta {beta:.3e} is not "
                                          f"positive definite after jitter {jitter:.3e}")
        return v, scaled / v

    def forms(self, cols):
        """For observation-space columns C, (n, k) or a vector, the function
        of B betas that gives the forms Q_j = C^T (d^j V^-1 / dt^j) C, t =
        log beta, j = 0, 1, 2, as (3, B, k, k), and log det V with its first
        two t-derivatives, (3, B).  C is rotated to U^T C once, here; in that
        basis d^j (1 / v) / dt^j is 1 / v, g / v and g (2 g - 1) / v, and the
        log-det terms sum log v, -g and g (1 - g); a call is O(B n k^2)."""
        cols = np.asarray(cols, dtype=float).reshape(self.n, -1)
        if self._u is not None:  # U^T C; OpenBLAS takes U.T @ C at twice the time
            cols = (cols.T @ self._u).T
        k = cols.shape[1]
        products = (cols[:, :, None] * cols[:, None, :]).reshape(self.n, k * k)

        def at(betas):
            v, g = self._variances(betas)
            inv = 1.0 / v
            weights = np.stack([inv, g * inv, g * (2.0 * g - 1.0) * inv])
            logdet = np.stack([np.log(v), -g, g * (1.0 - g)]).sum(axis=2)
            return (weights @ products).reshape(3, -1, k, k), logdet
        return at

    def whitening(self, beta: float):
        """W = U diag(v)^-1/2 at one beta, so that W W^T = V^-1 (point data),
        and sqrt(1 - g), the standard deviation of W^T eps per noise normal:
        sigma2 / v = 1 - g."""
        v, g = self._variances([beta])
        return self._u / np.sqrt(v[0]), np.sqrt(1.0 - g[0])


def _leading_eigenvalues(spec: kernels.KernelSpec, m: int) -> np.ndarray:
    if m > spec.n_coeffs:
        raise OrderMismatchError(
            f"cannot observe {m} coefficients of a {spec.n_coeffs}-coefficient expansion"
        )
    return kernels.eigenvalues(spec)[:m]


def closed_form_beta(spec: kernels.KernelSpec, prior, observed,
                     hyper: HyperPrior) -> tuple[float, float]:
    """Closed-form trust weight for exactly observed leading coefficients.

    Returns the squared native-norm deviation
    dev2 = sum (observed_alpha - c0_alpha)^2 / lambda_alpha of the M
    observed coefficients from the prior mean, and the beta that
    maximizes the evidence in the noise-free limit: M / dev2 under a
    flat prior, (M - 2) / dev2 under Jeffreys, infinite when dev2 = 0.
    The Jeffreys evidence (M/2 - 1) log beta - beta dev2 / 2 has no
    interior maximum for M <= 2, so that case raises ValueError.
    """
    if hyper.kind == "fixed":
        raise ValueError("the closed form needs a flat or Jeffreys hyper prior")
    observed = np.asarray(observed, dtype=float).reshape(-1)
    if hyper.kind == "jeffreys" and observed.size <= 2:
        raise ValueError("a Jeffreys prior needs at least 3 observed coefficients, "
                         f"got {observed.size}")
    lam = _leading_eigenvalues(spec, observed.size)
    c0 = pde.prior_mean(prior, spec).coeffs[: observed.size]
    dev2 = float(np.sum((observed - c0) ** 2 / lam))
    numerator = observed.size if hyper.kind == "flat" else observed.size - 2
    return dev2, (numerator / dev2 if dev2 > 0 else np.inf)


def _check_beta(beta) -> float:
    beta = float(beta)
    if not np.isfinite(beta) or beta <= 0:
        raise ValueError(f"beta must be finite and positive, got {beta}")
    return beta


def _predicted(obs, field: spectral.SpectralField) -> np.ndarray:
    """What `field` predicts for the observations: its leading coefficients,
    or its values at the sites of a `Dataset`."""
    if isinstance(obs, CoefficientObservations):
        return field.coeffs[: obs.n]
    return spectral.evaluate(field, obs.X)


def _residual(obs, field: spectral.SpectralField) -> np.ndarray:
    """The observations minus what `field` predicts for them."""
    observed = obs.values if isinstance(obs, CoefficientObservations) else obs.y
    return observed - _predicted(obs, field)


def _evidence(spec: kernels.KernelSpec, prior, obs):
    """The log density of the observations' residual from the prior mean, a
    function of an array of betas: the GLS profile of no parameters (`_gls`'s
    tuple, the density first)."""
    forms = _MarginalCovariance(spec, obs).forms(_residual(obs, pde.prior_mean(prior, spec)))
    return functools.partial(_gls, forms, 0, obs.n)


def log_marginal(spec: kernels.KernelSpec, prior, obs, beta: float | None = None) -> float:
    """Log marginal likelihood of the observations with u integrated out.

    For point data this is the Gaussian density of y under mean u0(X)
    and covariance beta^{-1} K_XX + sigma2 I; for coefficient data the
    covariance is diagonal with entries lambda_alpha / beta + sigma2.
    `beta` overrides the spec's trust weight.  Each call decomposes its own
    marginal covariance; `beta_map` and `invert_source` decompose one per
    dataset for all the betas they try.
    """
    beta = _check_beta(spec.beta if beta is None else beta)
    return float(_evidence(spec, prior, obs)([beta])[0][0, 0])


def beta_gradient(spec: kernels.KernelSpec, prior, obs, beta: float,
                  hyper: HyperPrior = FLAT) -> float:
    """Exact d/d beta of the log posterior of beta, log_marginal plus the
    hyper prior's log density, for coefficient observations or a Dataset: with
    the forms of the residual r, -(r^T (dV^-1/dt) r + d log det V / dt) /
    (2 beta) + d log p(beta), t = log beta.
    """
    beta = _check_beta(beta)
    return float(_evidence(spec, prior, obs)([beta])[0][1, 0] / beta + hyper.dlog_density(beta))


class BetaMapResult(Record):
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


# Newton on log beta stops once a step is this small, or after this many
# iterations; a step this small has already landed within rounding of a
# simple maximum.
_LOG_BETA_STEP = 1e-12
_NEWTON_ITERATIONS = 100


def _maximize_over_log_beta(log_density, hyper: HyperPrior):
    """Maximize log_density(beta) + log p(beta) over log beta in the bracket.

    `log_density(betas)` returns, for an array of betas, the values and their
    first two derivatives in t = log beta, (3, B), then the arrays of the fit
    at each beta (`_gls`), one entry a beta; log p is linear in t (0 flat, -t
    Jeffreys).  The 121 grid points are evaluated in one call.  The best, if
    interior, is refined by Newton on the exact derivative between its two
    neighbours, bisecting when a step leaves the shrinking bracket or the
    curvature is not negative, one call per step, and the result is kept only
    if it is no worse.  Returns (t, value, boundary, the fit at t), the fit
    from the call that evaluated t, so no beta is evaluated twice.
    """
    def objective(t):
        beta = np.exp(t)
        out, *fit = log_density(beta)
        out[0] += hyper.log_density(beta)
        out[1] += beta * hyper.dlog_density(beta)
        out[0, ~np.isfinite(out[0])] = -np.inf
        return out, fit

    grid = np.linspace(*LOG_BETA_RANGE, 121)
    scan, fit = objective(grid)
    vals = scan[0]
    best = int(np.argmax(vals))
    if vals[best] == -np.inf:
        raise NumericalError("the beta objective is not finite anywhere in the bracket")
    fit = [a[best] for a in fit]
    if best in (0, len(grid) - 1):
        return grid[best], vals[best], "lower" if best == 0 else "upper", fit
    left, right, t = float(grid[best - 1]), float(grid[best + 1]), float(grid[best])
    value, d1, d2 = scan[:, best]
    for _ in range(_NEWTON_ITERATIONS):
        left, right = (t, right) if d1 > 0.0 else (left, t)
        new = t - d1 / d2 if d2 < 0.0 else np.nan
        t, last = (new if left <= new <= right else 0.5 * (left + right)), t
        out, step_fit = objective(np.array([t]))
        value, d1, d2 = out[:, 0]
        if abs(t - last) <= _LOG_BETA_STEP:
            break
    if value < vals[best]:
        return grid[best], vals[best], None, fit
    return float(t), float(value), None, [a[0] for a in step_fit]


def beta_map(spec: kernels.KernelSpec, prior, obs, hyper: HyperPrior) -> BetaMapResult:
    """Maximum a posteriori trust weight over log beta in [-12, 12].

    Scans a 121-point grid, then refines by safeguarded Newton on the
    exact log-beta derivative.  A maximizer at either end of the bracket
    is returned as-is with a boundary flag and a warning; the upper end
    means the Dirac limit (the data never contradict the prior mean).
    """
    if hyper.kind == "fixed":
        raise ValueError("beta_map needs a flat or Jeffreys hyper prior")
    t_star, value, boundary, _ = _maximize_over_log_beta(_evidence(spec, prior, obs), hyper)
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
    dev2, formula = closed_form_beta(spec, prior, obs.values, hyper)
    res = beta_map(spec, prior, obs, hyper)
    return {"beta_star": res.beta, "log_beta": res.log_beta, "objective": res.objective,
            "boundary": res.boundary or "", "dirac_limit": int(res.dirac_limit),
            "deviation_norm2": dev2, "formula_beta": formula,
            "ratio": res.beta / formula if np.isfinite(formula) else None}


class InversionResult(Record):
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
    """Affine observation map theta -> A theta + b: the forms of [A r], r the
    data minus b, as a function of beta, and the number p of columns of A.
    Column j of A is the prediction of component j's solution, b that of the
    offset's."""
    lam = kernels.eigenvalues(spec)
    q_cols, q_off = family.coefficient_design(spec.dim, spec.order)

    def solution(q):
        return spectral.SpectralField(spec.dim, spec.order, lam * q)

    design = [_predicted(obs, solution(q)) for q in q_cols.T]
    cols = np.column_stack(design + [_residual(obs, solution(q_off))])
    return _MarginalCovariance(spec, obs).forms(cols), len(design)


def _gls(forms, p: int, n: int, betas):
    """Eigen-based pseudo-solves of the normal equations at each of B betas,
    from `forms`, the forms Q_j of n observations' columns C = [a r] (a the
    design, its first p columns, r the residual), as a function of beta.

    The precision is P = Q0[a, a], theta* = P^+ Q0[a, r], and the residual
    e = r - a theta* = C z with z = [-theta*; 1], so its forms are z^T Q_j z.
    The profile log density is the log density of e; with p = 0 it is that
    of r, the evidence.  By the envelope theorem its log-beta derivative is
    the partial one at theta*; its second derivative adds c^T P^+ c for the
    motion of theta*, c = Q1[a, :] z.  Returns the profile and its two
    derivatives, (3, B), and per beta theta*, P^+, the eigenvectors of P,
    which of them are kept, and Q0[a, r].
    """
    quad, logdet = forms(betas)
    prec, rhs = quad[0, :, :p, :p], quad[0, :, :p, p]
    eigvals, eigvecs = np.linalg.eigh(0.5 * (prec + prec.swapaxes(1, 2)))
    keep = eigvals > eigvals.max(axis=1, keepdims=True, initial=0.0) * 1e-10
    inv = np.divide(1.0, eigvals, out=np.zeros_like(eigvals), where=keep)
    cov = (eigvecs * inv[:, None, :]) @ eigvecs.swapaxes(1, 2)
    mean = np.einsum("bij,bj->bi", cov, rhs)
    z = np.column_stack([-mean, np.ones(len(mean))])
    out = -0.5 * (np.einsum("bi,jbik,bk->jb", z, quad, z) + logdet)
    out[0] -= 0.5 * n * np.log(2.0 * np.pi)
    c = np.einsum("bij,bj->bi", quad[1, :, :p], z)
    out[2] += np.einsum("bi,bij,bj->b", c, cov, c)
    return out, mean, cov, eigvecs, keep, rhs


def _best_beta(log_density, hyper: HyperPrior):
    """The beta that maximizes log_density(betas)[0][0] plus the hyper prior
    (beta0 for a point mass), `log_density` as in `_maximize_over_log_beta`:
    (beta, log posterior, boundary flag, the fit at beta)."""
    if hyper.kind == "fixed":
        out, *fit = log_density([hyper.beta0])
        return hyper.beta0, float(out[0, 0]), None, [a[0] for a in fit]
    t, value, boundary, fit = _maximize_over_log_beta(log_density, hyper)
    return float(np.exp(t)), value, boundary, fit


def _gls_at_best_beta(forms, p: int, n: int, hyper: HyperPrior):
    """The GLS fit at the beta that maximizes its profile plus the hyper
    prior: theta*, its covariance, its flat directions, theta*^T P theta*
    (P the precision), beta, the log posterior and the boundary flag."""
    beta, value, boundary, (mean, cov, vecs, keep, rhs) = _best_beta(
        functools.partial(_gls, forms, p, n), hyper)
    return mean, cov, vecs[:, ~keep].T, float(mean @ rhs), beta, value, boundary


# Gauss-Newton on theta stops when a step is below 1e-6 posterior sd and
# log beta has settled to this much, or after this many iterations; a
# step is halved at most this many times before the run gives up.
_THETA_STEP2 = 1e-12
_LOG_BETA_SETTLED = 1e-8
_GAUSS_NEWTON_ITERATIONS = 100
_HALVINGS = 30


def invert_source(obs, family, hyper: HyperPrior, spec: kernels.KernelSpec,
                  init=None) -> InversionResult:
    """Infer source parameters theta jointly with the trust weight.

    Linear families get the exact Gaussian theta-posterior: the profile
    likelihood (theta at its conditional mean) is maximized over beta,
    and the conditional moments at that beta are returned.  Designs
    with fewer effective directions than parameters are reported via
    `flat_directions` (the unidentified combinations); the mean uses
    the pseudo-inverse and no exception is raised.

    Expression families run damped Gauss-Newton from `init` (required):
    each iteration takes the linear branch's GLS step, beta included, on
    the forward map theta -> u0 linearized at theta by central differences,
    halved until the log posterior maximized over beta does not decrease.
    `converged` means a step fell below 1e-6 posterior sd with log beta
    settled.  The covariance is the Laplace approximation: the last
    linearization's GLS covariance, flat directions included.
    """
    if family.n_params > obs.n:
        raise ValueError(f"{family.n_params} parameters but only {obs.n} observations")
    if isinstance(family, pde.LinearSourceFamily):
        mean, cov, flat, _, beta, objective, boundary = _gls_at_best_beta(
            *_gls_design(obs, family, spec), obs.n, hyper)
        return InversionResult(mean, cov, flat, beta, objective, boundary, "linear")
    if isinstance(family, pde.ExpressionSourceFamily):
        if init is None:
            raise ValueError("nonlinear inversion needs an initial theta")
        theta = np.array(init, dtype=float).reshape(-1)
        if theta.size != family.n_params:
            raise ValueError(f"init has {theta.size} entries, expected {family.n_params}")
        marginal = _MarginalCovariance(spec, obs)
        # 2p + 1 new fields an iteration, plus halvings, are predicted at the
        # same sites: their basis is built once
        basis = (spectral.basis_matrix(spec.dim, spec.order, obs.X)
                 if isinstance(obs, Dataset) else None)

        def resid_at(theta):
            u0 = pde.solve(family.source_at(theta), spec).u0
            return _residual(obs, u0) if basis is None else obs.y - basis @ u0.coeffs

        def log_posterior(r):
            """(beta, log posterior, boundary) at the theta of residual r,
            maximized over beta; -inf when it is nowhere finite."""
            forms = marginal.forms(r)
            try:
                return _best_beta(functools.partial(_gls, forms, 0, obs.n), hyper)[:3]
            except NumericalError:
                return None, -np.inf, None

        r = resid_at(theta)
        beta, value, boundary = log_posterior(r)
        if not np.isfinite(value):
            raise NumericalError("the log posterior is not finite at init")
        converged = False
        for _ in range(_GAUSS_NEWTON_ITERATIONS):
            steps = 1e-5 * np.maximum(1.0, np.abs(theta))
            jac = np.column_stack([
                (resid_at(theta - h * e) - resid_at(theta + h * e)) / (2.0 * h)
                for h, e in zip(steps, np.eye(theta.size))
            ])
            step, cov, flat, step2, beta_lin, _, _ = _gls_at_best_beta(
                marginal.forms(np.column_stack([jac, r])), theta.size, obs.n, hyper)
            if step2 <= _THETA_STEP2 and abs(np.log(beta_lin / beta)) <= _LOG_BETA_SETTLED:
                converged = True
                break
            for halving in range(_HALVINGS + 1):
                trial = theta + 0.5**halving * step
                r_trial = resid_at(trial)
                found = log_posterior(r_trial)
                if found[1] >= value:
                    break
            else:
                break
            theta, r, (beta, value, boundary) = trial, r_trial, found
        return InversionResult(theta, cov, flat, beta, value, boundary, "laplace",
                               converged=converged)
    raise TypeError(f"unsupported source family {type(family).__name__}")
