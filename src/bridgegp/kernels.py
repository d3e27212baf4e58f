"""Covariance kernels diagonalized by the sine basis.

Every kernel here has the Mercer form

    k(x, y) = beta^{-1} * sum_alpha lambda_alpha psi_alpha(x) psi_alpha(y)

with family-specific eigenvalues:

    bridge      lambda = 1 / (pi^2 |alpha|^2)         (any dim)
    helmholtz   lambda = 1 / (n^2 pi^2 - omega^2)     (dim 1)
    power       lambda = (n^2 pi^2)^(-p)              (dim 1)

The bridge family is the Green's operator of the Dirichlet Laplacian;
in one dimension the series sums to the Brownian-bridge covariance
min(x, y) - x*y, which is used as an exact closed form.  The scalar
beta rescales the whole covariance and acts as a trust weight on the
physics prior: large beta concentrates mass near the prior mean.

Production code factors no Gram here: `regression` conditions, calibrates,
inverts and draws posteriors through one eigendecomposed marginal covariance,
whose Gram `kernel_matrix` builds, with the one jitter rule.  `SpdSolver`
(Cholesky) is the solver of the dense oracles, `regression.krr_solve` and
`PosteriorModel.cov`, which no command calls.
"""

from __future__ import annotations

import functools
import logging
import operator

import numpy as np

from . import spectral
from .errors import NumericalError, OrderMismatchError, ResonanceError, SingularSystemError
from .record import Record

logger = logging.getLogger(__name__)

FAMILIES = ("bridge", "helmholtz", "power")

_DEFAULT_ORDER = {1: 512, 2: 64, 3: 32}

_JITTER_SCALE = 1e-12


def default_order(dim: int) -> int:
    """Default truncation order per dimension."""
    if dim not in _DEFAULT_ORDER:
        raise ValueError(f"dimension must be 1, 2, or 3, got {dim}")
    return _DEFAULT_ORDER[dim]


class KernelSpec(Record):
    """Kernel family, truncation, and trust weight.

    Parameters
    ----------
    family : {'bridge', 'helmholtz', 'power'}
    dim : int
        Spatial dimension; helmholtz and power require dim = 1.
    order : int, optional
        Per-axis truncation; defaults to 512 / 64 / 32 for dim 1 / 2 / 3.
    beta : float
        Trust weight, strictly positive and finite.
    omega : float
        Frequency of the helmholtz family.
    p : float
        Exponent of the power family, 1/2 < p <= 1; p = 1 recovers the
        bridge eigenvalues.
    """

    family: str
    dim: int = 1
    order: int | None = None
    beta: float = 1.0
    omega: float | None = None
    p: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        order = self.order if self.order is not None else default_order(self.dim)
        spectral.check_size(self.dim, order)
        object.__setattr__(self, "order", int(order))
        beta = float(self.beta)
        if not np.isfinite(beta) or beta <= 0.0:
            raise ValueError(f"beta must be finite and positive, got {self.beta}")
        object.__setattr__(self, "beta", beta)
        if self.family == "helmholtz":
            if self.dim != 1:
                raise ValueError("helmholtz kernel is one-dimensional")
            if self.omega is None:
                raise ValueError("helmholtz kernel requires omega")
            omega = float(self.omega)
            n = np.arange(1, self.order + 1)
            gaps = n**2 * np.pi**2 - omega**2
            if np.any(np.abs(gaps) <= 1e-12 * n**2 * np.pi**2):
                raise ResonanceError(f"omega = {omega} is resonant with the sine spectrum")
            object.__setattr__(self, "omega", omega)
        elif self.omega is not None:
            raise ValueError(f"omega is only meaningful for helmholtz, got family {self.family!r}")
        if self.family == "power":
            if self.dim != 1:
                raise ValueError("power kernel is one-dimensional")
            if self.p is None:
                raise ValueError("power kernel requires p")
            p = float(self.p)
            if not 0.5 < p <= 1.0:
                raise ValueError(f"power exponent must satisfy 1/2 < p <= 1, got {p}")
            object.__setattr__(self, "p", p)
        elif self.p is not None:
            raise ValueError(f"p is only meaningful for power, got family {self.family!r}")

    @property
    def n_coeffs(self) -> int:
        return self.order**self.dim

    @property
    def closed_form(self) -> bool:
        """True for the 1D bridge, whose Mercer series is summed exactly as
        min(x, y) - x y; every other kernel is its truncated series, of
        rank at most `n_coeffs`."""
        return self.family == "bridge" and self.dim == 1

    def with_beta(self, beta: float) -> "KernelSpec":
        return KernelSpec(self.family, self.dim, self.order, beta, self.omega, self.p)


def eigenvalues(spec: KernelSpec) -> np.ndarray:
    """Eigenvalues of the beta = 1 kernel, canonical enumeration.

    Helmholtz eigenvalues that are not strictly positive raise
    ResonanceError, since the kernel is not positive definite there.
    """
    sq = np.sum(spectral.index_array(spec.dim, spec.order).astype(float) ** 2, axis=1)
    if spec.family == "bridge":
        return 1.0 / (np.pi**2 * sq)
    if spec.family == "helmholtz":
        gaps = np.pi**2 * sq - spec.omega**2
        if np.any(gaps <= 0.0):
            raise ResonanceError(
                f"helmholtz eigenvalue n^2 pi^2 - omega^2 <= 0 at omega = {spec.omega}"
            )
        return 1.0 / gaps
    return (np.pi**2 * sq) ** (-spec.p)


def _over_beta(values, beta) -> np.ndarray:
    """values / beta for beta = 1 kernel values or eigenvalues, beta a float
    or a column of them; a quotient that overflows raises NumericalError
    naming the least beta."""
    with np.errstate(over="ignore"):
        out = np.asarray(values) / beta
    if not np.isfinite(out).all():
        raise NumericalError(f"the kernel divided by beta = {np.min(beta):.6g} overflows")
    return out


def kernel_matrix(spec: KernelSpec, x, y=None) -> np.ndarray:
    """Kernel values k(x_i, y_j) including the beta scaling; the Gram at `x`
    when `y` is None.

    The one-dimensional bridge uses the closed form min - xy; all other
    families sum the truncated Mercer series at the spec's order over the
    column blocks of `spectral.basis_blocks`, so the N x S^d bases are never
    held whole: a cross-kernel as sum_a (Psi_x,a Lambda_a) Psi_y,a^T, a Gram
    as sum_a R_a R_a^T, R_a = Psi_a Lambda_a^1/2, each product symmetric
    (BLAS syrk), half a GEMM.  Either Gram is exactly symmetric.  This is the
    one builder of a Gram at points, the marginal covariance of `regression`
    included.  The beta = 1 value is divided by beta once, and multiplying
    back does not recover it exactly: ask for the beta = 1 kernel by
    `spec.with_beta(1.0)`.
    """
    xs = spectral.validate_points(x, spec.dim)
    ys = xs if y is None else spectral.validate_points(y, spec.dim)
    if spec.closed_form:
        base = np.minimum(xs[:, :1], ys[:, 0]) - np.outer(xs[:, 0], ys[:, 0])
    elif y is None:
        lam = eigenvalues(spec)
        roots = (block * np.sqrt(lam[start:start + block.shape[1]])
                 for start, block in spectral.basis_blocks(spec.dim, spec.order, xs))
        base = functools.reduce(operator.iadd, (r @ r.T for r in roots))
    else:
        lam = eigenvalues(spec)
        cols = max(len(xs), len(ys))  # one block partition for both sets
        yblocks = spectral.basis_blocks(spec.dim, spec.order, ys, cols)
        base = functools.reduce(operator.iadd, (
            (px * lam[start:start + px.shape[1]]) @ next(yblocks)[1].T
            for start, px in spectral.basis_blocks(spec.dim, spec.order, xs, cols)))
    return _over_beta(base, spec.beta)


def rkhs_sq_norm(spec: KernelSpec, u: spectral.SpectralField) -> float:
    """Squared native-space norm of the beta = 1 kernel: sum c^2 / lambda.

    The field must match the spec's dim and order.  The norm of the
    beta-scaled kernel's space is beta times this value.
    """
    if u.dim != spec.dim or u.order != spec.order:
        raise OrderMismatchError(
            f"field ({u.dim}, {u.order}) does not match spec ({spec.dim}, {spec.order})"
        )
    lam = eigenvalues(spec)
    return float(np.sum(u.coeffs**2 / lam))


class SpdSolver:
    """Cholesky A = L L^T with one jitter retry; the dense oracles' solver.

    On a failed factorization, adds 1e-12 * trace / n to the diagonal,
    logs the jitter magnitude, and tries once more; a second failure
    raises SingularSystemError.  Exposes LU solves against L (numpy has no
    triangular solver), so downstream code never refactors a Gram.
    """

    def __init__(self, matrix):
        a = np.array(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():  # np.linalg.cholesky would return NaNs
            raise ValueError("matrix must not contain infs or NaNs")
        self.jitter = 0.0
        try:
            self._lower = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            n = a.shape[0]
            self.jitter = _JITTER_SCALE * np.trace(a) / n
            logger.info("Gram factorization failed; retrying with jitter %.3e", self.jitter)
            try:
                self._lower = np.linalg.cholesky(a + self.jitter * np.eye(n))
            except np.linalg.LinAlgError as exc:
                raise SingularSystemError(
                    f"Gram matrix is not positive definite after jitter {self.jitter:.3e}"
                ) from exc

    def whiten(self, b) -> np.ndarray:
        """L^{-1} b, so that b^T A^{-1} c = whiten(b)^T whiten(c)."""
        return np.linalg.solve(self._lower, np.asarray(b, dtype=float))

    def solve(self, b) -> np.ndarray:
        return np.linalg.solve(self._lower.T, self.whiten(b))
