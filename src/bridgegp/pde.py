"""Spectral solves of -Laplacian u = q (and the Helmholtz variant) on
the unit cube with zero boundary values.

In the sine basis the operator is diagonal, so the forward solve is a
single eigenvalue scaling: u0 = C q with (C q)_alpha = lambda_alpha
q_alpha.  The same u0 is the mean of the physics prior used by the
regression module, and the Dirichlet energy

    E(u) = 1/2 int |grad u|^2 - int q u

relates to it by completing the square:

    E(u) = 1/2 ||u - C q||_H^2 - 1/2 sum_alpha lambda_alpha q_alpha^2,

where ||.||_H is the native norm of the beta = 1 bridge kernel.  Both
sides of that identity are implemented independently (quadrature vs
coefficient algebra) so they can be cross-checked.
"""

from __future__ import annotations

import numpy as np

from . import expressions, kernels, spectral
from .errors import OrderMismatchError
from .record import Factory, Record

__all__ = [
    "SourceModel",
    "SpectralSource",
    "ClosedFormSource",
    "LinearSourceFamily",
    "ExpressionSourceFamily",
    "PdeSolution",
    "prior_mean",
    "solve",
    "energy",
    "energy_rkhs_shift",
    "source_energy_offset",
    "zero_source",
]


class SourceModel:
    """Interface for right-hand sides q of the PDE."""

    def evaluate(self, x) -> np.ndarray:
        raise NotImplementedError

    def coefficients(self, dim: int, order: int) -> np.ndarray:
        raise NotImplementedError


class SpectralSource(SourceModel, Record):
    """A source given directly by sine coefficients."""

    field: spectral.SpectralField

    def evaluate(self, x) -> np.ndarray:
        return spectral.evaluate(self.field, x)

    def coefficients(self, dim, order) -> np.ndarray:
        if dim != self.field.dim:
            raise OrderMismatchError(
                f"source has dimension {self.field.dim}, requested {dim}"
            )
        if order == self.field.order:
            return np.array(self.field.coeffs)
        if order < self.field.order:
            raise OrderMismatchError(
                f"cannot restrict a source of order {self.field.order} to order {order}"
            )
        # Embed into the finer truncation: pad each tensor axis with zeros.
        tensor = self.field.as_tensor()
        pad = [(0, order - self.field.order)] * dim
        return np.pad(tensor, pad).reshape(-1)


class ClosedFormSource(SourceModel):
    """A source given by an expression string, e.g. '10*exp(-(x-0.25)^2)'.

    Parameter values must be fully bound.  Projections onto a basis
    evaluate the expression on the quadrature rule's axes, not on its
    points, and are cached per (dim, order), so repeated solves against
    the same truncation do not re-integrate.
    """

    def __init__(self, expression: str, parameters: dict | None = None):
        self.expression = expression
        self.parameters = dict(parameters or {})
        self._compiled: dict[int, expressions.CompiledExpression] = {}
        self._coeff_cache: dict[tuple[int, int], np.ndarray] = {}

    def compiled(self, dim: int) -> expressions.CompiledExpression:
        """The expression compiled for `dim`; a malformed one raises here."""
        if dim not in self._compiled:
            self._compiled[dim] = expressions.compile_expression(
                self.expression, dim, tuple(self.parameters)
            )
        return self._compiled[dim]

    def evaluate(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        dim = 1 if arr.ndim <= 1 else arr.shape[1]
        return self.compiled(dim)(arr, self.parameters)

    def coefficients(self, dim, order) -> np.ndarray:
        key = (dim, order)
        if key not in self._coeff_cache:
            compiled = self.compiled(dim)
            self._coeff_cache[key] = spectral.project(
                lambda coords: compiled(coords, self.parameters), dim, order).coeffs
        return np.array(self._coeff_cache[key])

    def __repr__(self):
        return f"ClosedFormSource({self.expression!r}, {self.parameters!r})"


def zero_source(dim: int, order: int) -> SpectralSource:
    return SpectralSource(spectral.zero_field(dim, order))


class PdeSolution(Record):
    """Forward solution u0 = C q for a kernel spec's operator."""

    u0: spectral.SpectralField
    source: SourceModel
    spec: kernels.KernelSpec

    def __call__(self, x):
        return spectral.evaluate(self.u0, x)


def prior_mean(prior, spec: kernels.KernelSpec) -> spectral.SpectralField:
    """Normalize a prior mean (solution, field, or None) to a field.

    None means the zero field; a PdeSolution contributes its u0.  The
    field must match the spec's dim and order.
    """
    if prior is None:
        return spectral.zero_field(spec.dim, spec.order)
    if isinstance(prior, PdeSolution):
        prior = prior.u0
    if not isinstance(prior, spectral.SpectralField):
        raise TypeError(f"cannot use {type(prior).__name__} as a prior mean")
    if prior.dim != spec.dim or prior.order != spec.order:
        raise OrderMismatchError(
            f"prior mean ({prior.dim}, {prior.order}) does not match "
            f"spec ({spec.dim}, {spec.order})"
        )
    return prior


def solve(source: SourceModel, spec: kernels.KernelSpec) -> PdeSolution:
    """Solve the spec's operator equation with right-hand side `source`.

    For the bridge family the operator is -Laplacian; for helmholtz it
    is -Laplacian - omega^2 (resonant omega raises ResonanceError).
    The power family has no PDE attached and is rejected.

    Returns
    -------
    PdeSolution
        Holds u0 with coefficients lambda_alpha * q_alpha at the spec's
        dim and order.
    """
    if spec.family == "power":
        raise ValueError("the power kernel has no associated differential operator")
    lam = kernels.eigenvalues(spec)
    q_hat = source.coefficients(spec.dim, spec.order)
    return PdeSolution(
        spectral.SpectralField(spec.dim, spec.order, lam * q_hat), source, spec
    )


def energy(u: spectral.SpectralField, source: SourceModel) -> float:
    """Dirichlet energy 1/2 int |grad u|^2 - int q u.

    The gradient term is a Parseval sum; the load term integrates the
    pointwise product q * u with tensor Gauss-Legendre quadrature, so
    `source` need not be band-limited.
    """
    rule = spectral.default_rule(u.dim, u.order)
    grad_sq = float(np.sum(spectral.dirichlet_eigenvalues(u.dim, u.order) * u.coeffs**2))
    nodes = rule.nodes
    q_vals = source.evaluate(nodes[:, 0] if u.dim == 1 else nodes)
    u_vals = spectral.synthesize(
        u.as_tensor(), spectral.synthesis_tables([rule.axis_nodes] * u.dim, u.order))
    load = rule.integrate(np.asarray(q_vals) * u_vals.reshape(-1))
    return 0.5 * grad_sq - load


def energy_rkhs_shift(u: spectral.SpectralField, source: SourceModel,
                      spec: kernels.KernelSpec) -> float:
    """The shifted quadratic 1/2 ||u - C q||^2 in the bridge native norm.

    Equals `energy(u, source)` plus the u-independent constant
    `source_energy_offset(source, spec)`; minimized exactly at u = C q.
    """
    if spec.family != "bridge":
        raise ValueError("the energy identity is stated for the bridge family")
    u0 = solve(source, spec).u0
    return 0.5 * kernels.rkhs_sq_norm(spec, u - u0)


def source_energy_offset(source: SourceModel, spec: kernels.KernelSpec) -> float:
    """The constant 1/2 sum_alpha lambda_alpha q_alpha^2 dropped by the shift."""
    lam = kernels.eigenvalues(spec)
    q_hat = source.coefficients(spec.dim, spec.order)
    return 0.5 * float(np.sum(lam * q_hat**2))


class LinearSourceFamily(Record):
    """Sources affine in the parameter vector: q(theta) = q0 + sum theta_j g_j."""

    components: tuple
    offset: SourceModel | None = None

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("a linear source family needs at least one component")

    @property
    def n_params(self) -> int:
        return len(self.components)

    def coefficient_design(self, dim: int, order: int):
        """Columns of component coefficients and the offset vector."""
        cols = np.column_stack(
            [c.coefficients(dim, order) for c in self.components]
        )
        off = (self.offset.coefficients(dim, order) if self.offset is not None
               else np.zeros(order**dim))
        return cols, off

    def source_at(self, theta, dim: int, order: int) -> SpectralSource:
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.size != self.n_params:
            raise ValueError(f"expected {self.n_params} parameters, got {theta.size}")
        cols, off = self.coefficient_design(dim, order)
        return SpectralSource(spectral.SpectralField(dim, order, cols @ theta + off))


class ExpressionSourceFamily(Record):
    """Sources from one expression with free (possibly nonlinear) parameters."""

    expression: str
    free: tuple
    fixed: dict = Factory(dict)

    def __post_init__(self):
        object.__setattr__(self, "free", tuple(str(p) for p in self.free))
        if not self.free:
            raise ValueError("an expression source family needs at least one free parameter")
        overlap = set(self.free) & set(self.fixed)
        if overlap:
            raise ValueError(f"parameters {sorted(overlap)} are both free and fixed")

    @property
    def n_params(self) -> int:
        return len(self.free)

    def source_at(self, theta) -> ClosedFormSource:
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.size != self.n_params:
            raise ValueError(f"expected {self.n_params} parameters, got {theta.size}")
        params = dict(self.fixed)
        params.update(zip(self.free, theta.tolist()))
        return ClosedFormSource(self.expression, params)
