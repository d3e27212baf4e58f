"""Finite-dimensional draws from the physics prior and the posterior.

A prior draw truncated to the first M canonical coefficients is

    c_alpha = c0_alpha + sqrt(lambda_alpha / beta) * xi_alpha,

with iid standard normal xi.  The covariance is diagonal, so nested
truncations are automatically consistent: the first M1 coordinates of
an M2-coefficient draw (M1 <= M2) have exactly the M1-draw law.

Randomness is counter-based: draw i uses a Philox generator keyed by
(seed, i), so draws are reproducible independently of how many are
requested at once or in what order batches are taken.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, pde, spectral

__all__ = [
    "PriorSampler",
    "sample",
    "sample_coefficients",
    "sample_values",
    "sample_posterior_values",
    "NestedReport",
    "nested_consistency",
]


_BLOCK = 2048


def _philox(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _normals(seed: int, start: int, count: int, size: int) -> np.ndarray:
    """(count, size) standard normals; row j starts the `_philox(seed, start + j)` stream."""
    out = np.empty((count, size))
    # One generator re-keyed per row: each row starts from the state a
    # fresh `_philox(seed, start + j)` has (counter zero, empty buffer),
    # without paying for a new generator and seed sequence per draw.
    bits = np.random.Philox(key=np.array([seed, start], dtype=np.uint64))
    gen = np.random.Generator(bits)
    state = bits.state
    key = state["state"]["key"]
    for j in range(count):
        key[1] = start + j
        bits.state = state
        gen.standard_normal(out=out[j])
    return out


def _check_seed(seed) -> int:
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


@dataclass(frozen=True)
class PriorSampler:
    """Sampler for the truncated prior around a mean field.

    Parameters
    ----------
    spec : KernelSpec
        Supplies the eigenvalues and the trust weight beta.
    mean : PdeSolution, SpectralField, or None
        Prior mean; None means the zero field.
    mesh_size : int, optional
        Number of leading canonical coefficients to draw; defaults to
        the full expansion.
    seed : int
        Unsigned 64-bit key shared by all draws.
    """

    spec: kernels.KernelSpec
    mean: object = None
    mesh_size: int | None = None
    seed: int = 0

    def __post_init__(self):
        mean = pde.prior_mean(self.mean, self.spec)
        size = self.spec.n_coeffs if self.mesh_size is None else int(self.mesh_size)
        if not 1 <= size <= self.spec.n_coeffs:
            raise ValueError(
                f"mesh_size must be in [1, {self.spec.n_coeffs}], got {self.mesh_size}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "mesh_size", size)
        object.__setattr__(self, "seed", _check_seed(self.seed))

    @property
    def scales(self) -> np.ndarray:
        """Standard deviations sqrt(lambda / beta) of the drawn coefficients."""
        lam = kernels.eigenvalues(self.spec)[: self.mesh_size]
        return np.sqrt(lam / self.spec.beta)

    @property
    def mean_prefix(self) -> np.ndarray:
        return self.mean.coeffs[: self.mesh_size]


def sample_coefficients(sampler: PriorSampler, count: int, start: int = 0) -> np.ndarray:
    """Coefficient draws with absolute indices start..start+count-1.

    Row j is fully determined by (seed, start + j); requesting draws in
    batches, in any order, yields the same numbers.
    """
    if count < 0 or start < 0:
        raise ValueError("count and start must be nonnegative")
    out = _normals(sampler.seed, start, count, sampler.mesh_size)
    out *= sampler.scales
    out += sampler.mean_prefix
    return out


def sample(sampler: PriorSampler, count: int) -> list[spectral.SpectralField]:
    """Draws as full fields (unsampled trailing coefficients are zero).

    Materializes count * order**dim coefficients; for moment estimation
    over many draws prefer `sample_values` or `sample_coefficients`.
    """
    coeffs = sample_coefficients(sampler, count)
    full = np.zeros((count, sampler.spec.n_coeffs))
    full[:, : sampler.mesh_size] = coeffs
    return [spectral.SpectralField(sampler.spec.dim, sampler.spec.order, row) for row in full]


def sample_values(sampler: PriorSampler, x, count: int) -> np.ndarray:
    """Draws evaluated at points `x`, shape (count, len(x)).

    Streams in blocks of `_BLOCK` draws so large Monte Carlo runs never
    hold all coefficient vectors at once.
    """
    pts = spectral.validate_points(x, sampler.spec.dim)
    psi = spectral.basis_matrix(sampler.spec.dim, sampler.spec.order, pts)
    psi = psi[:, : sampler.mesh_size]
    out = np.empty((count, pts.shape[0]))
    for done in range(0, count, _BLOCK):
        coeffs = sample_coefficients(sampler, min(_BLOCK, count - done), done)
        out[done : done + coeffs.shape[0]] = coeffs @ psi.T
    return out


def sample_posterior_values(post, x, count: int, seed: int = 0) -> np.ndarray:
    """Posterior draws evaluated at points `x`, shape (count, len(x)).

    Row j is post.mean(x) + R xi_j: R = V sqrt(max(w, 0)) from the dense
    eigendecomposition V diag(w) V^T of post.cov(x), and xi_j the first
    len(x) normals of the (seed, j) stream.
    """
    seed = _check_seed(seed)
    pts = spectral.validate_points(x, post.spec.dim)
    eigvals, eigvecs = np.linalg.eigh(post.cov(pts))
    root_t = (eigvecs * np.sqrt(np.maximum(eigvals, 0.0))).T
    center = post.mean(pts)
    out = np.empty((count, pts.shape[0]))
    for done in range(0, count, _BLOCK):
        xi = _normals(seed, done, min(_BLOCK, count - done), pts.shape[0])
        out[done : done + len(xi)] = xi @ root_t + center
    return out


@dataclass(frozen=True)
class NestedReport:
    """Consistency of a coarse truncation against a finer one."""

    analytic_exact: bool
    prefix_draws_match: bool | None
    max_deviation: float
    bound: float
    within_bound: bool
    draws: int


def nested_consistency(small: PriorSampler, large: PriorSampler,
                       draws: int = 10000) -> NestedReport:
    """Check that the coarse prior is the marginal of the fine prior.

    Analytically, the leading block of the fine covariance must equal
    the coarse covariance exactly (both are diagonal in lambda / beta)
    and the mean prefixes must coincide.  Empirically, the sample
    covariance of the leading block over `draws` fine draws must match
    entrywise within 4 * max(lambda) / (beta * sqrt(draws)).

    Raises ValueError when the meshes are not nested refinements of
    the same prior.
    """
    if small.spec != large.spec:
        raise ValueError("samplers must share one kernel spec to be nested")
    if small.mesh_size > large.mesh_size:
        raise ValueError(
            f"mesh {small.mesh_size} is not a prefix of mesh {large.mesh_size}"
        )
    m = small.mesh_size
    analytic = bool(
        np.array_equal(small.scales, large.scales[:m])
        and np.array_equal(small.mean_prefix, large.mean_prefix[:m])
    )
    if not analytic:
        raise ValueError("prior means disagree on the shared coefficients")

    prefix_match: bool | None = None
    if small.seed == large.seed:
        a = sample_coefficients(small, 3)
        b = sample_coefficients(large, 3)[:, :m]
        prefix_match = bool(np.array_equal(a, b))

    target = np.diag(small.scales**2)
    dev = 0.0
    cross = np.zeros((m, m))
    done = 0
    while done < draws:
        step = min(4096, draws - done)
        block = sample_coefficients(large, step, done)[:, :m] - small.mean_prefix
        cross += block.T @ block
        done += step
    dev = float(np.abs(cross / draws - target).max())
    bound = 4.0 * float(np.max(small.scales**2)) / np.sqrt(draws)
    return NestedReport(analytic, prefix_match, dev, bound, dev < bound, draws)
