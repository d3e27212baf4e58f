"""Finite-dimensional draws from the physics prior and the posterior.

A prior draw truncated to the first M canonical coefficients is

    c_alpha = c0_alpha + sqrt(lambda_alpha / beta) * xi_alpha,

with iid standard normal xi.  The covariance is diagonal, so nested
truncations are automatically consistent: the first M1 coordinates of
an M2-coefficient draw (M1 <= M2) have exactly the M1-draw law.

Randomness is counter-based: draw 64c + k is column k of the (size, 64)
normals of a Philox generator keyed by (seed, c), so draws do not depend
on their batching, nor a draw's first m normals on its size.

Values of draws come as blocks of rows on a tensor grid (`value_blocks`,
`posterior_value_blocks`), so a caller that only needs moments and a few
paths holds one block at a time.  Prior coefficient draws, and posterior
ones by pathwise conditioning, whose first M normals are a prior draw's,
are synthesized on the grid by one loop, a prior's modes first folded onto
those a uniform grid resolves (DST-I aliasing).  The 1D bridge posterior is
drawn at its data sites by backward sampling, and between them by bridge
interpolation (Doob's time change), in place on a block of normals.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from . import kernels, pde, spectral
from .record import Record

__all__ = [
    "PriorSampler",
    "sample_coefficients",
    "value_blocks",
    "posterior_value_blocks",
    "NestedReport",
    "nested_consistency",
]


_BLOCK = 2048

# Draws per generator: the normals of 50,000 draws at 101 points took 0.13, 0.10
# and 0.09 s CPU at 16, 32 and 64 (2-vCPU machine), and no less at 128 or 256.
_CHUNK = 64


def _philox(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _normals(seed: int, size: int, count: int, rows: int, start: int = 0) -> Iterator[np.ndarray]:
    """Standard normals of draws start..start+count-1, `size` a draw, as
    point-major (size, r) blocks, r = `rows` but for the last.  Draw j is
    column j % _CHUNK of the first (size, _CHUNK) normals of
    `_philox(seed, j // _CHUNK)`, drawn once into one buffer; a block that
    straddles chunks slices them."""
    chunk, held = np.empty((size, _CHUNK)), -1
    for lo in range(start, start + count, rows):
        hi = min(lo + rows, start + count)
        block = np.empty((size, hi - lo))
        for c in range(lo // _CHUNK, -(-hi // _CHUNK)):
            if c != held:
                _philox(seed, c).standard_normal(out=chunk)
                held = c
            a, b = max(lo, c * _CHUNK), min(hi, (c + 1) * _CHUNK)
            block[:, a - lo:b - lo] = chunk[:, a - c * _CHUNK:b - c * _CHUNK]
        yield block
        del block  # before the next is allocated


def _check_seed(seed) -> int:
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


class PriorSampler(Record):
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

    def grid_modes(self, axis) -> tuple[np.ndarray, np.ndarray, int]:
        """Standard deviations and means of the modes a draw of `value_blocks` takes
        on the grid axis x ... x axis, one normal each, and its modes an axis: the
        leading mesh_size coefficients of order**dim (in 1D a prefix is itself an
        expansion), folded onto the m - 2 modes an axis resolves (`_fold`) when
        the axis is np.linspace(0, 1, m) and 1 <= m - 2 with (m - 2)**dim <
        mesh_size: the fold only ever takes fewer normals than the prefix."""
        dim, size, m = self.spec.dim, self.mesh_size, np.size(axis)
        order = size if dim == 1 else self.spec.order
        if not (1 <= m - 2 and (m - 2) ** dim < size
                and np.array_equal(np.ravel(axis), np.linspace(0.0, 1.0, m))):
            return self.scales, self.mean_prefix, order
        shape, tail = (order,) * dim, order**dim - size
        center = np.pad(self.mean_prefix, (0, tail)).reshape(shape)
        var = np.pad(self.scales**2, (0, tail)).reshape(shape)
        for _ in range(dim):
            center, var = _fold(center, m, -1.0), _fold(var, m, 1.0)
        return np.sqrt(var).reshape(-1), center.reshape(-1), m - 2


def _shifted(xi, scales, center) -> np.ndarray:
    """Draws center + scales xi from point-major normals xi (size, r), overwritten."""
    xi *= scales[:, None]
    xi += center[:, None]
    return xi


def _fold(tensor: np.ndarray, points: int, sign: float) -> np.ndarray:
    """The leading axis of `tensor`, modes n = 1..S, summed onto the modes 1..m - 2
    that the uniform grid of m = `points` points resolves, and moved last.  There
    mode n, r = n mod 2(m - 1), is mode r, `sign` times mode 2(m - 1) - r (-1 for
    means, 1 for variances), or zero when r is 0 or m - 1."""
    period, rest = 2 * (points - 1), tensor.shape[1:]
    padded = np.zeros((-(-(len(tensor) + 1) // period) * period,) + rest)
    padded[1:len(tensor) + 1] = tensor
    residues = padded.reshape((-1, period) + rest).sum(axis=0)
    return np.moveaxis(residues[1:points - 1] + sign * residues[:points - 1:-1], 0, -1)


def sample_coefficients(sampler: PriorSampler, count: int, start: int = 0) -> np.ndarray:
    """Coefficient draws with absolute indices start..start+count-1.

    Row j is fully determined by (seed, start + j); requesting draws in
    batches, in any order, yields the same numbers.
    """
    if count < 0 or start < 0:
        raise ValueError("count and start must be nonnegative")
    size = sampler.mesh_size
    xi = next(_normals(sampler.seed, size, count, max(count, 1), start), np.empty((size, 0)))
    return _shifted(xi, sampler.scales, sampler.mean_prefix).T


def _rows(values_per_draw: int) -> int:
    """Draws per block: `_BLOCK`, fewer when a draw holds many values."""
    return max(1, min(_BLOCK, spectral._GRID_BLOCK // values_per_draw))


def _synthesized(draw, seed, size, axis, dim, order, count, held=0) -> Iterator[np.ndarray]:
    """Draws 0..count-1 on the tensor grid axis x ... x axis: `draw` maps each block of
    `size` point-major normals, holding up to `held` values a draw, to the leading
    point-major coefficients of order**dim, synthesized `spectral.grid_tables` chunk
    by chunk, one chunk's table at a time."""
    rows = _rows(max(max(axis.size, order) ** dim, size, held))
    for xi in _normals(seed, size, count, rows):
        coeffs = draw(xi)
        if len(coeffs) < order**dim:
            coeffs = np.pad(coeffs, ((0, order**dim - len(coeffs)), (0, 0)))
        r = coeffs.shape[1]
        tensor = coeffs.reshape((order,) * dim + (r,))
        values, start = np.empty((axis.size**dim, r)), 0
        for tables in spectral.grid_tables(axis, dim, order):
            piece = spectral.synthesize(tensor, tables).reshape(-1, r)
            values[start:start + len(piece)] = piece
            start += len(piece)
        yield values.T


def value_blocks(sampler: PriorSampler, axis, count: int) -> Iterator[np.ndarray]:
    """Draws 0..count-1 on the tensor grid axis x ... x axis, block by block.

    Each block has shape (rows, len(axis)**dim), grid values flattened in C
    order as by `PosteriorModel.on_grid`; in 1D `axis` may be any points.
    Draw j scales the first normals of its column to the modes of
    `sampler.grid_modes(axis)`, one each, synthesized one axis at a
    time (`spectral.synthesize`): no basis matrix or covariance of the grid
    is formed.  Blocks hold `_BLOCK` draws, fewer when a draw's grid values
    or normals pass `spectral._GRID_BLOCK` values a block.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    axis = spectral.validate_points(axis, 1)[:, 0]
    scales, center, order = sampler.grid_modes(axis)
    yield from _synthesized(lambda xi: _shifted(xi, scales, center), sampler.seed,
                            scales.size, axis, sampler.spec.dim, order, count)


def posterior_value_blocks(post, axis, count: int, seed: int = 0) -> Iterator[np.ndarray]:
    """Posterior draws 0..count-1 on the tensor grid axis x ... x axis, block by
    block, as `value_blocks` lays them out; in 1D `axis` may be any points.

    The 1D bridge with k distinct data sites inside (0, 1) maps the first N + k
    normals of draw j, N = len(axis), in place: the last k to the residual at
    the sites (`PosteriorModel.knot_draws`), the first N, one a point in
    ascending order (ties in axis order), to w_a f(a) + w_b f(b) + w_a W(tau)
    between knots a < b (`PosteriorModel._gaps`): Doob's time change
    tau = (x - a)(b - a)/(b - x) of a Brownian motion W of rate 1/beta, a
    cumulative sum over the gap's points, one gap a step.  Other kernels map
    the first S^d + n normals to coefficients by pathwise conditioning
    (`PosteriorModel.coefficient_draws`), synthesized as prior draws are.
    Blocks hold `_BLOCK` draws, fewer when a draw holds over
    `spectral._GRID_BLOCK` values: 3 S^d + 2n pathwise, N + k for the bridge
    (2N + k when its values are put back in the order of unsorted points).
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    seed = _check_seed(seed)
    axis = spectral.validate_points(axis, 1)[:, 0]
    if not post.spec.closed_form:
        m, n = post.spec.n_coeffs, post.data.n
        yield from _synthesized(post.coefficient_draws, seed, m + n, axis, post.spec.dim,
                                post.spec.order, count, 3 * m + 2 * n)
        return
    size, sites = axis.size, post._knots.size - 2
    order = np.argsort(axis, kind="stable")
    lo, h, wa, _ = post._gaps(axis[order])
    tau = np.divide(h, wa, out=np.zeros(size), where=wa > 0.0)
    start = np.flatnonzero(np.diff(lo, prepend=-1))  # each gap's first point
    step = np.diff(tau, prepend=0.0)
    step[start] = tau[start]
    # a point at 1 (w_a = 0, tau = 0) takes no step
    scale = np.sqrt(kernels._over_beta(np.where(wa > 0.0, step, 0.0), post.spec.beta))
    gaps = list(zip(lo[start].tolist(), start.tolist(), np.append(start[1:], size).tolist()))
    scale, wa = scale[:, None], wa[:, None]
    prior = spectral.evaluate(post.prior, axis[order])[:, None]
    ordered, rank = np.array_equal(order, np.arange(size)), np.argsort(order)

    def fill(xi):  # row N + i - 1 holds knot i; f(0) = f(1) = 0
        post.knot_draws(xi[size:])
        w = xi[:size]
        w *= scale
        for i, s, e in gaps:  # w_a (W + f(a) - f(b)) + f(b), W summed over the gap
            gap = w[s:e]
            np.add.accumulate(gap, axis=0, out=gap)
            fb = xi[size + i] if i < sites else 0.0
            gap += (xi[size + i - 1] if i else 0.0) - fb
            gap *= wa[s:e]
            gap += fb
        w += prior
        return w if ordered else w[rank]

    for xi in _normals(seed, size + sites, count, _rows(size + sites + (0 if ordered else size))):
        yield fill(xi).T
        del xi


class NestedReport(Record):
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

    cross = np.zeros((m, m))
    for done in range(0, draws, 4096):
        block = sample_coefficients(large, min(4096, draws - done), done)
        block = block[:, :m] - small.mean_prefix
        cross += block.T @ block
    dev = float(np.abs(cross / draws - np.diag(small.scales**2)).max())
    bound = 4.0 * float(np.max(small.scales**2)) / np.sqrt(draws)
    return NestedReport(analytic, prefix_match, dev, bound, dev < bound, draws)
