"""Sine eigenbasis on the unit cube.

The Dirichlet Laplacian on [0, 1]^d has eigenfunctions

    psi_alpha(x) = 2^(d/2) * prod_i sin(alpha_i * pi * x_i),

indexed by multi-indices alpha in {1..S}^d, with eigenvalues
pi^2 * |alpha|^2.  Everything downstream (kernels, PDE solves,
posterior algebra, sampling) works in the coordinates of this basis,
so this module owns the bookkeeping: a canonical index enumeration, a
truncated-field container, tensor Gauss-Legendre quadrature, and the
transforms between point samples and coefficients.

The basis is separable, and every transform works axis by axis (sum
factorization; Orszag, J. Comput. Phys. 37, 1980).  `project` hands its
integrand the quadrature rule's per-axis coordinates and contracts one
axis at a time, `synthesize` evaluates on a tensor grid from per-axis
tables, and a basis at scattered points is produced a few leading
indices at a time (`basis_blocks`), so products with it never hold the
whole N x S^d matrix.

Coefficient vectors are stored dense in the canonical (lexicographic)
enumeration of {1..S}^d, i.e. C-order raveling of an (S, ..., S)
tensor.  Dense storage is only viable at desk scale, so construction
enforces hard caps on the axis order per dimension.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .errors import DomainError, OrderMismatchError, ResourceLimitError
from .record import Record

# Largest coefficient count we will hold in a dense vector (64**3).
MAX_COEFFS = 262144

# Per-axis truncation caps.  d = 1 is allowed long expansions because a
# vector of that length is still tiny; d >= 2 caps keep tensors within
# the dense budget.
_AXIS_CAP = {1: MAX_COEFFS, 2: 64, 3: 32}

# Extra Gauss-Legendre nodes per axis beyond the 2S + 1 minimum.  The
# integrands are oscillatory (frequencies up to 2*S*pi when checking
# orthonormality), and Gauss rules only resolve such modes once the
# node count passes ~pi/2 times the frequency; the slack keeps small-S
# rules comfortably past that threshold.
_EXTRA_NODES = 33

# Newton steps in `_leggauss`: 4 reach rounding at any n, the 5th evaluates P_n' there.
_NEWTON_STEPS = 5

# Values a block holds where points or draws are taken in blocks: `evaluate`'s
# points (times S^d), a chunk of a grid's first-axis table and its synthesis
# (`grid_tables`), and `sampling`'s draws.
_GRID_BLOCK = 1 << 21


def check_size(dim: int, order: int) -> None:
    """Reject dimension/order pairs outside the dense-storage budget."""
    if dim not in (1, 2, 3):
        raise ResourceLimitError(f"dimension must be 1, 2, or 3, got {dim}")
    if order < 1:
        raise ValueError(f"truncation order must be >= 1, got {order}")
    if order > _AXIS_CAP[dim] or order**dim > MAX_COEFFS:
        raise ResourceLimitError(
            f"order {order} in dimension {dim} exceeds the dense budget "
            f"(axis cap {_AXIS_CAP[dim]}, total cap {MAX_COEFFS})"
        )


def index_array(dim: int, order: int) -> np.ndarray:
    """Canonical enumeration of {1..order}^dim as an (M, dim) int array.

    The order is lexicographic: for dim=2, order=2 it is
    (1,1), (1,2), (2,1), (2,2).  Coefficient vectors throughout the
    package follow this enumeration.
    """
    check_size(dim, order)
    axes = [np.arange(1, order + 1)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, dim)


def dirichlet_eigenvalues(dim: int, order: int) -> np.ndarray:
    """Eigenvalues pi^2 * |alpha|^2 of -Laplacian, canonical order."""
    idx = index_array(dim, order)
    return np.pi**2 * np.sum(idx.astype(float) ** 2, axis=1)


def _as_points(x, dim: int) -> tuple[np.ndarray, bool]:
    """Coerce `x` to an (N, dim) array; report whether it was a single point."""
    arr = np.asarray(x, dtype=float)
    if dim == 1:
        if arr.ndim == 0:
            return arr.reshape(1, 1), True
        if arr.ndim == 1:
            return arr.reshape(-1, 1), False
        if arr.ndim == 2 and arr.shape[1] == 1:
            return arr, False
    else:
        if arr.ndim == 1 and arr.shape[0] == dim:
            return arr.reshape(1, dim), True
        if arr.ndim == 2 and arr.shape[1] == dim:
            return arr, False
    raise ValueError(f"cannot interpret points of shape {arr.shape} in dimension {dim}")


def as_point_batch(x, dim: int):
    """Validated (N, dim) batch plus a flag for scalar/single-point input."""
    pts, single = _as_points(x, dim)
    if not np.all(np.isfinite(pts)):
        raise DomainError("points must be finite")
    if np.any(pts < 0.0) or np.any(pts > 1.0):
        raise DomainError("points must lie in the closed unit cube")
    return pts, single


def validate_points(x, dim: int) -> np.ndarray:
    """Return `x` as an (N, dim) array, rejecting points outside [0, 1]^d."""
    return as_point_batch(x, dim)[0]


def _sine_table(coords, order: int) -> np.ndarray:
    """(N, S) table sin(n pi x_i) for n = 1..order, the 1D basis over sqrt(2).

    sin(n pi x) vanishes identically at x = 0 and 1; the table makes that
    exact instead of leaving ~1e-16 residue from rounded pi.
    """
    coords = np.asarray(coords, dtype=float).reshape(-1)
    table = np.outer(coords, np.arange(1, order + 1))
    table *= np.pi
    np.sin(table, out=table)  # in place: the table is the one (N, S) array held
    table[(coords == 0.0) | (coords == 1.0)] = 0.0
    return table


def basis_blocks(dim: int, order: int, x, columns: int | None = None):
    """The columns of `basis_matrix`, a few leading indices at a time.

    Yields (start, block) pairs: block holds columns start, start + 1, ...
    of the (N, S^d) matrix, those of k consecutive leading indices (first
    multi-index entries), k S^(d-1) columns, with k the least that gives
    at least `columns` columns (default N; k = 1 while that is at most
    S^(d-1)), so two point sets blocked with one `columns` pair up block
    by block; in 1D the one block is the whole (N, S) matrix.  Each block
    is bitwise equal to those columns of `basis_matrix`: the same products
    of the per-axis sine tables, in the same order, with boundary rows
    zeroed.  A product with the basis at scattered points (a Gram, a
    cross-kernel, an evaluation) reduces over the blocks, so it holds
    about N * max(N, S^(d-1)) basis values at a time, not N * S^d, and
    each block's product stays wide enough for BLAS: a Gram's n x n
    partial sums cost no more than its flops.
    """
    pts = validate_points(x, dim)
    check_size(dim, order)
    n = pts.shape[0]
    tables = [_sine_table(pts[:, axis], order) for axis in range(dim)]
    boundary = np.any((pts == 0.0) | (pts == 1.0), axis=1)
    width = order ** (dim - 1)
    leads = order if dim > 1 else 1
    step = min(leads, max(1, -(-(n if columns is None else columns) // width)))
    for lead in range(0, leads, step):
        block = tables[0] if dim == 1 else tables[0][:, lead:lead + step]
        for table in tables[1:]:
            block = (block[:, :, None] * table[:, None, :]).reshape(n, block.shape[1] * order)
        # a product with a zero factor may be -0.0; boundary rows are +0.0
        block[boundary] = 0.0
        block *= 2.0 ** (dim / 2.0)
        yield lead * width, block


def basis_matrix(dim: int, order: int, x) -> np.ndarray:
    """Matrix Psi with Psi[i, j] = psi_{alpha_j}(x_i), canonical columns.

    The basis is separable, so each axis contributes one (N, S) sine
    table and the canonical columns are broadcast products of those
    tables (`basis_blocks`): d * N * S sines and about N * S^d
    multiplications.  Values on a tensor grid need no such matrix; see
    `synthesize`.
    """
    pts = validate_points(x, dim)
    check_size(dim, order)
    vals = np.empty((pts.shape[0], order**dim))
    for start, block in basis_blocks(dim, order, pts):
        vals[:, start:start + block.shape[1]] = block
    return vals


class SpectralField(Record):
    """A function on [0, 1]^d given by a truncated sine expansion.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1 to 3.
    order : int
        Per-axis truncation order S; the field has order**dim coefficients.
    coeffs : ndarray
        Coefficients against the orthonormal basis, canonical enumeration.
        Stored read-only; fields are value objects.
    """

    dim: int
    order: int
    coeffs: np.ndarray

    def __post_init__(self):
        check_size(self.dim, self.order)
        c = np.array(self.coeffs, dtype=float).reshape(-1)
        if c.size != self.order**self.dim:
            raise OrderMismatchError(
                f"expected {self.order ** self.dim} coefficients, got {c.size}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def as_tensor(self) -> np.ndarray:
        """Coefficients reshaped to an (S, ..., S) tensor."""
        return self.coeffs.reshape((self.order,) * self.dim)

    def __call__(self, x):
        return evaluate(self, x)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_compatible(self, other)
        return SpectralField(self.dim, self.order, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_compatible(self, other)
        return SpectralField(self.dim, self.order, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.dim, self.order, float(scalar) * self.coeffs)

    __rmul__ = __mul__


def _check_compatible(u: SpectralField, v: SpectralField) -> None:
    if u.dim != v.dim or u.order != v.order:
        raise OrderMismatchError(
            f"incompatible fields: dim/order ({u.dim}, {u.order}) vs ({v.dim}, {v.order})"
        )


def zero_field(dim: int, order: int) -> SpectralField:
    check_size(dim, order)
    return SpectralField(dim, order, np.zeros(order**dim))


def basis_field(dim: int, order: int, alpha) -> SpectralField:
    """The field whose expansion is exactly psi_alpha."""
    alpha = tuple(int(a) for a in np.asarray(alpha).reshape(-1))
    if len(alpha) != dim or any(a < 1 or a > order for a in alpha):
        raise ValueError(f"multi-index {alpha} not in {{1..{order}}}^{dim}")
    coeffs = np.zeros(order**dim)
    flat = np.ravel_multi_index(tuple(a - 1 for a in alpha), (order,) * dim)
    coeffs[flat] = 1.0
    return SpectralField(dim, order, coeffs)


class QuadratureRule(Record):
    """Tensor-product Gauss-Legendre rule on [0, 1]^d.

    `axis_nodes` / `axis_weights` hold the 1D rule reused on every axis;
    `nodes` and `weights` expose the full tensor grid for generic
    integrands (the quadrature energy of `pde.energy`); `project` works
    from the axes alone.  Weights are strictly positive and sum to one on
    each axis, hence to one over the cube.
    """

    dim: int
    axis_nodes: np.ndarray
    axis_weights: np.ndarray

    def __post_init__(self):
        for name in ("axis_nodes", "axis_weights"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if np.any(self.axis_weights <= 0.0):
            raise ValueError("quadrature weights must be strictly positive")

    @property
    def nodes(self) -> np.ndarray:
        mesh = np.meshgrid(*([self.axis_nodes] * self.dim), indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, self.dim)

    @property
    def weights(self) -> np.ndarray:
        w = self.axis_weights
        for _ in range(self.dim - 1):
            w = np.multiply.outer(w, self.axis_weights)
        return w.reshape(-1)

    def integrate(self, values_on_nodes) -> float:
        """Weighted sum of integrand values given on the tensor grid."""
        vals = np.asarray(values_on_nodes, dtype=float).reshape(-1)
        return float(self.weights @ vals)


def gauss_legendre_rule(dim: int, order: int) -> QuadratureRule:
    """Rule sized for products of basis functions up to `order` per axis.

    Uses 2*order + 33 Gauss-Legendre nodes per axis, mapped from
    [-1, 1] to [0, 1].  That exceeds the 2*order + 1 floor needed for
    polynomial exactness arguments and, more to the point, resolves the
    sin(m pi x) * sin(n pi x) integrands (m, n <= order) to near machine
    precision (the sine Gram is the identity within 2e-14 at order 512).
    """
    check_size(dim, order)
    nodes, weights = _leggauss(2 * order + _EXTRA_NODES)
    return QuadratureRule(dim, 0.5 * (nodes + 1.0), 0.5 * weights)


def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton on P_n from x = -cos(pi (k - 1/4) / (n + 1/2)), with P_n and P_n'
    from the three-term recurrence over the nodes in [-1, 0], mirrored;
    weights 2 / ((1 - x^2) P_n'^2), accurate to relative rounding even at
    the endpoints (Hale & Townsend, SISC 2013).  O(n^2) flops, O(n) calls.
    """
    m = (n + 1) // 2
    x = -np.cos(np.pi * (np.arange(1, m + 1) - 0.25) / (n + 0.5))
    p0, p1, term = np.empty(m), np.empty(m), np.empty(m)
    for _ in range(_NEWTON_STEPS):
        p0.fill(1.0)
        p1[:] = x
        for j in range(1, n):
            # P_{j+1} = (2j + 1) / (j + 1) x P_j - j / (j + 1) P_{j-1}, into p0's array
            np.multiply((2 * j + 1) / (j + 1), x, out=term)
            term *= p1
            p0 *= j / (j + 1)
            np.subtract(term, p0, out=p0)
            p0, p1 = p1, p0
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    half = n // 2  # nodes strictly left of 0, mirrored to the right
    return np.r_[x, -x[:half][::-1]], np.r_[w, w[:half][::-1]]


_RULE_CACHE: dict[tuple[int, int], QuadratureRule] = {}


def default_rule(dim: int, order: int) -> QuadratureRule:
    key = (dim, order)
    if key not in _RULE_CACHE:
        _RULE_CACHE[key] = gauss_legendre_rule(dim, order)
    return _RULE_CACHE[key]


def project(f, dim: int, order: int) -> SpectralField:
    """L2 projection of a callable onto the truncated basis.

    Parameters
    ----------
    f : callable
        In 1D, maps the (m,) vector of quadrature nodes to (m,) values.
        Otherwise it gets the tensor rule's coordinates as `dim` axis
        arrays shaped to broadcast, (m, 1, 1), (1, m, 1) and (1, 1, m) in
        3D, and returns values that broadcast to the (m,) * dim grid (a
        `CompiledExpression` evaluates on such axes), so no array of
        grid points is formed.
    dim, order : int
        Target expansion shape.

    Returns
    -------
    SpectralField
        Coefficients c_alpha = integral of f * psi_alpha, computed by
        axis-separated contraction of the tensor quadrature grid.
    """
    check_size(dim, order)
    rule = default_rule(dim, order)
    m = rule.axis_nodes.size
    if dim == 1:
        coords = rule.axis_nodes
    else:
        coords = tuple(rule.axis_nodes.reshape((1,) * k + (m,) + (1,) * (dim - 1 - k))
                       for k in range(dim))
    vals = np.broadcast_to(np.asarray(f(coords), dtype=float), (m,) * dim)
    # C order, as the contractions hand it to BLAS, whose summation
    # order may depend on the operand layout.
    t = np.multiply(np.sqrt(2.0), _sine_table(rule.axis_nodes, order).T, order="C")
    t *= rule.axis_weights
    tensor = vals
    for _ in range(dim):
        # Contract the leading grid axis down to coefficient length; after
        # d passes every axis has been transformed once.
        tensor = np.tensordot(t, tensor, axes=(1, 0))
        tensor = np.moveaxis(tensor, 0, dim - 1)
    return SpectralField(dim, order, tensor.reshape(-1))


def evaluate(u: SpectralField, x):
    """Evaluate the expansion at points; the zero field (such as a zero
    prior mean) without a basis.

    Points go `_GRID_BLOCK // S^d` at a time, and each chunk's values are
    summed over its `basis_blocks`: in 1D one block of `_GRID_BLOCK`
    values, at the 2D and 3D caps blocks of 1/8 and 1/32 of that.
    """
    pts, single = as_point_batch(x, u.dim)
    vals = np.zeros(pts.shape[0])
    if u.coeffs.any():
        rows = max(1, _GRID_BLOCK // u.coeffs.size)
        for i in range(0, len(pts), rows):
            vals[i:i + rows] = functools.reduce(operator.iadd, (
                block @ u.coeffs[start:start + block.shape[1]]
                for start, block in basis_blocks(u.dim, u.order, pts[i:i + rows])))
    return float(vals[0]) if single else vals


def synthesis_tables(axes, order: int) -> list[np.ndarray]:
    """The (m_i, S) table sqrt(2) sin(n pi x) of each axis's m_i coordinates,
    n = 1..order: the 1D basis at the axis, for `synthesize`."""
    tables = [_sine_table(validate_points(coords, 1), order) for coords in axes]
    for table in tables:
        table *= np.sqrt(2.0)
    return tables


def grid_tables(axis, dim: int, order: int, width: int = 1):
    """The `synthesis_tables` of the grid axis x ... x axis (dim axes), a chunk
    of first-axis coordinates at a time: one list of dim tables per chunk, the
    other axes' tables built once.  This is the one chunk rule of every grid
    synthesis: a chunk has `_GRID_BLOCK` // max(S, m^(d-1) width) coordinates
    (at least one), so its first-axis table and the synthesis of `width`
    expansions on it each hold at most `_GRID_BLOCK` values.  Synthesizing
    chunk by chunk and concatenating gives the grid in C order.  Each list is
    emptied before the next chunk's table is built, so one chunk's table of
    the first axis is held at a time: a 1D grid's table is bounded."""
    rows = max(1, _GRID_BLOCK // max(order, len(axis) ** (dim - 1) * width))
    rest = synthesis_tables([axis] * (dim - 1), order)
    for i in range(0, len(axis), rows):
        tables = synthesis_tables([axis[i:i + rows]], order) + rest
        yield tables
        tables.clear()


def synthesize(tensor, tables) -> np.ndarray:
    """Values of sine expansions on a tensor grid, from its axes' tables.

    `tensor` holds coefficients of shape (S,) * d + batch, d = len(tables),
    in the canonical enumeration on its leading d axes; each trailing
    index is one expansion.  `tables` are the grid axes' (m_i, S) tables
    from `synthesis_tables`, so a caller that synthesizes many tensors on
    one grid builds them once.  Synthesis runs one axis at a time against
    its table, so the cost is O(d * m^d * S * batch) and no (m^d, S^d)
    basis matrix is formed (sum factorization).  Each axis is one product
    table @ tensor, so a batch held in C order, as `sampling` holds its
    point-major draws, is read as stored.  Squared tables give
    sum_alpha c_alpha psi_alpha(x)^2: from the eigenvalues, the kernel
    diagonal.

    Returns an array of shape (m_0, ..., m_{d-1}) + batch; zero wherever
    a coordinate is 0 or 1.
    """
    tensor = np.asarray(tensor, dtype=float)
    dim = len(tables)
    if not 1 <= dim <= tensor.ndim:
        raise ValueError(f"cannot synthesize {dim} axes of a tensor of shape {tensor.shape}")
    order = tensor.shape[0]
    if tensor.shape[:dim] != (order,) * dim or any(t.shape[1] != order for t in tables):
        raise OrderMismatchError(f"expected {dim} coefficient axes of length "
                                 f"{tables[0].shape[1]}, got shape {tensor.shape}")
    for table in tables:
        rest = tensor.shape[1:]
        product = table @ (tensor.reshape(order, -1) if rest else tensor)
        tensor = product.reshape((table.shape[0],) + rest)
        # the new grid axis goes behind the coefficient axes still to do
        tensor = np.moveaxis(tensor, 0, dim - 1)
    return tensor
