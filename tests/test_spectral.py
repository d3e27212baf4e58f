"""Basis bookkeeping, quadrature, and projection round-trips.

The key oracle is the parabola x(1-x), whose sine coefficients are
known in closed form: 4*sqrt(2)/(n^3 pi^3) for odd n, zero for even n.
Those literals are frozen below and everything spectral is checked
against them.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from bridgegp import (
    DomainError,
    OrderMismatchError,
    ResourceLimitError,
    SpectralField,
    basis_field,
    basis_matrix,
    default_rule,
    dirichlet_eigenvalues,
    evaluate,
    gauss_legendre_rule,
    index_array,
    project,
    zero_field,
)
from bridgegp import spectral
from bridgegp.pde import ClosedFormSource
from bridgegp.spectral import synthesis_tables, synthesize, validate_points


def enumerate_indices(dim, order):
    """The canonical enumeration of {1..order}^dim, lexicographic, as tuples."""
    return list(itertools.product(range(1, order + 1), repeat=dim))


def basis_eval(alpha, x):
    """psi_alpha = 2^(d/2) prod_i sin(alpha_i pi x_i) at a scalar, a (d,) point
    or an (N, d) batch, zero on the boundary: one column of `basis_matrix`."""
    alpha = np.asarray(alpha).reshape(-1)
    pts, single = spectral.as_point_batch(x, alpha.size)
    vals = 2.0 ** (alpha.size / 2.0) * np.prod(np.sin(np.pi * pts * alpha), axis=1)
    vals[np.any((pts == 0.0) | (pts == 1.0), axis=1)] = 0.0
    return float(vals[0]) if single else vals


def synth(coeffs, axes):
    """Synthesis of `coeffs` on the grid of `axes`, tables built at the tensor's order."""
    return synthesize(coeffs, synthesis_tables(axes, np.shape(coeffs)[0]))


def recording(sizes, fn):
    """`fn`, appending the size of each value it returns to `sizes`."""
    def call(*args, **kwargs):
        out = fn(*args, **kwargs)
        sizes.append(np.size(out))
        return out
    return call


# 4*sqrt(2)/(n^3 pi^3), computed once with mpmath-free numpy and frozen.
PARABOLA_COEFFS = {
    1: 0.18244222961109438,
    3: 0.0067571196152257183,
    5: 0.0014595378368887552,
    7: 0.00053190154405566878,
}


def parabola(x):
    return x * (1.0 - x)


class TestEnumeration:
    def test_lexicographic_example(self):
        assert index_array(2, 2).tolist() == [[1, 1], [1, 2], [2, 1], [2, 2]]

    def test_index_array_matches_list(self):
        for dim, order in [(1, 7), (2, 4), (3, 3)]:
            arr = index_array(dim, order)
            assert arr.shape == (order**dim, dim)
            assert [tuple(row) for row in arr] == enumerate_indices(dim, order)

    def test_eigenvalues_canonical_order(self):
        lam = dirichlet_eigenvalues(2, 2)
        expect = np.pi**2 * np.array([2.0, 5.0, 5.0, 8.0])
        np.testing.assert_allclose(lam, expect, rtol=1e-15)

    def test_caps(self):
        with pytest.raises(ResourceLimitError):
            index_array(4, 2)
        with pytest.raises(ResourceLimitError):
            index_array(2, 65)
        with pytest.raises(ResourceLimitError):
            index_array(3, 33)
        with pytest.raises(ValueError):
            index_array(1, 0)
        # the largest allowed shapes construct fine
        index_array(2, 64)
        index_array(3, 32)


class TestBasis:
    def test_single_point_value(self):
        # sqrt(2) * sin(2 pi * 3/4) = -sqrt(2)
        assert basis_eval([2], 0.75) == pytest.approx(-np.sqrt(2), abs=1e-15)

    def test_matrix_agrees_with_eval(self, rng):
        pts = rng.uniform(size=(40, 2))
        mat = basis_matrix(2, 5, pts)
        for j, alpha in enumerate(enumerate_indices(2, 5)):
            # product association differs between the two paths
            np.testing.assert_allclose(
                mat[:, j], basis_eval(alpha, pts), rtol=1e-12, atol=1e-15
            )

    @pytest.mark.parametrize("dim, order", [(1, 9), (2, 6), (3, 4)])
    def test_matrix_equals_per_column_product(self, rng, dim, order):
        # 2^(d/2) prod_i sin(alpha_i pi x_i), multiplied axis 0 first and
        # scaled last, must match bit for bit, also on faces and corners
        inner = rng.uniform(size=(12, dim))
        faces = []
        for axis in range(dim):
            for side in (0.0, 1.0):
                face = inner[:3].copy()
                face[:, axis] = side
                faces.append(face)
        corners = np.array(list(itertools.product((0.0, 1.0), repeat=dim)))
        pts = np.vstack([inner, *faces, corners])
        on_boundary = np.any((pts == 0.0) | (pts == 1.0), axis=1)
        expected = np.empty((pts.shape[0], order**dim))
        for j, alpha in enumerate(enumerate_indices(dim, order)):
            col = np.sin(np.pi * (pts[:, 0] * alpha[0]))
            for axis in range(1, dim):
                col = col * np.sin(np.pi * (pts[:, axis] * alpha[axis]))
            col[on_boundary] = 0.0
            expected[:, j] = 2.0 ** (dim / 2.0) * col
        assert np.array_equal(basis_matrix(dim, order, pts), expected)
        # the blocks are those columns, the fewest leading indices a block
        # that give at least as many columns as points (one for 5 points)
        lead = order ** (dim - 1)
        for rows in (len(pts), 5):
            starts, blocks = zip(*spectral.basis_blocks(dim, order, pts[:rows]))
            widths = [b.shape[1] for b in blocks]
            step = order**dim if dim == 1 else min(order**dim, lead * -(-rows // lead))
            assert widths == [min(step, order**dim - start) for start in starts]
            assert list(starts) == list(range(0, order**dim, step))
            assert np.array_equal(np.hstack(blocks), expected[:rows])
            assert not np.any(np.signbit(np.hstack(blocks)[on_boundary[:rows]]))
        assert [b.shape[1] for _, b in spectral.basis_blocks(dim, order, pts[:5])] == (
            [order] if dim == 1 else [lead] * order)
        # `columns` gives two point sets one partition
        assert ([s for s, _ in spectral.basis_blocks(dim, order, pts[:5], len(pts))]
                == [s for s, _ in spectral.basis_blocks(dim, order, pts)])

    def test_boundary_values_exactly_zero(self):
        pts = np.array([[0.0, 0.3], [1.0, 0.7], [0.25, 0.0], [0.5, 1.0]])
        assert np.all(basis_matrix(2, 6, pts) == 0.0)
        assert basis_eval([3], 1.0) == 0.0
        assert basis_eval([3], 0.0) == 0.0

    def test_orthonormality(self):
        # Gram of the first 8 basis functions under the default rule.
        order = 8
        rule = default_rule(1, order)
        mat = basis_matrix(1, order, rule.nodes)
        gram = (mat * rule.weights[:, None]).T @ mat
        np.testing.assert_allclose(gram, np.eye(order), atol=1e-10)

    def test_orthonormality_2d(self):
        order = 4
        rule = default_rule(2, order)
        mat = basis_matrix(2, order, rule.nodes)
        gram = (mat * rule.weights[:, None]).T @ mat
        np.testing.assert_allclose(gram, np.eye(order**2), atol=1e-10)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            basis_eval([1], 1.2)
        with pytest.raises(DomainError):
            validate_points([[0.5, -0.1]], 2)
        with pytest.raises(DomainError):
            validate_points([np.nan], 1)
        with pytest.raises(ValueError):
            validate_points(np.zeros((3, 2)), 1)


class TestField:
    def test_shape_enforced(self):
        with pytest.raises(OrderMismatchError):
            SpectralField(2, 3, np.zeros(8))
        with pytest.raises(ValueError):
            SpectralField(1, 2, [1.0, np.inf])

    def test_coeffs_read_only(self):
        u = SpectralField(1, 3, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            u.coeffs[0] = 9.0

    def test_arithmetic(self):
        u = SpectralField(1, 2, [1.0, 2.0])
        v = SpectralField(1, 2, [10.0, -1.0])
        np.testing.assert_array_equal((u + v).coeffs, [11.0, 1.0])
        np.testing.assert_array_equal((u - v).coeffs, [-9.0, 3.0])
        np.testing.assert_array_equal((3.0 * u).coeffs, [3.0, 6.0])
        np.testing.assert_array_equal((u * 3.0).coeffs, [3.0, 6.0])
        with pytest.raises(OrderMismatchError):
            u + SpectralField(1, 3, [0.0, 0.0, 0.0])

    def test_basis_field_placement(self):
        u = basis_field(2, 3, (2, 3))
        tensor = u.as_tensor()
        assert tensor[1, 2] == 1.0
        assert np.sum(np.abs(u.coeffs)) == 1.0
        with pytest.raises(ValueError):
            basis_field(2, 3, (0, 1))
        with pytest.raises(ValueError):
            basis_field(2, 3, (1, 4))

    def test_zero_field_evaluates_without_a_basis(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built a basis for the zero field")

        monkeypatch.setattr(spectral, "basis_matrix", refuse)
        vals = evaluate(SpectralField(2, 8, np.zeros(64)), np.full((5, 2), 0.3))
        np.testing.assert_array_equal(vals, np.zeros(5))
        assert np.signbit(vals).sum() == 0
        assert evaluate(SpectralField(1, 512, np.zeros(512)), 0.5) == 0.0
        with pytest.raises(DomainError):
            evaluate(SpectralField(1, 4, np.zeros(4)), [1.5])

    def test_callable_matches_evaluate(self, rng):
        u = SpectralField(1, 5, rng.normal(size=5))
        x = rng.uniform(size=9)
        np.testing.assert_array_equal(u(x), evaluate(u, x))
        assert isinstance(u(0.5), float)


class TestQuadrature:
    def test_weights_sum_to_one(self):
        for dim in (1, 2, 3):
            rule = gauss_legendre_rule(dim, 3)
            assert rule.weights.sum() == pytest.approx(1.0, abs=1e-13)
            assert np.all(rule.weights > 0.0)

    def test_integrates_polynomial_exactly(self):
        rule = gauss_legendre_rule(1, 2)
        # integral of x^4 over [0, 1] is 1/5
        val = rule.integrate(rule.nodes[:, 0] ** 4)
        assert val == pytest.approx(0.2, abs=1e-15)

    @pytest.mark.parametrize("order", [1, 64, 512])
    def test_rule_matches_independent_references(self, order):
        rule = gauss_legendre_rule(1, order)
        x, w = rule.axis_nodes, rule.axis_weights
        # nodes: within 2 ulp of 1/2 (the spacing of the largest nodes) of
        # numpy's dense-eigenvalue rule, mapped to [0, 1]
        ref, _ = np.polynomial.legendre.leggauss(2 * order + 33)
        assert np.abs(x - 0.5 * (ref + 1.0)).max() <= 2 * np.spacing(0.5)
        # exactness: x^k integrates to 1 / (k + 1) for every k < 2n
        k = np.arange(2 * x.size)
        assert np.abs(w @ x[:, None] ** k - 1.0 / (k + 1)).max() <= 1e-15
        # the sine basis is orthonormal under the rule
        t = np.sqrt(2.0) * np.sin(np.pi * np.outer(np.arange(1, order + 1), x))
        assert np.abs((t * w) @ t.T - np.eye(order)).max() <= 5e-14

    @pytest.mark.parametrize("n", [97, 289, 1057])
    def test_in_place_recurrence_is_bitwise_the_allocating_one(self, n):
        # reference: the same Newton iteration with a new array every
        # recurrence step, in the same operation order
        m = (n + 1) // 2
        x = -np.cos(np.pi * (np.arange(1, m + 1) - 0.25) / (n + 0.5))
        for _ in range(spectral._NEWTON_STEPS):
            p0, p1 = np.ones(m), x
            for j in range(1, n):
                p0, p1 = p1, (2 * j + 1) / (j + 1) * x * p1 - j / (j + 1) * p0
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            x = x - p1 / dp
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        half = n // 2
        nodes, weights = spectral._leggauss(n)
        assert nodes.tobytes() == np.r_[x, -x[:half][::-1]].tobytes()
        assert weights.tobytes() == np.r_[w, w[:half][::-1]].tobytes()

    def test_default_rule_cached(self):
        assert default_rule(1, 6) is default_rule(1, 6)


class TestProjection:
    def test_parabola_coefficients_match_closed_form(self):
        u = project(parabola, 1, 8)
        for n in range(1, 9):
            expect = PARABOLA_COEFFS.get(n, 0.0)
            assert u.coeffs[n - 1] == pytest.approx(expect, abs=1e-14)

    def test_round_trip_band_limited(self, rng):
        # A field that lives inside the truncation projects back to itself.
        u = SpectralField(1, 6, rng.normal(size=6))
        v = project(u, 1, 6)
        np.testing.assert_allclose(v.coeffs, u.coeffs, atol=1e-12)

    def test_round_trip_2d(self, rng):
        # in 2D the integrand gets the rule's axes, (m, 1) and (1, m)
        u = SpectralField(2, 4, rng.normal(size=16))
        v = project(lambda axes: synth(u.as_tensor(), [a.reshape(-1) for a in axes]), 2, 4)
        np.testing.assert_allclose(v.coeffs, u.coeffs, atol=1e-12)

    def test_separable_product_2d(self):
        # f(x, y) = x(1-x) y(1-y) has coefficients c_m * c_n.
        u = project(lambda axes: parabola(axes[0]) * parabola(axes[1]), 2, 6)
        tensor = u.as_tensor()
        c1 = np.array([PARABOLA_COEFFS.get(n, 0.0) for n in range(1, 7)])
        np.testing.assert_allclose(tensor, np.outer(c1, c1), atol=1e-14)

    def test_parseval(self):
        # integral of x^2 (1-x)^2 over [0, 1] is 1/30; the S = 512 series
        # tail is ~1e-16, far below the tolerance.
        u = project(parabola, 1, 512)
        assert u.coeffs @ u.coeffs == pytest.approx(1.0 / 30.0, abs=1e-13)

    def test_evaluate_matches_function(self):
        u = project(parabola, 1, 512)
        x = np.array([0.1, 0.37, 0.5, 0.93])
        np.testing.assert_allclose(evaluate(u, x), parabola(x), atol=1e-8)

    def test_synthesis_on_rule_matches_pointwise(self, rng):
        u = SpectralField(2, 5, rng.normal(size=25))
        rule = default_rule(2, 5)
        np.testing.assert_allclose(
            synth(u.as_tensor(), [rule.axis_nodes] * 2).reshape(-1),
            evaluate(u, rule.nodes), atol=1e-12
        )
        with pytest.raises(OrderMismatchError):
            synth(np.zeros((5, 4)), [rule.axis_nodes] * 2)

    def test_3d_projection_evaluates_on_the_axes(self):
        # S = 32 in 3D: the rule has 97^3 nodes; their (N, 3) point array
        # alone would be 21.8 MB, and the old route peaked at 41.8 MB
        rule = default_rule(3, 32)
        m = rule.axis_nodes.size
        for text in ("exp(-((x1-0.3)^2+(x2-0.6)^2+(x3-0.5)^2)/0.02)",
                     "sin(pi*x1)*sin(2*pi*x2)*x3", "1"):
            source = ClosedFormSource(text)
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                coeffs = source.coefficients(3, 32)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, f"{text}: peak {peak / 2**20:.1f} MiB"
            # the same bits as the integrand's values at the rule's points
            on_points = project(lambda axes: source.evaluate(rule.nodes).reshape((m,) * 3), 3, 32)
            assert np.array_equal(coeffs, on_points.coeffs), text

    @pytest.mark.parametrize("dim, order, budget, chunks", [
        (1, 64, 64 * 40, 5), (2, 8, 49 * 10, 5), (3, 4, 41**2 * 10, 5)])
    def test_chunked_projection_agrees_and_stays_bounded(self, monkeypatch, dim, order,
                                                         budget, chunks):
        # the rule has m = 2S + 33 nodes an axis; the grid_tables rule takes
        # budget // max(S, m^(d-1)) first-axis nodes at a time, 40, 10 and 10 here
        text = {1: "sin(3*pi*x)*exp(x)", 2: "exp(-((x1-0.3)^2+(x2-0.6)^2)/0.02)",
                3: "sin(pi*x1)*cos(2*pi*x2)*exp(x3)"}[dim]
        compiled = ClosedFormSource(text).compiled(dim)
        whole = project(lambda axes: compiled(axes, {}), dim, order).coeffs
        firsts, values, tables, products = [], [], [], []

        def f(axes):
            firsts.append(np.size(axes if dim == 1 else axes[0]))
            return compiled(axes, {})

        monkeypatch.setattr(spectral, "_GRID_BLOCK", budget)
        monkeypatch.setattr(spectral, "_sine_table", recording(tables, spectral._sine_table))
        monkeypatch.setattr(np, "matmul", recording(products, np.matmul))
        chunked = project(recording(values, f), dim, order).coeffs
        assert len(firsts) == chunks and sum(firsts) == 2 * order + 33
        assert max(values + tables + products) <= budget
        assert np.abs(chunked - whole).max() <= 4 * np.finfo(float).eps * np.abs(whole).max()

    @pytest.mark.parametrize("order", [64, 1015])
    def test_one_chunk_1d_projection_is_one_product(self, order):
        # the bytes of one product of the weighted (S, m) table, held in C order,
        # with the values: order 1015 is the last whose rule is one chunk
        rule = default_rule(1, order)
        x = rule.axis_nodes
        assert spectral._chunk_rows(x.size, 1, order) >= x.size
        table = np.multiply(np.sqrt(2.0), spectral._sine_table(x, order).T, order="C")
        table *= rule.axis_weights
        want = np.tensordot(table, np.sin(3 * np.pi * x) * np.exp(x), axes=(1, 0))
        got = project(lambda x: np.sin(3 * np.pi * x) * np.exp(x), 1, order).coeffs
        assert got.tobytes() == want.tobytes()

    def test_inner_product_via_parseval(self):
        # the L2 inner product by quadrature is the coefficients' dot product
        u = SpectralField(1, 3, [1.0, 0.0, 2.0])
        v = SpectralField(1, 3, [0.5, 1.0, -1.0])
        rule = default_rule(1, 3)
        on_v = evaluate(v, rule.nodes)
        assert rule.integrate(evaluate(u, rule.nodes) * on_v) == pytest.approx(-1.5, abs=1e-14)
        assert rule.integrate(evaluate(zero_field(1, 3), rule.nodes) * on_v) == 0.0


class TestSynthesis:
    @staticmethod
    def grid(axis, dim):
        return np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)

    @pytest.mark.parametrize("dim, order", [(1, 40), (2, 12), (3, 6)])
    def test_matches_basis_matrix(self, rng, dim, order):
        # grid axes include both faces and one irregular interior coordinate
        axis = np.array([0.0, 0.013, 0.25, 0.5, 0.77, 1.0])
        coeffs = rng.normal(size=(order,) * dim)
        pts = self.grid(axis, dim)
        got = synth(coeffs, [axis] * dim).reshape(-1)
        want = basis_matrix(dim, order, pts) @ coeffs.reshape(-1)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
        on_face = np.any((pts == 0.0) | (pts == 1.0), axis=1)
        assert np.all(got[on_face] == 0.0) and not np.any(np.signbit(got[on_face]))
        if dim == 1:
            field = SpectralField(1, order, coeffs)
            assert np.array_equal(got, evaluate(field, axis))

    def test_batch_axes_are_independent_expansions(self, rng):
        coeffs = rng.normal(size=(5, 5, 2, 3))
        axes = [np.linspace(0.0, 1.0, 4), np.array([0.1, 0.6])]
        got = synth(coeffs, axes)
        assert got.shape == (4, 2, 2, 3)
        for i in range(2):
            for j in range(3):
                np.testing.assert_allclose(got[..., i, j],
                                           synth(coeffs[..., i, j], axes), atol=1e-14)

    def test_squared_tables_give_the_kernel_diagonal(self):
        order = 8
        lam = 1.0 / dirichlet_eigenvalues(2, order)
        axis = np.linspace(0.0, 1.0, 7)
        psi = basis_matrix(2, order, self.grid(axis, 2))
        squared = [t * t for t in synthesis_tables([axis] * 2, order)]
        got = synthesize(lam.reshape(order, order), squared).reshape(-1)
        np.testing.assert_allclose(got, np.einsum("ij,j,ij->i", psi, lam, psi), atol=1e-15)

    def test_rejections(self):
        with pytest.raises(OrderMismatchError):
            synth(np.zeros((4, 5)), [[0.5], [0.5]])
        with pytest.raises(OrderMismatchError):
            synthesize(np.zeros(4), synthesis_tables([[0.5]], 5))
        with pytest.raises(ValueError):
            synth(np.zeros(4), [[0.5], [0.5]])
        with pytest.raises(DomainError):
            synthesis_tables([[1.5]], 4)

    @pytest.mark.parametrize("dim, order, m, width, chunks", [
        (1, 8, 300, 1, [125, 125, 50]), (2, 8, 30, 4, [8, 8, 8, 6]),
        (3, 4, 10, 3, [3, 3, 3, 1]), (2, 8, 30, 10**6, [1] * 30),
        (2, 32, 20, 5, [6, 6, 6, 2])])
    def test_grid_tables_chunk_rule(self, monkeypatch, rng, dim, order, m, width, chunks):
        # _GRID_BLOCK // max(S, max(m, S)^(d-1) width) first-axis coordinates a
        # chunk, at least one
        axis = np.linspace(0.0, 1.0, m)
        coeffs = rng.normal(size=(order,) * dim)
        whole = synth(coeffs, [axis] * dim)
        monkeypatch.setattr(spectral, "_GRID_BLOCK", 1000)
        parts = [synthesize(coeffs, tables)
                 for tables in spectral.grid_tables(axis, dim, order, width)]
        assert [len(part) for part in parts] == chunks
        np.testing.assert_allclose(np.concatenate(parts), whole, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("dim, order, m, width", [
        (1, 8, 300, 3), (2, 32, 20, 5), (2, 8, 30, 4), (3, 8, 12, 2), (3, 16, 4, 3)])
    def test_grid_tables_bound_every_product(self, monkeypatch, rng, dim, order, m, width):
        # a step of the synthesis holds up to max(m, S)^(d-1) width values a
        # first-axis coordinate: S^(d-1) width after the first axis when S > m,
        # which a rule of m^(d-1) width would let pass the budget
        axis = np.linspace(0.0, 1.0, m)
        coeffs = rng.normal(size=(order,) * dim + (width,))
        whole = synth(coeffs, [axis] * dim)
        monkeypatch.setattr(spectral, "_GRID_BLOCK", 1000)
        sizes = []
        monkeypatch.setattr(spectral, "_sine_table", recording(sizes, spectral._sine_table))
        monkeypatch.setattr(np, "matmul", recording(sizes, np.matmul))
        parts = [synthesize(coeffs, tables)
                 for tables in spectral.grid_tables(axis, dim, order, width)]
        assert len(parts) > 1 and max(sizes) <= 1000
        np.testing.assert_allclose(np.concatenate(parts), whole, rtol=0,
                                   atol=1e-14 * np.abs(whole).max())

    def test_3d_default_grid_memory(self, rng):
        # S = 32 on the 101^3 grid: a dense basis would be 1030301 x 32768
        # doubles (252 GiB)
        coeffs = rng.normal(size=(32, 32, 32))
        axis = np.linspace(0.0, 1.0, 101)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            vals = synth(coeffs, [axis] * 3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert vals.shape == (101, 101, 101)
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        some = rng.integers(0, 101, size=(20, 3))
        want = basis_matrix(3, 32, axis[some]) @ coeffs.reshape(-1)
        np.testing.assert_allclose(vals[tuple(some.T)], want, atol=1e-12)
