"""Counter-based prior and posterior sampling: reproducibility, scaling,
nesting.

The reproducibility properties are exact by construction (draw j is a
pure function of (seed, j)), so those tests use array equality, not
tolerances.  Moment checks use pinned seeds with Monte Carlo bounds.
"""

import logging
import tracemalloc

import numpy as np
import pytest

from bridgegp import (
    Dataset,
    KernelSpec,
    NestedReport,
    OrderMismatchError,
    PriorSampler,
    SpectralField,
    SpectralSource,
    basis_field,
    condition,
    eigenvalues,
    nested_consistency,
    posterior_value_blocks,
    sample_coefficients,
    solve,
    value_blocks,
)
from bridgegp import regression, sampling, spectral
from bridgegp.sampling import _philox


def sample(sampler, count):
    """Draws as full fields; the trailing coefficients past mesh_size are zero."""
    full = np.zeros((count, sampler.spec.n_coeffs))
    full[:, : sampler.mesh_size] = sample_coefficients(sampler, count)
    return [SpectralField(sampler.spec.dim, sampler.spec.order, row) for row in full]


def stacked(blocks):
    """All blocks of `value_blocks` or `posterior_value_blocks` in one
    (count, points) array."""
    return np.concatenate(list(blocks))


def make_sampler(order=32, beta=1.0, mesh=None, seed=0, mean=None):
    return PriorSampler(KernelSpec("bridge", order=order, beta=beta), mean, mesh, seed)


def stream(seed, j, size):
    """Draw j's first `size` normals: column j % 64 of the (size, 64) normals
    of the generator keyed (seed, j // 64)."""
    return _philox(seed, j // 64).standard_normal((size, 64))[:, j % 64]


class TestReproducibility:
    def test_same_seed_same_draws(self):
        s = make_sampler(seed=11)
        np.testing.assert_array_equal(
            sample_coefficients(s, 5), sample_coefficients(s, 5)
        )

    def test_batch_order_invariance(self):
        # draw j depends only on (seed, j), never on batching
        s = make_sampler(seed=3)
        whole = sample_coefficients(s, 8)
        head = sample_coefficients(s, 3)
        tail = sample_coefficients(s, 5, start=3)
        np.testing.assert_array_equal(whole, np.vstack([head, tail]))
        np.testing.assert_array_equal(whole[6:7], sample_coefficients(s, 1, start=6))

    def test_batches_equal_per_draw_streams(self):
        # row j is column j % 64 of the chunk of draws keyed (seed, j // 64)
        s = make_sampler(seed=17, mesh=24)
        for count, start in ((1, 40), (7, 0), (3, 5), (2, 127)):
            xi = np.array([stream(17, start + j, 24) for j in range(count)])
            np.testing.assert_array_equal(
                sample_coefficients(s, count, start), s.mean_prefix + s.scales * xi
            )

    def test_block_across_a_chunk_edge(self):
        # draws 60..69 take the last 4 columns of chunk 0 and the first 6 of chunk 1
        s = make_sampler(seed=4, mesh=12)
        whole = sample_coefficients(s, 70)
        np.testing.assert_array_equal(sample_coefficients(s, 10, start=60), whole[60:])
        np.testing.assert_array_equal(
            whole[60:] - s.mean_prefix,
            s.scales * np.array([stream(4, j, 12) for j in range(60, 70)]))

    def test_mesh_prefix_coincidence(self):
        # a draw's first m normals do not depend on how many it takes
        coarse = make_sampler(mesh=4, seed=9)
        fine = make_sampler(mesh=20, seed=9)
        np.testing.assert_array_equal(
            sample_coefficients(coarse, 6), sample_coefficients(fine, 6)[:, :4]
        )

    def test_different_seeds_differ(self):
        a = sample_coefficients(make_sampler(seed=1), 1)
        b = sample_coefficients(make_sampler(seed=2), 1)
        assert not np.array_equal(a, b)

    def test_beta_rescales_same_noise(self):
        # beta only scales the fluctuation; the underlying xi is shared
        base = sample_coefficients(make_sampler(beta=1.0, seed=5), 4)
        scaled = sample_coefficients(make_sampler(beta=4.0, seed=5), 4)
        np.testing.assert_allclose(scaled, base / 2.0, rtol=1e-15)


class TestChunks:
    """Normals come one generator per chunk of 64 draws, each chunk drawn once."""

    @staticmethod
    def routes():
        """The four ways to draw values, each as a function of the draw count."""
        bridge = TestPosteriorDraws.posterior()
        spec2 = KernelSpec("bridge", dim=2, order=6, beta=2.0)
        post2 = condition(spec2, None, Dataset(np.array([[0.3, 0.6], [0.7, 0.2]]),
                                               np.array([0.2, -0.1]), 1e-3))
        x = np.linspace(0.0, 1.0, 9)
        # 9 grid points resolve 7 modes: 7 coefficients are drawn as they are,
        # and 64 folded onto 7 modes
        return {
            "coefficients": lambda n: stacked(value_blocks(make_sampler(order=7, seed=3), x, n)),
            "points": lambda n: stacked(value_blocks(make_sampler(order=64, seed=3), x, n)),
            "backward": lambda n: stacked(posterior_value_blocks(bridge, x, n, seed=3)),
            "pathwise": lambda n: stacked(posterior_value_blocks(
                post2, np.linspace(0.1, 0.9, 5), n, seed=3)),
        }

    @pytest.mark.parametrize("route", ["coefficients", "points", "backward", "pathwise"])
    def test_rows_do_not_depend_on_the_block_size(self, monkeypatch, route):
        # 150 draws cross two chunk edges; blocks of 5, 7 or 14 draws straddle
        # them.  Backward sampling is elementwise, so its rows are exact.
        draw = self.routes()[route]
        full = draw(150)
        monkeypatch.setattr(sampling, "_BLOCK", 5)
        np.testing.assert_allclose(draw(150), full, rtol=0,
                                   atol=0.0 if route == "backward" else 1e-14)
        monkeypatch.setattr(sampling, "_BLOCK", 2048)
        monkeypatch.setattr(spectral, "_GRID_BLOCK", 70)
        np.testing.assert_allclose(draw(150), full, rtol=0, atol=1e-14)

    def test_each_chunk_is_drawn_once(self, monkeypatch):
        # 50,000 prior draws at 101 points take ceil(50000 / 64) = 782 generators,
        # and blocks of 100 draws, which straddle chunks, draw none twice
        keys = []

        def counted(seed, index):
            keys.append(index)
            return _philox(seed, index)

        monkeypatch.setattr(sampling, "_philox", counted)
        s = make_sampler(order=512, seed=41)
        for _ in value_blocks(s, np.linspace(0.0, 1.0, 101), 50000):
            pass
        assert keys == list(range(782))
        keys.clear()
        # 7 points and 3 sites: 7 + 3 normals a draw, blocks of 100
        monkeypatch.setattr(spectral, "_GRID_BLOCK", 1000)
        blocks = posterior_value_blocks(TestPosteriorDraws.posterior(),
                                        np.linspace(0.0, 1.0, 7), 1000, seed=2)
        assert [len(b) for b in blocks][:2] == [100, 100]
        assert keys == list(range(16))


class TestSamplerConstruction:
    def test_mean_from_solution(self):
        spec = KernelSpec("bridge", order=16)
        u0 = solve(SpectralSource(basis_field(1, 16, [1])), spec)
        s = PriorSampler(spec, u0, seed=0)
        np.testing.assert_array_equal(s.mean_prefix, u0.u0.coeffs)

    def test_scales_formula(self):
        spec = KernelSpec("bridge", order=8, beta=2.0)
        s = PriorSampler(spec, seed=0)
        np.testing.assert_allclose(
            s.scales, np.sqrt(eigenvalues(spec) / 2.0), rtol=1e-15
        )

    def test_mesh_size_validation(self):
        with pytest.raises(ValueError):
            make_sampler(order=8, mesh=0)
        with pytest.raises(ValueError):
            make_sampler(order=8, mesh=9)
        assert make_sampler(order=8).mesh_size == 8

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            make_sampler(seed=-1)
        with pytest.raises(ValueError):
            make_sampler(seed=2**64)
        make_sampler(seed=2**64 - 1)

    def test_mean_mismatch(self):
        spec = KernelSpec("bridge", order=16)
        with pytest.raises(OrderMismatchError):
            PriorSampler(spec, basis_field(1, 8, [1]))
        with pytest.raises(TypeError):
            PriorSampler(spec, "not a field")

    def test_negative_count_rejected(self):
        s = make_sampler()
        with pytest.raises(ValueError):
            sample_coefficients(s, -1)
        with pytest.raises(ValueError):
            sample_coefficients(s, 2, start=-1)


class TestDraws:
    def test_full_fields_zero_tail(self):
        s = make_sampler(order=32, mesh=5, seed=2)
        fields = sample(s, 3)
        assert len(fields) == 3
        for f in fields:
            assert isinstance(f, SpectralField)
            np.testing.assert_array_equal(f.coeffs[5:], np.zeros(27))

    def test_values_match_field_evaluation(self):
        # more points than coefficients: values come by coefficient synthesis
        s = make_sampler(order=16, seed=4)
        x = np.linspace(0.05, 0.95, 20)
        assert s.grid_modes(x)[2] == 16
        vals = stacked(value_blocks(s, x, 3))
        fields = sample(s, 3)
        for j in range(3):
            np.testing.assert_allclose(vals[j], fields[j](x), atol=1e-12)

    def test_values_chunking_invariant(self, monkeypatch):
        # coefficients are bit-identical across batchings; the evaluation
        # matmul may block differently per block size, so values agree
        # only to rounding
        s = make_sampler(order=16, seed=8)
        x = np.array([0.25, 0.75])
        full = stacked(value_blocks(s, x, 10))
        monkeypatch.setattr(sampling, "_BLOCK", 3)
        np.testing.assert_allclose(stacked(value_blocks(s, x, 10)), full, atol=1e-14)

    def test_blocks_follow_the_value_budget(self, monkeypatch):
        # coefficients: a draw holds max(16 grid points, 16 coefficients)
        # values, 6 draws fit a budget of 100, so 20 draws come in blocks
        # of 6, 6, 6, 2
        s = make_sampler(order=16, seed=6)
        x = np.linspace(0.0, 1.0, 16)
        full = stacked(value_blocks(s, x, 20))
        monkeypatch.setattr(spectral, "_GRID_BLOCK", 100)
        blocks = list(value_blocks(s, x, 20))
        assert [len(b) for b in blocks] == [6, 6, 6, 2]
        np.testing.assert_allclose(np.concatenate(blocks), full, rtol=0, atol=1e-14)
        # fold: 64 coefficients on 11 grid points are 9 modes, a draw holds
        # 11 values, 9 draws fit a budget of 100, so 20 draws come in blocks
        # of 9, 9, 2
        s = make_sampler(order=64, seed=6)
        x = np.linspace(0.0, 1.0, 11)
        monkeypatch.undo()
        assert s.grid_modes(x)[0].size == 9
        full = stacked(value_blocks(s, x, 20))
        monkeypatch.setattr(spectral, "_GRID_BLOCK", 100)
        blocks = list(value_blocks(s, x, 20))
        assert [len(b) for b in blocks] == [9, 9, 2]
        np.testing.assert_allclose(np.concatenate(blocks), full, rtol=0, atol=1e-14)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            stacked(value_blocks(make_sampler(), [0.5], 0))

    def test_moments(self):
        # mean and variance of the drawn coefficients at pinned seed
        spec = KernelSpec("bridge", order=4, beta=2.0)
        mean_field = SpectralField(1, 4, [1.0, -0.5, 0.0, 2.0])
        s = PriorSampler(spec, mean_field, seed=123)
        draws = sample_coefficients(s, 40000)
        expect_sd = s.scales
        np.testing.assert_allclose(
            draws.mean(axis=0), mean_field.coeffs, atol=5 * expect_sd.max() / 200.0
        )
        np.testing.assert_allclose(
            draws.std(axis=0), expect_sd, rtol=0.03
        )


def folded(sampler, m):
    """Standard deviations and means of the (m - 2)**dim grid modes, by the alias
    rule one mode at a time: on np.linspace(0, 1, m), sin(n pi x) is
    sin(r pi x), r = n mod 2(m - 1), or -sin((2(m - 1) - r) pi x), or 0."""
    dim, k, period = sampler.spec.dim, m - 2, 2 * (m - 1)
    order = sampler.mesh_size if dim == 1 else sampler.spec.order
    var, center = np.zeros((k,) * dim), np.zeros((k,) * dim)
    modes = np.ndindex(*(order,) * dim)
    for alpha, sd, c in zip(modes, sampler.scales, sampler.mean_prefix):
        index, sign = [], 1.0
        for a in alpha:
            r = (a + 1) % period
            if r in (0, m - 1):
                break
            index.append(r - 1 if r < m - 1 else period - r - 1)
            sign *= 1.0 if r < m - 1 else -1.0
        else:
            var[tuple(index)] += sd**2
            center[tuple(index)] += sign * c
    return np.sqrt(var).reshape(-1), center.reshape(-1)


def grid_points(axis, dim):
    return np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)


class TestFold:
    """A prior of more modes an axis than m - 2 is drawn on the uniform grid of m
    points from its modes folded onto the m - 2 that the grid resolves."""

    @staticmethod
    def prior(dim, order, mesh=None, seed=3):
        spec = KernelSpec("bridge", dim=dim, order=order, beta=2.5)
        size = order**dim
        mean = SpectralField(dim, order, np.cos(np.arange(size)) / np.arange(1, size + 1))
        return PriorSampler(spec, mean, mesh, seed)

    @pytest.mark.parametrize("dim,order,mesh,m", [
        (1, 512, None, 101), (1, 512, 300, 101), (2, 64, None, 17), (2, 64, 1000, 17),
        (3, 16, 2000, 7),
    ], ids=["1d", "1d-mesh", "2d", "2d-mesh", "3d-mesh"])
    def test_grid_covariance_is_the_truncated_priors(self, dim, order, mesh, m):
        s = self.prior(dim, order, mesh)
        scales, center, modes = s.grid_modes(np.linspace(0.0, 1.0, m))
        assert modes == m - 2 and scales.size == center.size == (m - 2) ** dim
        points = grid_points(np.linspace(0.0, 1.0, m), dim)
        table = spectral.basis_matrix(dim, m - 2, points)
        full = spectral.basis_matrix(dim, order, points)[:, :s.mesh_size]
        want = (full * s.scales**2) @ full.T
        got = (table * scales**2) @ table.T
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        want = full @ s.mean_prefix
        assert np.abs(table @ center - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("dim,order,m", [(1, 64, 9), (2, 8, 7)], ids=["1d", "2d"])
    def test_draws_are_the_per_draw_streams(self, dim, order, m):
        # row j is T (c + s xi_j), xi_j the first (m - 2)**dim normals of draw j,
        # on both sides of a chunk edge
        s = self.prior(dim, order, seed=12)
        axis = np.linspace(0.0, 1.0, m)
        scales, center = folded(s, m)
        table = spectral.basis_matrix(dim, m - 2, grid_points(axis, dim))
        draws = stacked(value_blocks(s, axis, 66))
        for j in (0, 1, 63, 64, 65):
            expect = table @ (center + scales * stream(12, j, (m - 2) ** dim))
            np.testing.assert_allclose(draws[j], expect, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("dim,order,m", [(1, 512, 101), (2, 8, 7), (3, 8, 5)],
                             ids=["1d", "2d", "3d"])
    def test_a_draw_takes_one_normal_per_folded_mode(self, monkeypatch, dim, order, m):
        sizes = []
        normals = sampling._normals

        def count(seed, size, *args):
            sizes.append(size)
            return normals(seed, size, *args)

        monkeypatch.setattr(sampling, "_normals", count)
        stacked(value_blocks(self.prior(dim, order), np.linspace(0.0, 1.0, m), 3))
        assert sizes == [(m - 2) ** dim]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_grid_2_is_zero_and_grid_3_one_mode(self, dim):
        s = self.prior(dim, 8)
        assert s.grid_modes(np.array([0.0, 1.0]))[2] == 8
        np.testing.assert_array_equal(stacked(value_blocks(s, [0.0, 1.0], 5)), 0.0)
        scales, center, modes = s.grid_modes(np.array([0.0, 0.5, 1.0]))
        assert modes == 1 and scales.shape == center.shape == (1,)
        np.testing.assert_allclose((scales, center), folded(s, 3), rtol=1e-15)
        vals = stacked(value_blocks(s, [0.0, 0.5, 1.0], 5)).reshape((5,) + (3,) * dim)
        middle = vals[(slice(None),) + (1,) * dim]
        stream0 = np.array([stream(3, j, 1)[0] for j in range(5)])
        np.testing.assert_allclose(middle, 2.0 ** (dim / 2) * (center + scales * stream0),
                                   rtol=1e-14)
        vals[(slice(None),) + (1,) * dim] = 0.0
        assert np.all(vals == 0.0)

    def test_boundary_values_are_exactly_zero(self):
        mean = SpectralField(1, 512, np.ones(512))
        s = PriorSampler(KernelSpec("bridge", order=512), mean, seed=5)
        vals = stacked(value_blocks(s, np.linspace(0.0, 1.0, 101), 50))
        assert np.all(vals[:, 0] == 0.0) and np.all(vals[:, -1] == 0.0)
        assert np.all(vals[:, 1:-1] != 0.0)

    def test_moments_are_the_prior_moments(self):
        # the folded draws sample the truncated prior's law: Monte Carlo mean
        # and variance at a pinned seed within 5 sigma of the exact
        spec = KernelSpec("bridge", order=128, beta=0.5)
        mean = SpectralField(1, 128, 1.0 / np.arange(1, 129) ** 2)
        s = PriorSampler(spec, mean, seed=77)
        x = np.linspace(0.0, 1.0, 21)
        assert s.grid_modes(x)[2] == 19
        table = spectral.synthesis_tables([x], 128)[0]
        var = (table**2) @ s.scales**2
        n = 20000
        draws = stacked(value_blocks(s, x, n))[:, 1:-1]
        var, expect = var[1:-1], (table @ mean.coeffs)[1:-1]
        assert np.all(np.abs(draws.mean(axis=0) - expect) <= 5 * np.sqrt(var / n))
        assert np.all(np.abs(draws.var(axis=0) - var) <= 5 * np.sqrt(2.0 / n) * var)

    def test_non_uniform_points_take_the_coefficient_route(self):
        # 9 points under 64 coefficients, but not np.linspace(0, 1, 9): one
        # normal per coefficient, synthesized at the points
        s = self.prior(1, 64, seed=2)
        nudged = np.linspace(0.0, 1.0, 9)
        nudged[3] = np.nextafter(nudged[3], 1.0)
        for x in (np.linspace(0.1, 0.9, 9), np.linspace(0.0, 1.0, 9) ** 2, nudged):
            scales, center, modes = s.grid_modes(x)
            assert modes == 64 and scales.size == center.size == 64
            table = spectral.synthesis_tables([x], 64)[0]
            np.testing.assert_allclose(stacked(value_blocks(s, x, 3)),
                                       sample_coefficients(s, 3) @ table.T, rtol=0, atol=1e-13)

    def test_large_grid_takes_the_coefficient_route(self, monkeypatch):
        # 2049 points resolve 2047 modes, fewer than 2048 coefficients: folded;
        # 2050 resolve 2048: drawn by coefficients, with no eigendecomposition
        def refuse(*args):
            raise AssertionError("built an N x N covariance")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        s = make_sampler(order=2048, seed=2)
        assert s.grid_modes(np.linspace(0.0, 1.0, 2049))[2] == 2047
        x = np.linspace(0.0, 1.0, 2050)
        assert s.grid_modes(x)[2] == 2048
        table = spectral.synthesis_tables([x], 2048)[0]
        np.testing.assert_allclose(stacked(value_blocks(s, x, 2)),
                                   sample_coefficients(s, 2) @ table.T, rtol=0, atol=1e-12)

    def test_route_depends_on_points_and_coefficients(self):
        # folded iff the grid is uniform, 1 <= m - 2 and (m - 2)^dim < mesh_size,
        # in every dimension: a fold never takes more normals than the prefix
        def normals(s, m):
            return s.grid_modes(np.linspace(0.0, 1.0, m))[0].size

        assert [normals(make_sampler(order=64), m) for m in (2, 3, 65, 66, 200)] == [64, 1, 63,
                                                                                      64, 64]
        assert [normals(make_sampler(order=64, mesh=32), m) for m in (33, 34)] == [31, 32]
        # a column of grid points is the same grid
        assert make_sampler(order=64).grid_modes(np.linspace(0.0, 1.0, 9)[:, None])[2] == 7
        two = PriorSampler(KernelSpec("bridge", dim=2, order=8))
        assert [normals(two, m) for m in (2, 3, 9, 10)] == [64, 1, 49, 64]
        assert [normals(PriorSampler(KernelSpec("bridge", dim=2, order=8), mesh_size=size), 9)
                for size in (3, 49, 50)] == [3, 49, 49]
        assert normals(PriorSampler(KernelSpec("bridge", dim=3, order=8), mesh_size=3), 10) == 3

    def test_long_expansion_forms_nothing_of_order_by_grid(self):
        # 262144 coefficients on 101 points: the fold holds a few vectors of the
        # order (12.6 MB at peak), never a (101, 262144) table of 212 MB
        s = make_sampler(order=262144, seed=1)
        x = np.linspace(0.0, 1.0, 101)
        tracemalloc.start()
        try:
            vals = stacked(value_blocks(s, x, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vals.shape == (3, 101)
        assert peak < 262144 * 101 * 8 / 10

    def test_long_grid_is_synthesized_a_chunk_of_its_table_at_a_time(self):
        # order 512 on 100001 points: the grid's sine table would take 391 MiB;
        # the draws are synthesized _GRID_BLOCK // 512 = 4096 points (16 MiB of
        # table) at a time
        s = make_sampler(order=512, seed=3)
        x = np.linspace(0.0, 1.0, 100001)
        tracemalloc.start()
        try:
            vals = stacked(value_blocks(s, x, 8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100001 * 512 * 8 / 12, f"peak {peak / 2**20:.1f} MiB"
        # points of every chunk against the draws synthesized on their own table
        some = np.arange(0, 100001, 997)
        table = spectral.synthesis_tables([x[some]], 512)[0]
        np.testing.assert_allclose(vals[:, some], sample_coefficients(s, 8) @ table.T,
                                   rtol=0, atol=1e-12)

    def test_chunked_synthesis_is_bitwise_at_order_64_in_256_point_chunks(self, monkeypatch):
        # bits hold at these sizes only; other sizes round differently (below)
        s = make_sampler(order=64, seed=5)
        x = np.linspace(0.0, 1.0, 2001)
        whole = stacked(value_blocks(s, x, 8))
        # 1 << 14 values a block: chunks of 256 points, and still one block of
        # the 8 draws (the product's width may change its rounding)
        monkeypatch.setattr(spectral, "_GRID_BLOCK", 1 << 14)
        chunked = stacked(value_blocks(s, x, 8))
        assert chunked.tobytes() == whole.tobytes()

    def test_chunked_synthesis_agrees_to_rounding_at_order_512_in_32_point_chunks(
            self, monkeypatch):
        # 3000 points in one chunk, then in chunks of 32 (and blocks of 5 draws):
        # the last bits move, within README "Determinism"'s bound of 32 eps of
        # a draw's largest absolute value (measured: up to 14.3 eps over 480 draws)
        s = make_sampler(order=512, seed=5)
        x = np.linspace(0.0, 1.0, 3000)
        whole = stacked(value_blocks(s, x, 8))
        monkeypatch.setattr(spectral, "_GRID_BLOCK", 1 << 14)
        chunked = stacked(value_blocks(s, x, 8))
        bound = 32 * np.finfo(float).eps * np.abs(whole).max(axis=1, keepdims=True)
        assert not np.array_equal(chunked, whole)
        assert np.all(np.abs(chunked - whole) <= bound)


def power_sampler(p, order, seed):
    return PriorSampler(KernelSpec("power", order=order, p=p), seed=seed)


class TestPowerVersions:
    def test_variance_profile(self):
        fields = sample(power_sampler(0.6, 64, seed=7), 5000)
        coeffs = np.stack([f.coeffs for f in fields])
        lam = (np.arange(1, 65) ** 2 * np.pi**2) ** -0.6
        np.testing.assert_allclose(coeffs.var(axis=0), lam, rtol=0.15)
        assert abs(coeffs.mean()) < 0.01

    def test_p_one_matches_bridge_sampler(self):
        power = sample(power_sampler(1.0, 16, seed=5), 3)
        bridge = sample(make_sampler(order=16, seed=5), 3)
        for a, b in zip(power, bridge):
            np.testing.assert_allclose(a.coeffs, b.coeffs, rtol=1e-12)

    def test_p_range_enforced(self):
        with pytest.raises(ValueError):
            power_sampler(0.5, 16, seed=0)
        with pytest.raises(ValueError):
            power_sampler(1.1, 16, seed=0)


class TestPosteriorDraws:
    @staticmethod
    def posterior():
        spec = KernelSpec("bridge", order=32, beta=2.0)
        data = Dataset(np.array([0.2, 0.45, 0.8]), np.array([0.1, -0.05, 0.2]), 1e-3)
        return condition(spec, basis_field(1, 32, [1]), data)

    def test_rows_are_the_per_draw_streams(self):
        # Row j takes draw j's first N + k normals, N = 7 points and k = 3 sites,
        # on both sides of the 2048-row block edge and for any count.  The last
        # k draw f at the sites: backward sampling from the rightmost leftwards
        # applies the lower Cholesky factor of their covariance in descending
        # order of position to those normals in that order.  The first N, one a
        # point in ascending order, draw the bridge between the two knots a < b
        # around each point, (b - x)/(b - a) W(tau), tau = (x - a)(b - a)/(b - x),
        # W a Brownian motion of rate 1/beta summed over the gap's points.
        post, beta = self.posterior(), 2.0
        x = np.array([0.9, 0.05, 0.45, 0.3, 0.7, 0.2, 0.6])  # 0.2 and 0.45 are data sites
        sites = np.array([0.2, 0.45, 0.8])
        knots = np.concatenate([[0.0], sites, [1.0]])
        root = np.linalg.cholesky(post.cov(sites)[::-1, ::-1])
        draws = stacked(posterior_value_blocks(post, x, 2050, seed=13))
        for j in (0, 1, 2047, 2048, 2049):
            xi = stream(13, j, 7 + 3)
            f = np.zeros(5)
            f[1:4] = post.mean(sites) - post.prior(sites) + (root @ xi[7:][::-1])[::-1]
            expect, walks = np.empty(7), {}
            for k, i in enumerate(np.argsort(x, kind="stable")):
                g = np.searchsorted(knots, x[i], side="right") - 1
                a, b = knots[g], knots[g + 1]
                tau = (x[i] - a) * (b - a) / (b - x[i])
                last, w = walks.get(g, (0.0, 0.0))
                walks[g] = tau, w + np.sqrt((tau - last) / beta) * xi[k]
                wa = (b - x[i]) / (b - a)
                expect[i] = (post.prior(x[i]) + wa * f[g] + (1.0 - wa) * f[g + 1]
                             + wa * walks[g][1])
            np.testing.assert_allclose(draws[j], expect, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(stacked(posterior_value_blocks(post, x, 3, seed=13)),
                                      draws[:3])
        # the bridge is pinned: draws at 0 and 1 are the prior mean there, 0
        ends = stacked(posterior_value_blocks(post, [1.0, 0.5, 0.0], 5, seed=13))
        assert np.all(ends[:, [0, 2]] == 0.0) and np.all(ends[:, 1] != 0.0)

    def test_a_bridge_draw_takes_a_normal_per_point_and_per_interior_site(self, monkeypatch):
        # 9 points; sites 0, 0.3 three times, 0.3 + 1e-9, 0.7 and 1: three
        # distinct sites inside (0, 1), so 12 normals a draw
        sizes = []
        normals = sampling._normals

        def count(seed, size, *args):
            sizes.append(size)
            return normals(seed, size, *args)

        monkeypatch.setattr(sampling, "_normals", count)
        x = np.array([0.0, 0.3, 0.3, 0.3, 0.3 + 1e-9, 0.7, 1.0])
        post = condition(KernelSpec("bridge", order=16), None,
                         Dataset(x, np.linspace(0.0, 0.2, 7), 1e-3))
        stacked(posterior_value_blocks(post, np.linspace(0.0, 1.0, 9), 3, seed=1))
        assert sizes == [9 + 3]

    def test_rows_are_the_per_draw_streams_in_2d(self, rng):
        # in 2D row j is Matheron's rule on draw j's first M + n normals, the
        # M prior normals xi1 then the n noise normals xi2, synthesized on the grid:
        # mean + s xi1 - G (G^T (xi1 / s) + sqrt(1 - g) xi2)
        spec = KernelSpec("bridge", dim=2, order=6, beta=2.0)
        data = Dataset(rng.uniform(0.1, 0.9, (4, 2)), rng.normal(size=4), 1e-3)
        post = condition(spec, None, data)
        axis = rng.uniform(size=3)
        draws = stacked(posterior_value_blocks(post, axis, 2049, seed=13))
        assert draws.shape == (2049, 9)
        scales = np.sqrt(eigenvalues(spec) / 2.0)
        _, noise_sd = regression._MarginalCovariance(spec, data).whitening(2.0)
        gain = post._factor
        points = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        psi = spectral.basis_matrix(2, 6, points)
        for j in (0, 2047, 2048):
            xi = stream(13, j, 36 + 4)
            xi1, xi2 = xi[:36], xi[36:]
            coeffs = (post.mean_field.coeffs + scales * xi1
                      - gain @ (gain.T @ (xi1 / scales) + noise_sd * xi2))
            np.testing.assert_allclose(draws[j], psi @ coeffs, rtol=0, atol=1e-15)

    def test_first_normals_are_the_prior_draws(self, monkeypatch):
        # draw j's first M normals are those of prior draw j at the same seed
        spec = KernelSpec("helmholtz", order=16, omega=2.0)
        post = condition(spec, None, Dataset(np.array([0.3, 0.7]), np.array([0.1, 0.2]), 1e-3))
        seen = []
        draw = regression.PosteriorModel.coefficient_draws

        def spy(self, xi):
            seen.append(xi[:16].copy())
            return draw(self, xi)

        monkeypatch.setattr(regression.PosteriorModel, "coefficient_draws", spy)
        monkeypatch.setattr(sampling, "_BLOCK", 30)
        stacked(posterior_value_blocks(post, np.linspace(0.0, 1.0, 5), 70, seed=21))
        prior = PriorSampler(spec, None, seed=21)
        xi = np.concatenate(seen, axis=1)
        np.testing.assert_array_equal(prior.scales * xi.T, sample_coefficients(prior, 70))

    @pytest.mark.parametrize("spec,axis", [
        (KernelSpec("bridge", dim=2, order=6, beta=2.0), np.linspace(0.15, 0.85, 4)),
        (KernelSpec("helmholtz", order=64, beta=2.0, omega=3.0), np.linspace(0.05, 0.95, 10)),
        (KernelSpec("power", order=64, beta=2.0, p=0.75), np.linspace(0.05, 0.95, 10)),
    ], ids=["bridge-2d", "helmholtz", "power"])
    def test_moments_of_the_pathwise_draws(self, spec, axis):
        # Monte Carlo mean, variance and covariance against the dense `cov` at a
        # pinned seed, each within 5 sigma; the boundary draws are exactly 0
        x = {1: np.array([0.2, 0.45, 0.8]),
             2: np.array([[0.2, 0.3], [0.45, 0.7], [0.8, 0.5]])}[spec.dim]
        post = condition(spec, None, Dataset(x, np.array([0.1, -0.05, 0.2]), 1e-3))
        points = axis if spec.dim == 1 else np.stack(
            np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        n = 40000
        draws = stacked(posterior_value_blocks(post, axis, n, seed=99))
        cov = post.cov(points)
        var = np.diag(cov)
        assert np.all(np.abs(draws.mean(axis=0) - post.mean(points)) <= 5 * np.sqrt(var / n))
        assert np.all(np.abs(draws.var(axis=0) - var) <= 5 * np.sqrt(2.0 / n) * var)
        sigma = np.sqrt((np.outer(var, var) + cov**2) / n)
        assert np.all(np.abs(np.cov(draws, rowvar=False) - cov) <= 5 * sigma)
        ends = stacked(posterior_value_blocks(post, [0.0, 0.5, 1.0], 5, seed=99))
        centre = (3**spec.dim - 1) // 2  # the one grid point off the boundary
        assert np.all(np.delete(ends, centre, axis=1) == 0.0) and np.all(ends[:, centre] != 0.0)

    def test_jittered_posterior_draws_with_one_logged_jitter(self, rng, shift_eigenvalue,
                                                              caplog):
        # 12 sites on a 9-term kernel with the least variance of V pushed to 0:
        # the one jitter is logged once, and the draws have the jittered law
        spec = KernelSpec("bridge", dim=2, order=3)
        data = Dataset(rng.uniform(0.05, 0.95, (12, 2)), rng.normal(size=12), 1e-4)
        shift_eigenvalue(12, lambda w: -data.sigma2)
        axis = np.linspace(0.2, 0.8, 3)
        n = 20000
        with caplog.at_level(logging.INFO, logger="bridgegp.regression"):
            post = condition(spec, None, data)
            draws = stacked(posterior_value_blocks(post, axis, n, seed=5))
        assert caplog.text.count("adding jitter") == 1
        points = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        var = post.var(points)
        assert np.isfinite(draws).all()
        assert np.all(np.abs(draws.mean(axis=0) - post.mean(points)) <= 5 * np.sqrt(var / n))
        assert np.all(np.abs(draws.var(axis=0) - var) <= 5 * np.sqrt(2.0 / n) * var)

    def test_blocks_follow_the_value_budget(self, monkeypatch):
        # 7 points and 3 sites: a draw holds its 7 + 3 normals, filled in
        # place, 4 draws fit a budget of 40, so 10 draws come in blocks of 4,
        # 4, 2; points out of ascending order hold a reordered copy too, 17
        post = self.posterior()
        x = np.linspace(0.0, 1.0, 7)
        full = stacked(posterior_value_blocks(post, x, 10, seed=2))
        monkeypatch.setattr(spectral, "_GRID_BLOCK", 40)
        assert [len(b) for b in posterior_value_blocks(post, x[::-1], 10, seed=2)] == [2] * 5
        blocks = list(posterior_value_blocks(post, x, 10, seed=2))
        assert [len(b) for b in blocks] == [4, 4, 2]
        np.testing.assert_allclose(np.concatenate(blocks), full, rtol=0, atol=1e-15)

    def test_moments(self):
        # Monte Carlo mean and variance at a pinned seed, 5 sigma bounds
        post = self.posterior()
        x = np.linspace(0.05, 0.95, 10)
        n = 20000
        draws = stacked(posterior_value_blocks(post, x, n, seed=99))
        var = post.var(x)
        assert np.all(np.abs(draws.mean(axis=0) - post.mean(x)) <= 5 * np.sqrt(var / n))
        assert np.all(np.abs(draws.var(axis=0) - var) <= 5 * np.sqrt(2.0 / n) * var)

    def test_covariance(self):
        # sample covariance of the backward draws against the dense `cov`
        # at a pinned seed, each entry within 5 sigma
        post = self.posterior()
        x = np.array([0.1, 0.2, 0.35, 0.45, 0.6, 0.8, 0.95])
        n = 20000
        draws = stacked(posterior_value_blocks(post, x, n, seed=7))
        cov = post.cov(x)
        got = np.cov(draws, rowvar=False)
        sigma = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
        assert np.all(np.abs(got - cov) <= 5 * sigma)

    def test_law_on_a_grid_of_41_points(self):
        # Sites on grid points (0.1, 0.5, 0.9), one repeated three times, sites
        # at 0 and 1, and grid points between sites: the Monte Carlo mean and
        # every entry of the sample covariance against the dense `cov` at a
        # pinned seed, each within 5 sigma; at 0 and 1 both are exactly 0
        x = np.array([0.0, 0.1, 0.1, 0.1, 0.33, 0.5, 0.62, 0.9, 1.0])
        y = np.array([0.05, 0.1, 0.12, 0.08, -0.1, 0.2, 0.0, -0.05, 0.1])
        post = condition(KernelSpec("bridge", order=32, beta=2.0), basis_field(1, 32, [1]),
                         Dataset(x, y, 1e-3))
        axis = np.linspace(0.0, 1.0, 41)
        n = 20000
        draws = stacked(posterior_value_blocks(post, axis, n, seed=17))
        cov = post.cov(axis)
        var = np.diag(cov)
        assert np.all(np.abs(draws.mean(axis=0) - post.mean(axis)) <= 5 * np.sqrt(var / n))
        sigma = np.sqrt((np.outer(var, var) + cov**2) / n)
        assert np.all(np.abs(np.cov(draws, rowvar=False) - cov) <= 5 * sigma)
        assert np.all(draws[:, [0, -1]] == 0.0)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            stacked(posterior_value_blocks(self.posterior(), [0.5], 1, seed=-1))


class TestNestedConsistency:
    def test_passes_for_nested_meshes(self):
        spec = KernelSpec("bridge", order=64)
        small = PriorSampler(spec, mesh_size=4, seed=1)
        large = PriorSampler(spec, mesh_size=12, seed=1)
        report = nested_consistency(small, large, draws=10000)
        assert isinstance(report, NestedReport)
        assert report.analytic_exact
        assert report.prefix_draws_match
        assert report.within_bound
        assert report.max_deviation < report.bound
        assert report.draws == 10000

    def test_prefix_check_skipped_for_different_seeds(self):
        spec = KernelSpec("bridge", order=32)
        small = PriorSampler(spec, mesh_size=4, seed=1)
        large = PriorSampler(spec, mesh_size=8, seed=2)
        report = nested_consistency(small, large, draws=4000)
        assert report.prefix_draws_match is None
        assert report.analytic_exact

    def test_rejects_different_specs(self):
        small = PriorSampler(KernelSpec("bridge", order=32), mesh_size=4)
        large = PriorSampler(KernelSpec("bridge", order=32, beta=2.0), mesh_size=8)
        with pytest.raises(ValueError):
            nested_consistency(small, large)

    def test_rejects_non_nested_meshes(self):
        spec = KernelSpec("bridge", order=32)
        with pytest.raises(ValueError):
            nested_consistency(
                PriorSampler(spec, mesh_size=8), PriorSampler(spec, mesh_size=4)
            )

    def test_rejects_disagreeing_means(self):
        spec = KernelSpec("bridge", order=32)
        small = PriorSampler(spec, basis_field(1, 32, [1]), mesh_size=4)
        large = PriorSampler(spec, basis_field(1, 32, [2]), mesh_size=8)
        with pytest.raises(ValueError):
            nested_consistency(small, large)
