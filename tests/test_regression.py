"""Posterior algebra, trust-weight calibration, and inversion.

Oracles here are deliberately independent of the library internals:
dense numpy solves for the conjugate posterior, scipy's multivariate
normal for marginal likelihoods, central differences for the beta
gradient, the closed-form stationary point M / ||dev||_H^2 for the
calibrated trust weight under exact coefficient data, and a 40-digit
mpmath solve for the Kalman-filter route of the 1D bridge.
"""

import ast
import builtins
import json
import logging
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import bridgegp
from bridgegp import (
    FLAT,
    JEFFREYS,
    ClosedFormSource,
    CoefficientObservations,
    Dataset,
    ExpressionSourceFamily,
    HyperPrior,
    KernelSpec,
    LinearSourceFamily,
    OrderMismatchError,
    SingularSystemError,
    SpectralField,
    SpectralSource,
    basis_field,
    beta_gradient,
    beta_map,
    condition,
    eigenvalues,
    fixed,
    invert_source,
    kernel_matrix,
    krr_solve,
    log_marginal,
    solve,
    zero_field,
)
from bridgegp import cli, kernels, pde, regression, sampling, spectral
from bridgegp.regression import _MarginalCovariance, closed_form_beta


def make_dataset(rng, n=12, sigma2=1e-4, dim=1):
    x = rng.uniform(0.05, 0.95, size=(n, dim))
    y = rng.normal(size=n)
    return Dataset(x if dim > 1 else x[:, 0], y, sigma2)


@pytest.fixture
def decompositions(monkeypatch):
    """Shapes of every eigendecomposition, sizes of every SpdSolver built and
    shapes of the points of every basis matrix built."""
    seen = {"eigh": [], "spd": [], "basis": []}

    def counting(original):
        def eigh(a, *args, **kwargs):
            seen["eigh"].append(np.shape(a))
            return original(a, *args, **kwargs)
        return eigh

    class CountingSolver(kernels.SpdSolver):
        def __init__(self, matrix):
            seen["spd"].append(len(matrix))
            super().__init__(matrix)

    def basis_matrix(dim, order, x, original=spectral.basis_matrix):
        seen["basis"].append(np.shape(x))
        return original(dim, order, x)

    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
    monkeypatch.setattr(kernels, "SpdSolver", CountingSolver)
    monkeypatch.setattr(spectral, "basis_matrix", basis_matrix)
    return seen


@pytest.fixture
def forms_calls(monkeypatch):
    """The number of betas of every `_MarginalCovariance.forms` call."""
    seen = []
    original = _MarginalCovariance.forms

    def forms(self, betas, cols):
        seen.append(np.size(betas))
        return original(self, betas, cols)

    monkeypatch.setattr(_MarginalCovariance, "forms", forms)
    return seen


class TestDataset:
    def test_noise_floor_warned(self):
        with pytest.warns(UserWarning, match="floored"):
            data = Dataset([0.5], [1.0], 1e-15)
        assert data.sigma2 == 1e-12
        with pytest.warns(UserWarning):
            assert Dataset([0.5], [1.0], 0.0).sigma2 == 1e-12

    def test_above_floor_untouched(self):
        assert Dataset([0.5], [1.0], 1e-4).sigma2 == 1e-4

    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset([0.1, 0.2], [1.0], 1e-4)  # length mismatch
        with pytest.raises(ValueError):
            Dataset([], [], 1e-4)
        with pytest.raises(ValueError):
            Dataset([0.5], [np.nan], 1e-4)
        with pytest.raises(ValueError):
            Dataset([0.5], [1.0], -1.0)
        from bridgegp import DomainError

        with pytest.raises(DomainError):
            Dataset([1.5], [1.0], 1e-4)

    def test_immutability(self):
        data = Dataset([0.25, 0.5], [1.0, 2.0], 1e-4)
        with pytest.raises(ValueError):
            data.X[0, 0] = 0.9
        with pytest.raises(ValueError):
            data.y[0] = 0.0
        assert data.n == 2
        assert data.dim == 1


class TestHyperPrior:
    def test_kinds(self):
        assert FLAT.log_density(3.0) == 0.0
        assert JEFFREYS.log_density(3.0) == -np.log(3.0)
        assert fixed(2.0).beta0 == 2.0

    def test_gradients(self):
        assert FLAT.dlog_density(5.0) == 0.0
        assert JEFFREYS.dlog_density(5.0) == -0.2
        with pytest.raises(ValueError):
            fixed(2.0).dlog_density(2.0)

    def test_arrays_of_betas(self):
        betas = np.array([0.5, 2.0, 7.0])
        np.testing.assert_array_equal(JEFFREYS.log_density(betas), -np.log(betas))
        np.testing.assert_array_equal(JEFFREYS.dlog_density(betas), -1.0 / betas)
        np.testing.assert_array_equal(FLAT.log_density(betas), np.zeros(3))
        np.testing.assert_array_equal(FLAT.dlog_density(betas), np.zeros(3))
        for hyper in (FLAT, JEFFREYS):
            assert type(hyper.log_density(3.0)) is float
            assert type(hyper.dlog_density(3.0)) is float

    def test_validation(self):
        with pytest.raises(ValueError):
            HyperPrior("gamma")
        with pytest.raises(ValueError):
            HyperPrior("fixed")
        with pytest.raises(ValueError):
            HyperPrior("flat", beta0=1.0)
        with pytest.raises(ValueError):
            fixed(-1.0)


class TestPosterior:
    def test_dense_oracle(self, rng):
        # hand-rolled conjugate Gaussian update on the same kernel
        spec = KernelSpec("bridge", beta=2.0)
        data = make_dataset(rng, n=9)
        post = condition(spec, None, data)
        xs = rng.uniform(size=7)

        kxx = kernel_matrix(spec, data.X) + data.sigma2 * np.eye(data.n)
        ksx = kernel_matrix(spec, xs, data.X)
        kss = kernel_matrix(spec, xs)
        w = np.linalg.solve(kxx, data.y)
        np.testing.assert_allclose(post.mean(xs), ksx @ w, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(
            post.cov(xs), kss - ksx @ np.linalg.solve(kxx, ksx.T), atol=1e-10
        )
        np.testing.assert_allclose(post.var(xs), np.diag(post.cov(xs)), atol=1e-10)

    def test_single_point_by_hand(self):
        # one observation at 1/2: everything is scalar algebra
        spec = KernelSpec("bridge", beta=4.0)
        sigma2 = 0.01
        y = 0.3
        data = Dataset([0.5], [y], sigma2)
        post = condition(spec, None, data)
        k00 = 0.25 / 4.0
        x = 0.3
        kx = (min(x, 0.5) - x * 0.5) / 4.0
        assert post.mean(x) == pytest.approx(kx * y / (k00 + sigma2), rel=1e-12)
        assert post.var(np.array([x]))[0] == pytest.approx(
            (x - x**2) / 4.0 - kx**2 / (k00 + sigma2), rel=1e-10
        )

    def test_prior_mean_shift_exact(self, rng):
        # conditioning with mean u0 == u0 plus zero-mean conditioning on
        # shifted data; same weights, so bit-exact
        spec = KernelSpec("bridge", order=64)
        src = SpectralSource(SpectralField(1, 64, rng.normal(size=64)))
        u0 = solve(src, spec)
        data = make_dataset(rng, n=8)
        shifted = Dataset(data.X[:, 0], data.y - u0(data.X[:, 0]), data.sigma2)
        xs = rng.uniform(size=5)
        with_mean = condition(spec, u0, data).mean(xs)
        zero_mean = condition(spec, None, shifted).mean(xs)
        np.testing.assert_array_equal(with_mean, zero_mean + u0(xs))

    def test_mean_interpolates_when_noise_small(self, rng):
        spec = KernelSpec("bridge")
        data = make_dataset(rng, n=6, sigma2=1e-10)
        post = condition(spec, None, data)
        np.testing.assert_allclose(post.mean(data.X[:, 0]), data.y, atol=1e-6)

    def test_variance_shrinks_and_stays_nonnegative(self, rng):
        spec = KernelSpec("bridge")
        data = make_dataset(rng, n=10, sigma2=1e-8)
        post = condition(spec, None, data)
        xs = np.concatenate([data.X[:, 0], rng.uniform(size=20)])
        v = post.var(xs)
        assert np.all(v >= 0.0)
        assert np.all(v <= xs * (1 - xs) + 1e-12)

    def test_scalar_output_types(self, rng):
        post = condition(KernelSpec("bridge"), None, make_dataset(rng))
        assert isinstance(post.mean(0.5), float)
        assert post.mean(np.array([0.5])).shape == (1,)

    @pytest.mark.parametrize("family, dim, order", [
        ("bridge", 2, 10), ("bridge", 3, 5), ("helmholtz", 1, 40)])
    def test_coefficient_space_dense_oracle(self, rng, family, dim, order):
        # the finite-rank route against the textbook kernel-space update
        spec = KernelSpec(family, dim=dim, order=order, beta=1.3,
                          omega=2.0 if family == "helmholtz" else None)
        data = make_dataset(rng, n=11, sigma2=1e-3, dim=dim)
        post = condition(spec, None, data)
        xs = rng.uniform(size=(7, dim))
        kxx = kernel_matrix(spec, data.X) + data.sigma2 * np.eye(data.n)
        ksx = kernel_matrix(spec, xs, data.X)
        cov = kernel_matrix(spec, xs) - ksx @ np.linalg.solve(kxx, ksx.T)
        np.testing.assert_allclose(post.mean(xs), ksx @ np.linalg.solve(kxx, data.y),
                                   atol=1e-12)
        np.testing.assert_allclose(post.cov(xs), cov, atol=1e-12)
        np.testing.assert_allclose(post.cov(xs, xs[:3]), cov[:, :3], atol=1e-12)
        np.testing.assert_allclose(post.var(xs), np.diag(cov), atol=1e-12)
        axis = np.linspace(0.0, 1.0, 5)
        pts = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
        mean, var = post.on_grid(axis)
        np.testing.assert_allclose(mean, post.mean(pts), atol=1e-13)
        np.testing.assert_allclose(var, post.var(pts), atol=1e-13)

    def test_closed_form_grid_is_the_pointwise_route(self, rng):
        post = condition(KernelSpec("bridge", beta=2.0), None, make_dataset(rng))
        axis = np.linspace(0.0, 1.0, 21)
        mean, var = post.on_grid(axis)
        assert np.array_equal(mean, post.mean(axis))
        assert np.array_equal(var, post.var(axis))

    def test_3d_grid_prediction_memory(self, rng):
        # S = 32, n = 60 on a 30^3 grid: a dense grid basis alone would be
        # 27000 x 32768 doubles (6.6 GiB)
        spec = KernelSpec("bridge", dim=3, order=32)
        data = make_dataset(rng, n=60, sigma2=1e-4, dim=3)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            mean, var = condition(spec, None, data).on_grid(np.linspace(0.0, 1.0, 30))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert mean.shape == var.shape == (30**3,)
        assert peak < 128 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_3d_conditioning_holds_one_basis_at_a_time(self, rng):
        # S = 32, n = 60: the basis at the data and G are each n x S^3 doubles
        # (15 MiB); the Gram and G are built from basis blocks, and G after
        # the basis is released, so no two such arrays are held at once
        spec = KernelSpec("bridge", dim=3, order=32)
        data = make_dataset(rng, n=60, sigma2=1e-4, dim=3)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            post = condition(spec, None, data)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * data.n * spec.n_coeffs * 8, f"peak {peak / 2**20:.1f} MiB"
        psi = spectral.basis_matrix(3, 32, data.X)
        lam = kernels.eigenvalues(spec)
        dense = (psi * lam) @ psi.T + data.sigma2 * np.eye(data.n)
        coeffs = lam * (psi.T @ np.linalg.solve(dense, data.y))
        np.testing.assert_allclose(post.mean_field.coeffs, coeffs, rtol=0,
                                   atol=1e-9 * np.abs(coeffs).max())

    def test_1d_grid_holds_a_chunk_of_the_sine_table(self, rng):
        # helmholtz at S = 512 on 40001 points: the grid's sine table would be
        # 156 MiB; on_grid synthesizes _GRID_BLOCK // 512 = 4096 points at a time
        post = condition(KernelSpec("helmholtz", order=512, omega=3.0), None,
                         make_dataset(rng, n=20))
        axis = np.linspace(0.0, 1.0, 40001)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            mean, var = post.on_grid(axis)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < axis.size * 512 * 8 / 4, f"peak {peak / 2**20:.1f} MiB"
        some = np.arange(0, axis.size, 997)
        np.testing.assert_allclose(mean[some], post.mean(axis[some]), rtol=0, atol=1e-13)
        np.testing.assert_allclose(var[some], post.var(axis[some]), rtol=0, atol=1e-13)

    def test_prior_rejections(self, rng):
        data = make_dataset(rng)
        with pytest.raises(TypeError):
            condition(KernelSpec("bridge"), 5.0, data)
        with pytest.raises(OrderMismatchError):
            condition(KernelSpec("bridge", order=8), zero_field(1, 9), data)
        with pytest.raises(OrderMismatchError):
            condition(KernelSpec("bridge", dim=2, order=8), None, data)


def markov_design(rng, n, sigma2):
    """1D data with sites at 0 and 1, three observations at 0.5, repeated
    sites, and a rough prior mean; the query points include the sites."""
    x = rng.uniform(0.0, 1.0, n)
    x[:6] = [0.0, 1.0, 0.5, 0.5, 0.5, 0.3]
    x[6:9] = x[9:12]
    y = np.sin(2 * np.pi * x) + 0.1 * rng.normal(size=n)
    spec = KernelSpec("bridge", order=64, beta=3.0)
    coeffs = rng.normal(size=64) / np.arange(1, 65) ** 2
    prior = solve(SpectralSource(SpectralField(1, 64, coeffs)), spec)
    query = np.concatenate([np.linspace(0.0, 1.0, 201), x[:20], [0.3]])
    return spec, prior, Dataset(x, y, sigma2), query


class TestMarkovRoute:
    """The 1D bridge posterior by Kalman filter and RTS smoother."""

    @pytest.mark.parametrize("n", [40, 3000])
    def test_matches_the_dense_oracle(self, rng, n):
        # The dense routes solve with a Gram whose condition number grows
        # with n; their own rounding error reaches about 3e-12 of max|mean|
        # at n = 3000, which the Markov route, accurate to a few 1e-15
        # there, does not share (see the 40-digit test below).
        spec, prior, data, query = markov_design(rng, n, 1e-4)
        post = condition(spec, prior, data)
        mean, var = post.mean(query), post.var(query)
        dense = krr_solve(spec, prior, data, post.eta)(query)
        assert np.abs(mean - dense).max() <= 1e-10 * np.abs(dense).max()
        few = query[::5]
        np.testing.assert_allclose(var[::5], np.diag(post.cov(few)), rtol=0,
                                   atol=1e-14 * 0.25 / spec.beta)
        assert var[0] == var[200] == 0.0 and mean[0] == mean[200] == 0.0
        assert np.all(var >= 0.0)

    @pytest.mark.parametrize("sigma2", [1e-4, 1e-12])
    def test_matches_a_40_digit_reference(self, rng, sigma2):
        # at the noise floor three observations at one site make the dense
        # Gram nearly singular; the filter never forms it
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec, prior, data, query = markov_design(rng, 40, sigma2)
        post = condition(spec, prior, data)
        x = data.X[:, 0]
        resid = data.y - prior(x)

        def k(a, b):
            return mpmath.matrix([[(min(s, t) - mpmath.mpf(s) * t) / spec.beta for t in b]
                                  for s in a])

        query = query[::4]
        gram = k(x, x) + data.sigma2 * mpmath.eye(data.n)
        weights = mpmath.lu_solve(gram, mpmath.matrix(resid.tolist()))
        cross = k(query, x)
        solved = mpmath.inverse(gram) * cross.T
        ref_mean = np.array((cross * weights).tolist(), dtype=float)[:, 0] + prior(query)
        ref_var = np.array([(mpmath.mpf(t) - mpmath.mpf(t) * t) / spec.beta
                            - sum(cross[i, j] * solved[j, i] for j in range(data.n))
                            for i, t in enumerate(query)], dtype=float)
        # measured: 2e-16 of max|mean| and 2e-17 of max k(x,x) at either sigma2,
        # where the dense route is 5e-14 and 6e-6 of max|mean| off
        eps = np.finfo(float).eps
        assert np.abs(post.mean(query) - ref_mean).max() <= 8 * eps * np.abs(ref_mean).max()
        assert np.abs(post.var(query) - ref_var).max() <= 8 * eps * 0.25 / spec.beta

    def test_query_points_on_and_between_sites_match_the_dense_oracles(self):
        # On a site, on a site observed three times, at 0 and 1 (sites too),
        # just either side of a site, and between two sites with no other query
        # point between them: the interpolated moments against `krr_solve` and
        # the dense `cov`, and exact zeros at the pinned ends
        spec = KernelSpec("bridge", order=64, beta=3.0)
        x = np.array([0.0, 0.2, 0.45, 0.45, 0.45, 0.5, 0.52, 0.8, 1.0])
        y = np.array([0.1, 0.3, -0.2, -0.25, -0.15, 0.05, 0.1, 0.4, -0.1])
        prior = basis_field(1, 64, [2])
        post = condition(spec, prior, Dataset(x, y, 1e-4))
        query = np.array([0.0, 0.2, 0.45, np.nextafter(0.45, 0.0), np.nextafter(0.45, 1.0),
                          0.51, 0.1, 0.9, 1.0])
        mean, var = post.mean(query), post.var(query)
        dense = krr_solve(spec, prior, Dataset(x, y, 1e-4), post.eta)(query)
        assert np.abs(mean - dense).max() <= 1e-12 * np.abs(dense).max()
        np.testing.assert_allclose(var, np.diag(post.cov(query)), rtol=0,
                                   atol=1e-15 * 0.25 / spec.beta)
        assert mean[0] == mean[-1] == var[0] == var[-1] == 0.0
        assert np.all(var[1:-1] > 0.0)
        grid_mean, grid_var = post.on_grid(query)
        assert np.array_equal(grid_mean, mean) and np.array_equal(grid_var, var)

    def test_sites_only_at_the_pinned_ends_leave_the_prior(self):
        # no site inside (0, 1): no knot between 0 and 1, and data at the
        # pinned ends see only noise, so the posterior is the prior bridge
        spec = KernelSpec("bridge", order=16, beta=2.0)
        prior = basis_field(1, 16, [1])
        post = condition(spec, prior, Dataset(np.array([0.0, 1.0, 1.0]), np.ones(3), 1e-4))
        query = np.array([0.7, 0.0, 0.25, 1.0, 0.5])
        np.testing.assert_array_equal(post.mean(query), prior(query))
        np.testing.assert_allclose(post.var(query), query * (1.0 - query) / 2.0, rtol=1e-15)
        np.testing.assert_allclose(post.cov(query), (np.minimum.outer(query, query)
                                                     - np.outer(query, query)) / 2.0, atol=1e-15)
        draws = np.concatenate(list(sampling.posterior_value_blocks(post, query, 5, seed=3)))
        assert draws.shape == (5, 5) and np.all(draws[:, [1, 3]] == 0.0)

    def test_the_site_pass_takes_n_steps_whatever_the_query(self, monkeypatch):
        # 9 observations, 7 inside (0, 1) at 5 distinct sites: the filter takes
        # 7 steps and the smoother 5 in `condition`; the moments at 11 or
        # 100001 points take none, and a block of draws 4, one per site left
        # of the last
        steps = []

        def counted(*iterables):
            for item in builtins.zip(*iterables):
                steps.append(item)
                yield item

        monkeypatch.setattr(regression, "zip", counted, raising=False)
        x = np.array([0.0, 0.2, 0.45, 0.45, 0.45, 0.5, 0.52, 0.8, 1.0])
        post = condition(KernelSpec("bridge", order=16), None, Dataset(x, np.sin(x), 1e-4))
        assert len(steps) == 7 + 5
        for grid in (11, 100001):
            steps.clear()
            axis = np.linspace(0.0, 1.0, grid)
            for moments in (post.on_grid, post.mean, post.var):
                moments(axis)
            assert steps == []
            next(sampling.posterior_value_blocks(post, axis, 3, seed=1))
            assert len(steps) == 4

    def test_fit_study_and_sample_build_no_gram(self, tmp_path, monkeypatch):
        # 1D fit, study convergence and a 1D posterior sample run without a
        # Gram, an SpdSolver or an eigendecomposition
        def refuse(*args, **kwargs):
            raise AssertionError("the Markov route built a dense factorization")

        monkeypatch.setattr(kernels, "SpdSolver", refuse)
        monkeypatch.setattr(kernels, "kernel_matrix", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        data = {"x": [0.1, 0.4, 0.4, 0.9], "y": [0.2, 0.5, 0.4, -0.1]}
        kernel = {"family": "bridge", "dim": 1, "order": 32, "beta": 2.0}
        configs = {
            "fit": {"kernel": kernel, "data": data, "sigma2": 1e-4, "grid": 11},
            "sample": {"kernel": kernel, "data": data, "sigma2": 1e-4, "grid": 11,
                       "mode": "posterior", "moment_draws": 50},
            "convergence": {"kernel": kernel, "assumed_source": {"expression": "0"},
                            "truth": {"expression": "sin(pi*x)"}, "ns": [4, 8, 16],
                            "grid": 101},
        }
        for command, cfg in configs.items():
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            argv = ["study", command] if command == "convergence" else [command]
            assert cli.main(argv + ["--config", str(path),
                                    "--out", str(tmp_path / f"{command}.csv")]) == 0


class TestKrrEquivalence:
    def test_eta_formula(self, rng):
        spec = KernelSpec("bridge", beta=3.0)
        data = make_dataset(rng, n=10, sigma2=2e-3)
        post = condition(spec, None, data)
        assert post.eta == pytest.approx(2e-3 * 3.0 / 10, rel=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
    def test_posterior_mean_solves_ridge(self, beta):
        # the two routes share no code beyond the Gram entries
        rng = np.random.default_rng(7)
        spec = KernelSpec("bridge", beta=beta)
        data = Dataset(rng.uniform(0.1, 0.9, size=8), rng.normal(size=8), 1e-3)
        post = condition(spec, None, data)
        ridge = krr_solve(spec, None, data, post.eta)
        xs = np.linspace(0.05, 0.95, 11)
        np.testing.assert_allclose(ridge(xs), post.mean(xs), atol=1e-9)

    def test_with_prior_mean(self, rng):
        spec = KernelSpec("bridge", beta=0.7, order=64)
        u0 = solve(SpectralSource(SpectralField(1, 64, rng.normal(size=64))), spec)
        data = make_dataset(rng, n=12, sigma2=5e-4)
        post = condition(spec, u0, data)
        ridge = krr_solve(spec, u0, data, post.eta)
        xs = rng.uniform(size=9)
        np.testing.assert_allclose(ridge(xs), post.mean(xs), atol=1e-9)

    @pytest.mark.parametrize("dim, order", [(2, 12), (3, 6)])
    @pytest.mark.parametrize("with_prior", [False, True], ids=["zero-mean", "prior-mean"])
    def test_grid_mean_solves_ridge_in_higher_dimensions(self, rng, dim, order, with_prior):
        # d >= 2: coefficient-space conditioning against kernel-space ridge
        spec = KernelSpec("bridge", dim=dim, order=order, beta=1.7)
        u0 = None
        if with_prior:
            u0 = solve(SpectralSource(SpectralField(dim, order, rng.normal(size=order**dim))),
                       spec)
        data = make_dataset(rng, n=15, sigma2=1e-3, dim=dim)
        post = condition(spec, u0, data)
        ridge = krr_solve(spec, u0, data, post.eta)
        axis = np.linspace(0.0, 1.0, 6)
        pts = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
        mean, var = post.on_grid(axis)
        np.testing.assert_allclose(mean, ridge(pts), atol=1e-9)
        np.testing.assert_allclose(post.mean(pts), ridge(pts), atol=1e-9)
        np.testing.assert_allclose(var, post.var(pts), atol=1e-12)

    @pytest.mark.parametrize("dim, order", [(1, 64), (2, 8)])
    def test_ridge_does_not_depend_on_beta(self, rng, dim, order):
        # the ridge problem is posed on the beta = 1 kernel, so at a fixed
        # eta the spec's beta changes no bit, and an extreme one cannot overflow
        data = make_dataset(rng, n=10, sigma2=1e-3, dim=dim)
        xs = rng.uniform(size=(7, dim))

        def ridge(beta):
            return krr_solve(KernelSpec("bridge", dim=dim, order=order, beta=beta), None,
                             data, 1e-3)(xs)

        np.testing.assert_array_equal(ridge(1.3), ridge(1.0))
        assert np.isfinite(ridge(1e-309)).all()

    def test_eta_validation(self, rng):
        data = make_dataset(rng)
        for eta in (0.0, -1.0, np.inf):
            with pytest.raises(ValueError):
                krr_solve(KernelSpec("bridge"), None, data, eta)


class TestOneConditioningCore:
    """Every truncated-kernel posterior factors V once, by the
    eigendecomposition of `_MarginalCovariance`, with its one jitter rule."""

    def test_condition_decomposes_once_without_a_basis_matrix(self, rng, decompositions):
        n = 37
        data = make_dataset(rng, n=n, dim=2)
        post = condition(KernelSpec("bridge", dim=2, order=8), None, data)
        post.on_grid(np.linspace(0.0, 1.0, 5))
        assert [s for s in decompositions["eigh"] if s == (n, n)] == [(n, n)]
        assert decompositions["basis"] == []
        assert decompositions["spd"] == []

    def test_point_linear_inversion_builds_no_basis_matrix(self, rng, decompositions,
                                                           forms_calls):
        n, order = 41, 8
        spec = KernelSpec("bridge", dim=2, order=order)
        fam = LinearSourceFamily(components=(
            SpectralSource(basis_field(2, order, [1, 1])),
            SpectralSource(basis_field(2, order, [2, 1])),
        ))
        x = rng.uniform(0.05, 0.95, size=(n, 2))
        y = solve(fam.source_at([2.0, 0.5], 2, order), spec)(x) + 1e-3 * rng.normal(size=n)
        res = invert_source(Dataset(x, y, 1e-4), fam, FLAT, spec)
        assert np.abs(res.theta_mean - [2.0, 0.5]).max() < 0.1
        assert decompositions["basis"] == []
        assert decompositions["spd"] == []
        # one n x n decomposition; then one stacked 2 x 2 eigh for the whole
        # scan, one per Newton step (none here: the search stops at the upper
        # edge) and one for the fit at the best beta, not one per scan beta
        assert res.boundary == "upper"
        assert [s for s in decompositions["eigh"] if s[-1] == n] == [(n, n)]
        assert forms_calls == [121, 1]
        assert [s for s in decompositions["eigh"] if s[-1] == 2] == [(121, 2, 2), (1, 2, 2)]

    @pytest.mark.parametrize("spec", [
        KernelSpec("bridge", order=64), KernelSpec("helmholtz", order=64, omega=2.0),
    ], ids=["bridge", "helmholtz"])
    def test_marginal_builds_no_basis_matrix(self, rng, monkeypatch, spec):
        # the closed form has no basis, and a truncated kernel's Gram sums the
        # products of basis blocks: the marginal knows only V
        events = []
        eigh, basis_matrix = np.linalg.eigh, spectral.basis_matrix

        def log(name, fn):
            def call(*args):
                events.append(name)
                return fn(*args)
            return call

        monkeypatch.setattr(np.linalg, "eigh", log("eigh", eigh))
        monkeypatch.setattr(spectral, "basis_matrix", log("basis", basis_matrix))
        marginal = _MarginalCovariance(spec, make_dataset(rng, n=30))
        assert events == ["eigh"]
        assert not hasattr(marginal, "basis")

    @pytest.mark.parametrize("case", [
        "fit-helmholtz", "fit-2d", "fit-3d", "log-marginal", "beta-map", "invert-linear",
    ])
    def test_point_data_routes_build_no_basis_matrix(self, rng, monkeypatch, case):
        # a field reaches the data sites through `spectral.evaluate`, which
        # sums over basis blocks; only the expression inversion builds one
        # basis of the sites (below)
        def refuse(*args):
            raise AssertionError("a basis matrix was built")

        dim = {"fit-2d": 2, "fit-3d": 3, "invert-linear": 2}.get(case, 1)
        spec = (KernelSpec("helmholtz", order=64, omega=2.0) if dim == 1
                else KernelSpec("bridge", dim=dim, order=8 if dim == 2 else 6))
        prior = solve(ClosedFormSource("1 + x1" if dim > 1 else "1 + x"), spec)
        data = make_dataset(rng, n=20, dim=dim)
        monkeypatch.setattr(spectral, "basis_matrix", refuse)
        if case.startswith("fit"):
            mean, var = condition(spec, prior, data).on_grid(np.linspace(0.0, 1.0, 5))
            assert np.isfinite(mean).all() and np.isfinite(var).all()
        elif case == "log-marginal":
            assert np.isfinite(log_marginal(spec, prior, data))
        elif case == "beta-map":
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a bracket edge is fine here
                assert np.isfinite(beta_map(spec, prior, data, FLAT).objective)
        else:
            fam = LinearSourceFamily(components=(SpectralSource(basis_field(2, 8, [1, 1])),
                                                 SpectralSource(basis_field(2, 8, [2, 1]))))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert np.isfinite(invert_source(data, fam, FLAT, spec).theta_mean).all()

    def test_expression_inversion_builds_one_basis_of_the_sites(self, rng, decompositions):
        spec = KernelSpec("bridge", dim=2, order=6)
        fam = ExpressionSourceFamily("a*sin(pi*x1)*sin(pi*x2)", ("a",))
        x = rng.uniform(0.05, 0.95, size=(15, 2))
        y = solve(fam.source_at([2.0]), spec)(x) + 1e-3 * rng.normal(size=15)
        res = invert_source(Dataset(x, y, 1e-4), fam, FLAT, spec, init=[1.0])
        assert res.theta_mean[0] == pytest.approx(2.0, abs=0.1)
        assert decompositions["basis"] == [(15, 2)]

    def test_nonpositive_variance_takes_one_logged_jitter(self, rng, shift_eigenvalue, caplog):
        # 12 sites on a 9-term kernel: the least eigenvalue of K is a rounding
        # zero, and w / beta + sigma2 is exactly 0 for w = -sigma2 at beta = 1
        spec = KernelSpec("bridge", dim=2, order=3)
        data = make_dataset(rng, n=12, dim=2)
        shift_eigenvalue(12, lambda w: -data.sigma2)
        with caplog.at_level(logging.INFO, logger="bridgegp.regression"):
            post = condition(spec, None, data)
        assert caplog.text.count("adding jitter") == 1
        mean, var = post.on_grid(np.linspace(0.0, 1.0, 5))
        assert np.isfinite(mean).all() and np.isfinite(var).all()

    def test_variance_left_nonpositive_raises(self, rng, shift_eigenvalue):
        # 1e-12 times the mean variance cannot lift one of -1e-3 max(w)
        data = make_dataset(rng, n=12, dim=2)
        shift_eigenvalue(12, lambda w: -1e-3 * w.max() - data.sigma2)
        with pytest.raises(SingularSystemError, match="after jitter"):
            condition(KernelSpec("bridge", dim=2, order=8), None, data)


def dense_forms(k1, sigma2, betas, cols):
    """The forms and log-det terms of `_MarginalCovariance.forms`, one beta at
    a time from dense solves: with V = K / beta + sigma2 I, dV/dt = -K / beta
    and d2V/dt2 = K / beta, X = V^-1 C and Y = (K / beta) X,
    Q0 = C^T X, Q1 = X^T Y, Q2 = 2 Y^T V^-1 Y - Q1; the log-det terms are
    log det V, -tr(V^-1 K / beta) and tr(A) - tr(A A), A = V^-1 K / beta."""
    quad, logdet = [], []
    for beta in betas:
        kb = k1 / beta
        v = kb + sigma2 * np.eye(len(k1))
        x = np.linalg.solve(v, cols)
        y = kb @ x
        q1 = x.T @ y
        quad.append([cols.T @ x, q1, 2.0 * y.T @ np.linalg.solve(v, y) - q1])
        a = np.linalg.solve(v, kb)
        logdet.append([np.linalg.slogdet(v)[1], -np.trace(a), np.trace(a) - np.trace(a @ a)])
    return np.array(quad).transpose(1, 0, 2, 3), np.array(logdet).T


class TestMarginalForms:
    """`_MarginalCovariance.forms` against dense per-beta evaluation, its
    jitter rule row by row, and the boundary of the class."""

    SCAN = np.exp(np.linspace(-12.0, 12.0, 121))

    @pytest.mark.parametrize("kind", ["coefficients", "bridge-1d", "truncated-2d"])
    def test_forms_match_dense_evaluation(self, rng, kind):
        # sigma2 = 100 against a Gram of norm about 1: V stays well conditioned
        # (cond below about 2e3) at every scan beta, so a dense solve is
        # accurate to well within the 1e-12 checked
        sigma2 = 100.0
        if kind == "coefficients":
            spec = KernelSpec("bridge", order=32)
            obs = CoefficientObservations(rng.normal(size=10), sigma2)
            k1 = np.diag(eigenvalues(spec)[:10])
        elif kind == "bridge-1d":
            spec = KernelSpec("bridge", order=64)
            data = make_dataset(rng, n=8, sigma2=sigma2)
            obs, k1 = data, kernel_matrix(spec.with_beta(1.0), data.X)
        else:
            spec = KernelSpec("bridge", dim=2, order=4)
            data = make_dataset(rng, n=12, sigma2=sigma2, dim=2)
            psi = spectral.basis_matrix(2, 4, data.X)
            obs, k1 = data, (psi * eigenvalues(spec)) @ psi.T
        cols = rng.normal(size=(obs.n, 3))
        quad, logdet = _MarginalCovariance(spec, obs).forms(self.SCAN, cols)
        want_quad, want_logdet = dense_forms(k1, sigma2, self.SCAN, cols)
        assert quad.shape == (3, 121, 3, 3) and logdet.shape == (3, 121)
        scale = np.abs(want_quad).max(axis=(2, 3), keepdims=True)
        assert np.all(np.abs(quad - want_quad) <= 1e-12 * scale)
        np.testing.assert_allclose(logdet, want_logdet, rtol=1e-12, atol=0)
        # a vector is one column
        vec_quad, vec_logdet = _MarginalCovariance(spec, obs).forms(self.SCAN[:3], cols[:, 0])
        np.testing.assert_allclose(vec_quad[..., 0, 0], quad[:, :3, 0, 0], rtol=1e-14)
        np.testing.assert_array_equal(vec_logdet, logdet[:, :3])

    @pytest.mark.parametrize("spec", [KernelSpec("bridge", order=64, beta=3.0),
                                      KernelSpec("helmholtz", order=64, omega=2.0, beta=3.0),
                                      KernelSpec("bridge", dim=2, order=6, beta=3.0)],
                             ids=["bridge-1d", "helmholtz", "bridge-2d"])
    def test_decomposes_the_gram_of_kernel_matrix(self, rng, monkeypatch, spec):
        data = make_dataset(rng, dim=spec.dim)
        seen, original = [], np.linalg.eigh

        def eigh(a, *args, **kwargs):
            seen.append(np.array(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        _MarginalCovariance(spec, data)
        assert len(seen) == 1
        assert seen[0].tobytes() == kernel_matrix(spec.with_beta(1.0), data.X).tobytes()

    def test_jitter_fires_only_on_the_betas_that_need_it(self, rng, shift_eigenvalue, caplog):
        # w = -sigma2 makes w / beta + sigma2 exactly 0 at beta = 1 and
        # positive above it: only the rows at beta = 1 take the jitter
        spec = KernelSpec("bridge", dim=2, order=3)
        data = make_dataset(rng, n=12, dim=2)
        shift_eigenvalue(12, lambda w: -data.sigma2)
        marginal = _MarginalCovariance(spec, data)
        betas = np.concatenate([[1.0], self.SCAN[61:], [1.0]])
        with caplog.at_level(logging.INFO, logger="bridgegp.regression"):
            quad, logdet = marginal.forms(betas, data.y)
        assert caplog.text.count("adding jitter") == 2
        assert caplog.text.count("at beta 1.000e+00: adding jitter") == 2
        assert np.isfinite(quad).all() and np.isfinite(logdet).all()
        np.testing.assert_array_equal(logdet[:, 0], logdet[:, -1])
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="bridgegp.regression"):
            rest = marginal.forms(betas[1:-1], data.y)
        assert "jitter" not in caplog.text
        np.testing.assert_allclose(rest[0], quad[:, 1:-1], rtol=1e-14)
        np.testing.assert_allclose(rest[1], logdet[:, 1:-1], rtol=1e-14)

    def test_variance_left_nonpositive_raises_in_the_scan(self, rng, shift_eigenvalue):
        # below beta = 1 the shifted variance sigma2 (1 - 1 / beta) is far
        # below what a jitter of 1e-12 times the mean variance lifts
        spec = KernelSpec("bridge", dim=2, order=3)
        data = make_dataset(rng, n=12, dim=2)
        shift_eigenvalue(12, lambda w: -data.sigma2)
        marginal = _MarginalCovariance(spec, data)
        with pytest.raises(SingularSystemError, match="after jitter"):
            marginal.forms(self.SCAN, data.y)
        with pytest.raises(SingularSystemError, match="after jitter"):
            beta_map(spec, None, data, FLAT)

    def test_whitening_is_a_square_root_of_the_inverse(self, rng):
        spec = KernelSpec("bridge", dim=2, order=4)
        data = make_dataset(rng, n=9, sigma2=1e-2, dim=2)
        psi = spectral.basis_matrix(2, 4, data.X)
        v = (psi * eigenvalues(spec)) @ psi.T / 2.0 + 1e-2 * np.eye(9)
        whiten, noise_sd = _MarginalCovariance(spec, data).whitening(2.0)
        np.testing.assert_allclose(whiten @ whiten.T @ v, np.eye(9), atol=1e-12)
        # W^T eps has covariance sigma2 W^T W = diag(1 - g)
        np.testing.assert_allclose(1e-2 * whiten.T @ whiten, np.diag(noise_sd**2), atol=1e-14)

    def test_no_code_outside_the_class_reads_its_eigenbasis(self):
        # every consumer reaches V through `forms` and `whitening`
        reads = []
        for path in sorted(pathlib.Path(bridgegp.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in list(ast.walk(tree)):
                if isinstance(node, ast.ClassDef) and node.name == "_MarginalCovariance":
                    node.body = []
            reads += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr in ("_u", "_w")]
        assert reads == []


class TestLogMarginal:
    def test_coefficient_oracle(self, rng):
        spec = KernelSpec("bridge", order=32)
        obs = CoefficientObservations(rng.normal(size=10), sigma2=1e-3)
        beta = 2.5
        got = log_marginal(spec, None, obs, beta)
        lam = eigenvalues(spec)[:10]
        want = scipy.stats.multivariate_normal.logpdf(
            obs.values, mean=np.zeros(10), cov=np.diag(lam / beta + 1e-3)
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_point_oracle(self, rng):
        spec = KernelSpec("bridge")
        data = make_dataset(rng, n=7, sigma2=1e-3)
        beta = 1.8
        got = log_marginal(spec, None, data, beta)
        cov = kernel_matrix(spec.with_beta(beta), data.X) + 1e-3 * np.eye(7)
        want = scipy.stats.multivariate_normal.logpdf(data.y, mean=np.zeros(7), cov=cov)
        assert got == pytest.approx(want, rel=1e-10)

    def test_beta_override_matches_spec(self, rng):
        spec1 = KernelSpec("bridge", beta=1.0, order=16)
        spec2 = KernelSpec("bridge", beta=3.7, order=16)
        obs = CoefficientObservations(rng.normal(size=8), sigma2=1e-4)
        assert log_marginal(spec1, None, obs, 3.7) == pytest.approx(
            log_marginal(spec2, None, obs), rel=1e-14
        )

    def test_prior_mean_recentres(self, rng):
        spec = KernelSpec("bridge", order=16)
        c0 = rng.normal(size=16)
        prior = SpectralField(1, 16, c0)
        obs_at_prior = CoefficientObservations(c0[:6], sigma2=1e-3)
        obs_zero = CoefficientObservations(np.zeros(6), sigma2=1e-3)
        assert log_marginal(spec, prior, obs_at_prior) == pytest.approx(
            log_marginal(spec, None, obs_zero), rel=1e-12
        )

    def test_too_many_coefficients(self):
        spec = KernelSpec("bridge", order=8)
        with pytest.raises(OrderMismatchError):
            log_marginal(spec, None, CoefficientObservations(np.ones(9)))

    def test_bad_beta(self, rng):
        spec = KernelSpec("bridge", order=8)
        obs = CoefficientObservations(rng.normal(size=4), sigma2=1e-3)
        for b in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                log_marginal(spec, None, obs, b)

    @staticmethod
    def gram_returns(monkeypatch, k1):
        # stand-in beta = 1 Gram with chosen eigenvalues (diagonal, so exact)
        monkeypatch.setattr(kernels, "kernel_matrix", lambda spec, x, y=None: k1.copy())
        x = np.linspace(0.2, 0.8, len(k1))
        return Dataset(x, np.zeros(len(k1)), 1e-4)

    def test_floor_adds_one_logged_jitter(self, monkeypatch, caplog):
        # w / beta + sigma2 is exactly 0 for w = -1e-4 at beta = 1
        obs = self.gram_returns(monkeypatch, np.diag([2.0, 1.0, -1e-4]))
        with caplog.at_level(logging.INFO, logger="bridgegp.regression"):
            got = log_marginal(KernelSpec("bridge"), None, obs, 1.0)
        v = np.array([0.0, 1.0001, 2.0001])
        v += 1e-12 * v.mean()
        want = -0.5 * np.sum(np.log(v)) - 1.5 * np.log(2.0 * np.pi)
        assert got == pytest.approx(want, rel=1e-12)
        assert "jitter" in caplog.text

    def test_floor_raises_when_jitter_is_not_enough(self, monkeypatch):
        obs = self.gram_returns(monkeypatch, np.diag([1.0, -1.0]))
        with pytest.raises(SingularSystemError):
            log_marginal(KernelSpec("bridge"), None, obs, 1.0)


class TestBetaGradient:
    def fd_gradient(self, spec, prior, obs, beta, hyper):
        h = beta * 1e-6
        up = log_marginal(spec, prior, obs, beta + h) + hyper.log_density(beta + h)
        dn = log_marginal(spec, prior, obs, beta - h) + hyper.log_density(beta - h)
        return (up - dn) / (2 * h)

    def test_matches_central_difference(self, rng):
        spec = KernelSpec("bridge", order=64)
        for sigma2 in (0.0, 1e-4, 1e-2):
            obs = CoefficientObservations(0.1 * rng.normal(size=30), sigma2=sigma2)
            for beta in (0.3, 1.0, 4.0):
                for hyper in (FLAT, JEFFREYS):
                    got = beta_gradient(spec, None, obs, beta, hyper)
                    want = self.fd_gradient(spec, None, obs, beta, hyper)
                    assert got == pytest.approx(want, rel=1e-5, abs=1e-8)

    def test_jeffreys_minus_flat(self, rng):
        spec = KernelSpec("bridge", order=32)
        obs = CoefficientObservations(rng.normal(size=12), sigma2=1e-3)
        beta = 2.0
        diff = beta_gradient(spec, None, obs, beta, JEFFREYS) - beta_gradient(
            spec, None, obs, beta, FLAT
        )
        assert diff == -1.0 / beta

    def test_point_observations_match_central_difference(self, rng):
        spec = KernelSpec("bridge", order=64)
        prior = solve(SpectralSource(basis_field(1, 64, [1])), spec)
        for sigma2 in (1e-6, 1e-4, 1e-2):
            obs = make_dataset(rng, n=15, sigma2=sigma2)
            for beta in (0.3, 1.0, 4.0):
                for hyper in (FLAT, JEFFREYS):
                    got = beta_gradient(spec, prior, obs, beta, hyper)
                    want = self.fd_gradient(spec, prior, obs, beta, hyper)
                    assert got == pytest.approx(want, rel=1e-5, abs=1e-8)


def deviation_energy(spec, dev):
    lam = eigenvalues(spec)[: dev.size]
    return float(np.sum(dev**2 / lam))


class TestBetaMap:
    def test_flat_stationary_point(self, rng, forms_calls):
        # exact data, sigma2 = 0: the maximizer is M / ||dev||_H^2
        spec = KernelSpec("bridge", order=128)
        m = 50
        dev = np.zeros(m)
        dev[0] = 0.5
        obs = CoefficientObservations(dev, sigma2=0.0)
        res = beta_map(spec, None, obs, FLAT)
        # the 121-point scan is one call, then one call per Newton step
        assert forms_calls[0] == 121 and forms_calls[1:] == [1] * (len(forms_calls) - 1)
        assert 2 <= len(forms_calls) <= 10
        expect = m / deviation_energy(spec, dev)
        assert res.boundary is None
        assert res.beta == pytest.approx(expect, rel=1e-7)
        assert beta_gradient(spec, None, obs, res.beta, FLAT) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_jeffreys_ratio(self, rng):
        spec = KernelSpec("bridge", order=256)
        m = 100
        dev = 0.02 * rng.normal(size=m)
        obs = CoefficientObservations(dev, sigma2=0.0)
        flat_res = beta_map(spec, None, obs, FLAT)
        jeff_res = beta_map(spec, None, obs, JEFFREYS)
        assert flat_res.boundary is None and jeff_res.boundary is None
        energy = deviation_energy(spec, dev)
        assert flat_res.beta == pytest.approx(m / energy, rel=1e-7)
        assert jeff_res.beta == pytest.approx((m - 2) / energy, rel=1e-7)
        assert jeff_res.beta / flat_res.beta == pytest.approx((m - 2) / m, rel=1e-7)

    def test_log_beta_consistent(self, rng):
        spec = KernelSpec("bridge", order=64)
        obs = CoefficientObservations(0.1 * rng.normal(size=20), sigma2=0.0)
        res = beta_map(spec, None, obs, FLAT)
        assert res.log_beta == pytest.approx(np.log(res.beta), abs=1e-12)

    def test_lower_boundary(self):
        # an enormous deviation wants beta below e^-12
        spec = KernelSpec("bridge", order=32)
        obs = CoefficientObservations([3000.0], sigma2=0.0)
        res = beta_map(spec, None, obs, FLAT)
        assert res.boundary == "lower"
        assert res.log_beta == -12.0
        assert not res.dirac_limit

    def test_upper_boundary_is_dirac_limit(self):
        # data exactly at the prior mean: evidence is monotone in beta
        spec = KernelSpec("bridge", order=32)
        obs = CoefficientObservations(np.zeros(10), sigma2=0.0)
        res = beta_map(spec, None, obs, FLAT)
        assert res.boundary == "upper"
        assert res.dirac_limit
        assert res.log_beta == 12.0

    def test_fixed_hyper_rejected(self):
        spec = KernelSpec("bridge", order=8)
        obs = CoefficientObservations(np.ones(4), sigma2=0.0)
        with pytest.raises(ValueError):
            beta_map(spec, None, obs, fixed(1.0))

    def test_point_observations_route(self, rng):
        # same search but through the dense marginal; sanity only
        spec = KernelSpec("bridge")
        u0 = solve(SpectralSource(basis_field(1, 512, [1])), spec)
        x = rng.uniform(0.1, 0.9, size=15)
        y = u0(x) + 0.05 * np.sin(3 * np.pi * x)
        res = beta_map(spec, u0, Dataset(x, y, 1e-6), FLAT)
        assert res.boundary is None
        assert 1e-6 < res.beta < 1e6

    def test_point_search_builds_gram_once(self, rng, monkeypatch):
        # the Gram does not depend on beta; each tried beta only refactors
        calls = []
        original = kernels.kernel_matrix

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(kernels, "kernel_matrix", counting)
        spec = KernelSpec("bridge", order=64)
        x = rng.uniform(0.1, 0.9, size=15)
        data = Dataset(x, np.sin(3 * np.pi * x), 1e-6)
        res = beta_map(spec, None, data, FLAT)
        assert len(calls) == 1
        assert res.objective == pytest.approx(
            log_marginal(spec, None, data, res.beta), rel=1e-12
        )

    def test_point_search_matches_cholesky_route(self, rng):
        # the same search over a density from one Cholesky factor per beta
        n, sigma2 = 200, 1e-4
        spec = KernelSpec("bridge", order=64)
        x = rng.uniform(0.02, 0.98, size=n)
        y = 0.05 * np.sin(3 * np.pi * x) + 0.01 * rng.normal(size=n)
        k1 = kernel_matrix(spec.with_beta(1.0), x)

        def reference(t):
            factor = scipy.linalg.cho_factor(k1 / np.exp(t) + sigma2 * np.eye(n), lower=True)
            logdet = 2.0 * np.sum(np.log(np.diag(factor[0])))
            quad = y @ scipy.linalg.cho_solve(factor, y)
            return -0.5 * quad - 0.5 * logdet - 0.5 * n * np.log(2.0 * np.pi)

        # reference search: the same 121-point scan, then scipy's golden
        # section on function values to 1e-10 in log beta
        grid = np.linspace(-12.0, 12.0, 121)
        best = int(np.argmax([reference(t) for t in grid]))
        boundary = "lower" if best == 0 else "upper" if best == 120 else None
        t_ref = scipy.optimize.minimize_scalar(
            lambda t: -reference(t), bracket=tuple(grid[best - 1:best + 2]),
            method="golden", options={"xtol": 1e-10},
        ).x
        value_ref = reference(t_ref)
        res = beta_map(spec, None, Dataset(x, y, sigma2), FLAT)
        assert boundary is None and res.boundary is None
        assert res.beta == pytest.approx(np.exp(t_ref), rel=1e-6)
        assert res.objective == pytest.approx(value_ref, rel=1e-10)


class TestClosedFormBeta:
    def test_matches_calibration(self, rng):
        spec = KernelSpec("bridge", order=128)
        prior = SpectralField(1, 128, 0.1 * rng.normal(size=128))
        observed = prior.coeffs[:40] + 0.05 * rng.normal(size=40)
        energy = deviation_energy(spec, observed - prior.coeffs[:40])
        obs = CoefficientObservations(observed, sigma2=0.0)
        for hyper, numerator in ((FLAT, 40), (JEFFREYS, 38)):
            dev2, formula = closed_form_beta(spec, prior, observed, hyper)
            assert dev2 == pytest.approx(energy, rel=1e-12)
            assert formula == pytest.approx(numerator / energy, rel=1e-12)
            assert beta_map(spec, prior, obs, hyper).beta == pytest.approx(formula, rel=1e-7)

    def test_zero_deviation_is_infinite(self):
        spec = KernelSpec("bridge", order=16)
        assert closed_form_beta(spec, None, np.zeros(5), FLAT) == (0.0, np.inf)

    def test_rejections(self):
        spec = KernelSpec("bridge", order=8)
        with pytest.raises(ValueError):
            closed_form_beta(spec, None, np.ones(4), fixed(1.0))
        with pytest.raises(OrderMismatchError):
            closed_form_beta(spec, None, np.ones(9), FLAT)


def two_mode_family(order=64):
    return LinearSourceFamily(
        components=(
            SpectralSource(basis_field(1, order, [1])),
            SpectralSource(basis_field(1, order, [2])),
        )
    )


class TestInversion:
    def test_linear_noiseless_recovery(self):
        spec = KernelSpec("bridge", order=64)
        fam = two_mode_family()
        theta_true = np.array([3.0, -1.5])
        u = solve(fam.source_at(theta_true, 1, 64), spec)
        obs = CoefficientObservations(u.u0.coeffs[:20], sigma2=0.0)
        res = invert_source(obs, fam, FLAT, spec)
        assert res.method == "linear"
        assert res.flat_directions.shape == (0, 2)
        np.testing.assert_allclose(res.theta_mean, theta_true, atol=1e-8)

    def test_covariance_trace_tracks_trust(self):
        # at fixed beta the theta covariance scales like 1/beta
        spec = KernelSpec("bridge", order=64)
        fam = two_mode_family()
        u = solve(fam.source_at([1.0, 2.0], 1, 64), spec)
        obs = CoefficientObservations(u.u0.coeffs[:10], sigma2=0.0)
        traces = [
            np.trace(invert_source(obs, fam, fixed(b), spec).theta_cov)
            for b in (0.1, 1.0, 10.0)
        ]
        assert traces[0] > traces[1] > traces[2]
        assert traces[0] == pytest.approx(10.0 * traces[1], rel=1e-9)

    def test_covariance_positive_definite_with_noise(self, rng):
        spec = KernelSpec("bridge", order=64)
        fam = two_mode_family()
        u = solve(fam.source_at([1.0, 2.0], 1, 64), spec)
        noisy = u.u0.coeffs[:15] + 1e-6 * rng.normal(size=15)
        res = invert_source(CoefficientObservations(noisy, 1e-6), fam, FLAT, spec)
        assert np.all(np.linalg.eigvalsh(res.theta_cov) > 0.0)

    def test_rank_deficient_design_reports_flat_directions(self):
        spec = KernelSpec("bridge", order=64)
        g = SpectralSource(basis_field(1, 64, [1]))
        fam = LinearSourceFamily(components=(g, g))  # duplicated column
        u = solve(fam.source_at([1.0, 1.0], 1, 64), spec)
        obs = CoefficientObservations(u.u0.coeffs[:10], sigma2=0.0)
        res = invert_source(obs, fam, fixed(1.0), spec)
        assert res.flat_directions.shape == (1, 2)
        direction = res.flat_directions[0]
        np.testing.assert_allclose(np.abs(direction), [np.sqrt(0.5)] * 2, atol=1e-10)
        # pseudo-inverse mean splits the signal evenly
        assert res.theta_mean[0] == pytest.approx(res.theta_mean[1], rel=1e-9)
        assert res.theta_mean.sum() == pytest.approx(2.0, rel=1e-6)

    def test_point_observation_route(self, rng):
        spec = KernelSpec("bridge", order=64)
        fam = two_mode_family()
        theta_true = np.array([2.0, 0.5])
        u = solve(fam.source_at(theta_true, 1, 64), spec)
        x = rng.uniform(0.05, 0.95, size=40)
        data = Dataset(x, u(x), 1e-8)
        res = invert_source(data, fam, FLAT, spec)
        np.testing.assert_allclose(res.theta_mean, theta_true, atol=1e-4)

    def test_profiled_beta_at_boundary_flagged(self):
        # exact data from the family: residual is zero, beta runs high
        spec = KernelSpec("bridge", order=64)
        fam = two_mode_family()
        u = solve(fam.source_at([1.0, -2.0], 1, 64), spec)
        res = invert_source(
            CoefficientObservations(u.u0.coeffs[:10], sigma2=0.0), fam, FLAT, spec
        )
        assert res.boundary == "upper"

    def test_nonlinear_expression_family(self):
        # a structured deviation outside the family keeps beta interior
        spec = KernelSpec("bridge", order=64)
        fam = ExpressionSourceFamily("a*exp(-(x-b)^2)", free=("a", "b"))
        truth = np.array([10.0, 0.25])
        u = solve(fam.source_at(truth), spec)
        vals = np.array(u.u0.coeffs[:30])
        vals[2] += 0.03
        obs = CoefficientObservations(vals, sigma2=0.0)
        res = invert_source(obs, fam, FLAT, spec, init=[8.0, 0.35])
        assert res.method == "laplace"
        assert res.converged
        assert res.boundary is None
        np.testing.assert_allclose(res.theta_mean, truth, rtol=0.2)
        assert res.theta_cov.shape == (2, 2)
        assert np.all(np.diag(res.theta_cov) > 0.0)

    def test_nonlinear_exact_data_runs_to_dirac_limit(self):
        # data exactly in the family: evidence is monotone in beta, the
        # parameters are still pinned down
        spec = KernelSpec("bridge", order=64)
        fam = ExpressionSourceFamily("a*exp(-(x-b)^2)", free=("a", "b"))
        truth = np.array([10.0, 0.25])
        u = solve(fam.source_at(truth), spec)
        obs = CoefficientObservations(u.u0.coeffs[:30], sigma2=0.0)
        res = invert_source(obs, fam, FLAT, spec, init=[8.0, 0.35])
        assert res.boundary == "upper"
        np.testing.assert_allclose(res.theta_mean, truth, rtol=1e-3)

    def test_nonlinear_requires_init(self):
        spec = KernelSpec("bridge", order=16)
        fam = ExpressionSourceFamily("a*x", free=("a",))
        obs = CoefficientObservations(np.ones(4), sigma2=0.0)
        with pytest.raises(ValueError, match="initial"):
            invert_source(obs, fam, FLAT, spec)
        with pytest.raises(ValueError):
            invert_source(obs, fam, FLAT, spec, init=[1.0, 2.0])

    def test_more_parameters_than_observations(self):
        spec = KernelSpec("bridge", order=16)
        fam = two_mode_family(order=16)
        obs = CoefficientObservations([1.0], sigma2=0.0)
        with pytest.raises(ValueError):
            invert_source(obs, fam, FLAT, spec)

    def test_scaling_equivariance(self, rng):
        # y -> c y with sigma2 -> c^2 sigma2, beta -> beta / c^2 rescales
        # the posterior mean by exactly c
        spec = KernelSpec("bridge", order=64)
        fam = two_mode_family()
        u = solve(fam.source_at([1.0, 2.0], 1, 64), spec)
        y = u.u0.coeffs[:12] + 0.01 * rng.normal(size=12)
        c = 5.0
        base = invert_source(CoefficientObservations(y, 1e-4), fam, fixed(2.0), spec)
        scaled = invert_source(
            CoefficientObservations(c * y, c**2 * 1e-4), fam, fixed(2.0 / c**2), spec
        )
        np.testing.assert_allclose(scaled.theta_mean, c * base.theta_mean, rtol=1e-9)

    @pytest.mark.parametrize("kind", ["coefficients", "points"])
    def test_profile_is_log_marginal_at_posterior_mean(self, rng, kind):
        # at a fixed beta the profiled evidence is the log marginal of the
        # prior centred on the source at the posterior mean theta
        spec = KernelSpec("bridge", order=64)
        fam = two_mode_family()
        u = solve(fam.source_at([1.5, -0.5], 1, 64), spec)
        if kind == "coefficients":
            vals = u.u0.coeffs[:12] + 1e-3 * rng.normal(size=12)
            obs = CoefficientObservations(vals, sigma2=1e-5)
        else:
            x = rng.uniform(0.05, 0.95, size=30)
            obs = Dataset(x, u(x) + 1e-3 * rng.normal(size=30), 1e-5)
        beta = 3.0
        res = invert_source(obs, fam, fixed(beta), spec)
        prior = solve(fam.source_at(res.theta_mean, 1, 64), spec)
        assert res.objective == pytest.approx(
            log_marginal(spec, prior, obs, beta), rel=1e-10
        )

    def test_point_beta_search_holds_one_factor(self, rng):
        # the beta search keeps the factor of one beta at a time, not one
        # n x n factor per beta it has tried
        n = 300
        spec = KernelSpec("bridge", order=64)
        fam = two_mode_family()
        x = rng.uniform(0.05, 0.95, size=n)
        u = solve(fam.source_at([2.0, 0.5], 1, 64), spec)
        obs = Dataset(x, u(x) + 0.01 * rng.normal(size=n), 1e-4)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            invert_source(obs, fam, FLAT, spec)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 16 * n * n * 8, f"peak {peak / (n * n * 8):.1f} n^2 doubles"

    def test_fixed_beta_point_expression_inversion_factors_once(self, rng, decompositions):
        # V(beta) does not depend on theta, so Gauss-Newton at a fixed beta
        # needs one eigendecomposition of the Gram for all of its forward
        # solves, and no Cholesky factor at all
        spec = KernelSpec("bridge", order=64)
        fam = ExpressionSourceFamily("a*exp(-(x-b)^2)", free=("a", "b"))
        u = solve(fam.source_at([10.0, 0.25]), spec)
        x = rng.uniform(0.05, 0.95, size=40)
        obs = Dataset(x, u(x) + 1e-3 * rng.normal(size=40), 1e-5)
        res = invert_source(obs, fam, fixed(2.0), spec, init=[8.0, 0.35])
        assert res.method == "laplace"
        assert [s for s in decompositions["eigh"] if s == (40, 40)] == [(40, 40)]
        assert decompositions["spd"] == []

    def test_point_linear_beta_search_factors_once(self, rng, decompositions, forms_calls):
        # every beta the profile tries reuses the one eigendecomposition
        n = 300
        spec = KernelSpec("bridge", order=64)
        fam = two_mode_family()
        x = rng.uniform(0.05, 0.95, size=n)
        u = solve(fam.source_at([2.0, 0.5], 1, 64), spec)
        y = u(x) + 0.01 * np.sin(5 * np.pi * x) + 0.01 * rng.normal(size=n)
        res = invert_source(Dataset(x, y, 1e-4), fam, FLAT, spec)
        assert res.boundary is None
        assert [s for s in decompositions["eigh"] if s == (n, n)] == [(n, n)]
        assert decompositions["spd"] == []
        # the p x p precisions: one stacked eigh for the 121-point scan, one
        # per Newton step, one for the fit at the best beta (a scan of one
        # call per beta would make 121 + steps + 2)
        newton = len(forms_calls) - 2
        assert forms_calls == [121] + [1] * (newton + 1)
        assert [s for s in decompositions["eigh"] if s[-1] == 2] == (
            [(121, 2, 2)] + [(1, 2, 2)] * (newton + 1))
        assert 1 <= newton <= 10

    def test_linear_expression_takes_one_gauss_newton_step(self, rng, monkeypatch):
        # a family linear in theta: the init, two central-difference
        # Jacobians (2m solves each) and one accepted step
        spec = KernelSpec("bridge", order=64)
        expression = ExpressionSourceFamily("a*sin(pi*x) + b*sin(2*pi*x)", free=("a", "b"))
        u = solve(expression.source_at([3.0, -2.0]), spec)
        x = rng.uniform(0.05, 0.95, size=40)
        obs = Dataset(x, u(x) + 1e-3 * rng.normal(size=40), 1e-5)
        calls = []
        original = pde.solve

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(pde, "solve", counting)
        res = invert_source(obs, expression, fixed(2.0), spec, init=[2.5, -1.5])
        assert res.converged
        m = expression.n_params
        assert len(calls) <= 2 * (2 * m + 3), len(calls)

    @pytest.mark.parametrize("kind", ["coefficients", "points"])
    def test_laplace_covariance_of_a_linear_expression_is_exact(self, rng, kind):
        # a linear family written as an expression: the Laplace covariance
        # is the linear branch's exact conditional covariance
        spec = KernelSpec("bridge", order=64)
        linear = LinearSourceFamily(
            components=(ClosedFormSource("sin(pi*x)"), ClosedFormSource("sin(2*pi*x)"))
        )
        expression = ExpressionSourceFamily("a*sin(pi*x) + b*sin(2*pi*x)", free=("a", "b"))
        u = solve(expression.source_at([3.0, -2.0]), spec)
        if kind == "coefficients":
            obs = CoefficientObservations(u.u0.coeffs[:12] + 1e-3 * rng.normal(size=12), 1e-5)
        else:
            x = rng.uniform(0.05, 0.95, size=40)
            obs = Dataset(x, u(x) + 1e-3 * rng.normal(size=40), 1e-5)
        exact = invert_source(obs, linear, fixed(2.0), spec)
        laplace = invert_source(obs, expression, fixed(2.0), spec, init=[2.5, -1.5])
        assert laplace.flat_directions.shape == (0, 2)
        err = np.linalg.norm(laplace.theta_cov - exact.theta_cov)
        assert err <= 1e-6 * np.linalg.norm(exact.theta_cov)
