"""Design metrics and the two reproducible studies."""

import numpy as np
import pytest

from bridgegp import (
    ClosedFormSource,
    JEFFREYS,
    KernelSpec,
    SpectralSource,
    StudyReport,
    basis_field,
    convergence_study,
    design_metrics,
    fit_loglog_slope,
    fixed,
    model_error_study,
    zero_source,
)
from bridgegp import spectral
from bridgegp.harness import _t_quantile


class TestDesignMetrics:
    def test_uniform_grid_1d(self):
        # interior grid {1/4, 2/4, 3/4}: fill 1/4 at the ends, separation 1/8
        m = design_metrics([0.25, 0.5, 0.75])
        assert m.n == 3
        assert m.fill == pytest.approx(0.25, abs=1e-12)
        assert m.separation == pytest.approx(0.125, abs=1e-12)
        assert m.mesh_ratio == pytest.approx(2.0, abs=1e-9)

    def test_two_points(self):
        m = design_metrics([0.0, 1.0])
        assert m.fill == pytest.approx(0.5, abs=1e-12)
        assert m.separation == 0.5

    @pytest.mark.parametrize("dim, n", [(1, 40)])
    def test_matches_brute_force(self, rng, dim, n):
        pts = rng.uniform(size=(n, dim))
        m = design_metrics(pts)
        gaps = np.abs(pts - pts.T)
        np.fill_diagonal(gaps, np.inf)
        assert m.separation == pytest.approx(0.5 * gaps.min(), rel=1e-14)
        # min_i |x - x_i| peaks at 0, at 1 or midway between two points
        cands = np.concatenate([[0.0, 1.0], (0.5 * (pts + pts.T)).ravel()])
        nearest = np.abs(cands[:, None] - pts.T).min(axis=1)
        assert m.fill == pytest.approx(nearest.max(), rel=1e-14)
        # a grid of spacing 1e-4 reads at most the supremum, and within 5e-5 of it
        grid = np.linspace(0.0, 1.0, 10001)
        on_grid = np.abs(grid[:, None] - pts.T).min(axis=1).max()
        assert m.fill - 5e-5 <= on_grid <= m.fill * (1.0 + 1e-14)

    def test_two_columns_rejected(self, rng):
        with pytest.raises(ValueError):
            design_metrics(rng.uniform(size=(10, 2)))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            design_metrics([0.3, 0.3, 0.7])

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            design_metrics([0.5])


class TestSlopeFit:
    def test_synthetic_power_law(self):
        # error = C * fill^a must come out as slope -a
        fills = 1.0 / np.array([8.0, 16.0, 32.0, 64.0, 128.0])
        for a in (1.0, 2.0, 3.5):
            slope, half = fit_loglog_slope(fills, 3.0 * fills**a)
            assert slope == pytest.approx(-a, abs=1e-10)
            assert half < 1e-9

    def test_half_width_covers_noise(self, rng):
        fills = 1.0 / np.array([8.0, 16.0, 32.0, 64.0, 128.0])
        errors = fills**2 * np.exp(0.05 * rng.normal(size=5))
        slope, half = fit_loglog_slope(fills, errors)
        assert half > 0.0
        assert slope == pytest.approx(-2.0, abs=0.2)

    @pytest.mark.parametrize("levels", [3, 5, 9])
    def test_matches_scipy_linregress(self, rng, levels):
        # the slope is scipy's bit for bit; the t quantile comes from the
        # closed-form CDF, within 5e-14 relative of scipy's `stdtrit`
        import scipy.special
        import scipy.stats

        fills = 1.0 / 2.0 ** np.arange(3, 3 + levels)
        errors = fills**1.5 * np.exp(0.3 * rng.normal(size=levels))
        slope, half = fit_loglog_slope(fills, errors)
        ref = scipy.stats.linregress(np.log(1.0 / fills), np.log(errors))
        assert slope == ref.slope
        assert half == pytest.approx(
            scipy.special.stdtrit(levels - 2, 0.975) * ref.stderr, rel=5e-14, abs=0)

    @pytest.mark.parametrize("p", [0.6, 0.9, 0.975, 0.999])
    def test_t_quantile_matches_scipy(self, p):
        # measured for df <= 200: within 9.5e-15 relative of scipy at
        # p = 0.975 and 5.6e-14 at p = 0.999, where the CDF is flatter
        import scipy.special

        dfs = np.arange(1, 201)
        got = np.array([_t_quantile(int(df), p) for df in dfs])
        np.testing.assert_allclose(got, scipy.special.stdtrit(dfs, p), rtol=1e-13, atol=0)

    def test_needs_three_levels(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([0.1, 0.05], [1.0, 0.5])


class TestConvergenceStudy:
    def test_quadratic_rate_for_smooth_truth(self):
        # truth and prior mean disagree, so the error is real and decays
        # at the kernel's h^2 interpolation rate
        spec = KernelSpec("bridge")
        report = convergence_study(
            truth=lambda x: np.sin(np.pi * x) + 0.3 * np.sin(3 * np.pi * x),
            assumed_source=zero_source(1, 512),
            spec=spec,
            ns=[8, 16, 32, 64],
        )
        assert isinstance(report, StudyReport)
        assert report.kind == "convergence"
        errs = [row["l2_error"] for row in report.rows]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert report.extras["slope"] == pytest.approx(-2.0, abs=0.25)
        assert report.extras["slope_half_width"] > 0.0

    def test_zero_prior_mean_builds_no_basis(self, monkeypatch):
        # the 1D bridge conditions by Kalman filter, and a zero prior mean
        # evaluates without sine tables: the study builds no basis at all
        def refuse(*args):
            raise AssertionError("built a basis for a zero prior mean")

        monkeypatch.setattr(spectral, "basis_matrix", refuse)
        report = convergence_study(
            truth=lambda x: x * (1.0 - x),
            assumed_source=zero_source(1, 512),
            spec=KernelSpec("bridge"),
            ns=[4, 8, 16],
            grid=101,
        )
        assert len(report.rows) == 3

    def test_variance_contracts(self):
        spec = KernelSpec("bridge")
        report = convergence_study(
            truth=lambda x: x * (1.0 - x),
            assumed_source=zero_source(1, 512),
            spec=spec,
            ns=[4, 16, 64],
        )
        vs = [row["var_integral"] for row in report.rows]
        assert vs[-1] < 0.1 * vs[0]
        for row in report.rows:
            assert row["sd_l2"] == pytest.approx(np.sqrt(row["var_integral"]), rel=1e-12)

    def test_noise_reproducible(self):
        spec = KernelSpec("bridge", order=64)
        kwargs = dict(
            truth=lambda x: np.sin(np.pi * x),
            assumed_source=None,
            spec=spec,
            ns=[8, 16, 32],
            noise_sigma2=1e-4,
            seed=42,
        )
        a = convergence_study(**kwargs)
        b = convergence_study(**kwargs)
        assert a.rows == b.rows
        c = convergence_study(**{**kwargs, "seed": 43})
        assert c.rows != a.rows

    def test_input_validation(self):
        spec = KernelSpec("bridge", order=16)
        with pytest.raises(ValueError):
            convergence_study(lambda x: x, None, spec, ns=[8, 8, 16])
        with pytest.raises(ValueError):
            convergence_study(lambda x: x, None, spec, ns=[16, 8])
        with pytest.raises(ValueError):
            convergence_study(
                lambda x: x, None, KernelSpec("bridge", dim=2, order=8), ns=[4, 8, 16]
            )

    def test_two_levels_no_slope(self):
        spec = KernelSpec("bridge", order=32)
        report = convergence_study(
            lambda x: np.sin(np.pi * x), None, spec, ns=[8, 16]
        )
        assert report.extras["slope"] is None


class TestModelErrorStudy:
    def test_ratio_near_one_off_zero(self):
        spec = KernelSpec("bridge", order=256)
        report = model_error_study(spec, mesh_size=100, eps_values=[0.1, 0.5, 2.0])
        for row in report.rows:
            assert row["boundary"] == ""
            assert row["ratio"] == pytest.approx(1.0, abs=1e-6)
            # beta_star falls like 1 / eps^2
        betas = [row["beta_star"] for row in report.rows]
        assert betas[0] > betas[1] > betas[2]
        assert betas[0] / betas[1] == pytest.approx(25.0, rel=1e-5)

    def test_eps_zero_hits_dirac_limit(self):
        spec = KernelSpec("bridge", order=64)
        report = model_error_study(spec, mesh_size=20, eps_values=[0.0, 0.5])
        first = report.rows[0]
        assert first["boundary"] == "upper"
        assert first["dirac_limit"] == 1
        assert first["formula_beta"] == np.inf
        assert first["ratio"] is None
        assert report.rows[1]["dirac_limit"] == 0

    def test_jeffreys_numerator(self):
        spec = KernelSpec("bridge", order=64)
        flat = model_error_study(spec, mesh_size=50, eps_values=[0.5])
        jeff = model_error_study(spec, mesh_size=50, eps_values=[0.5], hyper=JEFFREYS)
        # same deviation, numerators M and M - 2
        assert jeff.rows[0]["formula_beta"] / flat.rows[0]["formula_beta"] == (
            pytest.approx(48.0 / 50.0, rel=1e-12)
        )
        assert jeff.rows[0]["ratio"] == pytest.approx(1.0, abs=1e-6)

    def test_prior_mean_recentres(self):
        # a nonzero prior mean shifts the observation but not the deviation
        spec = KernelSpec("bridge", order=64)
        base = model_error_study(spec, mesh_size=20, eps_values=[0.3])
        shifted = model_error_study(
            spec, mesh_size=20, eps_values=[0.3], prior=basis_field(1, 64, [2])
        )
        assert shifted.rows[0]["beta_star"] == pytest.approx(
            base.rows[0]["beta_star"], rel=1e-9
        )

    def test_fixed_hyper_rejected(self):
        spec = KernelSpec("bridge", order=16)
        with pytest.raises(ValueError):
            model_error_study(spec, mesh_size=4, eps_values=[0.1], hyper=fixed(1.0))

    def test_mesh_size_validated(self):
        spec = KernelSpec("bridge", order=16)
        with pytest.raises(ValueError):
            model_error_study(spec, mesh_size=17, eps_values=[0.1])
        with pytest.raises(ValueError):
            model_error_study(spec, mesh_size=0, eps_values=[0.1])
