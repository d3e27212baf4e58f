"""Acceptance gate: one test per headline guarantee.

Every test funnels through the `acceptance` fixture, which prints a
PASS/FAIL line with the measured value next to the stated tolerance in
the terminal summary.  Seeds are pinned; none of these are statistical
flakes.
"""

import json

import numpy as np
import scipy.linalg

from bridgegp import (
    FLAT,
    JEFFREYS,
    ClosedFormSource,
    CoefficientObservations,
    Dataset,
    KernelSpec,
    LinearSourceFamily,
    PriorSampler,
    SpectralField,
    SpectralSource,
    basis_field,
    beta_gradient,
    beta_map,
    cli,
    condition,
    convergence_study,
    eigenvalues,
    energy,
    energy_rkhs_shift,
    fixed,
    invert_source,
    krr_solve,
    log_marginal,
    nested_consistency,
    solve,
    source_energy_offset,
    value_blocks,
    zero_source,
)


def test_posterior_mean_solves_ridge_problem(acceptance):
    """GP conditioning and kernel ridge regression agree at eta = sigma2*beta/n."""
    rng = np.random.default_rng(42)
    grid = np.linspace(0.0, 1.0, 201)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 51))
        beta = float(10.0 ** rng.uniform(-1.0, 1.0))
        sigma2 = float(10.0 ** rng.uniform(-4.0, -2.0))
        spec = KernelSpec("bridge", beta=beta)
        data = Dataset(rng.uniform(0.02, 0.98, size=n), rng.normal(size=n), sigma2)
        post = condition(spec, None, data)
        ridge = krr_solve(spec, None, data, sigma2 * beta / n)
        worst = max(worst, float(np.abs(ridge(grid) - post.mean(grid)).max()))
    acceptance(
        "posterior-krr-equivalence",
        worst < 1e-8,
        f"max |mean difference| = {worst:.3e} over 50 instances (tolerance 1e-8)",
    )


def test_energy_identity(acceptance):
    """Quadrature energy equals the native-norm shift minus the source offset."""
    rng = np.random.default_rng(7)
    spec = KernelSpec("bridge", order=64)
    decay = 1.0 / np.arange(1, 65)
    worst = 0.0
    for _ in range(100):
        u = SpectralField(1, 64, decay * rng.normal(size=64))
        q = SpectralSource(SpectralField(1, 64, decay * rng.normal(size=64)))
        gap = energy(u, q) - (energy_rkhs_shift(u, q, spec) - source_energy_offset(q, spec))
        worst = max(worst, abs(gap))
    acceptance(
        "energy-identity",
        worst < 1e-8,
        f"max |identity gap| = {worst:.3e} over 100 instances (tolerance 1e-8)",
    )


def test_prior_sampling_variance(acceptance):
    """Empirical variance of truncated draws matches x(1-x) within Monte Carlo error."""
    draws = 100000
    sampler = PriorSampler(KernelSpec("bridge", order=512), seed=0)
    xs = np.array([0.25, 0.5, 0.75])
    values = np.concatenate(list(value_blocks(sampler, xs, draws)))
    v_hat = values.var(axis=0)
    target = xs * (1.0 - xs)
    bound = 3.0 * target * np.sqrt(2.0) / np.sqrt(draws)
    gaps = np.abs(v_hat - target)
    ok = bool(np.all(gaps < bound))
    detail = ", ".join(
        f"x={x}: |{v:.5f}-{t}|={g:.2e}<{b:.2e}" for x, v, t, g, b in
        zip(xs, v_hat, target, gaps, bound)
    )
    acceptance("prior-sampling-variance", ok, detail)


def test_forward_solve_matches_finite_differences(acceptance):
    """Spectral solve of -u'' = 10 exp(-(x-1/4)^2) agrees with a banded FD solve."""
    def q(x):
        return 10.0 * np.exp(-((x - 0.25) ** 2))

    sol = solve(ClosedFormSource("10*exp(-(x-0.25)^2)"), KernelSpec("bridge"))
    n = 4096
    h = 1.0 / (n + 1)
    x = np.arange(1, n + 1) * h
    ab = np.zeros((3, n))
    ab[0, 1:] = -1.0 / h**2
    ab[1, :] = 2.0 / h**2
    ab[2, :-1] = -1.0 / h**2
    u_fd = scipy.linalg.solve_banded((1, 1), ab, q(x))
    worst = float(np.abs(sol(x) - u_fd).max())
    acceptance(
        "forward-solve-vs-finite-differences",
        worst < 1e-4,
        f"max |u0 - u_fd| = {worst:.3e} on {n} nodes (tolerance 1e-4)",
    )


def test_beta_gradient_closed_form(acceptance):
    """The analytic trust-weight gradient matches central differences."""
    rng = np.random.default_rng(42)
    spec = KernelSpec("bridge", order=64)
    worst = 0.0
    for i in range(50):
        m = int(rng.integers(10, 41))
        sigma2 = 0.0 if i % 2 == 0 else float(10.0 ** rng.uniform(-5.0, -2.0))
        beta = float(10.0 ** rng.uniform(-1.0, 1.0))
        hyper = FLAT if i % 3 else JEFFREYS
        obs = CoefficientObservations(0.3 * rng.normal(size=m), sigma2)
        got = beta_gradient(spec, None, obs, beta, hyper)
        h = beta * 1e-6
        fd = (
            log_marginal(spec, None, obs, beta + h) + hyper.log_density(beta + h)
            - log_marginal(spec, None, obs, beta - h) - hyper.log_density(beta - h)
        ) / (2.0 * h)
        worst = max(worst, abs(got - fd) / max(abs(fd), 1e-10))
    acceptance(
        "beta-gradient-closed-form",
        worst < 1e-5,
        f"max relative error = {worst:.3e} over 50 instances (tolerance 1e-5)",
    )


def test_beta_calibration_formulas(acceptance):
    """Calibrated beta hits M/||dev||_H^2 (flat) and the (M-2)/M Jeffreys ratio."""
    m = 2000
    eps = 0.5
    spec = KernelSpec("bridge", order=2048)
    observed = np.zeros(m)
    observed[0] = eps
    obs = CoefficientObservations(observed, sigma2=0.0)
    flat_res = beta_map(spec, None, obs, FLAT)
    jeff_res = beta_map(spec, None, obs, JEFFREYS)
    dev2 = eps**2 * np.pi**2  # ||eps psi_1||_H^2 = eps^2 / lambda_1
    flat_err = abs(flat_res.beta - m / dev2) / (m / dev2)
    ratio = jeff_res.beta / flat_res.beta
    ratio_err = abs(ratio - (m - 2) / m) / ((m - 2) / m)
    ok = flat_err < 0.10 and ratio_err < 0.01
    acceptance(
        "beta-calibration-formulas",
        ok,
        f"flat beta rel err = {flat_err:.3e} (tol 0.10), "
        f"jeffreys/flat ratio = {ratio:.6f} vs {(m - 2) / m} "
        f"(rel err {ratio_err:.3e}, tol 0.01)",
    )


def test_convergence_under_refinement(acceptance):
    """With a misspecified prior the posterior error decays at the h^2 rate
    and the uncertainty contracts."""
    spec = KernelSpec("bridge")
    report = convergence_study(
        truth=lambda x: np.sin(np.pi * x) + 0.3 * np.sin(3.0 * np.pi * x),
        assumed_source=zero_source(1, 512),
        spec=spec,
        ns=[16, 32, 64, 128, 256, 512],
    )
    errs = [row["l2_error"] for row in report.rows]
    vs = [row["var_integral"] for row in report.rows]
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    slope = report.extras["slope"]
    var_ratio = vs[-1] / vs[0]
    ok = decreasing and slope <= -0.9 and var_ratio < 0.05
    acceptance(
        "convergence-under-refinement",
        ok,
        f"errors strictly decreasing = {decreasing}, slope = {slope:.4f} "
        f"(require <= -0.9), var ratio 512/16 = {var_ratio:.4f} (require < 0.05)",
    )


def test_nested_truncation_consistency(acceptance):
    """Coarse priors are exact marginals of fine ones, analytically and empirically."""
    spec = KernelSpec("bridge", order=64)
    small = PriorSampler(spec, mesh_size=4, seed=1)
    large = PriorSampler(spec, mesh_size=12, seed=1)
    report = nested_consistency(small, large, draws=10000)
    expected_bound = 4.0 / (np.pi**2 * 100.0)
    ok = (
        report.analytic_exact
        and report.prefix_draws_match
        and report.within_bound
        and abs(report.bound - expected_bound) < 1e-15
    )
    acceptance(
        "nested-truncation-consistency",
        ok,
        f"analytic exact = {report.analytic_exact}, prefix draws match = "
        f"{report.prefix_draws_match}, max covariance deviation = "
        f"{report.max_deviation:.3e} < bound {report.bound:.3e}",
    )


def test_linear_source_inversion(acceptance):
    """Noiseless linear inversion recovers theta; covariance tracks beta and
    stays positive definite under noise."""
    rng = np.random.default_rng(3)
    spec = KernelSpec("bridge", order=64)
    fam = LinearSourceFamily(
        components=(
            SpectralSource(basis_field(1, 64, [1])),
            SpectralSource(basis_field(1, 64, [2])),
        )
    )
    theta_true = np.array([3.0, -1.5])
    u = solve(fam.source_at(theta_true, 1, 64), spec)
    exact = CoefficientObservations(u.u0.coeffs[:20], sigma2=0.0)
    res = invert_source(exact, fam, FLAT, spec)
    recov_err = float(np.abs(res.theta_mean - theta_true).max())

    traces = [
        float(np.trace(invert_source(exact, fam, fixed(b), spec).theta_cov))
        for b in (10.0, 1.0, 0.1)
    ]
    trace_monotone = traces[0] < traces[1] < traces[2]

    noisy = CoefficientObservations(
        u.u0.coeffs[:20] + 1e-6 * rng.normal(size=20), sigma2=1e-6
    )
    min_eig = float(np.linalg.eigvalsh(invert_source(noisy, fam, FLAT, spec).theta_cov).min())

    ok = recov_err < 1e-6 and trace_monotone and min_eig > 0.0
    acceptance(
        "linear-source-inversion",
        ok,
        f"recovery error = {recov_err:.3e} (tol 1e-6), cov traces for beta "
        f"10/1/0.1 = {traces[0]:.3e} < {traces[1]:.3e} < {traces[2]:.3e}, "
        f"min cov eigenvalue under noise = {min_eig:.3e} > 0",
    )


def test_cli_byte_determinism(acceptance, tmp_path):
    """Every subcommand writes byte-identical output for identical config+seed."""
    kernel = {"family": "bridge", "dim": 1, "order": 64, "beta": 1.0}
    configs = {
        "solve": {"kernel": kernel, "source": {"expression": "sin(pi*x)"}, "grid": 11},
        "sample": {"kernel": kernel, "grid": 11, "count": 2,
                   "moment_draws": 128, "seed": 5},
        "fit": {"kernel": kernel, "data": {"x": [0.25, 0.5, 0.75],
                                           "y": [0.2, 0.3, 0.1]},
                "sigma2": 1e-6, "grid": 11},
        "beta": {"kernel": kernel, "mesh_size": 10, "observed": {"epsilon": 0.5}},
        "invert": {"kernel": kernel,
                   "family": {"components": [{"coefficients": [1.0] + [0.0] * 63}]},
                   "observed": {"coefficients": [0.05, 0.0, 0.0]},
                   "hyper": {"kind": "fixed", "beta0": 1.0}},
        "study": {"kernel": kernel, "assumed_source": {"expression": "0"},
                  "truth": {"expression": "sin(pi*x)"}, "ns": [4, 8, 16],
                  "grid": 201},
    }
    failures = []
    for command, payload in configs.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        argv = [command] if command != "study" else ["study", "convergence"]
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}-{tag}.csv"
            code = cli.main(argv + ["--config", str(cfg), "--out", str(out)])
            if code != 0:
                failures.append(f"{command} exited {code}")
                break
            outs.append(out.read_bytes())
        else:
            if outs[0] != outs[1]:
                failures.append(f"{command} output differs between runs")
    acceptance(
        "cli-byte-determinism",
        not failures,
        "all six subcommands byte-identical across repeat runs"
        if not failures else "; ".join(failures),
    )
