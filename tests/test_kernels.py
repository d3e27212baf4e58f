"""Kernel families: closed forms, Mercer truncation, scaling, factorization.

Dual-route checks live here: the 1D bridge closed form min(x,y) - xy is
compared against its Mercer partial sums, and the native-norm formula
sum c^2/lambda is compared against a finite-difference energy oracle.
"""

import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgegp import (
    KernelSpec,
    ResonanceError,
    SingularSystemError,
    basis_field,
    default_order,
    eigenvalues,
    kernel_matrix,
    project,
    rkhs_sq_norm,
)
from bridgegp import spectral
from bridgegp.kernels import SpdSolver


def mercer_partial_sum(spec, x, y, order):
    """The Mercer sum of k(x, y) truncated at an explicit order, one sine at
    a time per axis; an oracle for truncation studies."""
    idx = spectral.index_array(spec.dim, order)
    lam = eigenvalues(KernelSpec(spec.family, spec.dim, order, spec.beta, spec.omega, spec.p))
    xs = spectral.validate_points(x, spec.dim)
    ys = spectral.validate_points(y, spec.dim)
    vx = np.ones(idx.shape[0])
    vy = np.ones(idx.shape[0])
    for axis in range(spec.dim):
        vx *= np.sin(np.pi * xs[0, axis] * idx[:, axis])
        vy *= np.sin(np.pi * ys[0, axis] * idx[:, axis])
    return float(2.0**spec.dim * np.sum(lam * vx * vy) / spec.beta)


def kernel_diag(spec, x):
    """Pointwise variances k(x_i, x_i): the closed form x - x^2 for the 1D
    bridge, the Mercer sum of lambda psi^2 otherwise; an oracle for the diagonal."""
    xs = spectral.validate_points(x, spec.dim)
    if spec.closed_form:
        base = xs[:, 0] - xs[:, 0] ** 2
    else:
        psi = spectral.basis_matrix(spec.dim, spec.order, xs)
        base = np.einsum("ij,j,ij->i", psi, eigenvalues(spec), psi)
    return base / spec.beta

# H1 seminorm of x(1-x) from a 200001-point finite-difference quadrature,
# frozen; the exact value is 1/3.
PARABOLA_ENERGY_FD = 0.33333333330000309


def test_fd_oracle_sane():
    assert PARABOLA_ENERGY_FD == pytest.approx(1.0 / 3.0, abs=1e-9)


class TestSpecValidation:
    def test_defaults(self):
        assert KernelSpec("bridge").order == 512
        assert KernelSpec("bridge", dim=2).order == 64
        assert KernelSpec("bridge", dim=3).order == 32
        assert KernelSpec("bridge", dim=3).n_coeffs == 32**3
        assert default_order(2) == 64

    def test_with_beta(self):
        spec = KernelSpec("power", order=16, p=0.8)
        other = spec.with_beta(4.0)
        assert other.beta == 4.0
        assert (other.family, other.order, other.p) == ("power", 16, 0.8)

    def test_bad_family(self):
        with pytest.raises(ValueError):
            KernelSpec("matern")

    def test_bad_beta(self):
        for beta in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                KernelSpec("bridge", beta=beta)

    def test_family_parameter_coupling(self):
        with pytest.raises(ValueError):
            KernelSpec("helmholtz")  # omega required
        with pytest.raises(ValueError):
            KernelSpec("power")  # p required
        with pytest.raises(ValueError):
            KernelSpec("bridge", omega=1.0)
        with pytest.raises(ValueError):
            KernelSpec("bridge", p=0.9)
        with pytest.raises(ValueError):
            KernelSpec("helmholtz", dim=2, omega=1.0)
        with pytest.raises(ValueError):
            KernelSpec("power", dim=2, p=0.9)

    def test_power_exponent_range(self):
        KernelSpec("power", p=1.0)
        KernelSpec("power", p=0.51)
        for p in (0.5, 0.4, 1.01):
            with pytest.raises(ValueError):
                KernelSpec("power", p=p)

    def test_resonant_omega_rejected_at_construction(self):
        with pytest.raises(ResonanceError):
            KernelSpec("helmholtz", omega=np.pi)
        with pytest.raises(ResonanceError):
            KernelSpec("helmholtz", omega=3.0 * np.pi)


class TestBridgeClosedForm:
    def test_known_values(self):
        spec = KernelSpec("bridge")
        assert kernel_matrix(spec, [0.9], [0.9])[0, 0] == pytest.approx(0.09, abs=1e-15)
        assert kernel_matrix(spec, [0.25], [0.75])[0, 0] == pytest.approx(0.0625, abs=1e-15)
        np.testing.assert_allclose(kernel_matrix(spec, [0.5]), [[0.25]], atol=1e-15)

    def test_boundary_vanishes(self):
        spec = KernelSpec("bridge")
        assert kernel_matrix(spec, [0.0], [0.5])[0, 0] == 0.0
        assert kernel_matrix(spec, [1.0], [1.0])[0, 0] == 0.0

    def test_symmetry(self, rng):
        spec = KernelSpec("bridge", beta=2.5)
        x = rng.uniform(size=20)
        k = kernel_matrix(spec, x)
        np.testing.assert_array_equal(k, k.T)

    def test_diag_matches_matrix(self, rng):
        for spec in (
            KernelSpec("bridge"),
            KernelSpec("bridge", dim=2, order=8),
            KernelSpec("helmholtz", omega=2.0, order=64),
            KernelSpec("power", p=0.8, order=64),
        ):
            x = rng.uniform(size=(11, spec.dim))
            np.testing.assert_allclose(
                kernel_diag(spec, x), np.diag(kernel_matrix(spec, x)), atol=1e-13
            )


class TestBetaScaling:
    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
    def test_exact_rescaling(self, beta):
        # beta enters through one division, so this holds to the bit.
        x = np.array([0.11, 0.47, 0.93])
        base = kernel_matrix(KernelSpec("bridge"), x)
        scaled = kernel_matrix(KernelSpec("bridge", beta=beta), x)
        np.testing.assert_array_equal(scaled, base / beta)

    def test_exact_rescaling_mercer_route(self):
        x = np.array([[0.2, 0.3], [0.8, 0.6]])
        base = kernel_matrix(KernelSpec("bridge", dim=2, order=16), x)
        scaled = kernel_matrix(KernelSpec("bridge", dim=2, order=16, beta=3.0), x)
        np.testing.assert_array_equal(scaled, base / 3.0)


class TestMercerTruncation:
    def test_partial_sums_approach_closed_form(self):
        spec = KernelSpec("bridge")
        x, y = 0.37, 0.61
        exact_off = kernel_matrix(spec, [x], [y])[0, 0]
        exact_diag = kernel_matrix(spec, [x], [x])[0, 0]
        assert abs(mercer_partial_sum(spec, x, y, 2000) - exact_off) < 1e-3
        assert abs(mercer_partial_sum(spec, x, x, 2000) - exact_diag) < 5e-4

    def test_diag_partial_sums_monotone_from_below(self):
        # Every diagonal term lambda_n psi_n(x)^2 is >= 0.
        spec = KernelSpec("bridge")
        x = 0.41
        sums = [mercer_partial_sum(spec, x, x, s) for s in (8, 32, 128, 512, 2000)]
        assert all(a <= b + 1e-15 for a, b in zip(sums, sums[1:]))
        assert sums[-1] <= kernel_matrix(spec, [x], [x])[0, 0]

    def test_matrix_route_matches_partial_sum(self, rng):
        # kernel_matrix sums the same series through a different code path.
        spec = KernelSpec("bridge", dim=2, order=12, beta=1.7)
        x = rng.uniform(size=(1, 2))
        y = rng.uniform(size=(1, 2))
        via_matrix = kernel_matrix(spec, x, y)[0, 0]
        via_sum = mercer_partial_sum(spec, x, y, 12)
        assert via_matrix == pytest.approx(via_sum, rel=1e-12, abs=1e-15)


    def test_truncated_matrix_holds_a_basis_block_at_a_time(self, rng):
        # 64 x 60 points in 3D at S = 32: one basis is 60 x 32768 doubles
        # (15 MiB); the sum runs over the 32 leading-index blocks of each
        spec = KernelSpec("bridge", dim=3, order=32, beta=2.0)
        x, y = rng.uniform(size=(64, 3)), rng.uniform(size=(60, 3))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            got = kernel_matrix(spec, x, y)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 60 * spec.n_coeffs * 8 / 4, f"peak {peak / 2**20:.1f} MiB"
        px, py = spectral.basis_matrix(3, 32, x), spectral.basis_matrix(3, 32, y)
        want = (px * eigenvalues(spec)) @ py.T / spec.beta
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())
        sym = kernel_matrix(spec, x)
        assert np.array_equal(sym, sym.T)
        np.testing.assert_allclose(sym, kernel_matrix(spec, x, x), rtol=0,
                                   atol=1e-15 * np.abs(sym).max())


class TestPositivity:
    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec("bridge"),
            KernelSpec("bridge", dim=2, order=16),
            KernelSpec("bridge", dim=3, order=8),
            KernelSpec("helmholtz", omega=2.0, order=128),
            KernelSpec("power", p=0.6, order=128),
        ],
        ids=["bridge-1d", "bridge-2d", "bridge-3d", "helmholtz", "power"],
    )
    def test_gram_psd(self, spec, rng):
        x = rng.uniform(0.05, 0.95, size=(25, spec.dim))
        gram = kernel_matrix(spec, x)
        # the closed form and the blocks' syrk products are symmetric as summed
        assert np.array_equal(gram, gram.T)
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-10


class TestFamilies:
    def test_helmholtz_zero_frequency_is_bridge(self):
        h = KernelSpec("helmholtz", omega=0.0, order=64)
        b = KernelSpec("bridge", order=64)
        np.testing.assert_array_equal(eigenvalues(h), eigenvalues(b))
        # same series, same order, different code path
        x = np.array([0.3, 0.8])
        hk = kernel_matrix(h, x)
        bk = mercer_partial_sum(b, 0.3, 0.8, 64)
        assert hk[0, 1] == pytest.approx(bk, rel=1e-12)

    def test_helmholtz_negative_gap_raises_at_evaluation(self):
        # omega = 4 > pi passes construction (no near-zero gap) but the
        # n = 1 eigenvalue is negative, so evaluation must refuse.
        spec = KernelSpec("helmholtz", omega=4.0, order=32)
        with pytest.raises(ResonanceError):
            eigenvalues(spec)
        with pytest.raises(ResonanceError):
            kernel_matrix(spec, [0.5])

    def test_helmholtz_shifts_bridge_spectrum(self):
        spec = KernelSpec("helmholtz", omega=2.0, order=8)
        lam = eigenvalues(spec)
        n = np.arange(1, 9)
        np.testing.assert_allclose(lam, 1.0 / (n**2 * np.pi**2 - 4.0), rtol=1e-15)

    def test_power_p_one_is_bridge(self):
        pw = KernelSpec("power", p=1.0, order=32)
        br = KernelSpec("bridge", order=32)
        np.testing.assert_allclose(eigenvalues(pw), eigenvalues(br), rtol=1e-14)

    def test_power_decay(self):
        lam = eigenvalues(KernelSpec("power", p=0.6, order=16))
        n = np.arange(1, 17)
        np.testing.assert_allclose(lam, (n**2 * np.pi**2) ** -0.6, rtol=1e-15)

    def test_single_eigenvalue(self):
        spec = KernelSpec("bridge", dim=2, order=8)
        lam = eigenvalues(spec)[np.ravel_multi_index((2 - 1, 3 - 1), (8, 8))]
        assert lam == pytest.approx(1.0 / (13.0 * np.pi**2), rel=1e-15)


class TestNativeNorm:
    def test_basis_function_norm_is_reciprocal_eigenvalue(self):
        spec = KernelSpec("bridge", order=8)
        u = basis_field(1, 8, [3])
        assert rkhs_sq_norm(spec, u) == pytest.approx(9.0 * np.pi**2, rel=1e-14)

    def test_parabola_energy(self):
        # sum c^2/lambda telescopes to the H1 seminorm, 1/3 exactly; the
        # S = 32 truncation sits ~2e-6 below it.
        spec = KernelSpec("bridge", order=32)
        u = project(lambda x: x * (1.0 - x), 1, 32)
        val = rkhs_sq_norm(spec, u)
        assert val == pytest.approx(PARABOLA_ENERGY_FD, abs=1e-5)
        assert val < 1.0 / 3.0  # truncation only discards positive terms

    def test_beta_excluded(self):
        u = basis_field(1, 8, [2])
        a = rkhs_sq_norm(KernelSpec("bridge", order=8), u)
        b = rkhs_sq_norm(KernelSpec("bridge", order=8, beta=9.0), u)
        assert a == b

    def test_order_mismatch(self):
        from bridgegp import OrderMismatchError

        with pytest.raises(OrderMismatchError):
            rkhs_sq_norm(KernelSpec("bridge", order=8), basis_field(1, 9, [1]))


class TestSpdSolver:
    def test_solve(self, rng):
        a = rng.normal(size=(6, 6))
        spd = a @ a.T + 6 * np.eye(6)
        solver = SpdSolver(spd)
        b = rng.normal(size=6)
        np.testing.assert_allclose(solver.solve(b), np.linalg.solve(spd, b), rtol=1e-10)
        assert solver.jitter == 0.0

    def test_jitter_retry_logged(self, caplog):
        # rank-one PSD matrix: exact Cholesky fails, jitter rescues it
        with caplog.at_level(logging.INFO, logger="bridgegp.kernels"):
            solver = SpdSolver(np.ones((3, 3)))
        assert solver.jitter > 0.0
        assert any("jitter" in rec.message for rec in caplog.records)
        solver.solve(np.ones(3))

    def test_indefinite_raises(self):
        with pytest.raises(SingularSystemError):
            SpdSolver(np.diag([1.0, -1.0]))

    def test_shape_check(self):
        with pytest.raises(ValueError):
            SpdSolver(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # np.linalg.cholesky returns NaNs for such input instead of raising
        with pytest.raises(ValueError, match="infs or NaNs"):
            SpdSolver([[bad, 0.0], [0.0, 1.0]])
