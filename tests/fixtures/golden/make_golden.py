"""Write the golden corpus of the calibration commands and of `solve` and `fit`
on 1D to 3D grids: for each case a small config with its data inline
(`<name>.json`, so no file path enters the artifact's header) and the
artifact it gives (`<name>.expected.<format>`).

    python tests/fixtures/golden/make_golden.py

The configs come from a fixed seed, so a rerun writes the same configs.
Run it, at the default of one BLAS thread, only when a change moves these
artifacts on purpose, and list each moved column and its largest move in
CHANGES.md.  `tests/test_golden.py` regenerates every artifact in process
and compares it with the file written here.
"""

from __future__ import annotations

import json
import pathlib
import sys

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent

# name -> (the command's words, artifact format)
CASES = {
    "beta_jeffreys": (["beta"], "json"),
    "model_error": (["study", "model-error"], "csv"),
    "invert_linear_coefficients": (["invert"], "json"),
    "invert_linear_points": (["invert"], "json"),
    "invert_expression_points": (["invert"], "json"),
    "solve_1d": (["solve"], "csv"),
    "solve_2d": (["solve"], "csv"),
    "solve_3d": (["solve"], "csv"),
    "fit_3d": (["fit"], "csv"),
}

# the cases whose artifact is a field on a grid
GRID_CASES = ("solve_1d", "solve_2d", "solve_3d", "fit_3d")


def argv(name: str, out) -> list[str]:
    """The CLI arguments that write case `name`'s artifact to `out`."""
    words, fmt = CASES[name]
    return words + ["--config", str(HERE / f"{name}.json"), "--out", str(out), "--format", fmt]


def _bridge_draw(rng, x, beta, order=256):
    """One draw of the zero-mean 1D bridge prior at x, truncated at `order`."""
    n = np.arange(1, order + 1)
    scales = 1.0 / (np.pi * n * np.sqrt(beta))
    return (np.sqrt(2.0) * np.sin(np.pi * np.outer(x, n))) @ (scales * rng.standard_normal(order))


def configs() -> dict:
    rng = np.random.default_rng(20251022)
    kernel = {"family": "bridge", "dim": 1, "order": 64}
    lam = 1.0 / (np.pi * np.arange(1, 65)) ** 2
    out = {}

    # leading coefficients of the prior mean of a coefficient source, off by a
    # prior draw at beta 10: a Jeffreys optimum inside the bracket
    q = rng.standard_normal(6)
    c0 = np.zeros(64)
    c0[:6] = lam[:6] * q
    observed = c0[:20] + np.sqrt(lam[:20] / 10.0) * rng.standard_normal(20)
    out["beta_jeffreys"] = {
        "kernel": kernel, "source": {"coefficients": q.tolist()}, "mesh_size": 20,
        "observed": {"coefficients": observed.tolist()}, "hyper": {"kind": "jeffreys"}}

    out["model_error"] = {
        "kernel": kernel, "mesh_size": 20, "eps_values": [0.0, 0.3, 1.7],
        "hyper": {"kind": "flat"}}

    # three coefficient-space components, 24 coefficients observed
    qs = rng.standard_normal((3, 64)) / np.arange(1, 65)
    theta = np.array([1.5, -2.0, 0.7])
    observed = (lam * (theta @ qs))[:24] + np.sqrt(lam[:24] / 20.0) * rng.standard_normal(24)
    out["invert_linear_coefficients"] = {
        "kernel": {"family": "bridge", "dim": 1, "order": 32},
        "family": {"components": [{"coefficients": row[:32].tolist()} for row in qs]},
        "observed": {"coefficients": observed.tolist()}, "sigma2": 1e-10,
        "hyper": {"kind": "jeffreys"}}

    # 40 sites; two sine sources (-u'' = sin(k pi x) has u = sin(k pi x) /
    # (k pi)^2), a prior draw at beta 20 and noise of variance 1e-4
    x = np.sort(rng.uniform(0.02, 0.98, 40))
    y = (30.0 * np.sin(np.pi * x) / np.pi**2 - 50.0 * np.sin(2 * np.pi * x) / (2 * np.pi) ** 2
         + _bridge_draw(rng, x, 20.0) + 0.01 * rng.standard_normal(40))
    data = {"x": x.tolist(), "y": y.tolist()}
    out["invert_linear_points"] = {
        "kernel": kernel,
        "family": {"components": [{"expression": "sin(pi*x)"}, {"expression": "sin(2*pi*x)"}]},
        "data": data, "sigma2": 1e-4, "hyper": {"kind": "flat"}}

    # the same sites under a nonlinear family, the amplitude and centre of a
    # Gaussian bump source at (10, 0.4), with beta searched at every scored
    # residual
    from bridgegp import ClosedFormSource, KernelSpec, solve

    truth = solve(ClosedFormSource("10*exp(-(x-0.4)^2/0.02)"), KernelSpec("bridge", order=64))
    y = truth(x) + _bridge_draw(rng, x, 50.0) + 0.01 * rng.standard_normal(40)
    out["invert_expression_points"] = {
        "kernel": kernel,
        "family": {"expression": "a*exp(-(x-c)^2/0.02)", "free": ["a", "c"]},
        "data": {"x": x.tolist(), "y": y.tolist()}, "sigma2": 1e-4,
        "hyper": {"kind": "flat"}, "init": [8.0, 0.45]}

    # the grid routes: a projection and a synthesis an axis, and in 3D a
    # posterior's mean and variance by synthesis in coefficient space
    out["solve_1d"] = {"kernel": kernel, "source": {"expression": "sin(3*pi*x)*exp(x)"},
                       "grid": 11}
    out["solve_2d"] = {
        "kernel": {"family": "bridge", "dim": 2, "order": 16},
        "source": {"expression": "exp(-((x1-0.3)^2+(x2-0.6)^2)/0.02)"}, "grid": 6}
    kernel = {"family": "bridge", "dim": 3, "order": 8}
    out["solve_3d"] = {"kernel": kernel, "source": {"expression": "x1*sin(pi*x2)*exp(x3)"},
                       "grid": 4}
    x = rng.uniform(0.05, 0.95, (12, 3))
    y = np.prod(np.sin(np.pi * x), axis=1) + 0.01 * rng.standard_normal(12)
    out["fit_3d"] = {
        "kernel": kernel, "source": {"expression": "3*pi^2*sin(pi*x1)*sin(pi*x2)*sin(pi*x3)"},
        "data": {"x": x.tolist(), "y": y.tolist()}, "sigma2": 1e-4, "grid": 4}
    return out


def main() -> int:
    from bridgegp import cli

    for name, cfg in configs().items():
        (HERE / f"{name}.json").write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
        code = cli.main(argv(name, HERE / f"{name}.expected.{CASES[name][1]}"))
        if code != 0:
            print(f"{name}: exit {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[2] / "src"))  # the checkout's own bridgegp
    sys.exit(main())
