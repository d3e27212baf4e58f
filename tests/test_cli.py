"""Command-line behavior: runs, formats, determinism, exit codes.

Everything goes through `cli.main(argv)` so the tests exercise exactly
what a shell invocation would, minus process startup.  The golden file
under fixtures/ pins the output of the fit command for one committed
config.  Its serialization is compared byte for byte: the comment and
column headers, the row count, every x field, the exact boundary rows
0,0,0 and 1,0,0, LF endings with one trailing newline, and 17-significant-
digit formatting of every number.  The mean and sd columns are compared
to rounding, within 8 eps of max|mean| and of max k(x,x) (the latter on
sd^2), since their last digits depend on the numpy/BLAS build.
"""

import ast
import errno
import inspect
import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from bridgegp import (
    Dataset,
    KernelSpec,
    PriorSampler,
    cli,
    condition,
    kernels,
    pde,
    regression,
    posterior_value_blocks,
    sample_coefficients,
    sampling,
    spectral,
    value_blocks,
)
from bridgegp.sampling import _philox

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run(args):
    return cli.main(args)


def kernel_cfg(**overrides):
    cfg = {"family": "bridge", "dim": 1, "order": 64, "beta": 1.0}
    cfg.update(overrides)
    return cfg


class TestCommandsRun:
    def test_solve(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(),
            "source": {"expression": "sin(pi*x)"},
            "grid": 11,
        })
        out = tmp_path / "out.csv"
        assert run(["solve", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# command: solve"
        assert lines[3] == "x,u0"
        assert len(lines) == 4 + 11
        # boundary rows are exactly zero
        assert lines[4].split(",") == ["0", "0"]
        assert lines[-1].split(",") == ["1", "0"]

    def test_solve_2d(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(dim=2, order=8),
            "source": {"expression": "sin(pi*x1)*sin(pi*x2)"},
            "grid": 5,
        })
        out = tmp_path / "out.csv"
        assert run(["solve", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[3] == "x1,x2,u0"
        assert len(lines) == 4 + 25

    def test_sample_prior(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(order=32),
            "grid": 9,
            "count": 2,
            "moment_draws": 256,
            "seed": 7,
        })
        out = tmp_path / "out.csv"
        assert run(["sample", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[3] == "x,mean,sd,path_0,path_1"
        # empirical sd at the midpoint is near sqrt(x(1-x)) = 0.5
        mid = lines[4 + 4].split(",")
        assert float(mid[0]) == 0.5
        assert float(mid[2]) == pytest.approx(0.5, abs=0.1)

    def test_sample_posterior(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(order=32),
            "mode": "posterior",
            "data": {"x": [0.3, 0.7], "y": [0.2, -0.1]},
            "sigma2": 1e-4,
            "grid": 9,
            "count": 1,
            "moment_draws": 128,
        })
        out = tmp_path / "out.csv"
        assert run(["sample", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[3] == "x,mean,sd,path_0"

    def test_fit(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(),
            "data": {"x": [0.25, 0.5, 0.75], "y": [1.0, 0.5, 0.25]},
            "sigma2": 1e-6,
            "grid": 9,
        })
        out = tmp_path / "out.csv"
        assert run(["fit", "--config", cfg, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        # timing goes to stderr only, never into the artifact
        assert "wall=" in captured.err
        assert captured.out == ""
        assert "wall=" not in out.read_text()
        assert out.read_text().splitlines()[3] == "x,mean,sd"

    def test_beta(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(order=128),
            "mesh_size": 50,
            "observed": {"epsilon": 0.5},
            "hyper": {"kind": "flat"},
        })
        out = tmp_path / "out.json"
        assert run(["beta", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        row = dict(zip(payload["columns"], payload["rows"][0]))
        assert row["boundary"] == ""
        assert row["ratio"] == pytest.approx(1.0, abs=1e-6)
        assert row["beta_star"] == pytest.approx(
            50.0 / (0.25 * np.pi**2), rel=1e-6
        )

    def test_invert_linear(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(order=16),
            "family": {"components": [
                {"coefficients": [1.0] + [0.0] * 15},
                {"coefficients": [0.0, 1.0] + [0.0] * 14},
            ]},
            "observed": {"coefficients": [0.3, -0.2, 0.0, 0.0]},
            "sigma2": 1e-8,
            "hyper": {"kind": "fixed", "beta0": 1.0},
        })
        out = tmp_path / "out.json"
        assert run(["invert", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        row = dict(zip(payload["columns"], payload["rows"][0]))
        lam1, lam2 = 1 / np.pi**2, 1 / (4 * np.pi**2)
        assert row["theta_0"] == pytest.approx(0.3 / lam1, rel=1e-4)
        assert row["theta_1"] == pytest.approx(-0.2 / lam2, rel=1e-4)
        assert row["converged"] == 1
        assert row["n_flat_directions"] == 0

    def test_invert_expression(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(order=32),
            "family": {"expression": "a*sin(pi*x)", "free": ["a"]},
            "observed": {"coefficients": [0.5 / np.pi**2, 0.001]},
            "hyper": {"kind": "flat"},
            "init": [1.0],
        })
        out = tmp_path / "out.json"
        assert run(["invert", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        row = dict(zip(payload["columns"], payload["rows"][0]))
        # u0 coefficient of a*sin(pi x) is a/(sqrt(2) pi^2)
        assert row["theta_0"] == pytest.approx(0.5 * np.sqrt(2.0), rel=1e-2)

    def test_study_convergence(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(order=256),
            "assumed_source": {"expression": "0"},
            "truth": {"expression": "sin(pi*x)"},
            "ns": [8, 16, 32],
            "grid": 501,
        })
        out = tmp_path / "out.csv"
        assert run(["study", "convergence", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# command: study"
        assert any(line.startswith("# slope:") for line in lines)
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "n,fill,l2_error,var_integral,sd_l2"

    def test_study_truth_source(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(order=64),
            "assumed_source": {"expression": "0"},
            "truth_source": {"expression": "sin(pi*x)*10"},
            "ns": [4, 8, 16],
            "grid": 201,
        })
        assert run(["study", "convergence", "--config", cfg,
                    "--out", str(tmp_path / "o.csv")]) == 0

    def test_study_model_error(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(order=64),
            "mesh_size": 20,
            "eps_values": [0.0, 0.5, 1.0],
        })
        out = tmp_path / "out.csv"
        assert run(["study", "model-error", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header.startswith("eps,beta_star,boundary,dirac_limit")
        first = lines[lines.index(header) + 1].split(",")
        assert first[2] == "upper"

    def test_stdout_default(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(order=16),
            "source": {"coefficients": [1.0] + [0.0] * 15},
            "grid": 5,
        })
        assert run(["solve", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("# command: solve")


class TestDeterminism:
    def sample_config(self, tmp_path):
        return write_config(tmp_path, {
            "kernel": kernel_cfg(order=64),
            "grid": 21,
            "count": 3,
            "moment_draws": 512,
            "seed": 11,
        })

    def test_byte_identical_csv(self, tmp_path):
        cfg = self.sample_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["sample", "--config", cfg, "--out", str(a)]) == 0
        assert run(["sample", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_byte_identical_json(self, tmp_path):
        cfg = self.sample_config(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run(["sample", "--config", cfg, "--out", str(path),
                        "--format", "json"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = self.sample_config(tmp_path)
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        assert run(["sample", "--config", cfg, "--out", str(a)]) == 0
        assert run(["sample", "--config", cfg, "--out", str(b), "--seed", "99"]) == 0
        assert run(["sample", "--config", cfg, "--out", str(c), "--seed", "11"]) == 0
        assert a.read_bytes() != b.read_bytes()
        assert a.read_bytes() == c.read_bytes()
        assert "# seed: 99" in b.read_text()

    def test_seed_echoed_from_config(self, tmp_path):
        cfg = self.sample_config(tmp_path)
        out = tmp_path / "a.csv"
        assert run(["sample", "--config", cfg, "--out", str(out)]) == 0
        assert "# seed: 11" in out.read_text()


class TestSerialization:
    def solve_config(self, tmp_path):
        return write_config(tmp_path, {
            "kernel": kernel_cfg(order=64, beta=3.0),
            "source": {"expression": "exp(-(x-0.25)^2)*10"},
            "grid": 7,
        })

    def test_csv_and_json_round_trip_identically(self, tmp_path):
        cfg = self.solve_config(tmp_path)
        csv_out, json_out = tmp_path / "o.csv", tmp_path / "o.json"
        assert run(["solve", "--config", cfg, "--out", str(csv_out)]) == 0
        assert run(["solve", "--config", cfg, "--out", str(json_out),
                    "--format", "json"]) == 0
        payload = json.loads(json_out.read_text())
        data_lines = csv_out.read_text().splitlines()[4:]
        for line, row in zip(data_lines, payload["rows"]):
            # 17 significant digits reparse to the exact same doubles
            got = [float(tok) for tok in line.split(",")]
            assert got == row

    def test_lf_only_and_trailing_newline(self, tmp_path):
        cfg = self.solve_config(tmp_path)
        out = tmp_path / "o.csv"
        assert run(["solve", "--config", cfg, "--out", str(out)]) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        assert not raw.endswith(b"\n\n")

    def test_json_canonical(self, tmp_path):
        cfg = self.solve_config(tmp_path)
        out = tmp_path / "o.json"
        assert run(["solve", "--config", cfg, "--out", str(out),
                    "--format", "json"]) == 0
        text = out.read_text()
        payload = json.loads(text)
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        assert text == canon

    def test_config_echo_in_header(self, tmp_path):
        cfg_path = self.solve_config(tmp_path)
        out = tmp_path / "o.csv"
        assert run(["solve", "--config", cfg_path, "--out", str(out)]) == 0
        echo_line = out.read_text().splitlines()[1]
        assert echo_line.startswith("# config: ")
        echoed = json.loads(echo_line[len("# config: "):])
        assert echoed == json.loads(pathlib.Path(cfg_path).read_text())


class TestExitCodes:
    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(),
            "source": {"expression": "1"},
            "grdi": 5,
        })
        assert run(["solve", "--config", cfg]) == 2

    def test_unknown_keys_listed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(),
            "source": {"expression": "1"},
            "grdi": 5,
        })
        run(["solve", "--config", cfg])
        err = capsys.readouterr().err
        assert "grdi" in err and "grid" in err

    def test_bad_expression_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(),
            "source": {"expression": "sin(pi*x"},
        })
        assert run(["solve", "--config", cfg]) == 2

    def test_missing_config_file(self, tmp_path):
        assert run(["solve", "--config", str(tmp_path / "none.json")]) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert run(["solve", "--config", str(path)]) == 2

    def test_resonant_omega_is_numerical_failure(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": {"family": "helmholtz", "dim": 1, "order": 32,
                       "omega": np.pi, "beta": 1.0},
            "source": {"expression": "1"},
        })
        assert run(["solve", "--config", cfg]) == 3

    def test_negative_gap_is_numerical_failure(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": {"family": "helmholtz", "dim": 1, "order": 32,
                       "omega": 4.0, "beta": 1.0},
            "source": {"expression": "1"},
        })
        assert run(["solve", "--config", cfg]) == 3

    def test_order_over_cap_is_resource_limit(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(dim=3, order=64),
            "source": {"expression": "1"},
        })
        assert run(["solve", "--config", cfg]) == 4

    def test_bad_mode(self, tmp_path):
        cfg = write_config(tmp_path, {"kernel": kernel_cfg(), "mode": "banana"})
        assert run(["sample", "--config", cfg]) == 2

    def test_fixed_hyper_for_beta(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(order=16),
            "mesh_size": 4,
            "observed": {"epsilon": 0.5},
            "hyper": {"kind": "fixed", "beta0": 1.0},
        })
        assert run(["beta", "--config", cfg]) == 2

    def test_wrong_coefficient_count(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(order=16),
            "mesh_size": 4,
            "observed": {"coefficients": [1.0, 2.0]},
        })
        assert run(["beta", "--config", cfg]) == 2

    def test_seed_out_of_range(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(order=16),
            "source": {"expression": "1"},
            "seed": -3,
        })
        assert run(["solve", "--config", cfg]) == 2

    @pytest.mark.parametrize("argv, cfg, prefix", [
        (["study", "convergence"],
         {"kernel": kernel_cfg(order=16), "assumed_source": {"expression": "0"},
          "truth": {"expression": "x*(1-x)"}, "ns": 5, "grid": 11},
         "config error: ns"),
        (["fit"], {"kernel": kernel_cfg(order=16), "data": {"path": ["a"]}, "sigma2": 1e-4,
                   "grid": 5}, "config error: data.path"),
        # a bool path would be opened as file descriptor 1
        (["fit"], {"kernel": kernel_cfg(order=16), "data": {"path": True}, "sigma2": 1e-4,
                   "grid": 5}, "config error: data.path"),
        (["solve"], {"kernel": kernel_cfg(order=16), "source": {"expression": "1"},
                     "grid": 5, "seed": True}, "config error: seed"),
        (["invert"],
         {"kernel": kernel_cfg(order=16),
          "family": {"expression": "a*sin(pi*x)+b", "free": ["a"], "parameters": {"b": "zz"}},
          "observed": {"coefficients": [0.01, 0.0]}, "init": [1.0]},
         "config error: family.parameters.b"),
    ], ids=["ns-number", "path-array", "path-bool", "seed-bool", "parameter-string"])
    def test_wrong_type_is_config_error(self, tmp_path, capsys, argv, cfg, prefix):
        out = tmp_path / "o.csv"
        TestLibraryErrorsAreConfigErrors.one_line_failure(
            capsys, argv + ["--config", write_config(tmp_path, cfg), "--out", str(out)],
            2, prefix)
        assert not out.exists()

    @pytest.mark.parametrize("kernel, code, prefix", [
        ({"family": "helmholtz", "dim": 1, "order": 8, "omega": 1e308}, 3,
         "numerical failure:"),
        (kernel_cfg(order=8, beta=10**400), 2, "config error: kernel.beta"),
    ], ids=["omega-squared-overflows", "integer-beyond-double"])
    def test_overflow_is_one_line(self, tmp_path, capsys, kernel, code, prefix):
        cfg = write_config(tmp_path, {"kernel": kernel, "source": {"expression": "1"},
                                      "grid": 5})
        TestLibraryErrorsAreConfigErrors.one_line_failure(
            capsys, ["solve", "--config", cfg], code, prefix)

    @pytest.mark.parametrize("kernel, x", [
        (kernel_cfg(order=16, beta=1e-320), [0.3, 0.6]),
        (kernel_cfg(dim=2, order=8, beta=1e-320), [[0.3, 0.4], [0.6, 0.2]]),
    ], ids=["1d", "2d"])
    def test_fit_kernel_over_beta_overflow_names_beta(self, tmp_path, capsys, kernel, x):
        # K / beta overflows a double: a numerical failure, not a config error
        cfg = write_config(tmp_path, {"kernel": kernel, "data": {"x": x, "y": [0.1, 0.2]},
                                      "sigma2": 1e-4, "grid": 5})
        out = tmp_path / "o.csv"
        assert run(["fit", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numerical failure:"), err
        assert "beta" in err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_convergence_study_is_numerical_failure(self, tmp_path, capsys, fmt):
        # the L2 error overflows to inf and the slope fit to nan
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(order=16), "assumed_source": {"expression": "0"},
            "truth": {"expression": "1e300*x"}, "ns": [4, 8, 16],
        })
        out = tmp_path / f"o.{fmt}"
        TestLibraryErrorsAreConfigErrors.one_line_failure(
            capsys, ["study", "convergence", "--config", cfg, "--out", str(out),
                     "--format", fmt], 3, "numerical failure:")
        assert not out.exists()


class TestLibraryErrorsAreConfigErrors:
    """Library argument validation on config values exits 2 with one line."""

    @staticmethod
    def one_line_failure(capsys, argv, code, prefix):
        assert run(argv) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(prefix), err

    def test_sample_mesh_size_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(order=16), "grid": 5, "mesh_size": 0,
            "moment_draws": 4, "count": 1,
        })
        self.one_line_failure(capsys, ["sample", "--config", cfg], 2, "config error:")

    def test_convergence_ns_not_increasing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(),
            "assumed_source": {"expression": "0"},
            "truth": {"expression": "x*(1-x)"},
            "ns": [8, 4, 16],
            "grid": 101,
        })
        self.one_line_failure(capsys, ["study", "convergence", "--config", cfg], 2,
                              "config error:")

    @pytest.mark.parametrize("mesh_size", [0, 17])
    def test_beta_mesh_size_out_of_range(self, tmp_path, capsys, mesh_size):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(order=16), "mesh_size": mesh_size,
            "observed": {"epsilon": 0.5},
        })
        self.one_line_failure(capsys, ["beta", "--config", cfg], 2, "config error: mesh_size")

    def test_model_error_mesh_size_over_order(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(order=16), "mesh_size": 40, "eps_values": [0.1],
        })
        self.one_line_failure(capsys, ["study", "model-error", "--config", cfg], 2,
                              "config error:")

    @pytest.mark.parametrize("mesh_size", [1, 2])
    @pytest.mark.parametrize("command", ["beta", "model-error"])
    def test_jeffreys_needs_three_coefficients(self, tmp_path, capsys, command, mesh_size):
        # the Jeffreys evidence has no interior maximum for M <= 2
        cfg = {"kernel": kernel_cfg(order=16), "mesh_size": mesh_size,
               "hyper": {"kind": "jeffreys"}}
        if command == "beta":
            cfg["observed"] = {"epsilon": 0.5}
        else:
            cfg["eps_values"] = [0.5]
        argv = [command] if command == "beta" else ["study", command]
        out = tmp_path / "o.csv"
        self.one_line_failure(
            capsys, argv + ["--config", write_config(tmp_path, cfg), "--out", str(out)],
            2, "config error: a Jeffreys prior needs at least 3 observed coefficients")
        assert not out.exists()

    @pytest.mark.parametrize("family, extra", [
        ({"expression": "a*sin(pi*x)", "free": ["a"]},
         {"observed": {"coefficients": [0.05, 0.001]}, "init": [1e300]}),
        ({"components": [{"coefficients": [1.0, 0.0]}]},
         {"observed": {"coefficients": [1e200, 1e200]},
          "hyper": {"kind": "fixed", "beta0": 1.0}}),
    ], ids=["expression-init-overflows", "linear-objective-overflows"])
    def test_non_finite_invert_is_numerical_failure(self, tmp_path, capsys, family, extra):
        cfg = write_config(tmp_path, {"kernel": kernel_cfg(order=16), "family": family,
                                      **extra})
        out = tmp_path / "o.json"
        self.one_line_failure(
            capsys, ["invert", "--config", cfg, "--out", str(out), "--format", "json"],
            3, "numerical failure:")
        assert not out.exists()

    @pytest.mark.parametrize("grid", [0, 1])
    @pytest.mark.parametrize("command", ["solve", "sample", "fit", "convergence"])
    def test_grid_below_two(self, tmp_path, capsys, command, grid):
        cfg = {"kernel": kernel_cfg(order=16), "grid": grid}
        if command == "solve":
            cfg["source"] = {"expression": "1"}
        elif command == "fit":
            cfg.update(data={"x": [0.5], "y": [1.0]}, sigma2=1e-4)
        elif command == "convergence":
            cfg.update(assumed_source={"expression": "0"},
                       truth={"expression": "x*(1-x)"}, ns=[4, 8, 16])
        argv = ["study", command] if command == "convergence" else [command]
        out = tmp_path / "o.csv"
        self.one_line_failure(
            capsys, argv + ["--config", write_config(tmp_path, cfg), "--out", str(out)],
            2, "config error: grid")
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_fit_is_numerical_failure(self, tmp_path, capsys, fmt):
        # the residual y - u0(x) overflows (u0 is about -1e307 at the data), so
        # the posterior mean does; neither format may write nan or null
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(),
            "source": {"expression": "-1e308"},
            "data": {"x": [0.3, 0.6], "y": [1.7e308, 1.7e308]},
            "sigma2": 1e-4,
            "grid": 11,
        })
        out = tmp_path / f"o.{fmt}"
        self.one_line_failure(
            capsys, ["fit", "--config", cfg, "--out", str(out), "--format", fmt],
            3, "numerical failure:")
        assert not out.exists()

    def test_data_point_outside_unit_cube(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(), "data": {"x": [1.5, 0.5], "y": [1.0, 0.0]},
            "sigma2": 1e-4, "grid": 5,
        })
        out = tmp_path / "o.csv"
        self.one_line_failure(capsys, ["fit", "--config", cfg, "--out", str(out)], 2,
                              "config error:")
        assert not out.exists()

    @pytest.mark.parametrize("dim, x", [
        (1, [[0.1, 0.2], [0.3, 0.4]]),
        (2, [0.1, 0.3]),
        (2, [[0.1, 0.2, 0.3], [0.3, 0.4, 0.5]]),
        (2, [[0.1, 0.2], [0.3]]),
    ], ids=["2d-points-1d-kernel", "1d-points-2d-kernel", "3d-points-2d-kernel", "ragged"])
    def test_data_points_of_wrong_dimension(self, tmp_path, capsys, dim, x):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(dim=dim, order=4), "data": {"x": x, "y": [1.0, 2.0]},
            "sigma2": 1e-4, "grid": 3,
        })
        self.one_line_failure(capsys, ["fit", "--config", cfg], 2, "config error: data.x")

    def test_posterior_sample_rejects_mesh_size(self, tmp_path, capsys):
        # the posterior uses the full kernel; a truncation would be ignored
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(order=16), "mode": "posterior", "mesh_size": 3,
            "data": {"x": [0.5], "y": [1.0]}, "sigma2": 1e-4, "grid": 5,
            "moment_draws": 4, "count": 1,
        })
        out = tmp_path / "o.csv"
        self.one_line_failure(capsys, ["sample", "--config", cfg, "--out", str(out)], 2,
                              "config error: mesh_size")
        assert not out.exists()

    @pytest.mark.parametrize("extra", [{"data": {"x": [0.5], "y": [1.0]}}, {"sigma2": 1e-4}],
                             ids=["data", "sigma2"])
    def test_prior_sample_rejects_data(self, tmp_path, capsys, extra):
        # prior draws ignore observations; accepting them would hide a wrong mode
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(order=16), "grid": 5, "moment_draws": 4, "count": 1,
            **extra,
        })
        out = tmp_path / "o.csv"
        self.one_line_failure(capsys, ["sample", "--config", cfg, "--out", str(out)], 2,
                              f"config error: {next(iter(extra))}")
        assert not out.exists()

    def test_invert_rejects_observed_and_data(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(order=16),
            "family": {"components": [{"expression": "sin(pi*x)"}]},
            "observed": {"coefficients": [0.3]}, "data": {"x": [0.5], "y": [100.0]},
        })
        out = tmp_path / "o.csv"
        assert run(["invert", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error:"), err
        assert "'observed'" in err and "'data'" in err
        assert not out.exists()


class TestExpressionProbes:
    """No source expression makes the CLI exit 1 or print a traceback."""

    @pytest.mark.parametrize("expression", [
        "(" * 2000 + "x" + ")" * 2000, "-" * 5000 + "x", "+".join(["x"] * 20000),
    ], ids=["2000-parentheses", "5000-unary-minus", "20000-term-sum"])
    def test_too_deep_is_one_config_error(self, tmp_path, capsys, expression):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(order=16), "source": {"expression": expression}, "grid": 5,
        })
        out = tmp_path / "o.csv"
        TestLibraryErrorsAreConfigErrors.one_line_failure(
            capsys, ["solve", "--config", cfg, "--out", str(out)], 2, "config error:")
        assert not out.exists()

    def test_900_term_sum_solves(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(order=16),
            "source": {"expression": "+".join(["sin(pi*x)"] * 900)}, "grid": 5,
        })
        out = tmp_path / "o.csv"
        assert run(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert out.exists()


class TestWarnings:
    """Library warnings reach stderr as `warning:` lines, and only on success."""

    def test_dirac_limit_beta_prints_one_warning(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(order=16), "mesh_size": 4, "observed": {"epsilon": 0.0},
        })
        assert run(["beta", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0
        err = capsys.readouterr().err
        assert err == "warning: beta search terminated at the upper bracket boundary\n", err

    def test_failed_study_prints_only_its_failure(self, tmp_path, capsys):
        # eps 0 stops at the bracket edge, then eps 1e308 leaves nothing finite
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(order=16), "mesh_size": 4, "eps_values": [0.0, 1e308],
        })
        TestLibraryErrorsAreConfigErrors.one_line_failure(
            capsys, ["study", "model-error", "--config", cfg], 3, "numerical failure:")


class TestOutOfMemory:
    @pytest.mark.parametrize("message", ["", "Unable to allocate 7.86 GiB"])
    def test_memory_error_is_resource_limit(self, tmp_path, capsys, monkeypatch, message):
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(pde, "solve", exhausted)
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(order=16), "source": {"expression": "1"}, "grid": 5,
        })
        out = tmp_path / "o.csv"
        TestLibraryErrorsAreConfigErrors.one_line_failure(
            capsys, ["solve", "--config", cfg, "--out", str(out)], 4,
            f"resource limit: {message or 'out of memory'}")
        assert not out.exists()


class TestDrawBudget:
    """`sample` refuses a request over `cli._DRAW_BUDGET` values before drawing."""

    @staticmethod
    def refuse_draws(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("drew past the budget check")

        monkeypatch.setattr(sampling, "sample_coefficients", refuse)
        monkeypatch.setattr(sampling, "_normals", refuse)

    # a prior draw takes its coefficients and its grid values, or, folded on
    # a grid of m points (12 under 64 coefficients, 7^2 under 8^2), a normal
    # per mode, (m - 2)^dim, and its grid values; a 1D bridge posterior a
    # normal per point and per distinct site inside (0, 1), here 2 of the 5
    # sites, and a value per point, and any other its 4^2 coefficients, a
    # normal per datum and its grid values
    @pytest.mark.parametrize("mode,per_draw,keys", [
        ("prior", 11 + 16, {"grid": 16, "mesh_size": 11}),
        ("prior", 10 + 12, {"grid": 12, "kernel": kernel_cfg(order=64)}),
        ("prior", 5**2 + 7**2, {"grid": 7, "kernel": kernel_cfg(dim=2, order=8)}),
        ("posterior", 10 + 2 + 10, {"grid": 10, "data": {"x": [0.0, 0.3, 0.3, 0.6, 1.0],
                                                         "y": [0.1, 0.2, 0.3, 0.1, 0.0]}}),
        ("posterior", 4**2 + 1 + 5**2, {"grid": 5, "kernel": kernel_cfg(dim=2, order=4)}),
    ], ids=["prior-27", "prior-22", "prior-2d-74", "posterior-22", "posterior-2d-42"])
    def test_over_budget_exits_4_before_drawing(self, tmp_path, capsys, monkeypatch,
                                                mode, per_draw, keys):
        payload = {"kernel": kernel_cfg(order=16), "mode": mode, "moment_draws": 100,
                   "count": 1, **keys}
        if mode == "posterior":
            x = [0.5] if payload["kernel"]["dim"] == 1 else [[0.5, 0.5]]
            payload.setdefault("data", {"x": x, "y": [0.1]})
            payload["sigma2"] = 1e-3
        cfg = write_config(tmp_path, payload)
        monkeypatch.setattr(cli, "_DRAW_BUDGET", 100 * per_draw)
        assert run(["sample", "--config", cfg, "--out", str(tmp_path / "a.csv")]) == 0
        monkeypatch.setattr(cli, "_DRAW_BUDGET", 100 * per_draw - 1)
        self.refuse_draws(monkeypatch)
        out = tmp_path / "b.csv"
        TestLibraryErrorsAreConfigErrors.one_line_failure(
            capsys, ["sample", "--config", cfg, "--out", str(out)], 4, "resource limit:")
        assert not out.exists()

    def test_bridge_posterior_budget_counts_its_sites_before_conditioning(
            self, tmp_path, capsys, monkeypatch):
        # 100 draws at 11 points with sites 0.2, 0.5, 0.5 and 1: two distinct
        # sites inside (0, 1), so 11 + 2 normals and 11 values a draw
        cfg = write_config(tmp_path, {"kernel": kernel_cfg(order=16), "mode": "posterior",
                                      "grid": 11, "moment_draws": 100, "count": 1,
                                      "data": {"x": [0.2, 0.5, 0.5, 1.0],
                                               "y": [0.1, 0.2, 0.3, 0.0]},
                                      "sigma2": 1e-3})
        monkeypatch.setattr(cli, "_DRAW_BUDGET", 100 * (11 + 2 + 11))
        assert run(["sample", "--config", cfg, "--out", str(tmp_path / "a.csv")]) == 0
        monkeypatch.setattr(cli, "_DRAW_BUDGET", 100 * (11 + 2 + 11) - 1)

        def refuse(*args, **kwargs):
            raise AssertionError("conditioned past the budget")

        monkeypatch.setattr(regression, "condition", refuse)
        self.refuse_draws(monkeypatch)
        out = tmp_path / "b.csv"
        TestLibraryErrorsAreConfigErrors.one_line_failure(
            capsys, ["sample", "--config", cfg, "--out", str(out)], 4, "resource limit:")
        assert not out.exists()

    def test_posterior_on_a_hundred_thousand_points_exits_4_at_once(self, tmp_path, capsys,
                                                                    monkeypatch):
        # grid 100001 and one site: 200003 values a draw, so 6000 draws are
        # 1.2e9 values, over the budget (4096 draws, 8.2e8, are drawn)
        self.refuse_draws(monkeypatch)
        cfg = write_config(tmp_path, {"kernel": kernel_cfg(), "mode": "posterior",
                                      "grid": 100001, "moment_draws": 6000,
                                      "data": {"x": [0.5], "y": [0.1]}, "sigma2": 1e-3})
        started = time.process_time()
        TestLibraryErrorsAreConfigErrors.one_line_failure(
            capsys, ["sample", "--config", cfg], 4, "resource limit:")
        assert time.process_time() - started < 5.0

    def test_posterior_on_a_2d_grid_of_101_exits_0_without_the_covariance(
            self, tmp_path, monkeypatch):
        # 10201 points: pathwise draws build no 10201^2 covariance
        def refuse(*args):
            raise AssertionError("built the dense covariance")

        monkeypatch.setattr(regression.PosteriorModel, "cov", refuse)
        cfg = write_config(tmp_path, {"kernel": kernel_cfg(dim=2, order=16), "mode": "posterior",
                                      "grid": 101, "moment_draws": 64,
                                      "data": {"x": [[0.3, 0.6], [0.7, 0.2]],
                                               "y": [0.2, -0.1]}, "sigma2": 1e-3})
        started = time.process_time()
        assert run(["sample", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0
        assert time.process_time() - started < 5.0

    def test_hundred_million_draws_exit_4_at_once(self, tmp_path, capsys, monkeypatch):
        self.refuse_draws(monkeypatch)
        cfg = write_config(tmp_path, {"kernel": {"family": "bridge"},
                                      "moment_draws": 10**8})
        started = time.perf_counter()
        TestLibraryErrorsAreConfigErrors.one_line_failure(
            capsys, ["sample", "--config", cfg], 4, "resource limit:")
        assert time.perf_counter() - started < 1.0


class TestGridLimit:
    """A grid of more than `cli._GRID_POINTS` points is refused before any
    array is built."""

    @pytest.mark.parametrize("command, payload", [
        (["solve"], {"kernel": kernel_cfg(dim=3, order=8), "source": {"expression": "1"},
                     "grid": 1000}),
        (["fit"], {"kernel": kernel_cfg(dim=3, order=8), "data": {"x": [[0.5] * 3], "y": [0.1]},
                   "sigma2": 1e-3, "grid": 1000}),
        (["sample"], {"kernel": kernel_cfg(dim=3, order=8), "grid": 1000}),
        (["study", "convergence"], {"kernel": kernel_cfg(order=16),
                                    "assumed_source": {"expression": "0"},
                                    "truth": {"expression": "sin(pi*x)"}, "ns": [4, 8],
                                    "grid": (1 << 22) + 1}),
    ], ids=["solve-3d-1000", "fit-3d-1000", "sample-3d-1000", "convergence"])
    def test_oversized_grid_exits_4_at_once(self, tmp_path, capsys, monkeypatch, command,
                                            payload):
        # a 3D grid of 1000 would ask for 7.45 GiB of coordinates alone
        def refuse(*args, **kwargs):
            raise AssertionError("built an array past the grid check")

        for module, name in ((np, "meshgrid"), (pde, "solve"), (regression, "condition")):
            monkeypatch.setattr(module, name, refuse)
        started = time.perf_counter()
        TestLibraryErrorsAreConfigErrors.one_line_failure(
            capsys, [*command, "--config", write_config(tmp_path, payload)], 4,
            "resource limit: a grid of")
        assert time.perf_counter() - started < 1.0

    def test_grid_at_the_limit_is_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_GRID_POINTS", 5**3)
        cfg = {"kernel": kernel_cfg(dim=3, order=4), "source": {"expression": "1"}, "grid": 5}
        out = tmp_path / "o.csv"
        assert run(["solve", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        monkeypatch.setattr(cli, "_GRID_POINTS", 5**3 - 1)
        assert run(["solve", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 4


class TestBlasThreads:
    """The OpenBLAS idle timeout that `import bridgegp` sets changes no byte
    of a threaded run.

    Both runs name OpenBLAS's own thread count, the cores it may run on, so
    the one-thread default does not apply; the reference restores OpenBLAS's
    idle timeout (2^28 cycles), the other leaves it to `import bridgegp`.
    The fit is too small for OpenBLAS to split, so its bytes do not show
    the thread count either.
    """

    def run_fit(self, tmp_path, name, **env_updates):
        rng = np.random.default_rng(3)
        x = rng.random((60, 2))
        y = np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]) + 0.01 * rng.standard_normal(60)
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(dim=2, order=16),
            "source": {"expression": "2*pi^2*sin(pi*x1)*sin(pi*x2)"},
            "data": {"x": x.tolist(), "y": y.tolist()}, "sigma2": 1e-4, "grid": 31,
        })
        blas_settings = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS",
                         "OPENBLAS_THREAD_TIMEOUT")
        env = {k: v for k, v in os.environ.items() if k not in blas_settings}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
        env.update(env_updates)
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "bridgegp.cli", "fit", "--config", cfg,
                        "--out", str(out)], env=env, check=True, capture_output=True,
                       timeout=120)
        return out.read_bytes()

    def test_idle_timeout_changes_no_byte(self, tmp_path):
        # OpenBLAS's default thread count is the number of CPUs it may run on
        cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
        reference = self.run_fit(tmp_path, "old.csv", OPENBLAS_THREAD_TIMEOUT="28",
                                 OPENBLAS_NUM_THREADS=str(cores))
        assert self.run_fit(tmp_path, "new.csv", OPENBLAS_NUM_THREADS=str(cores)) == reference


class TestOneConditioningCore:
    """Outside the 1D bridge every command conditions through the one
    eigendecomposed marginal covariance; no Cholesky factor is built."""

    POINTS = {1: [0.2, 0.45, 0.7], 2: [[0.2, 0.3], [0.5, 0.6], [0.7, 0.4]],
              3: [[0.2, 0.3, 0.4], [0.5, 0.6, 0.5], [0.7, 0.4, 0.3]]}

    def fit_config(self, kernel):
        return {"kernel": kernel, "data": {"x": self.POINTS[kernel["dim"]],
                                           "y": [0.3, -0.1, 0.2]},
                "sigma2": 1e-4, "grid": 5}

    @pytest.mark.parametrize("command, cfg", [
        ("fit", kernel_cfg(dim=2, order=8)),
        ("fit", kernel_cfg(dim=3, order=6)),
        ("fit", kernel_cfg(family="helmholtz", omega=2.0)),
        ("fit", kernel_cfg(family="power", p=0.75)),
        ("sample", kernel_cfg(dim=2, order=8)),
        ("invert", kernel_cfg(dim=2, order=8)),
    ], ids=["fit-2d", "fit-3d", "fit-helmholtz", "fit-power", "sample-2d", "invert-2d"])
    def test_runs_without_a_cholesky_factor(self, tmp_path, monkeypatch, command, cfg):
        def refuse(*args, **kwargs):
            raise AssertionError("production conditioning built an SpdSolver")

        monkeypatch.setattr(kernels, "SpdSolver", refuse)
        config = self.fit_config(cfg)
        if command == "sample":
            config.update(grid=4, mode="posterior", moment_draws=16, count=1)
        elif command == "invert":
            del config["grid"]
            config["family"] = {"components": [
                {"expression": "sin(pi*x1)*sin(pi*x2)"},
                {"expression": "sin(2*pi*x1)*sin(pi*x2)"},
            ]}
        out = tmp_path / "out.csv"
        assert run([command, "--config", write_config(tmp_path, config),
                    "--out", str(out)]) == 0
        assert out.exists()

    def test_variance_left_nonpositive_exits_3(self, tmp_path, capsys, shift_eigenvalue):
        # the least eigenvalue of K pushed so far below 0 that the one jitter
        # (1e-12 times the mean variance) cannot lift it
        shift_eigenvalue(3, lambda w: -1e-3 * w.max() - 1e-4)
        out = tmp_path / "out.csv"
        cfg = write_config(tmp_path, self.fit_config(kernel_cfg(dim=2, order=8)))
        assert run(["fit", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numerical failure:"), err
        assert "after jitter" in err
        assert not out.exists()


class TestSourcesOnAxes:
    """Sources are projected on the quadrature rule's axes: no command forms
    the rule's (2 order + 33)^dim points."""

    POINTS = {"x": [[0.2, 0.3], [0.5, 0.6], [0.7, 0.4], [0.4, 0.2]], "y": [0.3, -0.1, 0.2, 0.1]}

    @pytest.mark.parametrize("command, payload", [
        ("solve", {"kernel": kernel_cfg(dim=3, order=6), "grid": 5,
                   "source": {"expression": "exp(-(x1-0.3)^2)*x2*(1-x3)+1"}}),
        ("fit", {"kernel": kernel_cfg(dim=2, order=8), "source": {"expression": "sin(pi*x1)*x2"},
                 "data": POINTS, "sigma2": 1e-4, "grid": 5}),
        ("invert", {"kernel": kernel_cfg(dim=2, order=8), "data": POINTS, "sigma2": 1e-4,
                    "family": {"expression": "a*sin(pi*x1)*sin(pi*x2)", "free": ["a"]},
                    "hyper": {"kind": "flat"}, "init": [1.0]}),
    ], ids=["solve-3d", "fit-2d", "invert-2d"])
    def test_runs_without_the_rule_points(self, tmp_path, monkeypatch, command, payload):
        def refuse(rule):
            raise AssertionError("a command formed the quadrature rule's points")

        monkeypatch.setattr(spectral.QuadratureRule, "nodes", property(refuse))
        out = tmp_path / "out.csv"
        assert run([command, "--config", write_config(tmp_path, payload),
                    "--out", str(out)]) == 0
        assert out.exists()


class TestOneSampler:
    def test_posterior_artifact_is_the_library_draws(self, tmp_path):
        x, y = [0.15, 0.5, 0.85], [0.3, -0.2, 0.1]
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(order=32, beta=3.0),
            "mode": "posterior",
            "data": {"x": x, "y": y},
            "sigma2": 1e-3,
            "grid": 9,
            "count": 3,
            "moment_draws": 2100,
            "seed": 5,
        })
        out = tmp_path / "o.csv"
        assert run(["sample", "--config", cfg, "--out", str(out)]) == 0
        table = np.loadtxt(out, delimiter=",", skiprows=4)
        post = condition(KernelSpec("bridge", order=32, beta=3.0), None,
                         Dataset(np.array(x), np.array(y), 1e-3))
        draws = np.concatenate(list(posterior_value_blocks(post, table[:, :1], 2100, seed=5)))
        # the paths are the draws; the moments are merged over two blocks
        np.testing.assert_array_equal(table[:, 3:], draws[:3].T)
        np.testing.assert_allclose(table[:, 1], draws.mean(axis=0), rtol=1e-12, atol=0)
        np.testing.assert_allclose(table[:, 2], draws.std(axis=0), rtol=1e-12, atol=0)

    def test_2d_posterior_artifact_is_the_library_draws(self, tmp_path):
        x, y = [[0.3, 0.6], [0.7, 0.2], [0.5, 0.5]], [0.2, -0.1, 0.3]
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(dim=2, order=8, beta=2.0), "mode": "posterior",
            "data": {"x": x, "y": y}, "sigma2": 1e-3, "grid": 6, "count": 3,
            "moment_draws": 2100, "seed": 5,
        })
        out = tmp_path / "o.csv"
        assert run(["sample", "--config", cfg, "--out", str(out)]) == 0
        table = np.loadtxt(out, delimiter=",", skiprows=4)
        post = condition(KernelSpec("bridge", dim=2, order=8, beta=2.0), None,
                         Dataset(np.array(x), np.array(y), 1e-3))
        axis = np.linspace(0.0, 1.0, 6)
        draws = np.concatenate(list(posterior_value_blocks(post, axis, 2100, seed=5)))
        np.testing.assert_array_equal(table[:, 4:], draws[:3].T)
        np.testing.assert_allclose(table[:, 2], draws.mean(axis=0), rtol=1e-12, atol=0)
        np.testing.assert_allclose(table[:, 3], draws.std(axis=0), rtol=1e-12, atol=0)

    # every command, and `sample` on each posterior route
    @pytest.mark.parametrize("command, payload", [
        (["sample"], {"kernel": kernel_cfg(order=16), "mode": "posterior", "grid": 9,
                      "data": {"x": [0.3, 0.6], "y": [0.2, -0.1]}, "sigma2": 1e-3,
                      "moment_draws": 64}),
        (["sample"], {"kernel": kernel_cfg(family="helmholtz", order=64, omega=3.0),
                      "mode": "posterior", "grid": 9, "moment_draws": 64,
                      "data": {"x": [0.3, 0.6], "y": [0.2, -0.1]}, "sigma2": 1e-3}),
        (["sample"], {"kernel": kernel_cfg(dim=2, order=8), "mode": "posterior", "grid": 9,
                      "data": {"x": [[0.3, 0.6], [0.7, 0.2]], "y": [0.2, -0.1]},
                      "sigma2": 1e-3, "moment_draws": 64}),
        (["fit"], {"kernel": kernel_cfg(dim=2, order=8), "grid": 9, "sigma2": 1e-3,
                   "data": {"x": [[0.3, 0.6], [0.7, 0.2]], "y": [0.2, -0.1]}}),
        (["beta"], {"kernel": kernel_cfg(order=16), "mesh_size": 4,
                    "observed": {"epsilon": 0.1}, "sigma2": 1e-4}),
        (["invert"], {"kernel": kernel_cfg(order=16), "sigma2": 1e-4,
                      "family": {"components": [{"expression": "sin(pi*x)"}]},
                      "data": {"x": [0.2, 0.5, 0.8], "y": [0.05, 0.1, 0.05]}}),
        (["study", "convergence"], {"kernel": kernel_cfg(order=64),
                                    "assumed_source": {"expression": "0"},
                                    "truth": {"expression": "sin(pi*x)"}, "ns": [4, 8],
                                    "grid": 101}),
        (["study", "model-error"], {"kernel": kernel_cfg(order=16), "mesh_size": 4,
                                    "eps_values": [0.0, 0.5]}),
    ], ids=["sample-bridge-1d", "sample-helmholtz", "sample-2d", "fit", "beta", "invert",
            "convergence", "model-error"])
    def test_no_command_calls_the_dense_covariance(self, tmp_path, monkeypatch, command,
                                                   payload):
        def refuse(*args, **kwargs):
            raise AssertionError("a command called PosteriorModel.cov")

        monkeypatch.setattr(regression.PosteriorModel, "cov", refuse)
        out = tmp_path / "o.csv"
        assert run([*command, "--config", write_config(tmp_path, payload),
                    "--out", str(out)]) == 0
        assert out.exists()

    @staticmethod
    def library_draws(mode, grid, draws, seed):
        """The draws `sample` streams for kernel_cfg(order=16) on `grid` points."""
        spec = KernelSpec("bridge", order=16)
        axis = np.linspace(0.0, 1.0, grid)
        if mode == "prior":
            blocks = value_blocks(PriorSampler(spec, None, None, seed), axis, draws)
        else:
            post = condition(spec, None, Dataset(np.array([0.3, 0.6]), np.array([0.2, -0.1]),
                                                 1e-3))
            blocks = posterior_value_blocks(post, axis, draws, seed)
        return np.concatenate(list(blocks))

    # blocks of 7 draws: fewer draws than a block, a ragged last block,
    # and every draw a path
    @pytest.mark.parametrize("mode", ["prior", "posterior"])
    @pytest.mark.parametrize("draws,count", [(5, 2), (23, 3), (14, 14)])
    def test_moments_merged_per_block_match_two_passes(self, tmp_path, monkeypatch,
                                                       mode, draws, count):
        monkeypatch.setattr(sampling, "_BLOCK", 7)
        payload = {"kernel": kernel_cfg(order=16), "mode": mode, "grid": 9,
                   "count": count, "moment_draws": draws, "seed": 3}
        if mode == "posterior":
            payload.update(data={"x": [0.3, 0.6], "y": [0.2, -0.1]}, sigma2=1e-3)
        out = tmp_path / "o.csv"
        assert run(["sample", "--config", write_config(tmp_path, payload),
                    "--out", str(out)]) == 0
        table = np.loadtxt(out, delimiter=",", skiprows=4)
        values = self.library_draws(mode, 9, draws, 3)
        np.testing.assert_array_equal(table[:, 3:].T, values[:count])
        np.testing.assert_allclose(table[:, 1], values.mean(axis=0), rtol=1e-12, atol=0)
        np.testing.assert_allclose(table[:, 2], values.std(axis=0), rtol=1e-12, atol=0)

    def test_2d_prior_grid_sample_builds_no_basis(self, tmp_path, monkeypatch):
        # grid 7 resolves 5 modes an axis, fewer than order 8: the leading 50
        # coefficients are drawn folded onto 5^2 modes, one normal each
        basis_matrix = spectral.basis_matrix

        def refuse(*args, **kwargs):
            raise AssertionError("a grid prior sample built a basis matrix")

        monkeypatch.setattr(spectral, "basis_matrix", refuse)
        monkeypatch.setattr(sampling, "_BLOCK", 16)
        cfg = write_config(tmp_path, {"kernel": kernel_cfg(dim=2, order=8), "grid": 7,
                                      "mesh_size": 50, "count": 3, "moment_draws": 40,
                                      "seed": 9})
        out = tmp_path / "o.csv"
        assert run(["sample", "--config", cfg, "--out", str(out)]) == 0
        table = np.loadtxt(out, delimiter=",", skiprows=4)
        sampler = PriorSampler(KernelSpec("bridge", dim=2, order=8), None, 50, 9)
        scales, center, modes = sampler.grid_modes(np.linspace(0.0, 1.0, 7))
        assert modes == 5
        xi = _philox(9, 0).standard_normal((25, 64))[:, :40].T  # draw j: column j
        values = (center + scales * xi) @ basis_matrix(2, 5, table[:, :2]).T
        for got, expect in ((table[:, 4:].T, values[:3]),
                            (table[:, 2], values.mean(axis=0)),
                            (table[:, 3], values.std(axis=0))):
            np.testing.assert_allclose(got, expect, rtol=0, atol=1e-13 * np.abs(expect).max())

    def test_1d_prior_draws_one_normal_per_folded_mode(self, tmp_path, monkeypatch):
        # 101 points resolve 99 modes, fewer than 512 coefficients: each draw
        # asks its stream for 99 normals, not 512
        sizes = []
        normals = sampling._normals

        def count(*args):
            for block in normals(*args):
                sizes.extend([len(block)] * block.shape[1])
                yield block

        monkeypatch.setattr(sampling, "_normals", count)
        cfg = write_config(tmp_path, {"kernel": kernel_cfg(order=512), "grid": 101,
                                      "moment_draws": 3000, "seed": 41})
        assert run(["sample", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0
        assert sizes == [99] * 3000

    @pytest.mark.parametrize("kernel,grid", [
        (kernel_cfg(order=512), 101), (kernel_cfg(order=64), 101),
        (kernel_cfg(dim=2, order=8), 7), (kernel_cfg(dim=2, order=4), 11),
        (kernel_cfg(dim=3, order=8), 5),
    ], ids=["1d-folded", "1d", "2d-folded", "2d", "3d-folded"])
    def test_no_prior_sample_calls_eigh(self, tmp_path, monkeypatch, kernel, grid):
        def refuse(*args, **kwargs):
            raise AssertionError("a prior sample called np.linalg.eigh")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        cfg = write_config(tmp_path, {"kernel": kernel, "grid": grid, "moment_draws": 100})
        assert run(["sample", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0

    def test_1d_prior_paths_do_not_depend_on_moment_draws(self, tmp_path):
        tables = []
        for draws in (5, 5000):
            cfg = write_config(tmp_path, {"kernel": kernel_cfg(order=512), "grid": 101,
                                          "moment_draws": draws, "seed": 41})
            out = tmp_path / f"{draws}.csv"
            assert run(["sample", "--config", cfg, "--out", str(out)]) == 0
            tables.append(np.loadtxt(out, delimiter=",", skiprows=4)[:, 3:])
        few, many = tables
        np.testing.assert_allclose(many, few, rtol=0, atol=1e-14 * np.abs(few).max())

    def test_cli_uses_no_private_sampling_name(self):
        tree = ast.parse(inspect.getsource(cli))
        private = [node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                   and isinstance(node.value, ast.Name) and node.value.id == "sampling"]
        private += [alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and "sampling" in (node.module or "")
                    for alias in node.names if alias.name.startswith("_")]
        assert private == []


class TestDataFiles:
    def test_csv_with_header(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("x,y\n0.25,1.0\n0.5,0.5\n0.75,0.25\n", encoding="utf-8")
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(),
            "data": {"path": str(data)},
            "sigma2": 1e-6,
            "grid": 5,
        })
        assert run(["fit", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0

    def test_csv_without_header(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("0.25,1.0\n0.75,0.25\n", encoding="utf-8")
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(),
            "data": {"path": str(data)},
            "sigma2": 1e-6,
            "grid": 5,
        })
        assert run(["fit", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0

    def test_column_count_mismatch(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("0.25,0.5,1.0\n", encoding="utf-8")
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(),
            "data": {"path": str(data)},
            "sigma2": 1e-6,
        })
        assert run(["fit", "--config", cfg]) == 2

    def test_missing_data_file(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(),
            "data": {"path": str(tmp_path / "none.csv")},
            "sigma2": 1e-6,
        })
        assert run(["fit", "--config", cfg]) == 2


class TestGoldenFixture:
    # The interior mean/sd digits come out of reductions whose order is
    # fixed by the numpy/BLAS build (LAPACK potrf, the LU solves on the
    # factor, gemv, the einsum in PosteriorModel.var, the tensordot in
    # spectral.project), so the golden file pins them only to rounding.
    # Two builds were measured 1.5 eps*max|mean| and 0.63 eps*max k(x,x)
    # apart, each within 2 eps and 1.2 eps of an exact rational evaluation
    # of the same formulas; a bound of 8 eps leaves room for two builds each
    # twice that far off in opposite directions, while a modelling change
    # moves these columns by orders of magnitude more.
    ULPS = 8

    def test_fit_output_pinned(self, tmp_path, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        config = FIXTURES / "fit_config.json"
        out = tmp_path / "fit.csv"
        assert run(["fit", "--config", str(config), "--out", str(out)]) == 0
        got = out.read_bytes()
        want = (FIXTURES / "fit_expected.csv").read_bytes()

        # serialization, byte for byte: LF endings and one trailing newline,
        # comment header and column header, row count, x fields, and the
        # boundary rows where the bridge kernel vanishes exactly
        assert b"\r" not in got
        assert got.endswith(b"\n") and not got.endswith(b"\n\n")
        got_lines, want_lines = got.split(b"\n")[:-1], want.split(b"\n")[:-1]
        assert got_lines[:4] == want_lines[:4]
        assert len(got_lines) == len(want_lines)
        got_rows = [line.decode("ascii").split(",") for line in got_lines[4:]]
        want_rows = [line.decode("ascii").split(",") for line in want_lines[4:]]
        assert [r[0] for r in got_rows] == [r[0] for r in want_rows]
        assert got_rows[0] == ["0", "0", "0"]
        assert got_rows[-1] == ["1", "0", "0"]
        for i, row in enumerate(got_rows):
            assert len(row) == 3, f"row {i}: {row}"
            for field in row:
                assert format(float(field), ".17g") == field, (
                    f"row {i}: {field!r} is not 17-significant-digit output"
                )

        # numbers, to rounding: mean against eps*max|mean|, and sd through
        # the variance sd^2 against eps*max k(x,x) = eps*max x(1-x)/beta
        eps = np.finfo(float).eps
        beta = json.loads(config.read_text(encoding="utf-8"))["kernel"]["beta"]
        checks = (
            ("mean", 1, float, max(abs(float(r[1])) for r in want_rows), "eps*max|mean|"),
            ("sd", 2, lambda f: float(f) ** 2, 0.25 / beta, "eps*max k(x,x) in sd^2"),
        )
        misses = []
        for column, k, value, scale, unit in checks:
            for i, (g, w) in enumerate(zip(got_rows, want_rows)):
                gap = abs(value(g[k]) - value(w[k])) / (eps * scale)
                if gap > self.ULPS:
                    misses.append(
                        f"row {i} (x={g[0]}) column {column}: got {g[k]}, "
                        f"expected {w[k]}, gap {gap:.3g} {unit} > {self.ULPS}"
                    )
        assert not misses, "\n".join(misses)


class TestStreamingWriter:
    """The artifact is written in blocks of `cli._ROWS` rows: the block size
    changes no byte, and memory does not grow with the row count."""

    CONFIGS = {
        "solve": (["solve"], {"kernel": kernel_cfg(dim=2, order=8),
                              "source": {"expression": "x1*x2"}, "grid": 5}),
        "sample": (["sample"], {"kernel": kernel_cfg(order=16), "grid": 9, "count": 2,
                                "moment_draws": 32, "seed": 5}),
        "fit": (["fit"], {"kernel": kernel_cfg(order=16), "sigma2": 1e-4, "grid": 7,
                          "data": {"x": [0.2, 0.6], "y": [0.1, -0.3]}}),
        # the Dirac limit: formula_beta is inf in CSV and null in JSON
        "beta": (["beta"], {"kernel": kernel_cfg(order=16), "mesh_size": 4,
                            "observed": {"epsilon": 0.0}}),
        "invert": (["invert"], {"kernel": kernel_cfg(order=16), "family": {"components": [
            {"coefficients": [1.0] + [0.0] * 15}, {"coefficients": [0.0, 1.0] + [0.0] * 14}]},
            "observed": {"coefficients": [0.3, -0.2, 0.0, 0.0]}, "sigma2": 1e-8}),
        "convergence": (["study", "convergence"], {
            "kernel": kernel_cfg(order=32), "assumed_source": {"expression": "0"},
            "truth": {"expression": "sin(pi*x)"}, "ns": [4, 8, 16], "grid": 101}),
        "model-error": (["study", "model-error"], {"kernel": kernel_cfg(order=16),
                                                   "mesh_size": 6, "eps_values": [0.0, 0.5]}),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", sorted(CONFIGS))
    def test_block_size_changes_no_byte(self, tmp_path, monkeypatch, command, fmt):
        argv, payload = self.CONFIGS[command]
        argv = argv + ["--config", write_config(tmp_path, payload), "--format", fmt]

        def artifact(name):
            out = tmp_path / name
            assert run(argv + ["--out", str(out)]) == 0
            return out.read_bytes()

        default = artifact("default")
        for rows in (1, 3):
            monkeypatch.setattr(cli, "_ROWS", rows)
            assert artifact(f"rows{rows}") == default, f"_ROWS = {rows}"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_memory_of_a_large_grid(self, tmp_path, fmt):
        # 41^3 = 68921 rows, a 4.5 MB CSV; the grid's own four columns take 2.2 MB
        cfg = write_config(tmp_path, {
            "kernel": kernel_cfg(dim=3, order=8),
            "source": {"coefficients": [1.0 / (k + 1) for k in range(64)], "order": 4},
            "grid": 41,
        })
        out = tmp_path / f"o.{fmt}"
        tracemalloc.start()
        try:
            assert run(["solve", "--config", cfg, "--out", str(out), "--format", fmt]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if fmt == "csv":
            assert len(out.read_text().splitlines()) == 4 + 41**3
        else:
            assert len(json.loads(out.read_text())["rows"]) == 41**3
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_peak_memory_of_a_long_1d_grid(self, tmp_path):
        # order 512 on 40001 points: the grid's sine table would be 156 MiB;
        # it is synthesized _GRID_BLOCK // 512 = 4096 points (16 MiB) at a time
        cfg = write_config(tmp_path, {"kernel": kernel_cfg(order=512), "grid": 40001,
                                      "source": {"expression": "exp(-(x-0.3)^2/0.01)"}})
        out = tmp_path / "o.csv"
        tracemalloc.start()
        try:
            assert run(["solve", "--config", cfg, "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40001 * 512 * 8 / 6, f"peak {peak / 2**20:.1f} MiB"
        table = np.loadtxt(out, delimiter=",", skiprows=4)
        some = np.arange(0, 40001, 997)
        u0 = pde.solve(pde.ClosedFormSource("exp(-(x-0.3)^2/0.01)"), KernelSpec("bridge"))
        np.testing.assert_allclose(table[some, 1], u0(table[some, 0]), rtol=0, atol=1e-15)


class TestUnwritableOutput:
    """An output that cannot be written exits 2 with one line, not a traceback,
    and leaves no temp file behind."""

    def solve_config(self, tmp_path, grid=5):
        return write_config(tmp_path, {
            "kernel": kernel_cfg(order=16), "source": {"expression": "1"}, "grid": grid,
        })

    @pytest.mark.parametrize("target, errno_code", [
        ("missing/o.csv", errno.ENOENT), ("adir", errno.EISDIR)])
    def test_unwritable_path(self, tmp_path, capsys, target, errno_code):
        (tmp_path / "adir").mkdir()
        out = tmp_path / target
        assert run(["solve", "--config", self.solve_config(tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: cannot write output {out}: {os.strerror(errno_code)}\n"
        assert not list(tmp_path.rglob(".bridgegp-*"))
        assert (tmp_path / "adir").is_dir() and not any((tmp_path / "adir").iterdir())

    @pytest.mark.parametrize("grid", [5, 20001])
    def test_stdout_closed_by_its_reader(self, tmp_path, grid):
        # A pipe whose read end is closed before the run, as in `bridgegp ... | true`.
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "bridgegp.cli", "solve",
                 "--config", self.solve_config(tmp_path, grid)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr.decode() == (
            f"config error: cannot write output stdout: {os.strerror(errno.EPIPE)}\n")
