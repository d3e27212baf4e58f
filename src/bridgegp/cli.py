"""Command-line front end.

One JSON config per invocation, strict about keys; subcommands cover
the forward solve, prior/posterior sampling, point-data fitting, trust
calibration, source inversion, and the two studies.  Outputs are CSV
(17 significant digits, LF, UTF-8) or canonical JSON, written via a
temp file and rename so a crash never leaves a torn file.  Identical
config and seed give byte-identical output on one machine with one
numpy/scipy/BLAS build at one BLAS thread count (OpenBLAS splits its
reductions by thread; its idle timeout changes no byte).  Across builds
or thread counts the reduction order inside LAPACK and BLAS may differ,
so the numbers agree to rounding: a mean to a few
eps * max|mean|, a variance to a few eps * max k(x,x), and hence a
standard deviation near a data point to about 1e-13 relative.  The
serialization (headers, grid coordinates, 17 significant digits, LF,
exact zeros on the boundary) stays byte-identical across builds.

Exit codes: 0 success, 2 config error (so is a plain ValueError: the
library's arguments come from the config), 3 numerical failure (so is a
non-finite number in a `solve`, `sample` or `fit` artifact), 4 resource
limit (so is a MemoryError).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
import warnings

import numpy as np

from . import expressions, harness, kernels, pde, regression, sampling, spectral
from .errors import (
    BridgeGpError,
    ConfigError,
    DomainError,
    ExpressionError,
    NumericalError,
    ResourceLimitError,
)

_SENTINEL = object()


def _mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    return obj


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}; allowed: {sorted(allowed)}")


def _get(obj: dict, key: str, where: str, default=_SENTINEL):
    if key in obj:
        return obj[key]
    if default is _SENTINEL:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return default


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    return float(value)


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    return value


def _number_list(value, where: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a nonempty array of numbers")
    return [_number(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _build_kernel(cfg, where: str = "kernel") -> kernels.KernelSpec:
    cfg = _mapping(cfg, where)
    _check_keys(cfg, {"family", "dim", "order", "beta", "omega", "p"}, where)
    family = _get(cfg, "family", where)
    kwargs = {
        "dim": _integer(_get(cfg, "dim", where, 1), f"{where}.dim"),
        "beta": _number(_get(cfg, "beta", where, 1.0), f"{where}.beta"),
    }
    if "order" in cfg:
        kwargs["order"] = _integer(cfg["order"], f"{where}.order")
    if "omega" in cfg:
        kwargs["omega"] = _number(cfg["omega"], f"{where}.omega")
    if "p" in cfg:
        kwargs["p"] = _number(cfg["p"], f"{where}.p")
    return kernels.KernelSpec(family, **kwargs)


def _build_source(cfg, dim: int, where: str) -> pde.SourceModel:
    cfg = _mapping(cfg, where)
    if "expression" in cfg:
        _check_keys(cfg, {"expression", "parameters"}, where)
        params = _mapping(_get(cfg, "parameters", where, {}), f"{where}.parameters")
        for name, val in params.items():
            _number(val, f"{where}.parameters.{name}")
        src = pde.ClosedFormSource(str(cfg["expression"]), params)
        # Compile now so malformed expressions fail as config errors.
        src.compiled(dim)
        return src
    if "coefficients" in cfg:
        _check_keys(cfg, {"coefficients", "order"}, where)
        coeffs = _number_list(cfg["coefficients"], f"{where}.coefficients")
        if "order" in cfg:
            order = _integer(cfg["order"], f"{where}.order")
        elif dim == 1:
            order = len(coeffs)
        else:
            raise ConfigError(f"{where} needs an explicit order when dim > 1")
        if len(coeffs) != order**dim:
            raise ConfigError(
                f"{where} has {len(coeffs)} coefficients, expected {order ** dim}"
            )
        return pde.SpectralSource(spectral.SpectralField(dim, order, coeffs))
    raise ConfigError(f"{where} must contain either 'expression' or 'coefficients'")


def _build_prior(cfg: dict, spec: kernels.KernelSpec) -> pde.PdeSolution | None:
    """Forward solution for the config's optional `source`; None without one."""
    source_cfg = _get(cfg, "source", "config", None)
    if source_cfg is None:
        return None
    return pde.solve(_build_source(source_cfg, spec.dim, "source"), spec)


def _build_hyper(cfg, where: str = "hyper") -> regression.HyperPrior:
    cfg = _mapping(cfg, where)
    _check_keys(cfg, {"kind", "beta0"}, where)
    kind = _get(cfg, "kind", where)
    if kind == "fixed":
        return regression.HyperPrior("fixed", _number(_get(cfg, "beta0", where), f"{where}.beta0"))
    if "beta0" in cfg:
        raise ConfigError(f"{where}.beta0 is only meaningful for kind='fixed'")
    return regression.HyperPrior(kind)


def _load_dataset(cfg, dim: int, sigma2: float, where: str = "data") -> regression.Dataset:
    cfg = _mapping(cfg, where)
    if "path" in cfg:
        _check_keys(cfg, {"path"}, where)
        x, y = _read_csv_points(cfg["path"], dim)
    else:
        _check_keys(cfg, {"x", "y"}, where)
        xs = _get(cfg, "x", where)
        if not isinstance(xs, list) or not xs:
            raise ConfigError(f"{where}.x must be a nonempty array")
        if dim == 1:
            x = np.array(_number_list(xs, f"{where}.x"))
        else:
            x = np.array([_number_list(row, f"{where}.x[{i}]") for i, row in enumerate(xs)])
        y = np.array(_number_list(_get(cfg, "y", where), f"{where}.y"))
    return regression.Dataset(x, y, sigma2)


def _read_csv_points(path, dim: int):
    """Observation CSV: dim coordinate columns then one value column."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    except OSError as exc:
        raise ConfigError(f"cannot read data file {path}: {exc}") from exc
    if lines and any(not _is_number(tok) for tok in lines[0].split(",")):
        lines = lines[1:]  # header row
    rows = []
    for i, line in enumerate(lines):
        toks = line.split(",")
        if len(toks) != dim + 1:
            raise ConfigError(f"line {i + 1} of {path} has {len(toks)} columns, expected {dim + 1}")
        try:
            rows.append([float(t) for t in toks])
        except ValueError as exc:
            raise ConfigError(f"line {i + 1} of {path} is not numeric") from exc
    if not rows:
        raise ConfigError(f"data file {path} contains no observations")
    arr = np.array(rows)
    return arr[:, :dim], arr[:, dim]


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _grid_size(cfg: dict, default: int) -> int:
    per_axis = _integer(_get(cfg, "grid", "config", default), "grid")
    if per_axis < 2:
        raise ConfigError(f"grid must be at least 2 points per axis, got {per_axis}")
    return per_axis


def _require_finite(*arrays) -> None:
    """Refuse to write a grid artifact that holds a non-finite number."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericalError("the output would hold non-finite values")


def _grid(dim: int, per_axis: int):
    axis = np.linspace(0.0, 1.0, per_axis)
    if dim == 1:
        return axis.reshape(-1, 1), ("x",)
    pts = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    return pts, tuple(f"x{i + 1}" for i in range(dim))


def _seed_of(cfg: dict, override) -> int:
    seed = cfg.get("seed", 0)
    if override is not None:
        seed = override
    seed = _integer(seed, "seed") if not isinstance(seed, (int, np.integer)) else int(seed)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


# --- subcommands -----------------------------------------------------------

def _cmd_solve(cfg: dict, seed: int):
    _check_keys(cfg, {"kernel", "source", "grid", "seed"}, "config")
    spec = _build_kernel(_get(cfg, "kernel", "config"))
    source = _build_source(_get(cfg, "source", "config"), spec.dim, "source")
    per_axis = _grid_size(cfg, 101)
    solution = pde.solve(source, spec)
    pts, labels = _grid(spec.dim, per_axis)
    vals = spectral.evaluate(solution.u0, pts)
    _require_finite(vals)
    rows = [list(p) + [v] for p, v in zip(pts, vals)]
    return labels + ("u0",), rows, {}


def _cmd_sample(cfg: dict, seed: int):
    _check_keys(cfg, {"kernel", "source", "grid", "count", "moment_draws",
                      "mesh_size", "mode", "data", "sigma2", "seed"}, "config")
    spec = _build_kernel(_get(cfg, "kernel", "config"))
    prior = _build_prior(cfg, spec)
    per_axis = _grid_size(cfg, 101)
    count = _integer(_get(cfg, "count", "config", 3), "count")
    draws = _integer(_get(cfg, "moment_draws", "config", 4096), "moment_draws")
    mode = _get(cfg, "mode", "config", "prior")
    if mode not in ("prior", "posterior"):
        raise ConfigError(f"mode must be 'prior' or 'posterior', got {mode!r}")
    if not 1 <= count <= draws:
        raise ConfigError(f"count must be in [1, moment_draws], got {count}")
    pts, labels = _grid(spec.dim, per_axis)
    if mode == "prior":
        mesh = cfg.get("mesh_size")
        sampler = sampling.PriorSampler(
            spec, prior, None if mesh is None else _integer(mesh, "mesh_size"), seed
        )
        values = sampling.sample_values(sampler, pts, draws)
    else:
        if "mesh_size" in cfg:
            raise ConfigError("mesh_size applies only to mode 'prior'; "
                              "the posterior uses the full kernel")
        sigma2 = _number(_get(cfg, "sigma2", "config"), "sigma2")
        data = _load_dataset(_get(cfg, "data", "config"), spec.dim, sigma2)
        post = regression.condition(spec, prior, data)
        values = sampling.sample_posterior_values(post, pts, draws, seed)
    mean = values.mean(axis=0)
    sd = values.std(axis=0)
    _require_finite(mean, sd, values[:count])
    columns = labels + ("mean", "sd") + tuple(f"path_{j}" for j in range(count))
    rows = [
        list(p) + [mean[i], sd[i]] + [values[j, i] for j in range(count)]
        for i, p in enumerate(pts)
    ]
    return columns, rows, {}


def _cmd_fit(cfg: dict, seed: int):
    _check_keys(cfg, {"kernel", "source", "data", "sigma2", "grid", "seed"}, "config")
    started = time.perf_counter()
    spec = _build_kernel(_get(cfg, "kernel", "config"))
    prior = _build_prior(cfg, spec)
    sigma2 = _number(_get(cfg, "sigma2", "config"), "sigma2")
    data = _load_dataset(_get(cfg, "data", "config"), spec.dim, sigma2)
    per_axis = _grid_size(cfg, 101)
    post = regression.condition(spec, prior, data)
    pts, labels = _grid(spec.dim, per_axis)
    mean = post.mean(pts)
    sd = np.sqrt(post.var(pts))
    _require_finite(mean, sd)
    rows = [list(p) + [mean[i], sd[i]] for i, p in enumerate(pts)]
    print(f"fit: n={data.n} wall={time.perf_counter() - started:.3f}s", file=sys.stderr)
    return labels + ("mean", "sd"), rows, {}


def _observed_coefficients(cfg: dict, prior, spec, mesh_size: int, where="observed"):
    cfg = _mapping(cfg, where)
    if "coefficients" in cfg:
        _check_keys(cfg, {"coefficients"}, where)
        values = np.array(_number_list(cfg["coefficients"], f"{where}.coefficients"))
        if values.size != mesh_size:
            raise ConfigError(
                f"{where}.coefficients has {values.size} entries, expected {mesh_size}"
            )
        return values
    if "epsilon" in cfg:
        _check_keys(cfg, {"epsilon"}, where)
        eps = _number(cfg["epsilon"], f"{where}.epsilon")
        values = np.array(pde.prior_mean(prior, spec).coeffs[:mesh_size])
        values[0] += eps
        return values
    raise ConfigError(f"{where} must contain 'coefficients' or 'epsilon'")


def _cmd_beta(cfg: dict, seed: int):
    _check_keys(cfg, {"kernel", "source", "mesh_size", "observed", "sigma2",
                      "hyper", "seed"}, "config")
    spec = _build_kernel(_get(cfg, "kernel", "config"))
    prior = _build_prior(cfg, spec)
    mesh_size = _integer(_get(cfg, "mesh_size", "config"), "mesh_size")
    sigma2 = _number(_get(cfg, "sigma2", "config", 0.0), "sigma2")
    hyper = _build_hyper(_get(cfg, "hyper", "config", {"kind": "flat"}))
    values = _observed_coefficients(_get(cfg, "observed", "config"), prior, spec, mesh_size)
    obs = regression.CoefficientObservations(values, sigma2)
    res = regression.beta_map(spec, prior, obs, hyper)
    dev2, formula = regression.closed_form_beta(spec, prior, values, hyper)
    row = [res.beta, res.log_beta, res.objective, res.boundary or "",
           int(res.dirac_limit), dev2, formula,
           res.beta / formula if np.isfinite(formula) else None]
    return ("beta_star", "log_beta", "objective", "boundary", "dirac_limit",
            "deviation_norm2", "formula_beta", "ratio"), [row], {}


def _cmd_invert(cfg: dict, seed: int):
    _check_keys(cfg, {"kernel", "family", "observed", "data", "sigma2", "hyper",
                      "init", "seed"}, "config")
    spec = _build_kernel(_get(cfg, "kernel", "config"))
    fam_cfg = _mapping(_get(cfg, "family", "config"), "family")
    sigma2 = _number(_get(cfg, "sigma2", "config", 0.0), "sigma2")
    if "components" in fam_cfg:
        _check_keys(fam_cfg, {"components", "offset"}, "family")
        comps = fam_cfg["components"]
        if not isinstance(comps, list) or not comps:
            raise ConfigError("family.components must be a nonempty array")
        family = pde.LinearSourceFamily(
            tuple(_build_source(c, spec.dim, f"family.components[{i}]")
                  for i, c in enumerate(comps)),
            _build_source(fam_cfg["offset"], spec.dim, "family.offset")
            if "offset" in fam_cfg else None,
        )
    elif "expression" in fam_cfg:
        _check_keys(fam_cfg, {"expression", "free", "parameters"}, "family")
        free = fam_cfg.get("free")
        if not isinstance(free, list) or not free:
            raise ConfigError("family.free must be a nonempty array of names")
        fixed = _mapping(fam_cfg.get("parameters", {}), "family.parameters")
        family = pde.ExpressionSourceFamily(str(fam_cfg["expression"]),
                                            tuple(str(f) for f in free), dict(fixed))
    else:
        raise ConfigError("family must contain 'components' or 'expression'")
    if "observed" in cfg:
        obs_cfg = _mapping(cfg["observed"], "observed")
        _check_keys(obs_cfg, {"coefficients"}, "observed")
        values = np.array(_number_list(_get(obs_cfg, "coefficients", "observed"),
                                       "observed.coefficients"))
        obs = regression.CoefficientObservations(values, sigma2)
    elif "data" in cfg:
        obs = regression.PointObservations(_load_dataset(cfg["data"], spec.dim, sigma2))
    else:
        raise ConfigError("config must contain 'observed' coefficients or point 'data'")
    hyper = _build_hyper(_get(cfg, "hyper", "config", {"kind": "flat"}))
    init = cfg.get("init")
    if init is not None:
        init = _number_list(init, "init")
    res = regression.invert_source(obs, family, hyper, spec, init=init)
    m = res.theta_mean.size
    columns = tuple(f"theta_{j}" for j in range(m)) + (
        "beta_star", "boundary", "objective", "converged", "n_flat_directions",
    ) + tuple(f"cov_{i}_{j}" for i in range(m) for j in range(m))
    row = (list(res.theta_mean)
           + [res.beta, res.boundary or "", res.objective, int(res.converged),
              res.flat_directions.shape[0]]
           + list(res.theta_cov.reshape(-1)))
    return columns, [row], {}


def _cmd_study(cfg: dict, seed: int, kind: str):
    if kind == "convergence":
        _check_keys(cfg, {"kernel", "assumed_source", "truth", "truth_source",
                          "ns", "sigma2", "noise_sigma2", "grid", "seed"}, "config")
        spec = _build_kernel(_get(cfg, "kernel", "config"))
        assumed = _build_source(_get(cfg, "assumed_source", "config"), spec.dim,
                                "assumed_source")
        if ("truth" in cfg) == ("truth_source" in cfg):
            raise ConfigError("provide exactly one of 'truth' or 'truth_source'")
        if "truth" in cfg:
            truth_cfg = _mapping(cfg["truth"], "truth")
            _check_keys(truth_cfg, {"expression"}, "truth")
            compiled = expressions.compile_expression(
                str(_get(truth_cfg, "expression", "truth")), spec.dim
            )
            truth = compiled
        else:
            truth_solution = pde.solve(
                _build_source(cfg["truth_source"], spec.dim, "truth_source"), spec
            )
            truth = truth_solution.u0
        ns = [_integer(n, "ns[]") for n in _get(cfg, "ns", "config")]
        report = harness.convergence_study(
            truth, assumed, spec, ns,
            sigma2=_number(_get(cfg, "sigma2", "config", 1e-8), "sigma2"),
            seed=seed,
            noise_sigma2=_number(_get(cfg, "noise_sigma2", "config", 0.0), "noise_sigma2"),
            grid=_grid_size(cfg, 2001),
        )
    elif kind == "model-error":
        _check_keys(cfg, {"kernel", "source", "mesh_size", "eps_values", "hyper",
                          "sigma2", "seed"}, "config")
        spec = _build_kernel(_get(cfg, "kernel", "config"))
        prior = _build_prior(cfg, spec)
        hyper = _build_hyper(_get(cfg, "hyper", "config", {"kind": "flat"}))
        report = harness.model_error_study(
            spec,
            _integer(_get(cfg, "mesh_size", "config"), "mesh_size"),
            _number_list(_get(cfg, "eps_values", "config"), "eps_values"),
            hyper=hyper,
            sigma2=_number(_get(cfg, "sigma2", "config", 0.0), "sigma2"),
            prior=prior,
            seed=seed,
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown study kind {kind!r}")
    rows = [[row[c] for c in report.columns] for row in report.rows]
    return report.columns, rows, dict(report.extras)


# --- serialization ---------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _json_safe(value):
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if np.isfinite(v) else None
    return value


def _config_echo(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"))


def render_csv(command: str, cfg: dict, seed: int, columns, rows, extras) -> str:
    lines = [f"# command: {command}", f"# config: {_config_echo(cfg)}", f"# seed: {seed}"]
    for key in sorted(extras):
        lines.append(f"# {key}: {_fmt(extras[key])}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(command: str, cfg: dict, seed: int, columns, rows, extras) -> str:
    payload = {
        "command": command,
        "config": cfg,
        "seed": seed,
        "columns": list(columns),
        "rows": _json_safe([list(r) for r in rows]),
        "extras": _json_safe(extras),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bridgegp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bridgegp",
        description="Physics-prior Gaussian processes for the Poisson equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON run config")
    common.add_argument("--seed", type=int, default=None,
                        help="unsigned 64-bit seed; overrides the config")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    for name, help_text in [
        ("solve", "forward PDE solve on a grid"),
        ("sample", "prior/posterior sample paths and empirical moments"),
        ("fit", "condition on point data and tabulate the posterior"),
        ("beta", "calibrate the trust weight from observed coefficients"),
        ("invert", "infer source parameters and the trust weight"),
    ]:
        sub.add_parser(name, parents=[common], help=help_text)
    study = sub.add_parser("study", parents=[common], help="reproducible studies")
    study.add_argument("kind", choices=("convergence", "model-error"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # A failed run reports one line, its cause.  Warnings raised on the
    # way are printed one line each, and only when the run succeeds.
    with warnings.catch_warnings(record=True) as caught:
        code = _run(args)
    for caught_warning in caught if code == 0 else ():
        print(f"warning: {caught_warning.message}", file=sys.stderr)
    return code


def _run(args) -> int:
    try:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
        cfg = _mapping(cfg, "config")
        seed = _seed_of(cfg, args.seed)
        if args.command == "study":
            columns, rows, extras = _cmd_study(cfg, seed, args.kind)
        else:
            runner = {
                "solve": _cmd_solve,
                "sample": _cmd_sample,
                "fit": _cmd_fit,
                "beta": _cmd_beta,
                "invert": _cmd_invert,
            }[args.command]
            columns, rows, extras = runner(cfg, seed)
        render = render_csv if args.format == "csv" else render_json
        _write_output(render(args.command, cfg, seed, columns, rows, extras), args.out)
        return 0
    except (ConfigError, ExpressionError, DomainError) as exc:
        # every point comes from the config or the grid
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ResourceLimitError, MemoryError) as exc:
        print(f"resource limit: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4
    except (BridgeGpError, NumericalError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
