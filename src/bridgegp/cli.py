"""Command-line front end.

One JSON config per invocation, strict about keys and their types;
subcommands cover the forward solve, prior/posterior sampling, point-data
fitting, trust calibration, source inversion, and the two studies.
Outputs are CSV (17 significant digits, LF, UTF-8) or canonical JSON,
streamed in blocks of rows; with --out they go to a temp file renamed into
place when complete, so a crash never leaves a torn file.  Identical
config and seed give byte-identical output on one machine with one
numpy/BLAS build at one BLAS thread count; across builds and thread counts
the serialization stays byte-identical and the numbers agree to rounding,
as README "Determinism" states.

`solve`, `fit` and `sample` evaluate on the grid by one sine synthesis per
axis, never through a basis matrix of the grid; the 1D bridge posterior
instead takes one pass over its data sites and fills the grid points between
them by bridge interpolation (`PosteriorModel`).  A 3D `solve`
at S = 32 and the default grid of 101 writes a 72 MB CSV in about 3 s CPU at
82 MB peak RSS on a 2-vCPU machine, nearly all of it the formatting of its
1030301 rows.  `sample` holds one block of draws at a time and merges the
moments block by block.

Exit codes: 0 success, 2 config error (so is a plain ValueError, since the
library's arguments come from the config, and so is an unwritable output),
3 numerical failure (so is an arithmetic overflow, and a non-finite number
in any artifact but those of `beta` and `study model-error`), 4 resource
limit (so is a MemoryError, a grid of more than `_GRID_POINTS` points, and a
`sample` over `_DRAW_BUDGET`).
"""

from __future__ import annotations

import argparse
import json
import math
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

# --- config tables ---------------------------------------------------------
#
# Each config object has one table: key -> (check, default).  A check takes
# the JSON value and its path and returns the value to use, or raises
# ConfigError; a default of ... marks a required key.  A list of tables is
# a choice of shapes: the first table whose first key is present applies.

def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where} is out of range for a double") from None


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string")
    return value


def _seed(value, where: str) -> int:
    seed = _integer(value, where)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{where} must be an unsigned 64-bit integer, got {seed}")
    return seed


def _grid_points(value, where: str) -> int:
    per_axis = _integer(value, where)
    if per_axis < 2:
        raise ConfigError(f"{where} must be at least 2 points per axis, got {per_axis}")
    return per_axis


def _number_map(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for name, v in value.items():
        _number(v, f"{where}.{name}")
    return value


def _array_of(item, what: str):
    """Check of a nonempty JSON array whose entries all pass `item`."""
    def check(value, where: str) -> list:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where} must be a nonempty array of {what}")
        return [item(v, f"{where}[{i}]") for i, v in enumerate(value)]
    return check


_number_list = _array_of(_number, "numbers")
_integer_list = _array_of(_integer, "integers")
_string_list = _array_of(_string, "strings")


def _point(value, where: str):
    """One point: a number in 1D, an array of coordinates otherwise."""
    return _number_list(value, where) if isinstance(value, list) else _number(value, where)


def _read(cfg, where: str, table) -> dict:
    """The checked values of JSON object `cfg` under `table`, defaults filled in."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be a JSON object")
    if isinstance(table, list):
        shapes = [t for t in table if next(iter(t)) in cfg]
        if not shapes:
            raise ConfigError(f"{where} must contain "
                              + " or ".join(repr(next(iter(t))) for t in table))
        table = shapes[0]
    unknown = sorted(set(cfg) - set(table))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}; allowed: {sorted(table)}")
    values = {}
    for key, (check, default) in table.items():
        if key in cfg:
            values[key] = check(cfg[key], key if where == "config" else f"{where}.{key}")
        elif default is ...:
            raise ConfigError(f"missing required key {key!r} in {where}")
        else:
            values[key] = default
    return values


class _Object:
    """Check of a nested JSON object: read through `table`, then `build`."""

    def __init__(self, table, build=dict):
        self.table, self.build = table, build

    def __call__(self, value, where: str):
        return self.build(**_read(value, where, self.table))


_KERNEL = {"family": (_string, ...), "dim": (_integer, 1), "order": (_integer, None),
           "beta": (_number, 1.0), "omega": (_number, None), "p": (_number, None)}
_HYPER = {"kind": (_string, ...), "beta0": (_number, None)}
_SOURCE = [{"expression": (_string, ...), "parameters": (_number_map, {})},
           {"coefficients": (_number_list, ...), "order": (_integer, None)}]
_DATA = [{"path": (_string, ...)},
         {"x": (_array_of(_point, "points"), ...), "y": (_number_list, ...)}]
_OBSERVED_COEFFICIENTS = {"coefficients": (_number_list, ...)}
_OBSERVED = [_OBSERVED_COEFFICIENTS, {"epsilon": (_number, ...)}]
_TRUTH = {"expression": (_string, ...)}

_kernel = _Object(_KERNEL, kernels.KernelSpec)
_hyper = _Object(_HYPER, regression.HyperPrior)
_source = _Object(_SOURCE)
_data = _Object(_DATA)
_FAMILY = [{"components": (_array_of(_source, "source objects"), ...),
            "offset": (_source, None)},
           {"expression": (_string, ...), "free": (_string_list, ...),
            "parameters": (_number_map, {})}]


def _build_source(src: dict, dim: int, where: str) -> pde.SourceModel:
    if "expression" in src:
        source = pde.ClosedFormSource(src["expression"], src["parameters"])
        # Compile now so malformed expressions fail as config errors.
        source.compiled(dim)
        return source
    coeffs, order = src["coefficients"], src["order"]
    if order is None:
        if dim > 1:
            raise ConfigError(f"{where} needs an explicit order when dim > 1")
        order = len(coeffs)
    if len(coeffs) != order**dim:
        raise ConfigError(f"{where} has {len(coeffs)} coefficients, expected {order ** dim}")
    return pde.SpectralSource(spectral.SpectralField(dim, order, coeffs))


def _build_prior(opts: dict) -> pde.PdeSolution | None:
    """Forward solution for the config's optional `source`; None without one."""
    if opts["source"] is None:
        return None
    spec = opts["kernel"]
    return pde.solve(_build_source(opts["source"], spec.dim, "source"), spec)


def _load_dataset(data: dict, dim: int, sigma2: float) -> regression.Dataset:
    if "path" in data:
        x, y = _read_csv_points(data["path"], dim)
    else:
        point = () if dim == 1 else (dim,)
        if any(np.shape(p) != point for p in data["x"]):
            raise ConfigError(f"data.x must hold points of dimension {dim}")
        x, y = np.array(data["x"]), np.array(data["y"])
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
    values = []
    for i, line in enumerate(lines):
        toks = line.split(",")
        if len(toks) != dim + 1:
            raise ConfigError(f"line {i + 1} of {path} has {len(toks)} columns, expected {dim + 1}")
        try:
            values += map(float, toks)
        except ValueError as exc:
            raise ConfigError(f"line {i + 1} of {path} is not numeric") from exc
    if not values:
        raise ConfigError(f"data file {path} contains no observations")
    arr = np.array(values).reshape(-1, dim + 1)
    return arr[:, :dim], arr[:, dim]


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _require_finite(*arrays) -> None:
    """Refuse to write an artifact that holds a non-finite number."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericalError("the output would hold non-finite values")


# Grid points a command evaluates on, per_axis**dim.  In fresh `solve`
# processes (2-vCPU machine) 3D grids of 101, 128 and 161 points an axis took
# 3.2, 8.0 and 13.8 s CPU at 82, 126 and 205 MB max RSS, and a 2D grid of 2048
# 8.6 s at 161 MB; more points than a 3D grid of 161 are refused.
_GRID_POINTS = 1 << 22


def _check_grid(points: int) -> None:
    if points > _GRID_POINTS:
        raise ResourceLimitError(f"a grid of {points} points is over the limit of "
                                 f"{_GRID_POINTS}; lower grid")


def _grid(dim: int, per_axis: int):
    """The grid's coordinate columns in C order, their labels, and its axis."""
    _check_grid(per_axis**dim)
    axis = np.linspace(0.0, 1.0, per_axis)
    labels = ("x",) if dim == 1 else tuple(f"x{i + 1}" for i in range(dim))
    return [g.reshape(-1) for g in np.meshgrid(*[axis] * dim, indexing="ij")], labels, axis


# --- subcommands -----------------------------------------------------------
#
# Each command's table lists its top-level keys; the runner gets their
# checked values, with `seed` already replaced by any --seed override.

_SOLVE = {"kernel": (_kernel, ...), "source": (_source, ...), "grid": (_grid_points, 101),
          "seed": (_seed, 0)}


def _cmd_solve(opts: dict):
    spec = opts["kernel"]
    coords, labels, axis = _grid(spec.dim, opts["grid"])
    solution = pde.solve(_build_source(opts["source"], spec.dim, "source"), spec)
    # in chunks of first-axis coordinates, so a 1D grid's sine table is bounded
    vals = np.concatenate([spectral.synthesize(solution.u0.as_tensor(), tables) for tables
                           in spectral.grid_tables(axis, spec.dim, spec.order)]).reshape(-1)
    _require_finite(vals)
    return labels + ("u0",), [*coords, vals], {}


_SAMPLE = {"kernel": (_kernel, ...), "source": (_source, None), "grid": (_grid_points, 101),
           "count": (_integer, 3), "moment_draws": (_integer, 4096),
           "mesh_size": (_integer, None), "mode": (_string, "prior"),
           "data": (_data, None), "sigma2": (_number, None), "seed": (_seed, 0)}


# Values `sample` draws, moment_draws x (normals + grid points), one block held
# at a time: a 1D bridge posterior takes a normal per grid point and per data
# site inside (0, 1), a prior one per mode of `PriorSampler.grid_modes`, else
# one per coefficient and per datum.  Values, not time: a 1D prior at grid
# 100001, order 512, 4096 draws (8.2e8 values) took 163 s CPU (2-vCPU machine).
_DRAW_BUDGET = 1 << 30


def _cmd_sample(opts: dict):
    spec = opts["kernel"]
    count, draws, mode = opts["count"], opts["moment_draws"], opts["mode"]
    if mode not in ("prior", "posterior"):
        raise ConfigError(f"mode must be 'prior' or 'posterior', got {mode!r}")
    if not 1 <= count <= draws:
        raise ConfigError(f"count must be in [1, moment_draws], got {count}")
    coords, labels, axis = _grid(spec.dim, opts["grid"])
    points = opts["grid"] ** spec.dim
    prior = _build_prior(opts)
    if mode == "prior":
        for key in ("data", "sigma2"):
            if opts[key] is not None:
                raise ConfigError(f"{key} applies only to mode 'posterior'; "
                                  "prior draws take no data")
        sampler = sampling.PriorSampler(spec, prior, opts["mesh_size"], opts["seed"])
        _check_draw_budget(draws, sampler.grid_modes(axis)[0].size + points)
        blocks = sampling.value_blocks(sampler, axis, draws)
    else:
        if opts["mesh_size"] is not None:
            raise ConfigError("mesh_size applies only to mode 'prior'; "
                              "the posterior uses the full kernel")
        for key in ("sigma2", "data"):
            if opts[key] is None:
                raise ConfigError(f"mode 'posterior' needs the key {key!r}")
        data = _load_dataset(opts["data"], spec.dim, opts["sigma2"])
        drawn = (points + np.unique(data.X[(data.X > 0.0) & (data.X < 1.0)]).size
                 if spec.closed_form else spec.n_coeffs + data.n)
        _check_draw_budget(draws, drawn + points)
        post = regression.condition(spec, prior, data)
        blocks = sampling.posterior_value_blocks(post, axis, draws, opts["seed"])
    mean, sd, paths = _moments(blocks, count)
    _require_finite(mean, sd, paths)
    names = labels + ("mean", "sd") + tuple(f"path_{j}" for j in range(count))
    return names, [*coords, mean, sd, *paths], {}


def _check_draw_budget(draws: int, per_draw: int) -> None:
    if draws * per_draw > _DRAW_BUDGET:
        raise ResourceLimitError(
            f"sample would draw {draws} x {per_draw} values, over the budget of "
            f"{_DRAW_BUDGET}; lower moment_draws, grid or mesh_size")


def _moments(blocks, count: int):
    """Mean, sd and first `count` rows of the draws in `blocks`.

    Each block's (n, mean, M2) is merged into the running one by the
    pairwise update of Chan, Golub & LeVeque (1979); M2 is a block's sum of
    squared deviations from its own mean, which overwrite it, never a sum of
    squares.  Sums are products with ones: one BLAS pass in any layout.
    """
    n, mean, m2, head = 0, 0.0, 0.0, []
    for block in blocks:
        if n < count:
            head.append(block[:count - n].copy())
        k, ones = len(block), np.ones(len(block))
        block_mean = ones @ block / k
        delta = block_mean - mean
        mean = mean + delta * (k / (n + k))
        block -= block_mean
        block *= block
        m2 = m2 + ones @ block + delta**2 * (n * k / (n + k))
        n += k
        del block  # before the next is drawn
    return mean, np.sqrt(m2 / n), np.concatenate(head)


_FIT = {"kernel": (_kernel, ...), "source": (_source, None), "data": (_data, ...),
        "sigma2": (_number, ...), "grid": (_grid_points, 101), "seed": (_seed, 0)}


def _cmd_fit(opts: dict):
    started = time.perf_counter()
    spec = opts["kernel"]
    coords, labels, axis = _grid(spec.dim, opts["grid"])
    prior = _build_prior(opts)
    data = _load_dataset(opts["data"], spec.dim, opts["sigma2"])
    post = regression.condition(spec, prior, data)
    mean, var = post.on_grid(axis)
    sd = np.sqrt(var)
    _require_finite(mean, sd)
    print(f"fit: n={data.n} wall={time.perf_counter() - started:.3f}s", file=sys.stderr)
    return labels + ("mean", "sd"), [*coords, mean, sd], {}


_BETA = {"kernel": (_kernel, ...), "source": (_source, None), "mesh_size": (_integer, ...),
         "observed": (_Object(_OBSERVED), ...), "sigma2": (_number, 0.0),
         "hyper": (_hyper, regression.FLAT), "seed": (_seed, 0)}


def _cmd_beta(opts: dict):
    spec = opts["kernel"]
    prior = _build_prior(opts)
    mesh_size, observed = opts["mesh_size"], opts["observed"]
    if not 1 <= mesh_size <= spec.n_coeffs:
        raise ConfigError(f"mesh_size must be in [1, {spec.n_coeffs}], got {mesh_size}")
    if "epsilon" in observed:
        values = np.array(pde.prior_mean(prior, spec).coeffs[:mesh_size])
        values[0] += observed["epsilon"]
    else:
        values = np.array(observed["coefficients"])
        if values.size != mesh_size:
            raise ConfigError(
                f"observed.coefficients has {values.size} entries, expected {mesh_size}"
            )
    row = regression.calibration_row(
        spec, prior, regression.CoefficientObservations(values, opts["sigma2"]), opts["hyper"])
    return tuple(row), [[v] for v in row.values()], {}


_INVERT = {"kernel": (_kernel, ...), "family": (_Object(_FAMILY), ...),
           "observed": (_Object(_OBSERVED_COEFFICIENTS), None), "data": (_data, None),
           "sigma2": (_number, 0.0), "hyper": (_hyper, regression.FLAT),
           "init": (_number_list, None), "seed": (_seed, 0)}


def _cmd_invert(opts: dict):
    spec = opts["kernel"]
    fam = opts["family"]
    if "components" in fam:
        family = pde.LinearSourceFamily(
            tuple(_build_source(c, spec.dim, f"family.components[{i}]")
                  for i, c in enumerate(fam["components"])),
            None if fam["offset"] is None
            else _build_source(fam["offset"], spec.dim, "family.offset"),
        )
    else:
        family = pde.ExpressionSourceFamily(fam["expression"], tuple(fam["free"]),
                                            dict(fam["parameters"]))
    if (opts["observed"] is None) == (opts["data"] is None):
        raise ConfigError("config must contain exactly one of 'observed' coefficients "
                          "or point 'data'")
    if opts["observed"] is not None:
        obs = regression.CoefficientObservations(
            np.array(opts["observed"]["coefficients"]), opts["sigma2"])
    else:
        obs = _load_dataset(opts["data"], spec.dim, opts["sigma2"])
    res = regression.invert_source(obs, family, opts["hyper"], spec, init=opts["init"])
    _require_finite(res.theta_mean, res.objective, res.theta_cov)
    m = res.theta_mean.size
    row = {f"theta_{j}": v for j, v in enumerate(res.theta_mean.tolist())}
    row.update(beta_star=res.beta, boundary=res.boundary or "", objective=res.objective,
               converged=int(res.converged), n_flat_directions=res.flat_directions.shape[0])
    row.update(zip([f"cov_{i}_{j}" for i in range(m) for j in range(m)],
                   res.theta_cov.reshape(-1).tolist()))
    return tuple(row), [[v] for v in row.values()], {}


def _study_table(report):
    columns = [[row[c] for row in report.rows] for c in report.columns]
    return report.columns, columns, dict(report.extras)


_CONVERGENCE = {"kernel": (_kernel, ...), "assumed_source": (_source, ...),
                "truth": (_Object(_TRUTH), None), "truth_source": (_source, None),
                "ns": (_integer_list, ...), "sigma2": (_number, 1e-8),
                "noise_sigma2": (_number, 0.0), "grid": (_grid_points, 2001),
                "seed": (_seed, 0)}


def _cmd_convergence(opts: dict):
    spec = opts["kernel"]
    _check_grid(opts["grid"])  # the study's grid is one axis
    assumed = _build_source(opts["assumed_source"], spec.dim, "assumed_source")
    if (opts["truth"] is None) == (opts["truth_source"] is None):
        raise ConfigError("provide exactly one of 'truth' or 'truth_source'")
    if opts["truth"] is not None:
        truth = expressions.compile_expression(opts["truth"]["expression"], spec.dim)
    else:
        truth = pde.solve(_build_source(opts["truth_source"], spec.dim, "truth_source"),
                          spec).u0
    names, columns, extras = _study_table(harness.convergence_study(
        truth, assumed, spec, opts["ns"], sigma2=opts["sigma2"], seed=opts["seed"],
        noise_sigma2=opts["noise_sigma2"], grid=opts["grid"],
    ))
    _require_finite(*columns, [v for v in extras.values() if v is not None])
    return names, columns, extras


_MODEL_ERROR = {"kernel": (_kernel, ...), "source": (_source, None),
                "mesh_size": (_integer, ...), "eps_values": (_number_list, ...),
                "hyper": (_hyper, regression.FLAT), "sigma2": (_number, 0.0),
                "seed": (_seed, 0)}


def _cmd_model_error(opts: dict):
    return _study_table(harness.model_error_study(
        opts["kernel"], opts["mesh_size"], opts["eps_values"], hyper=opts["hyper"],
        sigma2=opts["sigma2"], prior=_build_prior(opts), seed=opts["seed"],
    ))


_COMMANDS = {
    "solve": (_SOLVE, _cmd_solve),
    "sample": (_SAMPLE, _cmd_sample),
    "fit": (_FIT, _cmd_fit),
    "beta": (_BETA, _cmd_beta),
    "invert": (_INVERT, _cmd_invert),
    "convergence": (_CONVERGENCE, _cmd_convergence),
    "model-error": (_MODEL_ERROR, _cmd_model_error),
}


# --- serialization ---------------------------------------------------------
#
# A command returns its column names, one 1-D sequence per column (numpy
# arrays for grids, short lists of plain values otherwise) and its header
# extras.  The renderers yield the artifact in blocks of _ROWS rows.

_ROWS = 4096


def _fmt(value) -> str:
    if value is None or isinstance(value, str):
        return value or ""
    return str(int(value)) if isinstance(value, int) else "%.17g" % value


def _json_safe(value):
    """JSON has no inf or nan: a non-finite float becomes null."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _canonical(value, allow_nan: bool = True) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=allow_nan)


def _blocks(columns, fast, slow):
    """Each block's rows as cell tuples: `fast` maps a finite float column, `slow` a value."""
    direct = [isinstance(c, np.ndarray) and c.dtype.kind == "f" and np.isfinite(c).all()
              for c in columns]
    for start in range(0, len(columns[0]), _ROWS):
        parts = [c[start:start + _ROWS] for c in columns]
        parts = [p.tolist() if isinstance(p, np.ndarray) else p for p in parts]
        yield zip(*[fast(p) if d else list(map(slow, p)) for p, d in zip(parts, direct)])


def render_csv(command: str, cfg: dict, seed: int, names, columns, extras):
    head = [f"# command: {command}", f"# config: {_canonical(cfg)}", f"# seed: {seed}"]
    head += [f"# {key}: {_fmt(extras[key])}" for key in sorted(extras)]
    yield "\n".join(head + [",".join(names)]) + "\n"
    for rows in _blocks(columns, lambda values: ["%.17g" % v for v in values], _fmt):
        yield "".join([",".join(row) + "\n" for row in rows])


def render_json(command: str, cfg: dict, seed: int, names, columns, extras):
    # "rows" and "seed" sort last, after the keys of one canonical head.
    head = {"columns": list(names), "command": command, "config": cfg,
            "extras": {key: _json_safe(v) for key, v in extras.items()}}
    yield _canonical(head, allow_nan=False)[:-1] + ',"rows":['
    for i, rows in enumerate(_blocks(columns, lambda values: values, _json_safe)):
        yield ("," if i else "") + _canonical(list(rows))[1:-1]
    yield f'],"seed":{seed}}}\n'


def _write_output(chunks, out: str | None) -> None:
    """Write the chunks to stdout, or to `out` through a temp file and a rename."""
    tmp = None
    try:
        if out is None:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
            return
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(out)), prefix=".bridgegp-")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, out)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if not isinstance(exc, OSError):
            raise
        if isinstance(exc, BrokenPipeError):
            # The reader is gone; the interpreter's final flush must not fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ConfigError(f"cannot write output {'stdout' if out is None else out}: "
                          f"{exc.strerror or exc}") from exc


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
        table, runner = _COMMANDS[args.kind if args.command == "study" else args.command]
        opts = _read(cfg, "config", table)
        if args.seed is not None:
            opts["seed"] = _seed(args.seed, "seed")
        names, columns, extras = runner(opts)
        render = render_csv if args.format == "csv" else render_json
        _write_output(render(args.command, cfg, opts["seed"], names, columns, extras),
                      args.out)
        return 0
    except (ConfigError, ExpressionError, DomainError) as exc:
        # every point comes from the config or the grid
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ResourceLimitError, MemoryError) as exc:
        print(f"resource limit: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4
    except (BridgeGpError, NumericalError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
