"""Property test of the CLI exit-code contract, drawn from the config tables.

Configs are built from the same key tables that `bridgegp.cli` reads them
with (`cli._COMMANDS` and the tables of the nested `cli._Object` checks), so
a key added to a table is drawn here with no edit to this file, and a key
whose check this file has no strategy for fails the test.  For each key a
config omits it, gives a working value, gives a valid-typed edge value (0,
a negative, 1e308, inf, nan, an integer beyond a double, an unknown name)
or gives a wrong-typed one (a bool, a string, an array, an object, null or
a float), and some configs carry an unknown key.  Each config runs through
`cli.main` in process.  The return must be 0, 2, 3 or 4, no exception may
escape, every exit-0 artifact must be well formed (canonical JSON, or
CSV lines as wide as the header; a row per line and a value per column),
and an exit-0 `solve`, `sample`, `fit` or `invert` artifact must hold only
finite numbers.

The size keys (`grid`, `order`, `count`, `moment_draws`, `ns`, `mesh_size`)
take small values only, and `grid` and `order` are never omitted.  The CLI
has no cost preflight yet, so a huge size would really be allocated, and
so would the defaults of those two in 3D (101 points per axis, order 32).
"""

import json
import math
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bridgegp import cli

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
ALWAYS_GIVEN = {"grid", "order"}
OMIT = object()

# Per check (or per key, for strings and anonymous checks): values that a
# working config would hold, and valid-typed edge values that often fail.
GOOD_NUMBERS, EDGE_NUMBERS = st.floats(0.01, 4.0), st.one_of(
    st.sampled_from([0, -1, 1e-12, 1e308, -1e308, 10**400, math.inf, -math.inf, math.nan]),
    st.floats(-4.0, 4.0))
GOOD_UNIT = st.floats(0.0, 1.0)
# Point data with every site given twice: the point-data routes meet a
# rank-deficient Gram on purpose, and with sigma2 0 (floored to 1e-12, with a
# warning) a marginal variance at the scale of the jitter rule.
REPEATED_SITES = st.integers(1, 3).flatmap(lambda n: st.fixed_dictionaries({
    "x": st.lists(GOOD_UNIT, min_size=n, max_size=n).map(lambda x: x + x),
    "y": st.lists(GOOD_NUMBERS, min_size=2 * n, max_size=2 * n)}))
# Some keys are meaningful only next to others (omega with helmholtz, beta0
# with a fixed hyper prior), so good values of these objects come whole.
GOOD_OBJECTS = {
    "kernel": st.one_of(
        st.fixed_dictionaries({"family": st.just("bridge"), "order": st.integers(1, 6),
                               "dim": st.sampled_from([1, 1, 2, 3])},
                              optional={"beta": GOOD_NUMBERS}),
        st.fixed_dictionaries({"family": st.just("helmholtz"), "order": st.integers(1, 6),
                               "omega": st.floats(0.5, 3.0)}),
        st.fixed_dictionaries({"family": st.just("power"), "order": st.integers(1, 6),
                               "p": st.floats(0.55, 1.0)})),
    "hyper": st.sampled_from([{"kind": "flat"}, {"kind": "jeffreys"},
                              {"kind": "fixed", "beta0": 2.0}]),
    "data": st.one_of(st.deferred(lambda: object_of(cli._DATA, False)), REPEATED_SITES),
}
GOOD = {
    cli._number: GOOD_NUMBERS,
    cli._integer: st.integers(1, 6),
    cli._grid_points: st.integers(2, 6),
    cli._seed: st.integers(0, 2**64 - 1),
    cli._number_map: st.fixed_dictionaries({"a": GOOD_NUMBERS, "b": GOOD_NUMBERS}),
    cli._number_list: st.lists(GOOD_NUMBERS, min_size=1, max_size=4),
    cli._integer_list: st.lists(st.integers(2, 12), min_size=2, max_size=4,
                                unique=True).map(sorted),
    cli._string_list: st.just(["a"]),
    "family": st.sampled_from(["bridge", "helmholtz", "power"]),
    "kind": st.sampled_from(["flat", "jeffreys"]),
    "moment_draws": st.integers(6, 64),
    "sigma2": st.one_of(GOOD_NUMBERS, st.just(0.0)),
    "mode": st.sampled_from(["prior", "posterior"]),
    "expression": st.sampled_from(["1", "x*(1-x)", "sin(pi*x)", "a*sin(pi*x)+b"]),
    "path": st.just(str(FIXTURES / "fit_data.csv")),
    "x": st.lists(GOOD_UNIT, min_size=1, max_size=4),
    "components": st.lists(st.deferred(lambda: object_of(cli._SOURCE, False)),
                           min_size=1, max_size=2),
}
EDGE = {
    cli._number: EDGE_NUMBERS,
    cli._integer: st.integers(-1, 0),
    cli._grid_points: st.integers(0, 1),
    cli._seed: st.sampled_from([-1, 2**64]),
    cli._number_map: st.dictionaries(st.sampled_from(["a", "x", "pi"]), EDGE_NUMBERS,
                                     max_size=2),
    cli._number_list: st.lists(EDGE_NUMBERS, min_size=1, max_size=4),
    cli._integer_list: st.lists(st.integers(-1, 6), min_size=1, max_size=3),
    cli._string_list: st.lists(st.sampled_from(["b", "x", "pi"]), min_size=1, max_size=2),
    "family": st.just("matern"),
    "kind": st.sampled_from(["fixed", "uniform"]),
    "moment_draws": st.integers(-1, 5),
    "sigma2": EDGE_NUMBERS,
    "mode": st.just("both"),
    "expression": st.sampled_from(["0", "sin(pi*x1)*sin(pi*x2)", "x1*x2*x3", "exp(-a*x)",
                                   "sin(pi*x", "", "1/x"]),
    "path": st.sampled_from([str(FIXTURES / "missing.csv"), "", str(FIXTURES)]),
    "x": st.one_of(st.lists(st.lists(GOOD_UNIT, min_size=2, max_size=3), min_size=1,
                            max_size=4),
                   st.lists(st.sampled_from([-0.5, 1.5, 0.5]), min_size=1, max_size=3)),
    "components": st.lists(st.deferred(lambda: object_of(cli._SOURCE, True)),
                           min_size=1, max_size=2),
}
WRONG = st.sampled_from([True, "text", [1.0], {"key": 1}, None, 2.5])


def object_of(table, noisy):
    """Strategy for JSON objects read through `table` (a list: one of its shapes).

    Without noise every key present holds a good value and only optional
    keys are left out; with noise a key may also hold an edge value, a
    wrong-typed value or be left out when required, and an unknown key may
    be added.
    """
    if isinstance(table, list):
        return st.one_of([object_of(shape, noisy) for shape in table])
    entries = [entry(key, check, default, noisy) for key, (check, default) in table.items()]
    unknown = st.sampled_from([()] * 5 + ([(("bogus_key", 1),)] if noisy else []))
    return st.tuples(st.tuples(*entries), unknown).map(
        lambda drawn: {k: v for k, v in drawn[0] + drawn[1] if v is not OMIT})


def entry(key, check, default, noisy):
    if isinstance(check, cli._Object):
        good = GOOD_OBJECTS[key] if key in GOOD_OBJECTS else object_of(check.table, False)
        edge = object_of(check.table, True)
    else:
        # a check without a strategy here fails with KeyError
        pick = key if check is cli._string or key in GOOD else check
        good, edge = GOOD[pick], EDGE[pick]
    choices = {"good": good, "edge": edge, "wrong": WRONG, "omit": st.just(OMIT)}
    if noisy:
        names = ["good"] * 4 + ["edge", "wrong"] + ([] if key in ALWAYS_GIVEN else ["omit"])
    else:
        names = ["good"] + (["omit"] if default is not ... and key not in ALWAYS_GIVEN else [])
    # repeated branches weight the draw
    return st.one_of([choices[name] for name in names]).map(lambda v: (key, v))


CONFIGS = {name: st.one_of(object_of(table, False), object_of(table, True))
           for name, (table, _) in cli._COMMANDS.items()}


# The one string column of any checked artifact: the `invert` boundary flag.
BOUNDARY_FLAGS = ("", "lower", "upper")


def finite_artifact(path, fmt):
    if fmt == "json":
        values = [v for row in json.loads(path.read_text())["rows"] for v in row
                  if v not in BOUNDARY_FLAGS]
    else:
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        values = [float(tok) for ln in lines[1:] for tok in ln.split(",")
                  if tok not in BOUNDARY_FLAGS]
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def well_formed(path, fmt):
    text = path.read_text()
    if fmt == "json":
        payload = json.loads(text)
        assert json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n" == text
        assert all(len(row) == len(payload["columns"]) for row in payload["rows"])
    else:
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        width = len(lines[0].split(","))
        assert len(lines) > 1 and all(len(ln.split(",")) == width for ln in lines[1:])
    return True


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_properties")


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_exit_code_contract(command, workdir, data):
    cfg = data.draw(CONFIGS[command], label="config")
    fmt = data.draw(st.sampled_from(["csv", "json"]), label="format")
    seed = data.draw(st.sampled_from([None, None, None, 7, -1, 2**64]), label="--seed")
    config, out = workdir / "config.json", workdir / f"out.{fmt}"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    out.unlink(missing_ok=True)
    argv = ["study", command] if command in ("convergence", "model-error") else [command]
    argv += ["--config", str(config), "--out", str(out), "--format", fmt]
    if seed is not None:
        argv += ["--seed", str(seed)]
    code = cli.main(argv)
    assert code in (0, 2, 3, 4)
    assert out.exists() == (code == 0)
    if code == 0:
        assert well_formed(out, fmt)
    if code == 0 and command in ("solve", "sample", "fit", "invert"):
        assert finite_artifact(out, fmt)


@pytest.mark.parametrize("command", ["fit", "sample", "invert"])
@pytest.mark.parametrize("kernel", [
    {"family": "bridge", "order": 6}, {"family": "helmholtz", "order": 6, "omega": 2.0},
    {"family": "bridge", "order": 4, "dim": 2},
], ids=["bridge", "helmholtz", "bridge-2d"])
def test_repeated_sites_without_noise(command, kernel, workdir):
    # both edges at once: every site twice and sigma2 0, floored to 1e-12
    sites = ([0.2, 0.5, 0.7] if "dim" not in kernel
             else [[0.2, 0.3], [0.5, 0.6], [0.7, 0.4]])
    cfg = {"kernel": kernel, "data": {"x": sites + sites, "y": [0.3, -0.1, 0.2, 0.2, -0.1, 0.3]},
           "sigma2": 0}
    if command == "invert":
        cfg["family"] = {"expression": "a*x*(1-x)" if "dim" not in kernel
                         else "a*x1*(1-x1)*x2*(1-x2)", "free": ["a"]}
        cfg["init"] = [1.0]
    else:
        cfg["grid"] = 5
    if command == "sample":
        cfg.update(mode="posterior", count=2, moment_draws=16)
    config, out = workdir / "config.json", workdir / "out.csv"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    out.unlink(missing_ok=True)
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    assert well_formed(out, "csv") and finite_artifact(out, "csv")
