"""The golden corpus of the calibration commands: `beta` with a Jeffreys
prior, `study model-error`, and `invert` of a linear family on coefficients
and on point data and of an expression family on point data; and of the grid
routes: `solve` in 1D, 2D and 3D, and `fit` in 3D.

Each case's config and artifact sit under fixtures/golden/, written by
fixtures/golden/make_golden.py.  The test regenerates each artifact in
process and compares its serialization byte for byte (the header, the
column names in their order, and every text and integer cell) and its
numbers to the rounding README "Determinism" allows across builds and
BLAS thread counts.  It passes at OPENBLAS_NUM_THREADS 1 and 2.

The bounds:
- 1e-12 relative for every number but an expression family's theta and
  covariance.  beta_star and the objective come from Newton on exact
  log-beta derivatives, and a linear family's theta and covariance from a
  p x p eigendecomposition, all on systems of at most 40 observations, so
  other builds move them by a few hundred eps at most; a modelling change
  moves them far more.
- 1e-7 relative for an expression family's theta_* and cov_*.  Its
  Jacobian is a central difference of residuals, which amplifies their
  rounding by 1 / (2h), about 1e5 (README "Determinism").
- On a grid, the coordinates exactly and a field (u0, mean, sd) within 1e-12
  of its column's largest magnitude.  Other builds and BLAS thread counts
  move a solution or a posterior mean by a few eps of its largest value, a
  variance by cond(V) eps of max k(x, x) (cond(V) is small for these 12
  points), and the summation order of the per-axis products by about one eps.
- Under 50 KB for the nine configs, their artifacts and the script, and
  about 0.3 s of tier-1 to regenerate them: these slices are part of a
  corpus that is to cover every command and route within 300 KB and a few
  seconds.
"""

import importlib.util
import json
import pathlib

import pytest

from bridgegp import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "fixtures" / "golden"

_spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

RELATIVE = 1e-12
EXPRESSION_RELATIVE = 1e-7
GRID_RELATIVE = 1e-12


def cell(text: str):
    """A CSV cell as a float when it reads as one, else as its text."""
    try:
        return float(text)
    except ValueError:
        return text


def split(text: str, fmt: str):
    """(serialization with the rows cut out, column names, rows of cells)."""
    if fmt == "json":
        head, _, rows = text.partition(',"rows":')
        rows, _, tail = rows.rpartition(',"seed":')
        return head + "|" + tail, json.loads(head + "}")["columns"], json.loads(rows)
    lines = text.split("\n")
    comments = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if line and not line.startswith("#")]
    frame = "\n".join(comments + body[:1]) + f"|{len(lines)} lines"
    return frame, body[0].split(","), [[cell(c) for c in line.split(",")] for line in body[1:]]


def bound(name: str, column: str, want: float, top: float) -> float:
    """How far a cell may move from `want`, `top` the largest magnitude of its column."""
    if name in make_golden.GRID_CASES:
        return 0.0 if column.startswith("x") else GRID_RELATIVE * top
    expression = name.startswith("invert_expression")
    return (EXPRESSION_RELATIVE if expression and column.startswith(("theta_", "cov_"))
            else RELATIVE) * abs(want)


@pytest.mark.parametrize("name", sorted(make_golden.CASES))
def test_artifact_matches_the_corpus(tmp_path, name):
    fmt = make_golden.CASES[name][1]
    out = tmp_path / f"{name}.{fmt}"
    assert cli.main(make_golden.argv(name, out)) == 0
    got = out.read_text(encoding="utf-8")
    want = (GOLDEN / f"{name}.expected.{fmt}").read_text(encoding="utf-8")
    got_frame, got_names, got_rows = split(got, fmt)
    want_frame, want_names, want_rows = split(want, fmt)
    assert got_frame == want_frame
    assert got_names == want_names
    assert len(got_rows) == len(want_rows)
    for j, column in enumerate(want_names):
        top = max((abs(row[j]) for row in want_rows if isinstance(row[j], float)), default=0.0)
        for got_row, want_row in zip(got_rows, want_rows):
            g, w = got_row[j], want_row[j]
            if isinstance(w, float) and isinstance(g, float):
                assert g == w or abs(g - w) <= bound(name, column, w, top), (column, g, w)
            else:
                assert type(g) is type(w) and g == w, (column, g, w)


def test_configs_carry_their_data_and_the_corpus_is_small():
    # inline data: no file path enters an artifact's header
    for name in make_golden.CASES:
        cfg = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
        assert "path" not in cfg.get("data", {})
    # the script writes the committed configs again from its seed
    for name, cfg in make_golden.configs().items():
        assert json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8")) == cfg
    assert sum(p.stat().st_size for p in GOLDEN.iterdir() if p.is_file()) < 50_000
