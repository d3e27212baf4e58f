"""Per-layer metrics from a traced pass and from `python -X importtime`.

A layer is one module of the package; `import` (interpreter start plus
`import bridgegp`) is the ninth.  A span's self time is its duration
minus the time its child spans cover; a layer's self time is the sum
over its spans.
"""

from __future__ import annotations

from collections import defaultdict

from inproc import MODULES

# Import-time entries reported by name (cumulative seconds).
IMPORT_MODULES = ("bridgegp.harness", "scipy.stats", "scipy.integrate", "scipy.spatial")

# Function-level metrics: (span name, which of calls/self_s).
SPAN_METRICS = (
    ("spectral.basis_matrix", ("calls", "self_s")),
    ("spectral.evaluate", ("self_s",)),
    ("spectral.project", ("self_s",)),
    ("spectral.gauss_legendre_rule", ("self_s",)),
    ("kernels.kernel_matrix", ("calls", "self_s")),
    ("kernels.kernel_diag", ("self_s",)),
    ("kernels.SpdSolver.factor", ("calls", "self_s")),
    ("kernels.SpdSolver.solve", ("calls", "self_s")),
    ("regression.PosteriorModel.mean", ("self_s",)),
    ("regression.PosteriorModel.var", ("self_s",)),
    ("regression.PosteriorModel.cov", ("self_s",)),
    ("regression.log_marginal", ("calls", "self_s")),
    ("regression.invert_source", ("self_s",)),
    ("sampling.sample_coefficients", ("calls", "self_s")),
    ("sampling.sample_values", ("self_s",)),
    ("cli.main", ("self_s",)),
    ("cli.render_csv", ("self_s",)),
    ("cli.render_json", ("self_s",)),
    ("pde.solve", ("self_s",)),
    ("harness.design_metrics", ("self_s",)),
)

# Computed counts: (metric name, unit).  They repeat exactly run to run.
COMPUTED = (
    ("spectral.basis_matrix.bytes", "B"),
    ("kernels.kernel_matrix.bytes", "B"),
    ("kernels.SpdSolver.factor.flops", "flop"),
    ("kernels.SpdSolver.jitter.count", "count"),
    ("regression.factors_per_dataset", "ratio"),
    ("sampling.draws", "count"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {"import.total_s": "s"}
    units.update({f"import.{m}.cum_s": "s" for m in IMPORT_MODULES})
    for name, kinds in SPAN_METRICS:
        units.update({f"{name}.{k}": ("count" if k == "calls" else "s") for k in kinds})
    units.update(dict(COMPUTED))
    for layer in MODULES:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds of `bridgegp` and of each of IMPORT_MODULES.

    `-X importtime` logs each module when its import ends, children
    first, nested by indentation.  Some packages (scipy.spatial here) are
    logged only through their submodules; such a package is charged the
    cumulative time of its outermost logged submodules.
    """
    entries = []  # (name, cumulative seconds, parent index)
    stack: list[tuple[int, int]] = []  # (depth, index) awaiting a parent
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue  # header row
        depth = len(name) - len(name.lstrip())
        index = len(entries)
        entries.append([name.strip(), int(cum) * 1e-6, -1])
        while stack and stack[-1][0] > depth:
            entries[stack.pop()[1]][2] = index
        stack.append((depth, index))

    def under(name: str, package: str) -> bool:
        return name == package or name.startswith(package + ".")

    out = {}
    for package in ("bridgegp",) + IMPORT_MODULES:
        out[package] = sum(cum for name, cum, parent in entries
                           if under(name, package)
                           and not (parent >= 0 and under(entries[parent][0], package)))
    return out


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus its children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _job in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def span_table(spans: list[list]) -> dict[str, dict[str, float]]:
    """calls and self_s per span name."""
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for rec, own in zip(spans, self_times(spans)):
        row = table[rec[0]]
        row["calls"] += 1
        row["self_s"] += own
    return dict(table)


def per_layer_metrics(spans, counts, import_cum, overhead_s) -> dict[str, float]:
    table = span_table(spans)
    out: dict[str, float] = {"import.total_s": import_cum["bridgegp"]}
    for mod in IMPORT_MODULES:
        out[f"import.{mod}.cum_s"] = import_cum[mod]
    for name, kinds in SPAN_METRICS:
        row = table.get(name, {"calls": 0, "self_s": 0.0})
        for k in kinds:
            out[f"{name}.{k}"] = row[k]
    for name, _unit in COMPUTED:
        out[name] = counts.get(name, 0)
    # Dataset constructions are counted in inproc.py; the ratio is made here.
    datasets = counts.get("datasets", 0)
    factors = table.get("kernels.SpdSolver.factor", {"calls": 0})["calls"]
    out["regression.factors_per_dataset"] = factors / datasets if datasets else 0.0
    for layer in MODULES:
        rows = [v for k, v in table.items() if k.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = sum(r["calls"] for r in rows)
        out[f"{layer}.self_s"] = sum(r["self_s"] for r in rows)
    out["trace.overhead_s"] = overhead_s
    return out


def ranking(spans, import_cum, top: int = 5) -> list[tuple[str, float]]:
    """Largest self times by span name, with one `import bridgegp` as `import`."""
    rows = [(name, row["self_s"]) for name, row in span_table(spans).items()]
    rows.append(("import", import_cum["bridgegp"]))
    return sorted(rows, key=lambda r: -r[1])[:top]
