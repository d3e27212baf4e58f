"""The benchmark's traced pass still finds every name it wraps.

`perfbench/inproc.py` wraps the package's public functions and methods,
and a few named ones (`kernels.SpdSolver.__init__`, `Dataset.__post_init__`,
`sampling._philox`), by attribute replacement.  A rename of any of those
would crash `perfbench/run.py --trace 1`; this test installs the tracer,
restores it, and checks that every attribute is back in place, so such a
rename fails here too.  The benchmark file is only imported, never changed.
"""

import importlib
import inspect
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def inproc(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "inproc", raising=False)
    return importlib.import_module("inproc")


def namespaces(module_names):
    """Each package module and each class it defines, by qualified name."""
    out = {}
    for short in module_names:
        mod = importlib.import_module(f"bridgegp.{short}")
        out[short] = mod
        for attr, obj in vars(mod).items():
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                out[f"{short}.{attr}"] = obj
    return out


def test_install_and_restore_leave_every_attribute_in_place(inproc):
    spaces = namespaces(inproc.MODULES)
    before = {name: dict(vars(space)) for name, space in spaces.items()}
    kernels = importlib.import_module("bridgegp.kernels")
    tracer = inproc.Tracer()
    try:
        inproc.install(tracer)
        assert kernels.SpdSolver.__dict__["__init__"] is not before["kernels.SpdSolver"]["__init__"]
        assert len(tracer._restore) > 50
    finally:
        tracer.restore()
    for name, space in spaces.items():
        after = vars(space)
        moved = [attr for attr, obj in before[name].items() if after.get(attr) is not obj]
        assert moved == [], f"{name}: {moved}"
