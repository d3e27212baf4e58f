"""Shared fixtures, plus the acceptance-criteria reporter.

Acceptance tests call the ``acceptance`` fixture with a criterion name, a
boolean, and a detail string.  The result is recorded and also asserted, so
a failing criterion fails its test.  At the end of the run the collected
lines are printed in one block, one line per criterion.
"""

# Imported before numpy, so the OpenBLAS idle timeout that `import
# bridgegp` sets applies to this process too: OpenBLAS reads it once, on load.
import bridgegp  # noqa: F401
import numpy as np
import pytest

_LINES = []


@pytest.fixture
def acceptance():
    def record(name, ok, detail):
        status = "PASS" if ok else "FAIL"
        _LINES.append(f"{status} {name}: {detail}")
        assert ok, f"{name}: {detail}"

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def shift_eigenvalue(monkeypatch):
    """shift(n, lowest) makes every (n, n) eigendecomposition return
    `lowest(w)` as its least eigenvalue, the others as computed."""
    def shift(n, lowest):
        original = np.linalg.eigh

        def eigh(a, *args, **kwargs):
            w, u = original(a, *args, **kwargs)
            if np.shape(a) == (n, n):
                w = w.copy()
                w[0] = lowest(w)
            return w, u

        monkeypatch.setattr(np.linalg, "eigh", eigh)

    return shift
