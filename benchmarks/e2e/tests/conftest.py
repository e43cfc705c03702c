"""Test plumbing for the end-to-end benchmark (smoke scale only)."""

import importlib.util
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parent.parent
# ``repro`` is importable already: benchmarks/conftest.py needs it too
sys.path.insert(0, str(E2E))


@pytest.fixture(scope="session")
def runner():
    """``run.py`` loaded as a module (it is a script, not a package)."""
    spec = importlib.util.spec_from_file_location(
        "ndpipe_e2e_run", E2E / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def traced(runner):
    """One traced smoke invocation per workload: an untraced pass, the
    traced pass (gated equal on every exact metric) and the probes."""
    from ndpipe_e2e.metrics import WORKLOADS

    return {name: runner.run_workload(name, seed=1,
                                      seconds=runner.SMOKE_SECONDS,
                                      trace=True, smoke=True)
            for name in WORKLOADS}
