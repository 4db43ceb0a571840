"""Every regflow attribute that the benchmark's tracer wraps exists.

bench/tracing.py replaces module attributes by name for one traced round.
Renaming or deleting one of them breaks only `bench/run.py --trace 1`, so
this test reads the tracer's table and looks each name up.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


# the "requests" entry names a library regflow no longer calls
REGFLOW_BOUNDARIES = [(module, attr) for module, attr, _ in _boundaries() if module.startswith("regflow.")]


def test_the_table_names_regflow_attributes():
    assert REGFLOW_BOUNDARIES


@pytest.mark.parametrize("module, attr", REGFLOW_BOUNDARIES, ids=[f"{m}.{a}" for m, a in REGFLOW_BOUNDARIES])
def test_wrapped_attribute_exists(module, attr):
    assert hasattr(importlib.import_module(module), attr), f"bench/tracing.py wraps {module}.{attr}, which is gone"
