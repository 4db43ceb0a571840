"""Every regflow attribute that the benchmark's tracer wraps exists, and a
traced round counts what bench/run.py divides by or checks.

bench/tracing.py replaces module attributes by name for one traced round.
Renaming or deleting one of them, or calling one a different number of
times, breaks only `bench/run.py --trace 1`, so these tests read the
tracer's table and run a small traced round through it.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from regflow.calibration import generate_synthetic, write_series_csv
from regflow.cli import main
from regflow.dynamics import DEFAULT_PARAMETERS, SystemState

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the "requests" entry names a library regflow no longer calls
REGFLOW_BOUNDARIES = [(module, attr) for module, attr, _ in _tracing().BOUNDARIES if module.startswith("regflow.")]


def test_the_table_names_regflow_attributes():
    assert REGFLOW_BOUNDARIES


@pytest.mark.parametrize("module, attr", REGFLOW_BOUNDARIES, ids=[f"{m}.{a}" for m, a in REGFLOW_BOUNDARIES])
def test_wrapped_attribute_exists(module, attr):
    assert hasattr(importlib.import_module(module), attr), f"bench/tracing.py wraps {module}.{attr}, which is gone"


def test_a_traced_round_counts_what_the_benchmark_divides_by(tmp_path, monkeypatch):
    agents, steps = 6, 3
    tiers = ("limited", "medium", "rich")
    roster = [{"id": f"M{i}", "name": f"Maker {i}", "resource_tier": tiers[i % 3]} for i in range(agents)]
    (tmp_path / "roster.json").write_text(json.dumps(roster))
    (tmp_path / "config.json").write_text(json.dumps({"total_steps": steps, "inner_substeps": 2}))
    obs = generate_synthetic(DEFAULT_PARAMETERS, SystemState(0.0, 0.4, 0.3, 0.2), 1.0, 0.05, 2, 0.0, 0)
    write_series_csv(obs, tmp_path / "obs.csv")

    tracing = _tracing()
    # only the regflow entries: the "requests" one would import a library
    # that is not a dependency
    monkeypatch.setattr(tracing, "BOUNDARIES", tuple(b for b in tracing.BOUNDARIES if b[0].startswith("regflow.")))
    tracer = tracing.Tracer()
    # root spans named as bench/worker.py names them
    tracer.install()
    try:
        codes = [
            tracer.span("cli.simulate", main, [
                "simulate", "--config", str(tmp_path / "config.json"), "--profiles", str(tmp_path / "roster.json"),
                "--out", str(tmp_path / "sim"),
            ]),
            tracer.span("cli.calibrate", main, [
                "calibrate", "--obs", str(tmp_path / "obs.csv"), "--max-iter", "3", "--out", str(tmp_path / "cal"),
            ]),
        ]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]

    summary = tracing.summarize(tracer.spans)
    counts = {name: entry["count"] for name, entry in summary["by_name"].items()}
    assert counts["dynamics.advance"] == agents * steps
    assert counts["simulation.write_json"] == 1
    assert counts["simulation.write_csv"] == 1
    roots = {tracer.spans[i][0]: i for i in summary["roots"]}
    assert tracing.descendants_named(tracer.spans, roots["cli.calibrate"], "dynamics.integrate_raw")
