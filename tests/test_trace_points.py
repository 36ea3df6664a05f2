"""Every span the benchmark traces is reached by one block and one export
set. A trace point that is never called leaves its per-layer mean NaN,
which a traced benchmark run reports as a failed check."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import aoavi.harness as H  # noqa: E402
import workloads as W  # noqa: E402
from spans import TRACE_POINTS, Tracer  # noqa: E402


def test_every_trace_point_is_reached(tmp_path):
    sc = H.scenario_from_dict(dict(W.WORKLOADS["sweep_k1"].scenario_configs(301)[0], n_trials=1))
    grid = H.sector_grid(sc.sector, sc.grid_step)
    tracer = Tracer()
    tracer.request = 0
    with tracer.patched():
        W.run_block(sc, grid, 0, 0, 0)
    W.LandscapeRun(tmp_path, tracer).export_set()
    reached = {tracer.names[i] for i in np.unique(tracer.table()["name"])}
    assert reached == {span for _module, _attr, span in TRACE_POINTS}
