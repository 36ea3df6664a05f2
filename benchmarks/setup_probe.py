"""Cold set-up of one workload, run in a fresh interpreter.

Reads ``{"scenarios": [...], "landscape": [...]}`` (CLI config dicts) as
JSON from standard input and prints, as JSON, the seconds spent importing
the package the way the ``aoavi`` command does, parsing the configs, and
building the grid-steering cache on its first use.
"""

import json
import sys
import time

t0 = time.perf_counter()
import aoavi.cli  # noqa: E402,F401
from aoavi import harness, preprocess  # noqa: E402

t1 = time.perf_counter()
configs = json.load(sys.stdin)
scenarios = [harness.scenario_from_dict(cfg) for cfg in configs["scenarios"]]
for cfg in configs["landscape"]:
    harness.landscape_config_from_dict(cfg)
grids = [harness.sector_grid(sc.sector, sc.grid_step) for sc in scenarios]
t2 = time.perf_counter()
for sc, grid in zip(scenarios, grids):
    preprocess.grid_steering(sc.array, grid)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "cache_s": t3 - t2}))
