"""Time what every mudr CLI call pays before its real work, in a fresh interpreter.

Usage: python3 setup_probe.py SCENARIO[@FIELD=V1,V2,...] ...

Imports ``mudr.cli``, then loads each scenario and derives its link
budget; with ``@FIELD=...`` it derives one variant per value, as
``mudr sweep`` does. Prints one JSON line with ``import_s`` and
``setup_s`` (import plus loading and deriving). The caller puts the
package on ``PYTHONPATH``.
"""

import sys
import time

t0 = time.perf_counter()
import mudr.cli  # noqa: E402
from mudr.scenario import derive_link_budget, load_scenario, replace_scenario_field  # noqa: E402

t1 = time.perf_counter()
for arg in sys.argv[1:]:
    path, _, sweep = arg.partition("@")
    scenario = load_scenario(path)
    if sweep:
        field, _, values = sweep.partition("=")
        for value in values.split(","):
            derive_link_budget(replace_scenario_field(scenario, field, float(value)))
    else:
        derive_link_budget(scenario)
t2 = time.perf_counter()

import json  # noqa: E402

print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))
