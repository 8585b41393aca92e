#!/usr/bin/env python3
"""Regenerate the reference outputs in ``perfbench/reference/``.

Runs every input the workloads can draw (the region, one sweep over the
whole value pool, one validate triple per pool seed) through the CLI and
stores the checked values: the numeric columns of each region CSV, the
sweep summary, and ``empirical``/``analytic``/``pass`` of each report.
Run it only at a commit whose outputs are known good; every benchmark
operation is compared against what it stores.

Usage: python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "_run"
sys.pycache_prefix = str(RUN / "pycache")
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from mudr import cli  # noqa: E402

WORK = RUN / "make_reference"


def run(op: wl.Op) -> Path:
    out = WORK / "out"
    result = wl.run_op(cli.main, op, out, time.perf_counter)
    if result.problem:
        raise SystemExit(f"reference run failed: {result.problem}")
    for _, sub in op.invocations:
        problem = wl.check_manifest(out / sub)
        if problem:
            raise SystemExit(problem)
    return out


def make_region() -> None:
    out = run(wl.RegionDense(0, WORK / "inputs").op(0))
    wl.save_tables(wl.REFERENCE / "region_dense.npz", [wl.read_region_csv(out / "region" / "region.csv")])


def make_sweep() -> None:
    workload = wl.SweepSmall(0, WORK / "inputs")
    workload.pool_idx = list(range(len(wl.SWEEP_POOL)))
    out = run(workload.op(0)) / "sweep"
    tables = [wl.read_region_csv(out / f"sweep_{i:03d}_region.csv") for i in workload.pool_idx]
    summary = wl.read_summary_csv(out / "sweep_summary.csv")
    assert np.array_equal(summary[:, 0], np.array(wl.SWEEP_POOL))
    wl.save_tables(wl.REFERENCE / "sweep_pool.npz", tables, summary=summary)


def make_mc() -> None:
    workload = wl.McValidate(0, WORK / "inputs")
    refs = {}
    for seed in wl.MC_SEED_POOL:
        workload._seeds = [seed]
        out = run(workload.op(0))
        refs[str(seed)] = {}
        for experiment, _ in wl.MC_RUNS:
            report = json.loads((out / experiment / f"validate_{experiment}.json").read_text())
            refs[str(seed)][experiment] = {k: report[k] for k in ("empirical", "analytic", "pass")}
        print(f"seed {seed}: {refs[str(seed)]}", flush=True)
    (wl.REFERENCE / "mc_pool.json").write_text(json.dumps(refs, indent=1) + "\n")


def main() -> None:
    if WORK.exists():
        shutil.rmtree(WORK)
    wl.write_inputs("mc_validate", WORK / "inputs")
    wl.REFERENCE.mkdir(exist_ok=True)
    make_region()
    make_sweep()
    make_mc()
    shutil.rmtree(WORK)


if __name__ == "__main__":
    main()
