"""Tests of the benchmark harness itself.

Run with ``python3 -m pytest perfbench/test_harness.py``; the repository's
own test run collects only ``tests/``. Each test runs small operations
into ``perfbench/_run/tests/``.
"""

from __future__ import annotations

import shutil
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from mudr import bounds, cli, waterfill  # noqa: E402


@pytest.fixture
def scratch(request):
    d = HERE / "_run" / "tests" / request.node.name
    if d.exists():
        shutil.rmtree(d)
    d.mkdir(parents=True)
    yield d
    shutil.rmtree(d)


@pytest.fixture
def work(scratch):
    wl.write_inputs("mc_validate", scratch / "inputs")
    return scratch


def small_sweep(work: Path, pool_idx=(0, 40)) -> tuple[wl.Workload, wl.Op]:
    workload = wl.SweepSmall(1, work / "inputs")
    workload.pool_idx = list(pool_idx)
    return workload, workload.op(0)


def source_files() -> dict[Path, bytes]:
    src = HERE.parent / "src"
    return {
        p: p.read_bytes()
        for p in src.rglob("*")
        if p.is_file() and "__pycache__" not in p.parts
    }


def test_reference_outputs_pass(work):
    workload, op = small_sweep(work)
    result = wl.attempt(cli.main, workload, op, work / "out", wl.References(), time.perf_counter)
    assert result.problem is None
    assert result.codes == [0]


def test_csv_perturbed_by_1e6_relative_fails(work):
    workload, op = small_sweep(work)

    def perturbing_main(argv):
        code = cli.main(argv)
        path = Path(argv[argv.index("--out") + 1]) / "sweep_001_region.csv"
        lines = path.read_text().splitlines()
        cells = lines[10].split(",")
        cells[3] = repr(float(cells[3]) * (1.0 + 1e-6))
        lines[10] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        return code

    result = wl.attempt(
        perturbing_main, workload, op, work / "out", wl.References(), time.perf_counter
    )
    assert result.problem is not None and "r_com" in result.problem


def test_nonzero_exit_fails(work):
    workload, op = small_sweep(work)
    for main in (lambda argv: 1, lambda argv: cli.main(argv[:2] + ["missing.json"] + argv[3:])):
        result = wl.attempt(main, workload, op, work / "out", wl.References(), time.perf_counter)
        assert result.problem is not None and "exit codes" in result.problem


def test_missing_manifest_entry_fails(work):
    workload, op = small_sweep(work)

    def extra_file_main(argv):
        code = cli.main(argv)
        (Path(argv[argv.index("--out") + 1]) / "stray.txt").write_text("x")
        return code

    result = wl.attempt(
        extra_file_main, workload, op, work / "out", wl.References(), time.perf_counter
    )
    assert result.problem is not None and "manifest" in result.problem


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_inputs(scratch, name):
    def inputs(seed, d):
        wl.write_inputs(name, d)
        workload = wl.WORKLOADS[name](seed, d)
        files = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
        argvs = [
            [a.replace(str(d), "<in>") for argv, _ in workload.op(k).invocations for a in argv]
            for k in range(6)
        ]
        setup = [a.replace(str(d), "<in>") for a in workload.setup_args()]
        return files, argvs, setup

    assert inputs(7, scratch / "a") == inputs(7, scratch / "b")
    if name != "region_dense":  # the dense region has no seeded input
        assert inputs(7, scratch / "c")[1] != inputs(8, scratch / "d")[1]


def test_self_time_never_exceeds_busy_time(work):
    workload, op = small_sweep(work)
    tracer = spans.Tracer()
    with tracer.patched(0):
        wl.run_op(cli.main, op, work / "out", time.perf_counter)
    cols = tracer.spans()
    busy, self_s = spans.span_times(cols)
    assert len(busy) > 1000
    assert np.all(self_s <= busy)
    assert np.all(self_s >= -1e-9)
    assert np.all(cols["parent"] < cols["id"])


def test_wrappers_restored_and_outputs_identical(work):
    originals = {
        (mod.__name__, attr): value
        for mod in spans._mudr_modules()
        for attr, value in vars(mod).items()
        if callable(value)
    }
    workload, op = small_sweep(work)
    before = source_files()

    wl.run_op(cli.main, op, work / "plain", time.perf_counter)
    tracer = spans.Tracer()
    with tracer.patched(0):
        wrapped = waterfill.int_plus_noise_variance
        assert wrapped.__wrapped__ is originals[("mudr.waterfill", "int_plus_noise_variance")]
        assert bounds.int_plus_noise_variance is wrapped
        wl.run_op(cli.main, op, work / "traced", time.perf_counter)

    after = {
        (mod.__name__, attr): value
        for mod in spans._mudr_modules()
        for attr, value in vars(mod).items()
        if callable(value)
    }
    assert after == originals
    plain = {p.relative_to(work / "plain"): p.read_bytes() for p in (work / "plain").rglob("*") if p.is_file()}
    traced = {p.relative_to(work / "traced"): p.read_bytes() for p in (work / "traced").rglob("*") if p.is_file()}
    assert plain == traced and len(plain) == 6
    assert source_files() == before


def test_rng_streams_equal_trials(work):
    workload = wl.McValidate(1, work / "inputs")
    op = workload.op(0)
    for argv, _ in op.invocations:
        argv[argv.index("--trials") + 1] = "20"
    tracer = spans.Tracer()
    with tracer.patched(0):
        result = wl.run_op(cli.main, op, work / "out", time.perf_counter)
    assert result.problem is None
    values = spans.per_op_layer_values(tracer, tracer.spans(), 0, trials=20)
    assert values["mcsim.rng_streams"] == 60
    assert values["mcsim.matched_filter_delay.calls"] == 20

