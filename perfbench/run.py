#!/usr/bin/env python3
"""Benchmark of the mudr CLI: one workload per run, or every workload.

One run (the form a benchmark driver uses):

    python3 perfbench/run.py --workload region_dense --seed 1 --seconds 42 --trace 0

runs the workload's operations in a closed loop, one client, in this
process, for about ``--seconds`` (at least three operations; none is
started that the previous one suggests would end past ``--seconds``),
checks every operation's outputs, and
prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
operations and reports the per-layer metrics from the traced ones.

Every workload, each in its own process, with a table of metrics:

    python3 perfbench/run.py --all --seconds 42 [--repeat 10] [--trace 0|1]

``--repeat N`` runs each workload N times with seeds 1..N and prints each
metric's median and quartiles (the steadiness check the bounds in
``BENCHMARK.json`` are set from).

Run it from a checkout of the repository; it imports ``mudr`` from
``src/`` of that checkout and writes only under ``perfbench/_run/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "_run"
SRC = ROOT / "src"

# Bytecode caches go under _run/ so that no run writes into src/.
sys.pycache_prefix = str(RUN / "pycache")

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

SETUP_PROBES = 7
MIN_OPS = 3


def environment() -> dict:
    """Machine and code the numbers were measured on."""
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own ``.git``, if it has one; never a parent's."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over the package sources, to name the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "mudr").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def setup_probe(args: list[str]) -> dict:
    """Run the setup probe once, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=sys.pycache_prefix)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), *args],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tree_digests(d: Path) -> dict[str, str]:
    return {
        str(p.relative_to(d)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(d.rglob("*"))
        if p.is_file()
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    import workloads as wl

    work = RUN / name
    if work.exists():
        shutil.rmtree(work)
    wl.write_inputs(name, work / "inputs")
    workload = wl.WORKLOADS[name](seed, work / "inputs")
    probe_args = workload.setup_args()
    setup_probe(probe_args)  # warm-up: fills the bytecode cache

    import mudr.cli
    from spans import Tracer, layer_metrics

    refs = wl.References()
    tracer = Tracer() if trace else None
    out = work / "out"
    clock = time.perf_counter
    op_seconds, traced_ops, problems = [], [], []
    untraced_digests: dict[str, str] | None = None

    probes: list[dict] = []
    probe_every = seconds / SETUP_PROBES
    start = clock()
    last = 0.0
    k = 0
    # Stop before an operation that would end past --seconds, judged by the last one.
    while k < MIN_OPS or clock() - start + last <= seconds:
        began = clock()
        # spread the setup probes over the run, so they meet the same machine load
        while len(probes) < min(SETUP_PROBES, 1 + int((began - start) / probe_every)):
            probes.append(setup_probe(probe_args))
        traced = trace and k % 2 == 1
        # in a traced run each input runs twice, untraced then traced
        op = workload.op(k // 2 if trace else k)
        gc.collect()
        if traced:
            with tracer.patched(k):
                result = wl.attempt(mudr.cli.main, workload, op, out, refs, clock)
            traced_ops.append(k)
        else:
            result = wl.attempt(mudr.cli.main, workload, op, out, refs, clock)
        problem = result.problem
        if trace and not traced:
            untraced_digests = tree_digests(out) if problem is None else None
        elif trace and problem is None and untraced_digests is not None:
            # a failed untraced twin is counted once, by itself
            if tree_digests(out) != untraced_digests:
                problem = "traced outputs differ from the untraced run's"
        if problem is not None:
            problems.append({"op": k, "problem": problem})
        op_seconds.append(result.seconds)
        last = clock() - began
        k += 1
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(probe_args))

    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "operations": k,
        "units_per_op": {workload.unit: workload.units_per_op},
        "op_seconds": op_seconds,
        "problems": problems,
        "setup_probes": probes,
    }
    if trace:
        # each traced operation k against its untraced twin k - 1
        overhead_s = [op_seconds[i] - op_seconds[i - 1] for i in traced_ops]
        result["trace_overhead_s"] = overhead_s
        metrics = layer_metrics(
            tracer,
            traced_ops,
            workload.trials_per_experiment,
            overhead_s,
            statistics.median(p["import_s"] for p in probes),
            load_spec()["per_layer"],
        )
        (RUN / "trace").mkdir(parents=True, exist_ok=True)
        tracer.write(RUN / "trace" / f"{name}.npz")
        result["trace_file"] = str((RUN / "trace" / f"{name}.npz").relative_to(ROOT))
    else:
        metrics = {
            "setup_s": {
                "value": statistics.median(p["setup_s"] for p in probes),
                "unit": "s",
            },
            "op_s_p50": {"value": statistics.median(op_seconds), "unit": "s"},
            "units_per_s": {
                "value": workload.units_per_op * k / sum(op_seconds),
                "unit": "units/s",
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    result["metrics"] = metrics
    result["environment"] = environment()
    shutil.rmtree(out, ignore_errors=True)
    (RUN / "results").mkdir(parents=True, exist_ok=True)
    (RUN / "results" / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )
    return {
        "correct": not problems,
        "attempted": k,
        "failed": len(problems),
        "metrics": metrics,
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_bounds() -> dict[str, float]:
    try:
        spec = load_spec()
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def run_all(names: list[str], seconds: float, trace: int, repeat: int) -> int:
    """Each workload ``repeat`` times in its own process; print every metric."""
    bounds = load_bounds()
    summary = {"environment": environment(), "seconds": seconds, "trace": trace, "workloads": {}}
    worst = 0
    for name in names:
        runs = []
        for seed in range(1, repeat + 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True,
                text=True,
                timeout=600,
            )
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                worst = 1
                continue
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        if not runs:
            continue
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        if failed:
            worst = 1
        print(f"\n{name}: {len(runs)} run(s), {attempted} operations, seeds 1..{repeat}")
        print(f"  {'error_rate':36s} {failed / attempted:12.6g} ratio")
        rows = {}
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            rows[metric] = values
            med = statistics.median(values)
            line = f"  {metric:36s} {med:12.6g} {first['unit']}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("nan")
                line += f"   q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}"
                if metric in bounds:
                    line += f"  (bound {bounds[metric]}, aim below {bounds[metric] / 3:.3f})"
            print(line)
        summary["workloads"][name] = {
            "attempted": attempted,
            "failed": failed,
            "metrics": rows,
            "units": {m: v["unit"] for m, v in runs[0]["metrics"].items()},
        }
    (RUN / "results").mkdir(parents=True, exist_ok=True)
    (RUN / "results" / f"summary-trace{trace}.json").write_text(json.dumps(summary, indent=2) + "\n")
    return worst


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload with --all")
    args = parser.parse_args(argv)
    if not (SRC / "mudr" / "cli.py").is_file():
        print(f"error: no mudr package under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(list(WORKLOADS), args.seconds, args.trace, args.repeat)
    if args.workload is None:
        parser.error("give --workload NAME or --all")
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
