"""The benchmark's workloads: inputs from a seed, operations, output checks.

An operation is a list of ``mudr`` CLI invocations run in-process through
``mudr.cli.main``. Every operation writes into a fresh directory, and its
outputs are checked against reference values stored in ``reference/``,
which ``make_reference.py`` generated from the program once. Inputs a
seed can vary are drawn from fixed pools, so a reference exists for
every input a seed can produce.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUNDLED = ROOT / "src" / "mudr" / "data" / "table2.json"
REFERENCE = HERE / "reference"

RTOL = 1e-9

REGION_ALPHA_POINTS = 100_000
SWEEP_FIELD = "radar_power_w"
SWEEP_VALUES_PER_OP = 16
SWEEP_ALPHA_POINTS = 400  # the CLI default, passed explicitly
# Sweep values come from this log-spaced grid over 10 W .. 100 kW.
SWEEP_POOL = tuple(10.0 ** (1.0 + 4.0 * i / 63.0) for i in range(64))
MC_TRIALS = 10_000
# Per-operation Monte Carlo seeds come from this pool.
MC_SEED_POOL = tuple(range(32))
# (experiment, scenario file) for one validate triple, as run_validations.py runs it.
MC_RUNS = (("crb", "hot.json"), ("residual", "small.json"), ("gamma", "table2.json"))

CURVE_LABELS = ("outer", "sic", "interpolated", "waterfill", "hull")


@dataclass
class Op:
    """One operation: CLI argument lists, each run into its own output dir."""

    key: object  # what the reference lookup needs
    invocations: list[tuple[list[str], str]]


@dataclass
class OpResult:
    seconds: float
    codes: list[int]
    problem: str | None


def write_inputs(name: str, inputs: Path) -> None:
    """Scenario files a workload's operations read."""
    inputs.mkdir(parents=True, exist_ok=True)
    base = json.loads(BUNDLED.read_text())
    (inputs / "table2.json").write_text(json.dumps(base, indent=2) + "\n")
    if name == "mc_validate":
        hot = dict(base, radar={**base["radar"], "power_w": base["radar"]["power_w"] * 140})
        small = dict(base, targets=[dict(base["targets"][0], process_range_std_m=1.5)])
        (inputs / "hot.json").write_text(json.dumps(hot, indent=2) + "\n")
        (inputs / "small.json").write_text(json.dumps(small, indent=2) + "\n")


class Workload:
    """Base: ``op(k)`` gives operation ``k``'s inputs, drawn from the seed."""

    name = ""
    unit = ""
    units_per_op = 0
    trials_per_experiment = 0

    def __init__(self, seed: int, inputs: Path) -> None:
        self.seed = seed
        self.inputs = inputs
        self.rng = random.Random(f"{self.name}:{seed}")

    def op(self, k: int) -> Op:
        raise NotImplementedError

    def setup_args(self) -> list[str]:
        """Arguments for ``setup_probe.py``: the scenarios this workload derives."""
        raise NotImplementedError

    def check(self, op: Op, out: Path, refs: "References") -> str | None:
        raise NotImplementedError


class RegionDense(Workload):
    name = "region_dense"
    unit = "alpha_points"
    units_per_op = REGION_ALPHA_POINTS

    def op(self, k: int) -> Op:
        argv = [
            "region",
            "--scenario", str(self.inputs / "table2.json"),
            "--alpha-points", str(REGION_ALPHA_POINTS),
        ]
        return Op(key=None, invocations=[(argv, "region")])

    def setup_args(self) -> list[str]:
        return [str(self.inputs / "table2.json")]

    def check(self, op, out, refs):
        d = out / "region"
        return check_manifest(d) or compare_region(
            read_region_csv(d / "region.csv"), refs.region(), "region.csv"
        )


class SweepSmall(Workload):
    name = "sweep_small"
    unit = "alpha_points"
    units_per_op = SWEEP_VALUES_PER_OP * SWEEP_ALPHA_POINTS

    def __init__(self, seed, inputs):
        super().__init__(seed, inputs)
        # one log-uniform draw of 16 distinct values, shared by every operation
        self.pool_idx = self.rng.sample(range(len(SWEEP_POOL)), SWEEP_VALUES_PER_OP)

    def values(self) -> str:
        return ",".join(repr(SWEEP_POOL[i]) for i in self.pool_idx)

    def op(self, k):
        argv = [
            "sweep",
            "--scenario", str(self.inputs / "table2.json"),
            "--vary", SWEEP_FIELD,
            "--values", self.values(),
            "--alpha-points", str(SWEEP_ALPHA_POINTS),
        ]
        return Op(key=tuple(self.pool_idx), invocations=[(argv, "sweep")])

    def setup_args(self):
        return [f"{self.inputs / 'table2.json'}@{SWEEP_FIELD}={self.values()}"]

    def check(self, op, out, refs):
        d = out / "sweep"
        problem = check_manifest(d)
        if problem:
            return problem
        for j, i in enumerate(op.key):
            name = f"sweep_{j:03d}_region.csv"
            problem = compare_region(read_region_csv(d / name), refs.sweep(i), name)
            if problem:
                return problem
        summary = read_summary_csv(d / "sweep_summary.csv")
        want = refs.sweep_summary(op.key)
        if summary.shape != want.shape or not np.allclose(
            summary, want, rtol=RTOL, atol=0.0, equal_nan=True
        ):
            return "sweep_summary.csv differs from the reference"
        return None


class McValidate(Workload):
    name = "mc_validate"
    unit = "trials"
    units_per_op = MC_TRIALS * len(MC_RUNS)
    trials_per_experiment = MC_TRIALS

    def __init__(self, seed, inputs):
        super().__init__(seed, inputs)
        self._seeds: list[int] = []

    def op_seed(self, k: int) -> int:
        while len(self._seeds) <= k:
            self._seeds.append(self.rng.choice(MC_SEED_POOL))
        return self._seeds[k]

    def op(self, k):
        seed = self.op_seed(k)
        invocations = [
            (
                [
                    "validate",
                    "--scenario", str(self.inputs / scenario),
                    "--experiment", experiment,
                    "--trials", str(MC_TRIALS),
                    "--seed", str(seed),
                ],
                experiment,
            )
            for experiment, scenario in MC_RUNS
        ]
        return Op(key=seed, invocations=invocations)

    def setup_args(self):
        return [str(self.inputs / scenario) for _, scenario in MC_RUNS]

    def check(self, op, out, refs):
        want = refs.mc(op.key)
        for experiment, _ in MC_RUNS:
            d = out / experiment
            problem = check_manifest(d)
            if problem:
                return problem
            got = json.loads((d / f"validate_{experiment}.json").read_text())
            ref = want[experiment]
            for key in ("empirical", "analytic"):
                if not _close(got.get(key), ref[key]):
                    return f"{experiment} {key} {got.get(key)!r} != reference {ref[key]!r}"
            if got.get("pass") is not ref["pass"]:
                return f"{experiment} pass {got.get('pass')!r} != reference {ref['pass']!r}"
        return None


WORKLOADS = {w.name: w for w in (RegionDense, SweepSmall, McValidate)}


def _close(got, want: float) -> bool:
    return (
        isinstance(got, (int, float))
        and not isinstance(got, bool)
        and abs(got - want) <= RTOL * abs(want)
    )


def run_op(main, op: Op, out: Path, clock) -> OpResult:
    """Run one operation into a fresh ``out``; time only the CLI calls.

    A non-zero exit, or an exception out of ``main``, fails the operation.
    """
    if out.exists():
        shutil.rmtree(out)
    codes = []
    sink = io.StringIO()
    seconds = 0.0
    for argv, sub in op.invocations:
        args = argv + ["--out", str(out / sub)]
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = clock()
            try:
                code = main(args)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash is a failed operation, not a harness stop
                print(f"{type(exc).__name__}: {exc}")
                code = -1
            seconds += clock() - t0
        codes.append(code)
    problem = None
    if any(c != 0 for c in codes):
        tail = sink.getvalue().strip().splitlines()[-1:] or [""]
        problem = f"exit codes {codes}: {tail[0]}"
    return OpResult(seconds=seconds, codes=codes, problem=problem)


def attempt(main, workload: Workload, op: Op, out: Path, refs: "References", clock) -> OpResult:
    """Run an operation and check its outputs; ``problem`` is set if it failed."""
    result = run_op(main, op, out, clock)
    if result.problem is None:
        try:
            result.problem = workload.check(op, out, refs)
        except (OSError, ValueError, KeyError) as exc:
            result.problem = f"outputs unreadable: {type(exc).__name__}: {exc}"
    return result


def check_manifest(d: Path) -> str | None:
    """The manifest must list every file the invocation wrote, and only those."""
    try:
        manifest = json.loads((d / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return f"{d.name}: no readable manifest ({exc})"
    listed = manifest.get("outputs")
    present = sorted(p.name for p in d.iterdir())
    if not isinstance(listed, list) or sorted(listed) != present:
        return f"{d.name}: manifest lists {listed}, directory holds {present}"
    return None


@dataclass
class RegionTable:
    labels: np.ndarray  # index into CURVE_LABELS
    alpha: np.ndarray
    r_est: np.ndarray
    r_com: np.ndarray
    consistent: np.ndarray


TABLE_COLUMNS = ("labels", "alpha", "r_est", "r_com", "consistent")


def read_region_csv(path: Path) -> RegionTable:
    """Parse a region CSV line by line into compact arrays."""
    labels, consistent = array("b"), array("b")
    alpha, r_est, r_com = array("d"), array("d"), array("d")
    code = {label: i for i, label in enumerate(CURVE_LABELS)}
    with open(path) as f:
        header = f.readline().rstrip("\n")
        if header != "curve_label,alpha_or_nan,r_est_bps,r_com_bps,self_consistent":
            raise ValueError(f"unexpected header {header!r}")
        for line in f:
            label, a, e, c, ok = line.rstrip("\n").split(",")
            labels.append(code.get(label, -1))
            alpha.append(float(a))
            r_est.append(float(e))
            r_com.append(float(c))
            consistent.append(ok == "true")
    return RegionTable(
        labels=np.frombuffer(labels, dtype=np.int8),
        alpha=np.frombuffer(alpha),
        r_est=np.frombuffer(r_est),
        r_com=np.frombuffer(r_com),
        consistent=np.frombuffer(consistent, dtype=np.int8).astype(bool),
    )


def read_summary_csv(path: Path) -> np.ndarray:
    with open(path) as f:
        f.readline()
        return np.array([[float(x) for x in line.split(",")] for line in f])


def compare_region(got: RegionTable, want: RegionTable, what: str) -> str | None:
    if len(got.labels) != len(want.labels):
        return f"{what}: {len(got.labels)} rows, reference has {len(want.labels)}"
    if not np.array_equal(got.labels, want.labels):
        return f"{what}: curve labels differ from the reference"
    if not np.array_equal(got.consistent, want.consistent):
        return f"{what}: self_consistent flags differ from the reference"
    for column in ("alpha", "r_est", "r_com"):
        g, w = getattr(got, column), getattr(want, column)
        if not np.allclose(g, w, rtol=RTOL, atol=0.0, equal_nan=True):
            bad = int(np.argmax(~np.isclose(g, w, rtol=RTOL, atol=0.0, equal_nan=True)))
            return f"{what}: {column} row {bad} is {g[bad]!r}, reference {w[bad]!r}"
    return None


def save_tables(path: Path, tables: list[RegionTable], **extra) -> None:
    """Store region tables end to end, with row offsets."""
    offsets = np.cumsum([0] + [len(t.labels) for t in tables])
    cols = {k: np.concatenate([vars(t)[k] for t in tables]) for k in TABLE_COLUMNS}
    np.savez_compressed(path, offsets=offsets, **cols, **extra)


class References:
    """Reference outputs, loaded lazily from ``reference/``."""

    def __init__(self) -> None:
        self._cache: dict[str, object] = {}

    def _npz(self, name: str):
        if name not in self._cache:
            with np.load(REFERENCE / name) as z:
                self._cache[name] = {k: z[k] for k in z.files}
        return self._cache[name]

    @staticmethod
    def _table(z, i: int) -> RegionTable:
        lo, hi = z["offsets"][i], z["offsets"][i + 1]
        return RegionTable(**{k: z[k][lo:hi] for k in TABLE_COLUMNS})

    def region(self) -> RegionTable:
        return self._table(self._npz("region_dense.npz"), 0)

    def sweep(self, pool_index: int) -> RegionTable:
        return self._table(self._npz("sweep_pool.npz"), pool_index)

    def sweep_summary(self, pool_indices) -> np.ndarray:
        return self._npz("sweep_pool.npz")["summary"][list(pool_indices)]

    def mc(self, seed: int) -> dict:
        if "mc" not in self._cache:
            self._cache["mc"] = json.loads((REFERENCE / "mc_pool.json").read_text())
        return self._cache["mc"][str(seed)]
