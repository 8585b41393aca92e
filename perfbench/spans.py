"""Span tracing of mudr's layers from outside the package.

A ``Tracer`` replaces each traced function under every name that mudr's
modules look it up by (``mudr.waterfill.int_plus_noise_variance`` as well
as ``mudr.bounds.int_plus_noise_variance``), records one span per call,
and puts the originals back when the ``patched()`` block ends. Spans are
kept in memory as flat arrays and written once, at the end of a run.

A span is (id, name, parent id, operation id, start, end). Ids are given
out in start order, so a parent's id is always lower than its children's.
Counters sit beside the spans for calls too cheap or too numerous to
record one by one (``fmt_float``, numpy's FFTs and ``default_rng``) and
for bytes written.
"""

from __future__ import annotations

import os
import time
from array import array
from contextlib import contextmanager
from importlib import import_module
from statistics import median

import numpy as np

# Functions recorded as spans, by the mudr module that defines them.
SPANS = {
    "scenario": ("load_scenario", "derive_link_budget", "replace_scenario_field"),
    "bounds": (
        "rate_region",
        "int_plus_noise_variance",
        "crb_delay_variance",
        "estimation_entropy",
        "est_outer_rate",
        "est_outer_rate_log_form",
        "comms_outer_rate",
        "sic_comms_rate",
        "interpolated_inner",
        "ma_pentagon",
    ),
    "waterfill": ("waterfill_point", "waterfill_points", "upper_convex_hull"),
    "emit": ("write_csv", "render_curves_svg", "write_manifest", "atomic_write_text"),
    "mcsim": (
        "crb_experiment",
        "residual_experiment",
        "gamma_experiment",
        "matched_filter_delay",
        "measured_gamma_sq",
    ),
    "cli": ("main",),
}

# The bounds functions that are closed forms; their outermost spans make up
# bounds.closed_forms.busy_s.
CLOSED_FORMS = frozenset(
    f"bounds.{name}" for name in SPANS["bounds"] if name != "rate_region"
)

EXPERIMENTS = ("crb", "residual", "gamma")

# Counted, not spanned: (counter name, module path, attribute).
COUNTED = (
    ("emit.fmt_float", "mudr.emit", "fmt_float"),
    ("numpy.fft.fft", "numpy.fft", "fft"),
    ("numpy.fft.ifft", "numpy.fft", "ifft"),
    ("numpy.random.default_rng", "numpy.random", "default_rng"),
)

BYTES = "emit.bytes_written"

def _mudr_modules() -> list:
    return [import_module(p) for p in ("mudr", *(f"mudr.{layer}" for layer in SPANS))]


class Tracer:
    """Records spans and counters for the operations run inside ``patched()``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ints = array("i")  # id, name, parent, op per span
        self._times = array("d")  # start, end per span
        self._stack: list[int] = []
        self._next_id = 0
        self.op = -1
        self.counters: dict[str, int] = {}
        # op -> counter totals during that op
        self.op_counters: dict[int, dict[str, int]] = {}
        # span id -> counter deltas, for the experiment spans
        self.span_counters: dict[int, dict[str, int]] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span(self, name: str, fn, snapshot: bool = False, after=None):
        nid = self._name_id(name)
        stack, ints, times = self._stack, self._ints, self._times
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            before = dict(tracer.counters) if snapshot else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ints.extend((sid, nid, parent, tracer.op))
                times.extend((t0, t1))
                if before is not None:
                    tracer.span_counters[sid] = {
                        k: v - before.get(k, 0) for k, v in tracer.counters.items()
                    }
            if after is not None:
                after(args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, fn):
        counters = self.counters
        counters.setdefault(name, 0)

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _add_bytes(self, args, kwargs) -> None:
        path = args[0] if args else kwargs["path"]
        self.counters[BYTES] = self.counters.get(BYTES, 0) + os.stat(path).st_size

    def _replace_everywhere(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _mudr_modules()
        for layer, names in SPANS.items():
            mod = import_module(f"mudr.{layer}")
            for name in names:
                original = getattr(mod, name, None)
                if original is None:  # a later version may drop a function
                    continue
                full = f"{layer}.{name}"
                wrapper = self._span(
                    full,
                    original,
                    snapshot=full.endswith("_experiment"),
                    after=self._add_bytes if full == "emit.atomic_write_text" else None,
                )
                self._replace_everywhere(modules, original, wrapper)
        for counter, path, attr in COUNTED:
            mod = import_module(path)
            original = getattr(mod, attr, None)
            if original is None:
                continue
            targets = modules if path.startswith("mudr") else [mod]
            self._replace_everywhere(targets, original, self._count(counter, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    @contextmanager
    def patched(self, op: int):
        """Trace the calls made inside the block as operation ``op``."""
        self.op = op
        start = dict(self.counters)
        self.install()
        try:
            yield self
        finally:
            self.restore()
            self.op_counters[op] = {
                k: v - start.get(k, 0) for k, v in self.counters.items()
            }
            self.op = -1

    def spans(self) -> dict[str, np.ndarray]:
        """Span columns ordered by span id."""
        ints = np.frombuffer(self._ints, dtype=np.int32).reshape(-1, 4)
        times = np.frombuffer(self._times, dtype=np.float64).reshape(-1, 2)
        order = np.argsort(ints[:, 0], kind="stable")
        ints, times = ints[order], times[order]
        return {
            "id": ints[:, 0],
            "name": ints[:, 1],
            "parent": ints[:, 2],
            "op": ints[:, 3],
            "start": times[:, 0],
            "end": times[:, 1],
        }

    def write(self, path) -> None:
        """Write spans, name table and counters as one ``.npz`` file."""
        cols = self.spans()
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            counter_ops=np.array(sorted(self.op_counters), dtype=np.int64),
            counter_names=np.array(sorted(self.counters), dtype=str),
            counter_values=np.array(
                [
                    [self.op_counters[op].get(c, 0) for c in sorted(self.counters)]
                    for op in sorted(self.op_counters)
                ],
                dtype=np.int64,
            ).reshape(len(self.op_counters), len(self.counters)),
            **cols,
        )


def span_times(cols: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Busy and self seconds of every span.

    Self time is the span's duration minus the durations of its direct
    children. One thread runs them one after another inside the parent, so
    the children never overlap and self time never exceeds busy time.
    """
    busy = cols["end"] - cols["start"]
    parent = cols["parent"]
    has_parent = parent >= 0
    children = np.bincount(
        parent[has_parent], weights=busy[has_parent], minlength=len(busy)
    )
    return busy, busy - children


def per_op_layer_values(
    tracer: Tracer, cols: dict[str, np.ndarray], op: int, trials: int
) -> dict[str, float]:
    """Per-layer metric values for one traced operation."""
    busy, self_s = span_times(cols)
    n_names = len(tracer.names)
    ids = {name: i for i, name in enumerate(tracer.names)}
    in_op = cols["op"] == op
    names = cols["name"][in_op]
    busy_by = np.bincount(names, weights=busy[in_op], minlength=n_names)
    self_by = np.bincount(names, weights=self_s[in_op], minlength=n_names)
    calls_by = np.bincount(names, minlength=n_names)

    values: dict[str, float] = {}
    for layer, fns in SPANS.items():
        for fn in fns:
            full = f"{layer}.{fn}"
            i = ids.get(full)
            values[f"{full}.busy_s"] = float(busy_by[i]) if i is not None else 0.0
            values[f"{full}.self_s"] = float(self_by[i]) if i is not None else 0.0
            values[f"{full}.calls"] = float(calls_by[i]) if i is not None else 0.0

    is_cf_name = np.array([name in CLOSED_FORMS for name in tracer.names], dtype=bool)
    is_cf = is_cf_name[cols["name"]] if n_names else np.zeros(0, dtype=bool)
    parent = cols["parent"]
    parent_cf = np.zeros_like(is_cf)
    parent_cf[parent >= 0] = is_cf[parent[parent >= 0]]
    values["bounds.closed_forms.busy_s"] = float(busy[in_op & is_cf & ~parent_cf].sum())

    counts = tracer.op_counters.get(op, {})
    values["emit.fmt_float.calls"] = float(counts.get("emit.fmt_float", 0))
    values[BYTES] = float(counts.get(BYTES, 0))
    values["mcsim.rng_streams"] = float(counts.get("numpy.random.default_rng", 0))

    for exp in EXPERIMENTS:
        i = ids.get(f"mcsim.{exp}_experiment")
        sids = cols["id"][in_op & (cols["name"] == i)] if i is not None else []
        ffts = sum(
            tracer.span_counters.get(int(sid), {}).get(k, 0)
            for sid in sids
            for k in ("numpy.fft.fft", "numpy.fft.ifft")
        )
        ran = len(sids) > 0 and trials > 0
        values[f"mcsim.{exp}.us_per_trial"] = (
            values[f"mcsim.{exp}_experiment.busy_s"] / trials * 1e6 if ran else 0.0
        )
        values[f"mcsim.fft_calls_per_trial.{exp}"] = ffts / trials if ran else 0.0
    return values


def layer_metrics(
    tracer: Tracer,
    traced_ops: list[int],
    trials_per_experiment: int,
    overhead_s: list[float],
    import_s: float,
    per_layer: list[dict],
) -> dict[str, dict]:
    """The ``per_layer`` metrics: each the median over the traced operations.

    ``overhead_s`` holds, per traced operation, its seconds minus those of
    its untraced twin run just before it, so drift between pairs cancels.
    """
    cols = tracer.spans()
    per_op = [
        per_op_layer_values(tracer, cols, op, trials_per_experiment)
        for op in traced_ops
    ]
    values = {"cli.import_s": import_s, "trace.overhead_s": median(overhead_s)}
    out = {}
    for metric in per_layer:
        name = metric["name"]
        value = values[name] if name in values else median(v[name] for v in per_op)
        out[name] = {"value": value, "unit": metric["unit"]}
    return out
