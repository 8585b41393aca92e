"""The benchmark's tracer, ``perfbench/spans.py``, wraps mudr's functions
by their module attribute names, and a name that no longer resolves is
skipped without a word: its per-layer metrics then read 0. These tests
load the tracer's name tables by path and check that every name still
resolves, so a rename or a move in ``mudr`` fails here instead."""

import importlib.util
from importlib import import_module
from pathlib import Path

import mudr.bounds
import mudr.waterfill

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

#: The traced names of functions that were removed or merged before this
#: check existed; their metrics read 0 until the benchmark maps them to
#: today's code (ROADMAP, "Zero and stale metrics").
STALE = {
    "bounds.estimation_entropy",
    "bounds.est_outer_rate_log_form",
    "bounds.interpolated_inner",
    "waterfill.waterfill_point",
    "waterfill.waterfill_points",
    "emit.write_csv",
    "mcsim.matched_filter_delay",
    "mcsim.measured_gamma_sq",
}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_resolves_but_the_known_stale():
    spans = load_spans()
    unresolved = {
        f"{layer}.{name}"
        for layer, names in spans.SPANS.items()
        for name in names
        if not callable(getattr(import_module(f"mudr.{layer}"), name, None))
    }
    assert unresolved <= STALE, sorted(unresolved - STALE)


def test_every_counted_name_resolves():
    spans = load_spans()
    assert ("emit.fmt_float", "mudr.emit", "fmt_float") in spans.COUNTED
    for counter, module, attr in spans.COUNTED:
        assert callable(getattr(import_module(module), attr, None)), counter


def test_waterfill_looks_up_the_bounds_residual():
    # the tracer puts one wrapper under every name that holds a function,
    # and the benchmark's harness reads waterfill's name as the bounds one
    assert mudr.waterfill.int_plus_noise_variance is mudr.bounds.int_plus_noise_variance
