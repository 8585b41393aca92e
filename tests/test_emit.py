import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mudr import emit


def test_atomic_write_text_replaces_file(tmp_path):
    path = tmp_path / "out.csv"
    emit.atomic_write_text(path, "a\n")
    emit.atomic_write_text(path, "b\n")
    assert path.read_text() == "b\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_atomic_write_text_failure_leaves_no_temp(tmp_path):
    target = tmp_path / "out"
    target.mkdir()  # renaming a file over a directory fails
    with pytest.raises(OSError):
        emit.atomic_write_text(target, "a\n")
    assert not list(tmp_path.glob("*.tmp"))
    with pytest.raises(UnicodeEncodeError):
        emit.atomic_write_text(tmp_path / "bad.txt", "\udc80")
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_atomic_write_text_ignores_stale_fixed_temp_name(tmp_path):
    # a leftover or concurrent "<name>.tmp" must not block the write
    (tmp_path / "out.csv.tmp").mkdir()
    emit.atomic_write_text(tmp_path / "out.csv", "a\n")
    assert (tmp_path / "out.csv").read_text() == "a\n"


def test_atomic_write_text_umask_mode(tmp_path):
    umask = os.umask(0o027)
    try:
        emit.atomic_write_text(tmp_path / "out.csv", "a\n")
    finally:
        os.umask(umask)
    assert (tmp_path / "out.csv").stat().st_mode & 0o777 == 0o640


def test_render_curves_svg_geometry():
    # both maxima are 2, so each span is 2.1; on the 80..630 by 540..30 plot
    # x maps to 80 + 550 x / 2.1 and y to 540 - 510 y / 2.1
    curves = [("a", [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]), ("b", [0.5, 2.0], [1.5, 0.0])]
    svg = emit.render_curves_svg(curves, x_label="x", y_label="y")
    root = ET.fromstring(svg)
    ns = {"svg": "http://www.w3.org/2000/svg"}
    paths = {p.get("id"): p.get("d") for p in root.iterfind("svg:path", ns)}
    assert paths == {
        "a": "M 80.00,540.00 L 341.90,54.29 L 603.81,297.14",
        "b": "M 210.95,175.71 L 603.81,540.00",
    }
    ticks = [t.text for t in root.iterfind("svg:text", ns) if t.get("font-size") == "12"]
    assert ticks == ["0", "0.525", "1.05", "1.575", "2.1"] * 2
    as_arrays = [(label, np.array(xs), np.array(ys)) for label, xs, ys in curves]
    assert emit.render_curves_svg(as_arrays, x_label="x", y_label="y") == svg


# --- SVG path coordinates ---------------------------------------------------------


def python_path(xs, ys) -> str:
    """The path data as Python's ``.2f`` formats it, point by point."""
    return "M " + " L ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))


def assert_path_is_python_text(values):
    xs = np.array(values, dtype=float)
    ys = xs[::-1].copy()
    assert emit._path_text(xs, ys) == python_path(xs.tolist(), ys.tolist())


@given(st.lists(st.floats(0.0, 1000.0, exclude_max=True), min_size=1, max_size=50))
def test_path_text_equals_python_format_on_plot_range(values):
    assert_path_is_python_text(values)


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=20))
def test_path_text_equals_python_format_on_any_float(values):
    assert_path_is_python_text(values)


# Every exactly representable tie k/100 + 0.005 in [0, 1000) is an odd
# multiple of 1/8: 0.125, 0.375, ..., 999.875.
TIES = [m / 8 for m in range(1, 8000, 2)]


def test_path_text_ties_and_near_ties():
    ties = np.array(TIES)
    assert (ties * 100 % 1 == 0.5).all()  # each is an exact tie
    for v in ties.tolist():
        assert emit._cents(np.array([v])) is None  # a tie takes the fallback
    assert_path_is_python_text(TIES)
    # one ulp either side is no tie: either path prints Python's text
    for toward in (-np.inf, np.inf):
        assert_path_is_python_text(np.nextafter(ties, toward))


@pytest.mark.parametrize(
    "value", [-0.0, -1e-300, -0.004, -1.0, np.nan, np.inf, -np.inf, 999.995, 1000.0, 1e300]
)
def test_path_text_fallback_values(value):
    assert emit._cents(np.array([value])) is None
    # one such value sends the whole curve to the fallback, text unchanged
    assert emit._cents(np.array([1.0, value, 2.0])) is None
    assert_path_is_python_text([1.0, value, 2.0])
    assert_path_is_python_text([value])


def test_path_text_fast_path_cents():
    values = np.array([0.0, 0.004, 0.005001, 1.0, 12.345678, 999.994])
    assert emit._cents(values).tolist() == [0, 0, 1, 100, 1235, 99999]
    assert_path_is_python_text(values)


@given(st.text())
def test_escape_equals_saxutils(text):
    from xml.sax.saxutils import escape

    assert emit.escape(text) == escape(text)
