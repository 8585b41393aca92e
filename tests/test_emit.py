import math
import os
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mudr import emit


def test_atomic_write_text_replaces_file(tmp_path):
    path = tmp_path / "out.csv"
    emit.atomic_write_text(path, b"a\n")
    assert path.read_bytes() == b"a\n"
    # byte blocks of any bytes-like type are written in order
    emit.atomic_write_text(path, [b"b", memoryview(b",c"), np.frombuffer(b"\n", np.uint8)])
    assert path.read_bytes() == b"b,c\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_atomic_write_text_failure_leaves_no_temp(tmp_path):
    target = tmp_path / "out"
    target.mkdir()  # renaming a file over a directory fails
    with pytest.raises(OSError):
        emit.atomic_write_text(target, b"a\n")
    assert not list(tmp_path.glob("*.tmp"))
    # a block that raises mid-write: no temp file, and the old file as it was
    old = tmp_path / "old.csv"
    old.write_bytes(b"old\n")

    def blocks():
        yield b"new,"
        raise RuntimeError("block failed")

    with pytest.raises(RuntimeError, match="block failed"):
        emit.atomic_write_text(old, blocks())
    assert old.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.csv", "out"]


def test_atomic_write_text_ignores_stale_fixed_temp_name(tmp_path):
    # a leftover or concurrent "<name>.tmp" must not block the write
    (tmp_path / "out.csv.tmp").mkdir()
    emit.atomic_write_text(tmp_path / "out.csv", [b"a", b"\n"])
    assert (tmp_path / "out.csv").read_bytes() == b"a\n"


def test_atomic_write_text_umask_mode(tmp_path):
    umask = os.umask(0o027)
    try:
        emit.atomic_write_text(tmp_path / "out.csv", b"a\n")
        emit.atomic_write_text(tmp_path / "blocks.csv", [b"a", b"\n"])
    finally:
        os.umask(umask)
    for name in ("out.csv", "blocks.csv"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o640


def test_render_curves_svg_geometry():
    # both maxima are 2, so each span is 2.1; on the 80..630 by 540..30 plot
    # x maps to 80 + 550 x / 2.1 and y to 540 - 510 y / 2.1
    table = (np.array([0.0, 1.0, 2.0, 0.5, 2.0]), np.array([0.0, 2.0, 1.0, 1.5, 0.0]))
    curves = [("a", np.array([0, 1, 2])), ("b", np.array([3, 4]))]
    [svg] = emit.render_svgs([(curves, "x", "y", table)])
    root = ET.fromstring(svg)
    ns = {"svg": "http://www.w3.org/2000/svg"}
    paths = {p.get("id"): p.get("d") for p in root.iterfind("svg:path", ns)}
    assert paths == {
        "a": "M 80.00,540.00 L 341.90,54.29 L 603.81,297.14",
        "b": "M 210.95,175.71 L 603.81,540.00",
    }
    ticks = [t.text for t in root.iterfind("svg:text", ns) if t.get("font-size") == "12"]
    assert ticks == ["0", "0.525", "1.05", "1.575", "2.1"] * 2
    # the same curves from a reordered table that also holds a point on no
    # curve: that point moves no axis
    table = (np.array([9.0, 2.0, 0.5, 0.0, 1.0, 2.0]), np.array([9.0, 0.0, 1.5, 0.0, 2.0, 1.0]))
    curves = [("a", np.array([3, 4, 5])), ("b", np.array([2, 1]))]
    assert list(emit.render_svgs([(curves, "x", "y", table)])) == [svg]


# --- SVG path coordinates ---------------------------------------------------------


def python_path(xs, ys) -> bytes:
    """The path data as Python's ``.2f`` formats it, point by point."""
    return ("M " + " L ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))).encode()


def assert_paths_are_python_text(xs, ys, indices):
    """Each path of the point table (xs, ys) equals the oracle that formats
    its own points."""
    xs, ys = np.array(xs, dtype=float), np.array(ys, dtype=float)
    indices = [np.array(index, dtype=np.int64) for index in indices]
    paths = emit._paths(emit._path_records(xs, ys), indices)
    for index, path in zip(indices, paths, strict=True):
        assert path == python_path(xs[index].tolist(), ys[index].tolist())


def assert_path_is_python_text(values):
    # the whole table, its reverse and every other point: paths that share points
    n = len(values)
    xs = np.array(values, dtype=float)
    ys = xs[::-1].copy()
    assert_paths_are_python_text(xs, ys, [range(n), range(n - 1, -1, -1), range(0, n, 2)])


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
    assert not emit._cents(ties)[1].any()  # a tie takes the fallback
    assert_path_is_python_text(TIES)
    # one ulp either side is no tie: either path prints Python's text
    for toward in (-np.inf, np.inf):
        assert_path_is_python_text(np.nextafter(ties, toward))


@pytest.mark.parametrize(
    "value", [-0.0, -1e-300, -0.004, -1.0, np.nan, np.inf, -np.inf, 999.995, 1000.0, 1e300]
)
def test_path_text_fallback_values(value):
    cents, exact = emit._cents(np.array([1.0, value, 2.0]))
    # only that value takes the fallback, and its count reads 0
    assert exact.tolist() == [True, False, True]
    assert cents.tolist() == [100, 0, 200]
    assert_path_is_python_text([1.0, value, 2.0])
    assert_path_is_python_text([value])


def test_path_text_fast_path_cents():
    values = np.array([0.0, 0.004, 0.005001, 1.0, 12.345678, 999.994])
    cents, exact = emit._cents(values)
    assert exact.all()
    assert cents.tolist() == [0, 0, 1, 100, 1235, 99999]
    assert_path_is_python_text(values)


# table values: the fast path's range, exact ties m/8, -0.0, negatives,
# NaN, infinities and values of 1000 or more
path_values = st.one_of(
    st.floats(0.0, 1000.0, exclude_max=True),
    st.integers(0, 7999).map(lambda m: m / 8),
    st.sampled_from([-0.0, -0.004, -1.5, np.nan, np.inf, -np.inf, 1000.0, 999.995, 1e300]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=150)
@given(st.data(), st.lists(st.tuples(path_values, path_values), min_size=1, max_size=30))
def test_paths_of_shared_points_equal_per_curve_format(data, points):
    n = len(points)
    # curves that share, repeat and reorder points, in any number
    indices = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=40),
                                 min_size=1, max_size=5))
    xs, ys = zip(*points)
    assert_paths_are_python_text(xs, ys, indices)


def test_path_words_are_python_text():
    ints, fracs = emit._path_words()
    assert ints.dtype == fracs.dtype == np.dtype("<u4")
    assert ints.shape == (1000,) and fracs.shape == (100,)
    text = lambda word: word.tobytes().replace(b"\0", b"").decode()  # noqa: E731
    assert [text(ints[k]) for k in (0, 7, 42, 999)] == ["0.", "7.", "42.", "999."]
    assert [text(fracs[k]) for k in (0, 5, 99)] == ["00", "05", "99"]


@given(st.text())
def test_escape_equals_saxutils(text):
    from xml.sax.saxutils import escape

    assert emit.escape(text) == escape(text)


# --- repr of float64 columns ------------------------------------------------------


def row_texts(records: np.ndarray) -> list[str]:
    """Each record's text, its NUL bytes dropped."""
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in records]


def record_texts(values) -> list[str]:
    """Each value's record from ``repr_records`` with its NUL bytes dropped."""
    return row_texts(emit.repr_records(np.array(values, dtype=float)))


def assert_records_are_repr(values):
    values = np.array(values, dtype=float)
    assert record_texts(values) == [repr(v) for v in values.tolist()]


def exact_half(v: float) -> bool:
    """Whether v * 10^k is an exact half-integer at 16 or 17 digits."""
    e = math.floor(math.log10(v))
    e += (Fraction(10) ** (e + 1) <= v) - (Fraction(10) ** e > v)
    return any((Fraction(v) * 10**k).denominator == 2 for k in (15 - e, 16 - e))


def proven(values) -> np.ndarray:
    """Which values the numpy path prints itself, without the fallback."""
    v = np.array(values, dtype=float)
    return emit._digits(v, (v >= 1e-4) & (v < 1e15))[0]


@settings(max_examples=150)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_repr_records_equal_repr_for_any_finite_float(values):
    assert_records_are_repr(values)


@settings(max_examples=150)
@given(st.lists(st.floats(1e-4, 1e15, exclude_max=True), min_size=1, max_size=40))
def test_repr_records_equal_repr_on_positional_range(values):
    assert_records_are_repr(values)


def test_repr_records_powers_of_ten_and_neighbours():
    tens = np.array([float(f"1e{e}") for e in range(-6, 17)])
    values = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)])
    assert_records_are_repr(values)
    positional = (tens >= 1e-4) & (tens < 1e15)
    assert proven(tens[positional]).all()  # one digit, by the 15-digit path


def test_repr_records_powers_of_two_take_the_15_digit_path():
    # the 16- and 17-digit verdicts assume a symmetric rounding interval,
    # which every positional value but a power of two has
    twos = np.ldexp(1.0, np.arange(-13, 50))
    assert ((twos >= 1e-4) & (twos < 1e15)).all()
    assert proven(twos).all()
    assert_records_are_repr(np.concatenate([twos, np.nextafter(twos, 0), np.nextafter(twos, np.inf)]))


def test_repr_records_near_two_to_the_53():
    big = 2.0**53  # 9007199254740992.0: outside the positional range
    values = [big, np.nextafter(big, 0), np.nextafter(big, np.inf), big / 16,
              np.nextafter(big / 16, 0), np.nextafter(big / 16, np.inf)]
    assert_records_are_repr(values)


@pytest.mark.parametrize("digits", [15, 16, 17])
def test_repr_records_by_significant_digits(digits):
    rng = np.random.default_rng(digits)
    values = 10.0 ** rng.uniform(-4, 15, 4000)
    values = values[[len(repr(v).replace(".", "").lstrip("0")) - repr(v).endswith(".0")
                     == digits for v in values.tolist()]]
    assert len(values) > 100
    assert_records_are_repr(values)
    # only exact halves, at 16 or 17 digits, are left to the fallback
    assert all(map(exact_half, values[~proven(values)].tolist()))


def test_repr_records_leave_exact_halves_to_the_fallback():
    # v * 10 is an exact half-integer: the two 16-digit neighbours are equally
    # near, and rounding hi + lo half up would print ...017.25 and ...559.75;
    # the last three are exact halves at 17 digits, where repr is 17 digits
    ties = [761358456609017.2, 570358112684559.8, 250181888616918.62,
            1212575155529.1562, 215319271271699.38]
    assert all(map(exact_half, ties))
    assert not proven(ties).any()
    assert record_texts(ties) == [repr(v) for v in ties]


def test_repr_records_at_the_range_ends():
    low = np.nextafter(1e-4, 0)
    high = np.nextafter(1e15, 0)
    assert proven([1e-4, high]).all()
    assert not proven([low, 1e15]).any()
    assert record_texts([1e-4, low, high, 1e15]) == [
        "0.0001", "9.999999999999999e-05", "999999999999999.9", "1000000000000000.0"
    ]


@pytest.mark.parametrize(
    "value", [0.0, -0.0, -1.5, -2395.184651851172, np.nan, np.inf, -np.inf, 5e-324, 1e300]
)
def test_repr_records_fallback_values(value):
    assert not proven([value]).any()
    assert_records_are_repr([value])
    assert_records_are_repr([1.5, value, 2395.184651851172])


def test_repr_records_integral_values_and_trailing_zeros():
    values = [1.0, 10.0, 1200.0, 100000000000000.0, 123456789012345.0, 0.5, 0.1, 2.25, 1234.5]
    assert proven(values).all()
    assert_records_are_repr(values)


def test_join_fields_and_records_bytes():
    records = emit.join_fields([b"a,", emit.repr_records(np.array([0.5, 1200.0])), b"\n"])
    assert records.shape[0] == 2
    assert emit.records_bytes(records) == b"a,0.5\na,1200.0\n"


# --- a value's text ignores the other values of its column -----------------------

# A command prints the floats of all its regions or figures in one column;
# that is right only if a value's text does not depend on its neighbours,
# though a column's record width does.
EDGES = [1e-4, 1e15, 1000.0, 0.005]
column_values = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 80.125, 999.995,
                     *EDGES, *np.nextafter(EDGES, 0).tolist(),
                     *np.nextafter(EDGES, math.inf).tolist()]),
    # log-uniform magnitudes over many decades, either sign
    st.builds(lambda m, e: m * 10.0**e, st.floats(-9.99, 9.99), st.integers(-12, 20)),
    st.integers(0, 7999).map(lambda m: m / 8),  # the .2f ties of [0, 1000)
    st.floats(),
)
columns = st.lists(column_values, max_size=30).map(lambda v: np.array(v, dtype=float))


@settings(max_examples=150)
@given(columns, columns)
def test_repr_records_of_a_column_equal_those_of_its_parts(a, b):
    whole = row_texts(emit.repr_records(np.concatenate([a, b])))
    assert whole == row_texts(emit.repr_records(a)) + row_texts(emit.repr_records(b))
    assert whole == [emit.fmt_float(v) for v in [*a.tolist(), *b.tolist()]]


@settings(max_examples=150)
@given(columns, columns)
def test_fixed_records_of_a_column_equal_those_of_its_parts(a, b):
    whole = row_texts(emit._fixed_records(np.concatenate([a, b])))
    assert whole == row_texts(emit._fixed_records(a)) + row_texts(emit._fixed_records(b))
    assert whole == [f"{v:.2f}" for v in [*a.tolist(), *b.tolist()]]
