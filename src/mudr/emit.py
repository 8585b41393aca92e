"""Deterministic file emitters: CSV, hand-rolled SVG, JSON.

Output bytes must be identical across runs with identical inputs, so all
floats are written with shortest round-trip repr (CSV/JSON) or fixed
two-decimal coordinates (SVG), lines end with LF, and files are written
atomically via a temp file and rename. The Monte Carlo reports and the
run manifest share one JSON text form, ``json_bytes``.

The SVG draws its curves from one point table: a curve is an index array
into it, so a point that several curves pass through (the region's hull
and the waterfill and interpolated curves it picks from) is scaled and
printed once. A command prints each float once across the figures and
regions it prints together: ``render_svgs`` prints the scaled points of
all its figures in one pass per axis, and ``region_files``, which
writes the region files of ``region`` and ``sweep``, gives
``repr_records`` the columns of those regions at once. That is right
because a value's text never depends on the other values of its column.

Both the SVG coordinates and the CSV floats are printed into NUL-padded
records, one uint8 row per value, in numpy. An SVG coordinate's record
holds its correctly rounded hundredths as the words of its ``iii.ff``
text, picked from tables of integer parts and fractions, where that is
exactly the text of Python's ``f"{v:.2f}"`` (``_fixed_records``). A CSV
float's record holds its ``repr`` digits where they are proven equal to
``repr`` (``repr_records``). Both write the text of any other value into
its row with one fallback writer. Paths and CSV rows are records laid
side by side by ``join_fields`` and gathered by index. The text tables
are built on first use.

Outputs stay bytes from the records to the file: ``records_bytes`` drops
the records' NUL padding into bytes, the SVG is rendered as bytes, and
``atomic_write_text`` writes bytes or an iterable of byte blocks as they
are made, so a large CSV is never joined, decoded or encoded as a whole,
and an SVG that ``render_svgs`` yields is rendered only when it is
written.
"""

from __future__ import annotations

import functools
import json
import os
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bounds import RateRegion

#: Rows per block of ``region.csv``: the header, then blocks of at most
#: this many rows, each made as it is written.
_CSV_BLOCK = 16384

#: Table rows ``region_files`` prints together. Its regions share one alpha
#: grid, so each has the same rows, and ``_SWEEP_ROWS // rows`` consecutive
#: regions (at least one) are printed as one group: a group's records stay
#: near those of one region of this many rows (about 6 MB, at some 90
#: bytes a row), and a 400-point sweep of up to 161 values is printed in
#: one pass.
_SWEEP_ROWS = 1 << 16

#: The ``self_consistent`` cells of ``region.csv``, NUL-padded to one width.
_FLAG_FIELDS = np.frombuffer(b"false" b"true\0", np.uint8).reshape(2, 5)

REGION_CSV_HEADER = (
    "curve_label",
    "alpha_or_nan",
    "r_est_bps",
    "r_com_bps",
    "self_consistent",
)

_PALETTE = (
    "#c62828",  # red
    "#2e7d32",  # green
    "#9e9e9e",  # gray
    "#1565c0",  # blue
    "#4a148c",  # purple
    "#ef6c00",  # orange
    "#00838f",  # teal
)


@functools.cache
def _path_words() -> tuple[np.ndarray, np.ndarray]:
    """The text of the SVG coordinate records as little-endian 4-byte
    words, NUL bytes padding what a word does not fill: the integer parts
    0..999, right-aligned in 3 bytes, each followed by "."; then the
    two-digit fractions 00..99."""
    ints = b"".join((str(k).rjust(3, "\0") + ".").encode() for k in range(1000))
    fracs = b"".join(f"{k:02d}\0\0".encode() for k in range(100))
    return np.frombuffer(ints, "<u4"), np.frombuffer(fracs, "<u4")


def escape(text: str) -> str:
    """``&``, ``>`` and ``<`` as XML entities, replaced in that order."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def fmt_float(x: float) -> str:
    """Shortest decimal that round-trips; nan stays literal 'nan'."""
    return repr(float(x))


def atomic_write_text(path: Path, data: bytes | Iterable[bytes]) -> None:
    """Write ``data``, text as bytes or as an iterable of bytes-like blocks,
    through a uniquely named temp file in the same directory, then rename
    it over ``path``. Blocks are written as the iterable makes them, so a
    generator's text never has to be in memory all at once. If the write,
    or the making of a block, fails, the temp file is removed and ``path``
    is left as it was. The file gets the umask default mode."""
    # os.urandom(4).hex() is what secrets.token_hex(4) returns, without
    # importing secrets, hmac and hashlib's OpenSSL binding (about 3.5 ms)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.writelines([data] if isinstance(data, bytes) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def csv_text(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def json_bytes(obj) -> bytes:
    """``obj`` in the one JSON text form of every JSON file written here:
    two-space indent, keys in insertion order, a trailing LF."""
    return (json.dumps(obj, indent=2) + "\n").encode()


def write_manifest(path: Path, manifest: dict) -> None:
    """Write the run manifest as ``json_bytes``."""
    atomic_write_text(path, json_bytes(manifest))


def _ticks(limit: float) -> list[float]:
    return [limit * i / 4 for i in range(5)]


def _cents(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The correctly rounded hundredths of each value, and whether the
    value's ``.2f`` text is ``i.ff`` with at most three integer digits;
    where it is not, the hundredths read 0.

    With y = fl(100 v) and c = rint(y), the exact 100 v lies within half
    a spacing of y, so ``|y - c| < 0.5 - spacing(y)`` puts it strictly
    nearer c than any other integer: no tie, and c is what ``.2f`` rounds
    to. NaN, infinities, -0.0 and negative values fail the test.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        y = values * 100.0
        c = np.rint(y)
        exact = ~np.signbit(y) & (c < 1e5) & (np.abs(y - c) < 0.5 - np.spacing(y))
    return np.where(exact, c, 0.0).astype(np.int32), exact


def _write_texts(out: np.ndarray, texts: dict[int, str]) -> None:
    """Write ``texts[i]`` over row ``i`` of the records ``out``, NUL-padded:
    the fallback of both printers, for the values they do not print."""
    for i, text in texts.items():
        out[i] = 0
        out[i, : len(text)] = np.frombuffer(text.encode(), np.uint8)


def _fixed_records(values: np.ndarray) -> np.ndarray:
    """``f"{v:.2f}"`` of each float64 value as one NUL-padded row of a
    uint8 array, like the rows of ``repr_records``.

    Where ``_cents`` takes a value, its row is the integer word and the
    fraction word of its hundredths, gathered from ``_path_words``; any
    other value's text is written into its row by ``_write_texts``.
    """
    cents, exact = _cents(values)
    ints, fracs = _path_words()
    others = np.flatnonzero(~exact)
    texts = {i: f"{v:.2f}" for i, v in zip(others.tolist(), values[others].tolist())}
    out = np.zeros((len(values), max([8, *map(len, texts.values())])), np.uint8)
    out[:, :8] = np.stack((ints[cents // 100], fracs[cents % 100]), axis=1).view(np.uint8)
    _write_texts(out, texts)
    return out


def _path_records(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """One `` L x,y`` record of ``_fixed_records`` per point (``xs[i]``,
    ``ys[i]``)."""
    return join_fields([b" L ", _fixed_records(xs), b",", _fixed_records(ys)])


def _paths(records: np.ndarray, indices: Sequence[np.ndarray]) -> list[bytes]:
    """SVG path data ``M x,y L x,y ...`` of the points at each index array:
    a path gathers the points' ``_path_records``, its first record
    starting ``M `` instead."""
    paths = []
    for index in indices:
        rows = np.take(records, index, axis=0)
        rows[0, :3] = np.frombuffer(b"\0M ", np.uint8)
        paths.append(records_bytes(rows))
    return paths


#: Values per block of ``repr_records``: the temporaries of one block stay
#: under 3 MB, whatever the column's length.
_REPR_BLOCK = 16384

#: The binades 2^-14 .. 2^49 hold the positional range 1e-4 <= v < 1e15;
#: the first one's biased float64 exponent.
_FIRST_BINADE = 1023 - 14


@functools.cache
def _repr_tables() -> tuple[np.ndarray, ...]:
    """Tables of ``repr_records``, built on first use:
    - for each of the 64 binades 2^E: the decade e of 2^E, the nearest
      double to 10^(e+1) (a double is at or above it exactly when it is at
      or above the real 10^(e+1), as 10^j for j < 0 rounds up), and the
      spacing 2^(E-52) of the binade's doubles;
    - the exact powers 10^0 .. 10^22 with their Veltkamp halves;
    - the 4-digit groups 0000..9999 as uint32 words, then the same groups
      with their trailing zeros as NUL bytes.
    """
    tens = [float(f"1e{j}") for j in range(-5, 17)]
    binades = [2.0**e for e in range(-14, 50)]
    decade = [max(j for j in range(-5, 16) if tens[j + 5] <= b) for b in binades]
    pow10 = np.array([float(10**k) for k in range(23)])
    split = pow10 * 134217729.0  # 2^27 + 1
    pow10_hi = split - (split - pow10)
    ascii_digits = np.frombuffer(b"0123456789", np.uint8)
    k = np.arange(10000)
    groups = np.empty((2, 10000, 4), np.uint8)
    zeros = np.ones(10000, dtype=bool)
    for col, scale in zip((3, 2, 1, 0), (1, 10, 100, 1000)):
        digit = k // scale % 10
        groups[:, :, col] = ascii_digits[digit]
        zeros &= digit == 0
        groups[1, zeros, col] = 0
    return (np.array(decade), np.array([tens[e + 6] for e in decade]),
            np.array(binades) * 2.0**-52, pow10, pow10_hi, pow10 - pow10_hi,
            groups.view(np.uint32).ravel())


def _decade(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e with 10^e <= v < 10^(e+1), and the index of v's binade, for each
    v in [1e-4, 1e15) (any other value gets some e in [-5, 15])."""
    decade, next_decade = _repr_tables()[:2]
    binade = (values.view(np.int64) >> 52) - _FIRST_BINADE & 63
    return decade[binade] + (values >= next_decade[binade]), binade


def _digits(v: np.ndarray, positional: np.ndarray):
    """``(proven, e, digits)`` for a block of values: which values' repr is
    proven, each value's decade e, and a (n, 20) uint8 array that holds
    "000" and then the 17 significant digits of a proven value's repr,
    trailing zeros as NUL bytes.

    repr prints the shortest decimal that rounds to v, and of those the
    nearest to v. For positional v:
    - 15 digits: 15-digit decimals are spaced wider than v's rounding
      interval, so at most one rounds to v, and if one does it lies within
      0.18 of v * 10^(14-e): it is rint of that product in floats. It rounds
      to v iff M / 10^(14-e) == v, one correctly rounded division of exact
      operands (Clinger's fast path). Each power of two in range has an
      exact decimal of at most 15 digits, so every value past this step
      has a symmetric rounding interval, of half-width h.
    - 17 digits: Dekker's product gives v * 10^(16-e) exactly as hi + lo.
      With r = rint(hi), rl = rint(lo), d = hi - r, e2 = lo - rl (all exact)
      and a = rint(d + e2), M17 = r + a + rl is within 3/4 of the product,
      and res17 = (d - a) + e2 is its residual, rounded once. M17 is the
      nearest integer unless |d + e2| rounds to 1/2, which is left to the
      fallback. As h > 0.55 at 17 digits, the nearest M17 rounds to v.
    - 16 digits: with M17 = 10 q + rem, the nearest 16-digit mantissa is
      q + up, up = 1 iff rem + res17 > 5 (an exact half, rem = 5 and
      res17 = 0, is left to the fallback), and ten times its residual is
      rem - 10 up + res17. It is printed if that is proven below h, and M17
      only if it is proven above h, for then no 16-digit decimal rounds to
      v. A 2^-40 margin on h keeps both verdicts exact despite the two
      roundings.
    """
    _, _, spacing, pow10, pow10_hi, pow10_lo, words = _repr_tables()
    e, binade = _decade(v)
    k = 16 - e
    with np.errstate(invalid="ignore", over="ignore"):
        p15 = pow10[k - 2]
        m15 = np.rint(v * p15)
        ok15 = positional & (m15 / p15 == v)
        p, p_hi, p_lo = pow10[k], pow10_hi[k], pow10_lo[k]
        hi = v * p
        split = v * 134217729.0
        v_hi = split - (split - v)
        v_lo = v - v_hi
        lo = ((v_hi * p_hi - hi) + v_hi * p_lo + v_lo * p_hi) + v_lo * p_lo
        # free each temporary once it is used: this lowers the peak memory
        # of every ``_REPR_BLOCK``-value block that repr_records prints
        del split, v_hi, v_lo, p_hi, p_lo
        r, rl = np.rint(hi), np.rint(lo)
        d, e2 = hi - r, lo - rl
        del hi, lo
        frac = d + e2
        a = np.rint(frac)
        res = (d - a) + e2
        m = (r + a).astype(np.int64) + rl.astype(np.int64)
        del r, rl, d, e2, a
        rem = m - m // 10 * 10
        up = (rem > 5) | ((rem == 5) & (res > 0))
        tenfold = np.abs((rem - 10 * up) + res)
        h = spacing[binade] * p * 0.5
        ok = positional & ~ok15 & ~((rem == 5) & (res == 0))
        ok16 = ok & (tenfold < h * (1 - 2.0**-40))
        ok17 = ok & (tenfold > h * (1 + 2.0**-40)) & (np.abs(frac) != 0.5)
        # the 17-digit mantissa, 10^16 <= m < 10^17 where proven
        m += ok16 * (10 * up - rem)
        m += ok15 * (m15.astype(np.int64) * 100 - m)
    lead = m // 10**16
    m -= lead * 10**16
    g1 = m // 10**12
    m -= g1 * 10**12
    g2 = m // 10**8
    m -= g2 * 10**8
    g3 = m // 10**4
    g4 = m - g3 * 10**4
    # a group takes the NUL-trailing table when every later group is zero
    digits = np.empty((len(v), 5), np.uint32)
    digits[:, 0] = words[lead & 15]
    digits[:, 4] = words[g4 + 10000]
    zeros = g4 == 0
    digits[:, 3] = words[g3 + 10000 * zeros]
    zeros &= g3 == 0
    digits[:, 2] = words[g2 + 10000 * zeros]
    zeros &= g2 == 0
    digits[:, 1] = words[g1 + 10000 * zeros]
    return ok15 | ok16 | ok17, e, digits.view(np.uint8)


def _bytes_view(a: np.ndarray) -> np.ndarray:
    """A (n, w) uint8 array as n items of w bytes, for whole-row copies."""
    return a.view(f"V{a.shape[1]}")


def _place(out: np.ndarray, e: np.ndarray, digits: np.ndarray, wi: int) -> None:
    """Lay each row's ``_digits`` out as text in ``out``: the integer part
    right-aligned in ``wi`` columns, ".", then the fraction."""
    for ee in range(int(e.min()), int(e.max()) + 1):
        rows = np.flatnonzero(e == ee)
        if not len(rows):
            continue
        # the rows of decade ee and those between them; where no other
        # decade is among them, their bytes move as whole rows
        span = slice(rows[0], rows[-1] + 1)
        mixed = None if len(rows) == span.stop - span.start else (e[span] == ee)[:, None]
        # integer part: the first e + 1 digits, or "0"; fraction: the other
        # digits, after -e - 1 zeros if e < 0
        ints = digits[span, 3 : 4 + ee] if ee >= 0 else digits[span, 0:1]
        fracs = digits[span, 4 + ee :]
        for src, dst in ((ints, out[span, wi - ints.shape[1] : wi]),
                         (fracs, out[span, wi + 1 : wi + 1 + fracs.shape[1]])):
            if mixed is None:
                np.copyto(_bytes_view(dst), _bytes_view(src))
            else:
                np.copyto(dst, src, where=mixed)
    out[:, wi] = ord(".")
    first = out[:, wi + 1]
    integral = np.flatnonzero(first == 0)
    if len(integral):
        # no fraction digit: the integer part's zeros were trimmed with it
        ints = out[integral, :wi]
        digit = np.arange(wi) >= wi - 1 - e[integral, None]
        ints[digit & (ints == 0)] = ord("0")
        out[integral, :wi] = ints
        first[integral] = ord("0")


def repr_records(values: np.ndarray) -> np.ndarray:
    """``repr(v)`` of each float64 value as one row of a uint8 array, padded
    with NUL bytes that a reader drops: ``bytes(row).replace(b"\0", b"")``
    is exactly ``fmt_float(v)``.

    A positional value (1e-4 <= v < 1e15) is printed in numpy, in blocks
    of ``_REPR_BLOCK`` values, where ``_digits`` proves the text; every
    other value (0.0, -0.0, negatives, NaN, infinities, anything outside
    that range, and the exact halves the proof leaves open) by
    ``fmt_float``.
    """
    v = np.ascontiguousarray(values, dtype=np.float64)
    positional = (v >= 1e-4) & (v < 1e15)
    others = np.flatnonzero(~positional)
    texts = {i: fmt_float(x) for i, x in zip(others.tolist(), v[others].tolist())}
    width = max(map(len, texts.values()), default=0)
    blocks = range(0, len(v) if len(others) < len(v) else 0, _REPR_BLOCK)
    if blocks:
        ends = [np.min(v, where=positional, initial=np.inf),
                np.max(v, where=positional, initial=-np.inf)]
        e_lo, e_hi = _decade(np.array(ends))[0].tolist()
        # a positional repr has at most e + 1 integer and 16 - e fraction digits
        wi = max(e_hi, 0) + 1
        width = max(width, wi + 1 + 16 - e_lo)
    out = np.zeros((len(v), width), np.uint8)
    for first in blocks:
        block = slice(first, first + _REPR_BLOCK)
        proven, e, digits = _digits(v[block], positional[block])
        e[~positional[block]] = e_hi  # a decade that the layout has room for
        _place(out[block], e, digits, wi)
        for i in (np.flatnonzero(positional[block] & ~proven) + first).tolist():
            texts[i] = fmt_float(v[i])
    _write_texts(out, texts)
    return out


def join_fields(fields: Sequence[np.ndarray | bytes]) -> np.ndarray:
    """Records made by placing ``fields`` side by side: each field is a
    uint8 array of one row per record (``repr_records``) or bytes that
    every record repeats."""
    rows = next(len(f) for f in fields if not isinstance(f, bytes))
    fields = [np.frombuffer(f, np.uint8)[None, :] if isinstance(f, bytes) else f for f in fields]
    out = np.empty((rows, sum(f.shape[1] for f in fields)), np.uint8)
    col = 0
    for f in fields:
        np.copyto(_bytes_view(out[:, col : col + f.shape[1]]), _bytes_view(f))
        col += f.shape[1]
    return out


def records_bytes(records: np.ndarray) -> bytes:
    """The records' bytes in order, every NUL byte dropped."""
    return records.tobytes().translate(None, b"\0")


# The plot area of every 800x600 figure, in SVG user units.
_LEFT, _RIGHT, _TOP, _BOTTOM = 80.0, 630.0, 30.0, 540.0


def _sx(x, x_span):
    """The plot abscissa of x: a float or, element by element, a float64
    array."""
    return _LEFT + (_RIGHT - _LEFT) * x / x_span


def _sy(y, y_span):
    """The plot ordinate of y, like ``_sx``."""
    return _BOTTOM - (_BOTTOM - _TOP) * y / y_span


def _spans(curves: Sequence[tuple[str, np.ndarray]], points) -> tuple[float, float]:
    """The x and y axis spans of a figure: 1.05 times the largest value on
    any of its curves, or 1 if that is not positive. A point of the table
    on no curve moves no axis."""
    tops = [max(float(np.max(column[index])) for _, index in curves) for column in points]
    return tuple(top * 1.05 if top > 0 else 1.0 for top in tops)


def render_svgs(figures: Sequence[tuple]) -> Iterator[bytes]:
    """One SVG per figure ``(curves, x_label, y_label, points)``, each by
    ``render_curves_svg`` and each only when it is asked for. The
    point table ``points = (xs, ys)`` is two float64 columns, and a curve
    ``(label, index)`` is the table's points at the integer array ``index``.

    Each figure scales its table to its own axes. When the first SVG is
    asked for, the scaled points of all figures are printed together,
    every x in one ``_fixed_records`` pass and every y in another, so each
    table point is printed once, however many curves or figures there
    are; each figure's paths gather from its own rows of those records.
    Every figure's point table has one size, so ``np.split`` divides the
    records evenly (and raises otherwise).
    """
    spans = [_spans(curves, points) for curves, _, _, points in figures]
    xs, ys = zip(*((_sx(x, x_span), _sy(y, y_span))
                   for (*_, (x, y)), (x_span, y_span) in zip(figures, spans)))
    records = _path_records(np.concatenate(xs), np.concatenate(ys))
    del xs, ys  # only the records are kept while the SVGs are rendered
    for (curves, x_label, y_label, _), span, rows in zip(
        figures, spans, np.split(records, len(figures))
    ):
        yield render_curves_svg(curves, x_label, y_label, span, rows)


def render_curves_svg(
    curves: Sequence[tuple[str, np.ndarray]],
    x_label: str,
    y_label: str,
    spans: tuple[float, float],
    records: np.ndarray,
) -> bytes:
    """800x600 linear-axes plot with one path per curve, as bytes: the axes
    span ``spans = (x_span, y_span)`` (``_spans``), and a curve
    ``(label, index)`` is the points at the integer array ``index`` of the
    figure's ``_path_records``, already scaled. ``render_svgs`` makes both
    from a point table."""
    x_span, y_span = spans
    width, height = 800, 600
    left, right, top, bottom = _LEFT, _RIGHT, _TOP, _BOTTOM
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left:.2f}" y1="{bottom:.2f}" x2="{right:.2f}" y2="{bottom:.2f}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{left:.2f}" y1="{bottom:.2f}" x2="{left:.2f}" y2="{top:.2f}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for tx in _ticks(x_span):
        px = _sx(tx, x_span)
        parts.append(
            f'<line x1="{px:.2f}" y1="{bottom:.2f}" x2="{px:.2f}" '
            f'y2="{bottom + 6:.2f}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{bottom + 20:.2f}" font-size="12" '
            f'text-anchor="middle">{tx:.4g}</text>'
        )
    for ty in _ticks(y_span):
        py = _sy(ty, y_span)
        parts.append(
            f'<line x1="{left - 6:.2f}" y1="{py:.2f}" x2="{left:.2f}" '
            f'y2="{py:.2f}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 10:.2f}" y="{py + 4:.2f}" font-size="12" '
            f'text-anchor="end">{ty:.4g}</text>'
        )
    parts.append(
        f'<text x="{(left + right) / 2:.2f}" y="{bottom + 42:.2f}" font-size="14" '
        f'text-anchor="middle">{escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="22" y="{(top + bottom) / 2:.2f}" font-size="14" '
        f'text-anchor="middle" transform="rotate(-90 22 {(top + bottom) / 2:.2f})">'
        f"{escape(y_label)}</text>"
    )

    out = ["\n".join(parts).encode()]
    paths = _paths(records, [index for _, index in curves])
    for i, ((label, _), path) in enumerate(zip(curves, paths)):
        color = _PALETTE[i % len(_PALETTE)]
        ly = top + 18 + 20 * i
        out += [
            f'\n<path id="{escape(label)}" d="'.encode(),
            path,
            f'" fill="none" stroke="{color}" stroke-width="2"/>\n'
            f'<line x1="{right + 12:.2f}" y1="{ly:.2f}" x2="{right + 40:.2f}" '
            f'y2="{ly:.2f}" stroke="{color}" stroke-width="2"/>\n'
            f'<text x="{right + 46:.2f}" y="{ly + 4:.2f}" font-size="13">'
            f"{escape(label)}</text>".encode(),
        ]
    out.append(b"\n</svg>\n")
    return b"".join(out)


def _region_csv(region: RateRegion, pairs: np.ndarray, alpha: np.ndarray) -> Iterator[bytes]:
    """CSV text as byte blocks, each made when the writer asks for it: one
    row per curve vertex; waterfill rows keep every grid point, flagged by
    self-consistency.

    ``pairs`` holds one "r_est,r_com" record per table row. The waterfill
    rows take one for every grid row, with the grid's ``alpha`` records;
    every other curve's rows read ``label,nan,r_est,r_com,true``, gathered
    by its index. Each curve's rows come in blocks of at most
    ``_CSV_BLOCK``.
    """
    yield (",".join(REGION_CSV_HEADER) + "\n").encode()
    grid = pairs[region.grid_rows]
    for label, index in region.index.items():
        if label == "waterfill":  # every split, with its alpha and flag
            for first in range(0, len(alpha), _CSV_BLOCK):
                rows = slice(first, first + _CSV_BLOCK)
                flags = np.take(_FLAG_FIELDS, region.self_consistent[rows].view(np.uint8), axis=0)
                yield records_bytes(join_fields(
                    [b"waterfill,", alpha[rows], b",", grid[rows], b",", flags, b"\n"]))
            continue
        for first in range(0, len(index), _CSV_BLOCK):
            points = np.take(pairs, index[first : first + _CSV_BLOCK], axis=0)
            yield records_bytes(join_fields([f"{label},nan,".encode(), points, b",true\n"]))


def region_files(
    alpha_grid: np.ndarray, regions: Sequence[tuple[str, RateRegion]]
) -> Iterator[tuple[str, Iterable[bytes]]]:
    """``<prefix>.csv`` and ``<prefix>.svg`` of each (prefix, region) over
    the one ``alpha_grid``, as (name, data) pairs in write order whose
    text is made as it is written: the files of ``region`` and ``sweep``.

    Every region has the same rows, so the regions are printed in groups
    of ``_SWEEP_ROWS // rows`` (at least one), and ``np.split`` divides a
    group's records evenly (and raises otherwise). Every float is printed
    once for all of a group, when its first pair is taken: the grid in one
    ``repr_records`` call, every region's r_est in a second and every
    r_com in a third; the SVG coordinates by ``render_svgs`` when the
    group's first SVG is written. Each region's files gather from its own
    rows of those records, and the records go once the last CSV, or SVG,
    that reads them is written.
    """
    size = max(1, _SWEEP_ROWS // len(regions[0][1].r_est))
    for start in range(0, len(regions), size):
        group = regions[start : start + size]
        alpha = repr_records(alpha_grid)
        pairs = join_fields([repr_records(np.concatenate([r.r_est for _, r in group])), b",",
                             repr_records(np.concatenate([r.r_com for _, r in group]))])
        csvs = [_region_csv(r, rows, alpha)
                for (_, r), rows in zip(group, np.split(pairs, len(group)))]
        del alpha, pairs  # each CSV holds its rows until it has been written
        svgs = render_svgs([(list(r.index.items()), "estimation rate (bits/s)",
                             "communications rate (bits/s)", (r.r_est, r.r_com)) for _, r in group])
        for (prefix, _), csv in zip(group, csvs):
            yield f"{prefix}.csv", csv
            yield f"{prefix}.svg", islice(svgs, 1)  # rendered as it is written
        del csvs, svgs  # the group's SVG records go before the next group is printed
