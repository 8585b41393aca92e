"""Deterministic file emitters: CSV, hand-rolled SVG, run manifest.

Output bytes must be identical across runs with identical inputs, so all
floats are written with shortest round-trip repr (CSV/JSON) or fixed
two-decimal coordinates (SVG), lines end with LF, and files are written
atomically via a temp file and rename.

SVG path coordinates are printed in one numpy pass: each value's
correctly rounded hundredths are gathered from digit tables into fixed
16-byte path records. A curve takes that path only where it prints
exactly the text of Python's ``f"{v:.2f}"`` (see ``_path_text``); any
other curve is formatted by that expression.
"""

from __future__ import annotations

import json
import os
import secrets
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

_PALETTE = (
    "#c62828",  # red
    "#2e7d32",  # green
    "#9e9e9e",  # gray
    "#1565c0",  # blue
    "#4a148c",  # purple
    "#ef6c00",  # orange
    "#00838f",  # teal
)


# Digit tables of the SVG path records: the integer parts 0..999 right
# aligned in 3 bytes, padded with NUL bytes that are dropped after the
# gather, and the two-digit fractions 00..99.
_INT_DIGITS = np.frombuffer(
    b"".join(str(k).rjust(3, "\0").encode() for k in range(1000)), np.uint8
).reshape(1000, 3)
_FRAC_DIGITS = np.frombuffer(
    b"".join(f"{k:02d}".encode() for k in range(100)), np.uint8
).reshape(100, 2)


def escape(text: str) -> str:
    """``&``, ``>`` and ``<`` as XML entities, replaced in that order."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def fmt_float(x: float) -> str:
    """Shortest decimal that round-trips; nan stays literal 'nan'."""
    return repr(float(x))


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` through a uniquely named temp file in the same
    directory, then rename it over ``path``; the temp file is removed if
    the write fails. The file gets the umask default mode."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, "x")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def csv_text(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def write_manifest(
    path: Path,
    command: str,
    scenario_path: str | None,
    parameters: dict,
    outputs: list[str],
    tool_version: str,
    seed: int | None,
    counters: dict | list | None = None,
) -> None:
    """Write the run manifest; ``counters`` is added only when given."""
    manifest = {
        "command": command,
        "scenario_path": scenario_path,
        "parameters": parameters,
        "outputs": outputs,
        "tool_version": tool_version,
        "seed": seed,
    }
    if counters is not None:
        manifest["counters"] = counters
    atomic_write_text(path, json.dumps(manifest, indent=2) + "\n")


def _ticks(limit: float) -> list[float]:
    return [limit * i / 4 for i in range(5)]


def _cents(values: np.ndarray) -> np.ndarray | None:
    """The correctly rounded hundredths of every value, or None unless each
    value's ``.2f`` text is ``i.ff`` with at most three integer digits.

    With y = fl(100 v) and c = rint(y), the exact 100 v lies within half
    a spacing of y, so ``|y - c| < 0.5 - spacing(y)`` puts it strictly
    nearer c than any other integer: no tie, and c is what ``.2f`` rounds
    to. NaN, infinities, -0.0 and negative values fail the test.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        y = values * 100.0
        c = np.rint(y)
        exact = ~np.signbit(y) & (c < 1e5) & (np.abs(y - c) < 0.5 - np.spacing(y))
    return c.astype(np.int64) if exact.all() else None


def _path_text(xs: np.ndarray, ys: np.ndarray) -> str:
    """SVG path data ``M x,y L x,y ...`` of float64 columns, each value
    printed as ``f"{v:.2f}"``."""
    cx, cy = _cents(xs), _cents(ys)
    if cx is None or cy is None:
        coords = " L ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs.tolist(), ys.tolist()))
        return f"M {coords}"
    # one " L iii.ff,iii.ff" record per point
    records = np.empty((len(cx), 16), dtype=np.uint8)
    records[:, 0:3] = np.frombuffer(b" L ", np.uint8)
    for col, cents in ((3, cx), (10, cy)):
        records[:, col : col + 3] = _INT_DIGITS[cents // 100]
        records[:, col + 3] = ord(".")
        records[:, col + 4 : col + 6] = _FRAC_DIGITS[cents % 100]
    records[:, 9] = ord(",")
    text = records[records != 0].tobytes().decode("ascii")
    return f"M {text[3:]}"


def render_curves_svg(
    curves: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    x_label: str,
    y_label: str,
) -> str:
    """800x600 linear-axes plot with one path per ``(label, xs, ys)`` curve;
    the columns are float64 arrays or lists of floats."""
    width, height = 800, 600
    left, right, top, bottom = 80.0, 630.0, 30.0, 540.0

    x_max = max(float(np.max(xs)) for _, xs, _ in curves)
    y_max = max(float(np.max(ys)) for _, _, ys in curves)
    x_span = x_max * 1.05 if x_max > 0 else 1.0
    y_span = y_max * 1.05 if y_max > 0 else 1.0

    # each scales a float or, element by element, a float64 array
    def sx(x):
        return left + (right - left) * x / x_span

    def sy(y):
        return bottom - (bottom - top) * y / y_span

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
        px = sx(tx)
        parts.append(
            f'<line x1="{px:.2f}" y1="{bottom:.2f}" x2="{px:.2f}" '
            f'y2="{bottom + 6:.2f}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{bottom + 20:.2f}" font-size="12" '
            f'text-anchor="middle">{tx:.4g}</text>'
        )
    for ty in _ticks(y_span):
        py = sy(ty)
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

    for i, (label, xs, ys) in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        path = _path_text(
            sx(np.asarray(xs, dtype=float)), sy(np.asarray(ys, dtype=float))
        )
        parts.append(
            f'<path id="{escape(label)}" d="{path}" fill="none" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        ly = top + 18 + 20 * i
        parts.append(
            f'<line x1="{right + 12:.2f}" y1="{ly:.2f}" x2="{right + 40:.2f}" '
            f'y2="{ly:.2f}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{right + 46:.2f}" y="{ly + 4:.2f}" font-size="13">'
            f"{escape(label)}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
