"""Deterministic file emitters: CSV, hand-rolled SVG, run manifest.

Output bytes must be identical across runs with identical inputs, so all
floats are written with shortest round-trip repr (CSV/JSON) or fixed
two-decimal coordinates (SVG), lines end with LF, and files are written
atomically via a temp file and rename.
"""

from __future__ import annotations

import json
import os
import secrets
from pathlib import Path
from typing import Iterable, Sequence
from xml.sax.saxutils import escape

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
        path_x = sx(np.asarray(xs, dtype=float)).tolist()
        path_y = sy(np.asarray(ys, dtype=float)).tolist()
        coords = " L ".join(f"{x:.2f},{y:.2f}" for x, y in zip(path_x, path_y))
        parts.append(
            f'<path id="{escape(label)}" d="M {coords}" fill="none" '
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
