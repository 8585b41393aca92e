"""The README's library example runs as written against the package."""

import re
from pathlib import Path

import numpy as np

from mudr.bounds import RateCurve, RateRegion
from mudr.waterfill import default_alpha_grid, waterfill_grid

ROOT = Path(__file__).resolve().parents[1]


def section_code(heading: str) -> list[str]:
    """The ``python`` code blocks of one ``##`` section of README.md."""
    text = (ROOT / "README.md").read_text()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_library_entry_points_run_as_documented(monkeypatch, capsys):
    blocks = section_code("Library entry points")
    assert blocks, "no python block under 'Library entry points'"
    monkeypatch.chdir(ROOT)  # the example loads the bundled scenario by path
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    region = namespace["region"]
    assert isinstance(region, RateRegion)
    labels = ["outer", "sic", "interpolated", "waterfill", "hull"]
    assert list(region.index) == labels
    assert [c.label for c in region.curves] == labels
    printed = capsys.readouterr().out.splitlines()
    for label, line in zip(labels, printed, strict=True):
        curve = region.curve(label)
        assert isinstance(curve, RateCurve) and curve.label == label
        rows = region.index[label]
        np.testing.assert_array_equal(curve.r_est, region.r_est[rows])
        np.testing.assert_array_equal(curve.r_com, region.r_com[rows])
        assert line == f"{label} {len(rows)}"
    # every grid split has a row, and the waterfill curve is the
    # self-consistent ones
    grid = waterfill_grid(namespace["lb"], default_alpha_grid(400))
    np.testing.assert_array_equal(region.r_est[region.grid_rows], grid.r_est)
    np.testing.assert_array_equal(region.r_com[region.grid_rows], grid.r_com_total)
    waterfill = region.curve("waterfill")
    np.testing.assert_array_equal(waterfill.r_est, grid.r_est[grid.self_consistent])
