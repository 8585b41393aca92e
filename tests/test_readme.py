"""The README's library example runs as written against the package, and
its scenario range table states the loader's ranges."""

import re
from pathlib import Path

import numpy as np
import pytest

from mudr import scenario as sc
from mudr.bounds import RateRegion
from mudr.waterfill import default_alpha_grid, waterfill_grid

ROOT = Path(__file__).resolve().parents[1]


def section(heading: str) -> str:
    """The text of one ``##`` section of README.md."""
    text = (ROOT / "README.md").read_text()
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def section_code(heading: str) -> list[str]:
    """The ``python`` code blocks of one ``##`` section of README.md."""
    return re.findall(r"```python\n(.*?)```", section(heading), flags=re.DOTALL)


def test_scenario_range_table_states_field_ranges():
    # "| `a`, `b` | lo .. hi unit [(lo .. hi W)] |": a dB row gives its range
    # in the scenario's dB unit, and the loader checks the linear value
    to_linear = {"dBm": sc.dbm_to_watts, "dBi": sc.db_to_linear}
    row = r"^\| (`.+`) \| (\S+) \.\. (\S+)(?: ([^|(]*?))?(?: \((\S+) \.\. (\S+) W\))? \|$"
    rows = re.findall(row, section("Scenario files"), flags=re.MULTILINE)
    by_source = {source: (lo, hi) for lo, hi, source in sc.FIELD_RANGES.values()}
    stated = {}
    for names, lo, hi, unit, lo_w, hi_w in rows:
        convert = to_linear.get(unit, float)
        bounds = (convert(float(lo)), convert(float(hi)))
        if lo_w:
            assert bounds == (float(lo_w), float(hi_w)), names
        for name in re.findall(r"`([^`]+)`", names):
            stated[name.removeprefix("targets[i].")] = bounds
    assert stated.keys() == by_source.keys()
    for source, bounds in stated.items():
        assert bounds == pytest.approx(by_source[source], rel=1e-12), source


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
    printed = capsys.readouterr().out.splitlines()
    for label, line in zip(labels, printed, strict=True):
        assert line == f"{label} {len(region.index[label])}"
    hull = region.index["hull"]
    np.testing.assert_array_equal(namespace["hull_est"], region.r_est[hull])
    np.testing.assert_array_equal(namespace["hull_com"], region.r_com[hull])
    # every grid split has a row, and the waterfill curve is the
    # self-consistent ones
    grid = waterfill_grid(namespace["lb"], default_alpha_grid(400))
    np.testing.assert_array_equal(region.r_est[region.grid_rows], grid.r_est)
    np.testing.assert_array_equal(region.r_com[region.grid_rows], grid.r_com_total)
    waterfill = region.index["waterfill"]
    np.testing.assert_array_equal(region.r_est[waterfill], grid.r_est[grid.self_consistent])
