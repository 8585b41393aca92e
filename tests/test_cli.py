import contextlib
import csv
import errno
import hashlib
import io
import json
import math
import os
import re
import runpy
import signal
import sys
import tempfile
import time
import tracemalloc
import xml.etree.ElementTree as ET
from collections.abc import Iterator
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    assert_no_child_left,
    needs_two_cores,
    region_csv_text,
    with_second_target,
)
import mudr
from mudr import bounds, cli, emit, mcsim, scenario as sc, waterfill
from mudr.emit import render_svgs
from mudr.scenario import bundled_scenario_path

SVG_NS = {"svg": "http://www.w3.org/2000/svg"}
ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_variant(tmp_path: Path, name: str, **changes) -> Path:
    raw = json.loads(bundled_scenario_path().read_text())
    for dotted, value in changes.items():
        node = raw
        *parents, leaf = dotted.split(".")
        for key in parents:
            node = node[key] if not key.isdigit() else node[int(key)]
        if leaf.isdigit():
            node[int(leaf)] = value
        else:
            node[leaf] = value
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


# --- region ---------------------------------------------------------------------


def test_region_outputs(tmp_path):
    rc = run("region", "--scenario", bundled_scenario_path(), "--alpha-points", 50,
             "--out", tmp_path)
    assert rc == 0
    rows = read_csv(tmp_path / "region.csv")
    labels = {r["curve_label"] for r in rows}
    assert labels == {"outer", "sic", "interpolated", "waterfill", "hull"}
    wf_rows = [r for r in rows if r["curve_label"] == "waterfill"]
    assert len(wf_rows) == 50
    assert all(r["alpha_or_nan"] != "nan" for r in wf_rows)
    assert any(r["self_consistent"] == "false" for r in wf_rows)
    other = [r for r in rows if r["curve_label"] != "waterfill"]
    assert all(r["alpha_or_nan"] == "nan" for r in other)

    tree = ET.parse(tmp_path / "region.svg")
    paths = tree.getroot().findall(".//svg:path", SVG_NS)
    assert sorted(p.get("id") for p in paths) == sorted(labels)

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "region"
    assert set(manifest["outputs"]) == {"region.csv", "region.svg", "manifest.json"}
    for name in manifest["outputs"]:
        assert (tmp_path / name).exists()


def test_region_single_alpha_point(tmp_path):
    rc = run("region", "--scenario", bundled_scenario_path(), "--alpha-points", 1,
             "--out", tmp_path)
    assert rc == 0
    rows = read_csv(tmp_path / "region.csv")
    assert len([r for r in rows if r["curve_label"] == "waterfill"]) == 1


def test_region_quiet_radar_collapses_to_axis(tmp_path):
    scenario = write_variant(
        tmp_path, "quiet.json", **{"targets.0.process_range_std_m": 0}
    )
    out = tmp_path / "out"
    assert run("region", "--scenario", scenario, "--alpha-points", 20, "--out", out) == 0
    rows = read_csv(out / "region.csv")
    for r in rows:
        if r["curve_label"] in ("waterfill", "interpolated"):
            assert float(r["r_est_bps"]) == 0.0


def test_two_target_region_and_sweep_sum_over_targets(tmp_path, capsys):
    raw = json.loads(bundled_scenario_path().read_text())
    second = {"range_m": 150e3, "cross_section_m2": 5, "process_range_std_m": 50}
    scenario = write_variant(tmp_path, "two.json", targets=[*raw["targets"], second])
    two = sc.load_scenario(scenario)
    out = tmp_path / "region"
    assert run("region", "--scenario", scenario, "--alpha-points", 50, "--out", out) == 0
    outer = [r for r in read_csv(out / "region.csv") if r["curve_label"] == "outer"]
    assert float(outer[1]["r_est_bps"]) == bounds.est_outer_rate(
        sc.derive_link_budget(two)
    )
    # a swept target field is set on every target
    out = tmp_path / "sweep"
    assert run("sweep", "--scenario", scenario, "--vary", "cross_section_m2",
               "--values", "1,20", "--alpha-points", 10, "--out", out) == 0
    for row, value in zip(read_csv(out / "sweep_summary.csv"), (1.0, 20.0)):
        lb = sc.derive_link_budget(sc.replace_scenario_field(two, "cross_section_m2", value))
        assert float(row["est_outer_rate_bps"]) == bounds.est_outer_rate(lb)
    # the crb and residual experiments test single-target claims
    capsys.readouterr()
    for experiment in ("crb", "residual"):
        rc = run("validate", "--scenario", scenario, "--experiment", experiment,
                 "--trials", 10, "--seed", 0, "--out", tmp_path / "validate")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("precondition not met: ") and "single target; got 2" in err


def test_region_invalid_scenario_exit_2(tmp_path, capsys):
    cases = [
        ("radar.duty_factor", 0, "duty_factor"),
        ("targets.0.process_range_std_m", math.nan, "targets[0].process_range_std_m"),
        ("bandwidth_hz", math.inf, "bandwidth_hz"),
        ("radar.power_w", -math.inf, "radar.power_w"),
        ("radar.powr_w", 5, "radar.powr_w"),  # unknown key
        # finite but outside the field's valid range
        ("bandwidth_hz", 1e200, "bandwidth_hz"),
        ("bandwidth_hz", 1e-300, "bandwidth_hz"),
        ("center_freq_hz", 1e-300, "center_freq_hz"),
        ("comms.range_m", 1e200, "comms.range_m"),
        ("comms.range_m", 1e-300, "comms.range_m"),
        ("targets.0.range_m", 1e150, "targets[0].range_m"),
        ("targets.0.range_m", 1e-300, "targets[0].range_m"),
        ("targets.0.process_range_std_m", 1e200, "targets[0].process_range_std_m"),
        ("radar.duty_factor", 1.0, "duty_factor"),  # no self-consistent split
    ]
    for i, (field, value, named) in enumerate(cases):
        scenario = write_variant(tmp_path, f"bad{i}.json", **{field: value})
        rc = run("region", "--scenario", scenario, "--alpha-points", 5,
                 "--out", tmp_path / "out")
        assert rc == 2
        assert named in capsys.readouterr().err
    # a key given twice fails, not read as its last value
    twice = tmp_path / "twice.json"
    twice.write_text(bundled_scenario_path().read_text().replace(
        '"power_w": 1000,', '"power_w": 1e9, "power_w": 1000,'))
    assert run("region", "--scenario", twice, "--alpha-points", 5, "--out", tmp_path / "out") == 2
    assert "radar.power_w' is given more than once" in capsys.readouterr().err
    for points in (0, cli.MAX_ALPHA_POINTS + 1):
        rc = run("region", "--scenario", bundled_scenario_path(), "--alpha-points",
                 points, "--out", tmp_path / "out")
        assert rc == 2
        assert "--alpha-points" in capsys.readouterr().err


def test_region_missing_file_exit_2(tmp_path, capsys):
    assert run("region", "--scenario", tmp_path / "nope.json", "--out", tmp_path) == 2
    # a directory and a file that is not UTF-8 fail at the read, naming the path
    directory = tmp_path / "scenario_dir"
    directory.mkdir()
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"bandwidth_hz": 5e6, "caf\xe9": 1}\xff')
    for path in (directory, latin1):
        capsys.readouterr()
        assert run("region", "--scenario", path, "--out", tmp_path / "out") == 2
        assert str(path) in capsys.readouterr().err


def test_region_write_failure_exit_3(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    rc = run("region", "--scenario", bundled_scenario_path(),
             "--alpha-points", 5, "--out", blocker / "sub")
    assert rc == 3


def test_write_failure_while_streaming_exits_3_without_temp(tmp_path, monkeypatch):
    # the files are made as they are written: a failure in the middle of
    # region.csv's blocks, or at the rename of region.svg after region.csv
    # is on disk, still exits 3, leaves no temp file and writes no manifest
    records_bytes, calls = emit.records_bytes, []

    def disk_full_at_the_second_block(records):
        calls.append(1)
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return records_bytes(records)

    argv = ("region", "--scenario", bundled_scenario_path(), "--alpha-points", 40)
    with monkeypatch.context() as patch:
        patch.setattr(emit, "records_bytes", disk_full_at_the_second_block)
        assert run(*argv, "--out", tmp_path / "csv") == 3
    assert list((tmp_path / "csv").iterdir()) == []
    (tmp_path / "svg" / "region.svg").mkdir(parents=True)
    assert run(*argv, "--out", tmp_path / "svg") == 3
    assert sorted(p.name for p in (tmp_path / "svg").iterdir()) == ["region.csv", "region.svg"]


# --- pentagon --------------------------------------------------------------------


def test_pentagon_zero_db(tmp_path):
    assert run("pentagon", 0.0, 0.0, "--out", tmp_path) == 0
    rows = read_csv(tmp_path / "pentagon.csv")
    vertices = {r["label"]: (float(r["r1_bits"]), float(r["r2_bits"]))
                for r in rows if r["label"].startswith("vertex")}
    assert vertices["vertex_a"] == pytest.approx((math.log2(1.5), 1.0), rel=1e-12)
    assert vertices["vertex_b"] == pytest.approx((1.0, math.log2(1.5)), rel=1e-12)

    # re-read the CSV and confirm both vertices satisfy all three bounds
    r1_max = r2_max = 1.0
    sum_max = math.log2(3)
    for r1, r2 in vertices.values():
        assert r1 <= r1_max * (1 + 1e-12)
        assert r2 <= r2_max * (1 + 1e-12)
        assert r1 + r2 <= sum_max * (1 + 1e-12)

    tree = ET.parse(tmp_path / "pentagon.svg")
    ids = {p.get("id") for p in tree.getroot().findall(".//svg:path", SVG_NS)}
    assert ids == {"boundary", "r1_max", "r2_max", "sum_max"}


def test_pentagon_degenerate_collapse(tmp_path):
    assert run("pentagon", -300.0, 0.0, "--out", tmp_path) == 0
    rows = read_csv(tmp_path / "pentagon.csv")
    va = next(r for r in rows if r["label"] == "vertex_a")
    assert float(va["r1_bits"]) == pytest.approx(0.0, abs=1e-12)
    assert float(va["r2_bits"]) == pytest.approx(1.0, rel=1e-12)


def test_pentagon_rejects_bad_flags(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("pentagon", "not-a-number", 0.0, "--out", tmp_path)
    assert exc.value.code == 2


def test_pentagon_snr_outside_range_exit_2(tmp_path, capsys):
    lo, hi = cli.SNR_DB_RANGE
    cases = [
        (4000.0, 3.0, "snr1_db"),  # 10**400 overflowed in db_to_linear
        (3080.0, 3080.0, "snr1_db"),  # 1 + snr1 + snr2 overflowed to inf
        (0.0, 3080.0, "snr2_db"),
        (hi * (1 + 1e-15), 0.0, "snr1_db"),
        (0.0, lo * (1 + 1e-15), "snr2_db"),
        (math.nan, 0.0, "snr1_db"),
        (0.0, math.inf, "snr2_db"),
    ]
    for i, (snr1, snr2, named) in enumerate(cases):
        out = tmp_path / f"bad{i}"
        assert run("pentagon", "--out", out, "--", repr(snr1), repr(snr2)) == 2
        assert f"{named} = " in capsys.readouterr().err
        assert not (out / "pentagon.csv").exists()
    # the range's corners are valid and give finite coordinates
    for snr1, snr2 in ((hi, hi), (lo, hi), (lo, lo)):
        out = tmp_path / f"ok_{snr1}_{snr2}"
        assert run("pentagon", "--out", out, "--", snr1, snr2) == 0
        for row in read_csv(out / "pentagon.csv"):
            assert math.isfinite(float(row["r1_bits"]))
            assert math.isfinite(float(row["r2_bits"]))


# --- validate ---------------------------------------------------------------------


def test_validate_crb_pass(tmp_path):
    base = json.loads(bundled_scenario_path().read_text())
    # rescale radar power for integrated SNR 1000
    scenario = write_variant(
        tmp_path, "hot.json", **{"radar.power_w": base["radar"]["power_w"] * 1000 / 0.729}
    )
    out = tmp_path / "out"
    rc = run("validate", "--scenario", scenario, "--experiment", "crb",
             "--trials", 600, "--seed", 42, "--out", out)
    assert rc == 0
    report = json.loads((out / "validate_crb.json").read_text())
    assert report["pass"] is True
    assert report["seed"] == 42
    assert report["trials"] == 600


@pytest.mark.parametrize(
    "isnr", [mcsim.CRB_MIN_ISNR * (1 - 1e-6), mcsim.CRB_MAX_ISNR * (1 + 1e-6)],
    ids=["below", "above"],
)
def test_validate_crb_outside_isnr_window_exit_2(tmp_path, capsys, isnr):
    # the integrated SNR scales with the time-bandwidth product
    base = sc.load_scenario(bundled_scenario_path())
    tb = base.time_bandwidth * isnr / mcsim.integrated_snr(sc.derive_link_budget(base))
    scenario = write_variant(tmp_path, "edge.json", **{"radar.time_bandwidth": tb})
    rc = run("validate", "--scenario", scenario, "--experiment", "crb",
             "--trials", 100, "--seed", 1, "--out", tmp_path / "out")
    assert rc == 2
    assert "integrated SNR" in capsys.readouterr().err


def test_validate_crb_low_isnr_exit_2(tmp_path, capsys):
    rc = run("validate", "--scenario", bundled_scenario_path(), "--experiment", "crb",
             "--trials", 100, "--seed", 1, "--out", tmp_path)
    assert rc == 2
    assert "integrated SNR" in capsys.readouterr().err
    for experiment in ("crb", "residual", "gamma"):
        for trials in (0, cli.MAX_TRIALS + 1):
            rc = run("validate", "--scenario", bundled_scenario_path(), "--experiment",
                     experiment, "--trials", trials, "--seed", 1, "--out", tmp_path)
            assert rc == 2
            assert "--trials" in capsys.readouterr().err
    rc = run("validate", "--scenario", bundled_scenario_path(), "--experiment",
             "gamma", "--trials", 10, "--seed", -1, "--out", tmp_path)
    assert rc == 2
    assert "--seed" in capsys.readouterr().err


def test_validate_residual_premise_violation_exit_2(tmp_path, capsys):
    # 3 km process std puts sigma_tau*B at 0.1*... far beyond the premise
    scenario = write_variant(
        tmp_path, "wild.json", **{"targets.0.process_range_std_m": 15000.0}
    )
    rc = run("validate", "--scenario", scenario, "--experiment", "residual",
             "--trials", 100, "--seed", 1, "--out", tmp_path)
    assert rc == 2
    assert "sigma_tau_proc" in capsys.readouterr().err


def test_validate_residual_pass(tmp_path):
    # sigma_tau * B = 0.05 -> process std = 0.05/B * c/2 = 1.499 m
    scenario = write_variant(
        tmp_path, "small.json", **{"targets.0.process_range_std_m": 1.4989623}
    )
    out = tmp_path / "out"
    rc = run("validate", "--scenario", scenario, "--experiment", "residual",
             "--trials", 500, "--seed", 42, "--out", out)
    assert rc == 0
    report = json.loads((out / "validate_residual.json").read_text())
    assert report["pass"] is True


def test_validate_gamma_pass_and_seed_notice(tmp_path, capsys):
    rc = run("validate", "--scenario", bundled_scenario_path(), "--experiment",
             "gamma", "--trials", 200, "--out", tmp_path)
    assert rc == 0
    assert "seed 0" in capsys.readouterr().out
    report = json.loads((tmp_path / "validate_gamma.json").read_text())
    assert report["seed"] == 0
    assert report["pass"] is True


def test_validate_failure_exit_1(tmp_path, monkeypatch):
    # force a failing tolerance check by shrinking it
    real = mcsim.gamma_experiment

    def strict(trials, seed):
        rep = real(trials, seed)
        return replace(rep, tolerance=1e-9)

    monkeypatch.setattr(cli.mcsim, "gamma_experiment", strict)
    rc = run("validate", "--scenario", bundled_scenario_path(), "--experiment",
             "gamma", "--trials", 20, "--seed", 0, "--out", tmp_path)
    assert rc == 1
    report = json.loads((tmp_path / "validate_gamma.json").read_text())
    assert report["pass"] is False


# --- sweep -----------------------------------------------------------------------


def test_sweep_radar_power_monotone(tmp_path):
    out = tmp_path / "out"
    rc = run("sweep", "--scenario", bundled_scenario_path(), "--vary",
             "radar_power_w", "--values", "100,1000,10000",
             "--alpha-points", 10, "--out", out)
    assert rc == 0
    rows = read_csv(out / "sweep_summary.csv")
    rates = [float(r["est_outer_rate_bps"]) for r in rows]
    assert rates == sorted(rates) and rates[0] < rates[-1]
    for i in range(3):
        assert (out / f"sweep_{i:03d}_region.csv").exists()
        assert (out / f"sweep_{i:03d}_region.svg").exists()


def test_sweep_of_the_scenario_value_writes_the_region_files(tmp_path):
    # table2's own radar power: both commands print one region through
    # emit.region_files, so its files are the same bytes under both names
    assert run("region", "--scenario", bundled_scenario_path(), "--alpha-points", 400,
               "--out", tmp_path / "region") == 0
    assert run("sweep", "--scenario", bundled_scenario_path(), "--vary", "radar_power_w",
               "--values", "1000.0", "--alpha-points", 400, "--out", tmp_path / "sweep") == 0
    for suffix in ("csv", "svg"):
        region = (tmp_path / "region" / f"region.{suffix}").read_bytes()
        assert (tmp_path / "sweep" / f"sweep_000_region.{suffix}").read_bytes() == region


def test_sweep_zero_process_std_sic_equals_outer(tmp_path):
    out = tmp_path / "out"
    rc = run("sweep", "--scenario", bundled_scenario_path(), "--vary",
             "process_range_std_m", "--values", "0,100",
             "--alpha-points", 8, "--out", out)
    assert rc == 0
    rows = read_csv(out / "sweep_summary.csv")
    quiet = rows[0]
    assert float(quiet["sic_comms_rate_bps"]) == pytest.approx(
        float(quiet["comms_outer_rate_bps"]), rel=1e-12
    )
    noisy = rows[1]
    assert float(noisy["sic_comms_rate_bps"]) < float(noisy["comms_outer_rate_bps"])


def test_sweep_comms_power_log_law(tmp_path):
    out = tmp_path / "out"
    rc = run("sweep", "--scenario", bundled_scenario_path(), "--vary",
             "comms_power_w", "--values", "10,20,40", "--alpha-points", 5,
             "--out", out)
    assert rc == 0
    rows = read_csv(out / "sweep_summary.csv")
    rates = [float(r["comms_outer_rate_bps"]) for r in rows]
    bandwidth = 5e6
    for lo, hi in zip(rates, rates[1:]):
        assert 0 < hi - lo < bandwidth  # under 1 bit/s/Hz gained per doubling


def test_sweep_unknown_field_exit_2(tmp_path, capsys):
    rc = run("sweep", "--scenario", bundled_scenario_path(), "--vary", "nope",
             "--values", "1", "--out", tmp_path)
    assert rc == 2
    assert "valid fields" in capsys.readouterr().err
    for value in ("inf", "nan", "-inf"):
        rc = run("sweep", "--scenario", bundled_scenario_path(), "--vary",
                 "radar_power_w", "--values", f"100,{value}", "--out", tmp_path)
        assert rc == 2
        assert "radar_power_w" in capsys.readouterr().err
    # every entry must be a number, empty ones included
    for values in ("1,abc", "1,,2", "1,", ""):
        out = tmp_path / "values"
        rc = run("sweep", "--scenario", bundled_scenario_path(), "--vary",
                 "radar_power_w", "--values", values, "--out", out)
        assert rc == 2
        assert "--values" in capsys.readouterr().err
        assert not out.exists()
    # a value outside the field's valid range names the varied field
    for field, value in (("radar_antenna_gain_lin", "1e-200"),
                         ("cross_section_m2", "1e-320"),
                         ("duty_factor", "0.5,1.0")):
        rc = run("sweep", "--scenario", bundled_scenario_path(), "--vary", field,
                 "--values", value, "--alpha-points", 5, "--out", tmp_path)
        assert rc == 2
        assert f"sweep field '{field}'" in capsys.readouterr().err
    for points in (0, cli.MAX_ALPHA_POINTS + 1):
        rc = run("sweep", "--scenario", bundled_scenario_path(), "--vary",
                 "radar_power_w", "--values", "100", "--alpha-points", points,
                 "--out", tmp_path)
        assert rc == 2
        assert "--alpha-points" in capsys.readouterr().err


def test_sweep_above_the_point_bound_exit_2(tmp_path, monkeypatch, capsys):
    variants = count_calls(monkeypatch, cli, "replace_scenario_field")
    regions = count_calls(monkeypatch, bounds, "rate_region")
    # 5 values at 10^6 points: 5 * 10^6 grid points, above the 4 * 10^6 bound
    out = tmp_path / "largest"
    rc = run("sweep", "--scenario", bundled_scenario_path(), "--vary", "radar_power_w",
             "--values", "1,2,3,4,5", "--alpha-points", 1000000, "--out", out)
    assert rc == 2
    err = capsys.readouterr().err
    assert "--values" in err and "5000000" in err
    assert not out.exists()
    assert variants[0] == regions[0] == 0
    # a sweep at the bound runs
    monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 20)
    for values, rc in (("100,1000", 0), ("100,1000,10000", 2)):
        assert run("sweep", "--scenario", bundled_scenario_path(), "--vary", "radar_power_w",
                   "--values", values, "--alpha-points", 10, "--out", tmp_path / values) == rc


# --- determinism and env var -------------------------------------------------------


def test_out_dir_from_env(tmp_path, monkeypatch):
    out = tmp_path / "from_env"
    monkeypatch.setenv("MUDR_OUT", str(out))
    assert run("pentagon", 3.0, 5.0) == 0
    assert (out / "pentagon.csv").exists()


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("region", "--scenario", bundled_scenario_path(),
                   "--alpha-points", 40, "--out", out) == 0
        assert run("validate", "--scenario", bundled_scenario_path(),
                   "--experiment", "gamma", "--trials", 50, "--seed", 9,
                   "--out", out) == 0
    for name in ("region.csv", "region.svg", "validate_gamma.json", "manifest.json"):
        payload = (a / name).read_bytes()
        assert payload == (b / name).read_bytes()
        assert b"\r" not in payload  # LF line endings only


@pytest.mark.parametrize("case", ["table2", "two_targets", "hot_radar"])
def test_region_files_equal_per_curve_oracle(table2_scenario, case):
    region, grid = region_of(table2_scenario, case)
    cloud_points = 2 + len(region.index["waterfill"])
    if case == "hot_radar":
        assert len(region.index["hull"]) < cloud_points  # the chain's fallback
    else:
        assert len(region.index["hull"]) == cloud_points  # the fast path
    files = region_files(region)
    assert b"".join(files["region.csv"]) == region_csv_text(region, grid).encode()
    # the SVG draws its curves from the region's point table; a table in
    # which each curve has its own rows, no point shared, gives the same bytes
    sizes = [len(rows) for rows in region.index.values()]
    own_rows = np.concatenate(list(region.index.values()))
    assert files["region.svg"] == list(render_svgs([(
        [(label, np.arange(end - size, end))
         for label, size, end in zip(region.index, sizes, np.cumsum(sizes))],
        "estimation rate (bits/s)",
        "communications rate (bits/s)",
        (region.r_est[own_rows], region.r_com[own_rows]),
    )]))


# sha256 of region.csv and region.svg since every rate takes its log in
# the log1p form (table2 unless a field is set)
REGION_DIGESTS = {
    ("table2", 1): (
        "db491906e1be36742b86d19b1998f178a3cf0675eb08feae0210e8a24a564d13",
        "cb4afa4e7852b85403a10ba19be1970c6f05e625636c89556efbb9420080ec7e",
    ),
    ("table2", 2): (
        "68328705c0c9639037e689ee77750ee781f7e881d307e0d50fff2a5fba6666d8",
        "cb4afa4e7852b85403a10ba19be1970c6f05e625636c89556efbb9420080ec7e",
    ),
    ("table2", 7): (
        "fc70bd183866a164c5d4ab5af7dc44023ef3fdae6c2df39443737d01bc36dc2a",
        "141c692182ccf4cf5d7170a3c8b072b911cfa2a62ff1dcb525086c9ca9166940",
    ),
    ("table2", 400): (
        "d638c78e39d562af27d47db086e1eba1a06131470d16e8a66568ef5d529f8e34",
        "8de5b89205b72c6e22ec1315b95c07c70d0e71b124932416d4b69478799ccb55",
    ),
    ("table2", 100000): (
        "4853d370376c8759b28e57590cb2cca316a12348e361e9900cdd357ff54693e0",
        "6a366cd5177ee0c0f311bfa0bffc753070bd11e839a1a4e5e39e8a49632012c8",
    ),
    ("two_targets", 400): (
        "dfc4a59c40c92bf1b1e7b0f4ea5f214dfdeb15df52fdab681c071d1615f41e42",
        "f057e74af0123c5ea07314dc03c185b94f5f17df8f6bda391d0e0463d40ede1c",
    ),
    ("radar_1e5_w", 400): (
        "99dfd1c8a93629d878849a175146032eec9a85dba7f84a4083ea8d458c99f501",
        "ae8d2ae24e5f06730f718464eaf70bce6a6939baeb327dbf1daf9370b20e2efb",
    ),
    ("radar_1e-3_w", 400): (
        "392245ce9e24eb053e892c32a1d758a30938d7275a42750cb9da77c11f779314",
        "43660d47ecb8adddc107839ac183c6477d115971c296616e68f090f12ce304d6",
    ),
}


@pytest.mark.parametrize("case, points", sorted(REGION_DIGESTS))
def test_region_bytes_equal_pinned_digests(tmp_path, case, points):
    fields = {
        "table2": {},
        "two_targets": {"targets": [*json.loads(bundled_scenario_path().read_text())["targets"],
                                    {"range_m": 150e3, "cross_section_m2": 5,
                                     "process_range_std_m": 50}]},
        "radar_1e5_w": {"radar.power_w": 1e5},
        "radar_1e-3_w": {"radar.power_w": 1e-3},
    }[case]
    scenario = write_variant(tmp_path, "scenario.json", **fields)
    assert run("region", "--scenario", scenario, "--alpha-points", points,
               "--out", tmp_path / "out") == 0
    digests = tuple(hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
                    for name in ("region.csv", "region.svg"))
    assert digests == REGION_DIGESTS[case, points]


# sha256 of the files of the 3-value CI sweep (the manifest, which
# names the scenario's path, is left out); sweep_001 is table2 at 400
# points, so its files equal REGION_DIGESTS' ("table2", 400)
SWEEP_DIGESTS = {
    "sweep_000_region.csv": "392245ce9e24eb053e892c32a1d758a30938d7275a42750cb9da77c11f779314",
    "sweep_000_region.svg": "43660d47ecb8adddc107839ac183c6477d115971c296616e68f090f12ce304d6",
    "sweep_001_region.csv": "d638c78e39d562af27d47db086e1eba1a06131470d16e8a66568ef5d529f8e34",
    "sweep_001_region.svg": "8de5b89205b72c6e22ec1315b95c07c70d0e71b124932416d4b69478799ccb55",
    "sweep_002_region.csv": "99dfd1c8a93629d878849a175146032eec9a85dba7f84a4083ea8d458c99f501",
    "sweep_002_region.svg": "ae8d2ae24e5f06730f718464eaf70bce6a6939baeb327dbf1daf9370b20e2efb",
    "sweep_summary.csv": "15ef854514bbbcda9df2b08bb2c637e1404d982d5eec3b079dfe7b030dcf0f5a",
}


def test_sweep_bytes_equal_pinned_digests(tmp_path):
    assert_ci_sweep_bytes(tmp_path / "sweep")


def assert_ci_sweep_bytes(out: Path) -> None:
    """Run the CI sweep into ``out``: its files have ``SWEEP_DIGESTS``."""
    # radar powers over 8 decades: the regions' floats, printed together,
    # span more decades than any one region's
    assert run("sweep", "--scenario", bundled_scenario_path(), "--vary", "radar_power_w",
               "--values", "0.001,1000,100000", "--alpha-points", 400, "--out", out) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in SWEEP_DIGESTS}
    assert digests == SWEEP_DIGESTS
    assert sorted(p.name for p in out.iterdir()) == sorted([*SWEEP_DIGESTS, "manifest.json"])


# sha256 of the manifests of the CI sweep and of `pentagon 10 3`, each run
# from the repository root with the scenario path relative to it
CI_MANIFEST_DIGESTS = {
    "sweep": "5df459c3b74e99eb9b48b0cde0049c1bbcf71e44cb7dceb40eb20048f8586700",
    "pentagon": "48141ba7da8f4ef511644df528de55e6333f9f10794c334d305135c78cb9b976",
}

# sha256 of the other files of `pentagon 10 3`
PENTAGON_DIGESTS = {
    "pentagon.csv": "8e74b8f83e9daa3873b6fcee0dd6b57a4a8bb0286ae7ed34511c9e7484dc34b7",
    "pentagon.svg": "43f7ac27488f22218e7f316b0aa0741dad9b7dec177c77deeab3b3b07484b7cb",
}


def test_ci_manifests_equal_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run("sweep", "--scenario", "src/mudr/data/table2.json", "--vary", "radar_power_w",
               "--values", "0.001,1000,100000", "--alpha-points", 400,
               "--out", tmp_path / "sweep") == 0
    assert run("pentagon", 10, 3, "--out", tmp_path / "pentagon") == 0
    digests = {command: hashlib.sha256((tmp_path / command / "manifest.json").read_bytes())
               .hexdigest() for command in CI_MANIFEST_DIGESTS}
    assert digests == CI_MANIFEST_DIGESTS
    digests = {name: hashlib.sha256((tmp_path / "pentagon" / name).read_bytes()).hexdigest()
               for name in PENTAGON_DIGESTS}
    assert digests == PENTAGON_DIGESTS


def test_region_figure_equals_pinned_digests(tmp_path, monkeypatch):
    # the script's default 400-point table2 region
    script = runpy.run_path(str(SCRIPTS / "make_region_figure.py"))
    monkeypatch.setattr(sys, "argv", ["make_region_figure.py", str(tmp_path)])
    assert script["main"]() == 0
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("region.csv", "region.svg"))
    assert digests == REGION_DIGESTS["table2", 400]


def test_failed_sweep_writes_nothing(tmp_path, capsys):
    # the last value passes the field's range check, but at the default grid
    # (alpha >= 1e-4) no split is self-consistent for a duty factor above
    # 1 - 1e-4, so it fails after every earlier region has been computed
    out = tmp_path / "sweep"
    out.mkdir()
    rc = run("sweep", "--scenario", bundled_scenario_path(), "--vary", "duty_factor",
             "--values", "0.01,0.5,0.99995", "--out", out)
    assert rc == 2
    err = capsys.readouterr().err
    assert "sweep field 'duty_factor' = 0.99995" in err and "self-consistent" in err
    assert list(out.iterdir()) == []


def test_region_duty_factor_fails_after_the_first_block(tmp_path, capsys, monkeypatch):
    # no split is self-consistent once the first one is not: the region
    # stops after one waterfill block of three, naming the field and its limit
    filled = count_calls(monkeypatch, waterfill, "waterfill_grid")
    scenario = write_variant(tmp_path, "duty.json", **{"radar.duty_factor": 1.0})
    rc = run("region", "--scenario", scenario, "--alpha-points", 3 * bounds._REGION_BLOCK,
             "--out", tmp_path / "out")
    assert rc == 2
    err = capsys.readouterr().err
    assert "radar.duty_factor = 1.0" in err and "0.9999" in err
    assert filled[0] == 1
    assert not (tmp_path / "out").exists()


def test_dense_region_streams_its_files_under_a_traced_peak(tmp_path, monkeypatch):
    # the emitters' tables are built on first use: build them untraced
    argv = ("region", "--scenario", bundled_scenario_path(), "--alpha-points")
    assert run(*argv, 50, "--out", tmp_path / "warm") == 0
    data_types = {}
    write = cli.atomic_write_text

    def recorded_write(path, data):
        data_types[path.name] = type(data)  # not the data: it would stay alive
        write(path, data)

    monkeypatch.setattr(cli, "atomic_write_text", recorded_write)
    tracemalloc.start()
    try:
        assert run(*argv, 100000, "--out", tmp_path / "dense") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # region.csv reaches the writer as blocks still to be made, not as
    # bytes or a list of them
    assert issubclass(data_types["region.csv"], Iterator)
    assert not issubclass(data_types["region.csv"], (bytes, list))
    # The traced peak reads 16.2 MB on numpy 2.4 (the waterfill grid and
    # the hull, not the files), against 28.6 MB when every file was made
    # before the first write. The bound was set 20% over an earlier 18.8 MB
    # and stays there, since the peak on the numpy 2.0 floor is unmeasured.
    assert peak < 22.5e6, peak / 1e6


@pytest.mark.parametrize("budget, groups",
                         [(emit._SWEEP_ROWS, 1), (2 * 407, 2), (1000, 2), (407, 3)])
def test_sweep_groups_keep_bytes(tmp_path, monkeypatch, budget, groups):
    # each region of the CI sweep has 407 table rows (7 vertex rows and 400
    # splits): a budget of 814 or 1000 rows prints its first two regions
    # together and the third alone, one of 407 rows prints each region alone
    printed = count_calls(monkeypatch, emit, "repr_records")
    monkeypatch.setattr(emit, "_SWEEP_ROWS", budget)
    assert_ci_sweep_bytes(tmp_path / "sweep")
    assert printed[0] == 3 * groups  # the alpha grid, r_est and r_com per group


# sha256 of the three 10k-trial, seed-42 reports of scripts/run_validations.py
VALIDATE_DIGESTS = {
    "crb": "387f352f83de356fb0ccfb3796c0e9d27a5eeb9b8b1c7d269cf7eba6522f9d00",
    "residual": "59f6cd05c1ace04b47793f4dac2faa4c5ad0bcc4adcfc089f68e2efd48b1a819",
    "gamma": "5a9d59c6d1e19c46640d9dadfc46013c2c8e6e3331c34e08f75d88ed8824be0e",
}


def test_validation_reports_equal_pinned_digests(tmp_path, monkeypatch):
    script = runpy.run_path(str(SCRIPTS / "run_validations.py"))
    monkeypatch.setattr(sys, "argv", ["run_validations.py", str(tmp_path), "10000", "42"])
    assert script["main"]() == 0
    digests = {e: hashlib.sha256((tmp_path / e / f"validate_{e}.json").read_bytes()).hexdigest()
               for e in VALIDATE_DIGESTS}
    assert digests == VALIDATE_DIGESTS
    # the crb run splits its trials across the usable cores, so these
    # digests hold for several workers and, under taskset -c 0, for one
    workers = json.loads((tmp_path / "crb" / "manifest.json").read_text())["counters"]["workers"]
    assert workers == mcsim.trial_workers(10000)
    if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2:
        assert workers >= 2


# --- region.csv blocks and worker processes ----------------------------------------

#: The alpha grid of ``region_of``'s regions.
REGION_ALPHAS = waterfill.default_alpha_grid(400)


def region_files(region: bounds.RateRegion) -> dict:
    """``region.csv`` and ``region.svg`` of a ``region_of`` region as
    ``region`` writes them: name -> the list of its blocks."""
    files = emit.region_files(REGION_ALPHAS, [("region", region)])
    return {name: list(data) for name, data in files}


def region_of(
    table2_scenario, case: str
) -> tuple[bounds.RateRegion, waterfill.WaterfillGrid]:
    """The region of ``case`` over ``REGION_ALPHAS``, and the waterfill
    grid it came from."""
    if case == "two_targets":
        lb = with_second_target(table2_scenario)
    else:
        variant = table2_scenario
        if case == "hot_radar":
            variant = sc.replace_scenario_field(variant, "radar_power_w", 1e5)
        lb = sc.derive_link_budget(variant)
    return bounds.rate_region(lb, REGION_ALPHAS), waterfill.waterfill_grid(lb, REGION_ALPHAS)


@pytest.mark.parametrize("case", ["table2", "two_targets", "hot_radar"])
def test_region_csv_blocks_equal_one_block(table2_scenario, case, monkeypatch):
    region, grid = region_of(table2_scenario, case)
    if case == "hot_radar":
        # some splits are not self-consistent, and the hull drops points
        assert not region.self_consistent.all()
        assert len(region.index["hull"]) < 2 + len(region.index["waterfill"])
    one = region_files(region)["region.csv"]  # 400 rows: one block of rows and of values
    # the header, then one block per curve: outer, sic, interpolated,
    # waterfill and hull
    assert len(one) == 6
    # blocks of 64 rows and 48 values: blocks that span decades, and hull
    # rows gathered across blocks
    monkeypatch.setattr(emit, "_CSV_BLOCK", 64)
    monkeypatch.setattr(emit, "_REPR_BLOCK", 48)
    blocks = region_files(region)["region.csv"]
    assert len(blocks) > len(one)
    assert b"".join(blocks) == b"".join(one) == region_csv_text(region, grid).encode()


def assert_two_worker_validate_exits_4(tmp_path, monkeypatch, capsys, *messages):
    """``validate`` split over two workers exits 4 with one ``error:`` line
    holding every one of ``messages``, writes no manifest and leaves no
    child."""
    monkeypatch.setattr(mcsim, "trial_workers", lambda trials: 2)
    capsys.readouterr()
    argv = ("validate", "--scenario", bundled_scenario_path(), "--experiment",
            "gamma", "--trials", 2 * mcsim._SEED_BLOCK + 17, "--seed", 0)
    out = tmp_path / "validate"
    assert run(*argv, "--out", out) == 4
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("error: ")
    assert all(message in err[-1] for message in messages), err[-1]
    assert not (out / "manifest.json").exists()
    assert_no_child_left()


@needs_two_cores
def test_failed_worker_exits_4_without_manifest(tmp_path, monkeypatch, capsys):
    parent = os.getpid()
    real_gamma = mcsim._gamma_sqs

    def failing_gamma(seed, first, stop, out):
        if os.getpid() != parent:
            raise ValueError("kernel failed in the child")
        real_gamma(seed, first, stop, out)

    monkeypatch.setattr(mcsim, "_gamma_sqs", failing_gamma)
    assert_two_worker_validate_exits_4(tmp_path, monkeypatch, capsys, "failed in worker process")


@needs_two_cores
def test_killed_worker_exits_4_without_manifest(tmp_path, monkeypatch, capsys):
    # a child killed by a signal leaves its slice of the shared trial array
    # unwritten; the parent must fail before it reduces that slice
    parent = os.getpid()
    real_gamma = mcsim._gamma_sqs

    def killed_gamma(seed, first, stop, out):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        real_gamma(seed, first, stop, out)

    monkeypatch.setattr(mcsim, "_gamma_sqs", killed_gamma)
    stop = 2 * mcsim._SEED_BLOCK + 17
    first = stop // 2 // mcsim._CHUNK * mcsim._CHUNK
    assert_two_worker_validate_exits_4(
        tmp_path, monkeypatch, capsys, f"[{first}, {stop})", "exit code -9"
    )


@needs_two_cores
def test_unstartable_worker_exits_4_without_manifest(tmp_path, monkeypatch, capsys):
    def no_fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", no_fork)
    assert_two_worker_validate_exits_4(
        tmp_path, monkeypatch, capsys, "could not start a worker process"
    )


@needs_two_cores
def test_split_kills_started_workers_when_a_fork_fails(monkeypatch):
    parent, real_fork, forks = os.getpid(), os.fork, []

    def second_fork_fails():
        forks.append(os.getpid())
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    def body(first, stop, out):
        if os.getpid() != parent:
            time.sleep(60)  # ends in time only if the parent kills the child

    monkeypatch.setattr(mcsim, "trial_workers", lambda trials: 3)
    monkeypatch.setattr(os, "fork", second_fork_fails)
    began = time.monotonic()
    chunk = mcsim._CHUNK
    with pytest.raises(mcsim.WorkerError,
                       match=re.escape(f"[{2 * chunk}, {3 * chunk}) could not start")):
        mcsim._split_trials(body, 3 * chunk)
    assert time.monotonic() - began < 30
    assert forks == [parent, parent]
    assert_no_child_left()


# --- computed once ------------------------------------------------------------------


def count_calls(monkeypatch, module, name, *aliases):
    """Count calls of ``module.name``, patched under every module that looks
    it up by that name."""
    original = getattr(module, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for mod in (module, *aliases):
        monkeypatch.setattr(mod, name, counted)
    return calls


def record_kernel_grids(monkeypatch):
    """Grid size of every ``waterfill.waterfill_grid`` call."""
    original = waterfill.waterfill_grid
    sizes = []

    def recorded(*args, **kwargs):
        grid = original(*args, **kwargs)
        sizes.append(len(grid.alpha))
        return grid

    monkeypatch.setattr(waterfill, "waterfill_grid", recorded)
    return sizes


def test_region_evaluates_each_grid_point_once(tmp_path, monkeypatch):
    grids = record_kernel_grids(monkeypatch)
    variances = count_calls(monkeypatch, bounds, "int_plus_noise_variance", waterfill)
    rc = run("region", "--scenario", bundled_scenario_path(), "--alpha-points", 50,
             "--out", tmp_path)
    assert rc == 0
    assert grids == [50]  # one kernel call over the whole grid
    assert variances[0] <= 2  # one for the grid array, one for the sic rate


def test_sweep_runs_the_kernel_once_per_value(tmp_path, monkeypatch):
    grids = record_kernel_grids(monkeypatch)
    variances = count_calls(monkeypatch, bounds, "int_plus_noise_variance", waterfill)
    rc = run("sweep", "--scenario", bundled_scenario_path(), "--vary",
             "radar_power_w", "--values", "100,1000,10000", "--alpha-points", 30,
             "--out", tmp_path)
    assert rc == 0
    assert grids == [30, 30, 30]
    assert variances[0] <= 2 * 3


def test_region_and_sweep_manifest_counters(tmp_path):
    out = tmp_path / "region"
    assert run("region", "--scenario", bundled_scenario_path(), "--alpha-points", 50,
               "--out", out) == 0
    flags = [r["self_consistent"] for r in read_csv(out / "region.csv")
             if r["curve_label"] == "waterfill"]
    lb = sc.derive_link_budget(sc.load_scenario(bundled_scenario_path()))
    grid = waterfill.waterfill_grid(lb, waterfill.default_alpha_grid(50))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["counters"] == {
        "grid_points": 50,
        "not_self_consistent": flags.count("false"),
        "beta_clamped": sum(grid.beta_clamped.tolist()),
    }
    assert flags.count("false") > 0

    out = tmp_path / "sweep"
    assert run("sweep", "--scenario", bundled_scenario_path(), "--vary",
               "duty_factor", "--values", "0.01,0.5", "--alpha-points", 20,
               "--out", out) == 0
    counters = json.loads((out / "manifest.json").read_text())["counters"]
    assert [c["grid_points"] for c in counters] == [20, 20]
    for i, c in enumerate(counters):
        rows = read_csv(out / f"sweep_{i:03d}_region.csv")
        wf_rows = [r for r in rows if r["curve_label"] == "waterfill"]
        assert c["not_self_consistent"] == sum(
            r["self_consistent"] == "false" for r in wf_rows
        )
    assert counters[0]["not_self_consistent"] < counters[1]["not_self_consistent"]

    # commands without an alpha grid write no counters
    out = tmp_path / "pentagon"
    assert run("pentagon", 2.5, 7.5, "--out", out) == 0
    assert "counters" not in json.loads((out / "manifest.json").read_text())


def test_validate_manifest_counts_workers(tmp_path, monkeypatch):
    trials = 2 * mcsim._SEED_BLOCK + 17
    argv = ("validate", "--scenario", bundled_scenario_path(), "--experiment", "gamma",
            "--trials", trials, "--seed", 5)
    assert run(*argv, "--out", tmp_path / "auto") == 0
    expected = {
        "command": "validate",
        "scenario_path": str(bundled_scenario_path()),
        "parameters": {"experiment": "gamma", "trials": trials},
        "outputs": ["validate_gamma.json", "manifest.json"],
        "tool_version": mudr.__version__,
        "seed": 5,
        "counters": {"workers": mcsim.trial_workers(trials)},
    }
    manifest = (tmp_path / "auto" / "manifest.json").read_bytes()
    assert manifest == (json.dumps(expected, indent=2) + "\n").encode()
    # the count comes from the kernels' own helper, and never changes the report
    monkeypatch.setattr(mcsim, "trial_workers", lambda trials: 1)
    assert run(*argv, "--out", tmp_path / "one") == 0
    manifest = json.loads((tmp_path / "one" / "manifest.json").read_text())
    assert manifest["counters"] == {"workers": 1}
    report = "validate_gamma.json"
    assert (tmp_path / "auto" / report).read_bytes() == (tmp_path / "one" / report).read_bytes()


def test_region_csv_rows_equal_the_library(tmp_path):
    assert run("region", "--scenario", bundled_scenario_path(), "--alpha-points", 50,
               "--out", tmp_path) == 0
    lb = sc.derive_link_budget(sc.load_scenario(bundled_scenario_path()))
    alphas = waterfill.default_alpha_grid(50)
    region, g = bounds.rate_region(lb, alphas), waterfill.waterfill_grid(lb, alphas)
    want = []
    for label, rows in region.index.items():
        if label == "waterfill":
            want += zip(["waterfill"] * len(g.alpha), g.alpha.tolist(), g.r_est.tolist(),
                        g.r_com_total.tolist(), g.self_consistent.tolist())
        else:
            want += [(label, None, r_est, r_com, True) for r_est, r_com in
                     zip(region.r_est[rows].tolist(), region.r_com[rows].tolist())]
    # each CSV number parses back to the library's float exactly
    got = [
        (r["curve_label"],
         None if r["alpha_or_nan"] == "nan" else float(r["alpha_or_nan"]),
         float(r["r_est_bps"]), float(r["r_com_bps"]), r["self_consistent"] == "true")
        for r in read_csv(tmp_path / "region.csv")
    ]
    assert got == want


def test_sweep_derives_each_link_budget_once(tmp_path, monkeypatch):
    budgets = count_calls(monkeypatch, sc, "derive_link_budget", cli)
    rc = run("sweep", "--scenario", bundled_scenario_path(), "--vary",
             "radar_power_w", "--values", "100,1000", "--alpha-points", 10,
             "--out", tmp_path)
    assert rc == 0
    assert budgets[0] == 2


def test_commands_print_each_column_once(tmp_path, monkeypatch):
    printed, regions = [], []
    print_records, rate_region = emit.repr_records, bounds.rate_region

    def recorded_print(values):
        printed.append(values)
        return print_records(values)

    def recorded_region(*args):
        regions.append(rate_region(*args))
        return regions[-1]

    monkeypatch.setattr(emit, "repr_records", recorded_print)
    monkeypatch.setattr(bounds, "rate_region", recorded_region)
    # region: the alpha grid, then its table's two columns
    assert run("region", "--scenario", bundled_scenario_path(), "--alpha-points", 50,
               "--out", tmp_path / "region") == 0
    assert [len(v) for v in printed] == [50, 57, 57]
    assert np.array_equal(printed[1], regions[0].r_est)
    assert np.array_equal(printed[2], regions[0].r_com)
    # sweep: the shared grid once, then every region's column in one call
    printed.clear()
    assert run("sweep", "--scenario", bundled_scenario_path(), "--vary", "radar_power_w",
               "--values", "100,1000,10000", "--alpha-points", 30,
               "--out", tmp_path / "sweep") == 0
    assert [len(v) for v in printed] == [30, 3 * 37, 3 * 37]


# --- random scenario fields ---------------------------------------------------------

# Paths into the bundled scenario: every leaf and every container.
SCENARIO_PATHS = [
    ("bandwidth_hz",),
    ("center_freq_hz",),
    ("temperature_k",),
    ("spectral_shape",),
    ("comms",),
    ("comms", "range_m"),
    ("comms", "power_dbm"),
    ("comms", "antenna_gain_dbi"),
    ("radar",),
    ("radar", "power_w"),
    ("radar", "antenna_gain_dbi"),
    ("radar", "duty_factor"),
    ("radar", "time_bandwidth"),
    ("targets",),
    ("targets", 0),
    ("targets", 0, "range_m"),
    ("targets", 0, "cross_section_m2"),
    ("targets", 0, "process_range_std_m"),
]
OBJECT_PATHS = [(), ("comms",), ("radar",), ("targets", 0)]

json_values = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(max_value=0.0, exclude_max=True),
    st.floats(min_value=1e-300, max_value=1e300),
    # log-uniform positive magnitudes
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-300, 299)),
    st.integers(max_value=-1),
    st.text(max_size=8),
    st.booleans(),
    st.none(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


@st.composite
def mutated_scenarios(draw):
    """The bundled scenario with one field replaced by a random JSON value
    or one unknown key added; returns (scenario, name the error must carry)."""
    raw = json.loads(bundled_scenario_path().read_text())

    def parent_of(path):
        node = raw
        for key in path[:-1]:
            node = node[key]
        return node

    if draw(st.booleans()):
        path = draw(st.sampled_from(SCENARIO_PATHS))
        value = draw(json_values)
    else:  # an unknown key
        obj = draw(st.sampled_from(OBJECT_PATHS))
        known = parent_of(obj + ("",))
        key = draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in known))
        path = obj + (key,)
        value = 1.0
    parent_of(path)[path[-1]] = value
    name = next(k for k in reversed(path) if isinstance(k, str))
    return raw, name


@given(mutated_scenarios())
def test_region_random_field_values_exit_0_or_named_2(case):
    raw, name = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(raw))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run("region", "--scenario", path, "--alpha-points", 5,
                     "--out", Path(tmp) / "out")
    assert rc == 0 or (rc == 2 and name in err.getvalue()), (rc, err.getvalue())
