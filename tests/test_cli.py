import contextlib
import csv
import io
import json
import math
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mudr import bounds, cli, mcsim, scenario as sc, waterfill
from mudr.scenario import bundled_scenario_path

SVG_NS = {"svg": "http://www.w3.org/2000/svg"}


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
    rc = run("region", "--scenario", bundled_scenario_path(), "--alpha-points", 0,
             "--out", tmp_path / "out")
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


def test_validate_crb_low_isnr_exit_2(tmp_path, capsys):
    rc = run("validate", "--scenario", bundled_scenario_path(), "--experiment", "crb",
             "--trials", 100, "--seed", 1, "--out", tmp_path)
    assert rc == 2
    assert "integrated SNR" in capsys.readouterr().err
    for experiment in ("crb", "residual", "gamma"):
        rc = run("validate", "--scenario", bundled_scenario_path(), "--experiment",
                 experiment, "--trials", 0, "--seed", 1, "--out", tmp_path)
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

    def strict(spec, trials, seed):
        rep = real(spec, trials, seed)
        return replace(rep, tolerance=1e-9, passed=False)

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
    rc = run("sweep", "--scenario", bundled_scenario_path(), "--vary",
             "radar_power_w", "--values", "1,abc", "--out", tmp_path)
    assert rc == 2
    assert "--values" in capsys.readouterr().err
    # a value outside the field's valid range names the varied field
    for field, value in (("radar_antenna_gain_lin", "1e-200"),
                         ("cross_section_m2", "1e-320")):
        rc = run("sweep", "--scenario", bundled_scenario_path(), "--vary", field,
                 "--values", value, "--alpha-points", 5, "--out", tmp_path)
        assert rc == 2
        assert f"sweep field '{field}'" in capsys.readouterr().err
    rc = run("sweep", "--scenario", bundled_scenario_path(), "--vary", "radar_power_w",
             "--values", "100", "--alpha-points", 0, "--out", tmp_path)
    assert rc == 2
    assert "--alpha-points" in capsys.readouterr().err


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


def test_region_csv_rows_equal_the_library(tmp_path):
    assert run("region", "--scenario", bundled_scenario_path(), "--alpha-points", 50,
               "--out", tmp_path) == 0
    lb = sc.derive_link_budget(sc.load_scenario(bundled_scenario_path()))
    region = bounds.rate_region(lb, waterfill.default_alpha_grid(50))
    g = region.grid
    want = []
    for curve in region.curves:
        if curve is region.waterfill:
            want += zip(["waterfill"] * len(g.alpha), g.alpha.tolist(), g.r_est.tolist(),
                        g.r_com_total.tolist(), g.self_consistent.tolist())
        else:
            want += [(curve.label, None, r_est, r_com, True) for r_est, r_com in curve.points]
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
