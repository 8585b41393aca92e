import json
import math
import re
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    DELAY_100KM_S,
    DELAY_100M_S,
    GAMMA_SQ_FLAT,
    TABLE2_A_SQ,
    TABLE2_B_SQ,
    TABLE2_NOISE_W,
    TABLE2_SIGMA_TAU_PROC_SQ,
)
from mudr import scenario as sc


def test_table2_unit_conversion(table2_scenario):
    s = table2_scenario
    assert s.comms_power_w == pytest.approx(0.1, rel=1e-12)
    assert s.radar_antenna_gain_lin == pytest.approx(1000.0, rel=1e-12)
    assert s.comms_antenna_gain_lin == 1.0
    assert s.bandwidth_hz == 5e6
    assert s.duty_factor == 0.01
    assert len(s.targets) == 1


def test_table2_link_budget_frozen_values(table2_lb):
    lb = table2_lb
    assert lb.a_sq[0] == pytest.approx(TABLE2_A_SQ, rel=1e-12)
    assert lb.b_sq == pytest.approx(TABLE2_B_SQ, rel=1e-12)
    assert lb.noise_power_w == pytest.approx(TABLE2_NOISE_W, rel=1e-12)
    assert lb.sigma_tau_proc_sq[0] == pytest.approx(
        TABLE2_SIGMA_TAU_PROC_SQ, rel=1e-12
    )
    assert sc.GAMMA_SQ_FLAT == pytest.approx(GAMMA_SQ_FLAT, rel=1e-15)
    # coarse cross-check against a two-digit hand estimate
    assert lb.a_sq[0] == pytest.approx(5.04e-19, rel=0.01)
    assert lb.noise_power_w == pytest.approx(6.903e-14, rel=1e-3)


def test_noise_power_definition():
    assert sc.noise_power(1000.0, 5e6) == pytest.approx(6.903245e-14, rel=1e-12)
    assert sc.noise_power(1.0 / sc.BOLTZMANN_J_K, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_noise_power_linearity_exact():
    base = sc.noise_power(300.0, 1e6)
    assert sc.noise_power(600.0, 1e6) == 2.0 * base
    assert sc.noise_power(300.0, 2e6) == 2.0 * base


@given(
    st.floats(min_value=1e-3, max_value=1e9),
    st.floats(min_value=1e-3, max_value=1e12),
)
def test_noise_power_positive_and_scaling(t, b):
    n = sc.noise_power(t, b)
    assert n > 0
    assert sc.noise_power(2 * t, b) == pytest.approx(2 * n, rel=1e-15)


def test_noise_power_rejects_nonpositive():
    with pytest.raises(sc.ScenarioError):
        sc.noise_power(0.0, 1e6)
    with pytest.raises(sc.ScenarioError):
        sc.noise_power(300.0, -1.0)


def test_delay_from_range_examples():
    assert sc.delay_from_range(sc.SPEED_OF_LIGHT_M_S / 2) == 1.0
    assert sc.delay_from_range(100e3) == pytest.approx(DELAY_100KM_S, rel=1e-12)
    assert sc.delay_from_range(100.0) == pytest.approx(DELAY_100M_S, rel=1e-12)
    with pytest.raises(sc.ScenarioError):
        sc.delay_from_range(0.0)


def test_cross_section_proportionality(table2_scenario):
    lb1 = sc.derive_link_budget(table2_scenario)
    doubled = sc.replace_scenario_field(
        table2_scenario, "cross_section_m2", 2 * table2_scenario.targets[0].cross_section_m2
    )
    lb2 = sc.derive_link_budget(doubled)
    assert lb2.a_sq[0] == pytest.approx(2 * lb1.a_sq[0], rel=1e-15)


@given(st.floats(min_value=0.1, max_value=10.0))
def test_range_scaling_exponents(table2_scenario, s):
    lb1 = sc.derive_link_budget(table2_scenario)
    scaled = sc.replace_scenario_field(
        table2_scenario, "comms_range_m", s * table2_scenario.comms_range_m
    )
    scaled = sc.replace_scenario_field(
        scaled, "range_m", s * table2_scenario.targets[0].range_m
    )
    lb2 = sc.derive_link_budget(scaled)
    assert lb2.b_sq == pytest.approx(lb1.b_sq / s**2, rel=1e-9)
    assert lb2.a_sq[0] == pytest.approx(lb1.a_sq[0] / s**4, rel=1e-9)


def test_derive_link_budget_deterministic(table2_scenario):
    assert sc.derive_link_budget(table2_scenario) == sc.derive_link_budget(
        table2_scenario
    )


def _write_scenario(tmp_path, mutate):
    raw = json.loads(sc.bundled_scenario_path().read_text())
    mutate(raw)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    return path


def test_zero_duty_factor_rejected(tmp_path):
    path = _write_scenario(tmp_path, lambda r: r["radar"].update(duty_factor=0))
    with pytest.raises(sc.ScenarioError, match="duty_factor"):
        sc.load_scenario(path)


def test_nonpositive_power_rejected(tmp_path):
    path = _write_scenario(tmp_path, lambda r: r["radar"].update(power_w=-5))
    with pytest.raises(sc.ScenarioError, match="radar_power_w"):
        sc.load_scenario(path)


def test_empty_targets_rejected(tmp_path):
    path = _write_scenario(tmp_path, lambda r: r.update(targets=[]))
    with pytest.raises(sc.ScenarioError, match="targets"):
        sc.load_scenario(path)


def test_missing_field_named(tmp_path):
    path = _write_scenario(tmp_path, lambda r: r["comms"].pop("power_dbm"))
    with pytest.raises(sc.ScenarioError, match="comms.power_dbm"):
        sc.load_scenario(path)


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(sc.ScenarioError, match="parse"):
        sc.load_scenario(path)


def test_json_array_rejected(tmp_path):
    path = tmp_path / "array.json"
    path.write_text("[1, 2]")
    with pytest.raises(sc.ScenarioError, match="must contain a JSON object"):
        sc.load_scenario(path)


def test_scenario_without_targets_rejected(table2_scenario):
    with pytest.raises(sc.ScenarioError, match="targets"):
        replace(table2_scenario, targets=())


def test_unknown_spectral_shape_rejected(tmp_path):
    path = _write_scenario(tmp_path, lambda r: r.update(spectral_shape="chirp"))
    with pytest.raises(sc.ScenarioError, match="spectral_shape"):
        sc.load_scenario(path)


def test_time_bandwidth_below_one_rejected(tmp_path):
    path = _write_scenario(tmp_path, lambda r: r["radar"].update(time_bandwidth=0.5))
    with pytest.raises(sc.ScenarioError, match="time_bandwidth"):
        sc.load_scenario(path)


def test_replace_scenario_field_unknown():
    s = sc.load_scenario(sc.bundled_scenario_path())
    with pytest.raises(sc.ScenarioError, match="valid fields"):
        sc.replace_scenario_field(s, "warp_factor", 9.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_replace_scenario_field_non_finite(table2_scenario, value):
    with pytest.raises(sc.ScenarioError, match="radar_power_w"):
        sc.replace_scenario_field(table2_scenario, "radar_power_w", value)


@pytest.mark.parametrize(
    "value",
    [math.nan, math.inf, -math.inf, pytest.param(10**400, id="int_beyond_float")],
)
@pytest.mark.parametrize(
    "keys, path",
    [
        (("bandwidth_hz",), "bandwidth_hz"),
        (("comms", "power_dbm"), "comms.power_dbm"),
        (("radar", "time_bandwidth"), "radar.time_bandwidth"),
        (("targets", 0, "process_range_std_m"), "targets[0].process_range_std_m"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_non_finite_number_rejected(tmp_path, keys, path, value):
    def mutate(raw):
        *parents, leaf = keys
        for key in parents:
            raw = raw[key]
        raw[leaf] = value

    with pytest.raises(sc.ScenarioError, match=re.escape(path)):
        sc.load_scenario(_write_scenario(tmp_path, mutate))


@pytest.mark.parametrize(
    "keys, path",
    [
        (("radar", "powr_w"), "radar.powr_w"),
        (("comms", "gain"), "comms.gain"),
        (("targets", 0, "rcs"), "targets[0].rcs"),
        (("notes",), "'notes'"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_unknown_key_rejected(tmp_path, keys, path):
    def mutate(raw):
        *parents, leaf = keys
        for key in parents:
            raw = raw[key]
        raw[leaf] = 5

    with pytest.raises(sc.ScenarioError, match=re.escape(path)):
        sc.load_scenario(_write_scenario(tmp_path, mutate))


@pytest.mark.parametrize(
    "given, twice, path",
    [
        ('"bandwidth_hz": 5e6,', '"bandwidth_hz": 1e9, "bandwidth_hz": 5e6,', "bandwidth_hz"),
        ('"power_w": 1000,', '"power_w": 1000, "power_w": 1000,', "radar.power_w"),
        ('"range_m": 100e3,', '"range_m": 1e3, "range_m": 100e3,', "targets[0].range_m"),
        ('"targets": [', '"targets": [], "targets": [', "targets"),
    ],
    ids=["bandwidth_hz", "radar.power_w", "targets[0].range_m", "targets"],
)
def test_repeated_key_rejected(tmp_path, given, twice, path):
    # json.loads alone keeps a repeated key's last value, valid or not
    text = sc.bundled_scenario_path().read_text()
    assert text.count(given) == 1
    (tmp_path / "scenario.json").write_text(text.replace(given, twice))
    with pytest.raises(sc.ScenarioError, match=re.escape(f"field '{path}' is given more than once")):
        sc.load_scenario(tmp_path / "scenario.json")


def test_target_must_be_object(tmp_path):
    path = _write_scenario(tmp_path, lambda r: r.update(targets=[5]))
    with pytest.raises(sc.ScenarioError, match=re.escape("targets[0]")):
        sc.load_scenario(path)


@pytest.mark.parametrize("db", [1e6, -1e6])
def test_db_field_out_of_linear_range(tmp_path, db):
    path = _write_scenario(tmp_path, lambda r: r["comms"].update(power_dbm=db))
    with pytest.raises(sc.ScenarioError, match="comms.power_dbm"):
        sc.load_scenario(path)


@pytest.mark.parametrize(
    ("section", "key", "value", "field"),
    [
        ("comms", "antenna_gain_dbi", -2000, "comms.antenna_gain_dbi"),
        ("radar", "antenna_gain_dbi", -2000, "radar.antenna_gain_dbi"),
        (0, "cross_section_m2", 1e-320, "targets[0].cross_section_m2"),
    ],
)
def test_gain_underflow_named(tmp_path, section, key, value, field):
    def mutate(raw):
        obj = raw["targets"][section] if section == 0 else raw[section]
        obj[key] = value

    path = _write_scenario(tmp_path, mutate)
    with pytest.raises(sc.ScenarioError) as err:
        sc.derive_link_budget(sc.load_scenario(path))
    assert field in str(err.value)


def test_gamma_sq_flat_value():
    assert sc.GAMMA_SQ_FLAT == pytest.approx(
        (2 * math.pi) ** 2 / 12, rel=0
    )


# --- the loader's messages, pinned field by field ------------------------------

#: Per FIELD_RANGES field: its keys in the file, a file value outside its
#: range and the message that value gives.
FIELD_MESSAGES = {
    "bandwidth_hz": (("bandwidth_hz",), 0.5,
                     "bandwidth_hz = 0.5 is outside its valid range [1, 1e+12]"),
    "center_freq_hz": (("center_freq_hz",), 10,
                       "center_freq_hz = 10.0 is outside its valid range [1000, 1e+15]"),
    "temperature_k": (("temperature_k",), 0,
                      "temperature_k = 0.0 is outside its valid range [0.001, 1e+06]"),
    "comms_range_m": (("comms", "range_m"), 2e9,
                      "comms_range_m (scenario field comms.range_m) = 2000000000.0 "
                      "is outside its valid range [0.001, 1e+09]"),
    "comms_power_w": (("comms", "power_dbm"), 130,
                      "comms_power_w (scenario field comms.power_dbm) = 10000000000.0 "
                      "is outside its valid range [1e-15, 1e+09]"),
    "comms_antenna_gain_lin": (("comms", "antenna_gain_dbi"), 110,
                               "comms_antenna_gain_lin (scenario field "
                               "comms.antenna_gain_dbi) = 100000000000.0 "
                               "is outside its valid range [1e-10, 1e+10]"),
    "radar_power_w": (("radar", "power_w"), 0,
                      "radar_power_w (scenario field radar.power_w) = 0.0 "
                      "is outside its valid range [1e-15, 1e+09]"),
    "radar_antenna_gain_lin": (("radar", "antenna_gain_dbi"), -110,
                               "radar_antenna_gain_lin (scenario field "
                               "radar.antenna_gain_dbi) = 1e-11 "
                               "is outside its valid range [1e-10, 1e+10]"),
    "time_bandwidth": (("radar", "time_bandwidth"), 0.5,
                       "time_bandwidth (scenario field radar.time_bandwidth) = 0.5 "
                       "is outside its valid range [1, 1e+12]"),
    "duty_factor": (("radar", "duty_factor"), 2,
                    "duty_factor (scenario field radar.duty_factor) = 2.0 "
                    "is outside its valid range [1e-09, 1]"),
    "range_m": (("targets", 0, "range_m"), 1e13,
                "targets[0].range_m = 10000000000000.0 "
                "is outside its valid range [0.001, 1e+12]"),
    "cross_section_m2": (("targets", 0, "cross_section_m2"), 0,
                         "targets[0].cross_section_m2 = 0.0 "
                         "is outside its valid range [1e-12, 1e+12]"),
    "process_range_std_m": (("targets", 0, "process_range_std_m"), -1,
                            "targets[0].process_range_std_m = -1.0 "
                            "is outside its valid range [0, 1e+09]"),
}

_DELETE = object()


def _load_error(tmp_path, *changes) -> str:
    """The message of loading table2 with each (keys, value) change made;
    a value of ``_DELETE`` removes the key."""
    def mutate(raw):
        for keys, value in changes:
            obj = raw
            for key in keys[:-1]:
                obj = obj[key]
            if value is _DELETE:
                del obj[keys[-1]]
            else:
                obj[keys[-1]] = value

    with pytest.raises(sc.ScenarioError) as err:
        sc.load_scenario(_write_scenario(tmp_path, mutate))
    return str(err.value)


def test_field_messages_cover_every_field():
    assert FIELD_MESSAGES.keys() == sc.FIELD_RANGES.keys()


@pytest.mark.parametrize("field", FIELD_MESSAGES)
def test_loader_messages_name_the_file_path(tmp_path, field):
    keys, outside, message = FIELD_MESSAGES[field]
    path = ".".join(str(k) for k in keys).replace("targets.0.", "targets[0].")
    assert _load_error(tmp_path, (keys, _DELETE)) == f"missing field '{path}'"
    assert _load_error(tmp_path, (keys, "ten")) == (
        f"field '{path}' must be a number, got 'ten'"
    )
    assert _load_error(tmp_path, (keys, outside)) == message


@pytest.mark.parametrize(
    "keys, message",
    [
        (("notes",), "unknown field 'notes'; valid fields: bandwidth_hz, center_freq_hz, "
                     "comms, radar, spectral_shape, targets, temperature_k"),
        (("comms", "gain"), "unknown field 'comms.gain'; valid fields: "
                            "antenna_gain_dbi, power_dbm, range_m"),
        (("radar", "powr_w"), "unknown field 'radar.powr_w'; valid fields: "
                              "antenna_gain_dbi, duty_factor, power_w, time_bandwidth"),
        (("targets", 0, "rcs"), "unknown field 'targets[0].rcs'; valid fields: "
                                "cross_section_m2, process_range_std_m, range_m"),
    ],
    ids=["top", "comms", "radar", "target"],
)
def test_unknown_key_message_lists_valid_keys(tmp_path, keys, message):
    assert _load_error(tmp_path, (keys, 5)) == message


def _outside(field):
    """The (keys, value) change that puts ``field`` outside its range."""
    keys, value, _ = FIELD_MESSAGES[field]
    return keys, value


@pytest.mark.parametrize(
    "changes, message",
    [
        # every number is read before any range is checked
        ((_outside("bandwidth_hz"), (("radar", "power_w"), _DELETE)),
         "missing field 'radar.power_w'"),
        # the targets are read and checked before the other fields
        (((("bandwidth_hz",), "ten"), _outside("process_range_std_m")),
         FIELD_MESSAGES["process_range_std_m"][2]),
        # ranges are checked in field order
        ((_outside("duty_factor"), _outside("comms_power_w")),
         FIELD_MESSAGES["comms_power_w"][2]),
        ((_outside("time_bandwidth"), _outside("radar_antenna_gain_lin")),
         FIELD_MESSAGES["radar_antenna_gain_lin"][2]),
    ],
    ids=["number_before_range", "target_first", "comms_before_radar", "gain_before_tb"],
)
def test_first_of_two_bad_fields_is_reported(tmp_path, changes, message):
    assert _load_error(tmp_path, *changes) == message
