"""Physical scenario description and link-budget derivation.

A scenario file carries the user-facing quantities (powers in dBm, antenna
gains in dBi, ranges in meters). Everything downstream works in linear SI
units, so loading converts once and validation happens here. The derived
``LinkBudget`` bundles the handful of numbers every rate bound consumes:
per-target two-way gain, communications path gain, thermal noise power,
per-target process-delay variance, and the spectral-shape constant.

Propagation model: the per-target gain uses the monostatic radar range
equation; the communications path gain uses free-space loss with the
(sidelobe) antenna gain applied at both link ends. Both live in
``derive_link_budget`` only, so alternate models can be swapped in one
place.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Callable

SPEED_OF_LIGHT_M_S = 299_792_458.0
# 2019 SI exact value, J/K
BOLTZMANN_J_K = 1.380649e-23


class ScenarioError(ValueError):
    """A scenario file failed to parse or a field failed validation."""


class SpectralShape(Enum):
    """Power-spectral-density shape of the radar waveform."""

    FLAT = "flat"


#: (2 pi B_rms)^2 = GAMMA_SQ[shape] * B^2 for a unit-variance waveform.
GAMMA_SQ = {SpectralShape.FLAT: (2.0 * math.pi) ** 2 / 12.0}

#: Valid closed range of every numeric Scenario and Target field in SI units,
#: with the scenario-file field it is read from. Inside these ranges every
#: link gain is positive and every rate formula finite, whatever the
#: combination of values.
FIELD_RANGES: dict[str, tuple[float, float, str]] = {
    "bandwidth_hz": (1.0, 1e12, "bandwidth_hz"),
    "center_freq_hz": (1e3, 1e15, "center_freq_hz"),
    "temperature_k": (1e-3, 1e6, "temperature_k"),
    "comms_range_m": (1e-3, 1e9, "comms.range_m"),
    "comms_power_w": (1e-15, 1e9, "comms.power_dbm"),
    "comms_antenna_gain_lin": (1e-10, 1e10, "comms.antenna_gain_dbi"),
    "radar_power_w": (1e-15, 1e9, "radar.power_w"),
    "radar_antenna_gain_lin": (1e-10, 1e10, "radar.antenna_gain_dbi"),
    "time_bandwidth": (1.0, 1e12, "radar.time_bandwidth"),
    "duty_factor": (1e-9, 1.0, "radar.duty_factor"),
    "range_m": (1e-3, 1e12, "range_m"),
    "cross_section_m2": (1e-12, 1e12, "cross_section_m2"),
    "process_range_std_m": (0.0, 1e9, "process_range_std_m"),
}


def check_range(name: str, value: float, lo: float, hi: float) -> None:
    """Reject ``value`` (NaN included) outside the closed range [lo, hi]."""
    if not lo <= value <= hi:
        raise ScenarioError(
            f"{name} = {value!r} is outside its valid range [{lo:g}, {hi:g}]"
        )


def _check_ranges(obj: object) -> None:
    """Reject the first field of ``obj`` outside its :data:`FIELD_RANGES` range."""
    for f in fields(obj):
        if f.name not in FIELD_RANGES:
            continue
        lo, hi, source = FIELD_RANGES[f.name]
        name = f.name if source == f.name else f"{f.name} (scenario field {source})"
        check_range(name, getattr(obj, f.name), lo, hi)


@dataclass(frozen=True)
class Target:
    """One radar target: geometry, size, and track-prediction jitter."""

    range_m: float
    cross_section_m2: float
    process_range_std_m: float

    def __post_init__(self) -> None:
        _check_ranges(self)


@dataclass(frozen=True)
class Scenario:
    """Validated scenario in linear SI units.

    Use :func:`load_scenario` to build one from a JSON file with the
    conventional dBm / dBi fields.
    """

    bandwidth_hz: float
    center_freq_hz: float
    temperature_k: float
    comms_range_m: float
    comms_power_w: float
    comms_antenna_gain_lin: float
    radar_power_w: float
    radar_antenna_gain_lin: float
    targets: tuple[Target, ...]
    time_bandwidth: float
    duty_factor: float
    spectral_shape: SpectralShape = SpectralShape.FLAT

    def __post_init__(self) -> None:
        _check_ranges(self)
        if len(self.targets) == 0:
            raise ScenarioError("targets must be a nonempty list")
        object.__setattr__(self, "targets", tuple(self.targets))


@dataclass(frozen=True)
class LinkBudget:
    """Derived quantities consumed by every bound formula.

    ``a_sq`` is the combined two-way antenna-gain, cross-section, and
    propagation factor per target; ``b_sq`` the one-way communications
    path-gain product. Both are linear power ratios.
    """

    a_sq: tuple[float, ...]
    b_sq: float
    noise_power_w: float
    sigma_tau_proc_sq: tuple[float, ...]
    gamma_sq: float
    bandwidth_hz: float
    time_bandwidth: float
    duty_factor: float
    comms_power_w: float
    radar_power_w: float

    @property
    def n_targets(self) -> int:
        return len(self.a_sq)

    @property
    def kt_w_per_hz(self) -> float:
        """Thermal noise spectral density k_B * T_temp in W/Hz."""
        return self.noise_power_w / self.bandwidth_hz


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def delay_from_range(range_m: float) -> float:
    """Two-way propagation delay in seconds for a target at ``range_m``."""
    if not range_m > 0:
        raise ScenarioError(f"range_m must be positive, got {range_m}")
    return 2.0 * range_m / SPEED_OF_LIGHT_M_S


def range_from_delay(delay_s: float) -> float:
    """Inverse of :func:`delay_from_range`."""
    if not delay_s > 0:
        raise ScenarioError(f"delay_s must be positive, got {delay_s}")
    return delay_s * SPEED_OF_LIGHT_M_S / 2.0


def noise_power(temperature_k: float, bandwidth_hz: float) -> float:
    """Thermal noise power k_B * T * B in watts."""
    if not temperature_k > 0:
        raise ScenarioError(f"temperature_k must be positive, got {temperature_k}")
    if not bandwidth_hz > 0:
        raise ScenarioError(f"bandwidth_hz must be positive, got {bandwidth_hz}")
    return BOLTZMANN_J_K * temperature_k * bandwidth_hz


def derive_link_budget(s: Scenario) -> LinkBudget:
    """Derive the link budget from a validated scenario.

    Per target: a^2 = G_radar^2 lambda^2 sigma_rcs / ((4 pi)^3 r^4).
    Comms path: b^2 = G_comms^2 lambda^2 / (4 pi r_comms)^2. Both are
    positive and finite for any scenario inside :data:`FIELD_RANGES`.
    """
    lam = SPEED_OF_LIGHT_M_S / s.center_freq_hz
    a_sq = tuple(
        s.radar_antenna_gain_lin**2
        * lam**2
        * t.cross_section_m2
        / ((4.0 * math.pi) ** 3 * t.range_m**4)
        for t in s.targets
    )
    b_sq = s.comms_antenna_gain_lin**2 * lam**2 / (4.0 * math.pi * s.comms_range_m) ** 2
    sigma_tau_proc_sq = tuple(
        (2.0 * t.process_range_std_m / SPEED_OF_LIGHT_M_S) ** 2 for t in s.targets
    )
    return LinkBudget(
        a_sq=a_sq,
        b_sq=b_sq,
        noise_power_w=noise_power(s.temperature_k, s.bandwidth_hz),
        sigma_tau_proc_sq=sigma_tau_proc_sq,
        gamma_sq=GAMMA_SQ[s.spectral_shape],
        bandwidth_hz=s.bandwidth_hz,
        time_bandwidth=s.time_bandwidth,
        duty_factor=s.duty_factor,
        comms_power_w=s.comms_power_w,
        radar_power_w=s.radar_power_w,
    )


def _require(obj: dict, key: str, context: str) -> object:
    if key not in obj:
        raise ScenarioError(f"missing field '{context}{key}'")
    return obj[key]


def _number(obj: dict, key: str, context: str = "") -> float:
    value = _require(obj, key, context)
    if not isinstance(value, float):  # JSON integers are parsed as floats
        raise ScenarioError(f"field '{context}{key}' must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ScenarioError(f"field '{context}{key}' must be finite, got {value!r}")
    return float(value)


def _linear(
    obj: dict, key: str, context: str, convert: Callable[[float], float]
) -> float:
    """A dB-valued field in linear units; inf where the conversion overflows."""
    db = _number(obj, key, context)
    try:
        return convert(db)
    except OverflowError:
        return math.inf


# The keys each object of a scenario file may hold.
_TOP_KEYS = {"bandwidth_hz", "center_freq_hz", "temperature_k", "comms", "radar",
             "targets", "spectral_shape"}
_COMMS_KEYS = {"range_m", "power_dbm", "antenna_gain_dbi"}
_RADAR_KEYS = {"power_w", "antenna_gain_dbi", "duty_factor", "time_bandwidth"}
_TARGET_KEYS = {"range_m", "cross_section_m2", "process_range_std_m"}


def _object(value: object, keys: set[str], context: str) -> dict:
    """``value`` as a JSON object holding no key outside ``keys``; ``context``
    is its field path with a trailing dot, or "" at the top level."""
    if not isinstance(value, dict):
        raise ScenarioError(f"field '{context.rstrip('.')}' must be an object")
    for key in value:
        if key not in keys:
            valid = ", ".join(sorted(keys))
            raise ScenarioError(
                f"unknown field '{context}{key}'; valid fields: {valid}"
            )
    return value


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario JSON file.

    Expected layout::

        {
          "bandwidth_hz": ..., "center_freq_hz": ..., "temperature_k": ...,
          "comms": {"range_m": ..., "power_dbm": ..., "antenna_gain_dbi": ...},
          "radar": {"power_w": ..., "antenna_gain_dbi": ...,
                    "duty_factor": ..., "time_bandwidth": ...},
          "targets": [{"range_m": ..., "cross_section_m2": ...,
                       "process_range_std_m": ...}],
          "spectral_shape": "flat"
        }

    dB-valued fields are converted to linear at load time. Unknown keys,
    non-numbers, non-finite numbers and values outside
    :data:`FIELD_RANGES` are rejected with their field path.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ScenarioError(f"could not read {path}: {reason}") from exc
    try:
        # an integer beyond the float range parses as inf
        raw = json.loads(text, parse_int=float)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"could not parse {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"scenario file {path} must contain a JSON object")
    _object(raw, _TOP_KEYS, "")
    comms = _object(_require(raw, "comms", ""), _COMMS_KEYS, "comms.")
    radar = _object(_require(raw, "radar", ""), _RADAR_KEYS, "radar.")

    shape_name = _require(raw, "spectral_shape", "")
    try:
        shape = SpectralShape(str(shape_name).lower())
    except ValueError:
        valid = ", ".join(s.value for s in SpectralShape)
        raise ScenarioError(
            f"field 'spectral_shape' must be one of: {valid}; got {shape_name!r}"
        ) from None

    targets_raw = _require(raw, "targets", "")
    if not isinstance(targets_raw, list) or len(targets_raw) == 0:
        raise ScenarioError("field 'targets' must be a nonempty list")
    targets = []
    for i, raw_target in enumerate(targets_raw):
        context = f"targets[{i}]."
        t = _object(raw_target, _TARGET_KEYS, context)
        values = {f.name: _number(t, f.name, context) for f in fields(Target)}
        try:
            targets.append(Target(**values))
        except ScenarioError as exc:
            raise ScenarioError(f"{context}{exc}") from None

    return Scenario(
        bandwidth_hz=_number(raw, "bandwidth_hz"),
        center_freq_hz=_number(raw, "center_freq_hz"),
        temperature_k=_number(raw, "temperature_k"),
        comms_range_m=_number(comms, "range_m", "comms."),
        comms_power_w=_linear(comms, "power_dbm", "comms.", dbm_to_watts),
        comms_antenna_gain_lin=_linear(
            comms, "antenna_gain_dbi", "comms.", db_to_linear
        ),
        radar_power_w=_number(radar, "power_w", "radar."),
        radar_antenna_gain_lin=_linear(
            radar, "antenna_gain_dbi", "radar.", db_to_linear
        ),
        targets=tuple(targets),
        time_bandwidth=_number(radar, "time_bandwidth", "radar."),
        duty_factor=_number(radar, "duty_factor", "radar."),
        spectral_shape=shape,
    )


def bundled_scenario_path(name: str = "table2") -> Path:
    """Path to a scenario file shipped with the package."""
    return Path(str(resources.files("mudr").joinpath(f"data/{name}.json")))


def replace_scenario_field(s: Scenario, field: str, value: float) -> Scenario:
    """Return a copy of ``s`` with one numeric field replaced.

    Target fields (range_m, cross_section_m2, process_range_std_m) are
    applied to every target. Raises ScenarioError naming ``field`` for an
    unknown field or a value outside :data:`FIELD_RANGES`.
    """
    scenario_fields = {f.name for f in fields(Scenario)} - {"targets", "spectral_shape"}
    target_fields = {f.name for f in fields(Target)}
    if field not in scenario_fields | target_fields:
        valid = ", ".join(sorted(scenario_fields | target_fields))
        raise ScenarioError(f"unknown sweep field '{field}'; valid fields: {valid}")
    try:
        if field in target_fields:
            new_targets = tuple(replace(t, **{field: value}) for t in s.targets)
            return replace(s, targets=new_targets)
        return replace(s, **{field: value})
    except ScenarioError as exc:
        raise ScenarioError(f"sweep field '{field}' = {value!r}: {exc}") from None
