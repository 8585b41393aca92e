"""What the region figure promises, over the whole scenario box.

``scenario.FIELD_RANGES`` claims that inside its ranges every link gain is
positive and every rate finite, whatever the combination of values. The
strategy below draws scenarios from that box as a whole, and the tests
state the figure's geometry there, down to the lowest SNRs the box allows.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mudr import bounds, scenario as sc, waterfill as wf

TABLE2 = sc.load_scenario(sc.bundled_scenario_path())
ALPHAS = wf.default_alpha_grid(50)
# the outer rectangle holds every inner point to this relative tolerance
REL = 1e-12


def field_values(name: str, table2_value: float):
    """Values of one ``FIELD_RANGES`` field: its table2 value, one of its
    range's ends, or a log-uniform draw in its range (from 24 decades below
    the top where the range starts at 0)."""
    lo, hi, _ = sc.FIELD_RANGES[name]
    low_exponent = math.log10(lo) if lo > 0 else math.log10(hi) - 24
    log_uniform = st.floats(low_exponent, math.log10(hi)).map(
        lambda e: min(max(10.0**e, lo), hi))
    return st.one_of(st.just(table2_value), st.sampled_from([lo, hi]), log_uniform)


def numeric_fields(obj) -> dict:
    """The strategy of every ``FIELD_RANGES`` field of ``obj``, by name."""
    return {f.name: field_values(f.name, getattr(obj, f.name))
            for f in fields(obj) if f.name in sc.FIELD_RANGES}


box_scenarios = st.builds(
    lambda top, target: replace(TABLE2, **top, targets=(replace(TABLE2.targets[0], **target),)),
    st.fixed_dictionaries(numeric_fields(TABLE2)),
    st.fixed_dictionaries(numeric_fields(TABLE2.targets[0])),
)


@given(box_scenarios)
def test_region_invariants_over_the_scenario_box(scenario):
    lb = sc.derive_link_budget(scenario)
    if scenario.duty_factor > 1.0 - ALPHAS[0]:
        with pytest.raises(ValueError, match="radar.duty_factor"):
            bounds.rate_region(lb, ALPHAS)
        return
    region = bounds.rate_region(lb, ALPHAS)
    for rates in (region.r_est, region.r_com):
        assert np.isfinite(rates).all() and (rates >= 0).all()
    outer_est, outer_com = region.r_est[1], region.r_com[0]
    inner = np.concatenate((region.index["interpolated"], region.index["waterfill"]))
    assert (region.r_est[inner] <= outer_est * (1 + REL)).all()
    assert (region.r_com[inner] <= outer_com * (1 + REL)).all()
    assert region.r_com[region.index["sic"][0]] <= outer_com
    # r_est is B_mix log2(1 + c B_mix), and B_mix shrinks as alpha grows
    assert (np.diff(region.r_est[region.grid_rows]) <= 0).all()
    # the hull is sorted by r_est, so np.interp reads its polyline
    hull = region.index["hull"]
    on_hull = np.interp(region.r_est[inner], region.r_est[hull], region.r_com[hull])
    assert (region.r_com[inner] <= on_hull + REL * outer_com).all()


# --- the lowest SNRs: where log2(1.0 + x) would lose its digits ---------------------


def low_snr_region(table2_scenario, **values):
    """The 50-split region of table2 with the fields in ``values`` replaced."""
    for name, value in values.items():
        table2_scenario = sc.replace_scenario_field(table2_scenario, name, value)
    return bounds.rate_region(sc.derive_link_budget(table2_scenario), ALPHAS)


def test_low_snr_waterfill_stays_under_the_comms_outer_rate(table2_scenario):
    # full-band SNR 9.2e-15: log2(1.0 + x) read 6.567e-8 bit/s, below the
    # water-filled 6.668e-8
    region = low_snr_region(table2_scenario, comms_power_w=1e-15)
    assert region.r_com[region.index["waterfill"]].max() <= region.r_com[0]


def test_comms_outer_rate_below_2_to_the_minus_53_is_positive(table2_scenario):
    # full-band SNR 9.2e-19: 1.0 + x rounds to 1.0, and the outer rate read
    # exactly 0 while the waterfill reached 6.6e-12 bit/s
    region = low_snr_region(table2_scenario, comms_power_w=1e-15, comms_range_m=1e6)
    outer = region.r_com[0]
    assert outer > 0
    # every rate is linear in its SNR here, so the waterfill's sum of two
    # subband rates meets the outer rate to rounding
    assert 0 < region.r_com[region.index["waterfill"]].max() <= outer * (1 + REL)


def test_pentagon_at_the_lowest_snr_keeps_its_digits():
    # pentagon -300 -300: 1e-30 / ln 2 bits per use, where log2(1.0 + x) read 0
    region = bounds.ma_pentagon(1e-30, 1e-30)
    assert region.r1_max == pytest.approx(1e-30 / math.log(2.0), rel=1e-15, abs=0)
    assert region.r2_max == region.r1_max
    assert region.sum_max == pytest.approx(2e-30 / math.log(2.0), rel=1e-15, abs=0)
