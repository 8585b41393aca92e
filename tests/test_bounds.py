import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    TABLE2_COMMS_OUTER_BPS,
    TABLE2_CRB_S2,
    TABLE2_EST_RATE_BPS,
    TABLE2_INT_PLUS_NOISE_W,
    TABLE2_SIC_RATE_BPS,
    make_lb,
    random_lb,
)
from mudr import bounds

snrs = st.floats(min_value=0.0, max_value=1e6)
positive_snrs = st.floats(min_value=1e-9, max_value=1e6)


# --- multiple-access pentagon -------------------------------------------------


def test_pentagon_symmetric_example():
    region = bounds.ma_pentagon(1.0, 1.0)
    assert region.r1_max == 1.0
    assert region.r2_max == 1.0
    assert region.sum_max == pytest.approx(math.log2(3), rel=1e-15)
    assert region.vertex_a[0] == pytest.approx(math.log2(1.5), rel=1e-12)
    assert region.vertex_a[1] == 1.0


@given(snrs)
def test_pentagon_zero_power_degenerates(s):
    region = bounds.ma_pentagon(0.0, s)
    assert region.r1_max == 0.0
    assert region.vertex_a[0] == pytest.approx(0.0, abs=1e-12)
    assert region.vertex_b[0] == 0.0
    assert region.vertex_a[1] == pytest.approx(math.log2(1 + s), rel=1e-12)


@given(snrs, snrs)
def test_pentagon_identities(s1, s2):
    region = bounds.ma_pentagon(s1, s2)
    for r1, r2 in (region.vertex_a, region.vertex_b):
        assert r1 <= region.r1_max * (1 + 1e-12) + 1e-15
        assert r2 <= region.r2_max * (1 + 1e-12) + 1e-15
        assert r1 + r2 == pytest.approx(region.sum_max, rel=1e-12, abs=1e-15)


def test_pentagon_vertex_sum_identity_at_ulp():
    # corners are built as bound differences, so the sum identity holds to
    # the final addition's rounding
    region = bounds.ma_pentagon(3.7, 0.9)
    for vertex in (region.vertex_a, region.vertex_b):
        assert vertex[0] + vertex[1] == pytest.approx(
            region.sum_max, rel=5e-16, abs=0.0
        )


def test_pentagon_rejects_negative():
    with pytest.raises(ValueError):
        bounds.ma_pentagon(-0.1, 1.0)


# --- delay-variance floor and estimation entropy ------------------------------


def test_crb_frozen_value(table2_lb):
    v = bounds.crb_delay_variance(table2_lb)
    assert v == pytest.approx(TABLE2_CRB_S2, rel=1e-12)
    # about 19.4 m one-sigma in range
    from mudr.scenario import SPEED_OF_LIGHT_M_S

    assert SPEED_OF_LIGHT_M_S * math.sqrt(v) / 2 == pytest.approx(19.36, rel=1e-3)


def test_crb_inverse_power(table2_lb):
    doubled = replace(table2_lb, radar_power_w=2 * table2_lb.radar_power_w)
    assert bounds.crb_delay_variance(doubled) == pytest.approx(
        bounds.crb_delay_variance(table2_lb) / 2, rel=1e-12
    )


@given(st.integers(min_value=0, max_value=2**32))
def test_crb_closed_forms_agree(seed):
    lb = random_lb(np.random.default_rng(seed))
    direct = bounds.crb_delay_variance(lb)
    via_noise = lb.noise_power_w / (
        lb.gamma_sq
        * lb.bandwidth_hz**2
        * lb.time_bandwidth
        * lb.a_sq[0]
        * lb.radar_power_w
    )
    assert direct == pytest.approx(via_noise, rel=1e-12)


def test_crb_degenerate_link():
    lb = make_lb(a_sq=0.0)
    with pytest.raises(bounds.DegenerateLinkError):
        bounds.crb_delay_variance(lb)


def test_estimation_entropy_anchors():
    assert bounds.estimation_entropy(1 / (math.pi * math.e)) == pytest.approx(
        0.0, abs=1e-12
    )
    assert bounds.estimation_entropy(4 / (math.pi * math.e)) == pytest.approx(
        2.0, rel=1e-12
    )
    with pytest.raises(ValueError):
        bounds.estimation_entropy(0.0)


@given(
    st.floats(min_value=1e-20, max_value=1e6),
    st.floats(min_value=1e-20, max_value=1e6),
)
def test_entropy_difference_identity(proc, est):
    gap = bounds.estimation_entropy(proc + est) - bounds.estimation_entropy(est)
    assert gap == pytest.approx(math.log2(1 + proc / est), rel=1e-9, abs=1e-9)


# --- estimation rate -----------------------------------------------------------


def test_est_outer_rate_frozen(table2_lb):
    assert bounds.est_outer_rate(table2_lb) == pytest.approx(
        TABLE2_EST_RATE_BPS, rel=1e-12
    )


def test_est_outer_rate_zero_process(table2_lb):
    quiet = replace(table2_lb, sigma_tau_proc_sq=(0.0,))
    assert bounds.est_outer_rate(quiet) == 0.0


def test_est_outer_rate_two_targets_doubles(table2_lb):
    two = replace(
        table2_lb,
        a_sq=table2_lb.a_sq * 2,
        sigma_tau_proc_sq=table2_lb.sigma_tau_proc_sq * 2,
    )
    assert bounds.est_outer_rate(two) == 2 * bounds.est_outer_rate(table2_lb)


@given(st.integers(min_value=0, max_value=2**32))
def test_est_outer_rate_cross_form(seed):
    lb = random_lb(np.random.default_rng(seed))
    assert bounds.est_outer_rate(lb) == pytest.approx(
        bounds.est_outer_rate_log_form(lb), rel=1e-10
    )


@pytest.mark.parametrize(
    "field", ["radar_power_w"]
)
def test_est_outer_rate_monotone_in_power(table2_lb, field):
    rates = [
        bounds.est_outer_rate(replace(table2_lb, **{field: v}))
        for v in (1.0, 10.0, 1e3, 1e5, 1e7)
    ]
    assert rates == sorted(rates)
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_est_outer_rate_monotone_in_process_and_gain(table2_lb):
    procs = [
        bounds.est_outer_rate(replace(table2_lb, sigma_tau_proc_sq=(v,)))
        for v in (1e-15, 1e-14, 1e-13, 1e-12)
    ]
    assert all(b > a for a, b in zip(procs, procs[1:]))
    gains = [
        bounds.est_outer_rate(replace(table2_lb, a_sq=(v,)))
        for v in (1e-20, 1e-19, 1e-18, 1e-17)
    ]
    assert all(b > a for a, b in zip(gains, gains[1:]))


# --- interference-plus-noise and comms rates -----------------------------------


def test_int_plus_noise_frozen(table2_lb):
    v = bounds.int_plus_noise_variance(table2_lb, table2_lb.bandwidth_hz)
    assert v == pytest.approx(TABLE2_INT_PLUS_NOISE_W, rel=1e-12)


def test_int_plus_noise_degenerate_is_thermal(table2_lb):
    quiet = replace(table2_lb, sigma_tau_proc_sq=(0.0,))
    full = bounds.int_plus_noise_variance(quiet, quiet.bandwidth_hz)
    assert full == pytest.approx(quiet.noise_power_w, rel=1e-12)
    half = bounds.int_plus_noise_variance(quiet, quiet.bandwidth_hz / 2)
    assert half == pytest.approx(full / 2, rel=1e-12)


def test_int_plus_noise_rejects_wide_band(table2_lb):
    with pytest.raises(ValueError):
        bounds.int_plus_noise_variance(table2_lb, 2 * table2_lb.bandwidth_hz)


def test_comms_outer_frozen(table2_lb):
    assert bounds.comms_outer_rate(table2_lb) == pytest.approx(
        TABLE2_COMMS_OUTER_BPS, rel=1e-12
    )


def test_comms_outer_unit_snr():
    lb = make_lb(b_sq=make_lb().noise_power_w / 0.1, comms_power_w=0.1)
    assert bounds.comms_outer_rate(lb) == pytest.approx(lb.bandwidth_hz, rel=1e-12)


def test_comms_outer_zero_power():
    assert bounds.comms_outer_rate(make_lb(comms_power_w=0.0)) == 0.0


def test_sic_frozen(table2_lb):
    assert bounds.sic_comms_rate(table2_lb) == pytest.approx(
        TABLE2_SIC_RATE_BPS, rel=1e-12
    )
    assert bounds.sic_comms_rate(table2_lb) < bounds.comms_outer_rate(table2_lb)


@given(st.integers(min_value=0, max_value=2**32))
def test_sic_never_exceeds_outer(seed):
    lb = random_lb(np.random.default_rng(seed))
    assert bounds.sic_comms_rate(lb) <= bounds.comms_outer_rate(lb) * (1 + 1e-12)


def test_sic_equals_outer_iff_quiet(table2_lb):
    quiet = replace(table2_lb, sigma_tau_proc_sq=(0.0,))
    assert bounds.sic_comms_rate(quiet) == pytest.approx(
        bounds.comms_outer_rate(quiet), rel=1e-12
    )


# --- interpolated inner bound and rate region ----------------------------------


def test_interpolated_endpoints(table2_lb):
    curve = bounds.interpolated_inner(table2_lb)
    assert curve.points[0].r_est == 0.0
    assert curve.points[0].r_com == pytest.approx(TABLE2_COMMS_OUTER_BPS, rel=1e-12)
    assert curve.points[1].r_est == pytest.approx(TABLE2_EST_RATE_BPS, rel=1e-12)
    assert curve.points[1].r_com == pytest.approx(TABLE2_SIC_RATE_BPS, rel=1e-12)
    assert curve.points[0].r_com >= curve.points[1].r_com


def test_interpolated_rejects_multi_target():
    with pytest.raises(bounds.MultiTargetError):
        bounds.interpolated_inner(make_lb(n_targets=2))


def test_interpolated_degenerate_radar(table2_lb):
    quiet = replace(table2_lb, sigma_tau_proc_sq=(0.0,))
    curve = bounds.interpolated_inner(quiet)
    assert curve.points[0].r_est == curve.points[1].r_est == 0.0
    assert curve.points[0].r_com == pytest.approx(curve.points[1].r_com, rel=1e-12)


def test_rate_region_curve_inventory(table2_lb):
    region = bounds.rate_region(table2_lb, [0.1, 0.5, 0.9])
    assert [c.label for c in region.curves] == [
        "outer",
        "sic",
        "interpolated",
        "waterfill",
        "hull",
    ]


def test_rate_region_alpha_zero_is_vertex(table2_lb):
    wf = bounds.rate_region(table2_lb, [0.0]).waterfill
    assert len(wf.points) == 1
    assert wf.points[0].r_est == pytest.approx(TABLE2_EST_RATE_BPS, rel=1e-12)
    assert wf.points[0].r_com == pytest.approx(TABLE2_SIC_RATE_BPS, rel=1e-12)


def test_rate_region_hull_concave(table2_lb):
    hull = bounds.rate_region(table2_lb, np.linspace(0.01, 0.99, 100)).hull.points
    slopes = [
        (b.r_com - a.r_com) / (b.r_est - a.r_est)
        for a, b in zip(hull, hull[1:])
        if b.r_est > a.r_est
    ]
    assert all(s2 <= s1 + 1e-9 for s1, s2 in zip(slopes, slopes[1:]))


def test_rate_region_waterfill_beats_interpolation(table2_lb):
    region = bounds.rate_region(table2_lb, np.linspace(0.01, 0.99, 200))
    p0, p1 = region.interpolated.points
    slope = (p1.r_com - p0.r_com) / (p1.r_est - p0.r_est)

    def interp(r_est):
        return p0.r_com + slope * r_est

    assert any(p.r_com > interp(p.r_est) for p in region.waterfill.points)


def test_rate_region_rejects_bad_grid(table2_lb):
    with pytest.raises(ValueError):
        bounds.rate_region(table2_lb, [0.5, 0.1])
    with pytest.raises(ValueError):
        bounds.rate_region(table2_lb, [0.5, 1.0])


# --- sanity direction: enumerated mutual information stays below the bound -----


def _binary_delay_mutual_information(d: float, sigma: float) -> float:
    """I(X;Y) for X uniform on {-d, +d}, Y = X + N(0, sigma^2), by quadrature."""
    y = np.linspace(-d - 10 * sigma, d + 10 * sigma, 200_001)

    def pdf(mu):
        return np.exp(-((y - mu) ** 2) / (2 * sigma**2)) / math.sqrt(
            2 * math.pi * sigma**2
        )

    mix = 0.5 * pdf(-d) + 0.5 * pdf(d)
    mix = np.clip(mix, 1e-300, None)
    h_y = -np.trapezoid(mix * np.log2(mix), y)
    h_y_given_x = 0.5 * math.log2(2 * math.pi * math.e * sigma**2)
    return float(h_y - h_y_given_x)


@pytest.mark.parametrize("ratio", [0.3, 1.0, 3.0, 10.0])
def test_two_value_process_never_beats_gaussian_bound(ratio):
    # One-sided sanity check only: the enumerated mutual information of a
    # two-value delay process must stay below the Gaussian-entropy gap the
    # estimation rate uses. It says nothing about tightness.
    sigma = 1.0
    d = ratio * sigma
    mi = _binary_delay_mutual_information(d, sigma)
    gaussian_gap = math.log2(1 + d**2 / sigma**2)
    assert mi <= gaussian_gap + 1e-6
    assert mi <= 1.0 + 1e-9  # one bit of input entropy caps it too
