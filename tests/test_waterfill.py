import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    TABLE2_EST_RATE_BPS,
    TABLE2_SIC_RATE_BPS,
    WF_ALPHAS,
    WF_BETAS,
    WF_MU_COM_05,
    WF_MU_MIX_05,
    WF_NU_05,
    WF_R_COM_COM_05,
    WF_R_COM_MIX_05,
    WF_R_EST_05,
    brute_force_total_comms_rate,
    make_lb,
    random_lb,
    waterfill_row,
)
from mudr import bounds, waterfill as wf
from mudr.bounds import MultiTargetError, RatePoint

alphas = st.floats(min_value=1e-3, max_value=1.0 - 1e-3)


# --- subband channels -----------------------------------------------------------


def test_channels_frozen_at_half(table2_lb):
    row = waterfill_row(table2_lb, 0.5)
    mu_com, mu_mix = row.mu_com, row.mu_mix
    assert mu_com == pytest.approx(WF_MU_COM_05, rel=1e-12)
    assert mu_mix == pytest.approx(WF_MU_MIX_05, rel=1e-12)


def test_channels_symmetric_when_quiet(table2_lb):
    quiet = replace(table2_lb, sigma_tau_proc_sq=(0.0,))
    row = waterfill_row(quiet, 0.5)
    assert row.mu_com == row.mu_mix


def test_channels_diverge_as_alpha_vanishes(table2_lb):
    values = [waterfill_row(table2_lb, a).mu_com for a in (1e-2, 1e-4, 1e-6, 1e-8)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_channels_reject_boundary_and_multi_target(table2_lb):
    for a in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            wf.waterfill_grid(table2_lb, [a])
    with pytest.raises(MultiTargetError):
        wf.waterfill_grid(make_lb(n_targets=2), [0.5])


# --- power split ----------------------------------------------------------------


def test_power_split_frozen_vector(table2_lb):
    for alpha, beta in zip(WF_ALPHAS, WF_BETAS):
        split = waterfill_row(table2_lb, alpha)
        assert split.beta == pytest.approx(beta, rel=1e-12)
        assert not split.beta_clamped


def test_power_split_frozen_at_half(table2_lb):
    split = waterfill_row(table2_lb, 0.5)
    assert split.nu == pytest.approx(WF_NU_05, rel=1e-12)
    assert split.b_com == 2.5e6
    assert split.b_com + split.b_mix == table2_lb.bandwidth_hz


def test_power_split_symmetric_quiet_case(table2_lb):
    quiet = replace(table2_lb, sigma_tau_proc_sq=(0.0,))
    split = waterfill_row(quiet, 0.5)
    assert split.beta == 0.5


def test_power_split_at_exact_threshold(table2_lb):
    row = waterfill_row(table2_lb, 0.5)
    threshold = wf.dual_use_threshold_w(0.5, row.mu_com, row.mu_mix)
    lb = replace(table2_lb, comms_power_w=threshold)
    split = waterfill_row(lb, 0.5)
    assert split.beta == pytest.approx(1.0, rel=1e-12)
    assert split.p_com_mix == pytest.approx(0.0, abs=1e-12 * threshold)


def test_power_split_below_threshold_single_channel(table2_lb):
    row = waterfill_row(table2_lb, 0.5)
    threshold = wf.dual_use_threshold_w(0.5, row.mu_com, row.mu_mix)
    lb = replace(table2_lb, comms_power_w=threshold / 2)
    split = waterfill_row(lb, 0.5)
    assert split.beta == 1.0
    assert split.p_com_mix == 0.0
    assert split.p_com_com == lb.comms_power_w


@given(st.integers(min_value=0, max_value=2**32), alphas)
def test_power_conservation_and_beta_range(seed, alpha):
    lb = random_lb(np.random.default_rng(seed))
    split = waterfill_row(lb, alpha)
    assert 0.0 <= split.beta <= 1.0
    assert split.p_com_com + split.p_com_mix == pytest.approx(
        lb.comms_power_w, rel=1e-12
    )
    assert split.beta == pytest.approx(split.p_com_com / lb.comms_power_w, rel=1e-12)
    if split.beta_clamped:
        assert split.beta in (0.0, 1.0)


def test_beta_continuous_over_alpha_sweep(table2_lb):
    grid = np.linspace(0.01, 0.99, 300)
    betas = wf.waterfill_grid(table2_lb, grid).beta
    jumps = np.abs(np.diff(betas))
    assert float(np.max(jumps)) < 0.02


def test_threshold_continuity_in_power(table2_lb):
    alpha = 0.4
    row = waterfill_row(table2_lb, alpha)
    p_star = wf.dual_use_threshold_w(alpha, row.mu_com, row.mu_mix)

    def total(p):
        lb = replace(table2_lb, comms_power_w=p)
        point = waterfill_row(lb, alpha)
        return point.r_com_total

    below = total(p_star * (1 - 1e-6))
    above = total(p_star * (1 + 1e-6))
    assert above == pytest.approx(below, rel=1e-4)


# --- waterfill point / curve -----------------------------------------------------


def test_waterfill_point_frozen_at_half(table2_lb):
    p = waterfill_row(table2_lb, 0.5)
    assert p.r_com_com == pytest.approx(WF_R_COM_COM_05, rel=1e-12)
    assert p.r_com_mix == pytest.approx(WF_R_COM_MIX_05, rel=1e-12)
    assert p.r_est == pytest.approx(WF_R_EST_05, rel=1e-12)
    assert p.kappa == table2_lb.time_bandwidth
    assert p.self_consistent


def test_waterfill_endpoint_is_sic_vertex(table2_lb):
    p = waterfill_row(table2_lb, 1e-8)
    assert p.r_est == pytest.approx(TABLE2_EST_RATE_BPS, rel=1e-6)
    assert p.r_com_total == pytest.approx(TABLE2_SIC_RATE_BPS, rel=1e-6)


def test_waterfill_quiet_radar(table2_lb):
    quiet = replace(table2_lb, sigma_tau_proc_sq=(0.0,))
    outer = bounds.comms_outer_rate(quiet)
    for alpha in (0.1, 0.5, 0.9):
        p = waterfill_row(quiet, alpha)
        assert p.r_est == 0.0
        assert p.r_com_total <= outer * (1 + 1e-12)
    # equal channels at alpha = 1/2: the split is optimal, so the full-band
    # rate is attained
    assert waterfill_row(quiet, 0.5).r_com_total == pytest.approx(
        outer, rel=1e-12
    )


def test_waterfill_self_consistency_boundary(table2_lb):
    # kappa*delta <= TB*(1 - alpha): with TB=100 and delta=0.01 the flag
    # trips above alpha = 0.99
    assert waterfill_row(table2_lb, 0.98).self_consistent
    assert not waterfill_row(table2_lb, 0.995).self_consistent


def test_waterfill_curve_filters_inconsistent_points(table2_lb):
    grid = [0.5, 0.9, 0.995]
    points = wf.waterfill_grid(table2_lb, grid)
    assert points.self_consistent.tolist() == [True, True, False]
    curve = bounds.rate_region(table2_lb, grid).waterfill
    assert len(curve.points) == 2


def test_waterfill_singleton_grid(table2_lb):
    curve = bounds.rate_region(table2_lb, [0.5]).waterfill
    p = waterfill_row(table2_lb, 0.5)
    assert len(curve.points) == 1
    assert curve.points[0].r_est == p.r_est
    assert curve.points[0].r_com == p.r_com_total


def test_waterfill_grid_validation(table2_lb):
    with pytest.raises(ValueError):
        wf.waterfill_grid(table2_lb, [0.9, 0.1])
    with pytest.raises(ValueError):
        wf.waterfill_grid(table2_lb, [0.0, 0.5])


@given(st.integers(min_value=0, max_value=2**32))
def test_waterfill_optimality_against_grid(seed):
    rng = np.random.default_rng(seed)
    lb = random_lb(rng)
    alpha = float(rng.uniform(0.05, 0.95))
    point = waterfill_row(lb, alpha)
    if lb.comms_power_w < wf.dual_use_threshold_w(alpha, point.mu_com, point.mu_mix):
        return
    grid_best, _ = brute_force_total_comms_rate(lb, alpha, n_beta=4000)
    assert point.r_com_total >= grid_best * (1 - 1e-9)


# --- upper convex hull ------------------------------------------------------------


def test_hull_collinear_reduces_to_endpoints():
    pts = [RatePoint(float(i), 10.0 - i) for i in range(6)]
    hull = wf.upper_convex_hull(pts)
    assert len(hull.points) == 2
    assert hull.points[0] == RatePoint(0.0, 10.0)
    assert hull.points[-1] == RatePoint(5.0, 5.0)


def test_hull_keeps_dominating_bump():
    pts = [RatePoint(0.0, 1.0), RatePoint(1.0, 0.0), RatePoint(0.5, 0.9)]
    hull = wf.upper_convex_hull(pts)
    assert [(p.r_est, p.r_com) for p in hull.points] == [
        (0.0, 1.0),
        (0.5, 0.9),
        (1.0, 0.0),
    ]


def test_hull_drops_dominated_point():
    pts = [RatePoint(0.0, 1.0), RatePoint(0.5, 0.3), RatePoint(1.0, 0.0)]
    hull = wf.upper_convex_hull(pts)
    assert len(hull.points) == 2


def test_hull_keeps_input_points_largest_ordinate_per_abscissa():
    low, high, end = RatePoint(0.0, 0.5), RatePoint(0.0, 1.0), RatePoint(1.0, 0.0)
    hull = wf.upper_convex_hull([low, end, high])
    assert hull.points == (high, end)
    assert hull.points[0] is high and hull.points[1] is end


def test_hull_requires_two_points():
    with pytest.raises(ValueError):
        wf.upper_convex_hull([RatePoint(0.0, 1.0)])


def _hull_value_at(hull, x):
    pts = hull.points
    for a, b in zip(pts, pts[1:]):
        if a.r_est <= x <= b.r_est:
            if b.r_est == a.r_est:
                return max(a.r_com, b.r_com)
            t = (x - a.r_est) / (b.r_est - a.r_est)
            return a.r_com + t * (b.r_com - a.r_com)
    return pts[-1].r_com


def test_hull_dominates_contributors(table2_lb):
    grid = np.linspace(0.02, 0.98, 150)
    curve = bounds.rate_region(table2_lb, grid).waterfill
    interp = bounds.interpolated_inner(table2_lb)
    hull = wf.upper_convex_hull(list(interp.points) + list(curve.points))
    for p in list(interp.points) + list(curve.points):
        assert _hull_value_at(hull, p.r_est) >= p.r_com - 1e-9


def test_hull_anchors(table2_lb):
    grid = np.linspace(0.02, 0.98, 50)
    curve = bounds.rate_region(table2_lb, grid).waterfill
    interp = bounds.interpolated_inner(table2_lb)
    hull = wf.upper_convex_hull(list(interp.points) + list(curve.points))
    all_pts = list(interp.points) + list(curve.points)
    assert hull.points[0].r_est == 0.0
    assert hull.points[0].r_com == max(p.r_com for p in all_pts)
    assert hull.points[-1].r_est == max(p.r_est for p in all_pts)


# --- split bookkeeping -------------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**32), alphas)
def test_subband_widths_sum_exactly(seed, alpha):
    lb = random_lb(np.random.default_rng(seed))
    split = waterfill_row(lb, alpha)
    # exact up to the final addition's rounding (<= 2 ulp)
    assert split.b_com + split.b_mix == pytest.approx(
        lb.bandwidth_hz, rel=5e-16, abs=0.0
    )
    assert split.alpha == alpha


# --- the array kernel against the scalar closed forms ------------------------------

KERNEL_COLUMNS = (
    "alpha", "b_com", "b_mix", "sigma_mix", "mu_com", "mu_mix", "nu", "beta",
    "beta_clamped", "p_com_com", "p_com_mix", "r_com_com", "r_com_mix", "r_est",
    "self_consistent",
)


def scalar_reference_rows(lb, alphas):
    """Every kernel column for each alpha, from the scalar closed forms in
    plain ``math``, operation for operation, one alpha at a time."""
    kappa = lb.time_bandwidth
    bw, kt, b_sq, p = lb.bandwidth_hz, lb.kt_w_per_hz, lb.b_sq, lb.comms_power_w
    a_sq, proc_sq, gamma_sq = lb.a_sq[0], lb.sigma_tau_proc_sq[0], lb.gamma_sq
    rows = []
    for alpha in alphas:
        b_com = alpha * bw
        b_mix = bw - b_com
        residual = lb.radar_power_w * (a_sq * gamma_sq * b_mix**2 * proc_sq)
        sigma_mix = residual + kt * b_mix
        mu_com = b_sq / (kt * b_com)
        mu_mix = b_sq / sigma_mix
        clamped = False
        if p >= alpha / ((1.0 - alpha) * mu_mix) - 1.0 / mu_com:
            nu = p + 1.0 / mu_com + 1.0 / mu_mix
            beta = alpha + ((alpha - 1.0) / mu_com + alpha / mu_mix) / p
            if beta < 0.0:
                beta, clamped = 0.0, True
            elif beta > 1.0:
                beta, clamped = 1.0, True
        else:
            nu = (p + 1.0 / mu_com) / alpha
            beta = 1.0
        p_com_com = beta * p
        p_com_mix = (1.0 - beta) * p
        r_com_com = b_com * math.log2(1.0 + p_com_com * b_sq / (kt * b_com))
        r_com_mix = b_mix * math.log2(1.0 + b_sq * p_com_mix / sigma_mix)
        snr = proc_sq * gamma_sq * b_mix * kappa * a_sq * lb.radar_power_w / kt
        r_est = b_mix * (lb.duty_factor / kappa) * math.log2(1.0 + snr)
        ok = kappa * lb.duty_factor <= lb.time_bandwidth * (1.0 - alpha)
        rows.append((alpha, b_com, b_mix, sigma_mix, mu_com, mu_mix, nu, beta,
                     clamped, p_com_com, p_com_mix, r_com_com, r_com_mix, r_est, ok))
    return rows


def assert_kernel_matches_scalar_forms(lb, n):
    alphas = wf.default_alpha_grid(n)
    want = dict(zip(KERNEL_COLUMNS, map(list, zip(*scalar_reference_rows(lb, alphas)))))
    region = bounds.rate_region(lb, alphas)
    grid = region.grid
    for name in KERNEL_COLUMNS:
        got = getattr(grid, name).tolist()
        assert got == want[name], name  # bit for bit, flags included
    r_com = [a + b for a, b in zip(want["r_com_com"], want["r_com_mix"])]
    assert grid.r_com_total.tolist() == r_com
    published = [
        (e, c) for e, c, ok in zip(want["r_est"], r_com, want["self_consistent"]) if ok
    ]
    assert list(region.waterfill.points) == published
    hull = wf.upper_convex_hull(list(region.interpolated.points) + published)
    assert region.hull.points == hull.points


def test_kernel_matches_scalar_forms_table2(table2_lb):
    for n in (400, 100_000):
        assert_kernel_matches_scalar_forms(table2_lb, n)


def test_kernel_matches_scalar_forms_random_scenarios():
    for seed in range(20):
        assert_kernel_matches_scalar_forms(random_lb(np.random.default_rng(seed)), 400)


def test_scalar_views_return_python_floats(table2_lb):
    values = [
        bounds.int_plus_noise_variance(table2_lb, 1e6),
        bounds.est_outer_rate_log_form(table2_lb),
    ]
    assert all(type(v) is float for v in values)
    # CSV and SVG bytes are the reprs of these: every curve point holds
    # Python floats, the alpha = 0 head and the hull included
    region = bounds.rate_region(table2_lb, [0.0, 0.25, 0.5, 0.995])
    for curve in region.curves:
        assert all(type(v) is float for p in curve.points for v in p), curve.label
