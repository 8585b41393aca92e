import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    GAMMA_SQ_FLAT,
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
    WF2_BETA_05,
    WF2_MU_MIX_05,
    WF2_R_COM_MIX_05,
    WF2_R_EST_05,
    brute_force_total_comms_rate,
    chain_hull,
    curve,
    log2_1p,
    random_lb,
    waterfill_row,
    with_second_target,
)
from mudr import bounds, scenario as sc, waterfill as wf

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


def test_channels_reject_boundary(table2_lb):
    for a in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            wf.waterfill_grid(table2_lb, [a])


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
    assert p.self_consistent


def test_two_target_split_frozen_at_half(table2_scenario):
    # sigma_mix carries both targets' residuals; r_est is the sum of theirs
    p = waterfill_row(with_second_target(table2_scenario), 0.5)
    assert p.mu_mix == pytest.approx(WF2_MU_MIX_05, rel=1e-12)
    assert p.beta == pytest.approx(WF2_BETA_05, rel=1e-12)
    assert p.r_com_mix == pytest.approx(WF2_R_COM_MIX_05, rel=1e-12)
    assert p.r_est == pytest.approx(WF2_R_EST_05, rel=1e-12)


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
    assert len(bounds.rate_region(table2_lb, grid).index["waterfill"]) == 2


def test_waterfill_singleton_grid(table2_lb):
    r_est, r_com = curve(bounds.rate_region(table2_lb, [0.5]), "waterfill")
    p = waterfill_row(table2_lb, 0.5)
    assert len(r_est) == 1
    assert r_est[0] == p.r_est
    assert r_com[0] == p.r_com_total


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


def _hull(points):
    """The hull of a list of (r_est, r_com) pairs, as a list of pairs picked
    by the returned vertex indices."""
    r_est, r_com = np.array(points, dtype=float).reshape(-1, 2).T
    index = wf.upper_convex_hull(r_est, r_com)
    return list(zip(r_est[index].tolist(), r_com[index].tolist()))


def _oracle(points):
    r_est, r_com = np.array(points, dtype=float).reshape(-1, 2).T
    return chain_hull(r_est, r_com)


def test_hull_collinear_reduces_to_endpoints():
    pts = [(float(i), 10.0 - i) for i in range(6)]
    hull = _hull(pts)
    assert len(hull) == 2
    assert hull[0] == (0.0, 10.0)
    assert hull[-1] == (5.0, 5.0)


def test_hull_keeps_dominating_bump():
    pts = [(0.0, 1.0), (1.0, 0.0), (0.5, 0.9)]
    assert _hull(pts) == [
        (0.0, 1.0),
        (0.5, 0.9),
        (1.0, 0.0),
    ]


def test_hull_drops_dominated_point():
    pts = [(0.0, 1.0), (0.5, 0.3), (1.0, 0.0)]
    assert len(_hull(pts)) == 2


def test_hull_keeps_input_points_largest_ordinate_per_abscissa():
    low, high, end = (0.0, 0.5), (0.0, 1.0), (1.0, 0.0)
    assert _hull([low, end, high]) == [high, end]


def test_hull_requires_two_points():
    with pytest.raises(ValueError):
        _hull([(0.0, 1.0)])


def test_hull_returns_indices_in_abscissa_order():
    r_est = np.array([2.0, 0.0, 1.0, 1.0])
    r_com = np.array([0.0, 2.0, 1.0, 1.5])
    index = wf.upper_convex_hull(r_est, r_com)
    assert index.dtype.kind == "i"
    assert index.tolist() == [1, 3, 0]


@pytest.mark.parametrize(
    "points",
    [
        # a point below the chord of its neighbours
        [(0.0, 1.0), (0.5, 0.3), (1.0, 0.0), (0.25, 0.9)],
        # three collinear points: the cross product is exactly 0
        [(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)],
        # ties on one abscissa, whose top points are collinear
        [(0.0, 2.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.5), (2.0, 0.0), (2.0, -1.0)],
    ],
    ids=["below_chord", "collinear", "abscissa_ties"],
)
def test_hull_chain_fallback_equals_oracle(points):
    hull = _hull(points)
    # fewer vertices than abscissae: the chain popped, so the fast path
    # could not have answered
    assert len(hull) < len({x for x, _ in points})
    assert hull == _oracle(points)


def test_hull_fast_path_on_strictly_concave_cloud():
    # a quarter circle, shuffled, with points below it on shared abscissae
    x = np.linspace(0.0, 1.0, 50)
    arc = list(zip(x.tolist(), np.sqrt(1.0 - x**2).tolist()))
    below = [(px, py / 2) for px, py in arc[::7]]
    points = [arc[i] for i in np.random.default_rng(0).permutation(len(arc))] + below
    hull = _hull(points)
    assert hull == arc  # every distinct abscissa is a vertex
    assert hull == _oracle(points)


def chain_indices(r_est: np.ndarray, r_com: np.ndarray) -> list[int]:
    """The chain's vertices as cloud indices: of equal points, the hull
    keeps the first, as the stable sort puts it first."""
    points = list(zip(r_est.tolist(), r_com.tolist()))
    return [points.index(vertex) for vertex in chain_hull(r_est, r_com)]


@st.composite
def arc_clouds(draw):
    """A strictly concave integer arc with some points lowered, some
    repeated and some below others on their abscissa, shuffled: clouds the
    fast path takes whole and clouds the chain pops from."""
    xs = sorted(draw(st.sets(st.integers(0, 60), min_size=2, max_size=30)))
    arc = [(x, 4000 - x * x) for x in xs]
    for i, drop in draw(st.lists(st.tuples(st.integers(0, len(arc) - 1),
                                           st.integers(0, 3000)), max_size=3)):
        arc[i] = (arc[i][0], arc[i][1] - drop)
    extra = draw(st.lists(st.sampled_from(arc), max_size=3))
    below = [(x, y - 1) for x, y in draw(st.lists(st.sampled_from(arc), max_size=2))]
    return draw(st.permutations(arc + extra + below))


@given(arc_clouds())
def test_hull_equals_chain(points):
    r_est, r_com = np.array(points, dtype=float).T
    assert wf.upper_convex_hull(r_est, r_com).tolist() == chain_indices(r_est, r_com)


@pytest.mark.parametrize("block", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("side", ["last_of_a_block", "first_of_the_next"])
def test_hull_pop_at_a_block_boundary(block, side):
    # a concave 12-point arc whose only popping triple would be the last one
    # of the first block, or the first one of the second, were the triples
    # split into blocks of ``block``: the fast path tests every triple in one
    # pass, so it sees the pop wherever it is, and the chain drops its middle
    # point alone
    start = block - 1 if side == "last_of_a_block" else block
    x = np.arange(12.0)
    y = 200.0 - x * x
    middle = start + 1
    y[middle] = (y[middle - 1] + y[middle + 1]) / 2 - 1  # below its chord
    index = wf.upper_convex_hull(x, y)
    assert index.tolist() == chain_indices(x, y) == [i for i in range(12) if i != middle]


def test_hull_chain_holds_positions_under_a_traced_peak(table2_scenario):
    # table2 at 100 kW over 10^5 splits: the chain pops, so it runs over
    # every self-consistent split
    lb = sc.derive_link_budget(sc.replace_scenario_field(table2_scenario, "radar_power_w", 1e5))
    grid = wf.waterfill_grid(lb, wf.default_alpha_grid(100000))
    r_est, r_com = grid.r_est[grid.self_consistent], grid.r_com_total[grid.self_consistent]
    del grid
    tracemalloc.start()
    try:
        hull = wf.upper_convex_hull(r_est, r_com)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(hull) < len(np.unique(r_est))  # the chain popped
    # The traced peak reads 11.4 MB, the two tolist() columns and a stack
    # of positions into them, against 15.1 MB when the stack held an
    # (i, x, y) tuple per point.
    assert peak < 13e6, peak / 1e6


@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 20)), min_size=2, max_size=40
    )
)
def test_hull_of_integer_clouds(cloud):
    # small integer coordinates: repeated abscissae, duplicate points, and
    # cross products that are exact in floating point
    hull = _hull(cloud)
    assert hull == _oracle(cloud)
    xs, ys = zip(*hull)
    assert set(hull) <= set(cloud)
    assert all(a < b for a, b in zip(xs, xs[1:]))
    for (x1, y1), (x2, y2), (x3, y3) in zip(hull, hull[1:], hull[2:]):
        assert (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1) < 0  # strict right turn
    for x, y in cloud:
        i = max(i for i, hx in enumerate(xs) if hx <= x)
        if i == len(hull) - 1:
            assert x == xs[i] and y <= ys[i]
        else:
            (x1, y1), (x2, y2) = hull[i], hull[i + 1]
            assert (x2 - x1) * (y - y1) <= (y2 - y1) * (x - x1)
    for x, y in hull:
        assert y == max(cy for cx, cy in cloud if cx == x)


def _hull_value_at(hull, x):
    xs, ys = zip(*hull)
    for i in range(len(xs) - 1):
        if xs[i] <= x <= xs[i + 1]:
            if xs[i + 1] == xs[i]:
                return max(ys[i], ys[i + 1])
            t = (x - xs[i]) / (xs[i + 1] - xs[i])
            return ys[i] + t * (ys[i + 1] - ys[i])
    return ys[-1]


def _contributors(lb, grid):
    """The interpolated and waterfill points of ``grid`` as one cloud."""
    interp_est, interp_com = curve(bounds.rate_region(lb, [0.5]), "interpolated")
    split_est, split_com = curve(bounds.rate_region(lb, grid), "waterfill")
    r_est = np.concatenate((interp_est, split_est))
    r_com = np.concatenate((interp_com, split_com))
    return list(zip(r_est.tolist(), r_com.tolist()))


def test_hull_dominates_contributors(table2_lb):
    cloud = _contributors(table2_lb, np.linspace(0.02, 0.98, 150))
    hull = _hull(cloud)
    for x, y in cloud:
        assert _hull_value_at(hull, x) >= y - 1e-9


def test_hull_anchors(table2_lb):
    cloud = _contributors(table2_lb, np.linspace(0.02, 0.98, 50))
    hull = _hull(cloud)
    assert hull[0][0] == 0.0
    assert hull[0][1] == max(y for _, y in cloud)
    assert hull[-1][0] == max(x for x, _ in cloud)


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
    a_sq, proc_sq, gamma_sq = lb.a_sq[0], lb.sigma_tau_proc_sq[0], GAMMA_SQ_FLAT
    rows = []
    for alpha in alphas:
        b_com = alpha * bw
        b_mix = bw - b_com
        residual = lb.radar_power_w * (a_sq * gamma_sq * (b_mix * b_mix) * proc_sq)
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
        r_com_com = b_com * log2_1p(p_com_com * b_sq / (kt * b_com))
        r_com_mix = b_mix * log2_1p(b_sq * p_com_mix / sigma_mix)
        snr = proc_sq * gamma_sq * b_mix * kappa * a_sq * lb.radar_power_w / kt
        r_est = b_mix * (lb.duty_factor / kappa) * log2_1p(snr)
        ok = kappa * lb.duty_factor <= lb.time_bandwidth * (1.0 - alpha)
        rows.append((alpha, b_com, b_mix, sigma_mix, mu_com, mu_mix, nu, beta,
                     clamped, p_com_com, p_com_mix, r_com_com, r_com_mix, r_est, ok))
    return rows


def assert_kernel_matches_scalar_forms(lb, n):
    alphas = wf.default_alpha_grid(n).tolist()
    want = dict(zip(KERNEL_COLUMNS, map(list, zip(*scalar_reference_rows(lb, alphas)))))
    region = bounds.rate_region(lb, alphas)
    grid = wf.waterfill_grid(lb, alphas)
    for name in KERNEL_COLUMNS:
        got = getattr(grid, name).tolist()
        assert got == want[name], name  # bit for bit, flags included
    r_com = [a + b for a, b in zip(want["r_com_com"], want["r_com_mix"])]
    assert grid.r_com_total.tolist() == r_com
    # the region keeps the grid's flags and counters, and a row per split
    assert region.self_consistent.tolist() == want["self_consistent"]
    assert region.counters == grid.counters()
    assert region.r_est[region.grid_rows].tolist() == want["r_est"]
    assert region.r_com[region.grid_rows].tolist() == r_com
    published = [
        (e, c) for e, c, ok in zip(want["r_est"], r_com, want["self_consistent"]) if ok
    ]
    split_est, split_com = curve(region, "waterfill")
    assert list(zip(split_est.tolist(), split_com.tolist())) == published
    interp_est, interp_com = curve(region, "interpolated")
    cloud_est = np.concatenate((interp_est, [e for e, _ in published]))
    cloud_com = np.concatenate((interp_com, [c for _, c in published]))
    index = wf.upper_convex_hull(cloud_est, cloud_com)
    # the hull's rows are the chain's cloud indices, mapped to table rows
    cloud_rows = np.concatenate((region.index["interpolated"], region.index["waterfill"]))
    assert region.index["hull"].tolist() == cloud_rows[index].tolist()
    hull_est, hull_com = curve(region, "hull")
    assert hull_est.tolist() == cloud_est[index].tolist()
    assert hull_com.tolist() == cloud_com[index].tolist()
    hull = list(zip(hull_est.tolist(), hull_com.tolist()))
    assert hull == chain_hull(cloud_est, cloud_com)


def test_default_alpha_grid_is_the_scalar_grid():
    lo, hi = 1e-4, 1.0 - 1e-4
    for n in (1, 2, 400, 100_000):
        want = [lo] if n == 1 else [lo + i * ((hi - lo) / (n - 1)) for i in range(n)]
        grid = wf.default_alpha_grid(n)
        assert grid.dtype == np.float64
        assert grid.tolist() == want, n  # bit for bit


def test_default_alpha_grid_needs_a_point():
    with pytest.raises(ValueError, match="at least one point"):
        wf.default_alpha_grid(0)


def test_kernel_matches_scalar_forms_table2(table2_lb):
    for n in (400, 100_000):
        assert_kernel_matches_scalar_forms(table2_lb, n)


def test_kernel_matches_scalar_forms_random_scenarios():
    for seed in range(20):
        assert_kernel_matches_scalar_forms(random_lb(np.random.default_rng(seed)), 400)


def test_scalar_views_return_python_floats(table2_lb):
    values = [
        bounds.int_plus_noise_variance(table2_lb, 1e6),
        bounds.est_outer_rate(table2_lb),
        bounds.comms_outer_rate(table2_lb),
        bounds.sic_comms_rate(table2_lb),
    ]
    assert all(type(v) is float for v in values)
    # CSV and SVG bytes are the reprs of these: every curve is two float64
    # columns whose tolist() coordinates are Python floats, the hull included
    region = bounds.rate_region(table2_lb, [0.25, 0.5, 0.995])
    for label in region.index:
        r_est, r_com = curve(region, label)
        assert r_est.dtype == r_com.dtype == np.float64, label
        assert all(type(v) is float for v in r_est.tolist() + r_com.tolist()), label
