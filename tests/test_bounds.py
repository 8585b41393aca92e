import dataclasses
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    GAMMA_SQ_FLAT,
    TABLE2_COMMS_OUTER_BPS,
    TABLE2_CRB_S2,
    TABLE2_EST_RATE_BPS,
    TABLE2_INT_PLUS_NOISE_W,
    TABLE2_SIC_RATE_BPS,
    curve,
    entropy_form_est_rate,
    estimation_entropy,
    log2_1p,
    make_lb,
    random_lb,
    with_second_target,
)
from mudr import bounds, scenario as sc, waterfill as wf

snrs = st.floats(min_value=0.0, max_value=1e6)
positive_snrs = st.floats(min_value=1e-9, max_value=1e6)


# --- the log form on arrays --------------------------------------------------------


def assert_elementwise_is_scalar_form(values):
    """``bounds._log2_1p`` on an array equals the scalar form on each
    element bit for bit, or raises as the scalar form does."""
    values = np.array(values, dtype=float)
    try:
        want = np.array([log2_1p(v) for v in values.ravel().tolist()], dtype=float)
    except ValueError:
        with pytest.raises(ValueError):
            bounds._log2_1p(values)
        return
    got = bounds._log2_1p(values)
    assert got.dtype == np.float64 and got.shape == values.shape
    assert got.view(np.uint64).ravel().tolist() == want.view(np.uint64).tolist()


@settings(max_examples=150)
@given(st.lists(st.one_of(st.floats(1e-300, 1e300), st.floats(-1.0, 0.0, exclude_min=True)),
                min_size=1, max_size=40))
def test_closed_forms_equal_scalar_forms_on_finite_values(values):
    assert_elementwise_is_scalar_form(values)


def test_closed_forms_where_numpy_rounds_otherwise(table2_lb):
    # on the dense grid numpy's SIMD log1p differs from libm's on about 10k
    # of the mixed-band SNRs, 2.6k of the clean-band ones and 5k of the
    # estimation ratios; every rate's argument must still match libm's
    grid = wf.waterfill_grid(table2_lb, wf.default_alpha_grid(100_000))
    lb = table2_lb
    fisher = bounds._delay_fisher(lb, grid.b_mix, lb.a_sq[0], lb.sigma_tau_proc_sq[0])
    assert_elementwise_is_scalar_form(lb.b_sq * grid.p_com_mix / grid.sigma_mix)
    assert_elementwise_is_scalar_form(lb.b_sq * grid.p_com_com / (lb.kt_w_per_hz * grid.b_com))
    assert_elementwise_is_scalar_form(fisher / lb.kt_w_per_hz)


def test_closed_forms_on_one_powers_of_two_and_subnormals():
    tiny = np.finfo(float).smallest_subnormal
    subnormals = [tiny, 2 * tiny, 3 * tiny, 1e-310, np.nextafter(2.0**-1022, 0)]
    assert_elementwise_is_scalar_form([0.0, 1.0, *subnormals, *(-v for v in subnormals)])
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_elementwise_is_scalar_form(powers)
    assert_elementwise_is_scalar_form(-powers[powers < 1.0])
    # below 2^-53 log1p(x) is x itself, so the rate is x / ln 2, where
    # log2(1.0 + x) reads 0
    small = powers[powers < 2.0**-53]
    assert (bounds._log2_1p(small) == small / math.log(2.0)).all()
    assert math.log2(1.0 + small[-1]) == 0.0


def test_closed_forms_propagate_nan_and_infinities():
    assert_elementwise_is_scalar_form([np.nan, np.inf, 2.0])
    assert np.isnan(bounds._log2_1p(np.array([np.nan]))[0])
    assert bounds._log2_1p(np.array([np.inf])).tolist() == [np.inf]


@pytest.mark.parametrize("x", [-1.0, np.nextafter(-1.0, -np.inf), -1.5, -2.0, -np.inf])
def test_log2_1p_outside_log1p_domain_raises_as_math_log1p(x):
    # x <= -1 lies outside log1p's domain: the scalar and the array raise,
    # as math.log1p does, at -1 and just below it
    with pytest.raises(ValueError):
        math.log1p(x)
    with pytest.raises(ValueError):
        bounds._log2_1p(x)
    with pytest.raises(ValueError):
        bounds._log2_1p(np.array([4.0, x]))


def test_closed_forms_keep_array_shapes_and_scalar_types():
    zero_d = bounds._log2_1p(np.array(8.0))
    assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
    assert float(zero_d) == log2_1p(8.0)
    table = np.arange(1.0, 7.0).reshape(2, 3)
    assert_elementwise_is_scalar_form(table)
    assert_elementwise_is_scalar_form(table.T)  # not contiguous
    for scalar in (8.0, np.float64(8.0), 8):
        got = bounds._log2_1p(scalar)
        assert type(got) is float and got == log2_1p(8.0)


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


@pytest.mark.parametrize("value", [math.nan, -1.0])
def test_check_rates_rejects(value):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        bounds.check_rates("r_est", np.array([1.0, value]))


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
        GAMMA_SQ_FLAT
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
    # no received power: the target carries no information, as in the
    # waterfill r_est column
    assert bounds.est_outer_rate(lb) == 0.0


def test_estimation_entropy_anchors():
    assert estimation_entropy(1 / (math.pi * math.e)) == pytest.approx(0.0, abs=1e-12)
    assert estimation_entropy(4 / (math.pi * math.e)) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError):
        estimation_entropy(0.0)


@given(
    st.floats(min_value=1e-20, max_value=1e6),
    st.floats(min_value=1e-20, max_value=1e6),
)
def test_entropy_difference_identity(proc, est):
    gap = estimation_entropy(proc + est) - estimation_entropy(est)
    assert gap == pytest.approx(math.log2(1 + proc / est), rel=1e-9, abs=1e-9)


# --- estimation rate -----------------------------------------------------------


def test_est_outer_rate_frozen(table2_lb):
    assert bounds.est_outer_rate(table2_lb) == TABLE2_EST_RATE_BPS


def test_est_outer_rate_small_process_keeps_digits(table2_scenario):
    # at 1 m of process jitter sigma_proc^2/CRB is 2.7e-3: a difference of
    # two entropies near -43 bits each loses four digits to cancellation
    # there, log2(1 + x) about two, log1p none
    lb = sc.derive_link_budget(
        sc.replace_scenario_field(table2_scenario, "process_range_std_m", 1.0)
    )
    proc, crb = lb.sigma_tau_proc_sq[0], bounds.crb_delay_variance(lb)
    t_pri = lb.time_bandwidth / lb.bandwidth_hz / lb.duty_factor
    want = math.log1p(proc / crb) / math.log(2) / t_pri
    assert bounds.est_outer_rate(lb) == pytest.approx(want, rel=1e-13)


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
        entropy_form_est_rate(lb), rel=1e-10
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
    r_est, r_com = curve(bounds.rate_region(table2_lb, [0.5]), "interpolated")
    assert r_est[0] == 0.0
    assert r_com[0] == pytest.approx(TABLE2_COMMS_OUTER_BPS, rel=1e-12)
    assert r_est[1] == pytest.approx(TABLE2_EST_RATE_BPS, rel=1e-12)
    assert r_com[1] == pytest.approx(TABLE2_SIC_RATE_BPS, rel=1e-12)
    assert r_com[0] >= r_com[1]


def test_interpolated_degenerate_radar(table2_lb):
    quiet = replace(table2_lb, sigma_tau_proc_sq=(0.0,))
    r_est, r_com = curve(bounds.rate_region(quiet, [0.5]), "interpolated")
    assert r_est[0] == r_est[1] == 0.0
    assert r_com[0] == pytest.approx(r_com[1], rel=1e-12)


def test_rate_region_curve_inventory(table2_lb):
    region = bounds.rate_region(table2_lb, [0.1, 0.5, 0.9])
    assert list(region.index) == [
        "outer",
        "sic",
        "interpolated",
        "waterfill",
        "hull",
    ]


def test_rate_region_hull_concave(table2_lb):
    r_est, r_com = curve(bounds.rate_region(table2_lb, np.linspace(0.01, 0.99, 100)), "hull")
    x, y = r_est.tolist(), r_com.tolist()
    slopes = [
        (y[i + 1] - y[i]) / (x[i + 1] - x[i])
        for i in range(len(x) - 1)
        if x[i + 1] > x[i]
    ]
    assert all(s2 <= s1 + 1e-9 for s1, s2 in zip(slopes, slopes[1:]))


def test_rate_region_waterfill_beats_interpolation(table2_lb):
    region = bounds.rate_region(table2_lb, np.linspace(0.01, 0.99, 200))
    (e0, e1), (c0, c1) = curve(region, "interpolated")
    slope = (c1 - c0) / (e1 - e0)

    def interp(r_est):
        return c0 + slope * r_est

    split_est, split_com = curve(region, "waterfill")
    assert any(split_com > interp(split_est))


def test_rate_region_ignores_negligible_second_target(table2_lb, table2_scenario):
    # a second target at the cross-section floor adds only rounding-level
    # estimation rate and interference to every curve and split
    grid = wf.default_alpha_grid(400)
    two_lb = with_second_target(table2_scenario, 1e-12)
    one = bounds.rate_region(table2_lb, grid)
    two = bounds.rate_region(two_lb, grid)
    for label in one.index:
        for a, b in zip(curve(one, label), curve(two, label)):
            np.testing.assert_allclose(b, a, rtol=1e-9, atol=0)
    one_splits, two_splits = wf.waterfill_grid(table2_lb, grid), wf.waterfill_grid(two_lb, grid)
    np.testing.assert_allclose(two_splits.r_est, one_splits.r_est, rtol=1e-9, atol=0)
    np.testing.assert_allclose(
        two_splits.r_com_total, one_splits.r_com_total, rtol=1e-9, atol=0
    )


def held_arrays(value) -> list[np.ndarray]:
    """Every array that ``value`` holds at any depth: itself, or those in
    its dataclass fields, dict values or list and tuple items."""
    if isinstance(value, np.ndarray):
        return [value]
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, dict):
        value = list(value.values())
    elif not isinstance(value, (list, tuple)):
        return []
    return [a for v in value for a in held_arrays(v)]


def test_rate_region_holds_only_what_is_drawn(table2_lb):
    # the record keeps the point table, the curves' rows, a flag per split
    # and the grid's counters; the grid's other columns go in the call
    n = 100_000
    alphas = wf.default_alpha_grid(n)
    tracemalloc.start()
    try:
        region = bounds.rate_region(table2_lb, alphas)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = held_arrays(region)
    # a view counts the array whose memory it keeps
    held = sum((a if a.base is None else a.base).nbytes for a in arrays)
    assert held <= 40 * n, held
    assert current < 5_000_000, current
    assert len(arrays) == 8  # r_est, r_com, five curve indices, the flags


def test_rate_region_blocks_equal_one_grid(table2_lb):
    # three waterfill blocks, the last one short: the rows, flags and
    # counters are those of one grid over every split
    alphas = wf.default_alpha_grid(2 * bounds._REGION_BLOCK + 5)
    region, grid = bounds.rate_region(table2_lb, alphas), wf.waterfill_grid(table2_lb, alphas)
    np.testing.assert_array_equal(region.r_est[region.grid_rows], grid.r_est)
    np.testing.assert_array_equal(region.r_com[region.grid_rows], grid.r_com_total)
    np.testing.assert_array_equal(region.self_consistent, grid.self_consistent)
    assert region.counters == grid.counters()
    assert region.counters["not_self_consistent"] > 0
    # each block is sorted, the grid is not: it is checked whole
    unsorted = np.concatenate((alphas[5 : bounds._REGION_BLOCK + 5], alphas[:5]))
    with pytest.raises(ValueError, match="sorted ascending"):
        bounds.rate_region(table2_lb, unsorted)


def test_rate_region_rejects_bad_grid(table2_lb):
    with pytest.raises(ValueError):
        bounds.rate_region(table2_lb, [0.5, 0.1])
    with pytest.raises(ValueError):
        bounds.rate_region(table2_lb, [0.5, 1.0])
    with pytest.raises(ValueError, match="strictly inside"):
        bounds.rate_region(table2_lb, [0.0, 0.5])
    with pytest.raises(ValueError, match="no self-consistent"):
        bounds.rate_region(table2_lb, [])


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
