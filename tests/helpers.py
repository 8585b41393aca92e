"""Shared test fixtures: frozen oracle values, link-budget factories and the
time-domain reference path of the Monte Carlo kernels.

The numeric constants below are frozen from the output of
scripts/oracle_link_budget.py and scripts/oracle_waterfill.py, which
recompute everything from first principles without importing the package.
Rerun those scripts if the bundled example scenario changes.
"""

from __future__ import annotations

import math
import os
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from mudr import emit
from mudr.bounds import RateRegion, crb_delay_variance
from mudr.emit import csv_text
from mudr.mcsim import _signed_bins
from mudr.scenario import LinkBudget, Scenario, Target, derive_link_budget
from mudr.waterfill import WaterfillGrid, waterfill_grid

# Two worker processes, where the box has two usable cores to run them: the
# tests never start more processes than there are cores.
needs_two_cores = pytest.mark.skipif(
    not hasattr(os, "fork")
    or not hasattr(os, "sched_getaffinity")
    or len(os.sched_getaffinity(0)) < 2,
    reason="needs os.fork and two usable cores",
)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# scripts/oracle_link_budget.py
TABLE2_A_SQ = 5.032332221188687e-19
TABLE2_B_SQ = 6.323815174603835e-13
TABLE2_NOISE_W = 6.903245e-14
TABLE2_SIGMA_TAU_PROC_SQ = 4.4506002242144734e-13
GAMMA_SQ_FLAT = 3.289868133696453
TABLE2_CRB_S2 = 1.667882620534542e-14
TABLE2_EST_RATE_BPS = 2395.4937267385485
TABLE2_COMMS_OUTER_BPS = 4690729.2689133175
TABLE2_INT_PLUS_NOISE_W = 8.74531610060064e-14
TABLE2_SIC_RATE_BPS = 3925069.0618843525
TABLE2_ISNR = 0.7289806780997469
DELAY_100KM_S = 0.0006671281903963041
DELAY_100M_S = 6.671281903963041e-07

# scripts/oracle_waterfill.py, example scenario
WF_ALPHAS = (0.1, 0.25, 0.5, 0.75, 0.9)
WF_BETAS = (
    0.12359457938427165,
    0.2909628114310272,
    0.5364113879386909,
    0.7636542704770091,
    0.9026216199315857,
)
WF_MU_COM_05 = 18.321282743416567
WF_MU_MIX_05 = 16.164592089840404
WF_NU_05 = 0.2164449398319342
WF_R_COM_COM_05 = 2468801.471067336
WF_R_COM_MIX_05 = 2017092.9366050991
WF_R_EST_05 = 960.5452560196853

# scripts/oracle_waterfill.py, example plus a second target (range_m 150e3,
# cross_section_m2 5, process_range_std_m 50) at alpha 0.5; r_est is the sum
WF2_MU_MIX_05 = 16.11774514853892
WF2_BETA_05 = 0.5373104345544609
WF2_R_COM_MIX_05 = 2009620.0140569822
WF2_R_EST_05 = 1063.2482258493706


def make_lb(
    a_sq: float = TABLE2_A_SQ,
    b_sq: float = TABLE2_B_SQ,
    noise_power_w: float = TABLE2_NOISE_W,
    sigma_tau_proc_sq: float = TABLE2_SIGMA_TAU_PROC_SQ,
    bandwidth_hz: float = 5e6,
    time_bandwidth: float = 100.0,
    duty_factor: float = 0.01,
    comms_power_w: float = 0.1,
    radar_power_w: float = 1000.0,
    n_targets: int = 1,
) -> LinkBudget:
    """Single-knob LinkBudget builder around the example scenario."""
    return LinkBudget(
        a_sq=(a_sq,) * n_targets,
        b_sq=b_sq,
        noise_power_w=noise_power_w,
        sigma_tau_proc_sq=(sigma_tau_proc_sq,) * n_targets,
        bandwidth_hz=bandwidth_hz,
        time_bandwidth=time_bandwidth,
        duty_factor=duty_factor,
        comms_power_w=comms_power_w,
        radar_power_w=radar_power_w,
    )


def with_second_target(scenario: Scenario, cross_section_m2: float = 5.0) -> LinkBudget:
    """Link budget of ``scenario`` with a second target appended: the
    oracle's two-target case (range_m 150e3, process_range_std_m 50) at
    ``cross_section_m2``."""
    second = Target(
        range_m=150e3, cross_section_m2=cross_section_m2, process_range_std_m=50.0
    )
    return derive_link_budget(replace(scenario, targets=(*scenario.targets, second)))


def random_lb(rng: np.random.Generator) -> LinkBudget:
    """LinkBudget with every physical knob scattered around the example."""
    scale = lambda lo, hi: float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))
    return make_lb(
        a_sq=TABLE2_A_SQ * scale(0.1, 10),
        b_sq=TABLE2_B_SQ * scale(0.1, 10),
        noise_power_w=TABLE2_NOISE_W * scale(0.5, 2),
        sigma_tau_proc_sq=TABLE2_SIGMA_TAU_PROC_SQ * scale(0.1, 10),
        bandwidth_hz=5e6 * scale(0.2, 5),
        time_bandwidth=scale(10, 1000),
        duty_factor=scale(0.001, 0.1),
        comms_power_w=0.1 * scale(0.1, 10),
        radar_power_w=1000.0 * scale(0.1, 10),
    )


def log2_1p(v: float) -> float:
    """log2(1 + v) in the scalar form every rate uses: libm's log1p over ln 2."""
    return math.log1p(v) / math.log(2.0)


def estimation_entropy(variance_s2: float) -> float:
    """Differential entropy log2(pi e sigma^2) in bits (complex-Gaussian convention)."""
    if not variance_s2 > 0:
        raise ValueError(f"variance must be positive, got {variance_s2}")
    return math.log2(math.pi * math.e * variance_s2)


def entropy_form_est_rate(lb: LinkBudget) -> float:
    """Estimation-rate outer bound in bits/s, summed over targets, in the
    entropy form: per target, the entropy of process-plus-estimation error
    minus the entropy of estimation error, per pulse repetition interval.
    It loses digits to cancellation where the process variance is small
    against the delay-variance floor, so it is a cross-check, not a
    reference value."""
    t_pri_s = lb.time_bandwidth / lb.bandwidth_hz / lb.duty_factor
    total = 0.0
    for m in range(lb.n_targets):
        proc = lb.sigma_tau_proc_sq[m]
        if proc == 0.0:
            continue
        est = crb_delay_variance(lb, m)
        total += (estimation_entropy(proc + est) - estimation_entropy(est)) / t_pri_s
    return total


def brute_force_total_comms_rate(lb: LinkBudget, alpha: float, n_beta: int = 10_000):
    """Max total comms rate over a dense beta grid, independent of the
    water-filling closed form: direct evaluation of the two subband
    capacities for every candidate power split."""
    kt = lb.noise_power_w / lb.bandwidth_hz
    b_com = alpha * lb.bandwidth_hz
    b_mix = lb.bandwidth_hz - b_com
    sigma_int = (
        lb.a_sq[0]
        * lb.radar_power_w
        * GAMMA_SQ_FLAT
        * b_mix**2
        * lb.sigma_tau_proc_sq[0]
        + kt * b_mix
    )
    beta = np.linspace(0.0, 1.0, n_beta)
    r_com = b_com * np.log2(1.0 + beta * lb.comms_power_w * lb.b_sq / (kt * b_com))
    r_mix = b_mix * np.log2(1.0 + lb.b_sq * (1.0 - beta) * lb.comms_power_w / sigma_int)
    total = r_com + r_mix
    i = int(np.argmax(total))
    return float(total[i]), float(beta[i])


def waterfill_row(lb: LinkBudget, alpha: float) -> SimpleNamespace:
    """One split of ``waterfill_grid(lb, [alpha])``: every column as a Python
    scalar, with ``kappa``."""
    g = waterfill_grid(lb, [alpha])
    row = {f.name: getattr(g, f.name) for f in fields(g)}
    row = {k: v.tolist()[0] if isinstance(v, np.ndarray) else v for k, v in row.items()}
    return SimpleNamespace(**row)


# --- reference hull and region CSV ------------------------------------------------


def chain_hull(r_est: np.ndarray, r_com: np.ndarray) -> list[tuple[float, float]]:
    """Upper-left Pareto convex hull of the cloud (``r_est[i]``, ``r_com[i]``)
    as its vertex points in abscissa order: Andrew's monotone chain over
    every sorted point, largest ordinate first per abscissa, with no fast
    path."""
    if len(r_est) < 2:
        raise ValueError("hull needs at least two points")
    order = np.lexsort((-r_com, r_est))
    xs, ys = r_est[order], r_com[order]
    first = np.ones(len(xs), dtype=bool)
    first[1:] = xs[1:] != xs[:-1]
    hull: list[tuple[float, float]] = []
    for x, y in zip(xs[first].tolist(), ys[first].tolist()):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # pop while the middle point is on or below the chord
            if (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) >= 0:
                hull.pop()
            else:
                break
        hull.append((x, y))
    return hull


def curve(region: RateRegion, label: str) -> tuple[np.ndarray, np.ndarray]:
    """The (r_est, r_com) columns of curve ``label``: its rows of the
    region's point table, vertex ``i`` at (``r_est[i]``, ``r_com[i]``)."""
    rows = region.index[label]
    return region.r_est[rows], region.r_com[rows]


def region_csv_text(region: RateRegion, g: WaterfillGrid) -> str:
    """``region.csv`` of ``region`` built curve by curve, every value
    formatted where its row is: waterfill rows keep every point of the
    grid ``g`` the region came from, flagged by self-consistency, and the
    other curves' rows print their columns."""

    def rows():
        for label in region.index:
            if label == "waterfill":
                alpha, r_est, r_com = g.alpha, g.r_est, g.r_com_total
                ok = g.self_consistent
            else:
                r_est, r_com = curve(region, label)
                alpha, ok = np.full(len(r_est), np.nan), np.ones(len(r_est), dtype=bool)
            for a, e, r, flag in zip(
                map(repr, alpha.tolist()),
                map(repr, r_est.tolist()),
                map(repr, r_com.tolist()),
                ok.tolist(),
            ):
                yield [label, a, e, r, "true" if flag else "false"]

    return csv_text(emit.REGION_CSV_HEADER, rows())


# --- time-domain reference path of the Monte Carlo kernels ----------------------


def _parabolic_peak(corr: np.ndarray, lo: int, hi: int) -> float:
    """Signed lag in samples of the ``|corr|`` peak inside [lo, hi), refined
    to sub-sample precision with a three-point parabolic fit."""
    mag = np.abs(corr[np.arange(lo - 1, hi + 1) % len(corr)])
    i = int(np.argmax(mag[1:-1])) + 1
    y0, y1, y2 = mag[i - 1], mag[i], mag[i + 1]
    denom = y0 - 2.0 * y1 + y2
    offset = min(0.5, max(-0.5, 0.5 * (y0 - y2) / denom)) if denom < 0 else 0.0
    return lo - 1 + i + offset


def matched_filter_delay(
    observed: np.ndarray,
    reference: np.ndarray,
    search_window: tuple[int, int],
    sample_rate_hz: float = 1.0,
) -> float:
    """Delay of ``reference`` inside ``observed`` in seconds.

    Circular cross-correlation via FFT; the magnitude peak inside the
    signed-lag window [lo, hi) is refined to sub-sample precision with a
    three-point parabolic fit. With a zero-power input the peak location
    is arbitrary; callers should gate on SNR.
    """
    if len(observed) != len(reference):
        raise ValueError("observed and reference must have equal length")
    lo, hi = search_window
    if hi <= lo:
        raise ValueError(f"empty search window [{lo}, {hi})")
    corr = np.fft.ifft(np.fft.fft(observed) * np.conj(np.fft.fft(reference)))
    return _parabolic_peak(corr, lo, hi) / sample_rate_hz


def measured_gamma_sq(samples: np.ndarray, oversample: int) -> float:
    """Spectral-shape constant (2 pi B_rms)^2 / B^2 from a periodogram."""
    n = len(samples)
    # frequency in units of B: the occupied band spans [-1/2, 1/2)
    f = _signed_bins(n) / n * oversample
    power = np.abs(np.fft.fft(samples)) ** 2
    return (2.0 * math.pi) ** 2 * float(np.sum(f**2 * power) / np.sum(power))
