"""Closed-form rate bounds for the shared radar/communications band.

All rates are in bits/s except the multiple-access pentagon, which is in
bits per channel use with noise normalized to unit variance. Estimation
rate treats each tracked target as an information channel whose input is
the Gaussian delay-process deviation and whose output is the delay
estimate; the per-observation information is the entropy gap between the
process-plus-estimation uncertainty and the estimation uncertainty alone,
log2(1 + sigma_proc^2 / CRB) per pulse repetition interval. It is written
once, in that log form: where sigma_proc^2 is small against the CRB, the
difference of two entropies loses more digits to cancellation. Every
communications rate is bw log2(1 + b^2 P / noise) from one helper, and
every rate takes log2(1 + x) from ``_log2_1p``, a ``log1p`` form that
keeps its digits at low SNR.

:func:`rate_region` returns the displayed curves as one point table
(:class:`RateRegion`): each curve is an index array of its rows, and
this module is the one place that lays the rows out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .scenario import FIELD_RANGES, GAMMA_SQ_FLAT, LinkBudget


class DegenerateLinkError(ValueError):
    """Radar link has zero received power; delay variance is unbounded."""


_LN2 = math.log(2.0)


def _log2_1p(x):
    """log2(1 + x) as ``math.log1p(x) / _LN2``, for a float (giving a
    Python float) or a float array (giving one of its shape). Unlike a log
    of 1 + x, it keeps its digits for x below 2^-53. libm's ``log1p`` is
    mapped over the elements from C (``numpy.fromiter`` over a memoryview,
    which yields Python floats), not numpy's SIMD ``log1p``, which differs
    from libm's on about 10k of table2's 100k mixed-band SNRs; so an array
    equals the scalar form bit for bit. Dividing by ln 2, rather than
    multiplying by a rounded 1 / ln 2, keeps table2's estimation rate at
    its correctly rounded value. Raises as ``math.log1p`` for x <= -1."""
    if not isinstance(x, np.ndarray):
        return math.log1p(float(x)) / _LN2
    values = memoryview(x.astype(float, copy=False).ravel())
    logs = np.fromiter(map(math.log1p, values), float, x.size)
    logs /= _LN2
    return logs.reshape(x.shape)


def check_rates(name: str, values) -> None:
    """Raise unless every rate in ``values`` (a float or an array of them)
    is finite and nonnegative."""
    v = np.atleast_1d(np.asarray(values, dtype=float))
    bad = ~(np.isfinite(v) & (v >= 0))
    if bad.any():
        raise ValueError(f"{name} must be finite and nonnegative, got {float(v[bad][0])}")


@dataclass(frozen=True, eq=False)
class RateRegion:
    """The displayed curves of one scenario as one point table, with what
    its files need of the waterfill grid they came from: one
    ``self_consistent`` flag per split and the grid's ``counters``. The
    grid itself is not kept; ``mudr.waterfill.waterfill_grid`` gives it.

    Row ``i`` of the table is (``r_est[i]``, ``r_com[i]``) in bits/s: the
    three outer vertices, the two sic points, the two interpolated points,
    then every split of the grid in grid order (``grid_rows``). ``index``
    maps each curve's label to the int array of its rows, in CSV and SVG
    order: the waterfill curve is the self-consistent splits' rows, and
    the hull's rows are picked from the interpolated and waterfill rows.
    Curve ``label``'s vertices are ``r_est[index[label]]`` and
    ``r_com[index[label]]``.
    """

    r_est: np.ndarray
    r_com: np.ndarray
    index: dict[str, np.ndarray]
    self_consistent: np.ndarray
    counters: dict[str, int]

    @property
    def grid_rows(self) -> slice:
        """The table rows of the grid's splits, one per alpha, in grid order."""
        return slice(len(self.r_est) - len(self.self_consistent), len(self.r_est))


@dataclass(frozen=True)
class PentagonRegion:
    """Two-user multiple-access rate region, bits per channel use."""

    r1_max: float
    r2_max: float
    sum_max: float
    vertex_a: tuple[float, float]
    vertex_b: tuple[float, float]


def ma_pentagon(snr1: float, snr2: float) -> PentagonRegion:
    """Two-user multiple-access pentagon for unit-noise SNRs.

    The vertices are the corner points where one user is decoded first
    (treating the other as noise) and the other is decoded clean. The
    corner coordinates are computed as differences of the single-user and
    sum bounds so each vertex sum-rate equals the sum bound exactly in
    floating point.
    """
    if snr1 < 0 or snr2 < 0:
        raise ValueError("SNRs must be nonnegative")
    r1_max = _log2_1p(snr1)
    r2_max = _log2_1p(snr2)
    sum_max = _log2_1p(snr1 + snr2)
    vertex_a = (sum_max - r2_max, r2_max)
    vertex_b = (r1_max, sum_max - r1_max)
    return PentagonRegion(
        r1_max=r1_max,
        r2_max=r2_max,
        sum_max=sum_max,
        vertex_a=vertex_a,
        vertex_b=vertex_b,
    )


def crb_delay_variance(lb: LinkBudget, target_idx: int = 0) -> float:
    """Delay-estimation variance floor for one target, in s^2.

    k_B T_temp / (gamma^2 B (TB) a^2 P_radar): thermal spectral density
    over the mean-square bandwidth times the integrated SNR factors.
    """
    a_sq = lb.a_sq[target_idx]
    if a_sq * lb.radar_power_w == 0:
        raise DegenerateLinkError(
            f"target {target_idx} has a^2*P_radar = 0; delay variance is unbounded"
        )
    return lb.kt_w_per_hz / _delay_fisher(lb, lb.bandwidth_hz, a_sq, 1.0)


def _delay_fisher(lb: LinkBudget, bandwidth_hz, a_sq: float, scale: float):
    """``scale`` gamma^2 bw TB a^2 P_radar, multiplied in that order: the
    delay Fisher product of one target over bandwidth bw (a float or an
    array of them), before the thermal density k_B T_temp divides it."""
    return scale * GAMMA_SQ_FLAT * bandwidth_hz * lb.time_bandwidth * a_sq * lb.radar_power_w


def _log_form_rate(lb: LinkBudget, bandwidth_hz):
    """Estimation rate in bits/s, summed over targets, for a radar on
    bandwidth bw with the scenario's waveform integration TB: per target
    bw log2(1 + sigma_proc^2 gamma^2 bw TB a^2 P_radar / (k_B T_temp))
    raised to delta/TB, the log taken by ``_log2_1p``, so a small ratio
    keeps its digits. ``bandwidth_hz`` is a float or an array of them."""
    return sum(
        bandwidth_hz
        * (lb.duty_factor / lb.time_bandwidth)
        * _log2_1p(_delay_fisher(lb, bandwidth_hz, a_sq, proc_sq) / lb.kt_w_per_hz)
        for a_sq, proc_sq in zip(lb.a_sq, lb.sigma_tau_proc_sq)
    )


def est_outer_rate(lb: LinkBudget) -> float:
    """Estimation-rate outer bound in bits/s, summed over targets: per
    target log2(1 + sigma_proc^2 / CRB) per pulse repetition interval, the
    radar on the full band B, in the ``log1p`` form of
    :func:`_log_form_rate`. A target with no process jitter or no
    received power adds 0."""
    return _log_form_rate(lb, lb.bandwidth_hz)


def int_plus_noise_variance(lb: LinkBudget, bandwidth_hz):
    """Residual radar interference plus thermal noise, in watts.

    The predicted radar return is subtracted at the receiver; what is left
    is the derivative-scale residual of the delay-process jitter, with
    mean-square power P_radar a^2 gamma^2 bw^2 sigma_proc^2 per target,
    plus thermal noise over ``bandwidth_hz``: a float, or an array of
    them for an array result. bw^2 is the IEEE product bw * bw, which
    rounds alike on every SIMD path.
    """
    bw = np.asarray(bandwidth_hz, dtype=float)
    outside = ~((0 < bw) & (bw <= lb.bandwidth_hz))
    if outside.any():
        raise ValueError(
            f"bandwidth_hz must lie in (0, {lb.bandwidth_hz}], "
            f"got {float(bw[outside][0])}"
        )
    bw_sq = bandwidth_hz * bandwidth_hz
    residual = lb.radar_power_w * sum(
        a_sq * GAMMA_SQ_FLAT * bw_sq * proc_sq
        for a_sq, proc_sq in zip(lb.a_sq, lb.sigma_tau_proc_sq)
    )
    return residual + lb.kt_w_per_hz * bandwidth_hz


def _shannon_rate(lb: LinkBudget, bandwidth_hz, power_w, noise_w):
    """Communications rate bw log2(1 + b^2 P / noise) in bits/s; floats or
    arrays of them."""
    return bandwidth_hz * _log2_1p(lb.b_sq * power_w / noise_w)


def comms_outer_rate(lb: LinkBudget) -> float:
    """Communications rate bound with no radar in band, bits/s."""
    return _shannon_rate(lb, lb.bandwidth_hz, lb.comms_power_w, lb.noise_power_w)


def sic_comms_rate(lb: LinkBudget) -> float:
    """Communications rate decodable before radar estimation, bits/s.

    At or below this rate the communications signal can be decoded and
    subtracted, so it sees the full band with the predicted radar return
    removed: interference-plus-noise instead of noise alone.
    """
    noise_w = int_plus_noise_variance(lb, lb.bandwidth_hz)
    return _shannon_rate(lb, lb.bandwidth_hz, lb.comms_power_w, noise_w)


#: Most alphas per :func:`mudr.waterfill.waterfill_grid` call of
#: :func:`rate_region`: a block's sixteen columns take about 1 MB, whatever
#: the grid's size, and only its rates and flags are kept.
_REGION_BLOCK = 8192


def rate_region(lb: LinkBudget, alpha_grid: Sequence[float]) -> RateRegion:
    """All displayed curves for one scenario, from one pass over the grid.

    "outer" holds the rectangle edges, "sic" the horizontal line at the
    post-cancellation comms rate, "interpolated" the line from the
    comms-alone point to the cancellation vertex, "waterfill" the
    self-consistent splits of :func:`mudr.waterfill.waterfill_grid` over
    ``alpha_grid`` and "hull" the upper convex hull of the two inner
    curves. Each curve is its rows of one point table (see
    :class:`RateRegion`). The grid is checked whole, then water-filled in
    consecutive blocks of ``_REGION_BLOCK`` splits. A split's
    self-consistency only tightens as alpha grows, so when the grid's
    first split is not self-consistent, none is, and the duty factor is
    rejected after the first block.
    """
    from . import waterfill

    alpha = waterfill.check_alpha_grid(alpha_grid)
    if not len(alpha):
        raise ValueError("no self-consistent waterfill point on an empty grid")
    # the outer vertices, the sic points, the interpolated points, every split
    est, com = np.empty(7 + len(alpha)), np.empty(7 + len(alpha))
    keep = np.empty(len(alpha), dtype=bool)
    counters = {}
    for start in range(0, len(alpha), _REGION_BLOCK):
        block = slice(start, start + _REGION_BLOCK)
        grid = waterfill.waterfill_grid(lb, alpha[block])
        if start == 0 and not grid.self_consistent[0]:
            raise ValueError(
                "no self-consistent waterfill point on the given grid: "
                f"{FIELD_RANGES['duty_factor'][2]} = {float(lb.duty_factor)!r} is above "
                f"{float(1.0 - alpha[0])!r}, 1 - alpha at the grid's first split")
        rows = slice(7 + start, 7 + start + _REGION_BLOCK)
        est[rows], com[rows], keep[block] = grid.r_est, grid.r_com_total, grid.self_consistent
        for name, count in grid.counters().items():
            counters[name] = counters.get(name, 0) + count
    del alpha  # the checked copy of the grid goes before the hull is built

    r_est, r_com, r_sic = est_outer_rate(lb), comms_outer_rate(lb), sic_comms_rate(lb)
    check_rates("r_est", r_est)
    check_rates("r_com", (r_sic, r_com))
    est[:7] = [0.0, r_est, r_est, 0.0, r_est, 0.0, r_est]
    com[:7] = [r_com, r_com, 0.0, r_sic, r_sic, r_com, r_sic]
    index = {"outer": np.arange(0, 3), "sic": np.arange(3, 5), "interpolated": np.arange(5, 7),
             "waterfill": 7 + np.flatnonzero(keep)}
    cloud = np.concatenate((index["interpolated"], index["waterfill"]))
    index["hull"] = cloud[waterfill.upper_convex_hull(est[cloud], com[cloud])]
    return RateRegion(r_est=est, r_com=com, index=index, self_consistent=keep,
                      counters=counters)
