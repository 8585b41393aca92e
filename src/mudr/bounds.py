"""Closed-form rate bounds for the shared radar/communications band.

All rates are in bits/s except the multiple-access pentagon, which is in
bits per channel use with noise normalized to unit variance. Estimation
rate treats each tracked target as an information channel whose input is
the Gaussian delay-process deviation and whose output is the delay
estimate; the per-observation information is the entropy gap between the
process-plus-estimation uncertainty and the estimation uncertainty alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .scenario import LinkBudget

if TYPE_CHECKING:
    from .waterfill import WaterfillGrid


class DegenerateLinkError(ValueError):
    """Radar link has zero received power; delay variance is unbounded."""


class MultiTargetError(ValueError):
    """Operation is defined for single-target link budgets only."""


def _elementwise(fn):
    """``fn`` applied to each element of an array, giving a float array; a
    scalar gives a Python float. Closed forms that take either use it for
    ``log2`` and powers: numpy's SIMD ``log2`` and ``x**2`` differ from
    ``math.log2`` and CPython's float pow by up to a few ulp, and every
    array element must equal the scalar formula's value bit for bit."""
    ufunc = np.frompyfunc(fn, 1, 1)

    def apply(x):
        out = ufunc(x)
        return out.astype(float) if isinstance(out, np.ndarray) else out

    return apply


_log2 = _elementwise(math.log2)
_square = _elementwise(lambda x: x**2)


class RatePoint(NamedTuple):
    """One (estimation rate, communications rate) pair in bits/s."""

    r_est: float
    r_com: float


def check_rates(name: str, values) -> None:
    """Raise unless every rate in ``values`` (a float or an array of them)
    is finite and nonnegative."""
    v = np.atleast_1d(np.asarray(values, dtype=float))
    bad = ~(np.isfinite(v) & (v >= 0))
    if bad.any():
        raise ValueError(f"{name} must be finite and nonnegative, got {float(v[bad][0])}")


@dataclass(frozen=True)
class RateCurve:
    """Labeled polyline of rate points."""

    label: str
    points: tuple[RatePoint, ...]

    def __post_init__(self) -> None:
        if len(self.points) == 0:
            raise ValueError("a rate curve needs at least one point")
        object.__setattr__(self, "points", tuple(self.points))


@dataclass(frozen=True, eq=False)
class RateRegion:
    """The displayed curves of one scenario and the waterfill ``grid`` they
    came from, which keeps every evaluated split, self-consistent or not."""

    outer: RateCurve
    sic: RateCurve
    interpolated: RateCurve
    waterfill: RateCurve
    hull: RateCurve
    grid: WaterfillGrid

    @property
    def curves(self) -> tuple[RateCurve, ...]:
        """The five curves in CSV and SVG order."""
        return (self.outer, self.sic, self.interpolated, self.waterfill, self.hull)


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
    r1_max = math.log2(1.0 + snr1)
    r2_max = math.log2(1.0 + snr2)
    sum_max = math.log2(1.0 + snr1 + snr2)
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
    return lb.kt_w_per_hz / (
        lb.gamma_sq * lb.bandwidth_hz * lb.time_bandwidth * a_sq * lb.radar_power_w
    )


def estimation_entropy(variance_s2: float) -> float:
    """Differential entropy log2(pi e sigma^2) in bits (complex-Gaussian convention)."""
    if not variance_s2 > 0:
        raise ValueError(f"variance must be positive, got {variance_s2}")
    return math.log2(math.pi * math.e * variance_s2)


def est_outer_rate(lb: LinkBudget) -> float:
    """Estimation-rate outer bound in bits/s, summed over targets.

    Per target: (entropy of process-plus-estimation error minus entropy of
    estimation error) per pulse repetition interval, with the repetition
    interval tied to the pulse duration by the duty factor.
    """
    pulse_duration_s = lb.time_bandwidth / lb.bandwidth_hz
    t_pri_s = pulse_duration_s / lb.duty_factor
    total = 0.0
    for m in range(lb.n_targets):
        proc = lb.sigma_tau_proc_sq[m]
        if proc == 0.0:
            continue
        est = crb_delay_variance(lb, m)
        total += (estimation_entropy(proc + est) - estimation_entropy(est)) / t_pri_s
    return total


def _log_form_rate(lb: LinkBudget, m: int, bandwidth_hz, kappa: float):
    """Estimation rate of target ``m`` in bits/s for a radar on bandwidth bw
    with waveform integration kappa: bw log2(1 + sigma_proc^2 gamma^2 bw
    kappa a^2 P_radar / (k_B T_temp)) raised to delta/kappa. ``bandwidth_hz``
    is a float or an array of them."""
    snr = (
        lb.sigma_tau_proc_sq[m]
        * lb.gamma_sq
        * bandwidth_hz
        * kappa
        * lb.a_sq[m]
        * lb.radar_power_w
        / lb.kt_w_per_hz
    )
    return bandwidth_hz * (lb.duty_factor / kappa) * _log2(1.0 + snr)


def est_outer_rate_log_form(lb: LinkBudget) -> float:
    """Algebraically equivalent closed form of :func:`est_outer_rate`.

    The log form over the full band B with integration TB, summed over
    targets. Kept separate so the two printed forms can be cross-checked.
    """
    b, tb = lb.bandwidth_hz, lb.time_bandwidth
    return sum(_log_form_rate(lb, m, b, tb) for m in range(lb.n_targets))


def int_plus_noise_variance(lb: LinkBudget, bandwidth_hz):
    """Residual radar interference plus thermal noise, in watts.

    The predicted radar return is subtracted at the receiver; what is left
    is the derivative-scale residual of the delay-process jitter, with
    mean-square power P_radar a^2 gamma^2 bw^2 sigma_proc^2 per target,
    plus thermal noise over ``bandwidth_hz``: a float, or an array of
    them for an array result.
    """
    bw = np.asarray(bandwidth_hz, dtype=float)
    outside = ~((0 < bw) & (bw <= lb.bandwidth_hz))
    if outside.any():
        raise ValueError(
            f"bandwidth_hz must lie in (0, {lb.bandwidth_hz}], "
            f"got {float(bw[outside][0])}"
        )
    bw_sq = _square(bandwidth_hz)
    residual = lb.radar_power_w * sum(
        a_sq * lb.gamma_sq * bw_sq * proc_sq
        for a_sq, proc_sq in zip(lb.a_sq, lb.sigma_tau_proc_sq)
    )
    return residual + lb.kt_w_per_hz * bandwidth_hz


def comms_outer_rate(lb: LinkBudget) -> float:
    """Communications rate bound with no radar in band, bits/s."""
    return lb.bandwidth_hz * math.log2(
        1.0 + lb.b_sq * lb.comms_power_w / lb.noise_power_w
    )


def sic_comms_rate(lb: LinkBudget) -> float:
    """Communications rate decodable before radar estimation, bits/s.

    At or below this rate the communications signal can be decoded and
    subtracted, so it sees the full band with the predicted radar return
    removed: interference-plus-noise instead of noise alone.
    """
    return lb.bandwidth_hz * math.log2(
        1.0
        + lb.b_sq
        * lb.comms_power_w
        / int_plus_noise_variance(lb, lb.bandwidth_hz)
    )


def _require_single_target(lb: LinkBudget, what: str) -> None:
    if lb.n_targets != 1:
        raise MultiTargetError(
            f"{what} is defined for a single target; got {lb.n_targets}"
        )


def interpolated_inner(lb: LinkBudget) -> RateCurve:
    """Straight-line inner bound between the comms-alone point and the
    full-cancellation vertex: the "interpolated" curve of :func:`rate_region`
    on the vertex-only grid [0], which evaluates no waterfill point."""
    return rate_region(lb, [0.0]).interpolated


def rate_region(lb: LinkBudget, alpha_grid: Sequence[float]) -> RateRegion:
    """All displayed curves for one scenario, from one pass over the grid.

    "outer" holds the rectangle edges, "sic" the horizontal line at the
    post-cancellation comms rate, "interpolated" the line from the
    comms-alone point to the cancellation vertex, "waterfill" the
    self-consistent splits of :func:`mudr.waterfill.waterfill_grid` over
    ``alpha_grid`` and "hull" the upper convex hull of the two inner
    curves. Leading grid values of exactly 0 map to the analytic limit of
    the waterfill point, which is the cancellation vertex.
    """
    from . import waterfill

    _require_single_target(lb, "rate region")
    alphas = list(alpha_grid)
    n_zero = next((i for i, a in enumerate(alphas) if a != 0.0), len(alphas))
    grid = waterfill.waterfill_grid(lb, alphas[n_zero:])

    r_est, r_com, r_sic = est_outer_rate(lb), comms_outer_rate(lb), sic_comms_rate(lb)
    check_rates("r_est", r_est)
    check_rates("r_com", (r_sic, r_com))
    keep = grid.self_consistent
    if not n_zero and not keep.any():
        raise ValueError("no self-consistent waterfill point on the given grid; "
                         "a split alpha needs duty_factor <= 1 - alpha")
    vertex = RatePoint(r_est, r_sic)
    splits = (vertex,) * n_zero + tuple(
        map(RatePoint, grid.r_est[keep].tolist(), grid.r_com_total[keep].tolist())
    )
    inner = (RatePoint(0.0, r_com), vertex)
    return RateRegion(
        outer=RateCurve(
            "outer", (RatePoint(0.0, r_com), RatePoint(r_est, r_com), RatePoint(r_est, 0.0))
        ),
        sic=RateCurve("sic", (RatePoint(0.0, r_sic), vertex)),
        interpolated=RateCurve("interpolated", inner),
        waterfill=RateCurve("waterfill", splits),
        hull=waterfill.upper_convex_hull(inner + splits),
        grid=grid,
    )
