"""Two-subband water-filling inner bound.

The band is split at fraction ``alpha`` into a communications-only subband
and a mixed-use subband where the radar keeps operating and communications
run at the cancellation rate. The communications power budget is water-
filled across the two effective channels. The mixed channel receives power
only above a critical budget: the level at which the water just reaches
that channel's inverse gain,

    P_com >= alpha / ((1 - alpha) mu_mix) - 1 / mu_com.

Below the threshold all power goes to the clean subband (beta = 1).

The radar's waveform integration kappa = (1 - alpha) T B is held constant
over an alpha sweep, so the pulse duration implicitly stretches as the
mixed subband narrows; points where it would exceed the pulse repetition
interval are flagged not self-consistent and dropped from published
curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .bounds import (
    RateCurve,
    RatePoint,
    _log_form_rate,
    _require_single_target,
    int_plus_noise_variance,
)
from .scenario import LinkBudget


@dataclass(frozen=True)
class SubbandSplit:
    """Water-filling state for one bandwidth fraction ``alpha``;
    ``sigma_mix_w`` is the interference plus noise over the mixed subband."""

    alpha: float
    b_com_hz: float
    b_mix_hz: float
    sigma_mix_w: float
    mu_com: float
    mu_mix: float
    nu: float
    beta: float
    p_com_com_w: float
    p_com_mix_w: float
    beta_clamped: bool = False


@dataclass(frozen=True)
class WaterfillPoint:
    """Rates achieved by one subband split; ``kappa`` is the waveform
    integration held fixed across the sweep."""

    split: SubbandSplit
    r_com_com: float
    r_com_mix: float
    r_est: float
    kappa: float
    self_consistent: bool

    @property
    def r_com_total(self) -> float:
        return self.r_com_com + self.r_com_mix


@dataclass(frozen=True)
class WaterfillCurve(RateCurve):
    """Waterfill curve of the self-consistent splits; ``grid_points`` keeps
    every evaluated split in grid order, so dropped ones can be reported."""

    grid_points: tuple[WaterfillPoint, ...]


def _subbands(lb: LinkBudget, alpha: float) -> tuple[float, ...]:
    """(b_com, b_mix, sigma_mix, mu_com, mu_mix) for one split."""
    _require_single_target(lb, "subband split")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    b_com = alpha * lb.bandwidth_hz
    b_mix = lb.bandwidth_hz - b_com
    sigma_mix = int_plus_noise_variance(lb, b_mix)
    mu_com = lb.b_sq / (lb.kt_w_per_hz * b_com)
    return b_com, b_mix, sigma_mix, mu_com, lb.b_sq / sigma_mix


def subband_channels(lb: LinkBudget, alpha: float) -> tuple[float, float]:
    """Effective channel gains (mu_com, mu_mix) in 1/W.

    mu_com sees thermal noise over the clean subband; mu_mix sees the
    residual radar interference plus thermal noise over the mixed subband.
    """
    _, _, _, mu_com, mu_mix = _subbands(lb, alpha)
    return mu_com, mu_mix


def dual_use_threshold_w(alpha: float, mu_com: float, mu_mix: float) -> float:
    """Minimum communications power at which the mixed subband gets power."""
    return alpha / ((1.0 - alpha) * mu_mix) - 1.0 / mu_com


def power_split(lb: LinkBudget, alpha: float) -> SubbandSplit:
    """Water-fill the communications power across the two subbands.

    Above the dual-use threshold the water level is
    nu = P_com + 1/mu_com + 1/mu_mix and the clean-band power fraction is
    beta = alpha + ((alpha - 1)/mu_com + alpha/mu_mix) / P_com; otherwise
    beta = 1. Subband powers are computed from beta so they conserve the
    budget to rounding. beta is clamped to [0, 1] against floating-point
    spill near the threshold, with a diagnostic flag.
    """
    b_com, b_mix, sigma_mix, mu_com, mu_mix = _subbands(lb, alpha)
    p = lb.comms_power_w

    clamped = False
    if p >= dual_use_threshold_w(alpha, mu_com, mu_mix):
        nu = p + 1.0 / mu_com + 1.0 / mu_mix
        beta = alpha + ((alpha - 1.0) / mu_com + alpha / mu_mix) / p
        if beta < 0.0:
            beta, clamped = 0.0, True
        elif beta > 1.0:
            beta, clamped = 1.0, True
    else:
        # water reaches only the clean channel: alpha*nu - 1/mu_com = P_com
        nu = (p + 1.0 / mu_com) / alpha
        beta = 1.0

    return SubbandSplit(
        alpha=alpha,
        b_com_hz=b_com,
        b_mix_hz=b_mix,
        sigma_mix_w=sigma_mix,
        mu_com=mu_com,
        mu_mix=mu_mix,
        nu=nu,
        beta=beta,
        p_com_com_w=beta * p,
        p_com_mix_w=(1.0 - beta) * p,
        beta_clamped=clamped,
    )


def waterfill_point(
    lb: LinkBudget, alpha: float, kappa: float | None = None
) -> WaterfillPoint:
    """Rates for one subband split.

    ``kappa`` defaults to the scenario's time-bandwidth product. The point
    is self-consistent while the implied pulse duration kappa/B_mix stays
    within the pulse repetition interval.
    """
    if kappa is None:
        kappa = lb.time_bandwidth
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    split = power_split(lb, alpha)

    arg_com = split.p_com_com_w * lb.b_sq / (lb.kt_w_per_hz * split.b_com_hz)
    r_com_com = split.b_com_hz * math.log2(1.0 + arg_com)

    r_com_mix = split.b_mix_hz * math.log2(
        1.0 + lb.b_sq * split.p_com_mix_w / split.sigma_mix_w
    )
    r_est = _log_form_rate(lb, 0, split.b_mix_hz, kappa)

    # pulse duration kappa/B_mix must not exceed T_pri = TB/(delta B)
    self_consistent = kappa * lb.duty_factor <= lb.time_bandwidth * (1.0 - alpha)

    return WaterfillPoint(
        split=split,
        r_com_com=r_com_com,
        r_com_mix=r_com_mix,
        r_est=r_est,
        kappa=kappa,
        self_consistent=self_consistent,
    )


def default_alpha_grid(n: int = 400) -> list[float]:
    """Uniform alpha grid on (1e-4, 1 - 1e-4)."""
    if n < 1:
        raise ValueError("grid needs at least one point")
    if n == 1:
        return [1e-4]
    lo, hi = 1e-4, 1.0 - 1e-4
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def waterfill_points(
    lb: LinkBudget, alpha_grid: Sequence[float], kappa: float | None = None
) -> list[WaterfillPoint]:
    """One WaterfillPoint per grid value, including non-self-consistent ones."""
    grid = [float(a) for a in alpha_grid]
    if any(not 0.0 < a < 1.0 for a in grid):
        raise ValueError("alpha grid values must lie strictly inside (0, 1)")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("alpha grid must be sorted ascending")
    return [waterfill_point(lb, a, kappa) for a in grid]


def waterfill_curve(
    lb: LinkBudget, alpha_grid: Sequence[float], kappa: float | None = None
) -> RateCurve:
    """Waterfill inner-bound curve; non-self-consistent points are dropped."""
    points = [
        RatePoint(p.r_est, p.r_com_total)
        for p in waterfill_points(lb, alpha_grid, kappa)
        if p.self_consistent
    ]
    if not points:
        raise ValueError("no self-consistent point on the given alpha grid")
    return RateCurve(label="waterfill", points=tuple(points))


def upper_convex_hull(points: Sequence[RatePoint], label: str = "hull") -> RateCurve:
    """Upper-left Pareto convex hull of a point cloud.

    Monotone chain over r_est keeping the concave upper envelope; strictly
    interior and collinear points are dropped, so a collinear input
    reduces to its endpoints. Points sharing an abscissa keep only the
    largest ordinate.
    """
    if len(points) < 2:
        raise ValueError("hull needs at least two points")
    best: dict[float, float] = {}
    for p in points:
        if p.r_est not in best or p.r_com > best[p.r_est]:
            best[p.r_est] = p.r_com
    xs = sorted(best)
    hull: list[tuple[float, float]] = []
    for x in xs:
        y = best[x]
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # pop while the middle point is on or below the chord
            if (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) >= 0:
                hull.pop()
            else:
                break
        hull.append((x, y))
    return RateCurve(label=label, points=tuple(RatePoint(x, y) for x, y in hull))
