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

:func:`waterfill_grid` evaluates every split of a grid in one pass over
numpy arrays and returns them as columns (:class:`WaterfillGrid`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import (
    RateCurve,
    RatePoint,
    _log2,
    _log_form_rate,
    _require_single_target,
    check_rates,
    int_plus_noise_variance,
)
from .scenario import LinkBudget


@dataclass(frozen=True, eq=False)
class WaterfillGrid:
    """Every split of one alpha grid as columns, one array entry per alpha:
    the subband widths, the interference plus noise ``sigma_mix`` over the
    mixed subband, the channel gains, the water level, the power split,
    the rates and the self-consistency flag; ``kappa`` is the waveform
    integration held fixed across the grid."""

    alpha: np.ndarray
    b_com: np.ndarray
    b_mix: np.ndarray
    sigma_mix: np.ndarray
    mu_com: np.ndarray
    mu_mix: np.ndarray
    nu: np.ndarray
    beta: np.ndarray
    beta_clamped: np.ndarray
    p_com_com: np.ndarray
    p_com_mix: np.ndarray
    r_com_com: np.ndarray
    r_com_mix: np.ndarray
    r_est: np.ndarray
    self_consistent: np.ndarray
    kappa: float

    @property
    def r_com_total(self) -> np.ndarray:
        return self.r_com_com + self.r_com_mix

    def counters(self) -> dict[str, int]:
        """Splits evaluated, dropped as not self-consistent, and with beta
        clamped into [0, 1]."""
        return {
            "grid_points": len(self.alpha),
            "not_self_consistent": int(np.count_nonzero(~self.self_consistent)),
            "beta_clamped": int(np.count_nonzero(self.beta_clamped)),
        }


def dual_use_threshold_w(alpha, mu_com, mu_mix):
    """Minimum communications power at which the mixed subband gets power;
    floats or arrays of them."""
    return alpha / ((1.0 - alpha) * mu_mix) - 1.0 / mu_com


def waterfill_grid(
    lb: LinkBudget, alpha_grid: Sequence[float], kappa: float | None = None
) -> WaterfillGrid:
    """Water-fill the communications power across the two subbands for
    every split of ``alpha_grid`` at once, as arrays.

    mu_com sees thermal noise over the clean subband; mu_mix sees the
    residual radar interference plus thermal noise over the mixed subband.
    Above the dual-use threshold the water level is
    nu = P_com + 1/mu_com + 1/mu_mix and the clean-band power fraction is
    beta = alpha + ((alpha - 1)/mu_com + alpha/mu_mix) / P_com; otherwise
    beta = 1. Subband powers are computed from beta so they conserve the
    budget to rounding. beta is clamped to [0, 1] against floating-point
    spill near the threshold, with a diagnostic flag.

    ``kappa`` defaults to the scenario's time-bandwidth product. A split
    is self-consistent while the implied pulse duration kappa/B_mix stays
    within the pulse repetition interval. Every column equals the scalar
    closed form evaluated per alpha, bit for bit.
    """
    _require_single_target(lb, "subband split")
    if kappa is None:
        kappa = lb.time_bandwidth
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    alpha = np.array(alpha_grid, dtype=float)
    outside = ~((0.0 < alpha) & (alpha < 1.0))
    if outside.any():
        raise ValueError("alpha grid values must lie strictly inside (0, 1), "
                         f"got {float(alpha[outside][0])}")
    if np.any(alpha[1:] < alpha[:-1]):
        raise ValueError("alpha grid must be sorted ascending")

    b_com = alpha * lb.bandwidth_hz
    b_mix = lb.bandwidth_hz - b_com
    sigma_mix = int_plus_noise_variance(lb, b_mix)
    mu_com = lb.b_sq / (lb.kt_w_per_hz * b_com)
    mu_mix = lb.b_sq / sigma_mix
    p = lb.comms_power_w

    dual = p >= dual_use_threshold_w(alpha, mu_com, mu_mix)
    # below the threshold the water reaches only the clean channel:
    # alpha*nu - 1/mu_com = P_com
    nu = np.where(dual, p + 1.0 / mu_com + 1.0 / mu_mix, (p + 1.0 / mu_com) / alpha)
    beta_dual = alpha + ((alpha - 1.0) / mu_com + alpha / mu_mix) / p
    beta = np.where(dual, np.clip(beta_dual, 0.0, 1.0), 1.0)
    p_com_com = beta * p
    p_com_mix = (1.0 - beta) * p

    arg_com = p_com_com * lb.b_sq / (lb.kt_w_per_hz * b_com)
    r_com_com = b_com * _log2(1.0 + arg_com)
    r_com_mix = b_mix * _log2(1.0 + lb.b_sq * p_com_mix / sigma_mix)
    r_est = _log_form_rate(lb, 0, b_mix, kappa)
    check_rates("r_est", r_est)
    check_rates("r_com", r_com_com + r_com_mix)

    return WaterfillGrid(
        alpha=alpha,
        b_com=b_com,
        b_mix=b_mix,
        sigma_mix=sigma_mix,
        mu_com=mu_com,
        mu_mix=mu_mix,
        nu=nu,
        beta=beta,
        beta_clamped=dual & ((beta_dual < 0.0) | (beta_dual > 1.0)),
        p_com_com=p_com_com,
        p_com_mix=p_com_mix,
        r_com_com=r_com_com,
        r_com_mix=r_com_mix,
        r_est=r_est,
        # pulse duration kappa/B_mix must not exceed T_pri = TB/(delta B)
        self_consistent=kappa * lb.duty_factor <= lb.time_bandwidth * (1.0 - alpha),
        kappa=kappa,
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


def upper_convex_hull(
    points: Sequence[RatePoint], label: str = "hull"
) -> RateCurve:
    """Upper-left Pareto convex hull of a point cloud of (r_est, r_com)
    pairs, made of the input point objects.

    Monotone chain over r_est keeping the concave upper envelope; strictly
    interior and collinear points are dropped, so a collinear input
    reduces to its endpoints. Of the points sharing an abscissa only the
    first with the largest ordinate is kept.
    """
    if len(points) < 2:
        raise ValueError("hull needs at least two points")
    best: dict[float, RatePoint] = {}
    for p in points:
        x = p[0]
        if x not in best or p[1] > best[x][1]:
            best[x] = p
    hull: list[RatePoint] = []
    for x in sorted(best):
        p = best[x]
        y = p[1]
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # pop while the middle point is on or below the chord
            if (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return RateCurve(label=label, points=tuple(hull))
