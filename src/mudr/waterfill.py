"""Two-subband water-filling inner bound.

The band is split at fraction ``alpha`` into a communications-only subband
and a mixed-use subband where the radar keeps operating and communications
run at the cancellation rate. The communications power budget is water-
filled across the two effective channels. The mixed channel receives power
only above a critical budget: the level at which the water just reaches
that channel's inverse gain,

    P_com >= alpha / ((1 - alpha) mu_mix) - 1 / mu_com.

Below the threshold all power goes to the clean subband (beta = 1).

The radar's waveform integration kappa = T B is held constant over an
alpha sweep, so the pulse duration implicitly stretches as the
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
    _log_form_rate,
    _shannon_rate,
    check_rates,
    int_plus_noise_variance,
)
from .scenario import LinkBudget


@dataclass(frozen=True, eq=False)
class WaterfillGrid:
    """Every split of one alpha grid as columns, one array entry per alpha:
    the subband widths, the interference plus noise ``sigma_mix`` over the
    mixed subband, the channel gains, the water level, the power split,
    the rates (per subband, their sum ``r_com_total``, and ``r_est``, summed
    over targets) and the self-consistency flag."""

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
    r_com_total: np.ndarray
    r_est: np.ndarray
    self_consistent: np.ndarray

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


def check_alpha_grid(alpha_grid: Sequence[float]) -> np.ndarray:
    """``alpha_grid`` as a new float64 array, rejected unless its values lie
    strictly inside (0, 1) in ascending order."""
    alpha = np.array(alpha_grid, dtype=float)
    outside = ~((0.0 < alpha) & (alpha < 1.0))
    if outside.any():
        raise ValueError("alpha grid values must lie strictly inside (0, 1), "
                         f"got {float(alpha[outside][0])}")
    if np.any(alpha[1:] < alpha[:-1]):
        raise ValueError("alpha grid must be sorted ascending")
    return alpha


def waterfill_grid(lb: LinkBudget, alpha_grid: Sequence[float]) -> WaterfillGrid:
    """Water-fill the communications power across the two subbands for
    every split of ``alpha_grid`` at once, as arrays.

    mu_com sees thermal noise over the clean subband; mu_mix sees every
    target's residual radar interference plus thermal noise over the mixed
    subband.
    Above the dual-use threshold the water level is
    nu = P_com + 1/mu_com + 1/mu_mix and the clean-band power fraction is
    beta = alpha + ((alpha - 1)/mu_com + alpha/mu_mix) / P_com; otherwise
    beta = 1. Subband powers are computed from beta so they conserve the
    budget to rounding. beta is clamped to [0, 1] against floating-point
    spill near the threshold, with a diagnostic flag.

    The waveform integration kappa is the scenario's time-bandwidth
    product. A split is self-consistent while the implied pulse duration
    kappa/B_mix stays within the pulse repetition interval. Every column
    equals the scalar closed form evaluated per alpha, bit for bit.
    """
    alpha = check_alpha_grid(alpha_grid)
    b_com = alpha * lb.bandwidth_hz
    b_mix = lb.bandwidth_hz - b_com
    sigma_mix = int_plus_noise_variance(lb, b_mix)
    sigma_com = lb.kt_w_per_hz * b_com
    mu_com = lb.b_sq / sigma_com
    mu_mix = lb.b_sq / sigma_mix
    p = lb.comms_power_w

    dual = p >= dual_use_threshold_w(alpha, mu_com, mu_mix)
    # below the threshold the water reaches only the clean channel:
    # alpha*nu - 1/mu_com = P_com
    clean = p + 1.0 / mu_com
    nu = np.where(dual, clean + 1.0 / mu_mix, clean / alpha)
    beta_dual = alpha + ((alpha - 1.0) / mu_com + alpha / mu_mix) / p
    beta = np.where(dual, np.clip(beta_dual, 0.0, 1.0), 1.0)
    p_com_com = beta * p
    p_com_mix = (1.0 - beta) * p

    r_com_com = _shannon_rate(lb, b_com, p_com_com, sigma_com)
    r_com_mix = _shannon_rate(lb, b_mix, p_com_mix, sigma_mix)
    r_com_total = r_com_com + r_com_mix
    r_est = _log_form_rate(lb, b_mix)
    check_rates("r_est", r_est)
    check_rates("r_com", r_com_total)

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
        r_com_total=r_com_total,
        r_est=r_est,
        # pulse duration TB/B_mix must not exceed T_pri = TB/(delta B)
        self_consistent=(
            lb.time_bandwidth * lb.duty_factor <= lb.time_bandwidth * (1.0 - alpha)
        ),
    )


def default_alpha_grid(n: int) -> np.ndarray:
    """Uniform alpha grid of n points on (1e-4, 1 - 1e-4), as float64."""
    if n < 1:
        raise ValueError("grid needs at least one point")
    lo, hi = 1e-4, 1.0 - 1e-4
    step = (hi - lo) / max(n - 1, 1)  # one point: just lo
    return lo + np.arange(n) * step


def _pops(xs: np.ndarray, ys: np.ndarray) -> bool:
    """Whether any consecutive triple of the points (``xs[i]``, ``ys[i]``)
    meets the chain's pop predicate: the middle point on or below the
    chord of its neighbours. The products are formed in place: written as
    one expression, a 10^6-point ``region`` peaked at 197 MB of RSS, not
    190 MB (numpy 2.4, x86-64 Linux)."""
    x1, x2, x = xs[:-2], xs[1:-1], xs[2:]
    y1, y2, y = ys[:-2], ys[1:-1], ys[2:]
    left = x2 - x1
    left *= y - y1
    right = y2 - y1
    right *= x - x1
    left -= right
    return bool(np.any(left >= 0))


def upper_convex_hull(r_est: np.ndarray, r_com: np.ndarray) -> np.ndarray:
    """Indices into the point cloud (``r_est[i]``, ``r_com[i]``) of the
    vertices of its upper-left Pareto convex hull, in abscissa order.

    Monotone chain over r_est keeping the concave upper envelope; strictly
    interior and collinear points are dropped, so a collinear input
    reduces to its endpoints. Of the points sharing an abscissa only the
    one with the largest ordinate is kept.

    Fast path: when no consecutive triple of the sorted, de-duplicated
    points meets the chain's pop predicate (the middle point on or below
    the chord of its neighbours), the chain would pop nothing, so every
    such point is a vertex and the chain is skipped. numpy's float64
    ``-`` and ``*`` round as Python's do, so both paths give one answer.
    """
    if len(r_est) < 2:
        raise ValueError("hull needs at least two points")
    # sorted by abscissa, largest ordinate first within each run of one abscissa
    index = np.lexsort((-r_com, r_est))
    xs = r_est[index]
    first = np.ones(len(xs), dtype=bool)
    first[1:] = xs[1:] != xs[:-1]
    del xs  # the sorted abscissae go here, and the sort order on the next line
    index = index[first]
    if not _pops(r_est[index], r_com[index]):
        return index
    hull: list[int] = []  # positions into xs and ys
    xs, ys = r_est[index].tolist(), r_com[index].tolist()
    for i, (x, y) in enumerate(zip(xs, ys)):
        while len(hull) >= 2:
            x1, y1, x2, y2 = xs[hull[-2]], ys[hull[-2]], xs[hull[-1]], ys[hull[-1]]
            # pop while the middle point is on or below the chord
            if (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) >= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    return index[hull]
