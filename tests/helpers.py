"""Shared test fixtures: frozen oracle values and link-budget factories.

The numeric constants below are frozen from the output of
scripts/oracle_link_budget.py and scripts/oracle_waterfill.py, which
recompute everything from first principles without importing the package.
Rerun those scripts if the bundled example scenario changes.
"""

from __future__ import annotations

import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np

from mudr.scenario import LinkBudget
from mudr.waterfill import waterfill_grid

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
        gamma_sq=GAMMA_SQ_FLAT,
        bandwidth_hz=bandwidth_hz,
        time_bandwidth=time_bandwidth,
        duty_factor=duty_factor,
        comms_power_w=comms_power_w,
        radar_power_w=radar_power_w,
    )


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
        * lb.gamma_sq
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
    scalar, with ``kappa`` and ``r_com_total``."""
    g = waterfill_grid(lb, [alpha])
    row = {f.name: getattr(g, f.name) for f in fields(g)}
    row = {k: v.tolist()[0] if isinstance(v, np.ndarray) else v for k, v in row.items()}
    return SimpleNamespace(**row, r_com_total=row["r_com_com"] + row["r_com_mix"])
