#!/usr/bin/env python3
"""Independent evaluation of the two-subband water-filling split.

Recomputes the subband channels, the closed-form power fraction, and the
three subband rates for the bundled example scenario by direct
substitution, with no imports from src/. Also maximizes the total
communications rate over a dense brute-force beta grid to confirm the
closed form attains the optimum. The last block repeats alpha 0.5 with a
second target added, the interference and the estimation rate summed
over both targets. Frozen reference values in tests/ come from this
output.
"""

import math

C = 299792458.0
KB = 1.380649e-23

B = 5e6
FC = 3e9
TEMP = 1000.0
R_COM = 10e3
P_COM = 10 ** ((20 - 30) / 10)
G_COM = 1.0
R_TGT = 100e3
G_RAD = 1000.0
P_RAD = 1000.0
RCS = 10.0
PROC_STD_M = 100.0
TB = 100.0
DUTY = 0.01

LAM = C / FC
B_SQ = G_COM**2 * LAM**2 / (4 * math.pi * R_COM) ** 2
KT = KB * TEMP
GAMMA_SQ = (2 * math.pi) ** 2 / 12


def target(r_tgt: float, rcs: float, proc_std_m: float) -> tuple[float, float]:
    """(a^2, sigma_tau_proc^2) of one target."""
    a_sq = G_RAD**2 * LAM**2 * rcs / ((4 * math.pi) ** 3 * r_tgt**4)
    return a_sq, (2 * proc_std_m / C) ** 2


ONE_TARGET = (target(R_TGT, RCS, PROC_STD_M),)
# the example plus a farther, smaller, steadier second target
TWO_TARGETS = ONE_TARGET + (target(150e3, 5.0, 50.0),)


def sigma_int(alpha: float, targets) -> float:
    """Residual radar interference of every target plus thermal noise over
    the mixed subband."""
    return sum(
        a_sq * P_RAD * (1 - alpha) ** 2 * GAMMA_SQ * B**2 * sig_sq
        for a_sq, sig_sq in targets
    ) + KT * (1 - alpha) * B


def channels(alpha: float, targets) -> tuple[float, float]:
    mu_com = B_SQ / (KT * alpha * B)
    return mu_com, B_SQ / sigma_int(alpha, targets)


def total_rate(alpha: float, beta: float, targets) -> float:
    r_com = alpha * B * math.log2(1 + beta * P_COM * B_SQ / (KT * alpha * B))
    r_mix = (1 - alpha) * B * math.log2(
        1 + B_SQ * (1 - beta) * P_COM / sigma_int(alpha, targets)
    )
    return r_com + r_mix


def closed_form_beta(alpha: float, targets) -> float:
    mu_com, mu_mix = channels(alpha, targets)
    return alpha + ((alpha - 1) / mu_com + alpha / mu_mix) / P_COM


def report(alpha: float, targets) -> None:
    """Print the split at ``alpha``, the estimation rate summed over
    ``targets``, and the brute-force check of the closed-form optimum."""
    mu_com, mu_mix = channels(alpha, targets)
    threshold = alpha / ((1 - alpha) * mu_mix) - 1 / mu_com
    beta = closed_form_beta(alpha, targets) if P_COM >= threshold else 1.0
    nu = (
        P_COM + 1 / mu_com + 1 / mu_mix
        if P_COM >= threshold
        else (P_COM + 1 / mu_com) / alpha
    )

    # brute-force check of the closed-form optimum
    grid_best = max(total_rate(alpha, b / 99999.0, targets) for b in range(100000))
    analytic = total_rate(alpha, beta, targets)

    kappa = TB
    r_est = sum(
        (1 - alpha) * B * (DUTY / kappa) * math.log2(
            1 + sig_sq * GAMMA_SQ * (1 - alpha) * B * kappa * a_sq * P_RAD / KT
        )
        for a_sq, sig_sq in targets
    )
    r_com_com = alpha * B * math.log2(1 + beta * P_COM * B_SQ / (KT * alpha * B))
    r_com_mix = (1 - alpha) * B * math.log2(
        1 + B_SQ * (1 - beta) * P_COM / sigma_int(alpha, targets)
    )

    print(f"  mu_com             = {mu_com!r}")
    print(f"  mu_mix             = {mu_mix!r}")
    print(f"  dual_use_threshold = {threshold!r}")
    print(f"  nu                 = {nu!r}")
    print(f"  beta               = {beta!r}")
    print(f"  r_com_com_bps      = {r_com_com!r}")
    print(f"  r_com_mix_bps      = {r_com_mix!r}")
    print(f"  r_est_bps          = {r_est!r}")
    print(f"  total_analytic     = {analytic!r}")
    print(f"  total_grid_best    = {grid_best!r}")
    print(f"  grid_minus_analytic= {grid_best - analytic!r}")


def main() -> None:
    for alpha in (0.1, 0.25, 0.5, 0.75, 0.9):
        print(f"alpha                = {alpha!r}")
        report(alpha, ONE_TARGET)
    print(f"two_targets_alpha    = {0.5!r}")
    report(0.5, TWO_TARGETS)


if __name__ == "__main__":
    main()
