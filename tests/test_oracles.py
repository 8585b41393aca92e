"""The frozen constants in helpers.py are exactly what the oracle scripts print."""

import subprocess
import sys
from pathlib import Path

import helpers

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# helpers constant -> printed name; an indented line is named after the
# unindented line above it, as "alpha=0.5/beta"
PRINTED = {
    "TABLE2_A_SQ": "a_sq",
    "TABLE2_B_SQ": "b_sq",
    "TABLE2_NOISE_W": "noise_power_w",
    "TABLE2_SIGMA_TAU_PROC_SQ": "sigma_tau_proc_sq_s2",
    "GAMMA_SQ_FLAT": "gamma_sq",
    "TABLE2_CRB_S2": "crb_delay_variance_s2",
    "TABLE2_EST_RATE_BPS": "est_outer_rate_bps",
    "TABLE2_COMMS_OUTER_BPS": "comms_outer_rate_bps",
    "TABLE2_INT_PLUS_NOISE_W": "int_plus_noise_w",
    "TABLE2_SIC_RATE_BPS": "sic_comms_rate_bps",
    "TABLE2_ISNR": "integrated_snr",
    "DELAY_100KM_S": "delay_100km_s",
    "DELAY_100M_S": "delay_100m_s",
    "WF_MU_COM_05": "alpha=0.5/mu_com",
    "WF_MU_MIX_05": "alpha=0.5/mu_mix",
    "WF_NU_05": "alpha=0.5/nu",
    "WF_R_COM_COM_05": "alpha=0.5/r_com_com_bps",
    "WF_R_COM_MIX_05": "alpha=0.5/r_com_mix_bps",
    "WF_R_EST_05": "alpha=0.5/r_est_bps",
    "WF2_MU_MIX_05": "two_targets_alpha=0.5/mu_mix",
    "WF2_BETA_05": "two_targets_alpha=0.5/beta",
    "WF2_R_COM_MIX_05": "two_targets_alpha=0.5/r_com_mix_bps",
    "WF2_R_EST_05": "two_targets_alpha=0.5/r_est_bps",
}


def oracle_output(script: str) -> dict[str, str]:
    """The ``name = value`` lines a script prints, name -> value text."""
    stdout = subprocess.run(
        [sys.executable, str(SCRIPTS / script)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    printed, section = {}, ""
    for line in stdout.splitlines():
        name, _, value = (part.strip() for part in line.partition("="))
        if line.startswith(" "):
            printed[f"{section}/{name}"] = value
        else:
            printed[name] = value
            section = f"{name}={value}"
    return printed


def test_frozen_constants_equal_oracle_output():
    printed = oracle_output("oracle_link_budget.py") | oracle_output("oracle_waterfill.py")
    frozen = {name for name in vars(helpers) if name.isupper()}
    assert frozen == set(PRINTED) | {"WF_ALPHAS", "WF_BETAS"}
    for name, key in PRINTED.items():
        assert repr(getattr(helpers, name)) == printed[key], name
    for alpha, beta in zip(helpers.WF_ALPHAS, helpers.WF_BETAS, strict=True):
        assert repr(beta) == printed[f"alpha={alpha!r}/beta"], alpha
    # the frozen alphas are every alpha the single-target blocks print
    sections = dict.fromkeys(k.split("/")[0] for k in printed if k.startswith("alpha="))
    assert [f"alpha={a!r}" for a in helpers.WF_ALPHAS] == list(sections)
