"""Joint radar-communications performance bounds.

Rate-region curves (outer, cancellation, interpolated, water-filling,
hull) for a shared-band radar relay scenario, plus seeded Monte Carlo
experiments validating the delay-variance and residual-interference
formulas the bounds rest on.
"""

__version__ = "0.1.0"

from .bounds import (
    DegenerateLinkError,
    PentagonRegion,
    RateRegion,
    comms_outer_rate,
    crb_delay_variance,
    est_outer_rate,
    int_plus_noise_variance,
    ma_pentagon,
    rate_region,
    sic_comms_rate,
)
from .mcsim import (
    ExperimentPreconditionError,
    McReport,
    crb_experiment,
    gamma_experiment,
    generate_waveform,
    residual_experiment,
)
from .scenario import (
    LinkBudget,
    Scenario,
    ScenarioError,
    Target,
    bundled_scenario_path,
    delay_from_range,
    derive_link_budget,
    load_scenario,
    noise_power,
)
from .waterfill import WaterfillGrid, upper_convex_hull, waterfill_grid
