"""Seeded Monte Carlo checks of the two analytic variance claims.

Three seeded experiments back the closed-form bounds:

* ``crb_experiment`` runs repeated matched-filter delay estimations on a
  band-limited Gaussian waveform and compares the empirical squared error
  against the delay-variance floor.
* ``residual_experiment`` subtracts the waveform at the predicted delay
  from the waveform at the true (jittered) delay, exactly, and compares
  the measured residual power against the derivative-approximation
  formula behind the interference-plus-noise variance.
* ``gamma_experiment`` measures the waveform's spectral-shape constant.

The kernels work on the in-band DFT coefficients of an n-sample waveform:
independent complex Gaussian coefficients on the in-band bins give
Gaussian time samples with a flat band-limited spectrum, set to unit
sample variance by Parseval (mean |s|^2 = sum |c|^2 / n^2). Fractional
delays are phase ramps on the coefficients, exact for these (circular)
band-limited signals, so discretization never competes with the
variances under test. Delay-trial receiver noise is drawn on every bin,
exactly as white noise per time sample; only its in-band part reaches
the matched filter, whose output is the one inverse FFT of a delay
trial. Residual power and the spectral-shape constant are sums over the
in-band coefficients.

Each trial draws from its own generator seeded by (seed, trial index), so
results do not depend on execution order, and per-trial statistics are
reduced with numpy's pairwise summation over the trial-indexed array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import crb_delay_variance, int_plus_noise_variance, _require_single_target
from .scenario import GAMMA_SQ, LinkBudget, SpectralShape


class ExperimentPreconditionError(ValueError):
    """Scenario falls outside the regime the analytic claim covers."""


@dataclass(frozen=True)
class WaveformSpec:
    """Sampled-waveform description: ``oversample`` samples per 1/B."""

    n_samples: int = 2048
    oversample: int = 8

    def __post_init__(self) -> None:
        if self.n_samples <= 0 or self.oversample <= 0:
            raise ValueError("n_samples and oversample must be positive")
        if self.n_samples // self.oversample < 4:
            raise ValueError("need at least 4 in-band frequency bins")

    @property
    def n_band_bins(self) -> int:
        return self.n_samples // self.oversample


@dataclass(frozen=True)
class McReport:
    """Outcome of one experiment: empirical vs analytic with a tolerance."""

    experiment: str
    trials: int
    seed: int
    empirical: float
    analytic: float
    rel_error: float
    tolerance: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "trials": self.trials,
            "seed": self.seed,
            "empirical": self.empirical,
            "analytic": self.analytic,
            "rel_error": self.rel_error,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _report(
    experiment: str, trials: int, seed: int, empirical: float, analytic: float,
    tolerance: float,
) -> McReport:
    rel_error = abs(empirical - analytic) / analytic
    return McReport(
        experiment=experiment,
        trials=trials,
        seed=seed,
        empirical=float(empirical),
        analytic=float(analytic),
        rel_error=float(rel_error),
        tolerance=tolerance,
        passed=bool(rel_error <= tolerance),
    )


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    # stream keyed on (seed, trial) so execution order never matters
    return np.random.default_rng([seed, trial])


def _signed_bins(n: int) -> np.ndarray:
    return ((np.arange(n) + n // 2) % n) - n // 2


def _band_bins(spec: WaveformSpec) -> tuple[np.ndarray, np.ndarray]:
    """DFT indices of the in-band bins in FFT order, and their frequencies
    in cycles per sample."""
    n, nb = spec.n_samples, spec.n_band_bins
    signed = _signed_bins(n)
    band = np.flatnonzero((signed >= -(nb // 2)) & (signed < nb - nb // 2))
    return band, signed[band] / n


def _waveform_freq(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """The k in-band DFT coefficients of one unit-variance n-sample waveform."""
    coeffs = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / math.sqrt(2)
    # Parseval: the time samples' mean square is sum |c|^2 / n^2
    return coeffs / (math.sqrt(float(np.sum(np.abs(coeffs) ** 2))) / n)


def generate_waveform(spec: WaveformSpec, seed: int) -> np.ndarray:
    """Complex time samples of one flat-spectrum band-limited waveform with
    unit sample variance; deterministic in ``seed``."""
    band, _ = _band_bins(spec)
    coeffs = np.zeros(spec.n_samples, dtype=complex)
    coeffs[band] = _waveform_freq(np.random.default_rng(seed), len(coeffs), len(band))
    return np.fft.ifft(coeffs)


def _gamma_sq(f: np.ndarray, power: np.ndarray) -> float:
    """(2 pi B_rms)^2 / B^2 of a power spectrum at frequencies ``f`` in units of B."""
    return (2.0 * math.pi) ** 2 * float(np.sum(f**2 * power) / np.sum(power))


def measured_gamma_sq(samples: np.ndarray, oversample: int) -> float:
    """Spectral-shape constant (2 pi B_rms)^2 / B^2 from a periodogram."""
    n = len(samples)
    # frequency in units of B: the occupied band spans [-1/2, 1/2)
    f = _signed_bins(n) / n * oversample
    return _gamma_sq(f, np.abs(np.fft.fft(samples)) ** 2)


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


def integrated_snr(lb: LinkBudget, target_idx: int = 0) -> float:
    """Post-pulse-compression SNR: TB a^2 P_radar / noise power."""
    return (
        lb.time_bandwidth * lb.a_sq[target_idx] * lb.radar_power_w / lb.noise_power_w
    )


def delay_error_trials(
    lb: LinkBudget, spec: WaveformSpec, trials: int, seed: int
) -> np.ndarray:
    """Per-trial delay-estimation errors in seconds.

    Each trial draws a fresh waveform (known at the receiver), a uniform
    sub-sample true delay around a fixed center, and frequency-domain
    noise scaled so the matched-filter output SNR equals the scenario's
    integrated SNR. The matched-filter output is the inverse FFT of the
    in-band cross-spectrum of observation and reference.
    """
    n = spec.n_samples
    fs = spec.oversample * lb.bandwidth_hz
    isnr = integrated_snr(lb)
    # Noise is scaled so the scenario's integrated SNR is realized per
    # quadrature component: total complex noise variance 2n/ISNR for a
    # unit-variance n-sample signal. Under this convention the analytic
    # delay-variance floor is the exact Cramer-Rao bound of the simulated
    # matched-filter model.
    noise_var = 2.0 * n / isnr
    freq_noise_scale = math.sqrt(n * noise_var / 2.0)
    band, f_band = _band_bins(spec)
    center = n // 4
    lo, hi = center - 2 * spec.oversample, center + 2 * spec.oversample + 1

    cross = np.zeros(n, dtype=complex)  # zero off the band on every trial
    errors = np.empty(trials)
    for t in range(trials):
        rng = _trial_rng(seed, t)
        coeffs = _waveform_freq(rng, n, len(band))
        true_lag = center + rng.uniform(-0.5, 0.5)
        ramp = np.exp(-2j * np.pi * f_band * true_lag)
        noise_f = rng.standard_normal(n) + 1j * rng.standard_normal(n)  # every bin
        observed = coeffs * ramp + freq_noise_scale * noise_f[band]
        cross[band] = observed * np.conj(coeffs)
        errors[t] = _parabolic_peak(np.fft.ifft(cross), lo, hi) / fs - true_lag / fs
    return errors


def crb_experiment(
    lb: LinkBudget, spec: WaveformSpec, trials: int, seed: int
) -> McReport:
    """Empirical delay-estimation variance vs the analytic floor.

    Rejects scenarios with integrated SNR below 10, where the matched
    filter is not variance-efficient and the floor is not a meaningful
    prediction. Tolerance 25% relative, tightening to 15% from integrated
    SNR 1e4 where the estimator is deep in the asymptotic regime.
    """
    _require_single_target(lb, "delay-variance experiment")
    if trials <= 0:
        raise ValueError("trials must be positive")
    isnr = integrated_snr(lb)
    if isnr < 10.0:
        raise ExperimentPreconditionError(
            f"integrated SNR {isnr:.3g} is below 10: the delay estimator is not "
            "variance-efficient there, so the comparison would be meaningless. "
            "Raise radar power, antenna gain, or time-bandwidth."
        )
    errors = delay_error_trials(lb, spec, trials, seed)
    empirical = float(np.mean(errors**2))
    analytic = crb_delay_variance(lb, 0)
    tolerance = 0.15 if isnr >= 1e4 else 0.25
    return _report("crb", trials, seed, empirical, analytic, tolerance)


def residual_power_trials(
    lb: LinkBudget, spec: WaveformSpec, trials: int, seed: int
) -> np.ndarray:
    """Per-trial received residual power a^2 P_radar |s(t-tau) - s(t-tau_pre)|^2.

    The shift by the drawn process jitter is applied exactly as a phase
    ramp on the in-band coefficients; no derivative approximation enters.
    """
    n = spec.n_samples
    fs = spec.oversample * lb.bandwidth_hz
    sigma_tau = math.sqrt(lb.sigma_tau_proc_sq[0])
    scale = lb.a_sq[0] * lb.radar_power_w
    _, f_band = _band_bins(spec)

    powers = np.empty(trials)
    for t in range(trials):
        rng = _trial_rng(seed, t)
        coeffs = _waveform_freq(rng, n, len(f_band))
        jitter_lag = rng.normal(0.0, sigma_tau) * fs
        diff = coeffs * (np.exp(-2j * np.pi * f_band * jitter_lag) - 1.0)
        powers[t] = scale * (float(np.sum(np.abs(diff) ** 2)) / n**2)
    return powers


def residual_experiment(
    lb: LinkBudget, spec: WaveformSpec, trials: int, seed: int
) -> McReport:
    """Measured interference-plus-noise power vs the derivative formula.

    Valid while the process jitter stays well inside one over the
    bandwidth; rejects sigma_tau_proc * B above 0.2. Thermal noise is an
    exact additive constant on both sides, so it is added analytically.
    """
    _require_single_target(lb, "residual-interference experiment")
    if trials <= 0:
        raise ValueError("trials must be positive")
    sigma_tau_b = math.sqrt(lb.sigma_tau_proc_sq[0]) * lb.bandwidth_hz
    if sigma_tau_b > 0.2:
        raise ExperimentPreconditionError(
            f"sigma_tau_proc * B = {sigma_tau_b:.3g} exceeds 0.2; the derivative "
            "approximation only covers jitter well inside one over the bandwidth."
        )
    analytic = int_plus_noise_variance(lb, lb.bandwidth_hz)
    if sigma_tau_b == 0.0:
        empirical = lb.noise_power_w
    else:
        powers = residual_power_trials(lb, spec, trials, seed)
        empirical = float(np.mean(powers)) + lb.noise_power_w
    return _report("residual", trials, seed, empirical, analytic, tolerance=0.10)


def gamma_sq_trials(spec: WaveformSpec, trials: int, seed: int) -> np.ndarray:
    """Per-trial spectral-shape constant of one waveform realization."""
    _, f_band = _band_bins(spec)
    f = f_band * spec.oversample  # in units of B
    measured = np.empty(trials)
    for t in range(trials):
        coeffs = _waveform_freq(_trial_rng(seed, t), spec.n_samples, len(f))
        measured[t] = _gamma_sq(f, np.abs(coeffs) ** 2)
    return measured


def gamma_experiment(spec: WaveformSpec, trials: int, seed: int) -> McReport:
    """Measured spectral-shape constant vs (2 pi)^2 / 12 for a flat band."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    empirical = float(np.mean(gamma_sq_trials(spec, trials, seed)))
    analytic = GAMMA_SQ[SpectralShape.FLAT]
    return _report("gamma", trials, seed, empirical, analytic, tolerance=0.05)
