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

Each returns an ``McReport``, the ``validate`` report's fields in order.

The kernels work on the in-band DFT coefficients of an n-sample waveform
(n = ``N_SAMPLES``): independent complex Gaussian coefficients on the
in-band bins give Gaussian time samples with a flat band-limited spectrum,
set to unit sample variance by Parseval (mean |s|^2 = sum |c|^2 / n^2).
Fractional delays are phase ramps on the coefficients, exact for these
(circular) band-limited signals, so discretization never competes with
the variances under test. Delay-trial receiver noise is drawn on every bin,
exactly as white noise per time sample; only its in-band part reaches
the matched filter, whose output is the one inverse FFT of a delay
trial. Residual power and the spectral-shape constant are sums over the
in-band coefficients.

Each trial draws from its own generator keyed on (seed, trial index), so
results do not depend on execution order, and per-trial statistics are
reduced with numpy's pairwise summation over the trial-indexed array.
Trial t's stream is exactly ``np.random.default_rng([seed, t])``'s, so any
single trial can be reproduced by hand from that call. Only the seeding is
batched: the SeedSequence words of a block of trials come from one numpy
pass over the trial axis, and numpy's PCG64 seeds each stream from its row.

Draws are made per trial, arithmetic per chunk. A kernel walks the trials
in chunks of ``_CHUNK``: each trial of a chunk writes its draws into one
row of preallocated arrays, in the order the trial's generator yields
them, and the Parseval scale, the phase ramps, the sums and (for delay
trials) one batched inverse FFT then run once over the chunk's rows. Every
row gets the same elementwise arithmetic as a trial computed alone, so the
per-trial values do not depend on the chunk size, bit for bit. Besides the
one inverse FFT, the kernels do real float64 arithmetic only: numpy rounds
complex products and ``abs`` differently on each SIMD level.

Trials also run across processes. A kernel splits its trials into one
contiguous range per usable core (``trial_workers``), on ``_CHUNK``
boundaries (``_split_trials``). The calling process runs the first range
and an ``os.fork``ed child each other one. The trial-indexed
float64 array lives in an anonymous shared mapping made before the first
fork, so each child writes its range straight into the array the caller
reduces, as if the caller had run every trial itself. A range's streams
start at its first trial, so the array is the same, bit for bit, for any
number of workers.
"""

from __future__ import annotations

import functools
import math
import mmap
import operator
import os
import signal
import threading
import traceback
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .bounds import crb_delay_variance, int_plus_noise_variance
from .scenario import GAMMA_SQ_FLAT, LinkBudget


class ExperimentPreconditionError(ValueError):
    """Scenario falls outside the regime the analytic claim covers."""


class WorkerError(RuntimeError):
    """A forked Monte Carlo worker failed or could not be started; the
    message names its trial range."""


def _require_single_target(lb: LinkBudget, what: str) -> None:
    if lb.n_targets != 1:
        raise ExperimentPreconditionError(
            f"{what} is defined for a single target; got {lb.n_targets}"
        )


# The one numerical waveform of the experiments: N_SAMPLES complex samples,
# OVERSAMPLE of them per 1/B, so N_SAMPLES // OVERSAMPLE in-band bins. The
# delay-trial noise is scaled to the scenario's integrated SNR, so the
# analytic claims under test do not depend on either number.
N_SAMPLES = 2048
OVERSAMPLE = 8


@dataclass(frozen=True)
class McReport:
    """Outcome of one experiment: empirical vs analytic with a tolerance.

    The fields are declared in the order of the report's JSON keys
    (``to_json_dict``). ``rel_error`` = |empirical - analytic| / analytic
    and ``passed`` = (rel_error <= tolerance) follow from the others, so
    the constructor does not take them.
    """

    experiment: str
    trials: int
    seed: int
    empirical: float
    analytic: float
    rel_error: float = field(init=False)
    tolerance: float
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        rel_error = abs(self.empirical - self.analytic) / self.analytic
        object.__setattr__(self, "rel_error", rel_error)
        object.__setattr__(self, "passed", rel_error <= self.tolerance)

    def to_json_dict(self) -> dict:
        """The fields in declaration order, ``passed`` under the key
        ``pass``, last."""
        fields = asdict(self)
        fields["pass"] = fields.pop("passed")
        return fields


# Trials per chunk of the Monte Carlo kernels. Speed is flat from 8 to 64
# trials per chunk, while the per-chunk buffers (512 KiB of delay-trial
# cross-spectra at 16) grow with it and raise peak memory.
_CHUNK = 16

# Trials whose seed words are computed in one numpy pass: 32 KiB of words,
# so memory stays flat however many trials run.
_SEED_BLOCK = 64 * _CHUNK

# numpy's SeedSequence constants (``numpy/random/bit_generator.pyx``), which
# NEP 19 keeps stable along with PCG64's seeding.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hashmix(init: int, mult: int):
    """SeedSequence's hashmix with its own running hash constant, which
    starts at ``init`` and is multiplied by ``mult`` at every call."""
    hash_const = init

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ value >> 16

    return hashmix


def _seed_words(seed: int, first: int, stop: int) -> np.ndarray:
    """``SeedSequence([seed, t]).generate_state(4, np.uint64)`` for every
    trial t in [first, stop), one row each, in one uint32 numpy pass.

    The entropy is the seed's 32-bit little-endian words, then t, so
    trial indices must fit one word (t < 2^32).
    """
    if not 0 <= first <= stop <= 2**32:
        raise ValueError(f"trial indices must lie in [0, 2^32); got [{first}, {stop})")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative; got {seed}")
    entropy = [
        np.uint32(seed >> shift & _MASK32)
        for shift in range(0, max(seed.bit_length(), 1), 32)
    ]
    entropy.append(np.arange(first, stop, dtype=np.uint32))
    hashmix = _hashmix(_INIT_A, _MULT_A)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ result >> 16

    state = np.empty((stop - first, 2 * _POOL_SIZE), dtype=np.uint32)
    with np.errstate(over="ignore"):
        # SeedSequence.mix_entropy
        pool = [hashmix(entropy[i] if i < len(entropy) else np.uint32(0))
                for i in range(_POOL_SIZE)]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = mix(pool[dst], hashmix(word))
        # SeedSequence.generate_state: 8 uint32 words, cycling over the pool
        output = _hashmix(_INIT_B, _MULT_B)
        for i in range(2 * _POOL_SIZE):
            state[:, i] = output(pool[i % _POOL_SIZE])
    return state.view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _seed_words_type() -> type:
    """The ISeedSequence that hands ``np.random.PCG64`` one trial's
    precomputed words: PCG64's C code asks for ``generate_state(4,
    np.uint64)`` and seeds the stream from them as from a SeedSequence.
    Built on first use, so importing this module does not import
    ``numpy.random``."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def _trial_rngs(seed: int, first: int, stop: int):
    """The generators of trials first..stop-1, in order: trial t's stream
    is exactly ``np.random.default_rng([seed, t])``'s, keyed on (seed, t) so
    execution order never matters."""
    seed_words = _seed_words_type()
    for block in range(first, stop, _SEED_BLOCK):
        for words in _seed_words(seed, block, min(block + _SEED_BLOCK, stop)):
            yield np.random.default_rng(np.random.PCG64(seed_words(words)))


def trial_workers(trials: int) -> int:
    """Processes the Monte Carlo kernels split ``trials`` trials across:
    one per usable core, and at most one per ``_SEED_BLOCK`` trials, so a
    fork never costs more than it saves. 1 where ``os.fork`` or
    ``os.sched_getaffinity`` is missing, and while another Python thread
    is alive: a forked child would deadlock on any lock that thread holds."""
    if (
        not hasattr(os, "fork")
        or not hasattr(os, "sched_getaffinity")
        or threading.active_count() > 1
    ):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), trials // _SEED_BLOCK))


def _split_trials(body, trials: int) -> np.ndarray:
    """The trial-indexed values of trials 0..trials-1, where
    ``body(first, stop, out)`` writes those of trials first..stop-1 into
    ``out[first:stop]``.

    The trials are split into ``trial_workers(trials)`` contiguous ranges
    on ``_CHUNK`` boundaries: this process runs the first, a forked child
    each other one. ``out`` is an anonymous shared mapping (``mmap``
    refuses length 0) made before the first fork, so every process writes
    its range into the same array. Raises ``WorkerError`` naming the range
    of a child that failed or could not be started, after every child has
    exited, so the caller never reads a range a child left unwritten. On
    an error in this process every child is killed first; no child
    outlives the call.
    """
    if trials < 0:
        raise ValueError(f"trials must be non-negative; got {trials}")
    out = np.frombuffer(mmap.mmap(-1, max(8 * trials, 1)), np.float64, trials)
    n = trial_workers(trials)
    bounds = [trials * i // n // _CHUNK * _CHUNK for i in range(n)] + [trials]
    children: dict[int, tuple[int, int]] = {}  # pid -> first, stop
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork while other threads run. No other
            # Python thread is alive where trial_workers allows a fork, so
            # those are numpy's BLAS threads, and the children never call BLAS.
            warnings.filterwarnings(
                "ignore", r".*use of fork\(\) may lead to deadlocks", DeprecationWarning
            )
            for first, stop in zip(bounds[1:-1], bounds[2:]):
                try:
                    pid = os.fork()
                except OSError as exc:  # out of processes
                    raise WorkerError(
                        f"Monte Carlo trials [{first}, {stop}) could not start a "
                        f"worker process ({exc})"
                    ) from exc
                if pid == 0:
                    # the child never returns into the caller's stack
                    code = 1
                    try:
                        body(first, stop, out)
                        code = 0
                    except BaseException:
                        traceback.print_exc()
                        raise
                    finally:
                        os._exit(code)
                children[pid] = (first, stop)
        body(bounds[0], bounds[1], out)
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        codes = {pid: os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in children}
    for pid, code in codes.items():
        if code != 0:
            first, stop = children[pid]
            raise WorkerError(
                f"Monte Carlo trials [{first}, {stop}) failed in worker process "
                f"{pid} (exit code {code})"
            )
    return out


def _signed_bins(n: int) -> np.ndarray:
    return ((np.arange(n) + n // 2) % n) - n // 2


def _band_bins(n: int) -> tuple[np.ndarray, np.ndarray]:
    """DFT indices of the in-band bins of an n-sample waveform in FFT order,
    and their frequencies in cycles per sample."""
    nb = n // OVERSAMPLE
    signed = _signed_bins(n)
    band = np.flatnonzero((signed >= -(nb // 2)) & (signed < nb - nb // 2))
    return band, signed[band] / n


def _coefficients(re: np.ndarray, im: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """``(cr, ci, |c|^2)`` of the in-band coefficients c of unit-variance
    n-sample waveforms, one per row, from standard-normal parts ``re, im``."""
    sq = re * re + im * im
    # Parseval: the time samples' mean square is sum |c|^2 / n^2
    g = n / np.sqrt(np.sum(sq, axis=-1, keepdims=True))
    return re * g, im * g, sq * (g * g)


def generate_waveform(n_samples: int, seed: int) -> np.ndarray:
    """Complex time samples of one flat-spectrum band-limited waveform with
    unit sample variance and ``OVERSAMPLE`` samples per 1/B; deterministic
    in ``seed``."""
    if n_samples // OVERSAMPLE < 4:
        raise ValueError(
            f"need at least 4 in-band bins: n_samples >= {4 * OVERSAMPLE}, "
            f"got {n_samples}"
        )
    band, _ = _band_bins(n_samples)
    rng = np.random.default_rng(seed)
    re, im = rng.standard_normal(len(band)), rng.standard_normal(len(band))
    coeffs = np.zeros(n_samples, dtype=complex)
    coeffs.real[band], coeffs.imag[band], _ = _coefficients(re, im, n_samples)
    return np.fft.ifft(coeffs)


def _trial_draws(seed: int, first: int, stop: int, draw_extra=None):
    """The unit-variance in-band coefficients of the ``N_SAMPLES``-sample
    waveforms of trials first..stop-1, one chunk of at most ``_CHUNK``
    trials at a time.

    Yields the chunk's slice of the trial axis and the ``(rows, k)`` real
    parts, imaginary parts and squared magnitudes of its coefficients
    (``_coefficients``), k = N_SAMPLES // OVERSAMPLE. Each trial draws from its
    own generator: the k real parts, the k imaginary parts (one call of 2k
    values), then whatever ``draw_extra(rng, row)`` draws into the
    caller's per-chunk arrays.
    """
    parts = np.empty((_CHUNK, 2, N_SAMPLES // OVERSAMPLE))  # real, imaginary
    rngs = _trial_rngs(seed, first, stop)
    for start in range(first, stop, _CHUNK):
        rows = min(_CHUNK, stop - start)
        for row, rng in zip(range(rows), rngs):
            rng.standard_normal(out=parts[row])
            if draw_extra is not None:
                draw_extra(rng, row)
        re, im = parts[:rows, 0], parts[:rows, 1]
        yield (slice(start, start + rows), *_coefficients(re, im, N_SAMPLES))


def _gamma_sq(f: np.ndarray, power: np.ndarray) -> np.ndarray:
    """(2 pi B_rms)^2 / B^2 of each row of power spectra at frequencies ``f``
    in units of B."""
    return (2.0 * math.pi) ** 2 * (
        np.sum(f**2 * power, axis=-1) / np.sum(power, axis=-1)
    )


def _parabolic_peaks(corr: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Lag in samples of each row's ``|corr|`` peak inside [lo, hi),
    refined to sub-sample precision with a three-point parabolic fit."""
    window = corr[:, lo - 1 : hi + 1]
    mag = np.hypot(window.real, window.imag)
    i = np.argmax(mag[:, 1:-1], axis=1) + 1
    rows = np.arange(len(mag))
    y0, y1, y2 = mag[rows, i - 1], mag[rows, i], mag[rows, i + 1]
    denom = y0 - 2.0 * y1 + y2
    # a peak without downward curvature keeps its integer lag
    ratio = np.divide(0.5 * (y0 - y2), denom, out=np.zeros_like(denom), where=denom < 0)
    return (lo - 1 + i) + np.clip(ratio, -0.5, 0.5)


def integrated_snr(lb: LinkBudget) -> float:
    """Post-pulse-compression SNR of the first target: TB a^2 P_radar / noise
    power."""
    return lb.time_bandwidth * lb.a_sq[0] * lb.radar_power_w / lb.noise_power_w


def delay_error_trials(lb: LinkBudget, trials: int, seed: int) -> np.ndarray:
    """Per-trial delay-estimation errors in seconds.

    Each trial draws a fresh waveform (known at the receiver), a uniform
    sub-sample true delay around a fixed center, and frequency-domain
    noise scaled so the matched-filter output SNR equals the scenario's
    integrated SNR. The matched-filter output is the inverse FFT of the
    in-band cross-spectrum of observation and reference.
    """
    return _split_trials(functools.partial(_delay_errors, lb, seed), trials)


def _delay_errors(
    lb: LinkBudget, seed: int, first: int, stop: int, errors: np.ndarray
) -> None:
    """``delay_error_trials`` of trials first..stop-1, into ``errors``."""
    n = N_SAMPLES
    fs = OVERSAMPLE * lb.bandwidth_hz
    isnr = integrated_snr(lb)
    # Noise is scaled so the scenario's integrated SNR is realized per
    # quadrature component: total complex noise variance 2n/ISNR for a
    # unit-variance n-sample signal. Under this convention the analytic
    # delay-variance floor is the exact Cramer-Rao bound of the simulated
    # matched-filter model.
    noise_var = 2.0 * n / isnr
    freq_noise_scale = math.sqrt(n * noise_var / 2.0)
    band, f_band = _band_bins(n)
    phase = -2.0 * np.pi * f_band
    center = n // 4
    lo, hi = center - 2 * OVERSAMPLE, center + 2 * OVERSAMPLE + 1

    shift = np.empty(_CHUNK)
    # noise is drawn on every bin, real then imaginary parts; only the
    # in-band part is kept
    noise = np.empty((_CHUNK, 2, n))

    def draw_delay_and_noise(rng: np.random.Generator, row: int) -> None:
        shift[row] = rng.uniform(-0.5, 0.5)
        rng.standard_normal(out=noise[row])

    cross = np.empty((_CHUNK, n), dtype=complex)
    for trial, cr, ci, sq in _trial_draws(seed, first, stop, draw_delay_and_noise):
        rows = len(sq)
        true_lag = center + shift[:rows]
        angle = np.outer(true_lag, phase)
        in_band = freq_noise_scale * noise[:rows, :, band]
        nr, ni = in_band[:, 0], in_band[:, 1]
        corr = cross[:rows]
        corr.fill(0.0)
        # (c e^{j angle} + noise) conj(c), the in-band cross-spectrum
        corr.real[:, band] = sq * np.cos(angle) + (nr * cr + ni * ci)
        corr.imag[:, band] = sq * np.sin(angle) + (ni * cr - nr * ci)
        np.fft.ifft(corr, axis=1, out=corr)  # in place: the matched-filter outputs
        errors[trial] = _parabolic_peaks(corr, lo, hi) / fs - true_lag / fs


#: The integrated SNRs at which the simulated delay estimator is efficient,
#: so that the crb check compares like with like. Below CRB_MIN_ISNR lies
#: the threshold region, where outlier peaks put the empirical variance
#: several times over the floor (3.2-3.5 times at 20, 10k trials); above
#: CRB_MAX_ISNR the parabolic peak fit's bias floor does (1.23-1.25 times
#: at 4e6).
CRB_MIN_ISNR = 50.0
CRB_MAX_ISNR = 1e6


def crb_experiment(lb: LinkBudget, trials: int, seed: int) -> McReport:
    """Empirical delay-estimation variance vs the analytic floor.

    Rejects scenarios with integrated SNR outside [``CRB_MIN_ISNR``,
    ``CRB_MAX_ISNR``], where the simulated estimator is not efficient and
    the floor is not a meaningful prediction of it. Tolerance 25%
    relative, tightening to 15% from integrated SNR 1e4 where the
    estimator is deep in the asymptotic regime.
    """
    _require_single_target(lb, "delay-variance experiment")
    if trials <= 0:
        raise ValueError("trials must be positive")
    isnr = integrated_snr(lb)
    if not CRB_MIN_ISNR <= isnr <= CRB_MAX_ISNR:
        raise ExperimentPreconditionError(
            f"integrated SNR {isnr:.3g} is outside [{CRB_MIN_ISNR:g}, {CRB_MAX_ISNR:g}], "
            "the range in which the simulated delay estimator is efficient, so the "
            "comparison would be meaningless. Move it with radar.power_w, "
            "radar.antenna_gain_dbi or radar.time_bandwidth."
        )
    errors = delay_error_trials(lb, trials, seed)
    empirical = float(np.mean(errors**2))
    analytic = crb_delay_variance(lb, 0)
    tolerance = 0.15 if isnr >= 1e4 else 0.25
    return McReport("crb", trials, seed, empirical, analytic, tolerance)


def residual_power_trials(lb: LinkBudget, trials: int, seed: int) -> np.ndarray:
    """Per-trial received residual power a^2 P_radar |s(t-tau) - s(t-tau_pre)|^2.

    The shift by the drawn process jitter is applied exactly as a phase
    ramp on the in-band coefficients; no derivative approximation enters.
    """
    return _split_trials(functools.partial(_residual_powers, lb, seed), trials)


def _residual_powers(
    lb: LinkBudget, seed: int, first: int, stop: int, powers: np.ndarray
) -> None:
    """``residual_power_trials`` of trials first..stop-1, into ``powers``."""
    fs = OVERSAMPLE * lb.bandwidth_hz
    sigma_tau = math.sqrt(lb.sigma_tau_proc_sq[0])
    scale = lb.a_sq[0] * lb.radar_power_w
    _, f_band = _band_bins(N_SAMPLES)
    phase = -2.0 * np.pi * f_band

    jitter = np.empty(_CHUNK)

    def draw_jitter(rng: np.random.Generator, row: int) -> None:
        jitter[row] = rng.normal(0.0, sigma_tau)

    for trial, _, _, sq in _trial_draws(seed, first, stop, draw_jitter):
        angle = np.outer(jitter[: len(sq)] * fs, phase)
        # |c (e^{j angle} - 1)|^2
        diff_sq = sq * ((np.cos(angle) - 1.0) ** 2 + np.sin(angle) ** 2)
        powers[trial] = scale * (np.sum(diff_sq, axis=1) / N_SAMPLES**2)


def residual_experiment(lb: LinkBudget, trials: int, seed: int) -> McReport:
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
    powers = residual_power_trials(lb, trials, seed)
    empirical = float(np.mean(powers)) + lb.noise_power_w
    return McReport("residual", trials, seed, empirical, analytic, tolerance=0.10)


def gamma_sq_trials(trials: int, seed: int) -> np.ndarray:
    """Per-trial spectral-shape constant of one waveform realization."""
    return _split_trials(functools.partial(_gamma_sqs, seed), trials)


def _gamma_sqs(seed: int, first: int, stop: int, measured: np.ndarray) -> None:
    """``gamma_sq_trials`` of trials first..stop-1, into ``measured``."""
    _, f_band = _band_bins(N_SAMPLES)
    f = f_band * OVERSAMPLE  # in units of B
    for trial, _, _, sq in _trial_draws(seed, first, stop):
        measured[trial] = _gamma_sq(f, sq)


def gamma_experiment(trials: int, seed: int) -> McReport:
    """Measured spectral-shape constant vs (2 pi)^2 / 12 for a flat band."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    empirical = float(np.mean(gamma_sq_trials(trials, seed)))
    analytic = GAMMA_SQ_FLAT
    return McReport("gamma", trials, seed, empirical, analytic, tolerance=0.05)
