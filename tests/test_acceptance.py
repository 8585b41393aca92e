"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; ``pytest -v`` shows the same outcomes as test results. Monte Carlo
criteria use their stated seeds and trial counts, so this module is the
slow part of the suite (about 7 s on a 2-core x86 machine).
"""

import json
import math
import time
from dataclasses import replace

import numpy as np

from helpers import (
    brute_force_total_comms_rate,
    curve,
    entropy_form_est_rate,
    make_lb,
    measured_gamma_sq,
    random_lb,
    waterfill_row,
)
from mudr import bounds, cli, mcsim, waterfill as wf
from mudr.scenario import bundled_scenario_path


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def hull_value_at(hull, x):
    xs, ys = (column.tolist() for column in hull)
    for i in range(len(xs) - 1):
        if xs[i] <= x <= xs[i + 1]:
            if xs[i + 1] == xs[i]:
                return max(ys[i], ys[i + 1])
            t = (x - xs[i]) / (xs[i + 1] - xs[i])
            return ys[i] + t * (ys[i + 1] - ys[i])
    return ys[-1]


def test_criterion_01_region_curves(tmp_path, table2_lb):
    t0 = time.perf_counter()
    rc = cli.main(
        ["region", "--scenario", str(bundled_scenario_path()),
         "--alpha-points", "400", "--out", str(tmp_path)]
    )
    elapsed = time.perf_counter() - t0
    assert rc == 0

    region = bounds.rate_region(table2_lb, wf.default_alpha_grid(400))
    sic = bounds.sic_comms_rate(table2_lb)
    outer = bounds.comms_outer_rate(table2_lb)

    interpolated, split = curve(region, "interpolated"), curve(region, "waterfill")
    (e0, e1), (c0, c1) = interpolated
    slope = (c1 - c0) / (e1 - e0)
    split_est, split_com = split
    exceeds = bool(any(split_com > c0 + slope * split_est))
    hull = curve(region, "hull")
    dominated = all(
        hull_value_at(hull, r_est) >= r_com - 1e-9
        for est_column, com_column in (interpolated, split)
        for r_est, r_com in zip(est_column.tolist(), com_column.tolist())
    )
    ok = elapsed < 5.0 and sic < outer and exceeds and dominated
    report(
        1,
        ok,
        f"region in {elapsed:.2f}s; sic<outer={sic < outer}; "
        f"waterfill exceeds interpolation={exceeds}; hull dominates={dominated}",
    )


def test_criterion_02_sic_vertex_endpoint(table2_lb):
    p = waterfill_row(table2_lb, 1e-8)
    est_ref = bounds.est_outer_rate(table2_lb)
    com_ref = bounds.sic_comms_rate(table2_lb)
    err_est = abs(p.r_est - est_ref) / est_ref
    err_com = abs(p.r_com_total - com_ref) / com_ref
    ok = err_est <= 1e-6 and err_com <= 1e-6
    report(2, ok, f"alpha=1e-8 endpoint errors: est {err_est:.2e}, com {err_com:.2e}")


def test_criterion_03_waterfill_optimality_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    scenarios = 0
    while scenarios < 20:
        lb = random_lb(rng)
        rows = [waterfill_row(lb, float(a)) for a in rng.uniform(0.05, 0.95, 100)]
        points = [r for r in rows if lb.comms_power_w >= wf.dual_use_threshold_w(
                      r.alpha, r.mu_com, r.mu_mix)]
        if len(points) < 10:
            continue
        scenarios += 1
        for point in points[:10]:
            grid_best, _ = brute_force_total_comms_rate(lb, point.alpha, 10_000)
            worst = max(worst, abs(point.r_com_total - grid_best) / grid_best)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    report(3, ok, f"20x10 splits, worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_degeneracy_suite(table2_lb):
    quiet = replace(table2_lb, sigma_tau_proc_sq=(0.0,))
    est = bounds.est_outer_rate(quiet)
    sic = bounds.sic_comms_rate(quiet)
    outer = bounds.comms_outer_rate(quiet)
    residual = bounds.int_plus_noise_variance(quiet, quiet.bandwidth_hz)
    ok = (
        est == 0.0
        and abs(sic - outer) <= 1e-12 * outer
        and abs(residual - quiet.noise_power_w) <= 1e-12 * quiet.noise_power_w
    )
    report(4, ok, f"est={est}, |sic-outer|/outer={(abs(sic - outer) / outer):.2e}, "
                  f"|residual-noise|/noise={(abs(residual - quiet.noise_power_w) / quiet.noise_power_w):.2e}")


def _lb_at_isnr(target: float):
    base = make_lb()
    return replace(
        base, radar_power_w=base.radar_power_w * target / mcsim.integrated_snr(base)
    )


def test_criterion_05_crb_monte_carlo():
    results = []
    for isnr, tol in ((100.0, 0.25), (1e4, 0.15)):
        t0 = time.perf_counter()
        rep = mcsim.crb_experiment(_lb_at_isnr(isnr), 10_000, 42)
        elapsed = time.perf_counter() - t0
        results.append((isnr, rep, elapsed, tol))
    ok = all(
        rep.rel_error <= tol and rep.tolerance == tol and elapsed < 60.0
        for _, rep, elapsed, tol in results
    )
    detail = "; ".join(
        f"ISNR={isnr:g}: rel={rep.rel_error:.3f} (tol {tol}) in {elapsed:.1f}s"
        for isnr, rep, elapsed, tol in results
    )
    report(5, ok, detail)


def _lb_at_sigma_b(x: float, radar_power_w: float = 2e7):
    base = make_lb(radar_power_w=radar_power_w)
    sigma_tau = x / base.bandwidth_hz
    return replace(base, sigma_tau_proc_sq=(sigma_tau**2,))


def test_criterion_06_residual_monte_carlo():
    t0 = time.perf_counter()
    rep = mcsim.residual_experiment(_lb_at_sigma_b(0.05), 10_000, 42)
    head_ok = rep.rel_error <= 0.10

    rels, ses = [], []
    for x in (0.1, 0.03, 0.01):
        lb = _lb_at_sigma_b(x)
        r = mcsim.residual_experiment(lb, 10_000, 42)
        powers = mcsim.residual_power_trials(lb, 10_000, 42)
        se = float(np.std(powers) / math.sqrt(len(powers))) / r.analytic
        rels.append(r.rel_error)
        ses.append(se)
    elapsed = time.perf_counter() - t0
    monotone = all(
        rels[i + 1] <= rels[i] + 2 * (ses[i] + ses[i + 1]) for i in range(2)
    )
    ok = head_ok and monotone and elapsed < 60.0
    report(
        6,
        ok,
        f"rel@0.05={rep.rel_error:.4f}; decades rel={['%.5f' % r for r in rels]} "
        f"(2se margins {['%.5f' % s for s in ses]}); {elapsed:.1f}s",
    )


def test_criterion_07_gamma_validation():
    w = mcsim.generate_waveform(100_000, 42)
    measured = measured_gamma_sq(w, mcsim.OVERSAMPLE)
    analytic = (2 * math.pi) ** 2 / 12
    rel = abs(measured - analytic) / analytic
    ok = rel <= 0.05
    report(7, ok, f"measured gamma^2 {measured:.4f} vs {analytic:.4f} (rel {rel:.4f})")


def test_criterion_08_pentagon_identities():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        s1, s2 = 10.0 ** rng.uniform(-3, 6, 2)
        region = bounds.ma_pentagon(float(s1), float(s2))
        for r1, r2 in (region.vertex_a, region.vertex_b):
            assert r1 <= region.r1_max * (1 + 1e-12) + 1e-300
            assert r2 <= region.r2_max * (1 + 1e-12) + 1e-300
            gap = abs(r1 + r2 - region.sum_max) / region.sum_max
            assert gap <= 1e-12
            worst = max(worst, gap)
    report(8, True, f"1000 draws; worst vertex sum-rate gap {worst:.1e}")


def test_criterion_09_rate_cross_form():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(1000):
        lb = random_lb(rng)
        a = entropy_form_est_rate(lb)
        b = bounds.est_outer_rate(lb)
        worst = max(worst, abs(a - b) / b)
    ok = worst <= 1e-10
    report(9, ok, f"1000 draws; worst cross-form gap {worst:.2e}")


def test_criterion_10_determinism(tmp_path):
    scenario = str(bundled_scenario_path())
    hot = tmp_path / "hot.json"
    raw = json.loads(bundled_scenario_path().read_text())
    raw["radar"]["power_w"] = raw["radar"]["power_w"] * 1000
    hot.write_text(json.dumps(raw))
    small = tmp_path / "small.json"
    raw = json.loads(bundled_scenario_path().read_text())
    raw["targets"][0]["process_range_std_m"] = 1.5
    small.write_text(json.dumps(raw))

    commands = [
        ["region", "--scenario", scenario, "--alpha-points", "60"],
        ["pentagon", "2.5", "7.5"],
        ["validate", "--scenario", scenario, "--experiment", "gamma",
         "--trials", "100", "--seed", "42"],
        ["validate", "--scenario", str(hot), "--experiment", "crb",
         "--trials", "150", "--seed", "42"],
        ["validate", "--scenario", str(small), "--experiment", "residual",
         "--trials", "150", "--seed", "42"],
        ["sweep", "--scenario", scenario, "--vary", "radar_power_w",
         "--values", "500,2000", "--alpha-points", "12"],
    ]
    mismatches = []
    for i, argv in enumerate(commands):
        out_a = tmp_path / f"a{i}"
        out_b = tmp_path / f"b{i}"
        assert cli.main(argv + ["--out", str(out_a)]) == 0
        assert cli.main(argv + ["--out", str(out_b)]) == 0
        for path_a in sorted(out_a.iterdir()):
            if path_a.suffix not in (".csv", ".json", ".svg"):
                continue
            path_b = out_b / path_a.name
            if path_a.read_bytes() != path_b.read_bytes():
                mismatches.append(f"{argv[0]}:{path_a.name}")
    ok = not mismatches
    report(10, ok, "all commands byte-identical across reruns"
           if ok else f"mismatches: {mismatches}")
