"""Command-line front end.

Subcommands: region, pentagon, validate, sweep. Exit codes: 0 success,
1 a validation tolerance check failed, 2 usage or input error, 3 output
write failure, 4 a worker process failed or could not be started.
Randomized commands default to seed 0 and say so, so every published
artifact is reproducible from its manifest.

Each subparser sets its ``cmd_*`` function as ``args.run``; ``main`` first
checks the command's numeric arguments against ``ARG_RANGES`` (NaN
included). A refused experiment (``mcsim.ExperimentPreconditionError``, a
multi-target one too) exits 2 with "precondition not met:".

The Monte Carlo kernels split their trials over forked worker processes
(``mcsim._split_trials``); no flag or environment variable sets the count, and
the report bytes do not depend on it. ``region`` and ``sweep`` get their
region files from ``emit.region_files``; ``sweep`` computes every region
before it prints any.

A command's files are printed as they are written: it returns them as
(name, data) pairs that are made in write order, where data is bytes or
an iterable of byte blocks, and ``main`` writes each pair before it takes
the next, then writes the manifest last.

``main`` builds the manifest dict in its key order, ``counters`` only
when the command has them; it and the ``validate`` report
(``McReport.to_json_dict``) are printed by ``emit.json_bytes``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np

from . import __version__, bounds, mcsim, waterfill
from .emit import (
    atomic_write_text,
    csv_text,
    fmt_float,
    json_bytes,
    region_files,
    render_svgs,
    write_manifest,
)
from .mcsim import ExperimentPreconditionError, WorkerError
from .scenario import (
    check_range,
    db_to_linear,
    derive_link_budget,
    load_scenario,
    replace_scenario_field,
)

#: Valid closed range of the ``pentagon`` SNR arguments, in dB: wide
#: enough for any link, and narrow enough that snr1 + snr2 stays finite.
SNR_DB_RANGE = (-300.0, 300.0)

#: Largest ``--alpha-points`` and ``--trials``: a 10^6-point region already
#: writes a 116 MB CSV, and far larger requests would run out of memory in
#: numpy instead of failing here with the flag named.
MAX_ALPHA_POINTS = 10**6
MAX_TRIALS = 10**7

#: The numeric arguments ``main`` checks before it runs a command: each
#: ``args`` attribute with its displayed name and valid closed range. A
#: command skips those it does not take, and ``--seed`` when it is not given.
ARG_RANGES = {
    "alpha_points": ("--alpha-points", 1, MAX_ALPHA_POINTS),
    "trials": ("--trials", 1, MAX_TRIALS),
    "seed": ("--seed", 0, math.inf),
    "snr1_db": ("snr1_db", *SNR_DB_RANGE),
    "snr2_db": ("snr2_db", *SNR_DB_RANGE),
}

#: Largest ``len(--values) * --alpha-points`` of a sweep, which holds
#: every region's ``RateRegion`` (some 33 bytes a grid point) before it
#: prints any: 4 regions of 10^6 points peak near 310 MB.
MAX_SWEEP_POINTS = 4 * 10**6


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mudr",
        description="Joint radar-communications rate bounds and validations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    out_kwargs = dict(
        default=None,
        help="output directory (default: $MUDR_OUT or current directory)",
    )
    alpha_points_kwargs = dict(
        type=int,
        default=400,
        help="number of bandwidth-split grid points "
        f"(default 400, at most {MAX_ALPHA_POINTS})",
    )

    p_region = sub.add_parser("region", help="compute the rate-region curves")
    p_region.add_argument("--scenario", required=True, help="scenario JSON path")
    p_region.add_argument("--alpha-points", **alpha_points_kwargs)
    p_region.add_argument("--out", **out_kwargs)
    p_region.set_defaults(run=cmd_region)

    p_pent = sub.add_parser(
        "pentagon", help="two-user multiple-access pentagon from SNRs in dB"
    )
    snr_help = "SNR in dB, within [{:g}, {:g}]".format(*SNR_DB_RANGE)
    p_pent.add_argument("snr1_db", type=float, help=snr_help)
    p_pent.add_argument("snr2_db", type=float, help=snr_help)
    p_pent.add_argument("--out", **out_kwargs)
    p_pent.set_defaults(run=cmd_pentagon)

    p_val = sub.add_parser("validate", help="run a seeded Monte Carlo validation")
    p_val.add_argument("--scenario", required=True, help="scenario JSON path")
    p_val.add_argument(
        "--experiment", required=True, choices=("crb", "residual", "gamma")
    )
    p_val.add_argument(
        "--trials",
        type=int,
        default=10000,
        help=f"Monte Carlo trials (default 10000, at most {MAX_TRIALS})",
    )
    p_val.add_argument("--seed", type=int, default=None)
    p_val.add_argument("--out", **out_kwargs)
    p_val.set_defaults(run=cmd_validate)

    p_sweep = sub.add_parser("sweep", help="sweep one scenario field over values")
    p_sweep.add_argument("--scenario", required=True, help="scenario JSON path")
    p_sweep.add_argument("--vary", required=True, help="scenario field to vary")
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated list of numbers"
    )
    p_sweep.add_argument("--alpha-points", **alpha_points_kwargs)
    p_sweep.add_argument("--out", **out_kwargs)
    p_sweep.set_defaults(run=cmd_sweep)

    return parser


@dataclass(frozen=True)
class Outcome:
    """What a command computed: its files as (name, data) pairs, data being
    bytes or an iterable of byte blocks, made in write order as they are
    taken (``main`` writes each pair before it takes the next, and the
    manifest last); the manifest fields (``counters`` for the region grids
    and the Monte Carlo worker processes); and for ``validate`` a line to
    print once all is written and whether the check passed."""

    files: Iterable[tuple[str, bytes | Iterable[bytes]]]
    parameters: dict
    seed: int | None = None
    counters: dict | list | None = None
    summary: str | None = None
    passed: bool = True


def cmd_region(args: argparse.Namespace) -> Outcome:
    alpha_grid = waterfill.default_alpha_grid(args.alpha_points)
    region = bounds.rate_region(derive_link_budget(load_scenario(args.scenario)), alpha_grid)
    return Outcome(
        files=region_files(alpha_grid, [("region", region)]),
        parameters={"alpha_points": args.alpha_points},
        counters=region.counters,
    )


def cmd_pentagon(args: argparse.Namespace) -> Outcome:
    region = bounds.ma_pentagon(db_to_linear(args.snr1_db), db_to_linear(args.snr2_db))

    (a1, a2), (b1, b2) = region.vertex_a, region.vertex_b
    r1, r2, s = region.r1_max, region.r2_max, region.sum_max
    # the 8 points: a, b, the origin, (0, r2), (r1, 0), (r1, r2), (0, s) and
    # (s, 0); then (label, rows): the vertex rows, then the drawn curves
    r1_bits = np.array([a1, b1, 0.0, 0.0, r1, r1, 0.0, s])
    r2_bits = np.array([a2, b2, 0.0, r2, 0.0, r2, s, 0.0])
    curves = [
        ("vertex_a", [0]),
        ("vertex_b", [1]),
        ("boundary", [2, 3, 0, 1, 4, 2]),
        ("r1_max", [4, 5]),
        ("r2_max", [3, 5]),
        ("sum_max", [6, 7]),
    ]
    csv = csv_text(
        ("label", "r1_bits", "r2_bits"),
        ([label, fmt_float(r1_bits[i]), fmt_float(r2_bits[i])]
         for label, index in curves for i in index),
    ).encode()
    [svg] = render_svgs(
        [(curves[2:], "user 1 rate (bits/use)", "user 2 rate (bits/use)", (r1_bits, r2_bits))]
    )
    return Outcome(
        files=[("pentagon.csv", csv), ("pentagon.svg", svg)],
        parameters={"snr1_db": args.snr1_db, "snr2_db": args.snr2_db},
    )


def cmd_validate(args: argparse.Namespace) -> Outcome:
    seed = args.seed
    if seed is None:
        seed = 0
        print("no --seed given; using seed 0")
    scenario = load_scenario(args.scenario)
    lb = derive_link_budget(scenario)
    if args.experiment == "crb":
        report = mcsim.crb_experiment(lb, args.trials, seed)
    elif args.experiment == "residual":
        report = mcsim.residual_experiment(lb, args.trials, seed)
    else:
        report = mcsim.gamma_experiment(args.trials, seed)

    status = "pass" if report.passed else "FAIL"
    return Outcome(
        files=[(f"validate_{args.experiment}.json", json_bytes(report.to_json_dict()))],
        parameters={"experiment": args.experiment, "trials": args.trials},
        seed=seed,
        counters={"workers": mcsim.trial_workers(args.trials)},
        summary=(
            f"{args.experiment}: empirical={report.empirical!r} "
            f"analytic={report.analytic!r} rel_error={report.rel_error:.4g} "
            f"tolerance={report.tolerance} -> {status}"
        ),
        passed=report.passed,
    )


def cmd_sweep(args: argparse.Namespace) -> Outcome:
    scenario = load_scenario(args.scenario)
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError as exc:
        raise ValueError(f"--values: {exc}") from None
    points = len(values) * args.alpha_points
    if points > MAX_SWEEP_POINTS:
        raise ValueError(f"--values: {len(values)} values times {args.alpha_points} "
                         f"alpha points is {points}, more than {MAX_SWEEP_POINTS}")
    variants = [replace_scenario_field(scenario, args.vary, v) for v in values]
    alpha_grid = waterfill.default_alpha_grid(args.alpha_points)

    # every region is computed before any is printed
    regions, summary_rows = [], []
    for i, (value, variant) in enumerate(zip(values, variants)):
        try:
            region = bounds.rate_region(derive_link_budget(variant), alpha_grid)
        except ValueError as exc:
            raise ValueError(f"sweep field '{args.vary}' = {value!r}: {exc}") from None
        regions.append((f"sweep_{i:03d}_region", region))
        # outer's corner is (est_outer_rate, comms_outer_rate); sic is flat
        corner, sic = region.index["outer"][1], region.index["sic"][0]
        row = (value, region.r_est[corner], region.r_com[corner], region.r_com[sic])
        summary_rows.append([fmt_float(x) for x in row])
    summary = csv_text(
        ("value", "est_outer_rate_bps", "comms_outer_rate_bps", "sic_comms_rate_bps"),
        summary_rows,
    ).encode()
    return Outcome(
        files=chain(region_files(alpha_grid, regions), [("sweep_summary.csv", summary)]),
        parameters={
            "vary": args.vary,
            "values": values,
            "alpha_points": args.alpha_points,
        },
        counters=[region.counters for _, region in regions],
    )


def main(argv: list[str] | None = None) -> int:
    """Run one command: check its numbers against :data:`ARG_RANGES`, run
    the ``cmd_*`` function its subparser set as ``run``, map its errors to
    exit codes, write its files as they are made, and write the manifest,
    built here, last."""
    args = build_parser().parse_args(argv)
    try:
        for attr, (name, least, most) in ARG_RANGES.items():
            if getattr(args, attr, None) is not None:
                check_range(name, getattr(args, attr), least, most)
        outcome = args.run(args)
    except ExperimentPreconditionError as exc:
        print(f"precondition not met: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # includes ScenarioError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4

    try:
        out = Path(
            args.out if args.out is not None else os.environ.get("MUDR_OUT", ".")
        )
        out.mkdir(parents=True, exist_ok=True)
        written = []
        for name, data in outcome.files:  # each file is made as it is taken
            atomic_write_text(out / name, data)
            written.append(name)
        manifest = {
            "command": args.command,
            "scenario_path": getattr(args, "scenario", None),
            "parameters": outcome.parameters,
            "outputs": [*written, "manifest.json"],
            "tool_version": __version__,
            "seed": outcome.seed,
        }
        if outcome.counters is not None:
            manifest["counters"] = outcome.counters
        write_manifest(out / "manifest.json", manifest)
    except OSError as exc:
        print(f"write error: {exc}", file=sys.stderr)
        return 3
    if outcome.summary is not None:
        print(outcome.summary)
    return 0 if outcome.passed else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
