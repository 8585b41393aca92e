"""Command-line front end.

Subcommands: region, pentagon, validate, sweep. Exit codes: 0 success,
1 a validation tolerance check failed, 2 usage or input error, 3 output
write failure. Randomized commands default to seed 0 and say so, so every
published artifact is reproducible from its manifest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from . import __version__, bounds, mcsim, waterfill
from .emit import (
    atomic_write_text,
    csv_text,
    fmt_float,
    render_curves_svg,
    write_manifest,
)
from .mcsim import ExperimentPreconditionError, WaveformSpec
from .scenario import (
    Scenario,
    check_range,
    db_to_linear,
    derive_link_budget,
    load_scenario,
    replace_scenario_field,
)

#: Valid closed range of the ``pentagon`` SNR arguments, in dB: wide
#: enough for any link, and narrow enough that 1 + snr1 + snr2 stays finite.
SNR_DB_RANGE = (-300.0, 300.0)

REGION_CSV_HEADER = (
    "curve_label",
    "alpha_or_nan",
    "r_est_bps",
    "r_com_bps",
    "self_consistent",
)


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

    p_region = sub.add_parser("region", help="compute the rate-region curves")
    p_region.add_argument("--scenario", required=True, help="scenario JSON path")
    p_region.add_argument(
        "--alpha-points",
        type=int,
        default=400,
        help="number of bandwidth-split grid points (default 400)",
    )
    p_region.add_argument("--out", **out_kwargs)

    p_pent = sub.add_parser(
        "pentagon", help="two-user multiple-access pentagon from SNRs in dB"
    )
    snr_help = "SNR in dB, within [{:g}, {:g}]".format(*SNR_DB_RANGE)
    p_pent.add_argument("snr1_db", type=float, help=snr_help)
    p_pent.add_argument("snr2_db", type=float, help=snr_help)
    p_pent.add_argument("--out", **out_kwargs)

    p_val = sub.add_parser("validate", help="run a seeded Monte Carlo validation")
    p_val.add_argument("--scenario", required=True, help="scenario JSON path")
    p_val.add_argument(
        "--experiment", required=True, choices=("crb", "residual", "gamma")
    )
    p_val.add_argument("--trials", type=int, default=10000)
    p_val.add_argument("--seed", type=int, default=None)
    p_val.add_argument("--out", **out_kwargs)

    p_sweep = sub.add_parser("sweep", help="sweep one scenario field over values")
    p_sweep.add_argument("--scenario", required=True, help="scenario JSON path")
    p_sweep.add_argument("--vary", required=True, help="scenario field to vary")
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated list of numbers"
    )
    p_sweep.add_argument("--alpha-points", type=int, default=400)
    p_sweep.add_argument("--out", **out_kwargs)

    return parser


@dataclass(frozen=True)
class Outcome:
    """What a command computed: output name -> text in write order, the
    manifest fields (``counters`` for the region grids), and for
    ``validate`` a line to print once all is written and whether the check
    passed."""

    files: dict[str, str]
    parameters: dict
    seed: int | None = None
    counters: dict | list | None = None
    summary: str | None = None
    passed: bool = True


def _region(scenario: Scenario, alpha_points: int) -> bounds.RateRegion:
    lb = derive_link_budget(scenario)
    return bounds.rate_region(lb, waterfill.default_alpha_grid(alpha_points))


def _region_rows(region: bounds.RateRegion) -> Iterator[list[str]]:
    """CSV rows per curve point; waterfill rows keep every grid point,
    flagged by self-consistency."""
    for curve in region.curves:
        if curve is region.waterfill:
            # repr of the Python floats from tolist() is fmt_float's format
            g = region.grid
            for alpha, r_est, r_com, ok in zip(
                map(repr, g.alpha.tolist()),
                map(repr, g.r_est.tolist()),
                map(repr, g.r_com_total.tolist()),
                g.self_consistent.tolist(),
            ):
                yield ["waterfill", alpha, r_est, r_com, "true" if ok else "false"]
        else:
            for r_est, r_com in curve.points:
                yield [curve.label, "nan", fmt_float(r_est), fmt_float(r_com), "true"]


def _region_files(prefix: str, region: bounds.RateRegion) -> dict[str, str]:
    svg = render_curves_svg(
        [(c.label, c.points) for c in region.curves],
        x_label="estimation rate (bits/s)",
        y_label="communications rate (bits/s)",
    )
    return {
        f"{prefix}.csv": csv_text(REGION_CSV_HEADER, _region_rows(region)),
        f"{prefix}.svg": svg,
    }


def cmd_region(args: argparse.Namespace) -> Outcome:
    region = _region(load_scenario(args.scenario), args.alpha_points)
    return Outcome(
        files=_region_files("region", region),
        parameters={"alpha_points": args.alpha_points},
        counters=region.grid.counters(),
    )


def cmd_pentagon(args: argparse.Namespace) -> Outcome:
    for name in ("snr1_db", "snr2_db"):
        check_range(name, getattr(args, name), *SNR_DB_RANGE)
    region = bounds.ma_pentagon(db_to_linear(args.snr1_db), db_to_linear(args.snr2_db))

    va, vb = region.vertex_a, region.vertex_b
    boundary = [
        (0.0, 0.0),
        (0.0, region.r2_max),
        va,
        vb,
        (region.r1_max, 0.0),
        (0.0, 0.0),
    ]
    lines = [
        ("r1_max", [(region.r1_max, 0.0), (region.r1_max, region.r2_max)]),
        ("r2_max", [(0.0, region.r2_max), (region.r1_max, region.r2_max)]),
        ("sum_max", [(0.0, region.sum_max), (region.sum_max, 0.0)]),
    ]
    rows = [["vertex_a", fmt_float(va[0]), fmt_float(va[1])],
            ["vertex_b", fmt_float(vb[0]), fmt_float(vb[1])]]
    for x, y in boundary:
        rows.append(["boundary", fmt_float(x), fmt_float(y)])
    for label, pts in lines:
        for x, y in pts:
            rows.append([label, fmt_float(x), fmt_float(y)])

    svg = render_curves_svg(
        [("boundary", boundary)] + lines,
        x_label="user 1 rate (bits/use)",
        y_label="user 2 rate (bits/use)",
    )
    return Outcome(
        files={
            "pentagon.csv": csv_text(("label", "r1_bits", "r2_bits"), rows),
            "pentagon.svg": svg,
        },
        parameters={"snr1_db": args.snr1_db, "snr2_db": args.snr2_db},
    )


def cmd_validate(args: argparse.Namespace) -> Outcome:
    seed = args.seed
    if seed is None:
        seed = 0
        print("no --seed given; using seed 0")
    scenario = load_scenario(args.scenario)
    lb = derive_link_budget(scenario)
    spec = WaveformSpec()
    if args.experiment == "crb":
        report = mcsim.crb_experiment(lb, spec, args.trials, seed)
    elif args.experiment == "residual":
        report = mcsim.residual_experiment(lb, spec, args.trials, seed)
    else:
        report = mcsim.gamma_experiment(spec, args.trials, seed)

    status = "pass" if report.passed else "FAIL"
    report_json = json.dumps(report.to_json_dict(), indent=2) + "\n"
    return Outcome(
        files={f"validate_{args.experiment}.json": report_json},
        parameters={"experiment": args.experiment, "trials": args.trials},
        seed=seed,
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
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"--values: {exc}") from None
    if not values:
        raise ValueError("--values must contain at least one number")
    variants = [replace_scenario_field(scenario, args.vary, v) for v in values]

    files: dict[str, str] = {}
    summary_rows, counters = [], []
    for i, (value, variant) in enumerate(zip(values, variants)):
        region = _region(variant, args.alpha_points)
        files.update(_region_files(f"sweep_{i:03d}_region", region))
        counters.append(region.grid.counters())
        # outer's corner is (est_outer_rate, comms_outer_rate); sic is flat
        corner, sic = region.outer.points[1], region.sic.points[0]
        row = (value, corner.r_est, corner.r_com, sic.r_com)
        summary_rows.append([fmt_float(x) for x in row])
    files["sweep_summary.csv"] = csv_text(
        ("value", "est_outer_rate_bps", "comms_outer_rate_bps", "sic_comms_rate_bps"),
        summary_rows,
    )
    return Outcome(
        files=files,
        parameters={
            "vary": args.vary,
            "values": values,
            "alpha_points": args.alpha_points,
        },
        counters=counters,
    )


COMMANDS = {
    "region": cmd_region,
    "pentagon": cmd_pentagon,
    "validate": cmd_validate,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command: map its errors to exit codes, write its files, and
    write the manifest last."""
    args = build_parser().parse_args(argv)
    try:
        for flag, least in (("alpha_points", 1), ("trials", 1), ("seed", 0)):
            value = getattr(args, flag, None)
            if value is not None and value < least:
                raise ValueError(f"--{flag.replace('_', '-')} must be at least {least}")
        outcome = COMMANDS[args.command](args)
    except ExperimentPreconditionError as exc:
        print(f"precondition not met: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # includes ScenarioError
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        out = Path(
            args.out if args.out is not None else os.environ.get("MUDR_OUT", ".")
        )
        out.mkdir(parents=True, exist_ok=True)
        for name, text in outcome.files.items():
            atomic_write_text(out / name, text)
        write_manifest(
            out / "manifest.json",
            command=args.command,
            scenario_path=getattr(args, "scenario", None),
            parameters=outcome.parameters,
            outputs=[*outcome.files, "manifest.json"],
            tool_version=__version__,
            seed=outcome.seed,
            counters=outcome.counters,
        )
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
