"""Command line entry points: the `hxtwin` console script.

The subcommands are thin: scenarios load through ``hxtwin.scenario``,
runs go through ``hxtwin.harness``, CSV files through ``hxtwin.records``
and the ``compare`` report through ``hxtwin.metrics``.

Subcommands:

* simulate          run plant truth from a scenario config, write telemetry
* monitor           replay telemetry through the joint EKF, write estimates
* compare           tabulate monitored vs true thermal rating
* bench             time reference vs approximate model evaluations
* verify-uniqueness check root uniqueness and steady identities for a scenario
"""

from __future__ import annotations

import argparse
import sys

from . import reference_model
from .harness import bench_models, run_monitor, run_truth_sim
from .metrics import compare_report
from .records import (
    read_monitor_csv,
    read_telemetry_csv,
    write_monitor_csv,
    write_telemetry_csv,
)
from .scenario import initial_point, load_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hxtwin",
        description="counterflow heat exchanger digital twin toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate plant truth, write telemetry CSV")
    p.add_argument("config", help="scenario configuration file")
    p.add_argument("-o", "--output", required=True, help="telemetry CSV to write")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario's noise seed")

    p = sub.add_parser("monitor", help="run the online monitor over telemetry")
    p.add_argument("telemetry", help="telemetry CSV from `simulate`")
    p.add_argument("config", help="scenario configuration file")
    p.add_argument("-o", "--output", required=True, help="monitor CSV to write")
    p.add_argument("--variant", choices=("A", "B", "C"), default=None,
                   help="override the configured filter variant")

    p = sub.add_parser("compare", help="compare monitored rating against truth")
    p.add_argument("truth", help="telemetry CSV")
    p.add_argument("monitor_csv", help="monitor CSV")
    p.add_argument("-o", "--output", required=True, help="report file to write")
    p.add_argument("--config", default=None,
                   help="scenario config enabling the model-free rating column")
    p.add_argument("--window-s", type=float, default=300.0)
    p.add_argument("--settle-s", type=float, default=300.0)

    p = sub.add_parser("bench", help="time reference vs approximate evaluations")
    p.add_argument("config", help="scenario configuration file")
    p.add_argument("-n", "--n-evals", type=int, default=10000)

    p = sub.add_parser("verify-uniqueness",
                       help="check solution uniqueness for a scenario's operating point")
    p.add_argument("config", help="scenario configuration file")
    p.add_argument("--grid-n", type=int, default=200)
    return parser


def _cmd_simulate(args) -> int:
    scn = load_scenario(args.config)
    records = run_truth_sim(scn, seed=args.seed)
    write_telemetry_csv(records, args.output)
    print(f"wrote {len(records)} telemetry records to {args.output}")
    return 0


def _cmd_monitor(args) -> int:
    scn = load_scenario(args.config)
    telemetry = read_telemetry_csv(args.telemetry)
    records = run_monitor(scn, telemetry, variant=args.variant)
    write_monitor_csv(records, args.output)
    variant = args.variant or scn.monitoring.ekf.variant
    print(f"wrote {len(records)} monitor records (variant {variant}) to {args.output}")
    return 0


def _cmd_compare(args) -> int:
    telemetry = read_telemetry_csv(args.truth)
    monitor = read_monitor_csv(args.monitor_csv)
    hot = load_scenario(args.config).hot if args.config else None
    report = compare_report(
        telemetry, monitor, hot=hot,
        window_s=args.window_s, settle_s=args.settle_s,
    )
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(report)
    print(f"wrote comparison report to {args.output}")
    return 0


def _cmd_bench(args) -> int:
    scn = load_scenario(args.config)
    result = bench_models(scn, args.n_evals)
    sys.stdout.write(result.as_table())
    return 0


def _cmd_verify(args) -> int:
    scn = load_scenario(args.config)
    u0, cond = initial_point(scn)
    report = reference_model.verify_uniqueness(u0, cond, scn.hot, scn.cold,
                                               grid_n=args.grid_n)
    print(f"scenario:            {scn.name}")
    print(f"grid points:         {args.grid_n}")
    print(f"sign changes:        {report.sign_changes}")
    print(f"monotone residuals:  hot={report.monotone_hot} cold={report.monotone_cold}")
    print(f"steady identities:   |rs3|={abs(report.rs3_residual):.3e} W "
          f"|rs4|={abs(report.rs4_residual):.3e} W")
    print(f"degenerate:          {report.degenerate}")
    print(f"passed:              {report.passed}")
    return 0 if report.passed else 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "monitor": _cmd_monitor,
        "compare": _cmd_compare,
        "bench": _cmd_bench,
        "verify-uniqueness": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        # ConfigError, WindowOutOfRange and the CSV readers' errors are
        # ValueErrors; a missing or unreadable file is an OSError
        print(f"hxtwin {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
