"""Command-line interface: validate, run, and sweep scenario files.

Exit codes: 0 success, 2 validation error, 3 numerical non-convergence
(a missed tail criterion or a closure residual above 1e-6 is fatal only
under --strict; a failed integral that leaves no outputs always is),
4 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import IntegrationError
from .scenario import check_scenario, parse_scenario, parse_sweep, run_scenario, \
    run_sweep

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

CLOSURE_RESIDUAL_MAX = 1e-6   # acceptance criterion 3: max |population - k p_entry|


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qarrival",
        description="Wave-packet detector-entry probabilities, two-state "
                    "detector registration, and arrival-time statistics.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario file")
    run.add_argument("scenario", help="path to the scenario file")
    run.add_argument("--out", default=None,
                     help="output directory (default: the scenario's "
                          "output.dir, else ./out)")
    run.add_argument("--strict", action="store_true",
                     help="exit 3 when any integral misses its tail criterion "
                          "or the closure residual exceeds 1e-6")

    sweep = sub.add_parser("sweep", help="run a one-parameter sweep file")
    sweep.add_argument("sweep", help="path to the sweep file")
    sweep.add_argument("--out", default="out", help="output directory (default: out)")
    sweep.add_argument("--jobs", type=_positive_int, default=1,
                       help="accepted and ignored: rows run one after another "
                            "in this process (default: 1)")
    sweep.add_argument("--strict", action="store_true",
                       help="exit 3 when any row misses a tail criterion "
                            "or its closure residual exceeds 1e-6")

    validate = sub.add_parser("validate", help="check a scenario file")
    validate.add_argument("scenario", help="path to the scenario file")
    return parser


def _strict_problem(summary: dict) -> str | None:
    """Why a run's summary fails --strict, or None."""
    if not summary["converged"]:
        return "tail criterion missed"
    residual = summary["consistency_residual_max"]
    if residual > CLOSURE_RESIDUAL_MAX:
        return f"closure residual {residual:.3e} exceeds {CLOSURE_RESIDUAL_MAX:g}"
    return None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            check_scenario(parse_scenario(args.scenario))
            print(f"{args.scenario}: valid")
            return EXIT_OK
        if args.command == "run":
            scenario = parse_scenario(args.scenario)
            out = args.out
            if out is None:
                out = scenario.output_dir or "out"
                if scenario.output_dir is not None and not os.path.isabs(out):
                    out = os.path.join(scenario.base_dir, out)
            summary = run_scenario(scenario, out)
            print(f"wrote {os.path.join(out, 'summary.json')} "
                  f"(p_entry_final = {summary['p_entry_final']:.6g})")
            problem = _strict_problem(summary) if args.strict else None
            if problem:
                print(f"{problem} (strict mode)", file=sys.stderr)
                return EXIT_NUMERICAL
            return EXIT_OK
        spec = parse_sweep(args.sweep)
        rows = run_sweep(spec, args.out, jobs=args.jobs)
        failed = [r for r in rows if r["status"] != "ok"]
        print(f"wrote {args.out}/sweep.csv ({len(rows)} rows, {len(failed)} failed)")
        if args.strict:
            for row in rows:
                problem = row["status"] == "ok" and _strict_problem(row)
                if problem:
                    print(f"{problem} in row {row['parameter']} = "
                          f"{row['value']:.17g} (strict mode)", file=sys.stderr)
                    return EXIT_NUMERICAL
        return EXIT_OK
    except ValueError as exc:          # ScenarioError is a ValueError
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except IntegrationError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
