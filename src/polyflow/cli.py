"""Command-line interface: run scenarios, convergence studies, verification."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, DomainExit, SupportClearanceViolated
from .harness import (_write_convergence_csv, load_config, run,
                      scenario_convergence, verify)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("config", help="path to a JSON scenario config")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's seed")
    p.add_argument("--quiet", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyflow",
        description="Coupled evolution solvers via polygonal time stepping")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario, write trajectories")
    _add_common(p_run)

    p_conv = sub.add_parser("converge",
                            help="polygonal refinement rate table")
    _add_common(p_conv)
    p_conv.add_argument("--levels", type=int, default=6)

    p_ver = sub.add_parser("verify", help="run the estimate checks")
    _add_common(p_ver)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.seed)
        if args.command == "run":
            return run(cfg, args.out, quiet=args.quiet)
        if args.command == "converge":
            table = scenario_convergence(cfg, args.levels)
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            _write_convergence_csv(out / "convergence.csv", table)
            if not args.quiet:
                print(f"{'eps':>12} {'error':>14} {'order':>8}")
                for row in table.rows:
                    order = "exact" if table.exact else (
                        "" if row.order is None else f"{row.order:.3f}")
                    print(f"{row.eps:12.6g} {row.error:14.6g} {order:>8}")
                if not table.converged:
                    print("warning: no convergence observed")
            return 0
        if args.command == "verify":
            report = verify(cfg)
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            with open(out / "report.json", "w") as fh:
                fh.write(report.to_json())
            if not args.quiet:
                for c in sorted(report.checks, key=lambda c: c.name):
                    mark = "pass" if c.passed else "FAIL"
                    print(f"[{mark}] {c.name}: lhs={c.lhs:.3e} "
                          f"rhs={c.rhs:.3e}")
            return 0 if report.all_passed() else 1
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (DomainExit, SupportClearanceViolated) as exc:
        print(f"domain exit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
