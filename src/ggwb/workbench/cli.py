"""The ggwb command line interface.

    ggwb list
    ggwb check <scenario.json | builtin-name> [--check NAME]...
               [--format text|json] [--seed N] [--samples N] [--tol F]

Exit codes: 0 when every check is Proved/NumericallySupported (or skipped),
1 when any check Failed, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from ..errors import GgwbError, ScenarioError
from ..symexpr import ZeroPolicy
from .checks import CHECKS, resolve_alias, run_checks
from .report import emit_report
from .scenario import CheckRequest, builtin_names, load_builtin, load_scenario, resolve_builtin


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggwb",
        description="generalized-geometry workbench: symbolic structure verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list built-in scenarios")
    check = sub.add_parser("check", help="run the checks of a scenario")
    check.add_argument("scenario", help="builtin name or path to a scenario JSON file")
    check.add_argument(
        "--check",
        action="append",
        default=None,
        metavar="NAME[@STRUCTURE]",
        help="run only these checks (repeatable); overrides the scenario's list",
    )
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.add_argument("--seed", type=int, default=None, help="zero-test RNG seed")
    check.add_argument("--samples", type=int, default=None, help="zero-test sample count")
    check.add_argument("--tol", type=float, default=None, help="numeric tolerance")
    return parser


def _seed_default() -> int:
    env = os.environ.get("GGWB_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ScenarioError(f"GGWB_SEED must be an integer, got {env!r}") from None


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            for name in builtin_names():
                scenario = load_builtin(name)
                print(f"{name}: {scenario.description}")
            return 0
        seed_default = _seed_default()
        if resolve_builtin(args.scenario) is not None:
            scenario = load_builtin(args.scenario, seed_default)
        elif Path(args.scenario).exists():
            scenario = load_scenario(Path(args.scenario), seed_default)
        else:
            raise ScenarioError(
                f"'{args.scenario}' is neither a builtin nor an existing file "
                f"(builtins: {', '.join(builtin_names())})"
            )
        policy = scenario.policy
        scenario.policy = ZeroPolicy(
            policy.samples if args.samples is None else args.samples,
            policy.seed if args.seed is None else args.seed,
            policy.tol if args.tol is None else args.tol,
            policy.max_resample,
        )
        if args.check:
            requests = []
            for spec in args.check:
                name, _, structure = spec.partition("@")
                canonical = resolve_alias(name)
                if canonical is None:
                    raise ScenarioError(
                        f"unknown check '{name}' (known: {', '.join(sorted(CHECKS))})"
                    )
                if structure:
                    scenario.structure(structure)
                requests.append(CheckRequest(canonical, structure or None))
            scenario.checks = requests
        report = run_checks(scenario)
        sys.stdout.write(emit_report(report, args.format))
        return report.exit_code()
    except GgwbError as exc:
        print(f"ggwb: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
