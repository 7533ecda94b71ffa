"""Command-line entry points.

Subcommands: learn, compose, baseline-pi, check.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

import numpy as np

from .errors import ConfigError, NumericalError


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError as exc:
        raise ConfigError(f"cannot parse vector '{text}': {exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gppi",
        description="Model-based path integral control with GP dynamics")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_learn = sub.add_parser("learn", help="run the learning protocol")
    p_learn.add_argument("config", help="experiment config JSON")

    p_comp = sub.add_parser("compose", help="compose a controller for a new target")
    p_comp.add_argument("manifest", help="task library manifest JSON")
    p_comp.add_argument("--target", required=True,
                        help="comma-separated target state")
    p_comp.add_argument("--output-dir", default=None)
    p_comp.add_argument("--seed", type=int, default=0)

    p_base = sub.add_parser("baseline-pi",
                            help="sampling-based path integral baseline")
    p_base.add_argument("config", help="experiment config JSON")

    sub.add_parser("check", help="compare each analytic path against an "
                   "independent oracle; exit 3 if any comparison fails")

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")

    try:
        if args.command == "learn":
            from .harness import load_config, run_learn
            config = load_config(args.config)
            result = run_learn(config)
            last = result["metrics"][-1]
            print(f"learned: {len(result['metrics'])} trials, "
                  f"terminal log-desirability {last.terminal_log_psi:.4f}, "
                  f"artifacts in {result['out_dir']}")
        elif args.command == "compose":
            from .harness import run_compose
            target = _parse_vector(args.target)
            result = run_compose(args.manifest, target,
                                 output_dir=args.output_dir, seed=args.seed)
            print(f"composite terminal log-desirability "
                  f"{result['terminal_log_psi']:.4f}")
            if result["out_dir"] is not None:
                print(f"artifacts in {result['out_dir']}")
        elif args.command == "baseline-pi":
            from .harness import load_config, run_baseline
            config = load_config(args.config)
            result = run_baseline(config)
            print(f"baseline done (ess {result['ess']:.1f}, "
                  f"status {result['status']}), artifacts in {result['out_dir']}")
        elif args.command == "check":
            from .checks import run_checks
            ok = run_checks()
            return 0 if ok else 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
