"""Command line front end: run experiments and sweep ladders.

Exit codes: 0 all assertions passed, 1 assertion failure, 2 configuration
error. Configs are JSON objects whose keys mirror ExperimentConfig; an
"experiment" key must name the experiment being run. Command line flags
override file values. Every SemiphaseWarning raised during a run is
printed from its manifest.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigurationError
from .experiments import (ExperimentConfig, defaults_for, resolve_experiment,
                          run_experiment)

EXIT_PASS = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2


def _load_config(experiment: str, args) -> ExperimentConfig:
    overrides: dict = {}
    if args.config:
        raw = json.loads(Path(args.config).read_text())
        if not isinstance(raw, dict):
            raise ConfigurationError(f"config {args.config} is not a JSON object")
        named = raw.pop("experiment", experiment)
        if resolve_experiment(str(named)) != experiment:
            raise ConfigurationError(
                f"config {args.config} is for {named}, not {experiment}")
        if unknown := sorted(set(raw) - set(ExperimentConfig.__dataclass_fields__)):
            raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
        overrides.update(raw)
    if args.eps:
        overrides["eps_ladder"] = tuple(args.eps)
    if args.out:
        overrides["out_dir"] = args.out
    return defaults_for(experiment, **overrides)


def _print_summary(manifest) -> None:
    status = "PASS" if manifest.passed else "FAIL"
    print(f"[{status}] {manifest.experiment}  "
          f"wall={manifest.wall_clock:.1f}s  hash={manifest.config_hash}")
    for w in manifest.warnings:
        print(f"  warning: {w}")
    for name in manifest.outputs:
        print(f"  wrote {name}")


def _cmd_run(args) -> int:
    cfg = _load_config(resolve_experiment(args.experiment), args)
    manifest = run_experiment(cfg)
    _print_summary(manifest)
    return EXIT_PASS if manifest.passed else EXIT_ASSERTION


def _cmd_sweep(args) -> int:
    """One run per ladder point, each with its own artifacts.

    Per-point runs make no cross-eps assertions (a single-point ladder
    has no trend), so the sweep exit code reflects configuration and
    per-point health only; trend verdicts belong to `run`.
    """
    base = _load_config(resolve_experiment(args.experiment), args)
    worst = EXIT_PASS
    for eps in base.eps_ladder:
        cfg = replace(base, eps_ladder=(eps,))
        if base.out_dir:
            cfg = replace(cfg, out_dir=str(Path(base.out_dir) / f"eps_{eps:g}"))
        manifest = run_experiment(cfg)
        _print_summary(manifest)
        if not manifest.passed:
            worst = EXIT_ASSERTION
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiphase",
        description="Phase-space experiments for semiclassical dynamics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text in (("run", _cmd_run, "run one named experiment"),
                             ("sweep", _cmd_sweep, "run a ladder as independent per-eps runs")):
        p = sub.add_parser(name, help=text)
        p.add_argument("experiment")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--eps", type=float, nargs="+",
                       help="override the eps ladder (decreasing values)")
        p.add_argument("--out", help="output directory for CSV/manifest")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
