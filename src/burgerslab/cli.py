"""Command-line front door.

Subcommands: sample, solve, dim, persist, chain, rkhs-verify, rerun, check.
Exit statuses: 0 success, 1 config error, 2 numerical failure (flagged
estimates), 3 failed acceptance/--check assertions.
"""

from __future__ import annotations

import argparse
import os
import sys

from .experiments import (
    ConfigError,
    EXPERIMENTS,
    FIELDS,
    RunConfig,
    config_from_dict,
    load_config_file,
    parse_options,
    path_errors,
    rerun_from_manifest,
    run_experiment,
)
from .grids import write_json


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--hurst", help="comma-separated Hurst indices")
    # values stay strings: config_from_dict types them and names a bad one
    parser.add_argument("--horizon", dest="horizons",
                        help="persist's comma-separated horizon ladder")
    parser.add_argument("--spacing",
                        help="grid spacing of persist, sample or solve")
    parser.add_argument("--replicas")
    parser.add_argument("--seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--config", help="key = value config file "
                                         "(flags win over file values)")
    parser.add_argument("--check", action="store_true", default=None,
                        help="verify the experiment's built-in targets; "
                             "exit 3 on failure")
    parser.add_argument("--opt", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="experiment-specific option (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="burgerslab",
        description="Burgers turbulence with fractional Brownian initial "
                    "velocity: samplers, minorant solver, dimension and "
                    "persistence experiments, kernel trend shifts.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        _add_common_flags(p)
    rerun = sub.add_parser("rerun", help="re-run an experiment from its "
                                         "manifest (bit-identical outputs)")
    rerun.add_argument("manifest")
    rerun.add_argument("--out", help="write outputs to a fresh directory")
    check = sub.add_parser("check", help="run the acceptance suite")
    check.add_argument("--only", help="comma-separated subset of check names")
    check.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a check scale/target (repeatable)")
    check.add_argument("--out", help="write a JSON report here")
    check.add_argument("--list", action="store_true",
                       help="list check names and exit")
    return parser


def _parse_kv(pairs, what: str) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"{what} expects KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        out[key.strip()] = value.strip()
    return out


def _config_from_args(args) -> RunConfig:
    doc = load_config_file(args.config) if args.config else {}
    # every flag given but these three is a field or an option
    doc.update({key: value for key, value in vars(args).items()
                if value is not None
                and key not in ("command", "config", "opt")})
    doc["experiment"] = args.command
    doc["options"] = _parse_kv(args.opt, "--opt")
    return config_from_dict(doc)


def _run_check(args) -> int:
    from .acceptance import CHECKS, run_checks
    if args.list:
        for name in CHECKS:
            print(name)
        return 0
    names = args.only.split(",") if args.only else None
    overrides = _parse_kv(args.set, "--set")
    if args.out is not None:
        # an unusable report path fails here, before any check runs; a file
        # this probe makes is removed again
        parse_options({"out": FIELDS["out"]}, {"out": args.out}, "field",
                      "check")
        made = not os.path.exists(args.out)
        with path_errors("out", args.out):
            open(args.out, "a").close()
        if made:
            os.remove(args.out)
    try:
        results = run_checks(names, overrides)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name} ({res.runtime_s:.1f}s)")
    if args.out is not None:
        report = {res.name: {"pass": res.passed, "runtime_s": res.runtime_s,
                             "details": res.details} for res in results}
        with path_errors("out", args.out):
            write_json(args.out, report)
    return 0 if all(res.passed for res in results) else 3


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return _run_check(args)
        if args.command == "rerun":
            status, _ = rerun_from_manifest(args.manifest, out=args.out)
        else:
            cfg = _config_from_args(args)
            status, summary = run_experiment(cfg)
            for chk in summary.get("checks", []):
                flag = "PASS" if chk["pass"] else "FAIL"
                print(f"{flag} {chk['name']}")
            print(f"wrote {cfg.out}/manifest.json (exit {status})")
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
