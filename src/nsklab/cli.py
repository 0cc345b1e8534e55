"""Command-line driver.

Subcommands mirror the scenario kinds plus a sweep runner:

    nsklab verify-symbols --config cfg.json [--out DIR] [--seed N] [--threads K]
    nsklab linear-decay   --config cfg.json [--out DIR] [--seed N] [--threads K]
    nsklab ablation       --config cfg.json [--out DIR] [--seed N] [--threads K]
    nsklab nonlinear-run  --config cfg.json [--out DIR] [--seed N] [--threads K]
    nsklab sweep          --config sweep.json [--out DIR] [--threads K]

Output directory resolution: --out flag, then the NSKLAB_OUT environment
variable, then the config's out_dir, then ./out.  Exit codes: 0 all verdicts
pass, 2 verdict failures, 1 execution error.  A scenario that raises leaves
a report.json with the error and its traceback.  A sweep runs every scenario
even if some raise, and exits 1 if any raised, else 2 if any verdict failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .runner import run_scenario, run_sweep
from .scenario import parse_config, parse_sweep_config
from .spectral import set_fft_workers

_SUBCOMMAND_KIND = {
    "verify-symbols": "symbol-verify",
    "linear-decay": "linear-decay",
    "ablation": "ablation",
    "nonlinear-run": "nonlinear-run",
}

ENV_OUT = "NSKLAB_OUT"


def _resolve_out(args, cfg_out_dir) -> Path:
    if args.out:
        return Path(args.out)
    env = os.environ.get(ENV_OUT)
    if env:
        return Path(env)
    if cfg_out_dir:
        return Path(cfg_out_dir)
    return Path("out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nsklab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*_SUBCOMMAND_KIND, "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the scenario config (JSON)")
        p.add_argument("--out", default=None, help="output directory (overrides env and config)")
        if name != "sweep":
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=1, help="worker count (sweep fan-out / FFT workers)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "sweep":
            sweep = parse_sweep_config(text)
            out_root = _resolve_out(args, None)
            outcomes = run_sweep(sweep, out_root, threads=max(1, args.threads))
            for (name, _), outcome in zip(sweep.scenarios, outcomes):
                print(f"[{outcome.status.upper()}] {name} -> {outcome.out_dir}")
                if outcome.status == "error":
                    print(f"error: {name}: {outcome.report['error']}", file=sys.stderr)
            statuses = {o.status for o in outcomes}
            return 1 if "error" in statuses else 2 if "fail" in statuses else 0

        cfg = parse_config(text)
        expected = _SUBCOMMAND_KIND[args.command]
        if cfg.kind != expected:
            print(f"error: config kind '{cfg.kind}' does not match subcommand '{args.command}'", file=sys.stderr)
            return 1
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.threads and args.threads > 1:
            set_fft_workers(args.threads)
        out_dir = _resolve_out(args, cfg.out_dir)
        outcome = run_scenario(cfg, out_dir)
        print(f"[{'PASS' if outcome.all_pass else 'FAIL'}] {cfg.kind} -> {outcome.out_dir}")
        return 0 if outcome.all_pass else 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
