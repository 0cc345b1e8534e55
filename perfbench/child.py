"""One repetition of a workload in a fresh interpreter.

Imports nsklab (the checkout's ``src`` copy), parses and validates the
config, prints ``ready`` (the parent times set-up up to this line), runs
``nsklab.runner.run_scenario`` once into ``--out`` and writes a JSON result.
With ``--trace`` the layer wrappers of tracer.py are installed around the run
and the spans are written to ``--spans``.

Usage: python3 perfbench/child.py --config C --out DIR --result R.json [--trace --spans S.json] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def _read_series(out_dir: Path) -> list:
    out = []
    for path in sorted((out_dir / "series").glob("*.csv")):
        rows = [line.split(",") for line in path.read_text().splitlines()[1:] if line]
        out.append(([float(t) for t, _ in rows], [float(v) for _, v in rows]))
    return out


def _useful_series(measured: list, written: list) -> int:
    """Written series CSVs that hold exactly the times and values of a measured series.

    Each CSV accounts for one measurement at most, so a series measured twice
    and written once counts once.
    """
    unclaimed = [(times.tolist(), values.tolist()) for times, values in measured]
    useful = 0
    for series in written:
        if series in unclaimed:
            unclaimed.remove(series)
            useful += 1
    return useful


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out")
    ap.add_argument("--result")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install_fft()

    import nsklab
    from nsklab.scenario import parse_config

    cfg = parse_config(Path(args.config).read_text())
    if not Path(nsklab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"nsklab was imported from {nsklab.__file__}, not from the checkout's src/", file=sys.stderr)
        return 3
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if tracer is not None:
        tracer.install_layers()
    import nsklab.runner

    out_dir = Path(args.out)
    error = None
    report = None
    t0 = perf_counter()
    try:
        outcome = nsklab.runner.run_scenario(cfg, out_dir)
        report = outcome.report
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    run_s = perf_counter() - t0

    import numpy
    import scipy

    result = {
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error": error,
        "verdict": bool(report and report.get("pass")),
        "report": report,
        "step_rejected": sum(1 for ev in (report or {}).get("events", []) if ev.get("kind") == "step_rejected"),
        "env": {
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "fft_workers": getattr(sys.modules.get("nsklab.spectral"), "_FFT_WORKERS", None),
            "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }
    if tracer is not None:
        agg = tracer.aggregate()
        measured = tracer.measured_series
        result["trace"] = {
            "layers": agg["layers"],
            "fft": agg["fft"],
            "missing": tracer.missing,
            "run_minus_step_s": agg["layers"]["nonlinear.run"]["s"]
            - tracer.step_s_under("nonlinear.run", "nonlinear.Etd2Stepper.step"),
            "series_measured": len(measured),
            "series_useful": _useful_series(measured, _read_series(out_dir)) if report else 0,
        }
        tracer.write_spans(args.spans)
    Path(args.result).write_text(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
