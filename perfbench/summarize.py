"""Summarize the results kept under .perfbench_out/ as markdown tables.

    python3 perfbench/summarize.py

For each workload: the end-to-end metrics of the untraced runs (median of the
per-run medians, quartile spread as a share of it, run count and seeds) and,
next to them, the per-layer metrics of the latest traced run, for every
layer that was called.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from tracer import LAYER_NAMES

OUT_ROOT = Path(__file__).resolve().parents[1] / ".perfbench_out"


def _spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> None:
    results = []
    for path in sorted(OUT_ROOT.glob("*/result.json"), key=lambda p: p.stat().st_mtime):
        res = json.loads(path.read_text())
        if res["metrics"]:
            results.append(res)
    for workload in sorted({r["workload"] for r in results}):
        untraced = [r for r in results if r["workload"] == workload and not r["trace"]]
        traced = [r for r in results if r["workload"] == workload and r["trace"]]
        print(f"### {workload}\n")
        if untraced:
            seeds = sorted({r["seed"] for r in untraced})
            print(f"Untraced: {len(untraced)} runs, seeds {seeds}, {untraced[-1]['seconds']:g} s each.\n")
            print("| metric | median | quartile spread | unit |\n| --- | --- | --- | --- |")
            for name, m in untraced[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in untraced]
                print(f"| {name} | {statistics.median(values):.4g} | {_spread(values):.1%} | {m['unit']} |")
            print()
        if traced:
            last = traced[-1]["metrics"]
            print(f"Traced (seed {traced[-1]['seed']}, median of the traced repetitions):\n")
            print("| layer | calls | s | self_s | fft_calls |\n| --- | --- | --- | --- | --- |")
            for key, m in last.items():
                if key.endswith(".calls") and key != "fft.calls" and m["value"]:
                    base = key[: -len(".calls")]
                    print(
                        f"| {base} | {m['value']} | {last[base + '.s']['value']:.4g} | "
                        f"{last[base + '.self_s']['value']:.4g} | {last[base + '.fft_calls']['value']} |"
                    )
            per_layer = {f"{n}.{k}" for n in LAYER_NAMES for k in ("calls", "s", "self_s", "fft_calls")}
            print("\n| metric | value | unit |\n| --- | --- | --- |")
            for key in (k for k in last if k not in per_layer):
                print(f"| {key} | {last[key]['value']:.6g} | {last[key]['unit']} |")
            print()


if __name__ == "__main__":
    main()
