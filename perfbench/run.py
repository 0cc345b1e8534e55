"""nsklab benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a checkout, in a closed loop with one
client: each repetition is one ``nsklab.runner.run_scenario`` call in a fresh,
single-threaded interpreter (child.py), one at a time, until ``--seconds``
have passed.  Every repetition goes through the correctness gate of
workloads.py and must write the same series as the first one.

--trace 0 reports the end-to-end metrics (medians over the repetitions):
  run_s        wall time of one run_scenario call
  setup_s      fresh interpreter to nsklab imported and the config validated
  peak_rss_mb  peak resident memory of the process that ran the workload
--trace 1 alternates untraced and traced repetitions (at least two of each)
and reports the per-layer metrics of tracer.py, the tracing overhead, and
checks that traced and untraced runs write byte-identical series and that
the traced counts repeat exactly.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Per-repetition data, the environment and the traced spans are kept under
.perfbench_out/ in the checkout.

    python3 perfbench/run.py --record-reference

re-records reference.json: verdict and headline outputs at the default seed,
and the traced counts, for every workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
from tracer import LAYER_NAMES  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, gate, headline  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7  # set-up is also timed in set-up-only interpreters until this many samples exist
DEADLINE_S = 170.0  # a run ends within this, whatever --seconds says


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(child_env: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": child_env.get("numpy"),
        "scipy": child_env.get("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "fft_workers": child_env.get("fft_workers"),
        "threads": child_env.get("threads"),
    }


class Session:
    """The working directory and deadline of one benchmark invocation."""

    def __init__(self, tag: str, config: dict):
        self.t_start = perf_counter()
        OUT_ROOT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT_ROOT))
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(config, indent=2) + "\n")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{k: "1" for k in THREAD_VARS})
        self.count = 0

    def elapsed(self) -> float:
        return perf_counter() - self.t_start

    def child(self, *, trace: bool = False, setup_only: bool = False) -> dict:
        """Run child.py once; returns its result plus setup_s (or an error)."""
        self.count += 1
        tag = f"rep{self.count:02d}"
        out = self.dir / f"{tag}-out"
        result_path = self.dir / f"{tag}-result.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--config", str(self.config_path)]
        if setup_only:
            cmd.append("--setup-only")
        else:
            cmd += ["--out", str(out), "--result", str(result_path)]
        if trace:
            cmd += ["--trace", "--spans", str(self.dir / f"{tag}-spans.json")]
        limit = max(DEADLINE_S - self.elapsed(), 1.0)
        with open(self.dir / f"{tag}-stderr.txt", "w") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=err, text=True)
            killer = threading.Timer(limit, proc.kill)
            killer.start()
            try:
                ready = proc.stdout.readline().strip() == "ready"
                setup_s = perf_counter() - t0
                proc.stdout.read()
                code = proc.wait()
            finally:
                killer.cancel()
                proc.stdout.close()
        if not ready or code != 0:
            detail = (self.dir / f"{tag}-stderr.txt").read_text().strip().splitlines()[-1:] or [f"exit code {code}"]
            return {"error": f"child failed ({'no ready line' if not ready else f'exit code {code}'}): {detail[0]}"}
        if setup_only:
            return {"setup_s": setup_s}
        res = json.loads(result_path.read_text())
        res["setup_s"] = setup_s
        res["trace_on"] = trace
        res["series_sha256"] = _series_digest(out)
        shutil.rmtree(out, ignore_errors=True)
        return res

    def close(self):
        for path in self.dir.glob("*-out"):
            shutil.rmtree(path, ignore_errors=True)


def _series_digest(out: Path) -> str | None:
    files = sorted((out / "series").glob("*.csv"))
    if not files:
        return None
    h = hashlib.sha256()
    for f in files:
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def _load_reference(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED or not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text())["workloads"].get(workload)


def _judge(reps: list, reference: dict | None) -> list:
    """Apply the gate to every repetition; returns one failure reason per failed repetition."""
    failures = []
    first = None
    for i, rep in enumerate(reps):
        reason = rep.get("error") or ""
        if not reason:
            outputs = headline(rep["report"]) if rep["verdict"] else {}
            rep["headline"] = outputs
            reason = gate(rep["verdict"], outputs, reference)
            if not reason and first is None:
                first = rep
            elif not reason and (rep["series_sha256"] != first["series_sha256"] or outputs != first["headline"]):
                reason = "series or headline outputs differ from the first repetition"
        rep["failure"] = reason
        if reason:
            failures.append(f"repetition {i + 1}: {reason}")
    return failures


def _median(values: list) -> float:
    return float(statistics.median(values))


def _layer_metrics(traced: list, untraced_run_s: float) -> tuple[dict, list]:
    """Per-layer metrics from the traced repetitions; counts must repeat exactly."""
    problems = []
    t0 = traced[0]["trace"]
    for rep in traced[1:]:
        tr = rep["trace"]
        for name in LAYER_NAMES:
            for key in ("calls", "fft_calls"):
                if tr["layers"][name][key] != t0["layers"][name][key]:
                    problems.append(f"{name}.{key} did not repeat: {t0['layers'][name][key]} vs {tr['layers'][name][key]}")
        if tr["fft"]["calls"] != t0["fft"]["calls"] or tr["fft"]["bytes"] != t0["fft"]["bytes"]:
            problems.append("fft.calls / fft.bytes did not repeat")
    metrics = {}
    for name in LAYER_NAMES:
        layers = [rep["trace"]["layers"][name] for rep in traced]
        metrics[f"{name}.calls"] = (layers[0]["calls"], "count")
        metrics[f"{name}.s"] = (_median([x["s"] for x in layers]), "s")
        metrics[f"{name}.self_s"] = (_median([x["self_s"] for x in layers]), "s")
        metrics[f"{name}.fft_calls"] = (layers[0]["fft_calls"], "count")
    metrics["fft.calls"] = (t0["fft"]["calls"], "count")
    metrics["fft.s"] = (_median([rep["trace"]["fft"]["s"] for rep in traced]), "s")
    metrics["fft.bytes"] = (t0["fft"]["bytes"], "B")
    metrics["nonlinear.sample.s"] = (_median([rep["trace"]["run_minus_step_s"] for rep in traced]), "s")
    metrics["nonlinear.step_rejected"] = (traced[0]["step_rejected"], "count")
    measured = t0["series_measured"]
    metrics["analysis.series_measured"] = (measured, "count")
    metrics["analysis.series_useful_ratio"] = (t0["series_useful"] / measured if measured else 1.0, "ratio")
    traced_run_s = _median([rep["run_s"] for rep in traced])
    metrics["trace.run_s"] = (traced_run_s, "s")
    metrics["trace.overhead_s"] = (traced_run_s - untraced_run_s, "s")
    return metrics, problems


def _count_drift(workload: str, metrics: dict) -> list:
    """Traced counts that differ from those recorded in reference.json (informational)."""
    if not REFERENCE.exists():
        return []
    recorded = json.loads(REFERENCE.read_text())["workloads"].get(workload, {}).get("trace_counts", {})
    return [f"{k}: recorded {v}, now {metrics[k][0]}" for k, v in recorded.items() if k in metrics and metrics[k][0] != v]


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, use_reference: bool = True) -> dict:
    spec = WORKLOADS[workload]
    session = Session(f"{workload}-seed{seed}-trace{int(trace)}", spec["config"](seed))
    reps = []
    setup = []
    probe_failure = None
    try:
        # Closed loop, one client.  In trace mode untraced and traced
        # repetitions alternate so that both see the same machine state.
        while True:
            rep = session.child(trace=trace and len(reps) % 2 == 1)
            reps.append(rep)
            if rep.get("error"):
                break
            if not rep["trace_on"]:
                setup.append(rep["setup_s"])
            done = session.elapsed() >= seconds and (not trace or len(reps) >= 4)
            if done or session.elapsed() + rep["setup_s"] + rep["run_s"] > DEADLINE_S:
                break
        while not trace and len(setup) < SETUP_SAMPLES and session.elapsed() < DEADLINE_S - 10.0:
            probe = session.child(setup_only=True)
            if probe.get("error"):
                probe_failure = probe["error"]
                break
            setup.append(probe["setup_s"])
    finally:
        session.close()

    failures = _judge(reps, _load_reference(workload, seed) if use_reference else None)
    if probe_failure:
        failures.append(f"set-up probe: {probe_failure}")
    ok = [r for r in reps if not r.get("error")]
    untraced = [r for r in ok if not r["trace_on"]]
    traced = [r for r in ok if r["trace_on"]]
    metrics = {}
    notes = []
    if not trace and untraced:
        metrics["run_s"] = (_median([r["run_s"] for r in untraced]), "s")
        metrics["setup_s"] = (_median(setup), "s")
        metrics["peak_rss_mb"] = (_median([r["peak_rss_mb"] for r in untraced]), "MiB")
    if trace and traced and untraced:
        metrics, problems = _layer_metrics(traced, _median([r["run_s"] for r in untraced]))
        failures += problems
        digests = {r["series_sha256"] for r in ok}
        if len(digests) != 1:
            failures.append("traced and untraced runs wrote different series CSVs")
        notes += [f"layer not found (reported as 0 calls): {m}" for m in traced[0]["trace"]["missing"]]
        notes += [f"count differs from reference.json: {d}" for d in _count_drift(workload, metrics)]
    elif trace:
        failures.append("trace mode needs at least one traced and one untraced repetition")

    attempted = len(reps)
    failed = sum(1 for r in reps if r["failure"])
    correct = not failures and bool(metrics)
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "why": spec["why"],
        "seed_affects_inputs": spec["seed_affects_inputs"],
        "config": spec["config"](seed),
        "environment": _environment(ok[0]["env"]) if ok else None,
        "repetitions": [
            {k: r.get(k) for k in ("trace_on", "setup_s", "run_s", "peak_rss_mb", "headline", "failure", "error", "series_sha256")}
            for r in reps
        ],
        "setup_samples": setup,
        "failures": failures,
        "notes": notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "correct": correct,
    }
    if trace and traced:
        result["trace_counts"] = {
            k: v for k, (v, u) in metrics.items() if u == "count" and not k.startswith("analysis.series")
        }
    (session.dir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def _print(result: dict) -> None:
    env = result["environment"]
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: {result['why']}")
    if env:
        print(
            f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
            f"nproc {env['nproc']}, cpu {env['cpu_model']}, fft workers {env['fft_workers']}, threads {env['threads']}"
        )
    reps = result["repetitions"]
    print(f"repetitions {len(reps)}, setup samples {len(result['setup_samples'])}")
    for name, m in result["metrics"].items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(f"  fail_ratio {result['failed']}/{result['attempted']}")
    for line in result["failures"]:
        print(f"FAIL {line}")
    for line in result["notes"]:
        print(f"note {line}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )


def record_reference() -> None:
    """Re-record reference.json from one untraced and one traced run per workload at the default seed."""
    payload = {"seed": DEFAULT_SEED, "rel_tol": 1e-9, "workloads": {}}
    for workload in WORKLOADS:
        res = run_benchmark(workload, DEFAULT_SEED, 0, trace=True, use_reference=False)
        untraced = [r for r in res["repetitions"] if not r["trace_on"]]
        if not res["correct"] or not untraced:
            raise SystemExit(f"{workload}: not recording a failing run: {res['failures']}")
        payload["workloads"][workload] = {
            "verdict": True,
            "headline": untraced[0]["headline"],
            "trace_counts": res["trace_counts"],
        }
    REFERENCE.write_text(json.dumps(payload, indent=2) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "nsklab" / "__init__.py").is_file():
        print(f"no nsklab sources under {ROOT / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    if not result["metrics"]:
        print(f"no metrics: {result['failures']}", file=sys.stderr)
        return 1
    _print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
