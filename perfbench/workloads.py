"""The benchmark's workloads: generated scenario configs and their headline outputs.

Each workload is a scenario config built from the benchmark seed; the program
under test sees only the config.  Why each workload is in the set is recorded
next to it, and in README.md.
"""

from __future__ import annotations

import math

DEFAULT_SEED = 42

# Parameters and init widths of demos/configs/nonlinear_small.json.
_NONLINEAR_PARAMS = {"mu": 1.0, "nu": 1.0, "kappa": 1.0, "rho_ref": 1.0, "pressure_k": 0.5}
_NONLINEAR_EXPONENTS = {"p": 4.0, "q1": 2.5, "q2": 15.0, "tau": 0.35}
_NONLINEAR_INIT = {"theta_width": 1.6, "m_envelope_width": 1.6, "m_smooth_width": 1.2}


def _nonlinear_3d(seed: int) -> dict:
    return {
        "kind": "nonlinear-run",
        "seed": seed,
        "params": dict(_NONLINEAR_PARAMS),
        "grid": {"dim": 3, "n": 32, "box_len": 16.0},
        "nonlinear_exponents": dict(_NONLINEAR_EXPONENTS),
        "init": dict(_NONLINEAR_INIT),
        "amplitude": 0.02,
        "t_end": 2.0,
        "dt": 0.1,
        "sample_every": 1,
    }


def _decay_highband_3d(seed: int) -> dict:
    # The acceptance suite's high-band W^{1,0} setup (C5) at 64^3.  The
    # curl_mixture data is deterministic: the seed has no effect on it.
    return {
        "kind": "linear-decay",
        "seed": seed,
        "params": {"mu": 0.5, "nu": 0.1, "kappa": 0.07, "rho_ref": 1.0},
        "grid": {"dim": 3, "n": 64, "box_len": 96.0},
        "data": {"kind": "curl_mixture", "gamma_potential": 2.5, "rho_min": 0.3, "rho_max": 7.0, "amplitude": 1.0},
        "times": {"t_min": 0.35, "t_max": 6.5, "count": 22},
        "exponents": {"p": 2.0, "q": 2.0, "j": 1},
        "band": "high",
        "w10": True,
        "cutoff_eps": 0.075,
        "fit_window": [0.5, 5.0],
        "trust_mode": "edge_leak",
    }


def _ablation_2d(seed: int) -> dict:
    # demos/configs/ablation_2d.json at n = 512.
    return {
        "kind": "ablation",
        "seed": seed,
        "params": {"mu": 1.0, "nu": 0.8, "kappa": 0.7875, "rho_ref": 1.0},
        "grid": {"dim": 2, "n": 512, "box_len": 96.0},
        "data": {"kind": "riesz_divergence", "gamma": 1.0, "amplitude": 1.0},
        "times": {"t_min": 3.5, "t_max": 65.0, "count": 20},
        "exponents": {"p": "inf", "q": 2.0, "j": 0},
        "fit_window": [5.0, 50.0],
        "trust_mode": "edge_leak",
        "gap_threshold": 0.4,
    }


WORKLOADS = {
    "nonlinear-3d": {
        "config": _nonlinear_3d,
        "why": "the only workload in nonlinear.py: 20 ETDRK2 steps and 21 samples at 32^3, about 6000 FFTs",
        "seed_affects_inputs": True,
    },
    "decay-highband-3d": {
        "config": _decay_highband_3d,
        "why": "FFT-bound derivative-norm path of the decay measurement (sobolev_norm) and the largest working set",
        "seed_affects_inputs": False,
    },
    "ablation-2d": {
        "config": _ablation_2d,
        "why": "elementwise semigroup kernels and trust diagnostics dominate; FFT is only about 11% of the time",
        "seed_affects_inputs": True,
    },
}


def headline(report: dict) -> dict:
    """The outputs the correctness gate compares, read from a run's report.json payload."""
    kind = report["kind"]
    if kind == "nonlinear-run":
        return {"aggregate_final": report["aggregate_final"]}
    if kind == "linear-decay":
        return {"fitted_exponent": report["decay"]["fitted_exponent"]}
    if kind == "ablation":
        return {
            "gap": report["gap"],
            "divergence_fitted_exponent": report["divergence"]["fitted_exponent"],
            "generic_fitted_exponent": report["generic"]["fitted_exponent"],
        }
    raise ValueError(f"no headline outputs defined for kind {kind!r}")


REL_TOL = 1e-9


def gate(verdict: bool, outputs: dict, reference: dict | None) -> str:
    """Return '' when a run passes the correctness gate, else the reason it fails.

    Every run needs a passing verdict and finite headline outputs; a run at a
    seed with a recorded reference must also match it to REL_TOL relative.
    """
    if not verdict:
        return "verdict is not pass"
    for key, value in outputs.items():
        if value is None or not math.isfinite(value):
            return f"{key} is not finite: {value!r}"
    if reference is None:
        return ""
    if reference["verdict"] is not True:
        return "recorded reference verdict is not pass"
    for key, ref in reference["headline"].items():
        got = outputs.get(key)
        if got is None or abs(got - ref) > REL_TOL * abs(ref):
            return f"{key} = {got!r} differs from the reference {ref!r} by more than {REL_TOL:g} relative"
    return ""
