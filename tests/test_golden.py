"""Golden outputs: small scenario runs compared with committed values at 1e-12 relative.

Each case runs one small config through ``run_scenario`` and compares every
series CSV value and every headline of its ``report.json`` with
``tests/golden_outputs.json``.  A refactor that claims to keep the outputs
moves them by rounding at most (a few 1e-16); a change to the numerics moves
them by far more than 1e-12.  A relative bound, unlike a digest, does not tie
the file to one host's floating-point behaviour.

A change that means to move the outputs regenerates the file with

    PYTHONPATH=src python tests/test_golden.py --regenerate

and lists the old and new headlines in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

from nsklab.runner import run_scenario
from nsklab.scenario import config_from_dict

GOLDEN = Path(__file__).with_name("golden_outputs.json")
REL_TOL = 1e-12

_DECAY_HIGH = {
    "kind": "linear-decay",
    "seed": 42,
    "params": {"mu": 0.5, "nu": 0.1, "kappa": 0.07, "rho_ref": 1.0},
    "grid": {"dim": 3, "n": 32, "box_len": 48.0},
    "data": {"kind": "curl_mixture", "gamma_potential": 2.5, "rho_min": 0.3, "rho_max": 7.0, "amplitude": 1.0},
    "times": {"t_min": 0.35, "t_max": 6.5, "count": 22},
    "exponents": {"p": 2.0, "q": 2.0, "j": 1},
    "band": "high",
    "w10": True,
    "cutoff_eps": 0.15,
    "fit_window": [0.5, 5.0],
    "trust_mode": "edge_leak",
}

CASES = {
    "nonlinear-run-16": {
        "kind": "nonlinear-run",
        "seed": 42,
        "params": {"mu": 1.0, "nu": 1.0, "kappa": 1.0, "rho_ref": 1.0, "pressure_k": 0.5},
        "grid": {"dim": 3, "n": 16, "box_len": 8.0},
        "nonlinear_exponents": {"p": 4.0, "q1": 2.5, "q2": 15.0, "tau": 0.35},
        "init": {"theta_width": 1.6, "m_envelope_width": 1.6, "m_smooth_width": 1.2},
        "amplitude": 0.02,
        "t_end": 2.0,
        "dt": 0.1,
        "sample_every": 1,
    },
    "linear-decay-high-w10-p2-32": _DECAY_HIGH,
    "linear-decay-high-w10-pinf-32": dict(_DECAY_HIGH, exponents={"p": "inf", "q": 2.0, "j": 1}),
    "linear-decay-low-pinf-128x128": {
        "kind": "linear-decay",
        "seed": 42,
        "params": {"mu": 1.0, "nu": 0.8, "kappa": 0.7875, "rho_ref": 1.0},
        "grid": {"dim": 2, "n": 128, "box_len": 96.0},
        "data": {"kind": "riesz_divergence", "gamma": 1.0, "amplitude": 1.0},
        "times": {"t_min": 3.5, "t_max": 65.0, "count": 20},
        "exponents": {"p": "inf", "q": 2.0, "j": 0},
        "band": "low",
        "fit_window": [5.0, 50.0],
        "trust_mode": "edge_leak",
    },
    "ablation-128x128": {
        "kind": "ablation",
        "seed": 42,
        "params": {"mu": 1.0, "nu": 0.8, "kappa": 0.7875, "rho_ref": 1.0},
        "grid": {"dim": 2, "n": 128, "box_len": 96.0},
        "data": {"kind": "riesz_divergence", "gamma": 1.0, "amplitude": 1.0},
        "times": {"t_min": 3.5, "t_max": 65.0, "count": 20},
        "exponents": {"p": "inf", "q": 2.0, "j": 0},
        "fit_window": [5.0, 50.0],
        "trust_mode": "edge_leak",
        "gap_threshold": 0.4,
    },
}

# Report entries that are not headlines: the config and version echo the
# input, events are text, and the conservation drifts are rounding residues
# (about 1e-16) whose digits differ between hosts.
_NOT_HEADLINES = {"config", "version", "events", "mass_drift", "momentum_drift"}


def _headlines(node, prefix=""):
    """Every number and flag of a report, keyed by its dotted path."""
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            if key not in _NOT_HEADLINES:
                out.update(_headlines(value, f"{prefix}{key}."))
        return out
    if isinstance(node, list):
        out = {}
        for i, value in enumerate(node):
            out.update(_headlines(value, f"{prefix}{i}."))
        return out
    if isinstance(node, (bool, int, float)):
        return {prefix[:-1]: node}
    return {}


def outputs(name: str, out_dir: Path) -> dict:
    """Series values (by CSV name) and headlines of one case run into out_dir."""
    run_scenario(config_from_dict(CASES[name]), out_dir)
    series = {}
    for path in sorted((out_dir / "series").glob("*.csv")):
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        series[path.stem] = {"t": [float(t) for t, _ in rows], "value": [float(v) for _, v in rows]}
    report = json.loads((out_dir / "report.json").read_text())
    return {"series": series, "headlines": _headlines(report)}


def _close(got, want) -> bool:
    if isinstance(want, bool) or isinstance(got, bool):
        return got is want
    return abs(got - want) <= REL_TOL * abs(want)


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden(name, tmp_path):
    want = json.loads(GOLDEN.read_text())[name]
    got = outputs(name, tmp_path)
    assert sorted(got["series"]) == sorted(want["series"])
    for key, series in want["series"].items():
        for column in ("t", "value"):
            assert len(got["series"][key][column]) == len(series[column]), (key, column)
            bad = [
                (i, g, w) for i, (g, w) in enumerate(zip(got["series"][key][column], series[column])) if not _close(g, w)
            ]
            assert not bad, (key, column, bad[:3])
    assert sorted(got["headlines"]) == sorted(want["headlines"])
    bad = {k: (got["headlines"][k], w) for k, w in want["headlines"].items() if not _close(got["headlines"][k], w)}
    assert not bad, bad


def regenerate() -> None:
    """Rewrite the golden file from the current tree."""
    import tempfile

    payload = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            payload[name] = outputs(name, Path(tmp) / name)
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regenerate")
    regenerate()
