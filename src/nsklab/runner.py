"""Scenario execution: builds data, runs the measurement, writes artifacts.

Every run writes, under its output directory:

* ``manifest.json``   - verbatim config, toolkit version, seed;
* ``series/*.csv``    - one file per norm series, columns ``t,value`` with
  17-significant-digit decimals (lossless for doubles, bitwise reproducible);
* ``report.json``     - verdicts and diagnostics, embedding the config again;
* ``plots/*.svg``     - log-log curves with the predicted-slope guide line.

Each kind builds its report from the config itself.  A decay kind measures
its seeded datum and fits the series with the config's window, exponents and
trust mode; the ablation does so for each member of ``riesz_momentum_pair``,
one ``theta_low_band_series`` each, and compares the two fitted exponents.
A datum goes straight into its measurement, which frees it once its orbit is
built; the ablation's generic member is formed only after that.  A decay
series that is 0 inside the fit window, of zero data or decayed past the float
range, has nothing to fit: the report is ``skipped``, with the reason, and
does not pass.

Exit-code policy lives in the CLI: 0 all verdicts pass, 2 verdict failures,
1 execution error (partial artifacts are flushed before the error propagates).

A sweep contains each scenario's execution error, each entry whose config
fails validation and each scenario whose worker process dies in that
scenario's outcome (status ``error``, with a ``report.json`` of the error), so
the other scenarios still run and keep their results, and writes
``sweep_summary.json`` with every scenario's status and run time.
"""

from __future__ import annotations

import copy
import json
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from ._version import __version__
from .analysis import DecayMeasurement, fit_decay, measure_semigroup_decay, theta_low_band_series
from .errors import NonPositiveSeries, NumericsWarning, ValidationError
from .fields import (
    curl_mixture_momentum_state,
    riesz_kernel_hat,
    riesz_momentum_pair,
    transverse_packet,
)
from .model import SpectralState, critical_quadratic, make_params
from .nonlinear import run as run_nonlinear
from .scenario import ScenarioConfig, config_to_dict
from .spectral import Workspace
from .svgplot import loglog_svg
from .symbols import matexp_oracle, solution_symbol


@dataclass
class ScenarioOutcome:
    all_pass: bool
    report: dict
    out_dir: Path

    @property
    def status(self) -> str:
        """``pass``, ``fail`` (a verdict failed) or ``error`` (the execution raised)."""
        if "error" in self.report:
            return "error"
        return "pass" if self.all_pass else "fail"


def _write_csv(path: Path, times, values) -> None:
    lines = ["t,value"]
    for t, v in zip(times, values):
        lines.append(f"{t:.17g},{v:.17g}")
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _build_data(cfg: ScenarioConfig) -> SpectralState:
    db, grid = cfg.data, cfg.grid
    support = cfg.support_radius()
    if db.kind in ("riesz_divergence", "riesz_generic"):
        # the only kind that draws: the generator, and numpy.random with it, is made here
        pair = riesz_momentum_pair(grid, db.gamma, support, rng=np.random.default_rng(cfg.seed), amplitude=db.amplitude)
        if db.kind == "riesz_generic":
            next(pair)  # the divergence member sets the generic one's energy, and is dropped before it is formed
        return next(pair)
    if db.kind == "scalar_riesz":
        hat = np.zeros((grid.dim + 1,) + grid.shape, complex)
        np.multiply(riesz_kernel_hat(grid, db.gamma, support), db.amplitude, out=hat[0])
        return SpectralState(grid=grid, hat=hat)
    if db.kind == "curl_mixture":
        return curl_mixture_momentum_state(grid, db.gamma_potential, db.rho_min, db.rho_max, amplitude=db.amplitude)
    if db.kind == "transverse_packet":
        return transverse_packet(grid, db.width, amplitude=db.amplitude)
    raise ValidationError(f"unhandled data kind '{db.kind}'")


def _subdir(out_dir: Path, name: str) -> Path:
    d = out_dir / name
    d.mkdir(parents=True, exist_ok=True)
    return d


def _fit(cfg: ScenarioConfig, meas: DecayMeasurement):
    """The decay fit of a measurement over the config's window, with its exponents, tolerance and trust mode."""
    e, dim = cfg.exponents, cfg.grid.dim
    trust_ok = meas.trust_ok(cfg.fit_window, cfg.trust_mode)
    return fit_decay(meas.series, cfg.fit_window, dim=dim, p=e.p, q=e.q, j=e.j, tol_exp=cfg.tol_exp, trust_ok=trust_ok)


def _symbol_verify_report(cfg: ScenarioConfig, out_dir: Path) -> dict:
    rng = np.random.default_rng(cfg.seed)
    regimes = {"positive": (0.05, 0.95), "negative": (1.05, 6.0), "degenerate": (1.0 - 0.9e-9, 1.0 + 0.9e-9)}
    rows = {}
    all_pass = True
    for regime, (lo, hi) in regimes.items():
        worst = 0.0
        ts = np.empty(cfg.samples_per_regime)
        devs = np.empty(cfg.samples_per_regime)
        for i in range(cfg.samples_per_regime):
            mu = rng.uniform(0.2, 3.0)
            nu = rng.uniform(-0.5 * mu, 3.0)
            rho = rng.uniform(0.3, 3.0)
            scale = ((mu + nu) / rho) ** 2 / 4.0
            kappa = scale * rng.uniform(lo, hi) / rho
            params = make_params(mu, nu, kappa, rho, critical_quadratic(1.0, rho))
            dim = int(rng.integers(1, 5))
            xi = rng.standard_normal(dim) * rng.uniform(0.1, cfg.xi_scale)
            xi_sq = float(xi @ xi)
            rate = max(params.alpha_star, 0.5 * (params.alpha_star + params.beta_star))
            t_cap = min(cfg.t_max, 25.0 / (rate * xi_sq)) if xi_sq > 0 else cfg.t_max
            t = rng.uniform(0.0, t_cap)
            M = solution_symbol(params, xi, t)
            O = matexp_oracle(params, xi, t)
            dev = float(np.linalg.norm(M - O) / max(np.linalg.norm(O), 1e-300))
            ts[i] = t
            devs[i] = dev
            worst = max(worst, dev)
        order = np.argsort(ts, kind="stable")
        tt = ts[order]
        tt = tt + np.arange(len(tt)) * 1e-12  # strictly increasing for the series file
        _write_csv(_subdir(out_dir, "series") / f"symbol_deviation_{regime}.csv", tt, devs[order])
        rows[regime] = {"max_relative_deviation": worst, "samples": cfg.samples_per_regime, "pass": worst <= cfg.tol_symbol}
        all_pass = all_pass and rows[regime]["pass"]
    return {"regimes": rows, "tolerance": cfg.tol_symbol, "pass": all_pass}


def _linear_decay_report(cfg: ScenarioConfig, out_dir: Path) -> dict:
    cutoff = cfg.cutoff()
    # the datum is passed straight in: the measurement holds its only reference and frees it once its orbit is built
    meas = measure_semigroup_decay(
        _build_data(cfg),
        cfg.params.fluid(),
        cfg.times.values(),
        band=cfg.band,
        cutoff=cutoff,
        p=cfg.exponents.p,
        j=cfg.exponents.j,
        w10=cfg.w10,
    )
    name = f"pair_{cfg.band}"
    _write_csv(_subdir(out_dir, "series") / f"{name}.csv", meas.series.times, meas.series.values)
    _write_csv(_subdir(out_dir, "series") / "trust_mass_radius.csv", meas.series.times, meas.trust_radii)
    _write_csv(_subdir(out_dir, "series") / "trust_edge_leak.csv", meas.series.times, meas.edge_leaks)
    try:
        report = _fit(cfg, meas)
    except NonPositiveSeries as exc:  # the norm is 0 in the window: the datum is zero, or decays past the float range
        return {"skipped": True, "reason": f"no fit: {exc}", "decay": None, "pass": False}
    svg = loglog_svg(
        meas.series.times,
        meas.series.values,
        title=f"{name}: fitted {report.fitted_exponent:+.3f}, predicted {report.predicted_exponent:+.3f}",
        guide_slope=report.predicted_exponent,
        guide_label=f"guide slope {report.predicted_exponent:+.3f}",
    )
    (_subdir(out_dir, "plots") / f"{name}.svg").write_text(svg)
    return {
        "decay": report.to_dict(),
        "trust_mode": cfg.trust_mode,
        "low_band_nonzero_modes": meas.band_modes,
        "cutoff_eps": cutoff.eps,
        "cutoff_profile": "quintic_smoothstep",
        "pass": report.verdict,
    }


def _ablation_report(cfg: ScenarioConfig, out_dir: Path) -> dict:
    """What the divergence form buys: the low-band theta decay of a Div M0 momentum against a generic one.

    Both data of ``riesz_momentum_pair`` carry theta = 0 and momenta of identical spectral energy and envelope;
    the gap, generic minus divergence-form fitted exponent, is positive when the generic datum decays slower.
    """
    payload = {"skipped": True, "gap": None, "divergence": None, "generic": None, "gap_threshold": cfg.gap_threshold, "pass": False}
    params, grid = cfg.params.fluid(), cfg.grid
    rng = np.random.default_rng(cfg.seed)
    # divergence, then generic: each member goes straight to its series, which frees it once its orbit is built,
    # and the generic member is formed only after that
    pair = riesz_momentum_pair(grid, cfg.data.gamma, cfg.support_radius(), rng=rng, amplitude=cfg.data.amplitude)
    cutoff = cfg.cutoff()
    ws = Workspace(grid, theta_only=True)
    times = cfg.times.values()
    fits = {}
    for tag in ("divergence", "generic"):
        meas = theta_low_band_series(next(pair), params, times, cutoff, cfg.exponents.p, ws)
        try:
            fits[tag] = meas.series, _fit(cfg, meas)
        except NonPositiveSeries as exc:  # a theta response that is 0 in the window, as it is for zero data
            return dict(payload, reason=f"no fit of the {tag} theta response: {exc}")
    divergence, generic = fits["divergence"][1], fits["generic"][1]
    guide = divergence.predicted_exponent
    for tag, (series, report) in fits.items():
        _write_csv(_subdir(out_dir, "series") / f"theta_low_{tag}.csv", series.times, series.values)
        svg = loglog_svg(
            series.times,
            series.values,
            title=f"theta low band ({tag}): fitted {report.fitted_exponent:+.3f}",
            guide_slope=guide,
            guide_label=f"guide slope {guide:+.3f}",
        )
        (_subdir(out_dir, "plots") / f"theta_low_{tag}.svg").write_text(svg)
    gap = generic.fitted_exponent - divergence.fitted_exponent
    payload.update(skipped=False, reason="", gap=gap, divergence=divergence.to_dict(), generic=generic.to_dict())
    payload["pass"] = bool(
        divergence.verdict and generic.fitted_exponent > divergence.fitted_exponent and gap >= cfg.gap_threshold
    )
    return payload


def _nonlinear_report(cfg: ScenarioConfig, out_dir: Path) -> dict:
    # NumericsWarnings become report events without a time, since a warning
    # carries none; other categories are dropped
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NumericsWarning)
        result = run_nonlinear(cfg)
    events = result.events + [
        {"t": None, "kind": "warning", "message": str(w.message)}
        for w in caught
        if issubclass(w.category, NumericsWarning)
    ]
    sdir = _subdir(out_dir, "series")
    for key, series in result.bundle.items():
        _write_csv(sdir / f"{key}.csv", series.times, series.values)
    _write_csv(sdir / "aggregate_N.csv", result.aggregate.times, result.aggregate.values)
    svg = loglog_svg(
        result.aggregate.times[1:],
        np.maximum(result.aggregate.values[1:], 1e-300),
        title="aggregate weighted norm",
    )
    (_subdir(out_dir, "plots") / "aggregate_N.svg").write_text(svg)
    return {
        "success": bool(result.success),
        "rejected": bool(result.rejected),
        "admissible_throughout": bool(result.admissible_throughout),
        "mass_drift": result.mass_drift,
        "momentum_drift": result.momentum_drift,
        "symmetry_defect": result.symmetry_defect,
        "aggregate_final": float(result.aggregate.values[-1]) if result.aggregate.values.size else None,
        "events": events,
        "pass": bool(result.success),
    }


_RUNNERS = {
    "symbol-verify": _symbol_verify_report,
    "linear-decay": _linear_decay_report,
    "ablation": _ablation_report,
    "nonlinear-run": _nonlinear_report,
}


def run_scenario(cfg: ScenarioConfig, out_dir) -> ScenarioOutcome:
    """Execute one scenario, writing all artifacts under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"config": config_to_dict(cfg), "version": __version__, "seed": cfg.seed}
    _write_json(out_dir / "manifest.json", manifest)
    try:
        body = _RUNNERS[cfg.kind](cfg, out_dir)
    except Exception as exc:
        _error_outcome(out_dir, exc, cfg)
        raise
    report = {"version": __version__, "kind": cfg.kind, "config": config_to_dict(cfg), **body}
    _write_json(out_dir / "report.json", report)
    return ScenarioOutcome(all_pass=bool(report.get("pass", False)), report=report, out_dir=out_dir)


def _error_outcome(out_dir: Path, exc: BaseException, cfg: ScenarioConfig | None = None) -> ScenarioOutcome:
    """The ``error`` outcome of exc, with its report.json written under out_dir: the error and its traceback, and
    the kind and config of the scenario when there is one (a config that failed validation is none)."""
    report = {"version": __version__}
    if cfg is not None:
        report.update(kind=cfg.kind, config=config_to_dict(cfg))
    report.update({"error": f"{type(exc).__name__}: {exc}", "traceback": "".join(traceback.format_exception(exc)), "pass": False})
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / "report.json", report)
    except OSError:  # out_dir cannot be written: the outcome, and a sweep's summary, still carry the error
        pass
    return ScenarioOutcome(all_pass=False, report=report, out_dir=out_dir)


def _run_contained(cfg: ScenarioConfig | ValidationError, out_dir: Path) -> tuple[ScenarioOutcome, float]:
    """run_scenario with any exception turned into an ``error`` outcome; returns it with the wall time.  A config
    that failed validation (its ValidationError) is such an outcome."""
    start = perf_counter()
    if isinstance(cfg, ValidationError):
        return _error_outcome(out_dir, cfg), perf_counter() - start
    try:  # on a copy, as in a pool worker, so that no table the run caches on the config's grid outlives the run
        outcome = run_scenario(copy.deepcopy(cfg), out_dir)
    except Exception as exc:  # the report.json run_scenario wrote is rewritten with the traceback through here
        outcome = _error_outcome(out_dir, exc, cfg)
    return outcome, perf_counter() - start


def run_sweep(sweep, out_root, threads: int = 1) -> list:
    """Fan independent scenarios out to a process pool, one subdirectory each.

    Returns one outcome per scenario, in sweep order; a scenario that raises,
    whose config failed validation or whose worker died yields an ``error``
    outcome, with a report.json of the error, instead of discarding the
    others.  Writes ``sweep_summary.json`` (name, status and run_s per
    scenario, and the error and traceback of each error).
    """
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    jobs = [(name, cfg, out_root / name) for name, cfg in sweep.scenarios]
    if threads <= 1:
        results = [_run_contained(cfg, sub) for _, cfg, sub in jobs]
    else:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=threads) as pool:
            # an invalid config is recorded here: a worker would get its error without the traceback
            futs = [None if isinstance(cfg, ValidationError) else pool.submit(_run_contained, cfg, sub) for _, cfg, sub in jobs]
        # read once the pool has shut down, so that no worker still writes where a failed one's report goes
        results = []
        for (_, cfg, sub), fut in zip(jobs, futs):
            try:
                results.append(_run_contained(cfg, sub) if fut is None else fut.result())
            except Exception as exc:  # the worker itself failed
                results.append((_error_outcome(sub, exc, cfg), None))
    rows = []
    for (name, _, _), (outcome, run_s) in zip(jobs, results):
        row = {"name": name, "status": outcome.status, "run_s": run_s}
        if outcome.status == "error":
            row["error"] = outcome.report["error"]
            row["traceback"] = outcome.report["traceback"]
        rows.append(row)
    _write_json(out_root / "sweep_summary.json", {"scenarios": rows})
    return [outcome for outcome, _ in results]
