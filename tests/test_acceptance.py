"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  The heavy decay scenarios (3d 128^3 grids) take a few minutes
in total; every tolerance is pinned here, nothing is deferred.
"""

import time
import warnings

import numpy as np
import pytest

from nsklab.analysis import (
    fit_decay,
    measure_semigroup_decay,
    theta_low_band_series,
)
from nsklab.fields import (
    curl_mixture_momentum_state,
    riesz_momentum_pair,
    transverse_packet,
)
from nsklab.model import Grid, State, critical_quadratic, gaussian_bump, make_params
from nsklab.nonlinear import Etd2Stepper, NonlinearScenario, StepState, run
from nsklab.runner import run_scenario
from nsklab.scenario import NonlinearInitBlock, config_from_dict
from nsklab.spectral import (
    CutoffSpec,
    conjugate_symmetry_defect,
    default_cutoff,
    frequency_split,
    to_real,
)
from nsklab.symbols import matexp_oracle, solution_symbol

from conftest import random_params


def _report(cid: str, name: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {cid} {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


# measured at the frozen seed-42 scenario below during calibration, on the
# oracle-verified propagator path (criterion 1 pins symbol == matexp oracle):
# divergence-form fit -0.674, generic fit -0.161, gap +0.513.  The nominal
# continuum gap is exactly 1/2; the gate stays at the criterion value 0.5.
ABLATION_GAP_THRESHOLD = 0.5
MEASURED_ABLATION_GAP = 0.513


class TestCriterion1SymbolOracle:
    def test_symbol_oracle_equivalence(self):
        rng = np.random.default_rng(2024)
        t0 = time.time()
        worst = {}
        for regime in ("positive", "negative", "degenerate"):
            w = 0.0
            for _ in range(1000):
                p = random_params(rng, regime)
                dim = int(rng.integers(1, 5))
                xi = rng.standard_normal(dim) * rng.uniform(0.1, 3.0)
                xi_sq = float(xi @ xi)
                rate = max(p.alpha_star, 0.5 * (p.alpha_star + p.beta_star))
                t_cap = min(10.0, 25.0 / (rate * xi_sq)) if xi_sq > 0 else 10.0
                t = rng.uniform(0.0, t_cap)
                M = solution_symbol(p, xi, t)
                O = matexp_oracle(p, xi, t)
                w = max(w, float(np.linalg.norm(M - O) / max(np.linalg.norm(O), 1e-300)))
            worst[regime] = w
        elapsed = time.time() - t0
        ok = all(v <= 1e-10 for v in worst.values()) and elapsed < 60.0
        detail = ", ".join(f"{k}: {v:.2e}" for k, v in worst.items()) + f"; {elapsed:.1f}s"
        _report("C1", "symbol-oracle equivalence", ok, detail)
        assert all(v <= 1e-10 for v in worst.values())
        assert elapsed < 60.0


class TestCriterion2DegeneracyContinuity:
    def test_continuity_across_branch_switch(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(4):
            dim = int(rng.integers(1, 4))
            xi = rng.standard_normal(dim)
            t = rng.uniform(0.3, 4.0)
            mu, nu, rho = 1.0, rng.uniform(0.0, 1.0), 1.0
            scale = ((mu + nu) / rho) ** 2 / 4.0
            rels = np.concatenate([-np.logspace(-6, -12, 13), [0.0], np.logspace(-12, -6, 13)])
            mats = [
                solution_symbol(
                    make_params(mu, nu, scale * (1.0 + r) / rho, rho, critical_quadratic(1.0, rho)), xi, t
                )
                for r in np.sort(rels)
            ]
            jumps = [np.max(np.abs(a - b)) for a, b in zip(mats, mats[1:])]
            worst = max(worst, max(jumps))
        ok = worst <= 1e-6
        _report("C2", "degeneracy continuity", ok, f"max jump {worst:.2e} <= 1e-6")
        assert ok


# shared 3d decay geometry: delta* = 0.0225 > 0, longitudinal rates 0.75 / 1.05
DECAY_PARAMS = dict(mu=1.0, nu=0.8, kappa=0.7875, rho_ref=1.0)
DECAY_GRID = dict(dim=3, n=128, box_len=96.0)
DECAY_TIMES = np.geomspace(3.5, 65.0, 22)
DECAY_WINDOW = (5.0, 50.0)
DECAY_SEED = 42


def _decay_setup():
    p = make_params(DECAY_PARAMS["mu"], DECAY_PARAMS["nu"], DECAY_PARAMS["kappa"], DECAY_PARAMS["rho_ref"], critical_quadratic(1.0, 1.0))
    g = Grid(**DECAY_GRID)
    rng = np.random.default_rng(DECAY_SEED)
    # the divergence member, then the generic one, each formed when it is asked for
    return p, g, riesz_momentum_pair(g, 1.5, 0.98 * g.box_len / 4.0, rng=rng, amplitude=1.0)


class TestCriterion3LowBandDecay:
    def test_low_band_divergence_form_rate(self):
        params, grid, pair = _decay_setup()  # the generic member is never formed
        meas = measure_semigroup_decay(next(pair), params, DECAY_TIMES, band="low", p=np.inf, j=0)
        rep = fit_decay(
            meas.series,
            DECAY_WINDOW,
            dim=3,
            p=np.inf,
            q=2,
            j=0,
            trust_ok=meas.trust_ok(DECAY_WINDOW, "edge_leak"),
        )
        ok = rep.verdict
        _report(
            "C3",
            "low-band decay, divergence-form data",
            ok,
            f"fitted {rep.fitted_exponent:+.4f} vs predicted {rep.predicted_exponent:+.2f} "
            f"(tol {rep.tol_exp}), trust {rep.trust_window_ok}, low-band modes {meas.band_modes}",
        )
        assert abs(rep.fitted_exponent - (-0.75)) <= 0.1
        assert rep.trust_window_ok
        assert ok

    def test_paper_value_of_predicted_exponent(self):
        # t^{-N/2 (1/q - 1/p) - j/2} at N=3, (p,q,j) = (inf,2,0)
        from nsklab.analysis import predicted_decay_exponent

        assert predicted_decay_exponent(3, np.inf, 2, 0) == pytest.approx(-0.75)


class TestCriterion4DivergenceFormAblation:
    def test_gap_between_generic_and_divergence_form(self):
        params, grid, pair = _decay_setup()
        cutoff = default_cutoff(grid)
        reports = []
        for _ in ("divergence", "generic"):  # the generic member is formed after the divergence series
            meas = theta_low_band_series(next(pair), params, DECAY_TIMES, cutoff, np.inf)
            reports.append(
                fit_decay(
                    meas.series,
                    DECAY_WINDOW,
                    dim=3,
                    p=np.inf,
                    q=2,
                    j=0,
                    trust_ok=meas.trust_ok(DECAY_WINDOW, "edge_leak"),
                )
            )
        div_rep, gen_rep = reports
        gap = gen_rep.fitted_exponent - div_rep.fitted_exponent
        ok = (
            div_rep.verdict
            and gen_rep.fitted_exponent > div_rep.fitted_exponent
            and gap >= ABLATION_GAP_THRESHOLD
        )
        _report(
            "C4",
            "divergence-form ablation",
            ok,
            f"div {div_rep.fitted_exponent:+.4f} (pass {div_rep.verdict}), "
            f"generic {gen_rep.fitted_exponent:+.4f}, gap {gap:+.4f} >= {ABLATION_GAP_THRESHOLD} "
            f"(calibrated {MEASURED_ABLATION_GAP:+.3f})",
        )
        assert div_rep.verdict
        assert gen_rep.fitted_exponent > div_rep.fitted_exponent
        assert gap >= ABLATION_GAP_THRESHOLD


class TestCriterion5HighBandDecay:
    def test_high_band_w10_rate(self):
        params = make_params(0.5, 0.1, 0.07, 1.0, critical_quadratic(1.0, 1.0))
        grid = Grid(dim=3, n=128, box_len=96.0)
        data = curl_mixture_momentum_state(grid, 2.5, 0.3, 7.0, amplitude=1.0)
        times = np.geomspace(0.35, 6.5, 22)
        window = (0.5, 5.0)
        meas = measure_semigroup_decay(data, params, times, band="high", cutoff=CutoffSpec(eps=0.075), p=2, j=1, w10=True)
        rep = fit_decay(
            meas.series,
            window,
            dim=3,
            p=2,
            q=2,
            j=1,
            trust_ok=meas.trust_ok(window, "edge_leak"),
        )
        ok = rep.verdict
        _report(
            "C5",
            "high-band W^{1,0} decay",
            ok,
            f"fitted {rep.fitted_exponent:+.4f} vs predicted {rep.predicted_exponent:+.2f} (tol {rep.tol_exp}), "
            f"trust {rep.trust_window_ok}",
        )
        assert abs(rep.fitted_exponent - (-0.5)) <= 0.1
        assert rep.trust_window_ok
        assert ok


class TestCriterion6HeatBlockAnchor:
    def test_transverse_momentum_heat_rate(self):
        alpha = 2.0
        width = 1.5
        params = make_params(alpha, 0.0, 1.0, 1.0, critical_quadratic(1.0, 1.0))
        grid = Grid(dim=2, n=512, box_len=512.0)
        data = transverse_packet(grid, width=width, amplitude=1.0)
        # L1-normalize the data
        m0 = to_real(data).m
        from nsklab.analysis import lp_norm

        data = transverse_packet(grid, width=width, amplitude=1.0 / lp_norm(m0, grid, 1))
        times = np.geomspace(6.0, 80.0, 22)
        window = (8.0, 64.0)
        meas = measure_semigroup_decay(data, params, times, band="full", p=np.inf, j=0)
        rep = fit_decay(
            meas.series,
            window,
            dim=2,
            p=np.inf,
            q=1,
            j=0,
            tol_exp=0.05,
            trust_ok=meas.trust_ok(window, "edge_leak"),
        )
        # closed-form check: sup norm of the heat flow of a width-w packet
        # scales like (w^2 + 2 alpha t)^(-N/2)
        ts = times[(times >= window[0]) & (times <= window[1])]
        analytic = float(np.polyfit(np.log(ts), -1.0 * np.log(width**2 + 2 * alpha * ts), 1)[0])
        ok = abs(rep.fitted_exponent - (-1.0)) <= 0.05 and abs(rep.fitted_exponent - analytic) <= 0.02 and rep.trust_window_ok
        _report(
            "C6",
            "heat-block anchor",
            ok,
            f"fitted {rep.fitted_exponent:+.4f} vs -N/2 = -1.00 (tol 0.05), closed-form LS {analytic:+.4f}, "
            f"trust {rep.trust_window_ok}",
        )
        assert abs(rep.fitted_exponent - (-1.0)) <= 0.05
        assert abs(rep.fitted_exponent - analytic) <= 0.02
        assert rep.trust_window_ok


class TestCriterion7Conservation:
    def test_ten_thousand_steps(self):
        params = make_params(1.0, 1.0, 1.0, 1.0, critical_quadratic(0.5, 1.0))
        grid = Grid(dim=2, box_len=8.0, n=16)
        theta = gaussian_bump(grid, (4.0, 4.0), 1.0, 0.05)
        m = np.zeros((2,) + grid.shape)
        m[0] = 0.05 * gaussian_bump(grid, (3.0, 5.0), 1.0, 1.0)
        m[1] = 0.05 * gaussian_bump(grid, (5.0, 3.0), 1.0, 1.0)
        st = StepState.from_state(State(grid=grid, fields=np.concatenate([theta[None], m])))
        stepper = Etd2Stepper(params, grid, 0.01)
        mean0 = st.spectral.theta_hat[0, 0]
        for _ in range(10_000):
            st = stepper.step(st)
        drift = abs(st.spectral.theta_hat[0, 0] - mean0) / abs(mean0)
        sym = conjugate_symmetry_defect(st.spectral)
        ok = drift <= 1e-10 and sym <= 1e-12
        _report("C7", "conservation over 1e4 steps", ok, f"mean-theta drift {drift:.2e}, symmetry defect {sym:.2e}")
        assert drift <= 1e-10
        assert sym <= 1e-12


class TestCriterion8NonlinearSmallData:
    INIT = NonlinearInitBlock(theta_width=1.6, m_envelope_width=1.6, m_smooth_width=1.2)

    def test_small_data_boundedness_and_scaling(self):
        params = make_params(1.0, 1.0, 1.0, 1.0, critical_quadratic(0.5, 1.0))
        grid = Grid(dim=3, box_len=8.0, n=16)
        results = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for eps in (0.02, 0.04):
                scn = NonlinearScenario(
                    params=params,
                    grid=grid,
                    amplitude=eps,
                    t_end=100.0,
                    dt=0.1,
                    seed=12,
                    sample_every=20,
                    init=self.INIT,
                )
                results[eps] = run(scn)
        base, doubled = results[0.02], results[0.04]
        mono = bool(np.all(np.diff(base.aggregate.values) >= -1e-12))
        ratio = doubled.aggregate.values[-1] / base.aggregate.values[-1]
        ok = (
            base.success
            and doubled.success
            and not base.rejected
            and base.admissible_throughout
            and mono
            and np.isfinite(base.aggregate.values[-1])
            and ratio <= 2.5
        )
        _report(
            "C8",
            "nonlinear small-data boundedness",
            ok,
            f"no rejection {not base.rejected}, admissible {base.admissible_throughout}, monotone {mono}, "
            f"N(T) = {base.aggregate.values[-1]:.4g}, doubling ratio {ratio:.3f} <= 2.5",
        )
        assert base.success and doubled.success
        assert mono
        assert ratio <= 2.5

    def test_aggregate_sampling_self_convergence(self):
        """Halving the sample spacing moves the aggregate by <= 1% (quadrature gate)."""
        from nsklab.analysis import NormSeries, aggregate_N

        params = make_params(1.0, 1.0, 1.0, 1.0, critical_quadratic(0.5, 1.0))
        grid = Grid(dim=3, box_len=8.0, n=16)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scn = NonlinearScenario(
                params=params,
                grid=grid,
                amplitude=0.02,
                t_end=10.0,
                dt=0.025,
                seed=12,
                sample_every=1,
                init=self.INIT,
            )
            r = run(scn)
        vals = {}
        for stride in (2, 1):
            b = {k: NormSeries(times=v.times[::stride], values=v.values[::stride]) for k, v in r.bundle.items()}
            vals[stride] = aggregate_N(b, 3, 4.0, 2.5, 15.0, 0.35, 10.0)
        change = abs(vals[1] - vals[2]) / vals[1]
        ok = change <= 0.01
        _report("C8b", "aggregate sampling self-convergence", ok, f"n vs 2n samples: {100 * change:.2f}% <= 1%")
        assert ok


class TestCriterion9SchemeOrder:
    def test_etdrk2_self_convergence(self):
        params = make_params(1.0, 1.0, 1.0, 1.0, critical_quadratic(0.5, 1.0))
        grid = Grid(dim=2, box_len=8.0, n=32)
        theta = gaussian_bump(grid, (4.0, 4.0), 1.0, 0.3)
        m = np.zeros((2,) + grid.shape)
        m[0] = 0.3 * gaussian_bump(grid, (3.0, 5.0), 1.0, 1.0)
        m[1] = 0.3 * gaussian_bump(grid, (5.0, 3.0), 1.0, 1.0)
        s = State(grid=grid, fields=np.concatenate([theta[None], m]))
        T = 1.0

        def integrate(dt):
            stepper = Etd2Stepper(params, grid, dt)
            st = StepState.from_state(s)
            for _ in range(int(round(T / dt))):
                st = stepper.step(st)
            return st

        sols = [integrate(dt) for dt in (0.05, 0.025, 0.0125)]
        e1 = np.max(np.abs(sols[0].real.theta - sols[1].real.theta)) + np.max(np.abs(sols[0].real.m - sols[1].real.m))
        e2 = np.max(np.abs(sols[1].real.theta - sols[2].real.theta)) + np.max(np.abs(sols[1].real.m - sols[2].real.m))
        ratio = e1 / e2
        ok = 3.6 <= ratio <= 4.4
        _report("C9", "ETDRK2 self-convergence order", ok, f"halving ratio {ratio:.3f} in [3.6, 4.4]")
        assert 3.6 <= ratio <= 4.4


class TestCriterion10Determinism:
    def test_bitwise_identical_csv(self, tmp_path):
        cfg = config_from_dict(
            {
                "kind": "nonlinear-run",
                "seed": 77,
                "params": {"mu": 1.0, "nu": 1.0, "kappa": 1.0, "rho_ref": 1.0, "pressure_k": 0.5},
                "grid": {"dim": 2, "n": 16, "box_len": 8.0},
                "amplitude": 0.03,
                "t_end": 1.0,
                "dt": 0.05,
            }
        )
        run_scenario(cfg, tmp_path / "a")
        run_scenario(cfg, tmp_path / "b")
        names = sorted(p.name for p in (tmp_path / "a" / "series").iterdir())
        identical = all(
            (tmp_path / "a" / "series" / n).read_bytes() == (tmp_path / "b" / "series" / n).read_bytes()
            for n in names
        )
        lin = config_from_dict(
            {
                "kind": "linear-decay",
                "seed": 5,
                "params": {"mu": 1.0, "nu": 0.8, "kappa": 0.7875, "rho_ref": 1.0},
                "grid": {"dim": 2, "n": 32, "box_len": 24.0},
                "data": {"kind": "riesz_divergence", "gamma": 1.0, "amplitude": 1.0},
                "times": {"t_min": 0.5, "t_max": 8.0, "count": 10},
                "exponents": {"p": "inf", "q": 2.0, "j": 0},
                "band": "low",
                "fit_window": [1.0, 6.0],
                "trust_mode": "edge_leak",
            }
        )
        run_scenario(lin, tmp_path / "c")
        run_scenario(lin, tmp_path / "d")
        names_lin = sorted(p.name for p in (tmp_path / "c" / "series").iterdir())
        identical_lin = all(
            (tmp_path / "c" / "series" / n).read_bytes() == (tmp_path / "d" / "series" / n).read_bytes()
            for n in names_lin
        )
        ok = identical and identical_lin
        _report("C10", "determinism", ok, f"{len(names) + len(names_lin)} series files bitwise identical")
        assert identical and identical_lin
