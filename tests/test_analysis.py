import functools
import math
import tracemalloc

import numpy as np
import pytest

import nsklab.analysis as analysis_mod
import nsklab.spectral as spectral_mod
from conftest import full_spectrum, random_spectrum, volume
from nsklab.analysis import (
    DecayMeasurement,
    DecayReport,
    NormSeries,
    aggregate_N,
    fit_decay,
    in_theorem_scope,
    edge_leakage,
    lp_norm,
    lp_norms,
    lp_time_norm,
    mass_radius,
    measure_semigroup_decay,
    predicted_decay_exponent,
    theta_low_band_series,
    weighted_sup,
)
from nsklab.errors import (
    MissingConstituent,
    NonPositiveSeries,
    WindowUncovered,
)
from nsklab.fields import curl_mixture_momentum_state, nonlinear_initial_state, riesz_momentum_pair, transverse_packet
from nsklab.model import Grid, SpectralState, State, critical_quadratic, gaussian_bump, make_params
from nsklab.nonlinear import Etd2Stepper, NonlinearScenario, StepState, _sample_norms
from nsklab.runner import run_scenario
from nsklab.scenario import NonlinearExponentsBlock, config_from_dict
from nsklab.spectral import apply_semigroup, default_cutoff, frequency_split, irfftn, multi_indices, to_real


def partials(f, grid, order):
    """Every partial of f of the given order, each .real of a bare (i xi)^alpha complex round trip."""
    axes = tuple(range(-grid.dim, 0))
    f_hat = np.fft.fftn(f, axes=axes)
    for alpha in multi_indices(grid.dim, order):
        mult = functools.reduce(np.multiply, [(1j * x) ** a for x, a in zip(grid.wavevectors(), alpha)])
        yield np.fft.ifftn(mult * f_hat, axes=axes).real


def sobolev_norm(f, grid, k, q):
    """W^k_q reference: lp_norm summed over every partial of order <= k."""
    return sum(lp_norm(d, grid, q) for order in range(k + 1) for d in partials(f, grid, order))


def solver_norms(grid, theta, m, q1, q2):
    """The nonlinear solver's sample norms of (theta, m) at the exponents (q1, q2), linear part only."""
    params = make_params(1.0, 1.0, 1.0, 1.0, critical_quadratic(1.0, 1.0))
    scn = NonlinearScenario(params=params, grid=grid, amplitude=0.0, t_end=1.0, dt=1.0, seed=0, exponents=NonlinearExponentsBlock(q1=q1, q2=q2), nonlinear=False)
    return _sample_norms(StepState.from_state(State(grid=grid, fields=np.concatenate([theta[None], m]))), scn, Etd2Stepper(params, grid, 1.0))


class TestLpNorm:
    def test_constant_l2(self):
        g = Grid(dim=2, box_len=3.0, n=16)
        f = np.full(g.shape, 2.0)
        assert lp_norm(f, g, 2) == pytest.approx(2.0 * np.sqrt(volume(g)))

    def test_sup_norm_of_bump(self):
        g = Grid(dim=2, box_len=10.0, n=64)
        f = gaussian_bump(g, (5.0, 5.0), 1.0, 0.9)
        assert lp_norm(f, g, np.inf) == pytest.approx(0.9)

    def test_parseval(self):
        rng = np.random.default_rng(0)
        g = Grid(dim=2, box_len=2.0, n=16)
        theta = rng.standard_normal(g.shape)
        s = State(grid=g, fields=np.concatenate([theta[None], np.zeros((2,) + g.shape)]))
        sp = full_spectrum(s)
        direct = lp_norm(theta, g, 2) ** 2
        spectral = g.cell_volume / g.mode_count * np.sum(np.abs(sp.theta_hat) ** 2)
        assert abs(direct - spectral) <= 1e-12 * direct

    def test_holder_monotonicity_on_box(self):
        """||f||_q1 <= V^(1/q1 - 1/q2) ||f||_q2 for q1 <= q2 on the fixed box."""
        rng = np.random.default_rng(1)
        g = Grid(dim=2, box_len=1.7, n=16)
        f = rng.standard_normal(g.shape)
        for q1, q2 in [(1, 2), (2, 4), (1.5, 8), (2, np.inf)]:
            lhs = lp_norm(f, g, q1)
            iq2 = 0.0 if np.isinf(q2) else 1.0 / q2
            rhs = volume(g) ** (1.0 / q1 - iq2) * lp_norm(f, g, q2)
            assert lhs <= rhs * (1 + 1e-12)

    def test_vector_field_euclidean_magnitude(self):
        g = Grid(dim=2, box_len=2.0, n=8)
        m = np.zeros((2,) + g.shape)
        m[0] = 3.0
        m[1] = 4.0
        assert lp_norm(m, g, np.inf) == pytest.approx(5.0)


class TestLpNorms:
    def test_equals_lp_norm_bitwise(self):
        rng = np.random.default_rng(21)
        qs = (np.inf, 1.0, 1.5, 2.0, 4.0)
        for dim in (1, 2, 3):
            g = Grid(dim=dim, box_len=5.0, n=8)
            for lead in ((), (dim,), (dim * dim,)):
                f = rng.standard_normal(lead + g.shape)
                assert lp_norms(f, g, qs) == [lp_norm(f, g, q) for q in qs]

    def test_rejects_exponent_below_one(self):
        g = Grid(dim=1, box_len=1.0, n=8)
        with pytest.raises(ValueError):
            lp_norms(np.ones(8), g, (2.0, 0.5))

    @pytest.mark.parametrize("lead", [(), (1,), (3,), (3, 3), (4, 4)])
    def test_magnitude_bitwise_equal_to_summed_squares_and_input_untouched(self, lead):
        """The squares are added in np.sum's axis-0 order, of a strided view too, and the field is left as it was."""
        rng = np.random.default_rng(22 + len(lead))
        g = Grid(dim=3, box_len=5.0, n=8)
        f = rng.standard_normal(lead + (2,) + g.shape)[..., 1, :, :, :]  # every component a strided view
        before = f.copy()
        want = np.abs(f) if not lead else np.sqrt(np.sum(np.abs(f.reshape((-1,) + g.shape)) ** 2, axis=0))
        assert np.array_equal(analysis_mod._magnitude(f, g), want)
        assert np.array_equal(f, before)

    def test_norms_of_magnitude_bitwise_equal_to_powers(self):
        """mag**q formed in one scratch buffer sums to the same value as a fresh power at every exponent the
        toolkit measures, the ones the power loop handles as special cases (1, 2) among them."""
        g = Grid(dim=3, box_len=5.0, n=8)
        mag = np.abs(np.random.default_rng(23).standard_normal(g.shape))
        qs = (1.0, 1.5, 2.0, 2.5, 4.0, 15.0, np.inf)
        want = [
            float(np.max(mag)) if np.isinf(q) else float(np.sum(mag**q) ** (1.0 / q) * g.cell_volume ** (1.0 / q)) for q in qs
        ]
        assert analysis_mod._lp_norms_of_magnitude(mag, g, qs) == want


class TestSobolevNorm:
    """The solver's W^{3,2}_q pair norm ||theta||_{W^3_q} + ||m||_{W^2_q}, the toolkit's Sobolev norm."""

    def test_k0_is_lp(self):
        g = Grid(dim=2, box_len=1.0, n=8)
        rng = np.random.default_rng(2)
        theta, m = rng.standard_normal(g.shape), rng.standard_normal((2,) + g.shape)
        assert solver_norms(g, theta, m, 2.0, 3.5)["pair_q1_j0"] == lp_norm(theta, g, 2) + lp_norm(m, g, 2)

    def test_constant_any_order(self):
        g = Grid(dim=2, box_len=1.0, n=8)
        theta, m = np.full(g.shape, 1.3), np.full((2,) + g.shape, -0.4)
        out = solver_norms(g, theta, m, 2.0, 3.5)
        for label, q in (("q1", 2.0), ("q2", 3.5)):
            assert out[f"pair_w32_{label}"] == pytest.approx(lp_norm(theta, g, q) + lp_norm(m, g, q), abs=1e-12)

    def test_plane_wave_derivative_ratio(self):
        g = Grid(dim=1, box_len=5.0, n=64)
        k = 2 * np.pi / g.box_len
        f = np.sin(k * g.axis_coords())
        w3 = solver_norms(g, f, np.zeros((1,) + g.shape), 2.0, 3.5)["pair_w32_q1"]
        assert w3 / lp_norm(f, g, 2) == pytest.approx(1.0 + k + k**2 + k**3, rel=1e-12)

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8), (3, 8)])
    def test_nyquist_rule_keeps_values(self, dim, n):
        """Against .real of the bare (i xi)^alpha multiplier, on white noise with full Nyquist content."""
        g = Grid(dim=dim, box_len=3.0, n=n)
        rng = np.random.default_rng(dim)
        theta, m = rng.standard_normal(g.shape), rng.standard_normal((dim,) + g.shape)
        for qs in ((2.0, 3.5), (np.inf, 1.5)):
            out = solver_norms(g, theta, m, *qs)
            for label, q in zip(("q1", "q2"), qs):
                want = sobolev_norm(theta, g, 3, q) + sobolev_norm(m, g, 2, q)
                assert out[f"pair_w32_{label}"] == pytest.approx(want, rel=1e-14, abs=0.0)


class TestMassRadius:
    def test_gaussian_radius(self):
        g = Grid(dim=2, box_len=40.0, n=128)
        f = gaussian_bump(g, (20.0, 20.0), 2.0, 1.0)
        r = mass_radius(f, g)
        # 99% of |f| mass of a 2d gaussian profile lies within ~3.03 sigma
        assert 2.0 * 2.7 <= r <= 2.0 * 3.4

    def test_zero_field(self):
        g = Grid(dim=1, box_len=1.0, n=16)
        assert mass_radius(np.zeros(16), g) == 0.0


class TestMassRadiusTrust:
    """The default trust mode: every sample in the fit window has its 99%-mass radius within a quarter of the box."""

    def test_measurement_trusts_radii_within_a_quarter_box(self, oscillatory_params):
        g = Grid(dim=2, box_len=40.0, n=64)
        theta = gaussian_bump(g, (20.0, 20.0), 2.0, 1.0)
        data = full_spectrum(State(grid=g, fields=np.concatenate([theta[None], np.zeros((2,) + g.shape)])))
        times = np.geomspace(0.1, 20.0, 10)
        meas = measure_semigroup_decay(data, oscillatory_params, times, band="full", p=2.0)
        assert meas.trust_limit == g.box_len / 4
        verdicts = set()
        for lo, hi in [(0.1, 20.0), (0.1, 2.0), (1.0, 3.5), (1.0, 12.0), (5.0, 20.0)]:
            want = bool(np.all(meas.trust_radii[(times >= lo) & (times <= hi)] <= g.box_len / 4))
            assert meas.trust_ok((lo, hi)) is want
            assert meas.trust_ok((lo, hi), "mass_radius") is want
            verdicts.add(want)
        assert verdicts == {True, False}

    def test_radius_on_the_limit_is_trusted(self):
        limit = 6.0
        meas = DecayMeasurement(
            series=NormSeries(times=np.arange(1.0, 6.0), values=np.ones(5)),
            trust_radii=np.array([1.0, limit, limit, np.nextafter(limit, np.inf), 1.0]),
            trust_limit=limit,
            edge_leaks=np.zeros(5),
            band_modes=1,
        )
        assert meas.trust_ok((1.0, 3.0))
        assert not meas.trust_ok((1.0, 4.0))
        assert not meas.trust_ok((4.0, 5.0))
        assert meas.trust_ok((5.0, 5.0))
        assert meas.trust_ok((1.0, 5.0), "edge_leak")



class TestBoxCenter:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_generated_fields_point_symmetric_about_box_center(self, dim):
        """Every generator centers its data where the trust geometry measures from: the magnitude of
        each real field is unchanged by the point reflection about the box center, index i -> -i mod n,
        and sits closer to the box center than to the other fixed point of that reflection, the origin."""
        g = Grid(dim=dim, box_len=12.0, n=16)
        pair = riesz_momentum_pair(g, 0.5 * dim, 5.0, rng=np.random.default_rng(4))
        states = [*pair, curl_mixture_momentum_state(g, 2.5, 0.3, 2.0), transverse_packet(g, 1.5)]
        mags = [np.sqrt(np.sum(to_real(s).m ** 2, axis=0)) for s in states]
        theta = nonlinear_initial_state(
            g, theta_amplitude=0.1, theta_width=1.6, m_amplitude=0.05, m_envelope_width=1.6, m_smooth_width=1.2,
            rng=np.random.default_rng(4),
        )[0].theta
        mags.append(np.abs(theta))
        mirror = np.ix_(*[-np.arange(g.n) % g.n] * dim)
        for mag in mags:
            assert np.max(mag) > 0.0
            assert np.max(np.abs(mag[mirror] - mag)) <= 1e-13 * np.max(mag)
            assert np.sum(mag * g.periodic_r_sq()) < np.sum(mag * g.periodic_r_sq(np.zeros(dim)))


class TestWeightedSup:
    def test_ell_zero_constant(self):
        s = NormSeries(times=np.linspace(0, 10, 11), values=np.full(11, 3.0))
        assert weighted_sup(s, 0.0, (0, 10)) == 3.0

    def test_single_sample_weight(self):
        s = NormSeries(times=np.array([1.0]), values=np.array([5.0]))
        assert weighted_sup(s, 1.0, (1.0, 1.0)) == pytest.approx(10.0)

    def test_exact_cancellation(self):
        t = np.linspace(0, 20, 41)
        ell = 1.3
        s = NormSeries(times=t, values=(1 + t) ** (-ell))
        assert weighted_sup(s, ell, (0, 20)) == pytest.approx(1.0)

    def test_uncovered_window(self):
        s = NormSeries(times=np.array([2.0, 3.0]), values=np.array([1.0, 1.0]))
        with pytest.raises(WindowUncovered):
            weighted_sup(s, 0.0, (0.0, 3.0))


class TestAggregateN:
    def _bundle(self, value=0.0):
        t = np.linspace(0, 10, 21)
        return {
            k: NormSeries(times=t, values=np.full(21, value))
            for k in (
                "pair_linf_j0",
                "pair_linf_j1",
                "pair_q1_j0",
                "pair_q1_j1",
                "pair_q2_j0",
                "pair_q2_j1",
                "pair_w32_q1",
                "pair_w32_q2",
                "dt_pair_w10_q1",
                "dt_pair_w10_q2",
            )
        }

    def test_zero_bundle(self):
        assert aggregate_N(self._bundle(0.0), dim=3, p=4, q1=2.5, q2=15.0, tau=0.35, t=10.0) == 0.0

    def test_single_constituent(self):
        bundle = self._bundle(0.0)
        t = np.linspace(0, 10, 21)
        bundle["pair_linf_j0"] = NormSeries(times=t, values=(1 + t) ** (-3.0 / 2.5))
        got = aggregate_N(bundle, dim=3, p=4, q1=2.5, q2=15.0, tau=0.35, t=10.0)
        # the double sum counts each j-group once per i in {1, 2}
        assert got == pytest.approx(2.0, rel=1e-12)

    def test_missing_constituent_listed(self):
        bundle = self._bundle()
        del bundle["pair_w32_q2"]
        with pytest.raises(MissingConstituent, match="pair_w32_q2"):
            aggregate_N(bundle, dim=3, p=4, q1=2.5, q2=15.0, tau=0.35, t=10.0)

    def test_monotone_in_t(self):
        rng = np.random.default_rng(5)
        bundle = self._bundle()
        t = np.linspace(0, 10, 21)
        for k in bundle:
            bundle[k] = NormSeries(times=t, values=rng.uniform(0.1, 1.0, size=21))
        vals = [aggregate_N(bundle, dim=3, p=4, q1=2.5, q2=15.0, tau=0.35, t=tt) for tt in (2.0, 5.0, 8.0, 10.0)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestFitDecay:
    def test_exact_power_law_recovered(self):
        t = np.geomspace(1.0, 100.0, 40)
        for c in (1.0, 7.3, 2e-4):
            s = NormSeries(times=t, values=c * t ** (-1.5))
            rep = fit_decay(s, (1.0, 100.0), dim=3, p=np.inf, q=2, j=0)
            assert abs(rep.fitted_exponent + 1.5) <= 1e-9
            assert rep.residual <= 1e-12

    def test_predicted_exponents(self):
        assert predicted_decay_exponent(3, np.inf, 2, 0) == pytest.approx(-0.75)
        assert predicted_decay_exponent(2, 2, 2, 1) == pytest.approx(-0.5)
        assert predicted_decay_exponent(3, np.inf, 1, 0) == pytest.approx(-1.5)

    def test_verdict_rule(self):
        t = np.geomspace(5.0, 50.0, 25)
        s = NormSeries(times=t, values=t ** (-0.78))
        rep = fit_decay(s, (5.0, 50.0), dim=3, p=np.inf, q=2, j=0)
        assert rep.verdict  # |-0.78 + 0.75| <= 0.1
        s2 = NormSeries(times=t, values=t ** (-1.5))
        rep2 = fit_decay(s2, (5.0, 50.0), dim=3, p=np.inf, q=2, j=0)
        assert not rep2.verdict

    def test_nonpositive_series(self):
        t = np.linspace(1.0, 10.0, 10)
        v = np.ones(10)
        v[4] = 0.0
        with pytest.raises(NonPositiveSeries):
            fit_decay(NormSeries(times=t, values=v), (1.0, 10.0), dim=2, p=2, q=2, j=0)

    def test_trust_window_enforced(self):
        t = np.geomspace(1.0, 100.0, 30)
        s = NormSeries(times=t, values=t ** (-1.0))
        rep = fit_decay(s, (1.0, 100.0), dim=2, p=2, q=2, j=0, trust_ok=False)
        assert not rep.trust_window_ok and not rep.verdict

    def test_to_dict_lists_every_field_and_the_verdict(self):
        rep = DecayReport(
            fitted_exponent=-1.02,
            predicted_exponent=-1.0,
            fit_window=(5.0, 50.0),
            residual=0.01,
            tol_exp=0.1,
            trust_window_ok=True,
            n_samples=12,
            in_scope=False,
            descriptor={"p": "inf", "j": 0},
        )
        assert rep.to_dict() == {
            "fitted_exponent": -1.02,
            "predicted_exponent": -1.0,
            "fit_window": [5.0, 50.0],
            "residual": 0.01,
            "tol_exp": 0.1,
            "trust_window_ok": True,
            "n_samples": 12,
            "in_scope": False,
            "verdict": True,
            "descriptor": {"p": "inf", "j": 0},
        }
        assert rep.to_dict()["descriptor"] is not rep.descriptor

    def test_scope_flag(self):
        assert in_theorem_scope(np.inf, 2.0)
        assert in_theorem_scope(2.0, 2.0)
        assert not in_theorem_scope(np.inf, np.inf)
        assert not in_theorem_scope(2.0, 3.0)


class TestAblation:
    @staticmethod
    def ablation(seed, n, box_len, support_radius, amplitude, times, fit_window):
        return config_from_dict(
            {
                "kind": "ablation",
                "seed": seed,
                "params": {"mu": 1.0, "nu": 0.8, "kappa": 0.7875, "rho_ref": 1.0},
                "grid": {"dim": 2, "n": n, "box_len": box_len},
                "data": {"kind": "riesz_divergence", "gamma": 1.0, "support_radius": support_radius, "amplitude": amplitude},
                "times": times,
                "exponents": {"p": "inf", "q": 2.0, "j": 0},
                "fit_window": fit_window,
                "trust_mode": "edge_leak",
            }
        )

    def test_zero_initial_data_skips(self, tmp_path):
        cfg = self.ablation(1, 32, 24.0, 5.0, 0.0, {"t_min": 0.5, "t_max": 8.0, "count": 8}, [1.0, 6.0])
        report = run_scenario(cfg, tmp_path).report
        assert report["skipped"]
        assert report["gap"] is None

    def test_small_grid_gap_positive(self, tmp_path):
        """Generic momentum decays strictly slower even at desk scale."""
        cfg = self.ablation(3, 64, 48.0, 11.0, 1.0, {"t_min": 0.8, "t_max": 14.0, "count": 12}, [1.5, 10.0])
        report = run_scenario(cfg, tmp_path).report
        assert not report["skipped"]
        assert report["generic"]["fitted_exponent"] > report["divergence"]["fitted_exponent"]


class TestLpTimeNorm:
    def test_matches_analytic_integral(self):
        t = np.linspace(0.0, 10.0, 2001)
        s = NormSeries(times=t, values=np.exp(-t))
        got = lp_time_norm(s, 2.0, (0.0, 10.0))
        want = np.sqrt((1 - np.exp(-20.0)) / 2.0)
        assert got == pytest.approx(want, rel=1e-5)

    def test_trapezoid_self_convergence(self):
        tc = np.linspace(0.0, 10.0, 101)
        tf = np.linspace(0.0, 10.0, 201)
        f = lambda t: (1 + t) ** (-0.8)
        coarse = lp_time_norm(NormSeries(times=tc, values=f(tc)), 4.0, (0.0, 10.0))
        fine = lp_time_norm(NormSeries(times=tf, values=f(tf)), 4.0, (0.0, 10.0))
        assert abs(coarse - fine) <= 0.01 * fine


def _reference_decay_value(evolved, p, j, w10):
    """Pair norm from the real fields, every derivative a real-space round trip."""
    grid = evolved.grid
    st = to_real(evolved)
    th, m = (st.theta, st.m) if j == 0 else (np.stack(list(partials(f, grid, 1))) for f in (st.theta, st.m))
    return sobolev_norm(th, grid, 1 if w10 else 0, p) + lp_norm(m, grid, p)


class TestDecayMeasurementFromSpectrum:
    TIMES = (0.05, 0.4, 1.5)

    @pytest.mark.parametrize("p", [2.0, 4.0])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_real_space_reference(self, oscillatory_params, dim, p):
        """Parseval (p = 2) and hat-derivative (p = 4) values agree with the real-space norms."""
        rng = np.random.default_rng(300 + dim)
        g = Grid(dim=dim, box_len=6.0, n=8)
        data = random_spectrum(g, rng)
        for j in (0, 1):
            for w10 in (False, True):
                meas = measure_semigroup_decay(data, oscillatory_params, self.TIMES, band="full", p=p, j=j, w10=w10)
                for t, got in zip(self.TIMES, meas.series.values):
                    want = _reference_decay_value(apply_semigroup(data, oscillatory_params, t), p, j, w10)
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0), (j, w10, t)

    def test_l2_transform_budget_dim3(self, oscillatory_params, fft_calls):
        """At p = 2 only the trust diagnostics transform: dim + 1 inverse FFTs per sample (32 before)."""
        g = Grid(dim=3, box_len=6.0, n=8)
        data = random_spectrum(g, np.random.default_rng(4))
        measure_semigroup_decay(data, oscillatory_params, self.TIMES, band="high", p=2.0, j=1, w10=True)
        assert len(fft_calls) <= (g.dim + 1) * len(self.TIMES)
        assert set(fft_calls) == {"irfftn"}


class TestTrustReadOut:
    """A decay sample transforms theta only where its trust diagnostics can pick it: at p = 2 when the bound on its
    peak reaches m's peak, and always at any other p, where it enters the norm."""

    TIMES = (0.05, 0.4, 1.5)

    @staticmethod
    def _assert_dominant_diagnostics(meas, data, params, times, theta_dominant):
        g = data.grid
        for it, t in enumerate(times):
            st = to_real(apply_semigroup(data, params, t))
            assert (np.max(np.abs(st.theta)) > np.max(np.abs(st.m))) == theta_dominant
            dominant = st.theta if theta_dominant else st.m
            assert meas.trust_radii[it] == mass_radius(dominant, g)
            assert meas.edge_leaks[it] == edge_leakage(dominant, g)

    def test_divergence_free_datum_reads_m_alone(self, oscillatory_params, fft_calls):
        g = Grid(dim=3, box_len=12.0, n=16)
        data = curl_mixture_momentum_state(g, 2.5, 0.3, 1.5)
        meas = measure_semigroup_decay(data, oscillatory_params, self.TIMES, band="full", p=2.0, j=1, w10=True)
        assert fft_calls == ["irfftn"] * g.dim * len(self.TIMES)
        self._assert_dominant_diagnostics(meas, data, oscillatory_params, self.TIMES, theta_dominant=False)

    def test_theta_dominated_datum_reads_theta(self, oscillatory_params, fft_calls):
        g = Grid(dim=3, box_len=12.0, n=16)
        theta = gaussian_bump(g, np.full(3, 6.0), 1.6, 1.0)
        data = full_spectrum(State(grid=g, fields=np.stack([theta] + [np.zeros(g.shape)] * 3)))
        fft_calls.clear()
        meas = measure_semigroup_decay(data, oscillatory_params, self.TIMES, band="full", p=2.0, j=1, w10=True)
        assert fft_calls == ["irfftn"] * (g.dim + 1) * len(self.TIMES)
        self._assert_dominant_diagnostics(meas, data, oscillatory_params, self.TIMES, theta_dominant=True)

    def test_p_inf_always_reads_theta(self, oscillatory_params, fft_calls):
        g = Grid(dim=3, box_len=12.0, n=16)
        data = curl_mixture_momentum_state(g, 2.5, 0.3, 1.5)
        meas = measure_semigroup_decay(data, oscillatory_params, self.TIMES, band="full", p=np.inf, j=0)
        assert fft_calls == ["irfftn"] * (g.dim + 1) * len(self.TIMES)
        self._assert_dominant_diagnostics(meas, data, oscillatory_params, self.TIMES, theta_dominant=False)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_peak_bound_bounds_the_read_out(self, dim):
        """The bound holds for any half row, its self-mirror planes not Hermitian included, and is reached by a
        single mode."""
        g = Grid(dim=dim, box_len=5.0, n=8)
        rng = np.random.default_rng(60 + dim)
        buf = np.empty(g.half_shape)
        for _ in range(20):
            row = rng.standard_normal(g.half_shape) + 1j * rng.standard_normal(g.half_shape)
            assert np.max(np.abs(irfftn(row, g))) <= analysis_mod._peak_bound(row, g, buf)
        spike = np.zeros(g.half_shape, dtype=complex)
        spike[(0,) * dim] = g.mode_count
        assert analysis_mod._peak_bound(spike, g, buf) == np.max(irfftn(spike, g)) == 1.0


class TestSeriesOnOnePath:
    """Both series loops apply S(t) through one orbit per series and form each sample's magnitude once."""

    TIMES = (0.05, 0.4, 1.5, 3.0)

    def test_decay_series_matches_per_sample_reference(self, oscillatory_params):
        g = Grid(dim=3, box_len=6.0, n=8)
        data = random_spectrum(g, np.random.default_rng(41))
        for p in (2.0, np.inf):
            meas = measure_semigroup_decay(data, oscillatory_params, self.TIMES, band="full", p=p, j=1, w10=True)
            for it, t in enumerate(self.TIMES):
                st = to_real(apply_semigroup(data, oscillatory_params, t))
                dominant = st.theta if np.max(np.abs(st.theta)) > np.max(np.abs(st.m)) else st.m
                assert meas.trust_radii[it] == mass_radius(dominant, g)
                assert meas.edge_leaks[it] == edge_leakage(dominant, g)
                want = _reference_decay_value(apply_semigroup(data, oscillatory_params, t), p, 1, True)
                assert meas.series.values[it] == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_theta_low_band_series_matches_per_sample_reference_bitwise(self, oscillatory_params):
        g = Grid(dim=2, box_len=24.0, n=32)
        data = random_spectrum(g, np.random.default_rng(42))
        cutoff = default_cutoff(g)
        meas = theta_low_band_series(data, oscillatory_params, self.TIMES, cutoff, np.inf)
        low = frequency_split(data, cutoff)[0]
        for it, t in enumerate(self.TIMES):
            theta = to_real(apply_semigroup(low, oscillatory_params, t)).theta
            assert meas.series.values[it] == lp_norm(theta, g, np.inf)
            assert meas.trust_radii[it] == mass_radius(theta, g)
            assert meas.edge_leaks[it] == edge_leakage(theta, g)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_magnitude_in_place_bitwise_equal(self, dim):
        """A decay sample's momentum read-out, one row at a time into one real row, is :func:`_magnitude` of the
        stacked real fields, and its peak their largest |m_j|, bit for bit."""
        g = Grid(dim=dim, box_len=5.0, n=8 if dim < 4 else 4)
        rng = np.random.default_rng(45 + dim)
        rows = rng.standard_normal((dim,) + g.half_shape) + 1j * rng.standard_normal((dim,) + g.half_shape)
        m = np.stack([irfftn(row, g) for row in rows])
        out = np.empty(g.shape)
        mag, peak = analysis_mod._momentum_magnitude(rows, g, out, np.empty(g.shape))
        assert mag is out and np.array_equal(mag, analysis_mod._magnitude(m, g))
        assert peak == max(np.max(m), -np.min(m))

    def test_series_never_alias_workspace(self, oscillatory_params, monkeypatch):
        """Every array a measurement returns is its own, whatever the workspace buffers hold later."""
        made = []

        class Recorded(spectral_mod.Workspace):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(analysis_mod, "Workspace", Recorded)
        g = Grid(dim=2, box_len=24.0, n=32)
        data = random_spectrum(g, np.random.default_rng(46))
        measurements = [
            measure_semigroup_decay(data, oscillatory_params, self.TIMES, band=band, p=p, j=j, w10=True)
            for band, p, j in (("full", 2.0, 1), ("high", np.inf, 0))
        ]
        measurements.append(theta_low_band_series(data, oscillatory_params, self.TIMES, default_cutoff(g), np.inf))
        assert len(made) == 3
        buffers = [b for ws in made for b in vars(ws).values() if isinstance(b, np.ndarray)]
        for meas in measurements:
            for arr in (meas.series.times, meas.series.values, meas.trust_radii, meas.edge_leaks):
                assert not any(np.shares_memory(arr, b) for b in buffers)

    def test_decay_series_kernel_budget(self, oscillatory_params, kernel_sizes):
        """One decay series evaluates the kernels on at most the distinct |xi|^2 per sample."""
        g = Grid(dim=3, box_len=6.0, n=8)
        data = random_spectrum(g, np.random.default_rng(43))
        measure_semigroup_decay(data, oscillatory_params, self.TIMES, band="high", p=2.0, j=1, w10=True)
        assert sum(kernel_sizes) <= g.radial_values.size * len(self.TIMES)

    def test_theta_low_band_series_budget(self, oscillatory_params, kernel_sizes, fft_calls):
        """One inverse transform and at most the distinct |xi|^2 kernel values per sample, no forward transform."""
        g = Grid(dim=2, box_len=24.0, n=32)
        data = random_spectrum(g, np.random.default_rng(44))
        theta_low_band_series(data, oscillatory_params, self.TIMES, default_cutoff(g), np.inf)
        assert fft_calls == ["irfftn"] * len(self.TIMES)
        assert sum(kernel_sizes) <= g.radial_values.size * len(self.TIMES)


class TestDecayMemoryBudget:
    """A series holds at most the datum and the orbit while it forms the orbit, and the orbit and its workspace
    while it samples: the datum handed over is freed once the orbit is built, and no full-layout band is formed.
    Each call's tracemalloc peak, its datum included, is pinned in half stacks, (dim + 1) complex half-layout rows;
    the full datum is n / (n/2 + 1) of them.  Forming the full-layout band, or keeping the datum while sampling,
    adds about 1.9 half stacks to the peak."""

    TIMES = (0.35, 0.8, 1.7, 3.5, 6.5)

    @staticmethod
    def traced_peak(call) -> int:
        """The traced peak of call(), after a first untraced call fills every per-grid cache."""
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def half_stack(grid) -> int:
        return (grid.dim + 1) * math.prod(grid.half_shape) * np.dtype(complex).itemsize

    def test_high_band_decay_series(self, oscillatory_params):
        g = Grid(dim=3, box_len=24.0, n=32)
        datum = curl_mixture_momentum_state(g, 2.5, 0.9, 1.75)

        def call():  # the copy is made inside the trace and handed over, so no frame but the series' holds it
            measure_semigroup_decay(
                SpectralState(grid=g, hat=datum.hat.copy()), oscillatory_params, self.TIMES, band="high", p=2.0, j=1, w10=True
            )

        assert self.traced_peak(call) <= 5.0 * self.half_stack(g)

    def test_low_band_theta_series(self, oscillatory_params):
        g = Grid(dim=2, box_len=24.0, n=64)
        datum = next(riesz_momentum_pair(g, 1.0, 0.98 * g.box_len / 4, rng=np.random.default_rng(3)))

        def call():
            theta_low_band_series(
                SpectralState(grid=g, hat=datum.hat.copy()), oscillatory_params, self.TIMES, default_cutoff(g), np.inf
            )

        assert self.traced_peak(call) <= 4.5 * self.half_stack(g)

    def test_riesz_pair_first_member(self):
        """Forming the divergence member holds that member, the kernel and one scratch row: 3.62 half stacks.
        Forming both members at once, out of place, peaks at 6.25."""
        g = Grid(dim=2, box_len=24.0, n=128)

        def call():
            next(riesz_momentum_pair(g, 1.0, 0.98 * g.box_len / 4, rng=np.random.default_rng(3)))

        assert self.traced_peak(call) <= 4.0 * self.half_stack(g)

    @pytest.mark.parametrize("dim,n,budget", [(2, 128, 6.0), (3, 32, 5.0)])
    def test_ablation_run(self, tmp_path, dim, n, budget):
        """An ablation run holds one member of the pair at a time: 5.49 half stacks at dim 2 and 4.40 at dim 3.
        Building both members before either series peaks at 6.93 and 5.81; keeping the divergence member
        through the generic series costs about another 1.9."""
        cfg = config_from_dict(
            {
                "kind": "ablation",
                "seed": 7,
                "params": {"mu": 1.0, "nu": 0.8, "kappa": 0.7875, "rho_ref": 1.0},
                "grid": {"dim": dim, "n": n, "box_len": 48.0},
                "data": {"kind": "riesz_divergence", "gamma": dim / 2, "amplitude": 1.0},
                "times": {"t_min": 0.8, "t_max": 14.0, "count": 5},
                "exponents": {"p": "inf", "q": 2.0, "j": 0},
                "fit_window": [1.5, 10.0],
                "trust_mode": "edge_leak",
            }
        )
        g = Grid(dim=dim, box_len=48.0, n=n)
        assert self.traced_peak(lambda: run_scenario(cfg, tmp_path)) <= budget * self.half_stack(g)


class TestLeanReadOut:
    """A decay read-out holds no full-size temporary: the grids keep only half-layout tables, the orbit of
    divergence-free data keeps no theta row, and every inverse transform of a sample lands in its workspace."""

    TIMES = (0.35, 1.7)

    def test_series_leave_no_full_layout_array_on_a_grid(self, oscillatory_params, monkeypatch):
        orbits = []

        class Recorded(spectral_mod.SemigroupOrbit):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                orbits.append(self)

        monkeypatch.setattr(analysis_mod, "SemigroupOrbit", Recorded)
        g = Grid(dim=3, box_len=24.0, n=16)
        data = curl_mixture_momentum_state(g, 2.5, 0.9, 1.75)
        for band, p in (("low", 2.0), ("high", 2.0), ("high", np.inf)):
            measure_semigroup_decay(data, oscillatory_params, self.TIMES, band=band, p=p, j=1, w10=True)
        theta_low_band_series(random_spectrum(g, np.random.default_rng(7)), oscillatory_params, self.TIMES, default_cutoff(g), np.inf)
        assert len(orbits) == 4 and orbits[0].eval_grid != g
        for grid in [g] + [orbit.eval_grid for orbit in orbits]:
            held = [name for name, v in vars(grid).items() if isinstance(v, np.ndarray) and v.shape == grid.shape]
            assert held == [], grid

    def test_orbit_of_divergence_free_data_keeps_no_theta_row(self, oscillatory_params):
        g = Grid(dim=3, box_len=24.0, n=16)
        orbit = spectral_mod.SemigroupOrbit(curl_mixture_momentum_state(g, 2.5, 0.9, 1.75), oscillatory_params, "high", default_cutoff(g))
        assert orbit._theta is None and orbit._mirror_theta is None
        held = [v.shape[: -g.dim] for v in vars(orbit).values() if isinstance(v, np.ndarray) and v.shape[-g.dim :] == g.half_shape]
        assert sum(math.prod(lead) for lead in held) == g.dim + 1  # m and its a_hat

    def test_sample_allocates_no_real_row(self, oscillatory_params):
        """At 64^3 one sample's traced peak above its live set (orbit, workspace and trust geometry, all built before
        the trace) is its mirror-set temporaries, about 1.15 MiB: under one real row (2.0 MiB), hence within one
        half-layout row, where a transform output allocated per sample alone makes it one real row."""
        g = Grid(dim=3, box_len=96.0, n=64)
        orbit = spectral_mod.SemigroupOrbit(curl_mixture_momentum_state(g, 2.5, 0.3, 7.0), oscillatory_params, "high", spectral_mod.CutoffSpec(0.075))
        ws, trust = spectral_mod.Workspace(g), analysis_mod._TrustGeometry(g)
        for p, j, w10 in ((2.0, 1, True), (np.inf, 0, False)):
            analysis_mod._decay_sample(orbit, ws, 0.35, p, j, w10, trust)  # fills every per-grid cache
            tracemalloc.start()
            try:
                analysis_mod._decay_sample(orbit, ws, 1.7, p, j, w10, trust)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * g.mode_count, p


class TestLowBandCount:
    """A series counts the modes of its low band once, with no full-layout float temporary, and records the
    count of the full-layout formula."""

    TIMES = (0.35, 1.7)

    @staticmethod
    def reference(grid, cutoff) -> int:
        xi_abs = np.sqrt(grid.xi_sq)
        return int(np.count_nonzero((xi_abs <= 2.0 * cutoff.eps) & (xi_abs > 0.0)))

    @pytest.mark.parametrize("dim,n", [(1, 2), (1, 64), (2, 32), (3, 16), (4, 8)])
    def test_count_equals_full_layout_formula(self, dim, n):
        g = Grid(dim=dim, box_len=24.0, n=n)
        for eps in (0.1, 0.3, 3 * np.pi / g.box_len, g.xi_max / 4.0, g.xi_max):
            cut = spectral_mod.CutoffSpec(eps=eps)
            assert spectral_mod.low_band_mode_count(g, cut) == self.reference(g, cut), eps

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        count = spectral_mod.low_band_mode_count

        def wrapper(grid, cutoff):
            calls.append(grid)
            return count(grid, cutoff)

        monkeypatch.setattr(spectral_mod, "low_band_mode_count", wrapper)
        monkeypatch.setattr(analysis_mod, "low_band_mode_count", wrapper, raising=False)  # an imported name counts too
        return calls

    @pytest.mark.parametrize("band", ["low", "high", "full"])
    def test_decay_series_counts_once(self, oscillatory_params, counted, band):
        g = Grid(dim=2, box_len=24.0, n=32)
        data = random_spectrum(g, np.random.default_rng(5))
        meas = measure_semigroup_decay(data, oscillatory_params, self.TIMES, band=band, p=2.0)
        assert counted == [g]
        assert meas.band_modes == self.reference(g, default_cutoff(g))

    def test_theta_series_counts_once(self, oscillatory_params, counted):
        g = Grid(dim=2, box_len=24.0, n=32)
        data = random_spectrum(g, np.random.default_rng(6))
        meas = theta_low_band_series(data, oscillatory_params, self.TIMES, default_cutoff(g), np.inf)
        assert counted == [g]
        assert meas.band_modes == self.reference(g, default_cutoff(g))

    def test_count_makes_no_full_layout_float_temporary(self):
        g = Grid(dim=3, box_len=24.0, n=64)
        g.half_xi_sq  # cached before the trace
        tracemalloc.start()
        try:
            spectral_mod.low_band_mode_count(g, default_cutoff(g))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < g.xi_sq.nbytes / 2
