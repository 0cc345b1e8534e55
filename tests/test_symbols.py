import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from nsklab.model import critical_quadratic, make_params
from nsklab.symbols import (
    Regime,
    discriminant,
    eigenvalues,
    generator_matrix,
    matexp_oracle,
    matexp_oracle_ode,
    phi_multiplier_tables,
    solution_symbol,
)

from conftest import random_params


def _params(mu, nu, kappa, rho=1.0):
    return make_params(mu, nu, kappa, rho, critical_quadratic(1.0, rho))


def rel_frobenius(A, B):
    return np.linalg.norm(A - B) / np.linalg.norm(B)


def sample_time(rng, params, xi_sq, t_max=10.0):
    """Random time inside the envelope where the propagator is not vanishingly small."""
    rate = max(params.alpha_star, 0.5 * (params.alpha_star + params.beta_star))
    cap = 25.0 / (rate * xi_sq) if xi_sq > 0 else t_max
    return rng.uniform(0.0, min(t_max, cap))


class TestDiscriminant:
    def test_positive_real(self):
        d = discriminant(_params(2.0, 1.0, 1.0))  # alpha+beta=3, delta = 9/4-1
        assert d.regime is Regime.POSITIVE_REAL
        assert d.value == pytest.approx(1.25)

    def test_exact_cancellation_degenerate(self):
        d = discriminant(_params(1.0, 1.0, 1.0))  # (2)^2/4 - 1 = 0
        assert d.regime is Regime.DEGENERATE
        assert d.value == 0.0

    def test_negative_oscillatory(self):
        d = discriminant(_params(1.0, 0.0, 1.0))  # 1/4 - 1 = -3/4
        assert d.regime is Regime.NEGATIVE_OSCILLATORY
        assert d.value == pytest.approx(-0.75)


class TestEigenvalues:
    def test_real_pair_by_substitution(self):
        # alpha+beta = 4, delta* = 4 - 1 = 3, |xi|^2 = 1
        p = _params(2.0, 2.0, 1.0)
        lp, lm = eigenvalues(p, 1.0)
        assert lp == pytest.approx(-2.0 + np.sqrt(3.0))
        assert lm == pytest.approx(-2.0 - np.sqrt(3.0))

    def test_zero_frequency(self):
        for p in (_params(2.0, 2.0, 1.0), _params(1.0, 1.0, 1.0), _params(1.0, 0.0, 1.0)):
            lp, lm = eigenvalues(p, 0.0)
            assert lp == 0.0 and lm == 0.0

    def test_oscillatory_real_part(self):
        p = _params(1.0, 0.0, 1.0)
        for xi_sq in (0.3, 1.0, 7.5):
            lp, lm = eigenvalues(p, xi_sq)
            assert lp.real == pytest.approx(-0.5 * (p.alpha_star + p.beta_star) * xi_sq)
            assert lp == np.conj(lm)

    def test_decay_margin_positive(self):
        """Re lambda_pm <= -c |xi|^2 with c = (a+b)/2 - sqrt(max(delta,0)) > 0."""
        rng = np.random.default_rng(11)
        for regime in ("positive", "negative", "degenerate"):
            for _ in range(20):
                p = random_params(rng, regime)
                c = 0.5 * (p.alpha_star + p.beta_star) - np.sqrt(max(p.delta_star, 0.0))
                assert c > 0.0
                xi_sq = rng.uniform(0.01, 50.0)
                lp, lm = eigenvalues(p, xi_sq)
                assert lp.real <= -c * xi_sq * (1.0 - 1e-12)
                assert lm.real <= -c * xi_sq * (1.0 - 1e-12)


class TestGeneratorMatrix:
    def test_zero_wavevector(self):
        A = generator_matrix(_params(1.0, 1.0, 1.0), np.zeros(3))
        assert np.all(A == 0.0)

    def test_trace(self):
        rng = np.random.default_rng(5)
        for dim in (1, 2, 3, 4):
            p = _params(1.3, 0.4, 0.9)
            xi = rng.standard_normal(dim)
            A = generator_matrix(p, xi)
            xi_sq = xi @ xi
            assert np.trace(A) == pytest.approx(-(p.alpha_star * dim + p.beta_star) * xi_sq)

    def test_longitudinal_block_eigenvalues_match_formula(self):
        """Numerical eigensolve of the (theta, xi.m) 2x2 block reproduces lambda_pm."""
        rng = np.random.default_rng(8)
        for regime in ("positive", "negative"):
            for _ in range(10):
                p = random_params(rng, regime)
                dim = int(rng.integers(1, 5))
                xi = rng.standard_normal(dim) * 2.0
                xi_sq = xi @ xi
                e = xi / np.sqrt(xi_sq)
                A = generator_matrix(p, xi)
                # restriction to span{(1,0), (0,e)}
                basis = np.zeros((dim + 1, 2), dtype=complex)
                basis[0, 0] = 1.0
                basis[1:, 1] = e
                block = basis.conj().T @ A @ basis
                got = np.linalg.eigvals(block)
                want = np.array(eigenvalues(p, xi_sq))
                direct = max(abs(got[0] - want[0]), abs(got[1] - want[1]))
                swapped = max(abs(got[0] - want[1]), abs(got[1] - want[0]))
                scale = max(1.0, float(np.max(np.abs(want))))
                assert min(direct, swapped) <= 1e-10 * scale


class TestMatexpOracle:
    def test_identity_at_zero_time(self):
        p = _params(1.0, 1.0, 1.0)
        xi = np.array([1.0, -2.0])
        assert np.allclose(matexp_oracle(p, xi, 0.0), np.eye(3))
        assert np.allclose(matexp_oracle_ode(p, xi, 0.0), np.eye(3))

    def test_transverse_heat_kernel(self):
        """With beta* ~ 0 and tiny capillary coupling, transverse momentum is scalar heat flow."""
        p = make_params(1.0, 0.0, 1e-14, 1.0, critical_quadratic(1.0, 1.0))
        xi = np.array([1.5, 0.0, 0.0])
        t = 0.7
        M = matexp_oracle(p, xi, t)
        heat = np.exp(-p.alpha_star * (xi @ xi) * t)
        assert M[2, 2] == pytest.approx(heat, rel=1e-12)
        assert M[3, 3] == pytest.approx(heat, rel=1e-12)

    def test_two_oracle_methods_agree(self):
        rng = np.random.default_rng(17)
        for regime in ("positive", "negative", "degenerate"):
            for _ in range(8):
                p = random_params(rng, regime)
                dim = int(rng.integers(1, 4))
                xi = rng.standard_normal(dim) * rng.uniform(0.2, 3.0)
                t = sample_time(rng, p, float(xi @ xi), t_max=5.0)
                A = matexp_oracle(p, xi, t)
                B = matexp_oracle_ode(p, xi, t)
                assert np.linalg.norm(A - B) <= 1e-11 * max(1.0, np.linalg.norm(A))


class TestSolutionSymbol:
    def test_identity_at_time_zero(self):
        rng = np.random.default_rng(2)
        for p in (_params(2.0, 2.0, 1.0), _params(1.0, 1.0, 1.0), _params(1.0, 0.0, 1.0)):
            xi = rng.standard_normal(3)
            assert np.allclose(solution_symbol(p, xi, 0.0), np.eye(4), atol=1e-15)

    def test_identity_at_zero_wavevector(self):
        p = _params(1.0, 0.3, 0.7)
        assert np.array_equal(solution_symbol(p, np.zeros(2), 3.0), np.eye(3))

    def test_matches_matexp_oracle_all_regimes(self):
        rng = np.random.default_rng(23)
        for regime in ("positive", "negative", "degenerate"):
            worst = 0.0
            for _ in range(60):
                p = random_params(rng, regime)
                dim = int(rng.integers(1, 5))
                xi = rng.standard_normal(dim) * rng.uniform(0.1, 3.0)
                t = sample_time(rng, p, float(xi @ xi))
                M = solution_symbol(p, xi, t)
                O = matexp_oracle(p, xi, t)
                worst = max(worst, rel_frobenius(M, O))
            assert worst <= 1e-10, f"{regime}: worst relative deviation {worst:.3e}"

    def test_semigroup_property_per_mode(self):
        rng = np.random.default_rng(31)
        for regime in ("positive", "negative", "degenerate"):
            for _ in range(15):
                p = random_params(rng, regime)
                dim = int(rng.integers(1, 4))
                xi = rng.standard_normal(dim)
                xi_sq = float(xi @ xi)
                t = sample_time(rng, p, xi_sq, t_max=5.0)
                s = sample_time(rng, p, xi_sq, t_max=5.0)
                both = solution_symbol(p, xi, t + s)
                split = solution_symbol(p, xi, t) @ solution_symbol(p, xi, s)
                assert np.linalg.norm(both - split) <= 1e-10 * max(1.0, np.linalg.norm(both))

    def test_transverse_block_is_exact_heat_kernel(self):
        rng = np.random.default_rng(41)
        for regime in ("positive", "negative", "degenerate"):
            p = random_params(rng, regime)
            dim = 3
            xi = rng.standard_normal(dim)
            xi_sq = float(xi @ xi)
            t = rng.uniform(0.0, 2.0 / xi_sq)
            v = rng.standard_normal(dim)
            v -= (v @ xi) / xi_sq * xi  # transverse
            M = solution_symbol(p, xi, t)
            out = M[1:, 1:] @ v
            assert np.allclose(out, np.exp(-p.alpha_star * xi_sq * t) * v, rtol=1e-12, atol=1e-14)

    def test_continuity_across_degeneracy(self):
        """Sweep delta* through 0 at fixed (xi, t): entries vary continuously."""
        xi = np.array([0.9, -0.4])
        t = 1.7
        rho = 1.0
        mu, nu = 1.0, 1.0
        scale = ((mu + nu) / rho) ** 2 / 4.0
        rels = np.concatenate([-np.logspace(-6, -12, 13), [0.0], np.logspace(-12, -6, 13)])
        mats = [
            solution_symbol(make_params(mu, nu, scale * (1.0 + r) / rho, rho, critical_quadratic(1.0, rho)), xi, t)
            for r in np.sort(rels)
        ]
        jumps = [np.max(np.abs(a - b)) for a, b in zip(mats, mats[1:])]
        assert max(jumps) <= 1e-6

    def test_phi_tables_match_quadrature_oracle(self):
        """phi_k(hA)(0,g) from the multiplier tables vs Gauss-Legendre integrals of expm."""
        def phi_mat(M, k):
            ident = np.eye(M.shape[0])
            if k == 1:
                return np.linalg.solve(M, expm(M) - ident)
            return np.linalg.solve(M @ M, expm(M) - ident - M)

        rng = np.random.default_rng(19)
        worst = 0.0
        for regime in ("positive", "negative", "degenerate"):
            for _ in range(10):
                p = random_params(rng, regime)
                dim = int(rng.integers(2, 4))
                xi = rng.standard_normal(dim) * rng.uniform(0.2, 2.0)
                xi_sq = float(xi @ xi)
                h = rng.uniform(0.02, 0.8)
                tabs = phi_multiplier_tables(p, np.array(xi_sq), h)
                A = generator_matrix(p, xi)
                g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                for name, k in (("phi1", 1), ("phi2", 2)):
                    D, B, T = (float(v) for v in tabs[name])
                    want = phi_mat(h * A, k) @ np.concatenate([[0.0], g])
                    xdotg = xi @ g
                    got = np.concatenate([[-1j * h * D * xdotg], T * g + (B - T) * xi * xdotg / xi_sq])
                    worst = max(worst, np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))))
        # table accuracy target: orders below the dt^2 scheme error they feed
        assert worst <= 1e-9

    def test_degenerate_formula_values(self):
        """Degenerate branch reproduces e^{l0 t}(1 - l0 t) on theta<-theta and t e^{l0 t} couplings."""
        p = _params(1.0, 1.0, 1.0)  # delta* = 0 exactly, lambda0 = -|xi|^2
        xi = np.array([1.2, 0.5])
        xi_sq = float(xi @ xi)
        t = 0.8
        lam0 = -0.5 * (p.alpha_star + p.beta_star) * xi_sq
        M = solution_symbol(p, xi, t)
        assert M[0, 0] == pytest.approx(np.exp(lam0 * t) * (1.0 - lam0 * t), rel=1e-13)
        assert np.allclose(M[0, 1:], -1j * t * np.exp(lam0 * t) * xi, rtol=1e-13)
        # m <- theta coupling: -i t e^{l0 t} lam0^2/|xi|^2 xi with lam0^2 = kappa rho |xi|^4
        want = -1j * t * np.exp(lam0 * t) * p.kappa_star * p.rho_star * xi_sq * xi
        assert np.allclose(M[1:, 0], want, rtol=1e-13)


def test_oracle_only_scipy_modules_load_on_first_use(tmp_path):
    """Importing the runner (and so every solver module) loads none of scipy.integrate, scipy.linalg, scipy.fft,
    scipy.special or scipy._lib._array_api: only the two matrix-exponential oracles need the first two, the
    transforms load scipy's pocketfft kernels from their file, and the Riesz data's Matern envelope is a quadrature.
    A small ablation run, which builds Riesz data, still loads no scipy.special."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    watched = ("scipy.integrate", "scipy.linalg", "scipy.fft", "scipy.special", "scipy._lib._array_api")
    code = f"import sys, nsklab.runner; print(sorted(m for m in {watched!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
    raw = {
        "kind": "ablation",
        "seed": 7,
        "params": {"mu": 1.0, "nu": 0.8, "kappa": 0.7875, "rho_ref": 1.0},
        "grid": {"dim": 2, "n": 32, "box_len": 48.0},
        "data": {"kind": "riesz_divergence", "gamma": 1.0, "support_radius": 11.0, "amplitude": 1.0},
        "times": {"t_min": 0.8, "t_max": 14.0, "count": 8},
        "exponents": {"p": "inf", "q": 2.0, "j": 0},
        "fit_window": [1.5, 10.0],
        "trust_mode": "edge_leak",
    }
    code = (
        "import sys; from nsklab.runner import run_scenario; from nsklab.scenario import config_from_dict; "
        f"run_scenario(config_from_dict({raw!r}), {str(tmp_path / 'abl')!r}); print('scipy.special' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "False"
