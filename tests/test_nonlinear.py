import dataclasses
import functools

import numpy as np
import pytest

from conftest import fd4
from nsklab.analysis import NormSeries, aggregate_N, fit_decay, measure_semigroup_decay
from nsklab.errors import RangeViolation, StepRejected, ValidationError, ValidityExceeded
from nsklab.fields import nonlinear_initial_state, riesz_momentum_pair, smooth_random_field
from nsklab.model import Grid, PressureLaw, SpectralState, State, critical_quadratic, gaussian_bump, make_params
from nsklab.nonlinear import (
    Etd2Stepper,
    StepState,
    _sample_fields,
    _scope_warnings,
    nonlinearity_g_hat,
    pressure_remainder,
    run,
    _sample_norms,
)
from nsklab.scenario import NonlinearExponentsBlock, NonlinearInitBlock, NonlinearRunConfig, ParamsBlock
from nsklab.spectral import apply_semigroup, dealias_mask, derivative, rfftn, to_real
from nsklab.symbols import phi_multiplier_tables


PARAMS = ParamsBlock(mu=1.0, nu=1.0, kappa=1.0, rho_ref=1.0, pressure_k=0.5)


@pytest.fixture
def params():
    return PARAMS.fluid()


def run_config(grid, **keys):
    """A nonlinear-run config on grid with the constants of the params fixture."""
    return NonlinearRunConfig(params=PARAMS, grid=grid, **keys)


def hermitian_extension(half_arr, grid):
    """The full-layout spectrum that stores half_arr and, on the other modes, the conjugate mirror."""
    h = grid.n // 2 + 1
    axes = tuple(range(half_arr.ndim - grid.dim, half_arr.ndim))
    full = np.zeros(half_arr.shape[:-1] + (grid.n,), dtype=complex)
    full[..., :h] = half_arr
    mirror = np.conj(np.roll(np.flip(full, axis=axes), 1, axis=axes))
    full[..., h:] = mirror[..., h:]
    return full


def read_out(hat, grid):
    """Real fields of stacked half spectra: irfftn over the trailing grid axes."""
    return np.fft.irfftn(hat, s=grid.shape, axes=tuple(range(-grid.dim, 0)))


def nonlinearity_g(state, params):
    return read_out(nonlinearity_g_hat(StepState.from_state(state), params, dealias_mask(state.grid)), state.grid)


def full_layout_H(state, params):
    """Full complex spectra of the bracket tensor H, every derivative as .real of an ifftn round trip."""
    grid, dim = state.grid, state.grid.dim
    fwd = np.fft.fftn

    def inv(arr):
        return np.fft.ifftn(arr).real

    xis = grid.wavevectors()
    keep = np.abs(grid.axis_aliases()) < grid.n / 3.0
    mask = functools.reduce(np.logical_and, np.meshgrid(*[keep] * dim, indexing="ij", sparse=True))
    recip = inv(mask * fwd(1.0 / (params.rho_star + state.theta) - 1.0 / params.rho_star))
    v_hat = [mask * fwd(recip * state.m[j]) for j in range(dim)]
    div_v = sum(1j * xis[j] * v_hat[j] for j in range(dim))
    grad = [inv(1j * xis[j] * fwd(state.theta)) for j in range(dim)]
    lap_sq = -grid.xi_sq * (mask * fwd(state.theta**2))
    grad_sq = sum(mask * fwd(grad[j] ** 2) for j in range(dim))
    pr = mask * fwd(pressure_remainder(state.theta, params))
    H = np.empty((dim, dim) + grid.shape, dtype=complex)
    for j in range(dim):
        for k in range(dim):
            mm_hat = mask * fwd(state.m[j] * state.m[k])
            H[j, k] = (
                mm_hat / params.rho_star
                + mask * fwd(recip * inv(mm_hat))
                - params.mu_star * (1j * xis[k] * v_hat[j] + 1j * xis[j] * v_hat[k])
                + params.kappa_star * mask * fwd(grad[j] * grad[k])
            )
        H[j, j] += -(params.nu_star - params.mu_star) * div_v - 0.5 * params.kappa_star * (lap_sq - grad_sq) + pr
    return H


def full_layout_g(state, params):
    """g = -Div H on full complex spectra, with H from full_layout_H."""
    grid, dim = state.grid, state.grid.dim
    H, xis = full_layout_H(state, params), grid.wavevectors()
    return np.stack([np.fft.ifftn(-sum(1j * xis[k] * H[j, k] for k in range(dim))).real for j in range(dim)])


def spectral_partial(f, grid, ax, order=1):
    """d_ax^order f by np.fft on the full layout."""
    return np.fft.ifftn((1j * grid.wavevectors()[ax]) ** order * np.fft.fftn(f)).real


def small_state(grid, rng, amp=0.05):
    theta = gaussian_bump(grid, np.full(grid.dim, grid.box_len / 2), grid.box_len / 8, amp)
    m = np.zeros((grid.dim,) + grid.shape)
    for j in range(grid.dim):
        m[j] = amp * gaussian_bump(grid, rng.uniform(0.3, 0.7, grid.dim) * grid.box_len, grid.box_len / 8, 1.0)
    return State(grid=grid, fields=np.concatenate([theta[None], m]))


class TestViscousTensor:
    """The viscous part of g, Div S(v) = mu* Lap v + nu* grad div v with v = (1/(rho*+theta) - 1/rho*) m."""

    def test_rigid_translation(self, params):
        """Constant theta and uniform m: no stress, no flux divergence, so g vanishes."""
        g = Grid(dim=3, box_len=1.0, n=8)
        s = State(grid=g, fields=np.concatenate([np.full((1,) + g.shape, 0.3), np.ones((3,) + g.shape)]))
        assert np.max(np.abs(nonlinearity_g(s, params))) <= 1e-12

    def test_shear_flow_analytic(self):
        """theta = c, m = (a sin ky, 0): v is a divergence-free shear, g = (-mu* r a k^2 sin ky, 0), r = 1/(rho*+c) - 1/rho*."""
        p = make_params(1.3, 0.7, 1.0, 1.0, critical_quadratic(1.0, 1.0))
        g = Grid(dim=2, box_len=4.0, n=32)
        k = 2 * np.pi / g.box_len
        y = g.mesh()[1]
        c, a = 0.3, 0.2
        m = np.zeros((2,) + g.shape)
        m[0] = a * np.broadcast_to(np.sin(k * y), g.shape)
        got = nonlinearity_g(State(grid=g, fields=np.concatenate([np.full((1,) + g.shape, c), m])), p)
        r = 1.0 / (p.rho_star + c) - 1.0 / p.rho_star
        want = -p.mu_star * r * a * k**2 * np.broadcast_to(np.sin(k * y), g.shape)
        assert np.allclose(got[0], want, atol=1e-12)
        assert np.max(np.abs(got[1])) <= 1e-12

    def test_compression_flow_analytic(self):
        """theta = c, m = (a sin kx, 0): Lap v and grad div v add up, and the flux is (a sin kx)^2/(rho*+c), so
        g = (-(mu* + nu*) r a k^2 sin kx - a^2 k sin 2kx/(rho*+c), 0)."""
        p = make_params(1.3, 0.7, 1.0, 1.0, critical_quadratic(1.0, 1.0))
        g = Grid(dim=2, box_len=4.0, n=32)
        k = 2 * np.pi / g.box_len
        x = np.broadcast_to(g.mesh()[0], g.shape)
        c, a = 0.3, 0.2
        m = np.zeros((2,) + g.shape)
        m[0] = a * np.sin(k * x)
        got = nonlinearity_g(State(grid=g, fields=np.concatenate([np.full((1,) + g.shape, c), m])), p)
        r = 1.0 / (p.rho_star + c) - 1.0 / p.rho_star
        want = -(p.mu_star + p.nu_star) * r * a * k**2 * np.sin(k * x) - a**2 * k * np.sin(2 * k * x) / (p.rho_star + c)
        assert np.allclose(got[0], want, atol=1e-12)
        assert np.max(np.abs(got[1])) <= 1e-12


def korteweg_identity(theta, params, grid):
    """(g, want) at m = 0, where g = -grad pr(theta) + Div K(theta) = -grad pr(theta) + kappa* theta grad Lap theta."""
    g = nonlinearity_g(State(grid=grid, fields=np.concatenate([theta[None], np.zeros((grid.dim,) + grid.shape)])), params)
    pr = pressure_remainder(theta, params)
    lap = sum(spectral_partial(theta, grid, ax, 2) for ax in range(grid.dim))
    want = np.stack(
        [
            -spectral_partial(pr, grid, j) + params.kappa_star * theta * spectral_partial(lap, grid, j)
            for j in range(grid.dim)
        ]
    )
    return g, want


class TestKortewegTensor:
    """The capillary part of g at m = 0, against the Korteweg force identity Div K(rho) = kappa* rho grad Lap rho."""

    def test_constant_density(self, params):
        g = Grid(dim=2, box_len=1.0, n=16)
        got, want = korteweg_identity(np.full(g.shape, 1.7), params, g)
        assert np.max(np.abs(want)) <= 1e-12
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))

    def test_force_identity_recomputed(self):
        """g = -grad pr + kappa* theta grad Lap theta on band-limited theta, where the 2/3 truncation is inert."""
        p = make_params(1.0, 1.0, 0.8, 1.0, critical_quadratic(1.0, 1.0))
        g = Grid(dim=2, box_len=5.0, n=32)
        rng = np.random.default_rng(3)
        theta_hat = np.zeros(g.shape, complex)
        theta_hat[1, 2] = 3.0 + 2.0j
        theta_hat[-1, -2] = 3.0 - 2.0j
        theta_hat[2, 0] = 1.0
        theta_hat[-2, 0] = 1.0
        theta = np.fft.ifftn(theta_hat).real + 0.2 * rng.standard_normal()
        got, want = korteweg_identity(theta, p, g)
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


class TestPressureRemainder:
    def test_quadratic_law_exact(self):
        p = make_params(1.0, 1.0, 1.0, 1.0, critical_quadratic(0.7, 1.0))
        g = Grid(dim=1, box_len=1.0, n=32)
        theta = 0.3 * np.sin(2 * np.pi * g.axis_coords())
        pr = pressure_remainder(theta, p)
        assert np.allclose(pr, 0.7 * theta**2, atol=1e-14)

    def test_zero_theta(self, params):
        assert np.max(np.abs(pressure_remainder(np.zeros((8, 8)), params))) == 0.0

    def test_taylor_remainder_identity_general_law(self):
        """Equals P(rho*+theta) - P(rho*) - P'(rho*) theta for a non-quadratic critical law."""
        law = PressureLaw(
            evaluate=lambda r: np.cosh(r - 1.0) - 1.0,
            d1=lambda r: np.sinh(r - 1.0),
            validity=(0.05, 12.0),
        )
        p = make_params(1.0, 1.0, 1.0, 1.0, law)
        theta = np.linspace(-0.6, 0.6, 41)
        got = pressure_remainder(theta, p)
        want = law.evaluate(1.0 + theta) - law.evaluate(1.0) - law.d1(1.0) * theta
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_builtin_law_is_its_square_bitwise(self):
        """For critical_quadratic, P(rho*) and P'(rho*) are exactly 0: the remainder is k ((rho* + theta) - rho*)^2 bit for bit."""
        for k, rho_star in ((0.5, 1.0), (0.7, 1.3), (3.0, 0.45)):
            p = make_params(1.0, 1.0, 1.0, rho_star, critical_quadratic(k, rho_star))
            theta = 0.6 * rho_star * np.sin(np.linspace(0.0, 7.0, 257)) ** 3
            assert np.array_equal(pressure_remainder(theta, p), k * ((rho_star + theta) - rho_star) ** 2)

    def test_degree_17_law(self):
        """P = (rho - rho*)^17 is critical, and its remainder is theta^17; an 8-node rule in tau is exact only to degree 16."""
        law = PressureLaw(
            evaluate=lambda r: (r - 1.0) ** 17,
            d1=lambda r: 17.0 * (r - 1.0) ** 16,
            validity=(0.5, 1.5),
        )
        p = make_params(1.0, 1.0, 1.0, 1.0, law)
        theta = np.array([-0.5, -0.375, -0.25, 0.125, 0.3125, 0.5])  # dyadic, so rho* + theta is exact
        got = pressure_remainder(theta, p)
        assert np.max(np.abs(got - theta**17) / np.abs(theta**17)) <= 1e-14

    def test_general_law_to_a_few_ulp(self):
        """The cosh law's remainder cosh(theta) - 1 equals the cancellation-free 2 sinh^2(theta/2) to a few ulp of
        cosh(theta), the value the law's own evaluate rounds before it subtracts 1."""
        law = PressureLaw(
            evaluate=lambda r: np.cosh(r - 1.0) - 1.0,
            d1=lambda r: np.sinh(r - 1.0),
            validity=(0.05, 12.0),
        )
        p = make_params(1.0, 1.0, 1.0, 1.0, law)
        theta = np.concatenate([np.linspace(-0.6, 0.6, 41), [1e-9, -3e-5, 5.0]])
        got = pressure_remainder(theta, p)
        assert np.all(np.abs(got - 2.0 * np.sinh(theta / 2.0) ** 2) <= 4.0 * np.spacing(np.cosh(theta)))

    def test_validity_exceeded(self):
        law = critical_quadratic(1.0, 1.0, validity=(0.5, 2.0))
        p = make_params(1.0, 1.0, 1.0, 1.0, law)
        with pytest.raises(ValidityExceeded):
            pressure_remainder(np.array([1.8]), p)


class TestNonlinearityG:
    def test_zero_state(self, params):
        g = Grid(dim=2, box_len=2.0, n=16)
        s = State(grid=g, fields=np.zeros((3,) + g.shape))
        assert np.max(np.abs(nonlinearity_g(s, params))) <= 1e-14

    def test_zero_theta_reduces_to_momentum_flux(self, params):
        """At theta = 0 the bracket is (1/rho*) m x m only: g = -Div(mask mm)/rho*."""
        g = Grid(dim=2, box_len=3.0, n=32)
        rng = np.random.default_rng(5)
        s = small_state(g, rng, amp=0.2)
        s = State(grid=g, fields=np.concatenate([np.zeros((1,) + g.shape), s.m]))
        got = nonlinearity_g(s, params)
        keep = np.abs(g.axis_aliases()) < g.n / 3.0
        mask = keep[:, None] & keep[None, :]
        xis = g.wavevectors()
        want = np.stack(
            [
                -sum(np.fft.ifftn(1j * xis[k] * mask * np.fft.fftn(s.m[j] * s.m[k])).real for k in range(2))
                / params.rho_star
                for j in range(2)
            ]
        )
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_g_is_exact_divergence(self, params):
        """Mean of g vanishes bit for bit (zero mode of -Div H)."""
        g = Grid(dim=2, box_len=3.0, n=16)
        s = small_state(g, np.random.default_rng(7), amp=0.3)
        g_hat = nonlinearity_g_hat(StepState.from_state(s), params, dealias_mask(g))
        for c in range(2):
            assert g_hat[c][0, 0] == 0.0

    def test_range_violation(self, params):
        g = Grid(dim=1, box_len=1.0, n=16)
        s = State(grid=g, fields=np.stack([np.full(16, 3.5), np.zeros(16)]))
        with pytest.raises(RangeViolation):
            nonlinearity_g(s, params)

    def test_spectral_divergence_matches_fd4(self, params):
        """-Div H by FD4 converges to the spectral value at fourth order."""
        errs = []
        for n in (32, 64):
            g = Grid(dim=2, box_len=6.0, n=n)
            k = 2 * np.pi / g.box_len
            x, y = g.mesh()
            theta = 0.25 * np.broadcast_to(np.sin(k * x) * np.cos(k * y), g.shape)
            m = np.zeros((2,) + g.shape)
            m[0] = 0.3 * np.broadcast_to(np.cos(k * x), g.shape)
            m[1] = 0.2 * np.broadcast_to(np.sin(k * y), g.shape)
            s = State(grid=g, fields=np.concatenate([theta[None], m]))
            H = np.fft.ifftn(full_layout_H(s, params), axes=(-2, -1)).real
            g_spec = nonlinearity_g(s, params)
            g_fd = -np.stack([sum(fd4(H[j, c], c, g.spacing) for c in range(2)) for j in range(2)])
            errs.append(np.max(np.abs(g_spec - g_fd)))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.25)

    def test_transform_budget_dim3(self, params, fft_calls):
        """One dim-3 g makes at most 27 transforms: each component's products forward once, only needed fields back."""
        g = Grid(dim=3, box_len=4.0, n=8)
        st = StepState.from_state(small_state(g, np.random.default_rng(9), amp=0.1))
        fft_calls.clear()
        nonlinearity_g_hat(st, params, dealias_mask(g))
        assert len(fft_calls) <= 27

    def test_g_budgets_dim3_are_real_transforms(self, params, fft_calls):
        """One g, one step (with cached g) and one sample: 27, 35 and 76 transforms, none complex."""
        g = Grid(dim=3, box_len=4.0, n=8)
        st = StepState.from_state(small_state(g, np.random.default_rng(9), amp=0.1))
        stepper = Etd2Stepper(params, g, 0.05)
        made = {}
        fft_calls.clear()
        nonlinearity_g_hat(st, params, stepper.mask)
        made["g"] = list(fft_calls)
        fft_calls.clear()
        _sample_norms(st, stepper, NonlinearExponentsBlock(), True)
        made["sample"] = list(fft_calls)
        fft_calls.clear()
        stepper.step(st)
        made["step"] = list(fft_calls)
        for key, budget in (("g", 27), ("step", 35), ("sample", 76)):
            assert len(made[key]) <= budget, key
            assert set(made[key]) <= {"rfftn", "irfftn"}, key

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_g_matches_full_layout_reference(self, params, dim, n):
        """Half-spectrum g against the complex-transform formula, on fields with full Nyquist content."""
        g = Grid(dim=dim, box_len=4.0, n=n)
        rng = np.random.default_rng(40 + dim)
        s = State(grid=g, fields=0.1 * rng.standard_normal((dim + 1,) + g.shape))
        want = full_layout_g(s, params)
        got = nonlinearity_g(s, params)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestSample:
    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_time_derivatives_match_spectral_formula(self, dim, n):
        """d_t theta, grad d_t theta and d_t m summed from the read-back partials equal the equations of
        motion applied in spectral space, on white-noise half spectra with full Nyquist content."""
        p = make_params(1.3, 0.7, 0.9, 1.2, critical_quadratic(0.5, 1.2))
        g = Grid(dim=dim, box_len=4.0, n=n)
        rng = np.random.default_rng(60 + dim)
        shape = (dim + 1,) + g.half_shape
        # the self-mirror planes are not Hermitian either, as after a step
        hats = 0.05 * n ** (dim / 2) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        spec = SpectralState(grid=g, hat=hats, half=True)
        st = StepState(spectral=spec, real=to_real(spec), t=0.0)
        g_hat = nonlinearity_g_hat(st, p, dealias_mask(g))
        got = [f for keys, f in _sample_fields(st, p, g_hat) if keys == ("dt",)]

        th_hat, m_hat = spec.theta_hat, spec.m_hat
        unit = np.eye(dim, dtype=int)

        def power(*axes):
            return derivative(g, tuple(sum(unit[a] for a in axes)))

        def back(hat):
            return np.fft.irfftn(hat, s=g.shape, axes=tuple(range(-g.dim, 0)))

        xi_sq = g.half_xi_sq
        grad_div = [sum(power(a, b) * m_hat[b] for b in range(dim)) for a in range(dim)]
        dm_hat = [
            -p.alpha_star * xi_sq * m_hat[a]
            + p.beta_star * grad_div[a]
            - p.kappa_star * p.rho_star * xi_sq * power(a) * th_hat
            + g_hat[a]
            for a in range(dim)
        ]
        want = [
            back(-sum(power(b) * m_hat[b] for b in range(dim))),
            np.stack([back(-grad_div[a]) for a in range(dim)]),
            np.stack([back(dm_hat[a]) for a in range(dim)]),
        ]
        assert len(got) == 3
        for name, f, w in zip(("d_t theta", "grad d_t theta", "d_t m"), got, want):
            assert np.max(np.abs(f - w)) <= 1e-13 * np.max(np.abs(w)), name

    def test_each_field_measured_once(self, params, monkeypatch):
        """A dim-3 sample makes one lp_norms call per distinct field: theta and m serve j0 and W^{3,2} alike."""
        import nsklab.nonlinear as nonlinear_mod

        calls = []
        real_lp_norms = nonlinear_mod.lp_norms

        def lp_norms(f, grid, qs):
            calls.append(len(qs))
            return real_lp_norms(f, grid, qs)

        monkeypatch.setattr(nonlinear_mod, "lp_norms", lp_norms)
        g = Grid(dim=3, box_len=4.0, n=8)
        st = StepState.from_state(small_state(g, np.random.default_rng(9), amp=0.1))
        _sample_norms(st, Etd2Stepper(params, g, 0.05), NonlinearExponentsBlock(), True)
        # j0: theta, m; j1: grad theta, grad m; w3: 3 + 6 + 10 partials; w2: 3 + 6 partials; dt: 3 fields
        assert len(calls) == 35
        assert calls.count(3) == 4

    def test_derivative_multipliers_built_once_per_run(self, monkeypatch):
        """No (i xi)^alpha multiplier is built after the first sample of a run."""
        import nsklab.nonlinear as nonlinear_mod

        built = []
        real_sample = nonlinear_mod._sample_norms

        def sample(*args):
            out = real_sample(*args)
            built.append(derivative.cache_info().misses)
            return out

        derivative.cache_clear()
        monkeypatch.setattr(nonlinear_mod, "_sample_norms", sample)
        g = Grid(dim=3, box_len=4.0, n=8)
        assert run(run_config(g, amplitude=0.01, t_end=0.3, dt=0.1, seed=3)).success
        # every alpha of order 1 to 3 in dim 3: 3 + 6 + 10
        assert built == [19] * 4


class TestStep:
    def test_zero_data_stays_zero(self, params):
        g = Grid(dim=2, box_len=2.0, n=16)
        st = StepState.from_state(State(grid=g, fields=np.zeros((3,) + g.shape)))
        out = Etd2Stepper(params, g, 0.1).step(st)
        assert np.max(np.abs(out.real.theta)) <= 1e-15
        assert np.max(np.abs(out.real.m)) <= 1e-15

    def test_linear_only_matches_semigroup_exactly(self, params):
        """The half-layout step equals the full-layout semigroup bit for bit on every stored mode."""
        g = Grid(dim=2, box_len=3.0, n=16)
        st = StepState.from_state(small_state(g, np.random.default_rng(1)))
        out = Etd2Stepper(params, g, 0.25).step(st, nonlinear=False)
        full = SpectralState(grid=g, hat=hermitian_extension(st.spectral.hat, g))
        want = apply_semigroup(full, params, 0.25)
        h = g.n // 2 + 1
        assert np.array_equal(out.spectral.theta_hat, want.theta_hat[..., :h])
        assert np.array_equal(out.spectral.m_hat, want.m_hat[..., :h])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_phi_blocks_are_the_phi_tables_gathered_per_mode(self, params, dim):
        """h phi_k(hA) in block form: d = h^2 D |xi|^2, lg = h (B - T), heat = h T, each evaluated on the distinct
        |xi|^2 and gathered through the half-layout radial index, bit for bit."""
        g = Grid(dim=dim, box_len=3.0, n=8)
        dt = 0.15
        stepper = Etd2Stepper(params, g, dt)
        values, index = g.radial_values, g.radial_index
        tabs = phi_multiplier_tables(params, values, dt)
        for block, (D, B, T) in ((stepper._phi1, tabs["phi1"]), (stepper._phi2, tabs["phi2"])):
            assert block.tf is None
            assert np.array_equal(block.d, (dt * dt * D * values)[index])
            assert np.array_equal(block.lg, (dt * (B - T))[index])
            assert np.array_equal(block.heat, (dt * T)[index])

    def test_mean_theta_conserved_exactly(self, params):
        g = Grid(dim=2, box_len=3.0, n=16)
        rng = np.random.default_rng(2)
        s = small_state(g, rng, amp=0.2)
        st = StepState.from_state(s)
        mean0 = st.spectral.theta_hat[0, 0]
        stepper = Etd2Stepper(params, g, 0.05)
        for _ in range(25):
            st = stepper.step(st)
        assert st.spectral.theta_hat[0, 0] == mean0

    def test_cached_g_reuse_is_bitwise_neutral(self, params):
        """A step from a state carrying its g-hat equals a step that recomputes it."""
        g = Grid(dim=3, box_len=4.0, n=8)
        st = StepState.from_state(small_state(g, np.random.default_rng(6), amp=0.1))
        stepper = Etd2Stepper(params, g, 0.05)
        cached = dataclasses.replace(st, g_hat=nonlinearity_g_hat(st, params, stepper.mask))
        a = stepper.step(cached)
        b = stepper.step(dataclasses.replace(cached, g_hat=None))
        assert np.array_equal(a.spectral.theta_hat, b.spectral.theta_hat)
        assert np.array_equal(a.spectral.m_hat, b.spectral.m_hat)

    def test_step_rejected_on_blowup_scale_data(self, params):
        g = Grid(dim=2, box_len=2.0, n=16)
        theta = gaussian_bump(g, (1.0, 1.0), 0.4, 2.9)  # close to the 4 rho* ceiling
        m = np.zeros((2,) + g.shape)
        m[0] = 40.0 * gaussian_bump(g, (1.0, 1.0), 0.4, 1.0)
        st = StepState.from_state(State(grid=g, fields=np.concatenate([theta[None], m])))
        stepper = Etd2Stepper(params, g, 0.05)
        with pytest.raises(StepRejected):
            for _ in range(50):
                st = stepper.step(st)

    def test_non_finite_stage_becomes_step_rejection(self, monkeypatch):
        """A NaN nonlinearity rejects the step; the run records the event and keeps the series so far."""
        import nsklab.nonlinear as nonlinear_mod

        real_g_hat = nonlinear_mod.nonlinearity_g_hat
        calls = []

        def third_call_nan(*args, **kwargs):
            calls.append(1)
            out = real_g_hat(*args, **kwargs)
            return np.full_like(out, np.nan) if len(calls) == 3 else out

        monkeypatch.setattr(nonlinear_mod, "nonlinearity_g_hat", third_call_nan)
        g = Grid(dim=3, box_len=4.0, n=8)
        # g is evaluated by the t = 0 sample, the first step's stage, then as g(U_1) by the
        # second step, since sampling every second step leaves no cached g on U_1
        scn = run_config(g, amplitude=0.01, t_end=0.8, dt=0.1, seed=3, sample_every=2)
        res = run(scn)
        assert res.rejected and not res.success
        rejected = [e for e in res.events if e["kind"] == "step_rejected"]
        assert len(rejected) == 1
        assert rejected[0]["t"] == pytest.approx(0.2)
        assert "not finite" in rejected[0]["message"]
        assert np.array_equal(res.aggregate.times, [0.0])
        assert all(np.array_equal(s.times, [0.0]) for s in res.bundle.values())
        assert np.all(np.isfinite(res.final.real.theta))

    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_non_finite_propagator_becomes_step_rejection(self, monkeypatch, nonlinear):
        """An inf in the S(h) heat coefficient rejects the first step on both paths; the t = 0 sample is kept."""
        import nsklab.nonlinear as nonlinear_mod

        real_block = nonlinear_mod.semigroup_block

        def inf_heat(*args, **kwargs):
            block = real_block(*args, **kwargs)
            heat = block.heat.copy()
            heat[(1,) * heat.ndim] = np.inf
            return dataclasses.replace(block, heat=heat)

        monkeypatch.setattr(nonlinear_mod, "semigroup_block", inf_heat)
        g = Grid(dim=3, box_len=8.0, n=16)
        scn = run_config(g, amplitude=0.02, t_end=0.3, dt=0.1, seed=3, nonlinear=nonlinear)
        with np.errstate(invalid="ignore"):
            res = run(scn)
        assert res.rejected and not res.success
        rejected = [e for e in res.events if e["kind"] == "step_rejected"]
        assert len(rejected) == 1
        assert rejected[0]["t"] == pytest.approx(0.1)
        assert "not finite" in rejected[0]["message"]
        assert np.array_equal(res.aggregate.times, [0.0])
        assert all(np.array_equal(s.times, [0.0]) for s in res.bundle.values())

    def test_self_convergence_order_two(self, params):
        """Richardson ratio error(dt)/error(dt/2) ~ 2^2 on a smooth nonlinear run."""
        g = Grid(dim=2, box_len=8.0, n=32)
        rng = np.random.default_rng(4)
        s = small_state(g, rng, amp=0.35)
        T = 1.0

        def integrate(dt):
            st, stepper = StepState.from_state(s), Etd2Stepper(params, g, dt)
            for _ in range(int(round(T / dt))):
                st = stepper.step(st)
            return st

        sols = [integrate(dt) for dt in (0.05, 0.025, 0.0125)]
        e1 = np.max(np.abs(sols[0].real.theta - sols[1].real.theta)) + np.max(np.abs(sols[0].real.m - sols[1].real.m))
        e2 = np.max(np.abs(sols[1].real.theta - sols[2].real.theta)) + np.max(np.abs(sols[1].real.m - sols[2].real.m))
        assert 3.2 <= e1 / e2 <= 4.8


class TestInitialData:
    def test_nonlinear_initial_state_uses_real_transforms_only(self, fft_calls):
        g = Grid(dim=3, box_len=16.0, n=16)
        fft_calls.clear()
        nonlinear_initial_state(
            g,
            theta_amplitude=0.02,
            theta_width=1.6,
            m_amplitude=0.02,
            m_envelope_width=1.6,
            m_smooth_width=1.2,
            rng=np.random.default_rng(42),
        )
        assert len(fft_calls) == 24
        assert set(fft_calls) == {"rfftn", "irfftn"}

    def test_smooth_random_field_matches_complex_formula(self):
        g = Grid(dim=3, box_len=16.0, n=16)
        got = smooth_random_field(g, np.random.default_rng(8), 1.2)
        noise = np.random.default_rng(8).standard_normal(g.shape)
        want = np.fft.ifftn(np.exp(-0.5 * 1.2**2 * g.xi_sq) * np.fft.fftn(noise)).real
        want /= np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-14


class TestScenario:
    def test_scope_warnings_flag_bad_exponents(self):
        msgs = _scope_warnings(2, NonlinearExponentsBlock())
        assert any("dimension" in m for m in msgs)

    def test_valid_exponents_for_3d(self):
        assert _scope_warnings(3, NonlinearExponentsBlock()) == []

    @pytest.mark.parametrize(
        "t_end,dt,sample_every",
        [(0.25, 0.1, 1), (0.0, 0.1, 1), (-0.2, 0.1, 1), (0.3, 0.0, 1), (0.3, -0.1, 1), (0.3, 0.1, 0), (0.3, 0.1, -1)],
    )
    def test_bad_step_count_or_sample_interval_rejected(self, t_end, dt, sample_every):
        """A run must take a positive whole number of steps and sample at least every step it takes: its config
        is refused when it is made."""
        g = Grid(dim=2, box_len=4.0, n=16)
        with pytest.raises(ValidationError):
            run_config(g, amplitude=0.01, t_end=t_end, dt=dt, seed=0, sample_every=sample_every)


class TestRun:
    def test_zero_amplitude_gives_zero_aggregate(self):
        g = Grid(dim=3, box_len=4.0, n=8)
        scn = run_config(g, amplitude=0.0, t_end=0.5, dt=0.1, seed=3)
        res = run(scn)
        assert res.success
        assert np.all(res.aggregate.values == 0.0)

    def test_half_spectrum_matches_real_state_off_self_mirror_nyquist_modes(self):
        """The state's spectrum and real fields agree on every stored mode but the Nyquist modes of the
        self-mirror planes (last-axis index 0 and n/2), where the propagator's odd factors act."""
        g = Grid(dim=3, box_len=16.0, n=16)
        init = NonlinearInitBlock(theta_width=1.6, m_envelope_width=1.6, m_smooth_width=1.6)
        res = run(run_config(g, amplitude=0.02, t_end=1.0, dt=0.1, seed=3, init=init))
        assert res.success
        st = res.final
        nyq = g.n // 2
        kx, ky, kz = np.ix_(np.arange(g.n), np.arange(g.n), np.arange(nyq + 1))
        self_mirror_nyquist = ((kz == 0) | (kz == nyq)) & ((kx == nyq) | (ky == nyq) | (kz == nyq))
        pairs = [(st.real.theta, st.spectral.theta_hat)] + list(zip(st.real.m, st.spectral.m_hat))
        for real, hat in pairs:
            err = np.abs(rfftn(real) - hat) / np.max(np.abs(hat))
            assert np.max(np.where(self_mirror_nyquist, 0.0, err)) <= 1e-14

    def test_small_run_bounded_and_conservative(self):
        g = Grid(dim=3, box_len=8.0, n=16)
        scn = run_config(g, amplitude=0.02, t_end=2.0, dt=0.1, seed=3)
        res = run(scn)
        assert res.success
        assert res.mass_drift <= 1e-13
        assert res.symmetry_defect <= 1e-12
        assert np.all(np.diff(res.aggregate.values) >= -1e-12)  # monotone
        assert np.isfinite(res.aggregate.values[-1])

    def test_aggregate_stable_under_sampling_refinement(self):
        """Halving the sample spacing changes the aggregate by under 1%."""
        g = Grid(dim=2, box_len=8.0, n=16)
        scn = run_config(
            g,
            amplitude=0.02,
            t_end=4.0,
            dt=0.025,
            seed=3,
            sample_every=1,
            init=NonlinearInitBlock(theta_width=1.8, m_envelope_width=1.8, m_smooth_width=1.6),
        )
        r = run(scn)
        vals = {}
        for stride in (2, 1):
            b = {k: NormSeries(times=v.times[::stride], values=v.values[::stride]) for k, v in r.bundle.items()}
            vals[stride] = aggregate_N(b, 2, 4.0, 2.5, 15.0, 0.35, 4.0)
        assert abs(vals[1] - vals[2]) <= 0.01 * vals[1]

    def test_sampling_stride_does_not_change_shared_samples(self):
        """Runs sampling every step and every second step agree bitwise where both sample."""
        g = Grid(dim=3, box_len=8.0, n=8)
        kw = dict(amplitude=0.02, t_end=0.4, dt=0.1, seed=3)
        r1 = run(run_config(g, sample_every=1, **kw))
        r2 = run(run_config(g, sample_every=2, **kw))
        assert np.array_equal(r1.bundle["pair_linf_j0"].times[::2], r2.bundle["pair_linf_j0"].times)
        for key, series in r2.bundle.items():
            assert np.array_equal(r1.bundle[key].values[::2], series.values), key
        assert np.array_equal(r1.final.spectral.theta_hat, r2.final.spectral.theta_hat)
        assert np.array_equal(r1.final.spectral.m_hat, r2.final.spectral.m_hat)

    def test_linear_only_run_reproduces_semigroup_decay_fit(self):
        """With the nonlinearity disabled, run() and the linear harness fit the same exponent."""
        constants = ParamsBlock(mu=1.0, nu=0.8, kappa=0.7875, rho_ref=1.0)
        p = constants.fluid()
        g = Grid(dim=2, box_len=48.0, n=64)
        data = next(riesz_momentum_pair(g, 1.0, 11.0, rng=np.random.default_rng(5), amplitude=0.5))
        window = (1.0, 8.0)
        times = np.geomspace(0.5, 10.0, 14)
        meas = measure_semigroup_decay(data, p, times, band="full", p=np.inf, j=0)
        rep_harness = fit_decay(meas.series, window, dim=2, p=np.inf, q=2, j=0, trust_ok=True)

        scn = NonlinearRunConfig(
            params=constants, grid=g, amplitude=1.0, t_end=10.0, dt=0.1, seed=5, sample_every=2, nonlinear=False
        )
        res = run(scn, initial=to_real(data))
        rep_solver = fit_decay(
            res.bundle["pair_linf_j0"], window, dim=2, p=np.inf, q=2, j=0, trust_ok=True
        )
        assert abs(rep_solver.fitted_exponent - rep_harness.fitted_exponent) <= 0.1

    def test_quadratic_smallness_of_nonlinearity(self, params):
        """|nonlinear - linear| / eps^2 stays bounded as eps shrinks."""
        g = Grid(dim=2, box_len=8.0, n=32)
        ratios = []
        for eps in (0.04, 0.02):
            rng = np.random.default_rng(11)
            s = small_state(g, rng, amp=eps)
            stn = StepState.from_state(s)
            stl = StepState.from_state(s)
            stepper = Etd2Stepper(params, g, 0.1)
            for _ in range(10):
                stn = stepper.step(stn)
                stl = stepper.step(stl, nonlinear=False)
            diff = np.max(np.abs(stn.real.theta - stl.real.theta)) + np.max(np.abs(stn.real.m - stl.real.m))
            ratios.append(diff / eps**2)
        assert 0.25 <= ratios[0] / ratios[1] <= 4.0
