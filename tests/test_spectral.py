import functools

import numpy as np
import pytest

import nsklab.spectral as spectral_mod
from conftest import fd4, random_params, random_spectrum, wavevector_of_index
from nsklab.analysis import half_power, lp_norm, measure_semigroup_decay, multi_indices, spectral_l2_norm
from nsklab.errors import ConstraintViolation, EmptyLowBand, GridMismatch
from nsklab.model import Grid, SpectralState, State, gaussian_bump
from nsklab.spectral import (
    CutoffSpec,
    SemigroupOrbit,
    Workspace,
    apply_semigroup,
    conjugate_symmetry_defect,
    dealias_mask,
    default_cutoff,
    divergence_form_momentum,
    frequency_split,
    hermitian_half,
    irfftn,
    odd_wavevectors,
    rfftn,
    to_real,
    to_spectral,
)
from nsklab.symbols import propagator_kernels, solution_symbol


def random_state(grid, rng, modes=4):
    """Smooth random band-limited real fields."""
    theta_hat = np.zeros(grid.shape, dtype=complex)
    m_hat = np.zeros((grid.dim,) + grid.shape, dtype=complex)
    idx = np.abs(grid.axis_aliases())
    mask = np.ones(grid.shape, dtype=bool)
    for ax in range(grid.dim):
        shape = [1] * grid.dim
        shape[ax] = grid.n
        mask &= (idx <= modes).reshape(shape)
    k = int(mask.sum())
    theta_hat[mask] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    for j in range(grid.dim):
        m_hat[j][mask] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    theta = np.fft.ifftn(theta_hat).real
    m = np.stack([np.fft.ifftn(m_hat[j]).real for j in range(grid.dim)])
    return State(grid=grid, theta=theta, m=m)


class TestTransforms:
    def test_constant_field_single_coefficient(self):
        g = Grid(dim=2, box_len=1.0, n=8)
        s = State(grid=g, theta=np.full(g.shape, 3.0), m=np.zeros((2,) + g.shape))
        sp = to_spectral(s)
        assert sp.theta_hat[0, 0] == pytest.approx(3.0 * g.mode_count)
        off = sp.theta_hat.copy()
        off[0, 0] = 0.0
        assert np.max(np.abs(off)) <= 1e-12 * g.mode_count

    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        for dim in (1, 2, 3):
            g = Grid(dim=dim, box_len=2.5, n=16)
            s = random_state(g, rng)
            back = to_real(to_spectral(s))
            scale = max(np.max(np.abs(s.theta)), np.max(np.abs(s.m)))
            assert np.max(np.abs(back.theta - s.theta)) <= 1e-12 * scale
            assert np.max(np.abs(back.m - s.m)) <= 1e-12 * scale

    def test_plane_wave_two_conjugate_coefficients(self):
        g = Grid(dim=2, box_len=4.0, n=16)
        x = g.mesh()[0]
        theta = np.broadcast_to(np.cos(2 * np.pi * x / g.box_len), g.shape).copy()
        sp = to_spectral(State(grid=g, theta=theta, m=np.zeros((2,) + g.shape)))
        assert sp.theta_hat[1, 0] == pytest.approx(g.mode_count / 2)
        assert sp.theta_hat[-1, 0] == pytest.approx(g.mode_count / 2)
        assert sp.theta_hat[1, 0] == pytest.approx(np.conj(sp.theta_hat[-1, 0]))
        rest = sp.theta_hat.copy()
        rest[1, 0] = rest[-1, 0] = 0.0
        assert np.max(np.abs(rest)) <= 1e-10 * g.mode_count


class TestApplySemigroup:
    def test_time_zero_is_identity(self, oscillatory_params):
        g = Grid(dim=2, box_len=3.0, n=8)
        sp = to_spectral(random_state(g, np.random.default_rng(1)))
        out = apply_semigroup(sp, oscillatory_params, 0.0)
        assert np.allclose(out.theta_hat, sp.theta_hat, atol=1e-14)
        assert np.allclose(out.m_hat, sp.m_hat, atol=1e-14)

    def test_matches_per_mode_symbol(self, positive_params, oscillatory_params, unit_params):
        rng = np.random.default_rng(3)
        g = Grid(dim=2, box_len=3.0, n=8)
        sp = to_spectral(random_state(g, rng))
        for params in (positive_params, oscillatory_params, unit_params):
            t = 0.37
            out = apply_semigroup(sp, params, t)
            for idx in [(0, 0), (1, 2), (3, 5), (4, 4), (7, 1)]:
                xi = wavevector_of_index(g, idx)
                vec = np.concatenate([[sp.theta_hat[idx]], sp.m_hat[(slice(None),) + idx]])
                want = solution_symbol(params, xi, t) @ vec
                got = np.concatenate([[out.theta_hat[idx]], out.m_hat[(slice(None),) + idx]])
                assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_transverse_data_decays_as_heat(self, positive_params):
        g = Grid(dim=2, box_len=2 * np.pi, n=16)
        # m = (sin(y), 0): divergence-free, theta = 0
        y = g.mesh()[1]
        m = np.zeros((2,) + g.shape)
        m[0] = np.broadcast_to(np.sin(y), g.shape)
        sp = to_spectral(State(grid=g, theta=np.zeros(g.shape), m=m))
        t = 0.9
        out = apply_semigroup(sp, positive_params, t)
        assert np.max(np.abs(out.theta_hat)) <= 1e-12 * g.mode_count
        decay = np.exp(-positive_params.alpha_star * t)  # |xi| = 1
        assert np.allclose(out.m_hat[0], decay * sp.m_hat[0], atol=1e-10 * g.mode_count)

    def test_semigroup_property_on_grid(self, oscillatory_params):
        g = Grid(dim=2, box_len=5.0, n=16)
        sp = to_spectral(random_state(g, np.random.default_rng(5)))
        one = apply_semigroup(sp, oscillatory_params, 1.1)
        two = apply_semigroup(apply_semigroup(sp, oscillatory_params, 0.4), oscillatory_params, 0.7)
        scale = np.max(np.abs(one.theta_hat))
        assert np.max(np.abs(one.theta_hat - two.theta_hat)) <= 1e-10 * scale
        assert np.max(np.abs(one.m_hat - two.m_hat)) <= 1e-10 * np.max(np.abs(one.m_hat))

    def test_mean_modes_conserved_exactly(self, unit_params):
        g = Grid(dim=3, box_len=4.0, n=8)
        rng = np.random.default_rng(9)
        s = random_state(g, rng)
        s = State(grid=g, theta=s.theta + 0.3, m=s.m + rng.standard_normal((3, 1, 1, 1)))
        sp = to_spectral(s)
        out = apply_semigroup(sp, unit_params, 2.3)
        assert out.theta_hat[0, 0, 0] == sp.theta_hat[0, 0, 0]
        for j in range(3):
            assert out.m_hat[j][0, 0, 0] == sp.m_hat[j][0, 0, 0]

    def test_realness_preserved(self, oscillatory_params):
        g = Grid(dim=2, box_len=3.0, n=32)
        sp = to_spectral(random_state(g, np.random.default_rng(13), modes=10))
        out = apply_semigroup(sp, oscillatory_params, 1.5)
        assert conjugate_symmetry_defect(out) <= 1e-13

    def test_commutes_with_frequency_split(self, positive_params):
        g = Grid(dim=2, box_len=3.0, n=16)
        sp = to_spectral(random_state(g, np.random.default_rng(21), modes=7))
        cut = default_cutoff(g)
        low1, high1 = frequency_split(apply_semigroup(sp, positive_params, 0.8), cut)
        low2 = apply_semigroup(frequency_split(sp, cut)[0], positive_params, 0.8)
        high2 = apply_semigroup(frequency_split(sp, cut)[1], positive_params, 0.8)
        scale = np.max(np.abs(sp.theta_hat))
        assert np.max(np.abs(low1.theta_hat - low2.theta_hat)) <= 1e-12 * scale
        assert np.max(np.abs(high1.m_hat - high2.m_hat)) <= 1e-12 * np.max(np.abs(sp.m_hat))


REGIMES = ("positive", "negative", "degenerate")


class TestSemigroupOrbit:
    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_semigroup_law(self, regime, dim):
        """S(t+s) = S(t) S(s) through the orbit, in every regime and dimension."""
        rng = np.random.default_rng(700 + 10 * dim + REGIMES.index(regime))
        g = Grid(dim=dim, box_len=rng.uniform(2.0, 8.0), n=8 if dim < 4 else 4)
        data = random_spectrum(g, rng)
        for _ in range(3):
            params = random_params(rng, regime)
            s, t = rng.uniform(0.0, 0.5, 2)
            one = SemigroupOrbit(data, params).at(s + t)
            two = SemigroupOrbit(SemigroupOrbit(data, params).at(s), params).at(t)
            for a, b in ((one.theta_hat, two.theta_hat), (one.m_hat, two.m_hat)):
                assert np.max(np.abs(a - b)) <= 1e-10 * max(np.max(np.abs(a)), 1e-300)

    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_per_mode_symbol_everywhere(self, regime, dim):
        """Every mode, Nyquist planes included, of a non-Hermitian spectrum against solution_symbol."""
        rng = np.random.default_rng(800 + 10 * dim + REGIMES.index(regime))
        g = Grid(dim=dim, box_len=3.0, n=8 if dim < 3 else 4)
        data = random_spectrum(g, rng)
        params = random_params(rng, regime)
        t = rng.uniform(0.05, 1.5)
        out = SemigroupOrbit(data, params).at(t)
        for idx in np.ndindex(*g.shape):
            col = (slice(None),) + idx
            vec = np.concatenate([[data.theta_hat[idx]], data.m_hat[col]])
            want = solution_symbol(params, wavevector_of_index(g, idx), t) @ vec
            got = np.concatenate([[out.theta_hat[idx]], out.m_hat[col]])
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want))), idx

    def test_theta_hat_bitwise_equal_to_full_state(self, oscillatory_params, positive_params):
        """The theta-only read-out is the projected theta of the full state, bit for bit."""
        rng = np.random.default_rng(17)
        for dim in (1, 2, 3):
            g = Grid(dim=dim, box_len=5.0, n=8)
            orbit = SemigroupOrbit(random_spectrum(g, rng), oscillatory_params)
            ws = Workspace(g, theta_only=True)
            for t in (0.0, 0.3, 2.5):
                th, mh = orbit.halves(t, ws)
                assert mh is None
                assert np.array_equal(th, hermitian_half(orbit.at(t).theta_hat, g))
        orbit = SemigroupOrbit(random_spectrum(g, rng), positive_params)
        want = hermitian_half(apply_semigroup(orbit.data, positive_params, 1.1).theta_hat, g)
        assert np.array_equal(orbit.halves(1.1, Workspace(g, theta_only=True))[0], want)

    @pytest.mark.parametrize("dim, n, box_len", [(3, 64, 96.0), (2, 512, 96.0), (3, 32, 16.0)])
    def test_radial_kernels_bitwise_equal_to_full_grid(self, oscillatory_params, dim, n, box_len):
        """Kernels on the distinct |xi|^2, gathered per mode, equal the full-grid evaluation bit for bit."""
        g = Grid(dim=dim, box_len=box_len, n=n)
        values, index = g.radial_table
        assert np.array_equal(values[index], g.xi_sq)
        assert values.size == np.unique(g.xi_sq).size
        assert not values.flags.writeable and not index.flags.writeable
        for t in (0.35, 1.7, 6.5, 65.0):
            radial = propagator_kernels(oscillatory_params, values, t)
            full = propagator_kernels(oscillatory_params, g.xi_sq, t)
            for r, f in zip(radial, full):
                assert np.array_equal(r[index], f)

    def test_rejects_negative_time(self, unit_params):
        g = Grid(dim=2, box_len=3.0, n=8)
        orbit = SemigroupOrbit(random_spectrum(g, np.random.default_rng(2)), unit_params)
        with pytest.raises(ValueError):
            orbit.at(-0.1)
        for theta_only in (False, True):
            with pytest.raises(ValueError):
                orbit.halves(-0.1, Workspace(g, theta_only=theta_only))

    def test_non_finite_image_rejected(self, unit_params, monkeypatch):
        g = Grid(dim=2, box_len=3.0, n=8)
        orbit = SemigroupOrbit(random_spectrum(g, np.random.default_rng(3)), unit_params)
        monkeypatch.setattr(spectral_mod, "propagator_kernels", lambda p, x, t: (np.full(np.shape(x), np.nan),) * 4)
        for theta_only in (False, True):
            with pytest.raises(ConstraintViolation):
                orbit.halves(1.0, Workspace(g, theta_only=theta_only))
        with pytest.raises(ConstraintViolation):
            orbit.at(1.0)

    def test_non_finite_momentum_rejected(self, unit_params):
        """Each momentum component is checked before it is projected, not only theta."""
        g = Grid(dim=2, box_len=3.0, n=8)
        data = random_spectrum(g, np.random.default_rng(4))
        m_hat = data.m_hat.copy()
        orbit = SemigroupOrbit(SpectralState(grid=g, theta_hat=data.theta_hat, m_hat=m_hat), unit_params)
        m_hat[1, 1, 2] = np.inf  # after validation, so only the read-out sees it
        with pytest.raises(ConstraintViolation), np.errstate(invalid="ignore"):
            orbit.halves(0.5, Workspace(g))
        assert np.all(np.isfinite(orbit.halves(0.5, Workspace(g, theta_only=True))[0]))


READOUT_GRIDS = [(1, 16), (2, 8), (3, 8), (4, 4)]


class TestWorkspaceReadOut:
    """SemigroupOrbit.halves: S(t) samples read out into reused buffers, bitwise equal to the projected orbit."""

    TIMES = (0.7, 0.0, 2.3, 0.05)

    @pytest.mark.parametrize("dim,n", READOUT_GRIDS)
    @pytest.mark.parametrize("regime", REGIMES)
    def test_halves_bitwise_equal_to_projected_orbit(self, dim, n, regime):
        """Both modes, at several t in one workspace, on non-Hermitian spectra with Nyquist content."""
        rng = np.random.default_rng(900 + 10 * dim + REGIMES.index(regime))
        g = Grid(dim=dim, box_len=float(rng.uniform(2.0, 8.0)), n=n)
        orbit = SemigroupOrbit(random_spectrum(g, rng), random_params(rng, regime))
        full, theta_only = Workspace(g), Workspace(g, theta_only=True)
        for t in self.TIMES:
            want = orbit.at(t)
            th, mh = orbit.halves(t, full)
            assert np.array_equal(th, hermitian_half(want.theta_hat, g))
            assert np.array_equal(mh, hermitian_half(want.m_hat, g))
            assert np.array_equal(orbit.halves(t, theta_only)[0], hermitian_half(want.theta_hat, g))

    @pytest.mark.parametrize("dim,n", READOUT_GRIDS)
    def test_reused_workspace_equals_fresh_one(self, dim, n, oscillatory_params):
        """No state of an earlier sample, or of another orbit, leaks into the next read-out."""
        rng = np.random.default_rng(950 + dim)
        g = Grid(dim=dim, box_len=5.0, n=n)
        orbits = [SemigroupOrbit(random_spectrum(g, rng), oscillatory_params) for _ in range(2)]
        for theta_only in (False, True):
            ws = Workspace(g, theta_only=theta_only)
            for buf in vars(ws).values():
                if isinstance(buf, np.ndarray):
                    buf.fill(np.nan)
            for t in self.TIMES:
                for orbit in orbits:
                    got = [None if h is None else h.copy() for h in orbit.halves(t, ws)]
                    want = orbit.halves(t, Workspace(g, theta_only=theta_only))
                    for a, b in zip(got, want):
                        assert (a is None and b is None) or np.array_equal(a, b)

    @pytest.mark.parametrize("half", [False, True])
    @pytest.mark.parametrize("dim,n", READOUT_GRIDS)
    def test_block_momenta_bitwise_equal_to_stacked_formula(self, dim, n, half, oscillatory_params):
        """Per-component momentum images equal heat m_hat + xi_j w formed on the whole stack."""
        rng = np.random.default_rng(980 + dim)
        g = Grid(dim=dim, box_len=5.0, n=n)
        shape = g.half_shape if half else g.shape
        th = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m_hat = rng.standard_normal((dim,) + shape) + 1j * rng.standard_normal((dim,) + shape)
        block = spectral_mod.semigroup_block(oscillatory_params, g, 0.4, half=half)
        a_hat = spectral_mod.longitudinal_amplitude(m_hat, g, half)
        for theta_hat in (th, None):
            w = block.lg * a_hat
            if theta_hat is not None:
                w -= 1j * block.cap * block.d * theta_hat
            want = block.heat * m_hat
            for j, x in enumerate(g.wavevectors(half)):
                want[j] += x * w
            assert np.array_equal(block.momenta(theta_hat, a_hat, m_hat, g), want)


class TestFrequencySplit:
    def test_partition_of_unity(self):
        g = Grid(dim=2, box_len=2.0, n=16)
        sp = to_spectral(random_state(g, np.random.default_rng(2), modes=8))
        low, high = frequency_split(sp, default_cutoff(g))
        assert np.max(np.abs(low.theta_hat + high.theta_hat - sp.theta_hat)) <= 1e-15 * np.max(np.abs(sp.theta_hat))
        assert np.max(np.abs(low.m_hat + high.m_hat - sp.m_hat)) <= 1e-15 * np.max(np.abs(sp.m_hat))

    def test_band_supports(self):
        g = Grid(dim=2, box_len=2 * np.pi, n=32)
        sp = to_spectral(random_state(g, np.random.default_rng(4), modes=12))
        eps = 3.2
        low, high = frequency_split(sp, CutoffSpec(eps=eps))
        xi_abs = np.sqrt(g.xi_sq)
        assert np.all(np.abs(low.theta_hat[xi_abs > 2 * eps]) == 0.0)
        assert np.all(np.abs(high.theta_hat[xi_abs <= eps]) == 0.0)

    def test_wide_cutoff_keeps_everything_low(self):
        g = Grid(dim=1, box_len=2 * np.pi, n=16)
        sp = to_spectral(random_state(g, np.random.default_rng(6), modes=7))
        low, high = frequency_split(sp, CutoffSpec(eps=g.xi_max))
        assert np.all(high.theta_hat == 0.0)
        assert np.allclose(low.theta_hat, sp.theta_hat)

    def test_single_high_mode_goes_high(self):
        g = Grid(dim=1, box_len=2 * np.pi, n=32)
        eps = 1.0
        theta_hat = np.zeros(16, dtype=complex)
        theta = np.cos(3 * np.arange(32) * g.spacing)  # |xi| = 3 = 3 eps
        sp = to_spectral(State(grid=g, theta=theta, m=np.zeros((1, 32))))
        low, high = frequency_split(sp, CutoffSpec(eps=eps))
        assert np.max(np.abs(low.theta_hat)) <= 1e-13 * g.mode_count
        assert np.max(np.abs(high.theta_hat)) == pytest.approx(g.mode_count / 2)

    def test_empty_low_band_raises(self):
        g = Grid(dim=1, box_len=2 * np.pi, n=8)  # smallest nonzero |xi| = 1
        sp = to_spectral(random_state(g, np.random.default_rng(7), modes=3))
        with pytest.raises(EmptyLowBand):
            frequency_split(sp, CutoffSpec(eps=0.4))

    @pytest.mark.parametrize("dim,n", [(1, 32), (2, 16), (3, 8), (4, 4)])
    def test_low_plus_high_reconstructs_random_spectra(self, dim, n):
        """low + high is the input to 1e-15 relative on unstructured spectra, at random cutoffs."""
        rng = np.random.default_rng(90 + dim)
        for _ in range(5):
            g = Grid(dim=dim, box_len=float(rng.uniform(1.0, 20.0)), n=n)
            sp = random_spectrum(g, rng)
            # the low band holds at least the smallest nonzero |xi| = 2 pi / L
            eps = float(rng.uniform(np.pi / g.box_len * 1.01, g.xi_max))
            low, high = frequency_split(sp, CutoffSpec(eps=eps))
            for part in ("theta_hat", "m_hat"):
                orig = getattr(sp, part)
                err = np.max(np.abs(getattr(low, part) + getattr(high, part) - orig))
                assert err <= 1e-15 * np.max(np.abs(orig)), (part, eps)

    def test_profile_properties(self):
        cut = CutoffSpec(eps=2.0)
        r = np.linspace(0.0, 6.0, 400)
        phi = cut(r)
        assert np.all(phi[r <= 2.0] == 1.0)
        assert np.all(phi[r >= 4.0] == 0.0)
        assert np.all((phi >= 0.0) & (phi <= 1.0))
        assert np.all(np.diff(phi) <= 1e-15)


def derivative(f, grid, alpha):
    """d^alpha f on the half layout, as the solver takes it."""
    return irfftn(spectral_mod._multi_index_power(grid, alpha) * rfftn(f), grid)


class TestSpectralDerivative:
    def test_order_zero_identity(self):
        g = Grid(dim=2, box_len=1.0, n=8)
        f = np.random.default_rng(0).standard_normal(g.shape)
        assert np.all(spectral_mod._multi_index_power(g, (0, 0)) == 1.0)
        assert np.max(np.abs(derivative(f, g, (0, 0)) - f)) <= 1e-14 * np.max(np.abs(f))

    def test_sine_derivative(self):
        g = Grid(dim=2, box_len=5.0, n=32)
        x = g.mesh()[0]
        k = 2 * np.pi / g.box_len
        f = np.broadcast_to(np.sin(k * x), g.shape)
        df = derivative(f, g, (1, 0))
        assert np.allclose(df, k * np.broadcast_to(np.cos(k * x), g.shape), atol=1e-12)

    def test_gaussian_laplacian_closed_form(self):
        g = Grid(dim=2, box_len=20.0, n=128)
        w = 1.0
        f = gaussian_bump(g, center=(10.0, 10.0), width=w, amplitude=1.0)
        lap = derivative(f, g, (2, 0)) + derivative(f, g, (0, 2))
        r_sq = g.periodic_r_sq((10.0, 10.0))
        want = (r_sq / w**4 - g.dim / w**2) * f
        assert np.max(np.abs(lap - want)) <= 1e-8

    def test_gradient_matches_componentwise(self):
        """The half-layout gradient from one rfftn against .real of each complex round trip, Nyquist planes included."""
        g = Grid(dim=3, box_len=3.0, n=8)
        f = np.random.default_rng(3).standard_normal(g.shape)
        f_hat = rfftn(f)
        for x, x_full in zip(odd_wavevectors(g), g.wavevectors()):
            want = np.fft.ifftn(1j * x_full * np.fft.fftn(f)).real
            assert np.allclose(irfftn(1j * x * f_hat, g), want, atol=1e-12)


class TestDivergenceFormMomentum:
    def test_constant_tensor_gives_zero(self):
        g = Grid(dim=2, box_len=1.0, n=8)
        M0 = np.ones((2, 2) + g.shape)
        assert np.max(np.abs(divergence_form_momentum(M0, g))) <= 1e-13

    def test_analytic_diagonal_sine(self):
        g = Grid(dim=2, box_len=7.0, n=32)
        k = 2 * np.pi / g.box_len
        x = g.mesh()[0]
        M0 = np.zeros((2, 2) + g.shape)
        M0[0, 0] = np.broadcast_to(np.sin(k * x), g.shape)
        m0 = divergence_form_momentum(M0, g)
        assert np.allclose(m0[0], k * np.broadcast_to(np.cos(k * x), g.shape), atol=1e-12)
        assert np.max(np.abs(m0[1])) <= 1e-13

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_real_transforms_match_complex_formula(self, dim, n):
        """On white noise, against sum_k .real ifftn(i xi_k fftn(M0[j, k]))."""
        g = Grid(dim=dim, box_len=3.0, n=n)
        M0 = np.random.default_rng(dim).standard_normal((dim, dim) + g.shape)
        xis = g.wavevectors()
        want = np.stack(
            [np.fft.ifftn(sum(1j * xis[k] * np.fft.fftn(M0[j, k]) for k in range(dim))).real for j in range(dim)]
        )
        got = divergence_form_momentum(M0, g)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_matches_fd4_oracle_at_fd_convergence_rate(self):
        """Spectral divergence treated as truth; FD4 error must shrink ~16x per halving."""
        errs = []
        for n in (32, 64):
            g = Grid(dim=2, box_len=6.0, n=n)
            x, y = g.mesh()
            M0 = np.zeros((2, 2) + g.shape)
            k = 2 * np.pi / g.box_len
            M0[0, 0] = np.sin(k * x) * np.cos(2 * k * y)
            M0[0, 1] = np.cos(k * x) * np.sin(k * y)
            M0[1, 0] = np.sin(2 * k * x) * np.sin(k * y)
            M0[1, 1] = np.cos(2 * k * x) * np.cos(2 * k * y)
            spec = divergence_form_momentum(M0, g)
            fd = np.stack([sum(fd4(M0[j, k_], k_, g.spacing) for k_ in range(2)) for j in range(2)])
            errs.append(np.max(np.abs(spec - fd)))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.15)


class TestDealias:
    def test_removes_high_third(self):
        g = Grid(dim=1, box_len=2 * np.pi, n=32)
        f = np.cos(12 * np.arange(32) * g.spacing)  # alias 12 > 32/3
        assert np.max(np.abs(irfftn(dealias_mask(g) * rfftn(f), g))) <= 1e-13

    def test_keeps_low_modes(self):
        g = Grid(dim=1, box_len=2 * np.pi, n=32)
        f = np.cos(5 * np.arange(32) * g.spacing)
        assert np.allclose(irfftn(dealias_mask(g) * rfftn(f), g), f, atol=1e-13)


def white_noise_state(grid, rng):
    """Real fields with O(1) content on every mode, Nyquist planes included."""
    return State(grid=grid, theta=rng.standard_normal(grid.shape), m=rng.standard_normal((grid.dim,) + grid.shape))


def _all_multi_indices(dim, max_order=3):
    return [alpha for order in range(1, max_order + 1) for alpha in multi_indices(dim, order)]


class TestHalfLayout:
    """Real transforms, the Nyquist rule and the block formula on half spectra."""

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8), (3, 8)])
    def test_real_transform_round_trip_and_agreement(self, dim, n):
        g = Grid(dim=dim, box_len=5.0, n=n)
        f = np.random.default_rng(dim).standard_normal(g.shape)
        half = spectral_mod.rfftn(f)
        assert half.shape == g.half_shape
        assert np.max(np.abs(half - np.fft.fftn(f)[..., : n // 2 + 1])) <= 1e-13 * np.max(np.abs(half))
        assert np.max(np.abs(spectral_mod.irfftn(half, g) - f)) <= 1e-14 * np.max(np.abs(f))

    def test_real_transforms_use_the_fft_worker_setting(self, monkeypatch):
        seen = []
        backend = spectral_mod._fft

        class Recorder:
            def __getattr__(self, name):
                fn = getattr(backend, name)

                def wrapper(arr, **kwargs):
                    seen.append((name, kwargs["workers"]))
                    return fn(arr, **kwargs)

                return wrapper

        g = Grid(dim=2, box_len=1.0, n=8)
        monkeypatch.setattr(spectral_mod, "_fft", Recorder())
        monkeypatch.setattr(spectral_mod, "_FFT_WORKERS", 2)
        spectral_mod.irfftn(spectral_mod.rfftn(np.ones(g.shape)), g)
        spectral_mod.fftn(np.ones(g.shape))
        assert seen == [("rfftn", 2), ("irfftn", 2), ("fftn", 2)]

    def test_fft_calls_counts_each_transform_of_a_stack(self, fft_calls):
        """A call over stacked fields counts one transform per field, whichever axes it transforms."""
        g = Grid(dim=2, box_len=1.0, n=8)
        backend = spectral_mod._fft
        backend.rfftn(np.ones((3, 2) + g.shape), axes=(-2, -1))
        backend.irfftn(np.ones((4,) + g.half_shape, dtype=complex), s=g.shape)
        backend.rfftn(np.ones((5,) + g.shape), axes=(0,))
        spectral_mod.irfftn(spectral_mod.rfftn(np.ones(g.shape)), g)
        assert fft_calls == ["rfftn"] * 6 + ["irfftn"] * 4 + ["rfftn"] * 64 + ["rfftn", "irfftn"]

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8), (3, 8)])
    def test_nyquist_rule_drops_what_real_part_drops(self, dim, n):
        """On the half spectrum of a real field, rule * f_hat is again the half spectrum of a real field:
        irfftn drops nothing of it, as .real of the complex round trip would drop nothing of ifftn(rule * f_hat)."""
        g = Grid(dim=dim, box_len=3.0, n=n)
        f_hat = rfftn(np.random.default_rng(10 + dim).standard_normal(g.shape))
        for alpha in _all_multi_indices(dim):
            image = spectral_mod._multi_index_power(g, alpha) * f_hat
            assert np.max(np.abs(rfftn(irfftn(image, g)) - image)) <= 1e-13 * np.max(np.abs(image)), alpha

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8), (3, 8)])
    def test_half_layout_derivatives_match_full(self, dim, n):
        """Every derivative up to order 3 of a white-noise field equals .real of the bare full-layout multiplier."""
        g = Grid(dim=dim, box_len=3.0, n=n)
        f = np.random.default_rng(20 + dim).standard_normal(g.shape)
        for alpha in _all_multi_indices(dim):
            bare = functools.reduce(np.multiply, [(1j * x) ** a for x, a in zip(g.wavevectors(), alpha)])
            want = np.fft.ifftn(bare * np.fft.fftn(f)).real
            assert np.max(np.abs(derivative(f, g, alpha) - want)) <= 1e-13 * np.max(np.abs(want)), alpha

    def test_first_order_power_is_odd_wavevector(self):
        g = Grid(dim=3, box_len=2.0, n=8)
        for ax, x in enumerate(odd_wavevectors(g)):
            alpha = tuple(int(ax == k) for k in range(3))
            assert np.array_equal(spectral_mod._multi_index_power(g, alpha), np.broadcast_to(1j * x, x.shape))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_half_block_bitwise_equal_to_full_block_per_stored_mode(self, oscillatory_params, dim):
        """On any spectrum, Nyquist planes and non-Hermitian content included."""
        g = Grid(dim=dim, box_len=6.0, n=8)
        rng = np.random.default_rng(30 + dim)
        shape = (g.dim,) + g.shape
        full = SpectralState(
            grid=g,
            theta_hat=rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape),
            m_hat=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        )
        h = g.n // 2 + 1
        half = SpectralState(grid=g, theta_hat=full.theta_hat[..., :h], m_hat=full.m_hat[..., :h], half=True)
        for t in (0.0, 0.3, 2.0):
            want = spectral_mod.semigroup_block(oscillatory_params, g, t).apply(full)
            got = spectral_mod.semigroup_block(oscillatory_params, g, t, half=True).apply(half)
            assert got.half
            assert np.array_equal(got.theta_hat, want.theta_hat[..., :h])
            assert np.array_equal(got.m_hat, want.m_hat[..., :h])

    def test_full_layout_only_functions_reject_half_state(self, unit_params):
        g = Grid(dim=2, box_len=8.0, n=16)
        spec = to_spectral(random_state(g, np.random.default_rng(2)), half=True)
        with pytest.raises(GridMismatch):
            SemigroupOrbit(spec, unit_params)
        with pytest.raises(GridMismatch):
            apply_semigroup(spec, unit_params, 0.5)
        with pytest.raises(GridMismatch):
            frequency_split(spec, default_cutoff(g))
        with pytest.raises(GridMismatch):
            measure_semigroup_decay(spec, unit_params, [0.5, 1.0], band="full", p=2)
        with pytest.raises(GridMismatch):
            spectral_mod.semigroup_block(unit_params, g, 0.5).apply(spec)

    def test_to_real_inverts_to_spectral_on_both_layouts(self):
        g = Grid(dim=3, box_len=4.0, n=8)
        s = white_noise_state(g, np.random.default_rng(4))
        for half in (False, True):
            back = to_real(to_spectral(s, half=half))
            assert np.max(np.abs(back.theta - s.theta)) <= 1e-14 * np.max(np.abs(s.theta))
            assert np.max(np.abs(back.m - s.m)) <= 1e-14 * np.max(np.abs(s.m))


class TestSymmetryDefectHalfLayout:
    def test_real_field_is_symmetric(self):
        g = Grid(dim=3, box_len=4.0, n=8)
        spec = to_spectral(white_noise_state(g, np.random.default_rng(5)), half=True)
        assert conjugate_symmetry_defect(spec) <= 1e-15

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_checks_exactly_the_self_mirror_planes(self, dim):
        g = Grid(dim=dim, box_len=4.0, n=8)
        spec = to_spectral(white_noise_state(g, np.random.default_rng(6 + dim)), half=True)
        scale = np.max(np.abs(spec.theta_hat))
        for last, flagged in ((0, True), (g.n // 2, True), (1, False), (g.n // 2 - 1, False)):
            theta_hat = spec.theta_hat.copy()
            theta_hat[(1,) * (dim - 1) + (last,)] += 1e-3 * scale * 1j
            bumped = SpectralState(grid=g, theta_hat=theta_hat, m_hat=spec.m_hat, half=True)
            # a mode off those planes has its mirror implied, so it cannot break the symmetry
            assert (conjugate_symmetry_defect(bumped) > 1e-4) == flagged, last


def _hermitian_part_reference(arr, grid):
    """(g(xi) + conj g(-xi)) / 2 over the trailing grid axes, the mirror by np.flip then np.roll."""
    axes = tuple(range(arr.ndim - grid.dim, arr.ndim))
    return 0.5 * (arr + np.conj(np.roll(np.flip(arr, axis=axes), 1, axis=axes)))


HERMITIAN_GRIDS = [(dim, n) for dim in (1, 2, 3, 4) for n in (2, 4, 8)]


class TestHermitianHalf:
    """The one read-out of a full spectrum: its projection onto the half spectrum of the real field."""

    @pytest.mark.parametrize("dim,n", HERMITIAN_GRIDS)
    @pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
    def test_bitwise_equal_to_hermitian_part_formula(self, dim, n, lead):
        g = Grid(dim=dim, box_len=3.0, n=n)
        rng = np.random.default_rng(600 + 10 * dim + n)
        arr = rng.standard_normal(lead + g.shape) + 1j * rng.standard_normal(lead + g.shape)
        got = spectral_mod.hermitian_half(arr, g)
        assert got.shape == lead + g.half_shape
        assert np.array_equal(got, _hermitian_part_reference(arr, g)[..., : n // 2 + 1])

    @pytest.mark.parametrize("dim,n", HERMITIAN_GRIDS)
    def test_half_parseval_with_mirror_multiplicity(self, dim, n):
        """Multiplicity-weighted half power gives the grid L2 norm of the real field."""
        g = Grid(dim=dim, box_len=3.0, n=n)
        rng = np.random.default_rng(700 + 10 * dim + n)
        shape = (dim + 1,) + g.shape
        hats = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        st = to_real(SpectralState(grid=g, theta_hat=hats[0], m_hat=hats[1:]))
        for hat, field in ((hats[0], st.theta), (hats[1:], st.m)):
            got = spectral_l2_norm(half_power(spectral_mod.hermitian_half(hat, g), g), g) ** 2
            assert got == pytest.approx(lp_norm(field, g, 2) ** 2, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("dim,n", HERMITIAN_GRIDS)
    def test_full_layout_to_real_matches_ifftn_real(self, dim, n):
        g = Grid(dim=dim, box_len=3.0, n=n)
        rng = np.random.default_rng(800 + 10 * dim + n)
        shape = (dim + 1,) + g.shape
        hats = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        st = to_real(SpectralState(grid=g, theta_hat=hats[0], m_hat=hats[1:]))
        want = np.fft.ifftn(hats, axes=tuple(range(1, dim + 1))).real
        scale = np.max(np.abs(want))
        assert np.max(np.abs(st.theta - want[0])) <= 1e-14 * scale
        assert np.max(np.abs(st.m - want[1:])) <= 1e-14 * scale
