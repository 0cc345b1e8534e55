import functools
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import nsklab.spectral as spectral_mod
from conftest import fd4, full_spectrum, random_params, random_spectrum, wavevector_of_index
from nsklab.analysis import half_power, lp_norm, measure_semigroup_decay, spectral_l2_norm
from nsklab.errors import ConstraintViolation, EmptyLowBand, GridMismatch
from nsklab.fields import curl_mixture_momentum_state, riesz_momentum_pair, transverse_packet
from nsklab.model import Grid, SpectralState, State, gaussian_bump
from nsklab.spectral import (
    CutoffSpec,
    SemigroupOrbit,
    Workspace,
    apply_semigroup,
    conjugate_symmetry_defect,
    dealias_mask,
    default_cutoff,
    derivative,
    divergence_form_momentum,
    frequency_band,
    frequency_split,
    hermitian_half,
    irfftn,
    multi_indices,
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
    return State(grid=grid, fields=np.stack([np.fft.ifftn(h).real for h in (theta_hat, *m_hat)]))


class TestTransforms:
    def test_constant_field_single_coefficient(self):
        g = Grid(dim=2, box_len=1.0, n=8)
        fields = np.zeros((3,) + g.shape)
        fields[0] = 3.0
        s = State(grid=g, fields=fields)
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
        sp = to_spectral(State(grid=g, fields=np.concatenate([theta[None], np.zeros((2,) + g.shape)])))
        assert sp.theta_hat[1, 0] == pytest.approx(g.mode_count / 2)
        assert sp.theta_hat[-1, 0] == pytest.approx(g.mode_count / 2)
        assert sp.theta_hat[1, 0] == pytest.approx(np.conj(sp.theta_hat[-1, 0]))
        rest = sp.theta_hat.copy()
        rest[1, 0] = rest[-1, 0] = 0.0
        assert np.max(np.abs(rest)) <= 1e-10 * g.mode_count


class TestApplySemigroup:
    def test_time_zero_is_identity(self, oscillatory_params):
        g = Grid(dim=2, box_len=3.0, n=8)
        sp = full_spectrum(random_state(g, np.random.default_rng(1)))
        out = apply_semigroup(sp, oscillatory_params, 0.0)
        assert np.allclose(out.theta_hat, sp.theta_hat, atol=1e-14)
        assert np.allclose(out.m_hat, sp.m_hat, atol=1e-14)

    def test_matches_per_mode_symbol(self, positive_params, oscillatory_params, unit_params):
        rng = np.random.default_rng(3)
        g = Grid(dim=2, box_len=3.0, n=8)
        sp = full_spectrum(random_state(g, rng))
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
        sp = full_spectrum(State(grid=g, fields=np.concatenate([np.zeros((1,) + g.shape), m])))
        t = 0.9
        out = apply_semigroup(sp, positive_params, t)
        assert np.max(np.abs(out.theta_hat)) <= 1e-12 * g.mode_count
        decay = np.exp(-positive_params.alpha_star * t)  # |xi| = 1
        assert np.allclose(out.m_hat[0], decay * sp.m_hat[0], atol=1e-10 * g.mode_count)

    def test_semigroup_property_on_grid(self, oscillatory_params):
        g = Grid(dim=2, box_len=5.0, n=16)
        sp = full_spectrum(random_state(g, np.random.default_rng(5)))
        one = apply_semigroup(sp, oscillatory_params, 1.1)
        two = apply_semigroup(apply_semigroup(sp, oscillatory_params, 0.4), oscillatory_params, 0.7)
        scale = np.max(np.abs(one.theta_hat))
        assert np.max(np.abs(one.theta_hat - two.theta_hat)) <= 1e-10 * scale
        assert np.max(np.abs(one.m_hat - two.m_hat)) <= 1e-10 * np.max(np.abs(one.m_hat))

    def test_mean_modes_conserved_exactly(self, unit_params):
        g = Grid(dim=3, box_len=4.0, n=8)
        rng = np.random.default_rng(9)
        s = random_state(g, rng)
        s = State(grid=g, fields=np.concatenate([s.theta[None] + 0.3, s.m + rng.standard_normal((3, 1, 1, 1))]))
        sp = full_spectrum(s)
        out = apply_semigroup(sp, unit_params, 2.3)
        assert out.theta_hat[0, 0, 0] == sp.theta_hat[0, 0, 0]
        for j in range(3):
            assert out.m_hat[j][0, 0, 0] == sp.m_hat[j][0, 0, 0]

    def test_realness_preserved(self, oscillatory_params):
        g = Grid(dim=2, box_len=3.0, n=32)
        sp = full_spectrum(random_state(g, np.random.default_rng(13), modes=10))
        out = apply_semigroup(sp, oscillatory_params, 1.5)
        assert conjugate_symmetry_defect(out) <= 1e-13

    def test_commutes_with_frequency_split(self, positive_params):
        g = Grid(dim=2, box_len=3.0, n=16)
        sp = full_spectrum(random_state(g, np.random.default_rng(21), modes=7))
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
            one = apply_semigroup(data, params, s + t)
            two = apply_semigroup(apply_semigroup(data, params, s), params, t)
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
        out = apply_semigroup(data, params, t)
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
            data = random_spectrum(g, rng)
            orbit = SemigroupOrbit(data, oscillatory_params)
            ws = Workspace(g, theta_only=True)
            for t in (0.0, 0.3, 2.5):
                hat = orbit.halves(t, ws)
                assert hat.shape == (1,) + g.half_shape  # the theta row alone
                assert np.array_equal(hat[0], hermitian_half(apply_semigroup(data, oscillatory_params, t).theta_hat, g))
        data = random_spectrum(g, rng)
        orbit = SemigroupOrbit(data, positive_params)
        want = hermitian_half(apply_semigroup(data, positive_params, 1.1).theta_hat, g)
        assert np.array_equal(orbit.halves(1.1, Workspace(g, theta_only=True))[0], want)

    @pytest.mark.parametrize("dim, n, box_len", [(3, 64, 96.0), (2, 512, 96.0), (3, 32, 16.0)])
    def test_radial_kernels_bitwise_equal_to_full_grid(self, oscillatory_params, dim, n, box_len):
        """Kernels on the distinct |xi|^2, gathered per half-layout mode, equal their per-mode evaluation on the full
        grid bit for bit, and so do the gathered block coefficients and the ones apply_semigroup evaluates per mode."""
        g = Grid(dim=dim, box_len=box_len, n=n)
        h = n // 2 + 1
        values, index = g.radial_values, g.radial_index
        assert np.array_equal(values[index], g.half_xi_sq)
        assert values.size == np.unique(g.xi_sq).size
        assert not values.flags.writeable and not index.flags.writeable
        for t in (0.35, 1.7, 6.5, 65.0):
            radial = propagator_kernels(oscillatory_params, values, t)
            full = propagator_kernels(oscillatory_params, g.xi_sq, t)
            for r, f in zip(radial, full):
                assert np.array_equal(r[index], f[..., :h])
            block = spectral_mod.semigroup_block(oscillatory_params, g, t)
            per_mode = spectral_mod._semigroup_tables(oscillatory_params, g.xi_sq, t)
            for name, f in zip(("d", "tf", "lg", "heat"), per_mode):
                assert np.array_equal(getattr(block, name), f[..., :h]), name

    def test_rejects_negative_time(self, unit_params):
        g = Grid(dim=2, box_len=3.0, n=8)
        data = random_spectrum(g, np.random.default_rng(2))
        orbit = SemigroupOrbit(data, unit_params)
        with pytest.raises(ValueError):
            apply_semigroup(data, unit_params, -0.1)
        for theta_only in (False, True):
            with pytest.raises(ValueError):
                orbit.halves(-0.1, Workspace(g, theta_only=theta_only))

    def test_non_finite_image_rejected(self, unit_params, monkeypatch):
        """NaN kernels reject a sample of a full-support orbit and of a band-limited one on its coarse grid."""
        g = Grid(dim=2, box_len=3.0, n=8)
        data = random_spectrum(g, np.random.default_rng(3))
        orbits = [SemigroupOrbit(data, unit_params), SemigroupOrbit(data, unit_params, "low", default_cutoff(g))]
        assert orbits[1].eval_grid.n == 4
        monkeypatch.setattr(spectral_mod, "propagator_kernels", lambda p, x, t: (np.full(np.shape(x), np.nan),) * 4)
        for orbit in orbits:
            for theta_only in (False, True):
                with pytest.raises(ConstraintViolation):
                    orbit.halves(1.0, Workspace(g, theta_only=theta_only))
        with pytest.raises(ConstraintViolation):
            apply_semigroup(data, unit_params, 1.0)

    def test_non_finite_momentum_rejected(self, unit_params, monkeypatch):
        """Each momentum component is checked, not only theta: a heat kernel that is infinite at one |xi|^2 only
        reaches the momentum rows."""
        g = Grid(dim=2, box_len=3.0, n=8)
        orbit = SemigroupOrbit(random_spectrum(g, np.random.default_rng(4)), unit_params)
        kernels = spectral_mod.propagator_kernels

        def heat_blows_up(params, xi_sq, t):
            *rest, heat = kernels(params, xi_sq, t)
            return (*rest, np.where(xi_sq == xi_sq[1], np.inf, heat))

        monkeypatch.setattr(spectral_mod, "propagator_kernels", heat_blows_up)
        with pytest.raises(ConstraintViolation), np.errstate(invalid="ignore"):
            orbit.halves(0.5, Workspace(g))
        assert np.all(np.isfinite(orbit.halves(0.5, Workspace(g, theta_only=True))[0]))


READOUT_GRIDS = [(1, 16), (2, 8), (3, 8), (4, 4)]


def layout_block(params, g, t, half, rows=4):
    """S(t)'s block on one layout: semigroup_block's gather on the half layout, on the full layout the per-mode block
    apply_semigroup applies.  ``rows`` 2 keeps d and tf alone."""
    if half:
        return spectral_mod.semigroup_block(params, g, t, out=None if rows == 4 else np.empty((rows,) + g.half_shape))
    return spectral_mod.Block(*spectral_mod._semigroup_tables(params, g.xi_sq, t)[:rows], cap=params.kappa_star * params.rho_star)


def real_field_spectrum(grid, rng):
    """The full spectrum of random real rows: Hermitian, Nyquist planes included."""
    rows = rng.standard_normal((grid.dim + 1,) + grid.shape)
    return SpectralState(grid=grid, hat=np.stack([spectral_mod.fftn(row) for row in rows]))


def readout_inputs(grid, rng):
    """A non-Hermitian spectrum with Nyquist content; the spectrum of a real field, and that spectrum with about
    10% of its modes perturbed; and the output of every generator that builds data on the grid's dimension."""
    real = real_field_spectrum(grid, rng)
    hat = real.hat.copy()
    hit = rng.random(hat.shape) < 0.1
    hat[hit] += rng.standard_normal(np.count_nonzero(hit)) + 1j * rng.standard_normal(np.count_nonzero(hit))
    inputs = [random_spectrum(grid, rng), real, SpectralState(grid=grid, hat=hat)]
    inputs += riesz_momentum_pair(grid, grid.dim / 2, 0.98 * grid.box_len / 4, rng=rng)
    if grid.dim >= 2:
        inputs.append(transverse_packet(grid, grid.box_len / 8))
    if grid.dim in (2, 3):
        inputs.append(curl_mixture_momentum_state(grid, 2.5, 0.3 * grid.box_len / 8, grid.box_len / 8))
    return inputs


BANDS = ("full", "low", "high")


def full_layout_band(datum, band):
    """The band of a datum as the full-layout state it was before the orbit formed its own: frequency_band."""
    return datum if band == "full" else frequency_band(datum, default_cutoff(datum.grid), band)


def reference_eval_grid(band):
    """The smallest power of two m with |alias| < m/2 on every axis of every nonzero mode of a full-layout band, or
    the band's own grid if m is not below its n."""
    g = band.grid
    nonzero = np.nonzero(np.any(band.hat, axis=0))
    reach = max(int(np.abs(g.axis_aliases()[idx]).max(initial=0)) for idx in nonzero)
    m = 2 << reach.bit_length()
    return g if m >= g.n else Grid(dim=g.dim, box_len=g.box_len, n=m)


def reference_mirror_set(band, grid):
    """Flat half-layout indices on ``grid`` of the modes on a Nyquist index of some axis and of those where the
    full-layout band, restricted to ``grid``, is not Hermitian in some row (the mirror by np.flip then np.roll)."""
    modes = grid.axis_aliases() % band.grid.n
    hat = band.hat[(slice(None),) + np.ix_(*[modes] * grid.dim)]
    axes = tuple(range(1, grid.dim + 1))
    off = np.any(hat != np.conj(np.roll(np.flip(hat, axis=axes), 1, axis=axes)), axis=0)[..., : grid.n // 2 + 1]
    nyquist = np.any(np.indices(grid.half_shape) == grid.n // 2, axis=0)
    return np.flatnonzero(off | nyquist)


class TestWorkspaceReadOut:
    """SemigroupOrbit.halves: S(t) samples read out into reused buffers, bitwise equal to the projected orbit."""

    TIMES = (0.7, 0.0, 2.3, 0.05)

    @pytest.mark.parametrize("dim,n", READOUT_GRIDS)
    @pytest.mark.parametrize("regime", REGIMES)
    def test_halves_bitwise_equal_to_projected_orbit(self, dim, n, regime):
        """The orbit formed from a datum and a band (full, low and high under the default cutoff), in both modes, at
        several t in one workspace, on every input of :func:`readout_inputs`: its evaluation grid and mirror set are
        those of the full-layout band from :func:`frequency_band`, and its read-outs are that band's projected
        :func:`apply_semigroup`, bit for bit."""
        rng = np.random.default_rng(900 + 10 * dim + REGIMES.index(regime))
        g = Grid(dim=dim, box_len=float(rng.uniform(2.0, 8.0)), n=n)
        params = random_params(rng, regime)
        full, theta_only = Workspace(g), Workspace(g, theta_only=True)
        for datum in readout_inputs(g, rng):
            for band in BANDS:
                ref = full_layout_band(datum, band)
                orbit = SemigroupOrbit(datum, params, band, default_cutoff(g))
                assert orbit.eval_grid == reference_eval_grid(ref)
                assert np.array_equal(orbit.mirror, reference_mirror_set(ref, orbit.eval_grid))
                for t in self.TIMES:
                    want = apply_semigroup(ref, params, t)
                    hat = orbit.halves(t, full)
                    assert np.array_equal(hat[0], hermitian_half(want.theta_hat, g))
                    assert np.array_equal(hat[1:], hermitian_half(want.m_hat, g))
                    assert np.array_equal(orbit.halves(t, theta_only)[0], hermitian_half(want.theta_hat, g))
            assert orbit.eval_grid is g  # the high band's
            assert SemigroupOrbit(datum, params, "low", default_cutoff(g)).eval_grid.n == n // 2

    @pytest.mark.parametrize("dim,n", READOUT_GRIDS)
    def test_mirror_set_of_a_real_field_is_its_nyquist_modes(self, dim, n, unit_params):
        """The spectrum of a real field is Hermitian, and so is each of its bands (the cutoff is even), so only the
        Nyquist-index modes of the evaluation grid carry their mirror; a mode bumped off them joins the set (its
        half-layout representative) where its band keeps it, and a non-Hermitian spectrum mirrors all."""
        rng = np.random.default_rng(960 + dim)
        g = Grid(dim=dim, box_len=4.0, n=n)
        nyquist = np.flatnonzero(np.any(np.indices(g.half_shape) == n // 2, axis=0))
        real = real_field_spectrum(g, rng)
        assert np.array_equal(SemigroupOrbit(real, unit_params).mirror, nyquist)
        for band in ("low", "high"):
            orbit = SemigroupOrbit(real, unit_params, band, default_cutoff(g))
            coarse = orbit.eval_grid
            on_nyquist = np.any(np.indices(coarse.half_shape) == coarse.n // 2, axis=0)
            assert np.array_equal(orbit.mirror, np.flatnonzero(on_nyquist))
        hat = real.hat.copy()
        # (1, .., 1) is a half mode; (1, .., 1, n - 1) is not, and its mirror (n - 1, .., n - 1, 1) is
        inside, outside = (1,) * dim, (1,) * (dim - 1) + (n - 1,)
        hat[(rng.integers(dim + 1),) + inside] += 0.5j
        hat[(rng.integers(dim + 1),) + outside] += 0.25
        bumped_state = SpectralState(grid=g, hat=hat)
        bumped = [np.ravel_multi_index(k, g.half_shape) for k in (inside, (n - 1,) * (dim - 1) + (1,))]
        got = SemigroupOrbit(bumped_state, unit_params).mirror
        assert np.array_equal(got, np.union1d(nyquist, bumped))
        for band in ("low", "high"):
            orbit = SemigroupOrbit(bumped_state, unit_params, band, default_cutoff(g))
            want = reference_mirror_set(full_layout_band(bumped_state, band), orbit.eval_grid)
            assert np.array_equal(orbit.mirror, want)
        assert SemigroupOrbit(random_spectrum(g, rng), unit_params).mirror.size == math.prod(g.half_shape)

    @pytest.mark.parametrize("dim,n", READOUT_GRIDS)
    def test_orbit_of_a_band_equals_orbit_of_its_full_layout_band(self, dim, n, oscillatory_params):
        """Forming the band inside the orbit reads out, bit for bit, what an orbit of the full-layout band reads out.
        The latter runs on the fine grid; where both run on one grid, they keep the same half stack and a_hat, mirror
        set and values, wavevectors and a_hat there."""
        rng = np.random.default_rng(970 + dim)
        g = Grid(dim=dim, box_len=5.0, n=n)
        ws = Workspace(g)
        for datum in readout_inputs(g, rng):
            for band in BANDS:
                got = SemigroupOrbit(datum, oscillatory_params, band, default_cutoff(g))
                want = SemigroupOrbit(full_layout_band(datum, band), oscillatory_params)
                assert want.eval_grid is g
                for t in (0.0, 0.7):
                    assert np.array_equal(got.halves(t, ws).copy(), want.halves(t, ws)), (band, t)
                if got.eval_grid == want.eval_grid:
                    for name in ("mirror", "_theta", "_m", "_a_hat", "_mirror_theta", "_mirror_m", "_mirror_a_hat", "_mirror_xis"):
                        assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_band_is_validated_like_frequency_band(self, unit_params):
        g = Grid(dim=2, box_len=4.0, n=8)
        data = random_spectrum(g, np.random.default_rng(975))
        with pytest.raises(ValueError):
            SemigroupOrbit(data, unit_params, "middle")
        with pytest.raises(EmptyLowBand):
            SemigroupOrbit(data, unit_params, "high", CutoffSpec(eps=1e-3))
        half = SpectralState(grid=g, hat=np.zeros((3,) + g.half_shape, complex), half=True)
        with pytest.raises(GridMismatch):
            SemigroupOrbit(half, unit_params, "low")

    @pytest.mark.parametrize("dim,n", READOUT_GRIDS)
    def test_reused_workspace_equals_fresh_one(self, dim, n, oscillatory_params):
        """No state of an earlier sample, or of another orbit, coarse or not, leaks into the next read-out."""
        rng = np.random.default_rng(950 + dim)
        g = Grid(dim=dim, box_len=5.0, n=n)
        data = [random_spectrum(g, rng) for _ in range(2)]
        orbits = [SemigroupOrbit(d, oscillatory_params) for d in data]
        orbits.append(SemigroupOrbit(data[0], oscillatory_params, "low", default_cutoff(g)))
        assert orbits[2].eval_grid.n < n
        for theta_only in (False, True):
            ws = Workspace(g, theta_only=theta_only)
            for buf in vars(ws).values():
                if isinstance(buf, np.ndarray):
                    buf.fill(np.nan)
            for t in self.TIMES:
                for orbit in orbits:
                    got = orbit.halves(t, ws).copy()
                    assert np.array_equal(got, orbit.halves(t, Workspace(g, theta_only=theta_only)))

    @pytest.mark.parametrize("half", [False, True])
    @pytest.mark.parametrize("dim,n", READOUT_GRIDS)
    def test_block_momenta_bitwise_equal_to_stacked_formula(self, dim, n, half, oscillatory_params):
        """The momentum rows of the image stack equal heat m_hat + xi_j w formed on the whole stack; row 0 is the
        image into a one-row stack.  On the full layout the stack is apply_semigroup's image."""
        rng = np.random.default_rng(980 + dim)
        g = Grid(dim=dim, box_len=5.0, n=n)
        shape = g.half_shape if half else g.shape
        th = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m_hat = rng.standard_normal((dim,) + shape) + 1j * rng.standard_normal((dim,) + shape)
        block = layout_block(oscillatory_params, g, 0.4, half)
        xis = g.wavevectors(half)
        a_hat = spectral_mod.longitudinal_amplitude(m_hat, xis, g.half_xi_sq if half else g.xi_sq)
        if not half:
            hat = np.concatenate([th[None], m_hat])
            image = block.image(th, m_hat, a_hat, xis, np.empty_like(hat), None)
            assert np.array_equal(apply_semigroup(SpectralState(grid=g, hat=hat), oscillatory_params, 0.4).hat, image)
        for theta_hat in (th, None):
            w = block.lg * a_hat
            if theta_hat is not None:
                w -= 1j * block.cap * block.d * theta_hat
            want = block.heat * m_hat
            for j, x in enumerate(xis):
                want[j] += x * w
            got = block.image(theta_hat, m_hat, a_hat, xis, np.empty((dim + 1,) + shape, dtype=complex), None)
            assert np.array_equal(got[1:], want)
            row = block.image(theta_hat, m_hat, a_hat, xis, np.empty((1,) + shape, dtype=complex), None)
            assert np.array_equal(got[0], row[0])

    @pytest.mark.parametrize("half", [False, True])
    @pytest.mark.parametrize("dim,n", READOUT_GRIDS)
    def test_theta_block_gathers_d_and_tf_alone(self, dim, n, half, oscillatory_params):
        """An ``out`` of two arrays gathers d and tf alone, and that block's one-row image is row 0 of the full
        block's image, bit for bit, with and without theta.  On the full layout the blocks are per mode, as
        apply_semigroup evaluates them."""
        rng = np.random.default_rng(990 + dim)
        g = Grid(dim=dim, box_len=5.0, n=n)
        shape = g.half_shape if half else g.shape
        th = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m_hat = rng.standard_normal((dim,) + shape) + 1j * rng.standard_normal((dim,) + shape)
        full = layout_block(oscillatory_params, g, 0.4, half)
        theta = layout_block(oscillatory_params, g, 0.4, half, rows=2)
        assert theta.lg is None and theta.heat is None
        assert np.array_equal(theta.d, full.d) and np.array_equal(theta.tf, full.tf)
        xis = g.wavevectors(half)
        a_hat = spectral_mod.longitudinal_amplitude(m_hat, xis, g.half_xi_sq if half else g.xi_sq)
        for theta_hat in (th, None):
            want = full.image(theta_hat, m_hat, a_hat, xis, np.empty((dim + 1,) + shape, dtype=complex), None)
            got = theta.image(theta_hat, m_hat, a_hat, xis, np.empty((1,) + shape, dtype=complex), None)
            assert np.array_equal(got[0], want[0])


class TestEvaluationGrid:
    """An orbit of a low band runs on the coarsest grid of its box that holds every mode where its cutoff is nonzero;
    an orbit of a high or full band on its datum's grid."""

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_default_low_band_runs_on_half_grid(self, dim, n, unit_params):
        g = Grid(dim=dim, box_len=6.0, n=n)
        datum = random_spectrum(g, np.random.default_rng(40 + dim))
        band = frequency_band(datum, default_cutoff(g), "low")
        orbit = SemigroupOrbit(datum, unit_params, "low", default_cutoff(g))
        assert orbit.eval_grid == Grid(dim=dim, box_len=6.0, n=n // 2) and orbit.grid is g
        # no nonzero mode is lost: S(0) reads the band's projection back, every nonzero mode of it
        back = orbit.halves(0.0, Workspace(g))
        assert np.count_nonzero(back) == np.count_nonzero(hermitian_half(band.hat, g))
        assert np.array_equal(back, hermitian_half(apply_semigroup(band, unit_params, 0.0).hat, g))

    @pytest.mark.parametrize("index, coarse_n", [(-4, 16), (4, 16), (-3, 8), (3, 8)])
    def test_cutoff_reaching_half_the_coarse_grid_is_not_coarsened(self, index, coarse_n, unit_params):
        """A cutoff whose support reaches alias +-m/2 is not held by the m grid's full spectrum: the next finer grid
        holds it, and the orbit reads a mode at that alias back at S(0)."""
        g = Grid(dim=2, box_len=6.0, n=32)
        cutoff = CutoffSpec(eps=(abs(index) + 0.5) * np.pi / g.box_len)  # nonzero up to alias |index| alone
        hat = np.zeros((3,) + g.shape, dtype=complex)
        hat[1, 0, index % g.n] = 1.0 - 2.0j
        datum = SpectralState(grid=g, hat=hat)
        orbit = SemigroupOrbit(datum, unit_params, "low", cutoff)
        assert orbit.eval_grid.n == coarse_n
        band = frequency_band(datum, cutoff, "low")
        assert np.count_nonzero(hermitian_half(band.hat, g)) > 0
        assert np.array_equal(orbit.halves(0.0, Workspace(g)), hermitian_half(apply_semigroup(band, unit_params, 0.0).hat, g))

    def test_high_band_runs_on_its_own_grid(self, unit_params):
        g = Grid(dim=3, box_len=6.0, n=16)
        data = random_spectrum(g, np.random.default_rng(5))
        assert SemigroupOrbit(data, unit_params, "high", default_cutoff(g)).eval_grid is g

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_eval_grid_depends_on_grid_band_and_cutoff_alone(self, dim, n, unit_params):
        """Data with full support, with one low mode and with none give one evaluation grid per (band, cutoff)."""
        g = Grid(dim=dim, box_len=6.0, n=n)
        one_mode = np.zeros((dim + 1,) + g.shape, dtype=complex)
        one_mode[(1,) + (1,) + (0,) * (dim - 1)] = 1.0
        data = [random_spectrum(g, np.random.default_rng(45 + dim)), SpectralState(grid=g, hat=one_mode)]
        data.append(SpectralState(grid=g, hat=np.zeros_like(one_mode)))
        wide = CutoffSpec(eps=g.xi_max / 2.0)
        for band, cutoff, want in [("low", default_cutoff(g), n // 2), ("low", wide, n), ("high", default_cutoff(g), n), ("full", None, n)]:
            assert [SemigroupOrbit(d, unit_params, band, cutoff).eval_grid.n for d in data] == [want] * len(data), band


class TestFrequencySplit:
    def test_partition_of_unity(self):
        g = Grid(dim=2, box_len=2.0, n=16)
        sp = full_spectrum(random_state(g, np.random.default_rng(2), modes=8))
        low, high = frequency_split(sp, default_cutoff(g))
        assert np.max(np.abs(low.theta_hat + high.theta_hat - sp.theta_hat)) <= 1e-15 * np.max(np.abs(sp.theta_hat))
        assert np.max(np.abs(low.m_hat + high.m_hat - sp.m_hat)) <= 1e-15 * np.max(np.abs(sp.m_hat))

    def test_band_supports(self):
        g = Grid(dim=2, box_len=2 * np.pi, n=32)
        sp = full_spectrum(random_state(g, np.random.default_rng(4), modes=12))
        eps = 3.2
        low, high = frequency_split(sp, CutoffSpec(eps=eps))
        xi_abs = np.sqrt(g.xi_sq)
        assert np.all(np.abs(low.theta_hat[xi_abs > 2 * eps]) == 0.0)
        assert np.all(np.abs(high.theta_hat[xi_abs <= eps]) == 0.0)

    def test_wide_cutoff_keeps_everything_low(self):
        g = Grid(dim=1, box_len=2 * np.pi, n=16)
        sp = full_spectrum(random_state(g, np.random.default_rng(6), modes=7))
        low, high = frequency_split(sp, CutoffSpec(eps=g.xi_max))
        assert np.all(high.theta_hat == 0.0)
        assert np.allclose(low.theta_hat, sp.theta_hat)

    def test_single_high_mode_goes_high(self):
        g = Grid(dim=1, box_len=2 * np.pi, n=32)
        eps = 1.0
        theta_hat = np.zeros(16, dtype=complex)
        theta = np.cos(3 * np.arange(32) * g.spacing)  # |xi| = 3 = 3 eps
        sp = full_spectrum(State(grid=g, fields=np.stack([theta, np.zeros(32)])))
        low, high = frequency_split(sp, CutoffSpec(eps=eps))
        assert np.max(np.abs(low.theta_hat)) <= 1e-13 * g.mode_count
        assert np.max(np.abs(high.theta_hat)) == pytest.approx(g.mode_count / 2)

    def test_empty_low_band_raises(self):
        g = Grid(dim=1, box_len=2 * np.pi, n=8)  # smallest nonzero |xi| = 1
        sp = full_spectrum(random_state(g, np.random.default_rng(7), modes=3))
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


def apply_derivative(f, grid, alpha):
    """d^alpha f on the half layout, as the solver takes it."""
    return irfftn(derivative(grid, alpha) * rfftn(f), grid)


class TestSpectralDerivative:
    def test_order_zero_identity(self):
        g = Grid(dim=2, box_len=1.0, n=8)
        f = np.random.default_rng(0).standard_normal(g.shape)
        assert np.all(derivative(g, (0, 0)) == 1.0)
        assert np.max(np.abs(apply_derivative(f, g, (0, 0)) - f)) <= 1e-14 * np.max(np.abs(f))

    def test_sine_derivative(self):
        g = Grid(dim=2, box_len=5.0, n=32)
        x = g.mesh()[0]
        k = 2 * np.pi / g.box_len
        f = np.broadcast_to(np.sin(k * x), g.shape)
        df = apply_derivative(f, g, (1, 0))
        assert np.allclose(df, k * np.broadcast_to(np.cos(k * x), g.shape), atol=1e-12)

    def test_gaussian_laplacian_closed_form(self):
        g = Grid(dim=2, box_len=20.0, n=128)
        w = 1.0
        f = gaussian_bump(g, center=(10.0, 10.0), width=w, amplitude=1.0)
        lap = apply_derivative(f, g, (2, 0)) + apply_derivative(f, g, (0, 2))
        r_sq = g.periodic_r_sq((10.0, 10.0))
        want = (r_sq / w**4 - g.dim / w**2) * f
        assert np.max(np.abs(lap - want)) <= 1e-8

    def test_gradient_matches_componentwise(self):
        """The half-layout gradient from one rfftn against .real of each complex round trip, Nyquist planes included."""
        g = Grid(dim=3, box_len=3.0, n=8)
        f = np.random.default_rng(3).standard_normal(g.shape)
        f_hat = rfftn(f)
        for e, x_full in zip(multi_indices(g.dim, 1), g.wavevectors()):
            want = np.fft.ifftn(1j * x_full * np.fft.fftn(f)).real
            assert np.allclose(irfftn(derivative(g, e) * f_hat, g), want, atol=1e-12)

    def test_table_is_shared_and_read_only(self):
        """Repeated calls, on equal grids too, return the one array built for (grid, alpha), and it cannot be written."""
        g = Grid(dim=3, box_len=3.0, n=8)
        d = derivative(g, (1, 0, 2))
        assert derivative(g, (1, 0, 2)) is d
        assert derivative(Grid(dim=3, box_len=3.0, n=8), (1, 0, 2)) is d
        assert not d.flags.writeable
        with pytest.raises(ValueError):
            d[...] = 0.0


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
    return State(grid=grid, fields=rng.standard_normal((grid.dim + 1,) + grid.shape))


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
        kernels = spectral_mod._fft

        def recorded(name):
            def wrapper(*args):
                seen.append((name, args[-1]))
                return getattr(kernels, name)(*args)

            return wrapper

        g = Grid(dim=2, box_len=1.0, n=8)
        monkeypatch.setattr(spectral_mod, "_fft", SimpleNamespace(**{k: recorded(k) for k in ("c2c", "r2c", "c2r")}))
        monkeypatch.setattr(spectral_mod, "_FFT_WORKERS", 2)
        spectral_mod.irfftn(spectral_mod.rfftn(np.ones(g.shape)), g)
        spectral_mod.fftn(np.ones(g.shape))
        assert seen == [("r2c", 2), ("c2r", 2), ("c2c", 2)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_seam_equals_scipy_fft_bitwise(self, workers, monkeypatch):
        """rfftn, irfftn and fftn give scipy.fft's output bit for bit on one whole field: dims 1-4, contiguous fields
        and strided rows of a stack, 1 and 2 workers."""
        import scipy.fft

        monkeypatch.setattr(spectral_mod, "_FFT_WORKERS", workers)
        rng = np.random.default_rng(8)
        for dim, ns in [(1, (2, 32)), (2, (2, 16)), (3, (4, 8)), (4, (2, 4))]:
            for n in ns:
                g = Grid(dim=dim, box_len=1.0, n=n)
                real = rng.standard_normal((3,) + g.shape)
                half = rng.standard_normal((3,) + g.half_shape) + 1j * rng.standard_normal((3,) + g.half_shape)
                strided = np.moveaxis(np.repeat(real, 2, axis=0), 0, -1)[..., 3]  # a row read across a stack
                strided_half = np.moveaxis(np.repeat(half, 2, axis=0), 0, -1)[..., 3]
                cases = [
                    (spectral_mod.rfftn(real[1]), scipy.fft.rfftn(real[1], workers=workers)),
                    (spectral_mod.rfftn(strided), scipy.fft.rfftn(strided, workers=workers)),
                    (spectral_mod.irfftn(half[2], g), scipy.fft.irfftn(half[2], s=g.shape, workers=workers)),
                    (spectral_mod.irfftn(strided_half, g), scipy.fft.irfftn(strided_half, s=g.shape, workers=workers)),
                    (spectral_mod.fftn(real[0]), scipy.fft.fftn(real[0], workers=workers)),
                    (spectral_mod.fftn(half[0]), scipy.fft.fftn(half[0], workers=workers)),
                    (spectral_mod.fftn(strided_half), scipy.fft.fftn(strided_half, workers=workers)),
                ]
                for case, (got, want) in enumerate(cases):
                    assert got.dtype == want.dtype and got.shape == want.shape, (case, dim, n)
                    assert got.tobytes() == want.tobytes(), (case, dim, n)

    def test_seam_falls_back_to_the_kernel_module_by_name(self):
        """Where no kernel file is found, the loader imports the same module by its dotted name (through scipy.fft's
        package), and rfftn and irfftn give the same bytes as through the module loaded from its file."""
        g = Grid(dim=3, box_len=1.0, n=8)
        half = spectral_mod.rfftn(np.random.default_rng(4).standard_normal(g.shape))
        want = [hashlib.sha256(a.tobytes()).hexdigest() for a in (half, spectral_mod.irfftn(half, g))]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "import hashlib, importlib.machinery; importlib.machinery.EXTENSION_SUFFIXES.clear(); import numpy as np; "
            "from nsklab import spectral; from nsklab.model import Grid; g = Grid(dim=3, box_len=1.0, n=8); "
            "half = spectral.rfftn(np.random.default_rng(4).standard_normal(g.shape)); print(spectral._fft.__name__); "
            "[print(hashlib.sha256(a.tobytes()).hexdigest()) for a in (half, spectral.irfftn(half, g))]"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["scipy.fft._pocketfft.pypocketfft"] + want

    def test_irfftn_refuses_a_spectrum_off_the_half_layout(self):
        """irfftn reads only a spectrum of the grid's half shape: a longer or shorter axis, or a full-layout spectrum,
        is a GridMismatch, not a field of some other shape."""
        g = Grid(dim=2, box_len=1.0, n=8)
        assert spectral_mod.irfftn(np.ones(g.half_shape, dtype=complex), g).shape == g.shape
        for shape in [(8, 6), (8, 4), (16, 5), (4, 5), g.shape, (8,), (2, 8, 5)]:
            with pytest.raises(GridMismatch):
                spectral_mod.irfftn(np.ones(shape, dtype=complex), g)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_irfftn_into_out_equals_a_new_field(self, dim):
        """irfftn fills and returns ``out``, bit for bit the field it returns without one; an ``out`` of any other
        shape than the grid's is a GridMismatch (the kernel itself fills a (16, 16, 15) one without complaint)."""
        g = Grid(dim=dim, box_len=3.0, n=16 if dim < 4 else 4)
        rng = np.random.default_rng(810 + dim)
        h = rng.standard_normal(g.half_shape) + 1j * rng.standard_normal(g.half_shape)
        buf = np.empty(g.shape)
        assert spectral_mod.irfftn(h, g, out=buf) is buf
        assert np.array_equal(buf, spectral_mod.irfftn(h, g))
        for shape in [g.shape[:-1] + (g.n - 1,), g.half_shape, (1,) + g.shape]:
            with pytest.raises(GridMismatch):
                spectral_mod.irfftn(h, g, out=np.empty(shape))

    def test_set_fft_workers_rejects_counts_below_one(self, monkeypatch):
        """The kernels read 0 workers as every core, so a count below 1 is refused and the setting kept."""
        monkeypatch.setattr(spectral_mod, "_FFT_WORKERS", 1)  # back to the module's value after the test
        for bad in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                spectral_mod.set_fft_workers(bad)
        assert spectral_mod._FFT_WORKERS == 1
        spectral_mod.set_fft_workers(2)
        assert spectral_mod._FFT_WORKERS == 2

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8), (3, 8)])
    def test_nyquist_rule_drops_what_real_part_drops(self, dim, n):
        """On the half spectrum of a real field, rule * f_hat is again the half spectrum of a real field:
        irfftn drops nothing of it, as .real of the complex round trip would drop nothing of ifftn(rule * f_hat)."""
        g = Grid(dim=dim, box_len=3.0, n=n)
        f_hat = rfftn(np.random.default_rng(10 + dim).standard_normal(g.shape))
        for alpha in _all_multi_indices(dim):
            image = derivative(g, alpha) * f_hat
            assert np.max(np.abs(rfftn(irfftn(image, g)) - image)) <= 1e-13 * np.max(np.abs(image)), alpha

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8), (3, 8)])
    def test_half_layout_derivatives_match_full(self, dim, n):
        """Every derivative up to order 3 of a white-noise field equals .real of the bare full-layout multiplier."""
        g = Grid(dim=dim, box_len=3.0, n=n)
        f = np.random.default_rng(20 + dim).standard_normal(g.shape)
        for alpha in _all_multi_indices(dim):
            bare = functools.reduce(np.multiply, [(1j * x) ** a for x, a in zip(g.wavevectors(), alpha)])
            want = np.fft.ifftn(bare * np.fft.fftn(f)).real
            assert np.max(np.abs(apply_derivative(f, g, alpha) - want)) <= 1e-13 * np.max(np.abs(want)), alpha

    def test_first_order_power_is_odd_wavevector(self):
        g = Grid(dim=3, box_len=2.0, n=8)
        for ax, x in enumerate(g.wavevectors(half=True)):
            x = x.copy()
            x[(slice(None),) * ax + (g.n // 2,)] = 0.0
            alpha = tuple(int(ax == k) for k in range(3))
            assert np.array_equal(derivative(g, alpha), np.broadcast_to(1j * x, x.shape))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_half_block_bitwise_equal_to_full_block_per_stored_mode(self, oscillatory_params, dim):
        """The gathered half block's image equals apply_semigroup's per-mode image on every stored mode, on any
        spectrum, Nyquist planes and non-Hermitian content included."""
        g = Grid(dim=dim, box_len=6.0, n=8)
        rng = np.random.default_rng(30 + dim)
        shape = (g.dim,) + g.shape
        theta_hat = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        m_hat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        full = SpectralState(grid=g, hat=np.concatenate([theta_hat[None], m_hat]))
        h = g.n // 2 + 1
        half = SpectralState(grid=g, hat=full.hat[..., :h], half=True)
        for t in (0.0, 0.3, 2.0):
            want = apply_semigroup(full, oscillatory_params, t).hat
            block = spectral_mod.semigroup_block(oscillatory_params, g, t)
            got = spectral_mod.image_of(block, half.theta_hat, half.m_hat, g)
            assert got.shape == (g.dim + 1,) + g.half_shape
            assert np.array_equal(got[0], want[0][..., :h])
            assert np.array_equal(got[1:], want[1:][..., :h])

    def test_full_layout_only_functions_reject_half_state(self, unit_params):
        g = Grid(dim=2, box_len=8.0, n=16)
        spec = to_spectral(random_state(g, np.random.default_rng(2)))
        with pytest.raises(GridMismatch):
            SemigroupOrbit(spec, unit_params)
        with pytest.raises(GridMismatch):
            apply_semigroup(spec, unit_params, 0.5)
        with pytest.raises(GridMismatch):
            frequency_split(spec, default_cutoff(g))
        with pytest.raises(GridMismatch):
            measure_semigroup_decay(spec, unit_params, [0.5, 1.0], band="full", p=2)

    def test_to_real_inverts_to_spectral_on_both_layouts(self):
        g = Grid(dim=3, box_len=4.0, n=8)
        s = white_noise_state(g, np.random.default_rng(4))
        for spec in (full_spectrum(s), to_spectral(s)):
            back = to_real(spec)
            assert np.max(np.abs(back.theta - s.theta)) <= 1e-14 * np.max(np.abs(s.theta))
            assert np.max(np.abs(back.m - s.m)) <= 1e-14 * np.max(np.abs(s.m))


class TestSymmetryDefectHalfLayout:
    def test_real_field_is_symmetric(self):
        g = Grid(dim=3, box_len=4.0, n=8)
        spec = to_spectral(white_noise_state(g, np.random.default_rng(5)))
        assert conjugate_symmetry_defect(spec) <= 1e-15

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_checks_exactly_the_self_mirror_planes(self, dim):
        g = Grid(dim=dim, box_len=4.0, n=8)
        spec = to_spectral(white_noise_state(g, np.random.default_rng(6 + dim)))
        scale = np.max(np.abs(spec.theta_hat))
        for last, flagged in ((0, True), (g.n // 2, True), (1, False), (g.n // 2 - 1, False)):
            hat = spec.hat.copy()
            hat[(0,) + (1,) * (dim - 1) + (last,)] += 1e-3 * scale * 1j
            bumped = SpectralState(grid=g, hat=hat, half=True)
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
        st = to_real(SpectralState(grid=g, hat=hats))
        for hat, field in ((hats[0], st.theta), (hats[1:], st.m)):
            got = spectral_l2_norm(half_power(spectral_mod.hermitian_half(hat, g), g), g) ** 2
            assert got == pytest.approx(lp_norm(field, g, 2) ** 2, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("dim,n", HERMITIAN_GRIDS)
    def test_full_layout_to_real_matches_ifftn_real(self, dim, n):
        g = Grid(dim=dim, box_len=3.0, n=n)
        rng = np.random.default_rng(800 + 10 * dim + n)
        shape = (dim + 1,) + g.shape
        hats = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        st = to_real(SpectralState(grid=g, hat=hats))
        want = np.fft.ifftn(hats, axes=tuple(range(1, dim + 1))).real
        scale = np.max(np.abs(want))
        assert np.max(np.abs(st.theta - want[0])) <= 1e-14 * scale
        assert np.max(np.abs(st.m - want[1:])) <= 1e-14 * scale
