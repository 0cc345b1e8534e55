import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import wavevector_of_index
from nsklab.errors import ConstraintViolation, CriticalityViolation, GridMismatch, NumericsWarning, RangeViolation
from nsklab.fields import riesz_momentum_pair
from nsklab.model import (
    Grid,
    PressureLaw,
    SpectralState,
    State,
    critical_quadratic,
    gaussian_bump,
    make_params,
    _check_derivative_consistency,
)
from nsklab.spectral import irfftn, to_real


class TestMakeParams:
    def test_valid_unit_parameters(self):
        p = make_params(1.0, 1.0, 1.0, 1.0, critical_quadratic(1.0, 1.0))
        assert p.alpha_star == 1.0
        assert p.beta_star == 1.0
        assert p.delta_star == (1.0 + 1.0) ** 2 / 4.0 - 1.0

    def test_zero_viscosity_rejected(self):
        with pytest.raises(ConstraintViolation, match="mu_star > 0"):
            make_params(0.0, 1.0, 1.0, 1.0, critical_quadratic(1.0, 1.0))

    def test_viscosity_sum_rejected(self):
        with pytest.raises(ConstraintViolation, match="mu_star \\+ nu_star > 0"):
            make_params(1.0, -1.0, 1.0, 1.0, critical_quadratic(1.0, 1.0))

    def test_zero_capillarity_rejected(self):
        with pytest.raises(ConstraintViolation, match="kappa_star > 0"):
            make_params(1.0, 1.0, 0.0, 1.0, critical_quadratic(1.0, 1.0))

    def test_noncritical_pressure_rejected(self):
        linear = PressureLaw(
            evaluate=lambda r: np.asarray(r, dtype=float),
            d1=lambda r: np.ones_like(np.asarray(r, dtype=float)),
            validity=(0.1, 10.0),
        )
        with pytest.raises(CriticalityViolation):
            make_params(1.0, 1.0, 1.0, 1.0, linear)

    def test_inconsistent_derivative_rejected(self):
        bad = PressureLaw(
            evaluate=lambda r: (np.asarray(r, dtype=float) - 1.0) ** 2,
            d1=lambda r: 3.0 * (np.asarray(r, dtype=float) - 1.0),  # wrong factor
            validity=(0.1, 10.0),
        )
        with pytest.raises(ConstraintViolation, match="finite differences"):
            make_params(1.0, 1.0, 1.0, 1.0, bad)

    @pytest.mark.parametrize("curvature, critical", [(10.0, True), (1.0, False)])
    def test_criticality_tolerance_scales_with_measured_curvature(self, curvature, critical):
        """P'(rho*) = 3e-12 is within 1e-12 max(1, |P''(rho*)|) when P'' = 10 and outside it when P'' = 1: the law
        supplies no P'', so the tolerance scales with the curvature measured from P'."""
        law = PressureLaw(
            evaluate=lambda r: 3e-12 * (r - 1.0) + 0.5 * curvature * (r - 1.0) ** 2,
            d1=lambda r: 3e-12 + curvature * (r - 1.0),
            validity=(0.1, 10.0),
        )
        if critical:
            assert make_params(1.0, 1.0, 1.0, 1.0, law).pressure is law
        else:
            with pytest.raises(CriticalityViolation, match=r"P'\(rho_star\) = 3e-12 .* measured as 1\)"):
                make_params(1.0, 1.0, 1.0, 1.0, law)

    @pytest.mark.parametrize("k, rho_star", [(0.1, 0.1), (1.0, 1.0), (0.7, 2.0), (5.0, 10.0)])
    def test_builtin_law_curvature_measures_2k(self, k, rho_star):
        """The curvature the gate measures from critical_quadratic's P' is its P'' = 2k, to rounding."""
        assert _check_derivative_consistency(critical_quadratic(k, rho_star), rho_star) == pytest.approx(2.0 * k, rel=1e-10)

    def test_random_valid_constructions_satisfy_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            mu = rng.uniform(0.01, 10.0)
            nu = rng.uniform(-0.99 * mu, 10.0)
            kappa = rng.uniform(0.01, 10.0)
            rho = rng.uniform(0.1, 10.0)
            k = rng.uniform(0.1, 5.0)
            p = make_params(mu, nu, kappa, rho, critical_quadratic(k, rho))
            assert p.mu_star > 0 and p.mu_star + p.nu_star > 0 and p.kappa_star > 0
            assert np.isfinite(p.alpha_star) and np.isfinite(p.beta_star)
            assert abs(p.pressure.d1(p.rho_star)) <= 1e-12 * max(1.0, 2.0 * k)


class TestPressureLaw:
    def test_derivatives_match_centered_differences(self):
        rng = np.random.default_rng(3)
        law = critical_quadratic(0.7, 2.0)
        lo, hi = law.validity
        for rho in rng.uniform(lo + 0.1, hi - 0.1, size=20):
            errs = []
            for h in (1e-2, 5e-3):
                fd = (law.evaluate(rho + h) - law.evaluate(rho - h)) / (2 * h)
                errs.append(abs(fd - law.d1(rho)))
            # quadratic law: centered differences are exact up to rounding
            assert errs[1] <= max(errs[0], 1e-9)

    def test_cubic_law_fd_convergence_order(self):
        law = PressureLaw(
            evaluate=lambda r: (r - 1.0) ** 2 + 0.5 * (r - 1.0) ** 3,
            d1=lambda r: 2.0 * (r - 1.0) + 1.5 * (r - 1.0) ** 2,
            validity=(0.2, 5.0),
        )
        rho = 1.7
        errs = [abs((law.evaluate(rho + h) - law.evaluate(rho - h)) / (2 * h) - law.d1(rho)) for h in (1e-2, 5e-3)]
        assert errs[1] == pytest.approx(errs[0] / 4.0, rel=1e-3)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ConstraintViolation):
            PressureLaw(lambda r: r, lambda r: r, validity=(-1.0, 2.0))


class TestGrid:
    def test_power_of_two_enforced(self):
        with pytest.raises(ConstraintViolation):
            Grid(dim=2, box_len=1.0, n=12)

    def test_dim_capped(self):
        with pytest.raises(ConstraintViolation):
            Grid(dim=5, box_len=1.0, n=8)

    def test_wavevector_aliases(self):
        g = Grid(dim=1, box_len=2.0, n=8)
        aliases = g.axis_aliases()
        assert sorted(aliases.tolist()) == list(range(-4, 4))
        assert np.allclose(g.wavevectors()[0].ravel(), 2 * np.pi / 2.0 * aliases)

    def test_index_to_wavevector_bijection(self):
        g = Grid(dim=2, box_len=3.0, n=8)
        seen = set()
        for i in range(g.n):
            for j in range(g.n):
                seen.add(tuple(np.round(wavevector_of_index(g, (i, j)), 12)))
        assert len(seen) == g.mode_count

    def test_xi_max(self):
        g = Grid(dim=3, box_len=4.0, n=16)
        assert g.xi_max == pytest.approx(np.pi * 16 / 4.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_half_layout_tables_are_the_full_ones_cut(self, dim):
        g = Grid(dim=dim, box_len=3.0, n=8)
        h = g.n // 2 + 1
        assert g.half_shape == (g.n,) * (dim - 1) + (h,)
        full, half = g.wavevectors(), g.wavevectors(half=True)
        for ax in range(dim - 1):
            assert np.array_equal(half[ax], full[ax])
        assert np.array_equal(half[-1], full[-1][..., :h])
        assert half[-1].ravel()[-1] == -np.pi * g.n / g.box_len  # fftfreq's -n/2 kept at the Nyquist index
        assert np.array_equal(g.half_xi_sq, g.xi_sq[..., :h])
        assert np.array_equal(g.radial_index, np.searchsorted(g.radial_values, g.xi_sq)[..., :h])
        for table in (g.half_xi_sq, g.radial_index):
            assert table.flags.c_contiguous and not table.flags.writeable
        assert g.half_xi_sq is g.half_xi_sq

    def test_half_spectral_state_shape_checked(self):
        g = Grid(dim=2, box_len=1.0, n=8)
        half = np.zeros((3,) + g.half_shape, dtype=complex)
        assert SpectralState(grid=g, hat=half, half=True).half
        with pytest.raises(GridMismatch):
            SpectralState(grid=g, hat=half)
        with pytest.raises(GridMismatch):
            SpectralState(grid=g, hat=np.zeros((3,) + g.shape), half=True)
        with pytest.raises(GridMismatch):
            SpectralState(grid=g, hat=half[1:], half=True)

    def test_spectral_rows_are_views_and_pair_members_separate(self):
        """theta_hat and m_hat are views of the one stack; the two riesz_momentum_pair members own separate
        allocations, so a caller that keeps one member frees the other."""
        g = Grid(dim=2, box_len=8.0, n=16)
        pair = tuple(riesz_momentum_pair(g, 1.0, 3.0, rng=np.random.default_rng(1)))
        for spec in pair:
            assert np.shares_memory(spec.theta_hat, spec.hat)
            assert np.shares_memory(spec.m_hat, spec.hat)
        assert not np.shares_memory(pair[0].hat, pair[1].hat)


class TestRieszPair:
    @staticmethod
    def reference_pair(g, gamma, support, rng, amplitude):
        """Both members at once, every step out of place (the kernel, its Matern envelope evaluated per mode of
        the full grid, the member loops and the energy match): the reference the lazy, in-place construction, which
        gathers the envelope from its values on the distinct |xi|^2, matches bit for bit."""
        from nsklab.fields import _matern_envelope, seeded_symmetric_tensor
        from nsklab.spectral import _quintic_step, fftn

        r_sq = g.periodic_r_sq()
        a = 0.75 * g.spacing
        kernel = (r_sq + a**2) ** (-(g.dim - gamma) / 2.0)
        kernel *= 1.0 - _quintic_step((np.sqrt(r_sq) - 0.45 * support) / (0.55 * support))
        k_hat = fftn(kernel)
        k_hat /= np.maximum(_matern_envelope(a * np.sqrt(g.xi_sq), gamma / 2.0), 0.02)
        k_hat[(0,) * g.dim] = 0.0
        k_hat = k_hat * amplitude
        T = seeded_symmetric_tensor(g.dim, rng)
        d = rng.standard_normal(g.dim)
        d /= np.linalg.norm(d)
        xis = g.wavevectors()
        div, gen = (np.zeros((g.dim + 1,) + g.shape, dtype=complex) for _ in range(2))
        for j in range(g.dim):
            for k in range(g.dim):
                div[1 + j] += 1j * xis[k] * (T[j, k] * k_hat)
            gen[1 + j] = d[j] * k_hat
        e_div = np.sqrt(np.sum(np.abs(div[1:]) ** 2))
        e_gen = np.sqrt(np.sum(np.abs(gen[1:]) ** 2))
        if e_gen > 0:
            gen[1:] *= e_div / e_gen
        return div, gen

    @pytest.mark.parametrize("dim,n", [(1, 4096), (2, 512), (3, 64), (4, 16)])
    def test_matern_envelope_matches_the_bessel_formula(self, dim, n):
        """The quadrature envelope on the |xi| of a Riesz kernel's grid is z^nu K_nu(z) / (2^(nu-1) Gamma(nu)) to
        1e-13 relative, and 1 exactly at z = 0."""
        from scipy.special import gamma as gamma_fn
        from scipy.special import kv

        from nsklab.fields import _matern_envelope

        g = Grid(dim=dim, box_len=24.0, n=n)
        z = 0.75 * g.spacing * np.sqrt(g.radial_values)
        assert z[0] == 0.0 and z[1] > 1e-8
        for nu in (0.05, 0.25, 0.5, 1.0, 1.45, 1.9):
            env = _matern_envelope(z, nu)
            want = kv(nu, z[1:]) * z[1:] ** nu / (2.0 ** (nu - 1.0) * gamma_fn(nu))
            assert env[0] == 1.0
            assert np.max(np.abs(env[1:] - want) / want) <= 1e-13, nu

    @pytest.mark.parametrize("dim,n,gamma", [(1, 256, 0.5), (2, 64, 1.0), (3, 32, 1.5), (4, 8, 2.0)])
    def test_members_equal_reference_bitwise(self, dim, n, gamma):
        """Divergence member first, then the generic one, each equal to the reference bit for bit (signed zeros
        included) at amplitude 0.5."""
        g = Grid(dim=dim, box_len=24.0, n=n)
        support = 0.98 * g.box_len / 4
        members = riesz_momentum_pair(g, gamma, support, rng=np.random.default_rng(11), amplitude=0.5)
        reference = self.reference_pair(g, gamma, support, np.random.default_rng(11), 0.5)
        for member, ref in zip(members, reference, strict=True):
            assert member.hat.tobytes() == ref.tobytes()

    def test_pair_keeps_no_member_it_yielded(self):
        """Between its members the iterator holds the kernel, one full-layout row, and no member it has yielded;
        once the generic member is formed it holds nothing of full layout."""
        g = Grid(dim=2, box_len=24.0, n=128)
        row = np.dtype(complex).itemsize * g.mode_count
        tuple(riesz_momentum_pair(g, 1.0, 5.8, rng=np.random.default_rng(3)))  # fills the grid's caches
        tracemalloc.start()
        try:
            pair = riesz_momentum_pair(g, 1.0, 5.8, rng=np.random.default_rng(3))
            next(pair)
            between = tracemalloc.get_traced_memory()[0]
            generic = next(pair)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert row <= between < 1.1 * row
        assert generic.hat.nbytes <= after < generic.hat.nbytes + 0.1 * row

    def test_rng_draws_are_made_at_the_call(self):
        """T and d are drawn before the pair returns, so a caller's later draws never shift the members."""
        g = Grid(dim=2, box_len=12.0, n=16)
        rng = np.random.default_rng(2)
        pair = riesz_momentum_pair(g, 1.0, 2.9, rng=rng)
        rng.standard_normal(5)
        for member, ref in zip(pair, self.reference_pair(g, 1.0, 2.9, np.random.default_rng(2), 1.0), strict=True):
            assert member.hat.tobytes() == ref.tobytes()


class TestPeriodicGeometry:
    @staticmethod
    def _minimum_image_r_sq(g, center):
        r_sq = np.zeros(g.shape)
        for ax, x in enumerate(g.mesh()):
            d = np.abs(x - center[ax])
            d = np.minimum(d, g.box_len - d)
            r_sq = r_sq + d**2
        return r_sq

    def test_matches_minimum_image_bitwise(self):
        for dim in (1, 2, 3):
            g = Grid(dim=dim, box_len=7.0, n=16)
            center = np.linspace(0.4, 6.1, dim)
            assert np.array_equal(g.periodic_r_sq(center), self._minimum_image_r_sq(g, center))
            assert np.array_equal(g.periodic_r_sq(), self._minimum_image_r_sq(g, np.full(dim, 3.5)))

    def test_default_center_is_the_box_center_and_not_kept(self):
        g = Grid(dim=2, box_len=4.0, n=16)
        assert np.array_equal(g.periodic_r_sq(), g.periodic_r_sq(np.full(2, 2.0)))
        assert not any(isinstance(v, np.ndarray) and v.shape == g.shape for v in vars(g).values())

    def test_gaussian_bump_unchanged_bitwise(self):
        g = Grid(dim=3, box_len=8.0, n=16)
        center = (1.0, 4.5, 7.5)
        want = 0.7 * np.exp(-self._minimum_image_r_sq(g, np.asarray(center)) / (2.0 * 1.2**2))
        assert np.array_equal(gaussian_bump(g, center, 1.2, 0.7), want)


GEOMETRY_GRIDS = [(dim, n) for dim in (1, 2, 3, 4) for n in (2, 4, 16)]
LAYOUTS = pytest.mark.parametrize("half", [False, True], ids=["full", "half"])


class TestSpectralGeometry:
    """Grid.lay and the per-axis tables laid with it, against references built without it."""

    @LAYOUTS
    @pytest.mark.parametrize("dim,n", GEOMETRY_GRIDS)
    def test_lay_is_the_reshaped_table_cut_on_the_half_layout(self, dim, n, half):
        g = Grid(dim=dim, box_len=3.0, n=n)
        layout = g.half_shape if half else g.shape
        table = np.random.default_rng(10 * dim + n).standard_normal(n)
        laid = g.lay(table, half)
        assert len(laid) == dim
        assert np.broadcast_shapes(*(arr.shape for arr in laid)) == layout
        for ax, arr in enumerate(laid):
            full = np.broadcast_to(table.reshape([n if k == ax else 1 for k in range(dim)]), g.shape)
            assert np.array_equal(np.broadcast_to(arr, layout), full[..., : layout[-1]]), ax

    @LAYOUTS
    @pytest.mark.parametrize("dim,n", GEOMETRY_GRIDS)
    def test_mirror_gathers_what_flip_and_roll_give(self, dim, n, half):
        g = Grid(dim=dim, box_len=3.0, n=n)
        rng = np.random.default_rng(20 * dim + n)
        arr = rng.standard_normal((2,) + g.shape) + 1j * rng.standard_normal((2,) + g.shape)
        axes = tuple(range(1, dim + 1))
        want = np.roll(np.flip(arr, axis=axes), 1, axis=axes)
        got = arr[(Ellipsis,) + g.mirrors(half)]
        assert np.array_equal(got, want[..., : (g.half_shape if half else g.shape)[-1]])

    @pytest.mark.parametrize("dim,n", GEOMETRY_GRIDS)
    def test_mirror_is_an_involution_that_negates_off_nyquist(self, dim, n):
        g = Grid(dim=dim, box_len=3.0, n=n)
        arr = np.random.default_rng(30 * dim + n).standard_normal(g.shape)
        mirror = (Ellipsis,) + g.mirrors(half=False)
        assert np.array_equal(arr[mirror][mirror], arr)
        for x, nyq in zip(g.wavevectors(), g.lay(np.arange(n) == n // 2, half=False)):
            x = np.broadcast_to(x, g.shape)
            assert np.array_equal(x[mirror], np.where(np.broadcast_to(nyq, g.shape), x, -x))

    @pytest.mark.parametrize("dim,n", GEOMETRY_GRIDS)
    def test_nyquist_is_index_n_over_2(self, dim, n):
        g = Grid(dim=dim, box_len=3.0, n=n)
        for ax, nyq in enumerate(g.nyquist()):
            assert np.array_equal(np.broadcast_to(nyq, g.half_shape), np.indices(g.half_shape)[ax] == n // 2), ax

    @LAYOUTS
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_embedding_keeps_each_wavevector(self, dim, half):
        """Every mode of a coarser grid of the box lands on the fine mode of the same wavevector, bit for bit."""
        fine = Grid(dim=dim, box_len=3.0, n=16)
        for m in (2, 4, 16):
            g = Grid(dim=dim, box_len=3.0, n=m)
            for x, index, fine_x in zip(g.wavevectors(half), g.embedding(fine, half), fine.wavevectors()):
                assert np.array_equal(np.take(fine_x, index), x), m

    def test_shared_tables_are_read_only(self):
        g = Grid(dim=3, box_len=3.0, n=8)
        tables = [g.wavevectors(), g.mirrors(False), g.nyquist(), g.embedding(Grid(dim=3, box_len=3.0, n=16), True)]
        assert not any(arr.flags.writeable for laid in tables for arr in laid)

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 4), log_n=st.integers(1, 6), box_len=st.floats(0.1, 1000.0))
    def test_radial_table_is_numpy_unique_of_xi_sq(self, dim, log_n, box_len):
        """The values, taken from the half layout, and the half index, found by binary search, are what np.unique of
        the full |xi|^2 returns, bit for bit."""
        n = 1 << log_n
        assume(n**dim <= 1 << 18)
        g = Grid(dim=dim, box_len=box_len, n=n)
        values, inverse = np.unique(g.xi_sq, return_inverse=True)
        inverse = inverse.reshape(g.shape)
        assert g.radial_values.tobytes() == values.tobytes()
        assert np.array_equal(g.radial_values[inverse], g.xi_sq)
        assert np.array_equal(g.radial_index, inverse[..., : n // 2 + 1])
        for table in (g.radial_values, g.radial_index):
            assert not table.flags.writeable
        assert g.radial_index.dtype == np.int32

    def test_half_radial_index_peaks_below_one_xi_sq(self):
        """Building the values and the half index touches no full-layout sort or index: at 64^3 its peak stays under
        the 2 MiB of one full-layout |xi|^2."""
        g = Grid(dim=3, box_len=96.0, n=64)
        g.half_xi_sq  # |xi|^2 cached on both layouts, as every orbit has it before its first sample
        tracemalloc.start()
        try:
            g.radial_index
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < g.xi_sq.nbytes


class TestState:
    def test_shape_mismatch(self):
        g = Grid(dim=2, box_len=1.0, n=4)
        with pytest.raises(GridMismatch):
            State(grid=g, fields=np.zeros((4, 4, 4)))
        with pytest.raises(GridMismatch):  # the momentum rows without the theta row
            State(grid=g, fields=np.zeros((2, 4, 4)))

    def test_nonfinite_rejected(self):
        g = Grid(dim=1, box_len=1.0, n=4)
        for row in (0, 1):  # theta, then m_0
            fields = np.zeros((2, 4))
            fields[row, 1] = np.inf
            with pytest.raises(ConstraintViolation):
                State(grid=g, fields=fields)

    def test_rows_are_views_and_to_real_fills_them_row_by_row(self):
        """theta and m are views of the one stack; to_real of a half spectrum is irfftn of each row, bit for bit."""
        g = Grid(dim=3, box_len=6.0, n=8)
        hat = np.fft.rfftn(np.random.default_rng(3).standard_normal((4,) + g.shape), axes=(1, 2, 3))
        st = to_real(SpectralState(grid=g, hat=hat, half=True))
        assert np.shares_memory(st.theta, st.fields) and np.shares_memory(st.m, st.fields)
        for row, h in zip(st.fields, hat):
            assert np.array_equal(row, irfftn(h, g))

    def test_admissibility_window(self):
        g = Grid(dim=1, box_len=1.0, n=8)
        p = make_params(1.0, 1.0, 1.0, 1.0, critical_quadratic(1.0, 1.0))
        ok = State(grid=g, fields=np.stack([np.full(8, 0.5), np.zeros(8)]))
        bad = State(grid=g, fields=np.stack([np.full(8, 3.5), np.zeros(8)]))
        assert ok.is_admissible(p)
        assert not bad.is_admissible(p)
        ok.check_range(p)
        with pytest.raises(RangeViolation, match=r"density range \[4.5, 4.5\] outside \[0.25, 4\]"):
            bad.check_range(p)


class TestGaussianBump:
    def test_zero_amplitude(self):
        g = Grid(dim=2, box_len=10.0, n=32)
        f = gaussian_bump(g, center=(5.0, 5.0), width=1.0, amplitude=0.0)
        assert np.all(f == 0.0)

    def test_value_at_center_is_amplitude(self):
        g = Grid(dim=2, box_len=10.0, n=32)
        f = gaussian_bump(g, center=(5.0, 5.0), width=1.0, amplitude=2.5)
        ic = int(5.0 / g.spacing)
        assert f[ic, ic] == pytest.approx(2.5, abs=0.0)

    def test_sup_norm_equals_amplitude(self):
        g = Grid(dim=3, box_len=8.0, n=16)
        f = gaussian_bump(g, center=(4.0, 4.0, 4.0), width=1.0, amplitude=0.7)
        assert abs(np.max(np.abs(f)) - 0.7) <= 1e-12

    def test_narrow_width_warns(self):
        g = Grid(dim=1, box_len=10.0, n=16)
        with pytest.warns(NumericsWarning):
            gaussian_bump(g, center=(5.0,), width=0.5 * g.spacing, amplitude=1.0)
