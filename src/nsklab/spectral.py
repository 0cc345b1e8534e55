"""Transforms, exact semigroup application, frequency splitting and derivative multipliers.

Every linear operator of the toolkit that acts on (theta, m) per mode is
radial, so it is applied in one block form (:class:`Block`).  With the
longitudinal amplitude a_hat = xi . m_hat / |xi|^2 (zero at xi = 0) the
semigroup reads

    theta_hat(t) = sig_tf theta_hat - i sig_d |xi|^2 a_hat
    m_hat_j(t)   = heat m_hat_j + xi_j [(sig_mg - heat) a_hat
                                        - i kappa* rho* sig_d |xi|^2 theta_hat]

and the ETDRK2 forcing h phi_k(hA) on (0, g) is the same block with
theta_hat = 0.  The coefficients depend on xi only through |xi|^2, so they
are evaluated once per distinct |xi|^2 of the grid (``Grid.radial_table``)
and gathered per mode.  :class:`SemigroupOrbit` forms a_hat once per datum,
so a series of samples of S(t) data only re-evaluates the time-dependent
kernels, and reads each sample out into the buffers of one
:class:`Workspace` per series.

Transform convention: unnormalized forward DFT, ``1/n^dim`` on the inverse
(numpy's default).  Norms in :mod:`nsklab.analysis` carry the quadrature
weights that make Parseval exact under this convention.

Two layouts (see :mod:`nsklab.model`): the linear toolkit evolves full
complex spectra, whose data may be built in spectral space without conjugate
symmetry; the nonlinear solver works on half spectra of real fields.
:class:`Block` acts on either; :class:`SemigroupOrbit` and :func:`frequency_split`
need every mode and reject a half-layout state with ``GridMismatch``.  Every
real read-out is ``irfftn`` of a half spectrum, a full one projected by
:func:`hermitian_half`.

Derivative multipliers act on half spectra.  Nyquist rule: on the Nyquist
index of an axis a mode is its own mirror along that axis, so a multiplier
odd in that axis's xi cannot act on it and keep the field real.  A
derivative multiplier (i xi)^alpha is therefore zero on every mode whose
Nyquist axes carry an odd total power of alpha (:func:`_multi_index_power`;
:func:`odd_wavevectors` for first order).  This keeps a half spectrum's
implied mirror consistent, and the derivative equals ``.real`` of the
complex round trip with the bare multiplier.

FFT calls go through scipy.fft; ``set_fft_workers`` configures the worker
count of every entry point (kept at 1 by default so outputs are
reproducible bit for bit across hosts regardless of core count).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.fft as _fft

from .errors import ConstraintViolation, EmptyLowBand, GridMismatch
from .model import FluidParams, Grid, SpectralState, State
from .symbols import propagator_kernels

_FFT_WORKERS = 1


def set_fft_workers(workers: int) -> None:
    """Set the scipy.fft worker count used by all transforms."""
    global _FFT_WORKERS
    _FFT_WORKERS = int(workers)


def fftn(arr: np.ndarray) -> np.ndarray:
    return _fft.fftn(arr, workers=_FFT_WORKERS)


def rfftn(arr: np.ndarray) -> np.ndarray:
    """Half spectrum of a real field (last axis n/2 + 1)."""
    return _fft.rfftn(arr, workers=_FFT_WORKERS)


def irfftn(arr: np.ndarray, grid: Grid) -> np.ndarray:
    """The real field of a half spectrum."""
    return _fft.irfftn(arr, s=grid.shape, workers=_FFT_WORKERS)


def to_spectral(state: State, *, half: bool = False) -> SpectralState:
    """Forward transform of both fields, to the full or the half layout."""
    fwd = rfftn if half else fftn
    theta_hat = fwd(state.theta)
    m_hat = np.stack([fwd(state.m[j]) for j in range(state.grid.dim)])
    return SpectralState(grid=state.grid, theta_hat=theta_hat, m_hat=m_hat, half=half)


def hermitian_half(arr: np.ndarray, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """(g(xi) + conj g(-xi)) / 2 on the half layout: the rfftn of ``ifftn(g).real`` over the trailing grid axes.

    The mirror -xi (mod n) of the stored half is gathered by slices, one
    block per choice of index 0 or the rest on each axis, into ``out`` if given.
    """
    n = grid.n
    out = np.empty(arr.shape[: arr.ndim - grid.dim] + grid.half_shape, dtype=complex) if out is None else out
    rest = [(slice(0, 1), slice(0, 1)), (slice(1, None), slice(n - 1, 0, -1))]
    last = [(slice(0, 1), slice(0, 1)), (slice(1, None), slice(n - 1, n // 2 - 1, -1))]
    for pieces in itertools.product(*([rest] * (grid.dim - 1) + [last])):
        dst, src = zip(*pieces)
        out[(Ellipsis,) + dst] = arr[(Ellipsis,) + src]
    np.conjugate(out, out=out)
    out += arr[..., : n // 2 + 1]
    out *= 0.5
    return out


def to_real(spectral: SpectralState) -> State:
    """Inverse transform of both fields; a full spectrum is read out through :func:`hermitian_half`."""
    grid = spectral.grid
    theta_hat, m_hat = spectral.theta_hat, spectral.m_hat
    if not spectral.half:
        theta_hat, m_hat = hermitian_half(theta_hat, grid), hermitian_half(m_hat, grid)
    return State(grid=grid, theta=irfftn(theta_hat, grid), m=np.stack([irfftn(h, grid) for h in m_hat]))


def longitudinal_amplitude(m_hat: np.ndarray, grid: Grid, half: bool = False) -> np.ndarray:
    """a_hat = xi . m_hat / |xi|^2, with a_hat = 0 at xi = 0.

    xi a_hat is the longitudinal projection of m_hat.
    """
    xis = grid.wavevectors(half)
    xi_dot_m = xis[0] * m_hat[0]
    for j in range(1, grid.dim):
        xi_dot_m += xis[j] * m_hat[j]
    xi_sq = grid.xi_sq_of(half)
    return np.divide(xi_dot_m, xi_sq, out=np.zeros(xi_sq.shape, dtype=complex), where=xi_sq > 0.0)


@dataclass(frozen=True)
class Block:
    """Per-mode real coefficients of a radial operator on (theta, m) in block form.

    With a_hat from :func:`longitudinal_amplitude` the operator maps

        theta_hat -> tf theta_hat - i d a_hat
        m_hat_j   -> heat m_hat_j + xi_j (lg a_hat - i cap d theta_hat)

    This is the one formula of the toolkit's linear operators: the semigroup
    (:func:`semigroup_block`) and the ETDRK2 forcing weights, which act on
    (0, g) and so leave ``tf`` unset.  The coefficients are gathered on one
    layout (``half``); per stored mode both layouts compute the same values
    bit for bit.  :meth:`theta` multiplies the real coefficients into the real
    and imaginary parts separately, which is faster than promoting them to
    complex; in :meth:`momentum` the promoted products measured faster.
    """

    d: np.ndarray
    tf: np.ndarray | None = None
    lg: np.ndarray | None = None
    heat: np.ndarray | None = None
    cap: float = 0.0
    half: bool = False

    def theta(self, theta_hat: np.ndarray | None, a_hat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """theta component of the image, into ``out`` if given; theta_hat None stands for a zero theta."""
        out = np.empty(a_hat.shape, dtype=complex) if out is None else out
        re, im = out.real, out.imag
        np.multiply(self.d, a_hat.imag, out=re)
        np.multiply(self.d, a_hat.real, out=im)
        np.negative(im, out=im)
        if theta_hat is not None:
            re += self.tf * theta_hat.real
            im += self.tf * theta_hat.imag
        return out

    def weight(self, theta_hat: np.ndarray | None, a_hat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """w = lg a_hat - i cap d theta_hat, the factor of xi_j shared by every momentum component."""
        w = np.multiply(self.lg, a_hat, out=out)
        if theta_hat is not None:
            w -= 1j * self.cap * self.d * theta_hat
        return w

    def momentum(self, j: int, w: np.ndarray, m_hat_j: np.ndarray, grid: Grid, out: np.ndarray) -> np.ndarray:
        """Momentum component j of the image, heat m_hat_j + xi_j w, into ``out``; w from :meth:`weight`."""
        np.multiply(self.heat, m_hat_j, out=out)
        out += grid.wavevectors(self.half)[j] * w
        return out

    def momenta(self, theta_hat: np.ndarray | None, a_hat: np.ndarray, m_hat: np.ndarray, grid: Grid) -> np.ndarray:
        """Every momentum component of the image; theta_hat None stands for a zero theta."""
        w = self.weight(theta_hat, a_hat)
        out = np.empty(m_hat.shape, dtype=complex)
        for j in range(grid.dim):
            self.momentum(j, w, m_hat[j], grid, out[j])
        return out

    def apply(self, spectral: SpectralState, a_hat: np.ndarray | None = None) -> SpectralState:
        """The image of a spectral state of the block's layout; pass its a_hat if already formed."""
        grid = spectral.grid
        if spectral.half != self.half:
            raise GridMismatch(f"block layout (half={self.half}) differs from the state's (half={spectral.half})")
        if a_hat is None:
            a_hat = longitudinal_amplitude(spectral.m_hat, grid, self.half)
        theta_hat = self.theta(spectral.theta_hat, a_hat)
        m_hat = self.momenta(spectral.theta_hat, a_hat, spectral.m_hat, grid)
        return SpectralState(grid=grid, theta_hat=theta_hat, m_hat=m_hat, half=self.half)


def _require_full(spectral: SpectralState, what: str) -> None:
    if spectral.half:
        raise GridMismatch(f"{what} needs a full-layout spectrum, got a half-layout one")


def semigroup_block(params: FluidParams, grid: Grid, t: float, *, theta_only: bool = False, half: bool = False, out=None) -> Block:
    """S(t) in block form, its kernels evaluated once per distinct |xi|^2 and gathered.

    With theta_only the momentum coefficients are not gathered and only
    :meth:`Block.theta` may be used.  ``half`` gathers on the half layout,
    ``out`` (one array per coefficient: d, tf, then lg, heat) receives them.
    """
    values = grid.radial_table[0]
    index = grid.radial_index(half)
    sig_tf, sig_d, sig_mg, heat = propagator_kernels(params, values, t)
    tables = (sig_d * values, sig_tf) if theta_only else (sig_d * values, sig_tf, sig_mg - heat, heat)
    # every index is in range; mode="clip" skips the buffered copy mode="raise" makes of an out array
    coeffs = [np.take(tab, index, out=None if out is None else out[i], mode="clip") for i, tab in enumerate(tables)]
    if theta_only:
        return Block(*coeffs)
    return Block(*coeffs, cap=params.kappa_star * params.rho_star, half=half)


class Workspace:
    """Buffers reused by a series of :meth:`SemigroupOrbit.halves` read-outs on one grid."""

    def __init__(self, grid: Grid, *, theta_only: bool = False):
        self.theta_only = theta_only
        self.coeffs = np.empty((2 if theta_only else 4,) + grid.shape)
        self.full = np.empty(grid.shape, dtype=complex)
        self.th = np.empty(grid.half_shape, dtype=complex)
        if not theta_only:
            self.w = np.empty(grid.shape, dtype=complex)
            self.mh = np.empty((grid.dim,) + grid.half_shape, dtype=complex)
            self.m = self.coeffs[: grid.dim]  # the caller's real momentum; a read-out is done with its coefficients


class SemigroupOrbit:
    """The orbit t -> S(t) data of one datum.

    The t-independent longitudinal amplitude a_hat is formed once; each
    sample evaluates the kernels on the grid's radial table and applies the
    block formula.  :meth:`halves` reads a sample out into the buffers of a
    :class:`Workspace`, which every sample of a series reuses.
    """

    def __init__(self, data: SpectralState, params: FluidParams):
        _require_full(data, "SemigroupOrbit")
        self.data = data
        self.params = params
        self._a_hat = longitudinal_amplitude(data.m_hat, data.grid)

    def at(self, t: float) -> SpectralState:
        """S(t) data."""
        _check_time(t)
        return semigroup_block(self.params, self.data.grid, t).apply(self.data, self._a_hat)

    def halves(self, t: float, ws: Workspace) -> tuple[np.ndarray, np.ndarray | None]:
        """(theta, m) halves of S(t) data: ``hermitian_half`` of each component of ``at(t)`` bit for bit.

        Each component is formed in one full-layout buffer in turn and checked finite.  The halves are workspace
        buffers that the next call overwrites; m is None for a theta-only workspace.
        """
        _check_time(t)
        grid, data = self.data.grid, self.data
        block = semigroup_block(self.params, grid, t, theta_only=ws.theta_only, out=ws.coeffs)
        hermitian_half(_finite(block.theta(data.theta_hat, self._a_hat, out=ws.full)), grid, out=ws.th)
        if ws.theta_only:
            return ws.th, None
        w = block.weight(data.theta_hat, self._a_hat, out=ws.w)
        for j in range(grid.dim):
            hermitian_half(_finite(block.momentum(j, w, data.m_hat[j], grid, ws.full)), grid, out=ws.mh[j])
        return ws.th, ws.mh


def _finite(arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ConstraintViolation("spectral entries must be finite")
    return arr


def _check_time(t: float) -> None:
    if t < 0:
        raise ValueError("t >= 0 required")


def apply_semigroup(spectral: SpectralState, params: FluidParams, t: float) -> SpectralState:
    """Exact-in-time linear propagation: per-mode multiplication by the solution symbol."""
    return SemigroupOrbit(spectral, params).at(t)


def _quintic_step(r: np.ndarray) -> np.ndarray:
    """Monotone C^2 ramp 0 -> 1 on [0, 1]."""
    r = np.clip(r, 0.0, 1.0)
    return r**3 * (10.0 + r * (-15.0 + 6.0 * r))


@dataclass(frozen=True)
class CutoffSpec:
    """Radial cutoff: 1 for |xi| <= eps, 0 for |xi| >= 2 eps, smooth between.

    The transition is the quintic smoothstep in r = (|xi| - eps)/eps, a C^2
    monotone ramp.
    """

    eps: float

    def __post_init__(self):
        if not (self.eps > 0.0):
            raise ConstraintViolation("cutoff eps > 0")

    def __call__(self, xi_abs: np.ndarray) -> np.ndarray:
        r = (np.asarray(xi_abs, dtype=float) - self.eps) / self.eps
        return 1.0 - _quintic_step(r)


def default_cutoff(grid: Grid) -> CutoffSpec:
    """Cutoff at a quarter of the grid's maximal resolved |xi|."""
    return CutoffSpec(eps=grid.xi_max / 4.0)


def low_band_mode_count(grid: Grid, cutoff: CutoffSpec) -> int:
    """Number of nonzero modes with |xi| <= 2 eps (the band the paper's epsilon isolates)."""
    xi_abs = np.sqrt(grid.xi_sq)
    return int(np.count_nonzero((xi_abs <= 2.0 * cutoff.eps) & (xi_abs > 0.0)))


def frequency_band(spectral: SpectralState, cutoff: CutoffSpec, band: str) -> SpectralState:
    """The low part phi * spectral or the high part spectral - phi * spectral, formed alone."""
    _require_full(spectral, "frequency_split")
    grid = spectral.grid
    if low_band_mode_count(grid, cutoff) == 0:
        raise EmptyLowBand(
            f"no nonzero mode satisfies |xi| <= 2*eps = {2 * cutoff.eps:g} "
            f"(smallest nonzero |xi| is {2 * np.pi / grid.box_len:g})"
        )
    phi = cutoff(np.sqrt(grid.xi_sq))
    theta_hat = phi * spectral.theta_hat
    m_hat = phi * spectral.m_hat
    if band == "high":
        np.subtract(spectral.theta_hat, theta_hat, out=theta_hat)
        np.subtract(spectral.m_hat, m_hat, out=m_hat)
    return SpectralState(grid=grid, theta_hat=theta_hat, m_hat=m_hat)


def frequency_split(spectral: SpectralState, cutoff: CutoffSpec) -> tuple[SpectralState, SpectralState]:
    """Split into (low, high) parts; low + high reproduces the input exactly."""
    return frequency_band(spectral, cutoff, "low"), frequency_band(spectral, cutoff, "high")


def _multi_index_power(grid: Grid, alpha) -> np.ndarray:
    """(i xi)^alpha as a broadcastable multiplier on the half layout.

    Zero on every mode whose Nyquist axes carry an odd total power of alpha
    (the Nyquist rule of the module docstring).
    """
    xis = grid.wavevectors(half=True)
    mult = np.ones((1,) * grid.dim, dtype=complex)
    odd = np.zeros((1,) * grid.dim, dtype=bool)
    for ax, a in enumerate(alpha):
        if a:
            mult = mult * (1j * xis[ax]) ** a
            if a % 2:
                odd = odd ^ _nyquist_index(grid, ax, xis[ax].shape)
    return np.where(odd, 0.0, mult)


def _nyquist_index(grid: Grid, ax: int, shape: tuple) -> np.ndarray:
    """Boolean array of the given broadcast shape, true on the Nyquist index of axis ax."""
    out = np.zeros(shape, dtype=bool)
    out[(slice(None),) * ax + (grid.n // 2,)] = True
    return out


def odd_wavevectors(grid: Grid) -> list:
    """Per-axis half-layout wavevectors with the axis's own Nyquist index set to 0.

    ``i xi_k`` with this xi_k is the first-derivative multiplier a real field
    actually receives: on the Nyquist plane of axis k the mode is its own
    mirror, so ``.real`` of the complex round trip drops it.  On a half
    spectrum the multiplier keeps the implied mirror of every stored mode the
    conjugate of its image.
    """
    out = []
    for ax, x in enumerate(grid.wavevectors(half=True)):
        x = x.copy()
        x[(slice(None),) * ax + (grid.n // 2,)] = 0.0
        out.append(x)
    return out


def divergence_form_momentum(m0_tensor: np.ndarray, grid: Grid) -> np.ndarray:
    """m0 = Div M0 computed spectrally on real transforms: j-th component sum_k d_k M0[j,k] (Nyquist rule)."""
    m0_tensor = np.asarray(m0_tensor)
    expected = (grid.dim, grid.dim) + grid.shape
    if m0_tensor.shape != expected:
        raise GridMismatch(f"tensor field has shape {m0_tensor.shape}, expected {expected}")
    xis = odd_wavevectors(grid)
    out = np.empty((grid.dim,) + grid.shape)
    for j in range(grid.dim):
        acc = np.zeros(grid.half_shape, dtype=complex)
        for k in range(grid.dim):
            acc += 1j * xis[k] * rfftn(m0_tensor[j, k])
        out[j] = irfftn(acc, grid)
    return out


def dealias_mask(grid: Grid) -> np.ndarray:
    """2/3-rule mask on the half layout: keep modes with every axis alias |k'| < n/3."""
    keep = np.abs(grid.axis_aliases()) < grid.n / 3.0
    mask = np.ones(grid.half_shape, dtype=bool)
    for ax, size in enumerate(grid.half_shape):
        shape = [1] * grid.dim
        shape[ax] = size
        mask &= keep[:size].reshape(shape)
    return mask


def conjugate_symmetry_defect(spectral: SpectralState) -> float:
    """Relative departure from hat(f)(-xi) = conj(hat(f)(xi)).

    A half spectrum stores a mode together with its mirror only inside the
    self-mirror planes, last-axis index 0 and n/2; everywhere else the mirror
    is implied.  So on the half layout exactly those planes are checked.
    """
    grid = spectral.grid
    axes = tuple(range(grid.dim - 1 if spectral.half else grid.dim))

    def defect(arr):
        scale = np.max(np.abs(arr))
        if scale == 0.0:
            return 0.0
        planes = (arr[..., 0], arr[..., grid.n // 2]) if spectral.half else (arr,)
        return float(max(np.max(np.abs(p - np.conj(_reverse_modes(p, axes)))) for p in planes) / scale)

    worst = defect(spectral.theta_hat)
    for j in range(grid.dim):
        worst = max(worst, defect(spectral.m_hat[j]))
    return worst


def _reverse_modes(arr: np.ndarray, axes) -> np.ndarray:
    """Index map k -> -k (mod n) along the given axes."""
    if not axes:
        return arr
    return np.roll(np.flip(arr, axis=axes), 1, axis=axes)
