"""Transforms, exact semigroup application, frequency splitting and spectral calculus.

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
kernels.

Transform convention: unnormalized forward DFT, ``1/n^dim`` on the inverse
(numpy's default).  Norms in :mod:`nsklab.analysis` carry the quadrature
weights that make Parseval exact under this convention.

FFT calls go through scipy.fft; ``set_fft_workers`` configures the worker
count (kept at 1 by default so outputs are reproducible bit for bit across
hosts regardless of core count).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.fft as _fft

from .errors import ConstraintViolation, EmptyLowBand, GridMismatch
from .model import FluidParams, Grid, SpectralState, State
from .symbols import propagator_kernels

_FFT_WORKERS = 1

MAX_DERIVATIVE_ORDER = 3


def set_fft_workers(workers: int) -> None:
    """Set the scipy.fft worker count used by all transforms."""
    global _FFT_WORKERS
    _FFT_WORKERS = int(workers)


def fftn(arr: np.ndarray) -> np.ndarray:
    return _fft.fftn(arr, workers=_FFT_WORKERS)


def ifftn(arr: np.ndarray) -> np.ndarray:
    return _fft.ifftn(arr, workers=_FFT_WORKERS)


def to_spectral(state: State) -> SpectralState:
    """Forward transform of both fields."""
    theta_hat = fftn(state.theta)
    m_hat = np.stack([fftn(state.m[j]) for j in range(state.grid.dim)])
    return SpectralState(grid=state.grid, theta_hat=theta_hat, m_hat=m_hat)


def to_real(spectral: SpectralState) -> State:
    """Inverse transform of both fields, discarding the rounding-level imaginary part."""
    theta = ifftn(spectral.theta_hat).real
    m = np.stack([ifftn(spectral.m_hat[j]).real for j in range(spectral.grid.dim)])
    return State(grid=spectral.grid, theta=theta, m=m)


def longitudinal_amplitude(m_hat: np.ndarray, grid: Grid) -> np.ndarray:
    """a_hat = xi . m_hat / |xi|^2, with a_hat = 0 at xi = 0.

    xi a_hat is the longitudinal projection of m_hat.
    """
    xis = grid.wavevectors()
    xi_dot_m = xis[0] * m_hat[0]
    for j in range(1, grid.dim):
        xi_dot_m += xis[j] * m_hat[j]
    xi_sq = grid.xi_sq
    return np.divide(xi_dot_m, xi_sq, out=np.zeros(grid.shape, dtype=complex), where=xi_sq > 0.0)


@dataclass(frozen=True)
class Block:
    """Per-mode real coefficients of a radial operator on (theta, m) in block form.

    With a_hat from :func:`longitudinal_amplitude` the operator maps

        theta_hat -> tf theta_hat - i d a_hat
        m_hat_j   -> heat m_hat_j + xi_j (lg a_hat - i cap d theta_hat)

    This is the one formula of the toolkit's linear operators: the semigroup
    (:func:`semigroup_block`) and the ETDRK2 forcing weights, which act on
    (0, g) and so leave ``tf`` unset.
    """

    d: np.ndarray
    tf: np.ndarray | None = None
    lg: np.ndarray | None = None
    heat: np.ndarray | None = None
    cap: float = 0.0

    def theta(self, theta_hat: np.ndarray | None, a_hat: np.ndarray) -> np.ndarray:
        """theta component of the image; theta_hat None stands for a zero theta."""
        out = -1j * self.d * a_hat
        if theta_hat is not None:
            out += self.tf * theta_hat
        return out

    def momentum(self, theta_hat: np.ndarray | None, a_hat: np.ndarray, m_hat: np.ndarray, grid: Grid) -> np.ndarray:
        """Momentum components of the image; theta_hat None stands for a zero theta."""
        w = self.lg * a_hat
        if theta_hat is not None:
            w -= 1j * self.cap * self.d * theta_hat
        out = self.heat * m_hat
        for j, x in enumerate(grid.wavevectors()):
            out[j] += x * w
        return out

    def apply(self, spectral: SpectralState, a_hat: np.ndarray | None = None) -> SpectralState:
        """The image of a spectral state; pass its a_hat if already formed."""
        grid = spectral.grid
        if a_hat is None:
            a_hat = longitudinal_amplitude(spectral.m_hat, grid)
        theta_hat = self.theta(spectral.theta_hat, a_hat)
        m_hat = self.momentum(spectral.theta_hat, a_hat, spectral.m_hat, grid)
        return SpectralState(grid=grid, theta_hat=theta_hat, m_hat=m_hat)


def semigroup_block(params: FluidParams, grid: Grid, t: float, *, theta_only: bool = False) -> Block:
    """S(t) in block form, its kernels evaluated once per distinct |xi|^2 and gathered.

    With theta_only the momentum coefficients are not gathered and only
    :meth:`Block.theta` may be used.
    """
    values, index = grid.radial_table
    sig_tf, sig_d, sig_mg, heat = propagator_kernels(params, values, t)
    d = np.take(sig_d * values, index)
    tf = np.take(sig_tf, index)
    if theta_only:
        return Block(d=d, tf=tf)
    cap = params.kappa_star * params.rho_star
    return Block(d=d, tf=tf, lg=np.take(sig_mg - heat, index), heat=np.take(heat, index), cap=cap)


class SemigroupOrbit:
    """The orbit t -> S(t) data of one datum.

    The t-independent longitudinal amplitude a_hat is formed once; each
    sample evaluates the kernels on the grid's radial table and applies the
    block formula.  a_hat is the only field held besides the datum.
    """

    def __init__(self, data: SpectralState, params: FluidParams):
        self.data = data
        self.params = params
        self._a_hat = longitudinal_amplitude(data.m_hat, data.grid)

    def at(self, t: float) -> SpectralState:
        """S(t) data."""
        _check_time(t)
        return semigroup_block(self.params, self.data.grid, t).apply(self.data, self._a_hat)

    def theta_hat(self, t: float) -> np.ndarray:
        """The theta component of S(t) data alone, bitwise equal to ``at(t).theta_hat``."""
        _check_time(t)
        block = semigroup_block(self.params, self.data.grid, t, theta_only=True)
        theta_hat = block.theta(self.data.theta_hat, self._a_hat)
        if not np.all(np.isfinite(theta_hat)):
            raise ConstraintViolation("spectral entries must be finite")
        return theta_hat


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

    The default transition profile is the quintic smoothstep in
    r = (|xi| - eps)/eps, a C^2 monotone ramp.
    """

    eps: float
    profile: Callable = field(default=_quintic_step)

    def __post_init__(self):
        if not (self.eps > 0.0):
            raise ConstraintViolation("cutoff eps > 0")

    def __call__(self, xi_abs: np.ndarray) -> np.ndarray:
        r = (np.asarray(xi_abs, dtype=float) - self.eps) / self.eps
        return 1.0 - self.profile(r)


def default_cutoff(grid: Grid) -> CutoffSpec:
    """Cutoff at a quarter of the grid's maximal resolved |xi|."""
    return CutoffSpec(eps=grid.xi_max / 4.0)


def low_band_mode_count(grid: Grid, cutoff: CutoffSpec) -> int:
    """Number of nonzero modes with |xi| <= 2 eps (the band the paper's epsilon isolates)."""
    xi_abs = np.sqrt(grid.xi_sq)
    return int(np.count_nonzero((xi_abs <= 2.0 * cutoff.eps) & (xi_abs > 0.0)))


def frequency_split(spectral: SpectralState, cutoff: CutoffSpec) -> tuple[SpectralState, SpectralState]:
    """Split into (low, high) parts; low + high reproduces the input exactly."""
    grid = spectral.grid
    if low_band_mode_count(grid, cutoff) == 0:
        raise EmptyLowBand(
            f"no nonzero mode satisfies |xi| <= 2*eps = {2 * cutoff.eps:g} "
            f"(smallest nonzero |xi| is {2 * np.pi / grid.box_len:g})"
        )
    phi = cutoff(np.sqrt(grid.xi_sq))
    low_theta = phi * spectral.theta_hat
    low_m = phi * spectral.m_hat
    low = SpectralState(grid=grid, theta_hat=low_theta, m_hat=low_m)
    high = SpectralState(grid=grid, theta_hat=spectral.theta_hat - low_theta, m_hat=spectral.m_hat - low_m)
    return low, high


def _multi_index_power(grid: Grid, alpha) -> np.ndarray:
    """(i xi)^alpha as a broadcastable spectral multiplier."""
    xis = grid.wavevectors()
    mult = np.ones((1,) * grid.dim, dtype=complex)
    for ax, a in enumerate(alpha):
        if a:
            mult = mult * (1j * xis[ax]) ** a
    return mult


def spectral_derivative(field: np.ndarray, grid: Grid, alpha) -> np.ndarray:
    """Partial derivative d^alpha by multiplication with (i xi)^alpha.

    alpha is a multi-index of length grid.dim with |alpha| <= 3 (the highest
    order the W^3_q framework uses; larger orders raise rather than alias).
    """
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != grid.dim or any(a < 0 for a in alpha):
        raise ValueError(f"alpha must be {grid.dim} nonnegative integers")
    order = sum(alpha)
    if order > MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order {order} exceeds the supported maximum {MAX_DERIVATIVE_ORDER}")
    field = np.asarray(field)
    if field.shape != grid.shape:
        raise GridMismatch(f"field has shape {field.shape}, expected {grid.shape}")
    if order == 0:
        return field.astype(float, copy=True)
    return ifftn(_multi_index_power(grid, alpha) * fftn(field)).real


def odd_wavevectors(grid: Grid) -> list:
    """Per-axis wavevectors with the axis's own Nyquist index set to 0.

    ``i xi_k`` with this xi_k is the first-derivative multiplier a real field
    actually receives: on the Nyquist plane of axis k the mode is its own
    mirror, so ``ifftn(1j * xi_k * fftn(f)).real`` drops it.  Applied to any
    spectrum, the multiplier is exactly odd and commutes with
    :func:`hermitian_part`.
    """
    out = []
    for ax, x in enumerate(grid.wavevectors()):
        x = x.copy()
        x[(slice(None),) * ax + (grid.n // 2,)] = 0.0
        out.append(x)
    return out


def hermitian_part(arr: np.ndarray, grid: Grid) -> np.ndarray:
    """(g(xi) + conj g(-xi)) / 2 over the trailing grid axes: the DFT of ``ifftn(g).real``."""
    axes = tuple(range(arr.ndim - grid.dim, arr.ndim))
    return 0.5 * (arr + np.conj(_reverse_modes(arr, axes)))


def gradient(field: np.ndarray, grid: Grid) -> np.ndarray:
    """All first partials, stacked as a vector field; one forward transform."""
    fh = fftn(np.asarray(field))
    xis = grid.wavevectors()
    return np.stack([ifftn(1j * xis[ax] * fh).real for ax in range(grid.dim)])


def divergence_form_momentum(m0_tensor: np.ndarray, grid: Grid) -> np.ndarray:
    """m0 = Div M0 computed spectrally: j-th component sum_k d_k M0[j,k]."""
    m0_tensor = np.asarray(m0_tensor)
    expected = (grid.dim, grid.dim) + grid.shape
    if m0_tensor.shape != expected:
        raise GridMismatch(f"tensor field has shape {m0_tensor.shape}, expected {expected}")
    xis = grid.wavevectors()
    out = np.empty((grid.dim,) + grid.shape)
    for j in range(grid.dim):
        acc = np.zeros(grid.shape, dtype=complex)
        for k in range(grid.dim):
            acc += 1j * xis[k] * fftn(m0_tensor[j, k])
        out[j] = ifftn(acc).real
    return out


def divergence_spectral(tensor_hat: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral divergence of a tensor field given its per-component DFTs."""
    xis = grid.wavevectors()
    out = np.empty((grid.dim,) + grid.shape, dtype=complex)
    for j in range(grid.dim):
        acc = np.zeros(grid.shape, dtype=complex)
        for k in range(grid.dim):
            acc += 1j * xis[k] * tensor_hat[j, k]
        out[j] = acc
    return out


def dealias_mask(grid: Grid) -> np.ndarray:
    """2/3-rule mask: keep modes with every axis alias |k'| < n/3."""
    aliases = np.abs(grid.axis_aliases())
    keep = aliases < grid.n / 3.0
    mask = np.ones(grid.shape, dtype=bool)
    for ax in range(grid.dim):
        shape = [1] * grid.dim
        shape[ax] = grid.n
        mask &= keep.reshape(shape)
    return mask


def dealias(field: np.ndarray, grid: Grid, mask: np.ndarray | None = None) -> np.ndarray:
    """Truncate a real-space field to the 2/3 band."""
    if mask is None:
        mask = dealias_mask(grid)
    return ifftn(mask * fftn(field)).real


def conjugate_symmetry_defect(spectral: SpectralState) -> float:
    """Relative departure from hat(f)(-xi) = conj(hat(f)(xi))."""
    grid = spectral.grid
    axes = tuple(range(grid.dim))

    def defect(arr):
        mirrored = np.conj(_reverse_modes(arr, axes))
        scale = np.max(np.abs(arr))
        if scale == 0.0:
            return 0.0
        return float(np.max(np.abs(arr - mirrored)) / scale)

    worst = defect(spectral.theta_hat)
    for j in range(grid.dim):
        worst = max(worst, defect(spectral.m_hat[j]))
    return worst


def _reverse_modes(arr: np.ndarray, axes) -> np.ndarray:
    """Index map k -> -k (mod n) along the given axes."""
    return np.roll(np.flip(arr, axis=axes), 1, axis=axes)
