"""Transforms, exact semigroup application, frequency splitting and derivative multipliers.

Every linear operator of the toolkit that acts on (theta, m) per mode is
radial, so it is applied in one block form (:class:`Block`) by one method,
:meth:`Block.image`, into the caller's rows.  The theta-only mode is read off
the arrays: a one-row output gets the theta row alone, and a
:func:`semigroup_block` gathered into two arrays holds d and tf alone.  With the
longitudinal amplitude a_hat = xi . m_hat / |xi|^2 (zero at xi = 0) the
semigroup reads

    theta_hat(t) = sig_tf theta_hat - i sig_d |xi|^2 a_hat
    m_hat_j(t)   = heat m_hat_j + xi_j [(sig_mg - heat) a_hat
                                        - i kappa* rho* sig_d |xi|^2 theta_hat]

and the ETDRK2 forcing h phi_k(hA) on (0, g) is the same block with
theta_hat = 0.  The coefficients depend on xi only through |xi|^2, so they
are evaluated once per distinct |xi|^2 of the grid (``Grid.radial_values``)
and gathered per half-layout mode by :func:`radial_gather`; the reference
:func:`apply_semigroup` evaluates them per mode, to the same values.

Transform convention: unnormalized forward DFT, ``1/n^dim`` on the inverse
(numpy's default).  Norms in :mod:`nsklab.analysis` carry the quadrature
weights that make Parseval exact under this convention.

Layouts (see :mod:`nsklab.model`): every lookup on the modes here (the
wavevectors, the mirror -xi, the Nyquist indices, the dealias band, the
embedding of a coarser grid) goes through the per-axis tables of ``Grid``.
The linear toolkit takes full complex spectra, whose data may be built in
spectral space without conjugate symmetry; :func:`apply_semigroup`,
:class:`SemigroupOrbit` and :func:`frequency_split` reject a half-layout
state with ``GridMismatch``.  The nonlinear solver works on half spectra of
real fields (:func:`to_spectral`).  Every real read-out is ``irfftn`` of a
half spectrum, one row at a time, into a row of the caller's where it has one
(a decay sample's land in its :class:`Workspace`); a full spectrum g is first
projected by :func:`hermitian_half`, (g(xi) + conj g(-xi)) / 2.  A :class:`SemigroupOrbit`
forms the band of its datum a row at a time and evaluates S(t) on the half
layout of the grid its band and cutoff imply (:func:`_band_grid`); it
zero-pads each sample back, which is exact for a band-limited spectrum.

Derivative multipliers act on half spectra.  Nyquist rule: on the Nyquist
index of an axis a mode is its own mirror along that axis, so a multiplier
odd in that axis's xi cannot act on it and keep the field real.  A
derivative multiplier (i xi)^alpha is therefore zero on every mode whose
Nyquist axes carry an odd total power of alpha.  :func:`derivative` builds
every such multiplier of the toolkit, once per (grid, alpha), which keeps a
half spectrum's implied mirror consistent; the derivative equals ``.real`` of
the complex round trip with the bare multiplier.

Every transform takes one whole field, all its axes, straight to scipy's
pocketfft kernels (``_fft.c2c``, ``r2c``, ``c2r``) with the norm codes and
worker count that scipy.fft passes them, so the output is scipy.fft's bit for
bit.  The kernel module is loaded from its file, since importing it by name
runs scipy.fft's package init (array-API support, numpy.f2py, scipy.special),
which costs more than the rest of the import; where the file is not there, it
is imported by name.  ``set_fft_workers`` sets every transform's worker count
(1 by default, so outputs are reproducible bit for bit across hosts).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConstraintViolation, EmptyLowBand, GridMismatch
from .model import FluidParams, Grid, SpectralState, State
from .symbols import propagator_kernels


def _load_fft():
    """scipy's pocketfft kernel module, loaded from its file, which is found without importing scipy, or imported by
    its dotted name where the file is not there.  Either way it keeps that name, so a later import of scipy.fft
    reuses it."""
    name = "scipy.fft._pocketfft.pypocketfft"
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(scipy_dir, "fft", "_pocketfft", "pypocketfft" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_loader(name, importlib.machinery.ExtensionFileLoader(name, path))
            kernels = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(kernels)
            return kernels
    return importlib.import_module(name)


_fft = _load_fft()
_FFT_WORKERS = 1


def set_fft_workers(workers: int) -> None:
    """Set the worker count of every transform; below 1 is a ValueError (the kernels would read 0 as every core)."""
    global _FFT_WORKERS
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"FFT workers must be at least 1, got {workers}")
    _FFT_WORKERS = workers


def fftn(arr: np.ndarray) -> np.ndarray:
    return _fft.c2c(arr, None, True, 0, None, _FFT_WORKERS)


def rfftn(arr: np.ndarray) -> np.ndarray:
    """Half spectrum of a real field (last axis n/2 + 1)."""
    return _fft.r2c(arr, None, True, 0, None, _FFT_WORKERS)


def irfftn(arr: np.ndarray, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """The real field of a half spectrum, into ``out`` (a new array if None); a spectrum of any other shape than
    ``grid.half_shape``, or an ``out`` of any other than ``grid.shape``, is a GridMismatch (the kernel would fill an
    ``out`` of the wrong shape without complaint)."""
    if arr.shape != grid.half_shape:
        raise GridMismatch(f"half spectrum of shape {arr.shape} on a grid whose half layout is {grid.half_shape}")
    if out is not None and out.shape != grid.shape:
        raise GridMismatch(f"output of shape {out.shape} for a field on a grid of shape {grid.shape}")
    return _fft.c2r(arr, None, grid.n, False, 2, out, _FFT_WORKERS)


def to_spectral(state: State) -> SpectralState:
    """Forward transform of every row, to the half layout."""
    return SpectralState(grid=state.grid, hat=np.stack([rfftn(f) for f in state.fields]), half=True)


def _project(mirrored: np.ndarray, own: np.ndarray) -> np.ndarray:
    """(conj g(-xi) + g(xi)) / 2, formed in ``mirrored``, which holds g(-xi)."""
    np.conjugate(mirrored, out=mirrored)
    mirrored += own
    mirrored *= 0.5
    return mirrored


def hermitian_half(arr: np.ndarray, grid: Grid) -> np.ndarray:
    """(g(xi) + conj g(-xi)) / 2 on the half layout: the rfftn of ``ifftn(g).real`` over the trailing grid axes."""
    return _project(arr[(Ellipsis,) + grid.mirrors(half=True)], arr[..., : grid.n // 2 + 1])


def to_real(spectral: SpectralState) -> State:
    """Inverse transform of each row into one real stack; a full spectrum is read out through :func:`hermitian_half`."""
    grid = spectral.grid
    hat = spectral.hat if spectral.half else hermitian_half(spectral.hat, grid)
    fields = np.empty((grid.dim + 1,) + grid.shape)
    for row, h in zip(fields, hat):
        row[...] = irfftn(h, grid)
    return State(grid=grid, fields=fields)


def longitudinal_amplitude(m_hat: np.ndarray, xis, xi_sq: np.ndarray) -> np.ndarray:
    """a_hat = xi . m_hat / |xi|^2, with a_hat = 0 at xi = 0, on the modes of the wavevectors ``xis`` and |xi|^2 ``xi_sq``.

    xi a_hat is the longitudinal projection of m_hat.
    """
    xi_dot_m = xis[0] * m_hat[0]
    for j in range(1, len(xis)):
        xi_dot_m += xis[j] * m_hat[j]
    return np.divide(xi_dot_m, xi_sq, out=np.zeros(xi_sq.shape, dtype=complex), where=xi_sq > 0.0)


@dataclass(frozen=True)
class Block:
    """Per-mode real coefficients of a radial operator on (theta, m) in block form.

    With a_hat from :func:`longitudinal_amplitude` the operator maps

        theta_hat -> tf theta_hat - i d a_hat
        m_hat_j   -> heat m_hat_j + xi_j (lg a_hat - i cap d theta_hat)

    This is the one formula of the toolkit's linear operators: the semigroup
    (:func:`semigroup_block`) and the ETDRK2 forcing weights, which act on
    (0, g) and so leave ``tf`` unset.  The coefficients are gathered on the
    half layout, and equal their per-mode values bit for bit, as does the
    block :meth:`at` a list of modes.
    :meth:`image` is the one way to apply a block; a block whose momentum
    coefficients are not gathered serves only a one-row ``out``.
    """

    d: np.ndarray
    tf: np.ndarray | None = None
    lg: np.ndarray | None = None
    heat: np.ndarray | None = None
    cap: float = 0.0

    def image(self, theta_hat: np.ndarray | None, m_hat: np.ndarray, a_hat: np.ndarray, xis, out: np.ndarray, w: np.ndarray | None):
        """The image stack (theta, m_1 .. m_N), not validated, into the rows of ``out``: the theta row alone if ``out``
        has one row.  ``a_hat`` is m_hat's :func:`longitudinal_amplitude` on the modes of the wavevectors ``xis``, and
        theta_hat None stands for a zero theta.

        The theta row multiplies the real coefficients into the real and imaginary parts separately, which is faster
        than promoting them to complex; in the momentum rows the promoted products measured faster.  Those rows need
        w = lg a_hat - i cap d theta_hat, the factor of xi_j shared by every momentum component, formed in ``w`` (made
        here if None): i cap d theta_hat goes in out[1], and each xi_j w in the next row of ``out``, not yet written,
        the last one in w, which it spends.
        """
        re, im = out[0].real, out[0].imag
        np.multiply(self.d, a_hat.imag, out=re)
        np.multiply(self.d, a_hat.real, out=im)
        np.negative(im, out=im)
        if theta_hat is not None:
            re += self.tf * theta_hat.real
            im += self.tf * theta_hat.imag
        if len(out) == 1:
            return out
        w = np.multiply(self.lg, a_hat, out=w)
        if theta_hat is not None:
            w -= np.multiply(np.multiply(1j * self.cap, self.d, out=out[1]), theta_hat, out=out[1])
        for j, xi_j in enumerate(xis, start=1):
            np.multiply(self.heat, m_hat[j - 1], out=out[j])
            out[j] += np.multiply(xi_j, w, out=out[j + 1] if j + 1 < len(out) else w)
        return out

    def at(self, index: np.ndarray) -> Block:
        """The block on the modes of a flat index into its (contiguous) layout."""
        return replace(self, **{f: c.reshape(-1)[index] for f in ("d", "tf", "lg", "heat") if (c := getattr(self, f)) is not None})


def _require_full(spectral: SpectralState, what: str) -> None:
    if spectral.half:
        raise GridMismatch(f"{what} needs a full-layout spectrum, got a half-layout one")


def radial_gather(grid: Grid, tables, out) -> list:
    """Each of ``tables``, a function of |xi|^2 on the distinct values ``grid.radial_values``, gathered per mode of
    the half layout, into ``out[i]`` (one array per table) unless ``out`` is None."""
    index = grid.radial_index
    # every index is in range; mode="clip" skips the buffered copy mode="raise" makes of an out array
    return [np.take(tab, index, out=None if out is None else out[i], mode="clip") for i, tab in enumerate(tables)]


def _semigroup_tables(params: FluidParams, xi_sq: np.ndarray, t: float) -> tuple:
    """S(t)'s block coefficients (d, tf, lg, heat) on the |xi|^2 values ``xi_sq``."""
    sig_tf, sig_d, sig_mg, heat = propagator_kernels(params, xi_sq, t)
    return sig_d * xi_sq, sig_tf, sig_mg - heat, heat


def semigroup_block(params: FluidParams, grid: Grid, t: float, *, out=None) -> Block:
    """S(t) in block form, its kernels evaluated once per distinct |xi|^2 and gathered (:func:`radial_gather`).

    ``out``, one array per coefficient (d, tf, then lg, heat), receives them; an ``out`` of two arrays gathers d and
    tf alone, a block for the theta row of :meth:`Block.image`.
    """
    tables = _semigroup_tables(params, grid.radial_values, t)[: 4 if out is None else len(out)]
    return Block(*radial_gather(grid, tables, out), cap=params.kappa_star * params.rho_star)


def image_of(block: Block, theta_hat: np.ndarray | None, m_hat: np.ndarray, grid: Grid) -> np.ndarray:
    """:meth:`Block.image` of a block gathered on the half layout, into a new stack."""
    xis = grid.wavevectors(half=True)
    a_hat = longitudinal_amplitude(m_hat, xis, grid.half_xi_sq)
    return block.image(theta_hat, m_hat, a_hat, xis, np.empty((grid.dim + 1,) + grid.half_shape, dtype=complex), None)


class Workspace:
    """Buffers reused by a series of :meth:`SemigroupOrbit.halves` read-outs on one grid.

    ``hat`` is the half-spectrum stack a read-out fills: the theta row alone if theta_only, else all dim + 1 rows.
    A sample's block coefficients (and w) run in the leading elements of the half-layout buffers ``coeffs`` (and
    ``w``, which follows them in one buffer), sized on its orbit's evaluation grid.  A read-out is done with its
    coefficients and w once it returns, and the caller may use the rows for its real fields: a real row is shorter
    than two half-layout rows.  ``real_row``, one real row for the caller's inverse transforms, shares the memory of
    the last two ``coeffs`` rows, rows 2-3, or rows 0-1 of a theta-only workspace.  ``m``, one real row for the
    caller's momentum magnitude, shares the memory of the first two ``coeffs`` rows.
    """

    def __init__(self, grid: Grid, *, theta_only: bool = False):
        self.hat = np.empty((1 if theta_only else grid.dim + 1,) + grid.half_shape, dtype=complex)
        coeffs = (2 if theta_only else 4,) + grid.half_shape
        if theta_only:
            self.coeffs = np.empty(coeffs)
        else:
            size = math.prod(coeffs)
            shared = np.empty(size + 2 * math.prod(grid.half_shape))
            self.coeffs, self.m = _leading(shared, coeffs), _leading(shared, grid.shape)
            self.w = shared[size:].view(complex).reshape(grid.half_shape)
        self.real_row = _leading(self.coeffs[-2:], grid.shape)


def _leading(buf: np.ndarray, shape: tuple) -> np.ndarray:
    """The first prod(shape) elements of a contiguous buffer, viewed with ``shape``; the rest is never touched."""
    return buf.reshape(-1)[: math.prod(shape)].reshape(shape)


def _band_values(values: np.ndarray, phi: np.ndarray | None, band: str, out: np.ndarray) -> np.ndarray:
    """The band of spectrum ``values`` whose cutoff values are ``phi``, into ``out``: phi U (low), U - phi U (high), or
    U where ``phi`` is None (full); the per-mode operations of :func:`frequency_band`."""
    if phi is None:
        np.copyto(out, values)
        return out
    np.multiply(phi, values, out=out)
    if band == "high":
        np.subtract(values, out, out=out)
    return out


def _cutoff_values(cutoff: CutoffSpec | None, xi_sq: np.ndarray) -> np.ndarray | None:
    return None if cutoff is None else cutoff(np.sqrt(xi_sq))


def _band_grid(grid: Grid, band: str, cutoff: CutoffSpec | None) -> Grid:
    """The grid of the box that a band under ``cutoff`` is evaluated on: ``grid`` for a high or full band; for a low
    band, the coarsest grid whose full spectrum holds every mode where the cutoff is nonzero, that is the smallest
    power of two m with |alias| < m/2 on every index where the cutoff of one axis's |xi| is nonzero, or ``grid`` if m
    is not below its n.  No axis component of a wavevector exceeds its |xi|, so those indices hold every such mode.
    """
    if band != "low":
        return grid
    support = cutoff(np.abs(grid.wavevectors()[0].reshape(-1))) != 0.0
    reach = int(np.abs(grid.axis_aliases())[support].max(initial=0))
    m = 2 << reach.bit_length()
    return grid if m >= grid.n else Grid(dim=grid.dim, box_len=grid.box_len, n=m)


def _band_halves(hat: np.ndarray, fine: Grid, grid: Grid, band: str, cutoff: CutoffSpec | None):
    """(theta row, m stack, mirror set, mirror theta values, mirror m values) of the band of ``hat``, a full-layout
    stack on ``fine``, on the half layout of ``grid``, a grid of the same box that holds the band.  The theta row and
    the m stack are separate arrays, so a caller can drop a zero theta row alone.

    The band is formed a row at a time, at those modes and their mirrors -xi, with one half-layout row of mirror
    values; the mirror set holds every half mode on a Nyquist index of some axis, and every one where the band is not
    Hermitian in some row, and the mirror values are formed again there.  |xi|^2 is even bit for bit, so one table
    of cutoff values serves a mode and its mirror.
    """
    # per axis, the fine index of each half mode of grid, and of its mirror on grid
    own = grid.embedding(fine, half=True)
    mirror = tuple(np.take(e, m) for e, m in zip(grid.embedding(fine, half=False), grid.mirrors(half=True)))
    phi = _cutoff_values(cutoff, grid.half_xi_sq)
    half = (Ellipsis, slice(0, grid.n // 2 + 1)) if grid is fine else (Ellipsis,) + own
    theta, m = np.empty(grid.half_shape, dtype=complex), np.empty((grid.dim,) + grid.half_shape, dtype=complex)
    buf = np.empty(grid.half_shape, dtype=complex)
    carries = functools.reduce(np.logical_or, grid.nyquist(), np.zeros(grid.half_shape, dtype=bool))
    for row, own_row in zip(hat, [theta, *m]):
        _band_values(row[half], phi, band, own_row)
        carries |= own_row != np.conjugate(_band_values(row[(Ellipsis,) + mirror], phi, band, buf), out=buf)
    at = np.flatnonzero(carries)
    fine_at = tuple(np.take(ax, i) for ax, i in zip(mirror, np.unravel_index(at, grid.half_shape)))
    phi_at = None if phi is None else phi.reshape(-1)[at]
    mirror_theta, mirror_m = np.empty(at.size, dtype=complex), np.empty((grid.dim, at.size), dtype=complex)
    for row, mir in zip(hat, [mirror_theta, *mirror_m]):
        _band_values(row[fine_at], phi_at, band, mir)
    return theta, m, at, mirror_theta, mirror_m


class SemigroupOrbit:
    """The orbit t -> S(t) Phi data of the band Phi data of one datum (``band`` low, high or full, under ``cutoff``,
    by default :func:`default_cutoff`), evaluated on the half layout of the grid that its band and cutoff imply.

    ``eval_grid`` (:func:`_band_grid`) depends on the fine grid, the band and the cutoff alone: a low band under the
    default cutoff (|alias| < n/4) runs on n/2; a high or full band on its own grid.  That grid's wavevectors, |xi|^2
    and radial table are the fine grid's floats, so kernels, coefficients and image are the fine ones bit for bit;
    ``grid`` is the fine grid of the datum and of the read-outs.  ``band_modes``, which a series records, is the
    :func:`low_band_mode_count` of the cutoff, counted once.

    The band is formed from the datum a row at a time, never on the full layout, with the per-mode operations of
    :func:`frequency_band`: on ``eval_grid``'s half layout, kept with its a_hat, and at the mirrors -xi of those modes,
    kept with their wavevectors and a_hat on the mirror set ``mirror`` (flat indices into that layout;
    :func:`_band_halves`).  A half mode is in the mirror set if it lies on a Nyquist index of some axis, or if the band
    is not Hermitian there (U(-xi) != conj U(xi) in some row).  Off the set the band is Hermitian and the block
    mirror-symmetric (its coefficients are functions of |xi|^2 and its odd xi factors change sign), so the image's
    Hermitian projection is the image itself; on a Nyquist index the odd factors do not change sign.  The datum is not
    kept: a caller that hands it over and drops its own reference once the orbit is built frees it.  A band whose theta
    row is zero, on the half stack and the mirror set, is not kept either: it enters the block as its zero theta
    (None), so no sample multiplies it, and the orbit of divergence-free momentum data holds dim rows, not dim + 1.
    :meth:`halves` reads each sample out into a :class:`Workspace` that a series reuses.
    """

    def __init__(self, data: SpectralState, params: FluidParams, band: str = "full", cutoff: CutoffSpec | None = None):
        _require_full(data, "SemigroupOrbit")
        if band not in ("low", "high", "full"):
            raise ValueError("band must be low, high or full")
        fine = self.grid = data.grid
        self.params = params
        cutoff = cutoff or default_cutoff(fine)
        if band == "full":
            self.band_modes = low_band_mode_count(fine, cutoff)
            cutoff = None
        else:
            self.band_modes = _require_low_band(fine, cutoff)
        grid = self.eval_grid = _band_grid(fine, band, cutoff)
        if grid is not fine:
            self._padded = np.empty((grid.dim + 1,) + grid.half_shape, dtype=complex)
            # the fine half index of each coarse half mode: the two half layouts share the last axis's 0 .. m/2
            self._half_modes = (Ellipsis,) + grid.embedding(fine, half=True)[:-1] + (np.arange(grid.n // 2 + 1),)
        theta, self._m, self.mirror, mirror_theta, self._mirror_m = _band_halves(data.hat, fine, grid, band, cutoff)
        at = np.unravel_index(self.mirror, grid.half_shape)
        self._mirror_xis = [np.take(x, np.take(m, i)) for x, m, i in zip(grid.wavevectors(), grid.mirrors(half=False), at)]
        xi_sq = grid.half_xi_sq.reshape(-1)[self.mirror]  # |xi|^2 is even, bit for bit
        self._mirror_a_hat = longitudinal_amplitude(self._mirror_m, self._mirror_xis, xi_sq)
        self._a_hat = longitudinal_amplitude(self._m, grid.wavevectors(half=True), grid.half_xi_sq)
        zero_theta = not (theta.any() or mirror_theta.any())
        self._theta, self._mirror_theta = (None, None) if zero_theta else (theta, mirror_theta)
        grid.radial_index  # built here, before the series allocates its workspace

    def halves(self, t: float, ws: Workspace) -> np.ndarray:
        """``ws.hat`` filled with S(t) data's half spectra: ``hermitian_half`` of the rows of :func:`apply_semigroup`
        on the fine grid, bit for bit up to the sign of zeros.

        Each row is formed on the evaluation grid's half layout in place, then projected on the mirror set with the
        image of the mirror modes, in :func:`hermitian_half`'s operation order, and checked finite.  On a coarser grid
        the projected stack is zero-padded into ``ws.hat``: the modes outside it, where the fine image is +-0, read
        +0.  Only the evaluation grid's modes are checked, so a kernel that is non-finite only outside them does not
        reject a sample.  The stack is the workspace's; the next call overwrites it.
        """
        _check_time(t)
        grid = self.eval_grid
        hat = ws.hat if grid is self.grid else self._padded[: len(ws.hat)]
        coeffs = _leading(ws.coeffs, (len(ws.coeffs),) + grid.half_shape)
        block = semigroup_block(self.params, grid, t, out=coeffs)
        w = _leading(ws.w, grid.half_shape) if len(hat) > 1 else None
        block.image(self._theta, self._m, self._a_hat, grid.wavevectors(half=True), hat, w)
        mirrored = np.empty((len(hat), self.mirror.size), dtype=complex)
        block.at(self.mirror).image(self._mirror_theta, self._mirror_m, self._mirror_a_hat, self._mirror_xis, mirrored, None)
        for row, mir in zip(hat, mirrored):
            flat = row.reshape(-1)
            flat[self.mirror] = _project(mir, flat[self.mirror])
            _finite(row)
        if hat is not ws.hat:
            ws.hat.fill(0.0)
            ws.hat[self._half_modes] = hat
        return ws.hat


def _finite(arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ConstraintViolation("spectral entries must be finite")
    return arr


def _check_time(t: float) -> None:
    if t < 0:
        raise ValueError("t >= 0 required")


def apply_semigroup(spectral: SpectralState, params: FluidParams, t: float) -> SpectralState:
    """Exact-in-time linear propagation of a full-layout spectrum: per-mode multiplication by the solution symbol."""
    _require_full(spectral, "apply_semigroup")
    _check_time(t)
    grid, xis = spectral.grid, spectral.grid.wavevectors()
    xi_sq = grid.xi_sq  # formed on request: bound once
    block = Block(*_semigroup_tables(params, xi_sq, t), cap=params.kappa_star * params.rho_star)
    a_hat = longitudinal_amplitude(spectral.m_hat, xis, xi_sq)
    hat = block.image(spectral.theta_hat, spectral.m_hat, a_hat, xis, np.empty_like(spectral.hat), None)
    return SpectralState(grid=grid, hat=hat)


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
    """Number of nonzero modes with |xi| <= 2 eps (the band the paper's epsilon isolates), on the full layout.

    It is counted on the half layout, about 2^15 modes at a time, so no temporary spans a layout: a mode counts once
    on the self-mirror last-axis planes 0 and n/2 and twice elsewhere, for itself and its mirror, whose |xi|^2 is the
    same bit for bit.
    """
    rows = grid.half_xi_sq.reshape(-1, grid.n // 2 + 1)
    step, count = max(1, (1 << 15) // rows.shape[1]), 0
    for lo in range(0, len(rows), step):
        xi_abs = np.sqrt(rows[lo : lo + step])
        inside = (xi_abs <= 2.0 * cutoff.eps) & (xi_abs > 0.0)
        count += 2 * np.count_nonzero(inside) - np.count_nonzero(inside[:, 0]) - np.count_nonzero(inside[:, -1])
    return int(count)


def _require_low_band(grid: Grid, cutoff: CutoffSpec) -> int:
    """:func:`low_band_mode_count`, which must not be zero (``EmptyLowBand``)."""
    count = low_band_mode_count(grid, cutoff)
    if count == 0:
        raise EmptyLowBand(
            f"no nonzero mode satisfies |xi| <= 2*eps = {2 * cutoff.eps:g} "
            f"(smallest nonzero |xi| is {2 * np.pi / grid.box_len:g})"
        )
    return count


def frequency_band(spectral: SpectralState, cutoff: CutoffSpec, band: str) -> SpectralState:
    """The low part phi * spectral or the high part spectral - phi * spectral, formed alone."""
    _require_full(spectral, "frequency_split")
    grid = spectral.grid
    _require_low_band(grid, cutoff)
    hat = _band_values(spectral.hat, _cutoff_values(cutoff, grid.xi_sq), band, np.empty_like(spectral.hat))
    return SpectralState(grid=grid, hat=hat)


def frequency_split(spectral: SpectralState, cutoff: CutoffSpec) -> tuple[SpectralState, SpectralState]:
    """Split into (low, high) parts; low + high reproduces the input exactly."""
    return frequency_band(spectral, cutoff, "low"), frequency_band(spectral, cutoff, "high")


def multi_indices(dim: int, order: int):
    """All multi-indices of the exact total order."""
    for combo in itertools.combinations_with_replacement(range(dim), order):
        alpha = [0] * dim
        for ax in combo:
            alpha[ax] += 1
        yield tuple(alpha)


@functools.cache
def derivative(grid: Grid, alpha: tuple) -> np.ndarray:
    """(i xi)^alpha as a broadcastable multiplier on the half layout, built once per (grid, alpha).

    Zero on every mode whose Nyquist axes carry an odd total power of alpha
    (the Nyquist rule of the module docstring).  Shared, hence read-only.
    """
    mult = np.ones((1,) * grid.dim, dtype=complex)
    odd = np.zeros((1,) * grid.dim, dtype=bool)
    for x, nyquist, a in zip(grid.wavevectors(half=True), grid.nyquist(), alpha):
        if a:
            mult = mult * (1j * x) ** a
        if a % 2:
            odd = odd ^ nyquist
    out = np.where(odd, 0.0, mult)
    out.flags.writeable = False
    return out


def divergence_form_momentum(m0_tensor: np.ndarray, grid: Grid) -> np.ndarray:
    """m0 = Div M0 computed spectrally on real transforms: j-th component sum_k d_k M0[j,k] (Nyquist rule)."""
    m0_tensor = np.asarray(m0_tensor)
    expected = (grid.dim, grid.dim) + grid.shape
    if m0_tensor.shape != expected:
        raise GridMismatch(f"tensor field has shape {m0_tensor.shape}, expected {expected}")
    grad = [derivative(grid, e) for e in multi_indices(grid.dim, 1)]
    out = np.empty((grid.dim,) + grid.shape)
    for j in range(grid.dim):
        acc = np.zeros(grid.half_shape, dtype=complex)
        for k in range(grid.dim):
            acc += grad[k] * rfftn(m0_tensor[j, k])
        out[j] = irfftn(acc, grid)
    return out


def dealias_mask(grid: Grid) -> np.ndarray:
    """2/3-rule mask on the half layout: keep modes with every axis alias |k'| < n/3."""
    keep = np.abs(grid.axis_aliases()) < grid.n / 3.0
    return functools.reduce(np.logical_and, grid.lay(keep, half=True), np.ones(grid.half_shape, dtype=bool))


def conjugate_symmetry_defect(spectral: SpectralState) -> float:
    """Relative departure from hat(f)(-xi) = conj(hat(f)(xi)).

    A half spectrum stores a mode together with its mirror only inside the
    self-mirror planes, last-axis index 0 and n/2; everywhere else the mirror
    is implied.  So on the half layout exactly those planes are checked.
    """
    grid = spectral.grid
    planes = (Ellipsis, [0, grid.n // 2]) if spectral.half else (Ellipsis,)
    mirror = grid.mirrors(spectral.half)
    mirror = mirror[:-1] + (mirror[-1][planes],)  # a self-mirror plane's last-axis index is its own mirror
    scales = [np.max(np.abs(row)) for row in spectral.hat]
    return max(
        float(np.max(np.abs(row[planes] - np.conj(row[mirror]))) / s) if s else 0.0 for row, s in zip(spectral.hat, scales)
    )
