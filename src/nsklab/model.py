"""Physical parameters, pressure laws, grid geometry and field containers.

Conventions used throughout the toolkit:

* the periodic box is ``[0, L)^dim`` with ``n`` points per axis,
  so the grid spacing is ``h = L/n``;
* the wavevector of index ``k`` along one axis is ``(2*pi/L) * k'`` where
  ``k'`` is the signed alias of ``k`` in ``[-n/2, n/2)``;
* spectral coefficients are raw unnormalized DFT values (forward transform
  carries no scale, the inverse carries ``1/n^dim``); all norms carry
  explicit quadrature weights so that Parseval holds exactly on the grid;
* the real fields and the spectrum of a state (theta, m) are each one stack
  of ``dim + 1`` rows, theta in row 0 and m_j in row 1 + j, the order of the
  solution symbol's (N+1)x(N+1) block;
* each row is stored in one of two layouts: full (``shape``, every mode)
  or half (``half_shape``, the rfftn layout of a real field: last-axis
  indices ``0 .. n/2``, the other half implied by conjugate symmetry).  Each
  half-layout table is its full one with the last axis cut to ``n/2 + 1``,
  so the last-axis Nyquist index keeps fftfreq's ``-n/2``;
* every per-axis lookup on the modes (the wavevectors, the mirror ``-k mod n``,
  the Nyquist index ``n/2``, the embedding of a coarser grid of the box) is
  one table laid by :meth:`Grid.lay`, and is built only here; the Nyquist
  table and the radial index exist on the half layout alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConstraintViolation, CriticalityViolation, GridMismatch, NumericsWarning, RangeViolation

CRITICALITY_RTOL = 1e-12
DEGENERACY_RTOL = 1e-9


@dataclass(frozen=True)
class PressureLaw:
    """A pressure law given as the pair (P, P') on a validity interval.

    The callables must accept and return numpy arrays (or floats).  When the
    law is attached to parameters, P' is checked against centered finite
    differences of ``evaluate`` (an inconsistent pair is rejected), and the
    curvature P''(rho*) that scales the criticality tolerance is measured from P'.
    """

    evaluate: Callable
    d1: Callable
    validity: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.validity
        if not (0.0 < lo < hi):
            raise ConstraintViolation("pressure validity interval requires 0 < rho_min < rho_max")

    def check_density(self, rho):
        """Raise ValidityExceeded if any density leaves the validity interval."""
        from .errors import ValidityExceeded

        lo, hi = self.validity
        rmin = float(np.min(rho))
        rmax = float(np.max(rho))
        if rmin < lo or rmax > hi:
            raise ValidityExceeded(
                f"density range [{rmin:.6g}, {rmax:.6g}] leaves pressure validity "
                f"interval ({lo:.6g}, {hi:.6g})"
            )


def critical_quadratic(k: float, rho_star: float, validity=None) -> PressureLaw:
    """Built-in family P(rho) = k * (rho - rho_star)^2, critical at rho_star exactly."""
    if validity is None:
        validity = (rho_star / 10.0, 10.0 * rho_star)
    return PressureLaw(
        evaluate=lambda rho: k * (rho - rho_star) ** 2,
        d1=lambda rho: 2.0 * k * (rho - rho_star),
        validity=validity,
    )


def _check_derivative_consistency(pressure: PressureLaw, rho_star: float) -> float:
    """Gate: d1 must agree with centered differences of evaluate to O(h^2), h = 1e-4 of the validity span; returns
    the curvature P''(rho_star), measured as the centered difference of d1 at rho_star with the same h.

    Compares errors at h and h/2: a consistent derivative shrinks by ~4x
    (or sits at rounding level); an inconsistent one stalls at its offset.
    """
    lo, hi = pressure.validity
    span = hi - lo
    h = 1e-4 * span
    pts = lo + span * np.array([0.15, 0.35, 0.5, 0.65, 0.85])
    if lo < rho_star < hi:
        pts = np.append(pts, rho_star)
    scale = max(1.0, float(np.max(np.abs(pressure.evaluate(pts)))))
    for rho in pts:
        if not (lo + 2 * h < rho < hi - 2 * h):
            continue
        claimed = float(pressure.d1(rho))
        e1 = abs(claimed - (float(pressure.evaluate(rho + h)) - float(pressure.evaluate(rho - h))) / (2 * h))
        e2 = abs(claimed - (float(pressure.evaluate(rho + h / 2)) - float(pressure.evaluate(rho - h / 2))) / h)
        if e2 > max(0.5 * e1, 1e-7 * scale / span + 1e-10 * abs(claimed)):
            raise ConstraintViolation(
                f"pressure law P' disagrees with finite differences of P at rho={rho:.6g} (err {e2:.3g} at h={h / 2:.3g})"
            )
    return (float(pressure.d1(rho_star + h)) - float(pressure.d1(rho_star - h))) / (2 * h)


@dataclass(frozen=True)
class FluidParams:
    """Validated fluid constants with derived per-density coefficients cached.

    mu_star, nu_star are the viscosities, kappa_star the capillarity and
    rho_star the reference density; alpha_star = mu*/rho*, beta_star =
    nu*/rho* and delta_star = (alpha*+beta*)^2/4 - rho* kappa* are derived.
    The pressure law is critical: |P'(rho*)| <= CRITICALITY_RTOL max(1, |P''(rho*)|), P'' measured from P'.
    Construct through :func:`make_params`.
    """

    mu_star: float
    nu_star: float
    kappa_star: float
    rho_star: float
    pressure: PressureLaw
    alpha_star: float = field(init=False)
    beta_star: float = field(init=False)
    delta_star: float = field(init=False)

    def __post_init__(self):
        if not (self.mu_star > 0.0):
            raise ConstraintViolation("mu_star > 0")
        if not (self.mu_star + self.nu_star > 0.0):
            raise ConstraintViolation("mu_star + nu_star > 0")
        if not (self.kappa_star > 0.0):
            raise ConstraintViolation("kappa_star > 0")
        if not (self.rho_star > 0.0):
            raise ConstraintViolation("rho_star > 0")
        curvature = _check_derivative_consistency(self.pressure, self.rho_star)
        p1 = float(self.pressure.d1(self.rho_star))
        if abs(p1) > CRITICALITY_RTOL * max(1.0, abs(curvature)):
            raise CriticalityViolation(
                f"P'(rho_star) = {p1:.6g} is not zero (tolerance "
                f"{CRITICALITY_RTOL:g} * max(1, |P''(rho_star)|), P''(rho_star) measured as {curvature:.6g})"
            )
        alpha = self.mu_star / self.rho_star
        beta = self.nu_star / self.rho_star
        if not (np.isfinite(alpha) and np.isfinite(beta)):
            raise ConstraintViolation("alpha_star, beta_star must be finite")
        object.__setattr__(self, "alpha_star", alpha)
        object.__setattr__(self, "beta_star", beta)
        object.__setattr__(self, "delta_star", (alpha + beta) ** 2 / 4.0 - self.rho_star * self.kappa_star)


def make_params(mu, nu, kappa, rho_ref, pressure: PressureLaw) -> FluidParams:
    """Validate the constants and return FluidParams with derived values cached."""
    return FluidParams(
        mu_star=float(mu),
        nu_star=float(nu),
        kappa_star=float(kappa),
        rho_star=float(rho_ref),
        pressure=pressure,
    )


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, L)^dim with n (a power of two) points per axis; the fields are in the key
    order of a config's ``grid`` block, which a manifest keeps."""

    dim: int
    n: int
    box_len: float

    def __post_init__(self):
        if not (1 <= self.dim <= 4):
            raise ConstraintViolation("1 <= dim <= 4")
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise ConstraintViolation("n must be a power of two >= 2")
        if not (self.box_len > 0.0):
            raise ConstraintViolation("box_len > 0")

    @property
    def spacing(self) -> float:
        return self.box_len / self.n

    @cached_property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @cached_property
    def half_shape(self) -> tuple:
        """Shape of a half-layout spectrum: the last axis keeps indices 0 .. n/2."""
        return self.shape[:-1] + (self.n // 2 + 1,)

    @property
    def mode_count(self) -> int:
        return self.n**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def xi_max(self) -> float:
        """Largest resolved |xi| along one axis (the Nyquist magnitude pi*n/L)."""
        return np.pi * self.n / self.box_len

    def axis_coords(self) -> np.ndarray:
        return np.arange(self.n) * self.spacing

    def mesh(self) -> tuple:
        """Real-space coordinate arrays, open-meshgrid (broadcastable)."""
        return self.lay(self.axis_coords(), half=False)

    def axis_aliases(self) -> np.ndarray:
        """Signed integer aliases k' in [-n/2, n/2) in DFT storage order."""
        return (np.arange(self.n, dtype=np.int64) + self.n // 2) % self.n - self.n // 2

    def lay(self, table, half: bool) -> tuple:
        """A per-axis ``table`` (entry k for index k of an axis) laid along every axis: one array per axis, shaped to
        broadcast against the others to the full layout or, with ``half``, to the half layout (last axis 0 .. n/2)."""
        laid = tuple(np.reshape(table, (1,) * ax + (self.n,) + (1,) * (self.dim - 1 - ax)) for ax in range(self.dim))
        return laid[:-1] + (laid[-1][..., : self.n // 2 + 1],) if half else laid

    def wavevectors(self, half: bool = False) -> tuple:
        """Per-axis wavevector arrays, broadcastable to the full (or half) spectral shape (shared, read-only)."""
        return self.lay(self._axis_wavenumbers, half)

    def mirrors(self, half: bool) -> tuple:
        """Per axis, the full-layout index -k mod n of the mirror -xi of each mode of the layout."""
        return self.lay(_read_only(-np.arange(self.n) % self.n), half)

    def nyquist(self) -> tuple:
        """Per axis, whether each half-layout mode lies on the Nyquist index n/2 of the axis, its own mirror there."""
        return self.lay(_read_only(np.arange(self.n) == self.n // 2), half=True)

    def embedding(self, fine: Grid, half: bool) -> tuple:
        """Per axis, the full-layout index on ``fine``, a grid of the same box, of the alias of each mode of the layout."""
        return self.lay(_read_only(self.axis_aliases() % fine.n), half)

    @cached_property
    def _axis_wavenumbers(self) -> np.ndarray:
        return _read_only((2.0 * np.pi / self.box_len) * self.axis_aliases().astype(float))

    @property
    def xi_sq(self) -> np.ndarray:
        """|xi|^2 on the full spectral grid, formed on request: the grid keeps only :attr:`half_xi_sq`."""
        return self._summed_squares(half=False)

    def _summed_squares(self, half: bool) -> np.ndarray:
        out = np.zeros(self.half_shape if half else self.shape)
        for x in self.wavevectors(half):
            out = out + x**2
        return out

    @cached_property
    def radial_values(self) -> np.ndarray:
        """The distinct |xi|^2 of the grid, ascending (shared, read-only).

        They are taken from the half layout alone: |xi|^2 is even bit for bit
        and the mirror -xi of every mode lies on the half layout, so both
        layouts hold the same set of values.  They are deduplicated by a sort
        and a neighbour compare, as np.unique does, without its numpy.ma import.
        """
        values = np.sort(self.half_xi_sq, axis=None)
        return _read_only(values[np.concatenate(([True], values[1:] != values[:-1]))])

    @cached_property
    def half_xi_sq(self) -> np.ndarray:
        """:attr:`xi_sq` on the half layout (shared, read-only), summed from the half-layout wavevectors in the same
        order, so it is the full table cut to n/2 + 1 bit for bit."""
        return _read_only(self._summed_squares(half=True))

    @cached_property
    def radial_index(self) -> np.ndarray:
        """The int32 position in :attr:`radial_values` of each half-layout mode's |xi|^2.

        ``radial_values[index]`` reproduces :attr:`half_xi_sq` exactly, so a
        function of |xi|^2 evaluated on the values and gathered through the
        index equals its per-mode evaluation.  It is built on first request,
        by binary search in the values, with no sort of the layout; it is
        shared, hence read-only.
        """
        return _read_only(np.searchsorted(self.radial_values, self.half_xi_sq).astype(np.int32))

    def periodic_r_sq(self, center=None) -> np.ndarray:
        """Squared minimum-image distance to center (default: the box center), formed on request."""
        center = np.full(self.dim, self.box_len / 2.0) if center is None else np.asarray(center, dtype=float)
        r_sq = np.zeros(self.shape)
        for ax, x in enumerate(self.mesh()):
            d = np.abs(x - center[ax])
            d = np.minimum(d, self.box_len - d)
            r_sq = r_sq + d**2
        return r_sq


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _checked_stack(grid: Grid, arr, name: str, layout: tuple, dtype) -> np.ndarray:
    """``arr`` as a ``(dim + 1, *layout)`` stack of ``dtype``; GridMismatch on another shape, ConstraintViolation on a non-finite entry."""
    arr = np.asarray(arr)
    shape = (grid.dim + 1,) + layout
    if arr.shape != shape:
        raise GridMismatch(f"{name} has shape {arr.shape}, expected {shape}")
    arr = arr.astype(dtype, copy=False)
    if not np.all(np.isfinite(arr)):
        raise ConstraintViolation(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class State:
    """Real-space fields: one ``(dim + 1, *grid.shape)`` stack, density perturbation theta in row 0 and momentum
    m_j in row 1 + j (the rows of :attr:`SpectralState.hat`), which ``theta`` and ``m`` return as views."""

    grid: Grid
    fields: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "fields", _checked_stack(self.grid, self.fields, "fields", self.grid.shape, float))

    @property
    def theta(self) -> np.ndarray:
        return self.fields[0]

    @property
    def m(self) -> np.ndarray:
        return self.fields[1:]

    def is_admissible(self, params: FluidParams) -> bool:
        """Whether :meth:`check_range` passes."""
        try:
            self.check_range(params)
        except RangeViolation:
            return False
        return True

    def check_range(self, params: FluidParams) -> None:
        """Raise RangeViolation, with the density range, unless rho*/4 <= rho* + theta <= 4 rho* at every point."""
        lo, hi = params.rho_star + self.theta.min(), params.rho_star + self.theta.max()
        if not (lo >= params.rho_star / 4.0 and hi <= 4.0 * params.rho_star):
            raise RangeViolation(
                f"density range [{lo:.6g}, {hi:.6g}] outside [{params.rho_star / 4.0:.6g}, {4.0 * params.rho_star:.6g}]"
            )


@dataclass(frozen=True)
class SpectralState:
    """Complex DFT coefficients of (theta, m); the representation the semigroup acts on.

    ``hat`` is one stack of shape ``(dim + 1, *layout)``: theta_hat in row 0
    and m_hat_j in row 1 + j, which the properties ``theta_hat`` and ``m_hat``
    return as views.  ``half`` marks the half (rfftn) layout of
    :attr:`Grid.half_shape`; the full layout is :attr:`Grid.shape`.
    """

    grid: Grid
    hat: np.ndarray
    half: bool = False

    def __post_init__(self):
        layout = self.grid.half_shape if self.half else self.grid.shape
        object.__setattr__(self, "hat", _checked_stack(self.grid, self.hat, "hat", layout, complex))

    @property
    def theta_hat(self) -> np.ndarray:
        return self.hat[0]

    @property
    def m_hat(self) -> np.ndarray:
        return self.hat[1:]


def gaussian_bump(grid: Grid, center, width: float, amplitude: float) -> np.ndarray:
    """amplitude * exp(-|x - center|^2 / (2 width^2)), sampled periodically.

    The periodic distance uses the minimum image per axis, so the value at
    the center is exactly ``amplitude``.
    """
    if width <= 0:
        raise ConstraintViolation("width > 0")
    if width < 2.0 * grid.spacing:
        warnings.warn(
            f"gaussian width {width:g} is under 2 grid spacings ({grid.spacing:g}); "
            "the bump is marginally resolved",
            NumericsWarning,
            stacklevel=2,
        )
    if width > grid.box_len / 4.0:
        warnings.warn(
            f"gaussian width {width:g} exceeds a quarter of the box ({grid.box_len:g}); "
            "periodic images overlap",
            NumericsWarning,
            stacklevel=2,
        )
    center = np.asarray(center, dtype=float)
    if center.shape != (grid.dim,):
        raise GridMismatch(f"center has shape {center.shape}, expected ({grid.dim},)")
    return amplitude * np.exp(-grid.periodic_r_sq(center) / (2.0 * width**2))
