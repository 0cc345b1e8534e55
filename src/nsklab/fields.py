"""Initial-data generators for decay scenarios and nonlinear runs.

Decay-rate verification needs data that actually realizes the sharp
L_q -> L_p operator rate over a finite time window; a single Gaussian decays
at its own (faster) point-mass rate.  Two constructions provide the needed
``~ |xi|^-gamma`` spectral envelopes:

* truncated Matern/Riesz kernels: ``(|x-c|^2 + a^2)^(-(dim-gamma)/2)``
  windowed to a support radius, with the core's exact Bessel-K spectral
  envelope divided out again so the power-law band stays undeformed --
  localized by construction, so the wrap-around trust guards stay honest;
* Gaussian scale mixtures over a dyadic ladder of widths (spectrally
  assembled, used as curl potentials for exactly divergence-free data).

``gamma = dim/2`` is the L_2-critical profile the acceptance scenarios use.
The Riesz pair of the divergence-form ablation is an iterator that forms its
members one at a time, in place: a caller that hands each member on never
holds both.
Every generator centers its data at the box center, the center the
wrap-around trust diagnostics of :mod:`nsklab.analysis` measure from.
Radial real coefficients are conjugate-symmetric; the ``i xi`` factors of
divergence-form and curl data (and the transverse projection) are not on the
Nyquist planes, where a mode is its own mirror: curl_mixture_momentum_state
has defect 7.8e-2 at 64^3, 0.50% of its energy on those planes.  Every
read-out projects that away: a semigroup orbit applies the block to the
mirror of each Nyquist mode as well (``spectral.SemigroupOrbit``), and
``spectral.to_real`` goes through :func:`nsklab.spectral.hermitian_half`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .model import Grid, SpectralState, State, gaussian_bump
from .spectral import _quintic_step, divergence_form_momentum, fftn, irfftn, rfftn


def _center_phase(grid: Grid) -> np.ndarray:
    """Translation multiplier e^{-i xi . c} to the box center c."""
    return np.exp(-1j * sum(xi * (grid.box_len / 2.0) for xi in grid.wavevectors()))


def scale_mixture_hat(grid: Grid, gamma: float, rho_min: float, rho_max: float, amplitude: float = 1.0) -> np.ndarray:
    """Spectral envelope ~ amplitude * |xi|^-gamma realized by a Gaussian scale mixture.

    Returns the real nonnegative radial DFT coefficients
    ``sum_k rho_k^gamma exp(-rho_k^2 |xi|^2 / 2)`` over a ladder of widths
    rho_k in [rho_min, rho_max], two per octave; the zero mode is cleared so
    the field has zero mean.
    """
    if not (0 < rho_min < rho_max):
        raise ValueError("0 < rho_min < rho_max required")
    n_scales = max(2, int(np.ceil(2 * np.log2(rho_max / rho_min))) + 1)
    rhos = np.geomspace(rho_min, rho_max, n_scales)
    xi_sq = grid.xi_sq
    out = np.zeros(grid.shape)
    for rho in rhos:
        out += rho**gamma * np.exp(-0.5 * rho**2 * xi_sq)
    out *= amplitude
    out[(0,) * grid.dim] = 0.0
    return out


def _matern_envelope(z: np.ndarray, nu: float) -> np.ndarray:
    """Normalized UV envelope E(z) = z^nu K_nu(z) / (2^(nu-1) Gamma(nu)), -> 1 as z -> 0, and 1 where z <= 1e-8.

    With s = e^u in the integral of K_nu,

        E(z) = (1/Gamma(nu)) int exp(nu u - e^u - (z^2/4) e^-u) du  over the real line,

    evaluated by the trapezoid rule with step 1/4 on u in [ln(z_min^2/4) - 4, 3.8], z_min the least z > 1e-8.
    Past either end the integrand falls doubly exponentially, and on such an integrand the rule converges
    geometrically in 1/step: for z up to 8 (a Riesz kernel reaches 0.75 pi sqrt(dim)) it is within 1e-13 of
    scipy's ``kv``.  The sum is formed node by node, elementwise, so each value depends on its own z and on z_min
    alone.
    """
    out = np.ones_like(z)
    pos = z > 1e-8
    if not pos.any():
        return out
    quarter_sq = np.square(z[pos]) / 4.0
    acc, term = np.zeros_like(quarter_sq), np.empty_like(quarter_sq)
    for u in np.arange(math.log(quarter_sq.min()) - 4.0, 3.8, 0.25).tolist():
        np.multiply(quarter_sq, math.exp(-u), out=term)
        np.subtract(nu * u - math.exp(u), term, out=term)
        acc += np.exp(term, out=term)
    out[pos] = acc * (0.25 / math.gamma(nu))
    return out


def riesz_kernel_hat(grid: Grid, gamma: float, support_radius: float) -> np.ndarray:
    """DFT of a compactly supported kernel with spectrum ~ |xi|^-gamma.

    Real space: (|x - c|^2 + a^2)^(-(dim-gamma)/2) about the box center c with
    core a = 0.75 h, ramped to zero over the outer 55% of support_radius, so
    the field vanishes identically outside support_radius.  The core
    regularization is a Matern kernel whose exact Bessel-K spectral envelope
    is divided out again, so the |xi|^-gamma band stays undeformed up to where
    the grid resolves it; the envelope division is floored to avoid
    amplifying near-Nyquist content.  The envelope is a function of |xi|^2:
    it is evaluated by quadrature (:func:`_matern_envelope`) once per distinct
    value (``Grid.radial_values``) and looked up 2^15 modes at a time, by the
    binary search that builds ``Grid.radial_index``, in the half layout's
    |xi|^2, so no full-layout |xi|^2, envelope or index is formed.
    The mean mode is cleared.
    """
    if support_radius > grid.box_len / 2.0:
        raise ValueError("support radius exceeds half the box")
    if not (0.0 < gamma < grid.dim):
        raise ValueError("0 < gamma < dim required")
    r_sq = grid.periodic_r_sq()
    a = 0.75 * grid.spacing
    kernel = r_sq + a**2
    kernel **= -(grid.dim - gamma) / 2.0
    ramp = np.sqrt(r_sq)
    ramp -= 0.45 * support_radius
    ramp /= 0.55 * support_radius
    ramp = _quintic_step(ramp)
    np.subtract(1.0, ramp, out=ramp)
    kernel *= ramp
    del ramp
    k_hat = fftn(kernel)
    del kernel
    values = grid.radial_values
    env = np.maximum(_matern_envelope(a * np.sqrt(values), gamma / 2.0), 0.02)
    # a mode's |xi|^2 is the half layout's at last-axis index |alias|, bit for bit: x^2 is even
    rows, fold = grid.half_xi_sq.reshape(-1, grid.n // 2 + 1), np.abs(grid.axis_aliases())
    flat, step = k_hat.reshape(-1, grid.n), max(1, (1 << 15) // grid.n)
    for lo in range(0, len(flat), step):
        flat[lo : lo + step] /= env[np.searchsorted(values, rows[lo : lo + step][:, fold])]
    k_hat[(0,) * grid.dim] = 0.0
    return k_hat


def riesz_momentum_pair(grid: Grid, gamma: float, support_radius: float, *, rng: np.random.Generator, amplitude: float = 1.0) -> Iterator[SpectralState]:
    """Localized momentum pair for the divergence-form ablation, one member at a time.

    Returns an iterator over two members, in this order: the divergence-form
    member m = Div(T * kernel), with T a seeded constant symmetric tensor,
    then the generic member m = d * kernel, with d a seeded unit vector.
    Both share the same scalar kernel (spectrum ~ |xi|^-gamma, support within
    support_radius), and the generic member is scaled to the total spectral
    energy of the divergence member.

    The kernel and the rng draws are made at the call; each member is formed
    only when it is asked for.  Between the two members the iterator holds
    the kernel, T, d and the divergence member's energy, and no reference to
    the member it has yielded: a caller that hands the divergence member on
    frees it before the generic one is formed.  Once the generic member is
    formed, the iterator drops the kernel too.
    """
    k_hat = riesz_kernel_hat(grid, gamma, support_radius)
    k_hat *= amplitude
    T = seeded_symmetric_tensor(grid.dim, rng)
    d = rng.standard_normal(grid.dim)
    d /= np.linalg.norm(d)
    return _riesz_members(grid, k_hat, T, d)


def _riesz_members(grid: Grid, k_hat: np.ndarray, T: np.ndarray, d: np.ndarray) -> Iterator[SpectralState]:
    # each member leaves through a one-slot list, so no local of this frame holds it across its yield
    xis = grid.wavevectors()
    slot = [np.zeros((grid.dim + 1,) + grid.shape, dtype=complex)]
    row = np.empty(grid.shape, dtype=complex)
    for j in range(grid.dim):
        for k in range(grid.dim):
            np.multiply(T[j, k], k_hat, out=row)
            np.multiply(1j * xis[k], row, out=row)
            slot[0][1 + j] += row
    del row
    e_div = _momentum_energy(slot[0])
    yield SpectralState(grid=grid, hat=slot.pop())
    slot.append(np.zeros((grid.dim + 1,) + grid.shape, dtype=complex))
    for j in range(grid.dim):
        np.multiply(d[j], k_hat, out=slot[0][1 + j])
    del k_hat
    e_gen = _momentum_energy(slot[0])
    if e_gen > 0:
        slot[0][1:] *= e_div / e_gen
    yield SpectralState(grid=grid, hat=slot.pop())


def _momentum_energy(hat: np.ndarray) -> float:
    """sqrt(sum |m_hat|^2), summed over one (dim, *shape) buffer so the sum's order is fixed."""
    sq = np.abs(hat[1:])
    sq **= 2
    return np.sqrt(np.sum(sq))


def seeded_symmetric_tensor(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random symmetric constant tensor with unit Frobenius norm."""
    T = rng.standard_normal((dim, dim))
    T = 0.5 * (T + T.T)
    return T / np.linalg.norm(T)



def curl_mixture_momentum_state(grid: Grid, gamma_potential: float, rho_min: float, rho_max: float, *, amplitude: float = 1.0) -> SpectralState:
    """Divergence-free momentum from the curl of a Gaussian scale-mixture potential.

    |m_hat| ~ |xi|^(1 - gamma_potential) over the mixture band, assembled
    entirely in spectral space (no sampling aliasing); real-space mass stays
    within ~3.2 * rho_max of the box center.  In dim 3 the potential is the
    scalar profile times the fixed direction (0.36, 0.48, 0.8).  theta is
    identically zero under the linear flow of this data.
    """
    if grid.dim not in (2, 3):
        raise ValueError("curl construction implemented for dim 2 and 3")
    a_hat_prof = scale_mixture_hat(grid, gamma_potential, rho_min, rho_max, amplitude)
    a_hat_prof = a_hat_prof * _center_phase(grid)
    xis = grid.wavevectors()
    hat = np.zeros((grid.dim + 1,) + grid.shape, dtype=complex)
    if grid.dim == 2:
        hat[1] = 1j * xis[1] * a_hat_prof
        hat[2] = -1j * xis[0] * a_hat_prof
    else:
        d = np.array([0.36, 0.48, 0.8])
        d /= np.linalg.norm(d)
        hat[1] = 1j * (xis[1] * d[2] - xis[2] * d[1]) * a_hat_prof
        hat[2] = 1j * (xis[2] * d[0] - xis[0] * d[2]) * a_hat_prof
        hat[3] = 1j * (xis[0] * d[1] - xis[1] * d[0]) * a_hat_prof
    return SpectralState(grid=grid, hat=hat)


def transverse_packet(grid: Grid, width: float, *, amplitude: float = 1.0) -> SpectralState:
    """Divergence-free momentum packet for the heat-block anchor.

    m_hat(xi) = amplitude * (I - xi xi^T/|xi|^2) e_0 * exp(-width^2 |xi|^2 / 2),
    centered at the box center and zero at the mean mode.  The transverse
    projection makes the linear flow of this data an exact scalar heat
    semigroup.
    """
    if grid.dim < 2:
        raise ValueError("transverse data needs dim >= 2")
    xi_sq = grid.xi_sq
    prof = amplitude * np.exp(-0.5 * width**2 * xi_sq)
    xis = grid.wavevectors()
    phase = _center_phase(grid)
    safe = np.where(xi_sq > 0.0, xi_sq, 1.0)
    hat = np.zeros((grid.dim + 1,) + grid.shape, dtype=complex)
    for j in range(grid.dim):
        comp = prof * (float(j == 0) - xis[j] * xis[0] / safe)
        comp[(0,) * grid.dim] = 0.0
        hat[1 + j] = comp * phase
    return SpectralState(grid=grid, hat=hat)


def smooth_random_field(grid: Grid, rng: np.random.Generator, smooth_width: float) -> np.ndarray:
    """Unit-scale smooth random field: white noise mollified by a spectral Gaussian."""
    noise = rng.standard_normal(grid.shape)
    filt = np.exp(-0.5 * smooth_width**2 * grid.half_xi_sq)
    out = irfftn(filt * rfftn(noise), grid)
    peak = np.max(np.abs(out))
    return out / peak if peak > 0 else out


def enveloped_random_tensor(grid: Grid, rng: np.random.Generator, *, envelope_width: float, smooth_width: float, amplitude: float) -> np.ndarray:
    """Random smooth symmetric tensor field under a Gaussian envelope at the box center (nonlinear M0 data)."""
    env = gaussian_bump(grid, np.full(grid.dim, grid.box_len / 2.0), envelope_width, 1.0)
    M0 = np.empty((grid.dim, grid.dim) + grid.shape)
    for j in range(grid.dim):
        for k in range(j, grid.dim):
            comp = amplitude * env * smooth_random_field(grid, rng, smooth_width)
            M0[j, k] = comp
            M0[k, j] = comp
    return M0


def nonlinear_initial_state(grid: Grid, *, theta_amplitude: float, theta_width: float, m_amplitude: float, m_envelope_width: float, m_smooth_width: float, rng: np.random.Generator) -> tuple[State, np.ndarray]:
    """Initial (theta, m) with m = Div M0, both centered at the box center; returns the state and M0."""
    fields = np.empty((grid.dim + 1,) + grid.shape)
    fields[0] = gaussian_bump(grid, np.full(grid.dim, grid.box_len / 2.0), theta_width, theta_amplitude)
    M0 = enveloped_random_tensor(
        grid,
        rng,
        envelope_width=m_envelope_width,
        smooth_width=m_smooth_width,
        amplitude=m_amplitude,
    )
    fields[1:] = divergence_form_momentum(M0, grid)
    return State(grid=grid, fields=fields), M0


