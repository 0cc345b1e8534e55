"""Closed-form per-mode solution operators of the linearized system.

On each wavevector xi the linearized system

    d/dt theta_hat = -i xi . m_hat
    d/dt m_hat     = -alpha* |xi|^2 m_hat - beta* xi (xi . m_hat)
                     - i kappa* rho* |xi|^2 xi theta_hat

decouples into a pure heat flow on the transverse momentum components and a
2x2 block on (theta_hat, xi.m_hat/|xi|) with eigenvalues

    lambda_pm = -(alpha*+beta*)/2 |xi|^2 +- sqrt(delta*) |xi|^2,
    delta*    = (alpha*+beta*)^2/4 - rho* kappa*.

All propagator entries are combinations of two scalar kernels that are
analytic in delta* through zero:

    P = e^{a t} * C(y),   Q = e^{a t} * G(y),
    a = -(alpha*+beta*)/2 |xi|^2,   y = delta* (|xi|^2 t)^2,
    C(y) = cosh(sqrt(y))        (= cos(sqrt(-y)) for y < 0),
    G(y) = sinh(sqrt(y))/sqrt(y) (= sin(sqrt(-y))/sqrt(-y) for y < 0),

evaluated by a short Taylor series near y = 0.  This realizes the three
regime formulas (real pair / conjugate pair / defective double root) and
their removable singularities in a single cancellation-free code path; the
regime label still switches on delta* for reporting and eigenvalue output.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .model import DEGENERACY_RTOL, FluidParams

_Y_SERIES = 1e-4  # |y| below which the Taylor series is used


class Regime(enum.Enum):
    POSITIVE_REAL = "PositiveReal"
    NEGATIVE_OSCILLATORY = "NegativeOscillatory"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class Discriminant:
    value: float
    regime: Regime


def discriminant(params: FluidParams) -> Discriminant:
    """delta* with its regime label; Degenerate within DEGENERACY_RTOL relative."""
    d = params.delta_star
    scale = (params.alpha_star + params.beta_star) ** 2 / 4.0
    if abs(d) <= DEGENERACY_RTOL * scale:
        regime = Regime.DEGENERATE
    elif d > 0:
        regime = Regime.POSITIVE_REAL
    else:
        regime = Regime.NEGATIVE_OSCILLATORY
    return Discriminant(value=d, regime=regime)


def eigenvalues(params: FluidParams, xi_sq: float) -> tuple[complex, complex]:
    """Eigenvalues (lambda_+, lambda_-) of the longitudinal block at |xi|^2.

    Returns the double root (lambda_0, lambda_0) in the Degenerate regime.
    """
    if xi_sq < 0:
        raise ValueError("xi_sq >= 0 required")
    disc = discriminant(params)
    a = -0.5 * (params.alpha_star + params.beta_star) * xi_sq
    if disc.regime is Regime.DEGENERATE:
        lam0 = complex(a)
        return lam0, lam0
    if disc.value > 0:
        s = np.sqrt(disc.value) * xi_sq
        return complex(a + s), complex(a - s)
    w = np.sqrt(-disc.value) * xi_sq
    return complex(a, w), complex(a, -w)


def _exp_pair(at, y):
    """P = e^at C(y) and Q = e^at G(y), elementwise, stable for all arguments.

    Requires at <= -sqrt(max(y, 0)) elementwise, which holds for every
    admissible parameter set since rho* kappa* > 0 forces delta* below
    (alpha*+beta*)^2/4.
    """
    at = np.asarray(at, dtype=float)
    y = np.asarray(y, dtype=float)
    P = np.empty(at.shape)
    Q = np.empty(at.shape)

    small = np.abs(y) <= _Y_SERIES
    if small.any():
        a = at[small]
        yy = y[small]
        E = np.exp(a)
        P[small] = E * (1.0 + yy * (1.0 / 2.0 + yy * (1.0 / 24.0 + yy / 720.0)))
        Q[small] = E * (1.0 + yy * (1.0 / 6.0 + yy * (1.0 / 120.0 + yy / 5040.0)))

    neg = y < -_Y_SERIES
    if neg.any():
        a = at[neg]
        w = np.sqrt(-y[neg])
        E = np.exp(a)
        P[neg] = E * np.cos(w)
        Q[neg] = E * np.sin(w) / w

    pos = y > _Y_SERIES
    if pos.any():
        w = np.sqrt(y[pos])
        a = at[pos]
        # e^{a+-w} are both <= 1 here; no overflow and no cancellation
        Ep = np.exp(a + w)
        Em = np.exp(a - w)
        P[pos] = 0.5 * (Ep + Em)
        Q[pos] = 0.5 * (Ep - Em) / w

    return P, Q


def propagator_kernels(params: FluidParams, xi_sq, t: float):
    """Scalar multiplier fields of the solution operator at time t.

    Returns (sig_tf, sig_d, sig_mg, heat) where, per mode,

        theta(t) = sig_tf * theta(0) - i sig_d * (xi . m(0))
        m(t)     = heat * m_perp(0) + sig_mg * m_par(0)
                   - i kappa* rho* |xi|^2 sig_d * xi theta(0)

    with m_par the longitudinal projection xi (xi.m)/|xi|^2.  All four are
    real arrays of the shape of xi_sq; at xi = 0 they equal (1, t, 1, 1).

    The kernels are functions of |xi|^2 alone.  The semigroup evaluates them
    on a grid's distinct |xi|^2 values and gathers the result per mode, which
    equals the full-grid evaluation bit for bit, and applies them in the
    block form of :mod:`nsklab.spectral`.
    """
    xi_sq = np.asarray(xi_sq, dtype=float)
    u = xi_sq * t
    at = -0.5 * (params.alpha_star + params.beta_star) * u
    y = params.delta_star * u * u
    P, Q = _exp_pair(at, y)
    sig_tf = P - at * Q
    sig_mg = P + at * Q
    sig_d = t * Q
    heat = np.exp(-params.alpha_star * u)
    return sig_tf, sig_d, sig_mg, heat


def solution_symbol(params: FluidParams, xi, t: float) -> np.ndarray:
    """Solution-operator matrix M(xi, t) with (theta, m)(t) = M (theta, m)(0).

    Complex (N+1) x (N+1) array; row/column 0 is theta, 1..N are momentum.
    At t = 0 and at xi = 0 it is the identity (all removable singularities
    are taken in their limit values).
    """
    if t < 0:
        raise ValueError("t >= 0 required")
    xi = np.asarray(xi, dtype=float)
    dim = xi.shape[0]
    xi_sq = float(xi @ xi)
    M = np.zeros((dim + 1, dim + 1), dtype=complex)
    if xi_sq == 0.0:
        np.fill_diagonal(M, 1.0)
        return M
    sig_tf, sig_d, sig_mg, heat = (float(v) for v in propagator_kernels(params, xi_sq, t))
    proj = np.outer(xi, xi) / xi_sq
    M[0, 0] = sig_tf
    M[0, 1:] = -1j * sig_d * xi
    M[1:, 0] = -1j * params.kappa_star * params.rho_star * xi_sq * sig_d * xi
    M[1:, 1:] = heat * (np.eye(dim) - proj) + sig_mg * proj
    return M


def generator_matrix(params: FluidParams, xi) -> np.ndarray:
    """Generator A(xi) with d/dt (theta_hat, m_hat) = A(xi) (theta_hat, m_hat)."""
    xi = np.asarray(xi, dtype=float)
    dim = xi.shape[0]
    xi_sq = float(xi @ xi)
    A = np.zeros((dim + 1, dim + 1), dtype=complex)
    A[0, 1:] = -1j * xi
    A[1:, 0] = -1j * params.kappa_star * params.rho_star * xi_sq * xi
    A[1:, 1:] = -params.alpha_star * xi_sq * np.eye(dim) - params.beta_star * np.outer(xi, xi)
    return A


_FACT = [1.0]
for _k in range(1, 18):
    _FACT.append(_FACT[-1] * _k)


def _series(z, coeffs):
    acc = np.full_like(z, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def _entire(coeffs, closed, dtype):
    """The entire function closed(z), elementwise on dtype arrays: its Taylor series with coeffs below |z| = 0.5."""

    def f(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=dtype)
        out = np.empty(z.shape, dtype=dtype)
        small = np.abs(z) < 0.5
        if small.any():
            out[small] = _series(z[small], coeffs)
        if (~small).any():
            out[~small] = closed(z[~small])
        return out

    return f


# phi_1(z) = (e^z - 1)/z and phi_2(z) = (e^z - 1 - z)/z^2, and their derivatives on real arguments
_phi1 = _entire([1.0 / _FACT[k + 1] for k in range(14)], lambda z: (np.exp(z) - 1.0) / z, complex)
_phi2 = _entire([1.0 / _FACT[k + 2] for k in range(14)], lambda z: (np.exp(z) - 1.0 - z) / z**2, complex)
_phi1_prime = _entire([(k + 1) / _FACT[k + 2] for k in range(13)], lambda x: ((x - 1.0) * np.exp(x) + 1.0) / x**2, float)
_phi2_prime = _entire([(k + 1) / _FACT[k + 3] for k in range(13)], lambda x: ((x - 2.0) * np.exp(x) + x + 2.0) / x**3, float)


def phi_multiplier_tables(params: FluidParams, xi_sq, h: float) -> dict:
    """Multiplier fields of phi_k(h A) acting on forcing vectors (0, g).

    For each k in {1, 2} returns (D_k, B_k, T_k) realizing

        [phi_k(hA)(0, g)]_theta = -i h D_k (xi . g_hat)
        [phi_k(hA)(0, g)]_m     = T_k g_hat + (B_k - T_k) xi (xi.g_hat)/|xi|^2

    D and B are the divided difference and the symmetric combination of
    phi_k over the longitudinal eigenvalue pair (x+, x-) = (lambda_pm h);
    T is phi_k at the transverse heat eigenvalue.  The coalescing-pair
    limit switches to the derivative form.
    """
    xi_sq = np.asarray(xi_sq, dtype=float)
    u = xi_sq * h
    a = -0.5 * (params.alpha_star + params.beta_star) * u
    w = np.sqrt(complex(params.delta_star)) * u
    xp = a + w
    xm = a - w
    xT = -params.alpha_star * u
    tables = {}
    sep = np.abs(xp - xm)
    # balance the quotient's cancellation (eps/sep) against the skipped
    # w^2 Taylor term of the confluent form; either side stays ~1e-10,
    # orders below the dt^2 scheme error these weights feed
    confluent = sep < 1e-5 * (1.0 + np.abs(a))
    for name, f, fprime in (("phi1", _phi1, _phi1_prime), ("phi2", _phi2, _phi2_prime)):
        fp = f(xp)
        fm = f(xm)
        with np.errstate(invalid="ignore", divide="ignore"):
            diff = np.where(confluent, 1.0, xp - xm)
            D = (fp - fm) / diff
            B = (xp * fp - xm * fm) / diff
        if confluent.any():
            d0 = fprime(a)
            f0 = f(a.astype(complex)).real
            D = np.where(confluent, d0, D)
            B = np.where(confluent, f0 + a * d0, B)
        tables[name] = (D.real.copy(), B.real.copy(), f(xT.astype(complex)).real.copy())
    return tables


def matexp_oracle(params: FluidParams, xi, t: float) -> np.ndarray:
    """Brute-force ground truth exp(t A(xi)) by scaling-and-squaring."""
    from scipy.linalg import expm

    if t < 0:
        raise ValueError("t >= 0 required")
    return expm(t * generator_matrix(params, xi))


def matexp_oracle_ode(params: FluidParams, xi, t: float) -> np.ndarray:
    """Cross-check oracle: adaptive high-order integration of dM/dt = A M (rtol 1e-12, atol 1e-14)."""
    from scipy.integrate import solve_ivp

    if t < 0:
        raise ValueError("t >= 0 required")
    A = generator_matrix(params, xi)
    n = A.shape[0]
    ident = np.eye(n, dtype=complex)
    if t == 0.0:
        return ident
    sol = solve_ivp(
        lambda _s, m: (A @ m.reshape(n, n)).ravel(),
        (0.0, t),
        ident.ravel(),
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
    )
    if not sol.success:
        raise RuntimeError(f"ODE oracle failed: {sol.message}")
    return sol.y[:, -1].reshape(n, n)
