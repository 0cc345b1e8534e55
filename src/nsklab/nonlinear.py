"""Time integration of the momentum-form nonlinear system.

The linear part A is propagated exactly by the Fourier-multiplier semigroup
S(h) = exp(hA); the divergence-form nonlinearity g(theta, m) = -Div H(theta, m)
enters through the Duhamel integral, approximated by ETDRK2 with phi-weights
(Cox & Matthews 2002), with N(U) = (0, g(U)):

    a       = S(h) U_n + h phi_1(hA) N(U_n)
    U_{n+1} = a + h phi_2(hA) (N(a) - N(U_n))

The phi weights integrate the stiff linear part exactly, so the scheme is
second order uniformly in the stiffness.  Every pointwise product in H is
truncated by the 2/3 rule, including the rational factor 1/(rho* + theta);
the zero mode of g vanishes identically (pure divergence), so the means of
theta and m are conserved bit for bit.

Layout: every field of the solver is real, so every spectrum here is a half
spectrum (the rfftn layout, last axis n/2 + 1; see :mod:`nsklab.model`):
the StepState's spectral state, g-hat, the dealias mask and the cached
S(h) and h phi_k(hA) blocks.  U is one stack of dim + 1 rows, theta in row 0
and m_j in row 1 + j, as a half spectrum and as real fields; each stage adds
the image stack of (0, g) to the image stack of U_n, and is validated once.
Every transform is ``spectral.rfftn``/``spectral.irfftn``; none is complex.

Nyquist rule: every odd factor i xi_k (the divergence, grad rho, grad div v,
the derivatives and time derivatives of a sample) is zero on the Nyquist
index of axis k.  There a mode is its own mirror, and a half spectrum's
implied mirror would otherwise carry the wrong sign; with the rule every
derivative equals ``.real`` of the full complex round trip to rounding.
Every multiplier (i xi)^alpha is the shared table ``spectral.derivative``.
The S(h) and phi blocks are the linear toolkit's block formula, bit for bit
per stored mode.

g is built as a vector; H is never formed.  The pointwise products of one
symmetric pair j <= k of H are summed in real space and transformed once;
only the real fields a later product needs (the dealiased 1/rho - 1/rho*,
the dealiased m_j m_k and grad rho) are transformed back.  The divergences
of those pairs, of the viscous part and of the Lap(rho^2) part are
multipliers.  Transform budget in dim N, with P = N(N+1)/2 symmetric pairs:

* one g: 2 + N + 2P forward and 1 + N + P inverse transforms, 27 in dim 3;
* one step: one g and 2(N+1) inverse transforms (35 in dim 3) when a sample
  of U_n has cached g(U_n) on the StepState, else a second g;
* one sample: one g, cached for the next step, and the inverse transforms of
  the partials in the W^{3,2} norms and of g; the time derivatives are sums
  of those partials (49 in dim 3, 76 with the g).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .analysis import _AGGREGATE_KEYS, NormSeries, aggregate_N, lp_norms
from .errors import ConstraintViolation, NumericsWarning, RangeViolation, StepRejected
from .model import FluidParams, Grid, SpectralState, State
from .scenario import NonlinearExponentsBlock, NonlinearInitBlock
from .spectral import (
    Block,
    dealias_mask,
    derivative,
    irfftn,
    multi_indices,
    radial_gather,
    rfftn,
    semigroup_block,
    to_real,
    to_spectral,
)
from .symbols import phi_multiplier_tables

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
GL_TAU = 0.5 * (GL_NODES + 1.0)
GL_W = 0.5 * GL_WEIGHTS


def pressure_remainder(theta: np.ndarray, params: FluidParams) -> np.ndarray:
    """Taylor-remainder pressure term: (int_0^1 P''(rho* + tau theta)(1-tau) dtau) theta^2.

    Pointwise 8-node Gauss-Legendre quadrature in tau; exact for pressure
    laws polynomial up to degree 17.
    """
    params.pressure.check_density(params.rho_star + theta)
    acc = np.zeros_like(theta)
    for tau, w in zip(GL_TAU, GL_W):
        acc += w * (1.0 - tau) * params.pressure.d2(params.rho_star + tau * theta)
    return acc * theta**2


def nonlinearity_g_hat(st: StepState, params: FluidParams, mask: np.ndarray) -> np.ndarray:
    """Half spectra of the components of g = -Div H, built without forming H.

    H = (1/(rho*+theta) - 1/rho*) m x m + (1/rho*) m x m
        - S(v) - K(theta) + pressure_remainder I,   v = (1/(rho*+theta) - 1/rho*) m,
    with 2/3-rule truncation after every product, where
    S(v) = mu* (grad v + grad v^T) + (nu* - mu*) div v I and
    K(rho) = kappa*/2 (Lap(rho^2) - |grad rho|^2) I - kappa* grad rho x grad rho.
    mask, here and below, is the dealias mask (``dealias_mask(grid)``).
    The pointwise products of each symmetric pair j <= k are summed in real
    space and transformed once into h, which enters g_j as -d_k h and g_k
    as -d_j h, with d_k = i xi_k from ``spectral.derivative``.  The mm_jk
    read back is band-limited, so its 1/rho* part folds into h; grad rho
    comes from the state's theta_hat.  S(v) enters as
    Div S(v) = mu* Lap v + nu* grad div v, and -kappa*/2 Lap(rho^2) I as its
    gradient.  The zero mode of g vanishes identically.
    """
    state, grid = st.real, st.real.grid
    dim = grid.dim
    state.check_range(params)
    rho = params.rho_star + state.theta
    recip = irfftn(mask * rfftn(1.0 / rho - 1.0 / params.rho_star), grid)
    d = [derivative(grid, e) for e in multi_indices(dim, 1)]
    # v_hat is dealiased, so zero on every Nyquist index: -xi_sq is its Laplacian
    xi_sq = grid.xi_sq_of(half=True)
    v_hat = [mask * rfftn(recip * state.m[j]) for j in range(dim)]
    div_v = sum(d[j] * v_hat[j] for j in range(dim))
    lap_part = 0.5 * params.kappa_star * xi_sq * (mask * rfftn(state.theta * state.theta))
    grad_part = params.nu_star * div_v - lap_part
    g = np.stack([d[j] * grad_part - params.mu_star * xi_sq * v_hat[j] for j in range(dim)])

    weight = recip + 1.0 / params.rho_star
    grad_rho = [irfftn(d[j] * st.spectral.theta_hat, grid) for j in range(dim)]
    iso = pressure_remainder(state.theta, params)
    for j in range(dim):
        iso += 0.5 * params.kappa_star * grad_rho[j] * grad_rho[j]
    for j in range(dim):
        for k in range(j, dim):
            mm = irfftn(mask * rfftn(state.m[j] * state.m[k]), grid)
            prod = weight * mm + params.kappa_star * grad_rho[j] * grad_rho[k]
            if j == k:
                prod += iso
            h = mask * rfftn(prod)
            g[j] -= d[k] * h
            if k != j:
                g[k] -= d[j] * h
    return g


@dataclass
class StepState:
    """Solver state carrying spectral (half-layout) and real representations together.

    ``g_hat`` caches nonlinearity_g_hat of the state under the run's params and
    dealias mask: a sample fills it and the next step reuses it as g(U_n).
    """

    spectral: SpectralState
    real: State
    t: float
    g_hat: np.ndarray | None = None

    @classmethod
    def from_state(cls, state: State):
        return cls(spectral=to_spectral(state), real=state, t=0.0)


class Etd2Stepper:
    """Exponential time differencing Runge-Kutta order 2 with cached multipliers.

    One step of size h:

        a       = S(h) U_n + h phi_1(hA) N(U_n)
        U_{n+1} = a + h phi_2(hA) (N(a) - N(U_n))

    S(h) and the h phi_k(hA) weights are precomputed once per (params, grid,
    h) as half-layout blocks (:class:`nsklab.spectral.Block`); the phi weights integrate
    the stiff linear part exactly, so the third-order capillary term costs no
    step-size restriction and the scheme holds second order uniformly in the
    stiffness.  The sample norms' multipliers (every alpha of order 1 to 3) enter
    the shared :func:`nsklab.spectral.derivative` table with the blocks.
    """

    def __init__(self, params: FluidParams, grid: Grid, dt: float):
        if dt <= 0:
            raise ValueError("dt > 0 required")
        self.params = params
        self.grid = grid
        self.dt = dt
        self.mask = dealias_mask(grid)
        self._exp = semigroup_block(params, grid, dt, half=True)
        for order in (1, 2, 3):
            for alpha in multi_indices(grid.dim, order):
                derivative(grid, alpha)
        values = grid.radial_values
        tabs = phi_multiplier_tables(params, values, dt)
        # h phi_k(hA) on (0, g) in block form: d = h^2 D |xi|^2, lg = h (B - T), heat = h T
        phi = []
        for D, B, T in (tabs["phi1"], tabs["phi2"]):
            d, lg, heat = radial_gather(grid, (dt * dt * D * values, dt * (B - T), dt * T), half=True, out=None)
            phi.append(Block(d=d, lg=lg, heat=heat, half=True))
        self._phi1, self._phi2 = phi

    def _finite(self, hat: np.ndarray, t: float, what: str) -> StepState:
        """The StepState of a half-layout stack; non-finite entries reject the step."""
        try:
            spec = SpectralState(grid=self.grid, hat=hat, half=True)
            return StepState(spectral=spec, real=to_real(spec), t=t)
        except ConstraintViolation as exc:
            raise StepRejected(f"{what} at t={t:.6g} is not finite: {exc}", t=t) from exc

    def step(self, state: StepState, nonlinear: bool = True) -> StepState:
        t = state.t + self.dt
        base = self._exp.image(state.spectral.theta_hat, state.spectral.m_hat, self.grid)
        if not nonlinear:
            return self._finite(base, t, "state")

        g0_hat = state.g_hat
        if g0_hat is None:
            g0_hat = nonlinearity_g_hat(state, self.params, self.mask)
        stage = self._finite(base + self._phi1.image(None, g0_hat, self.grid), t, "stage")
        try:
            gp_hat = nonlinearity_g_hat(stage, self.params, self.mask)
        except RangeViolation as exc:
            raise StepRejected(f"stage inadmissible at t={t:.6g}: {exc}", t=t) from exc

        nxt = self._finite(stage.spectral.hat + self._phi2.image(None, gp_hat - g0_hat, self.grid), t, "state")
        try:
            nxt.real.check_range(self.params)
        except RangeViolation as exc:
            raise StepRejected(f"state inadmissible at t={t:.6g}: {exc}", t=t) from exc
        return nxt


@dataclass(frozen=True)
class NonlinearScenario:
    """Nonlinear run configuration with the exponent bookkeeping of the theory.

    The exponents and initial-data widths are the config's blocks, defaults
    included.  Violated exponent constraints produce 'outside theorem scope'
    warnings, never errors: the solver integrates any admissible data.
    """

    params: FluidParams
    grid: Grid
    amplitude: float
    t_end: float
    dt: float
    seed: int
    exponents: NonlinearExponentsBlock = NonlinearExponentsBlock()
    init: NonlinearInitBlock = NonlinearInitBlock()
    sample_every: int = 1
    nonlinear: bool = True

    def __post_init__(self):
        steps = self.t_end / self.dt if self.dt > 0 else 0.0
        if not (steps > 0.5 and abs(steps - np.rint(steps)) <= 1e-9):
            raise ConstraintViolation(f"t_end={self.t_end} and dt={self.dt} do not make a positive whole number of steps")
        if not self.sample_every >= 1:
            raise ConstraintViolation(f"sample_every = {self.sample_every} < 1")

    def scope_warnings(self) -> list:
        out = []
        e = self.exponents
        n, p, q1, q2, tau = self.grid.dim, e.p, e.q1, e.q2, e.tau
        if not (3 <= n <= 7):
            out.append(f"dimension N={n} outside theorem scope 3 <= N <= 7")
        if not (2.0 < p < np.inf):
            out.append(f"p={p} violates 2 < p < inf")
        if not (q1 < n < q2):
            out.append(f"(q1, q2)=({q1}, {q2}) violates q1 < N < q2")
        if not (2.0 < q1 <= 4.0):
            out.append(f"q1={q1} violates 2 < q1 <= 4")
        if abs(1.0 / q1 - (1.0 / q2 + 1.0 / n)) > 1e-9:
            out.append(f"1/q1 = 1/q2 + 1/N violated (1/{q1} vs 1/{q2} + 1/{n})")
        if not (2.0 / p + n / q2 < 1.0):
            out.append(f"2/p + N/q2 = {2.0 / p + n / q2:.3f} not < 1")
        if not (1.0 / p < tau < n / q2 + 1.0 / p):
            out.append(f"tau={tau} outside (1/p, N/q2 + 1/p)")
        return out


@dataclass
class RunResult:
    final: StepState
    bundle: dict
    aggregate: NormSeries
    events: list
    mass_drift: float
    momentum_drift: float
    symmetry_defect: float
    rejected: bool
    admissible_throughout: bool

    @property
    def success(self) -> bool:
        return (not self.rejected) and self.admissible_throughout and np.all(np.isfinite(self.aggregate.values))


def _sample_fields(st: StepState, params: FluidParams, g_hat: np.ndarray | None):
    """Yield (constituents, real field) once for every field one sample measures.

    Constituents: "j0" theta and m, "j1" grad theta and grad m, "w3" theta
    and every partial up to order 3, "w2" m and every partial up to order 2,
    "dt" d_t theta, grad d_t theta and d_t m; theta and m each belong to two.
    The time derivatives come from the equations of motion, d_t theta =
    -div m, grad d_t theta = -grad div m and
    d_t m = alpha* Lap m + beta* grad div m + kappa* rho* grad Lap theta + g
    with (grad div m)_a = sum_b d_a d_b m_b, as sums of partials the W^{3,2}
    stack has already read back; only g is transformed (g_hat None is g = 0).
    """
    grid = st.real.grid
    dim = grid.dim
    theta, m = st.real.theta, st.real.m
    th_hat, m_hat = st.spectral.theta_hat, st.spectral.m_hat
    grad_theta = np.empty((dim,) + grid.shape)
    grad_m = np.empty((dim, dim) + grid.shape)  # grad_m[c, b] = d_b m_c
    grad_lap_theta, grad_div, lap_m = np.zeros((3, dim) + grid.shape)

    yield ("j0", "w3"), theta
    yield ("j0", "w2"), m
    for order in (1, 2, 3):
        for alpha in multi_indices(dim, order):
            f = irfftn(derivative(grid, alpha) * th_hat, grid)
            if order == 1:
                grad_theta[alpha.index(1)] = f
            elif order == 3 and max(alpha) > 1:
                # alpha = e_a + 2 e_b, a term of (grad Lap theta)_a
                grad_lap_theta[alpha.index(3) if 3 in alpha else alpha.index(1)] += f
            yield ("w3",), f
    for order in (1, 2):
        for alpha in multi_indices(dim, order):
            f = grad_m[:, alpha.index(1)] if order == 1 else np.empty((dim,) + grid.shape)
            for c in range(dim):
                f[c] = irfftn(derivative(grid, alpha) * m_hat[c], grid)
            if order == 2:
                a, b = (ax for ax, k in enumerate(alpha) for _ in range(k))
                grad_div[a] += f[b]
                if a == b:
                    lap_m += f
                else:
                    grad_div[b] += f[a]
            yield ("w2",), f
    yield ("j1",), grad_theta
    yield ("j1",), grad_m

    yield ("dt",), -np.trace(grad_m)
    dm = params.alpha_star * lap_m + params.beta_star * grad_div
    dm += params.kappa_star * params.rho_star * grad_lap_theta
    if g_hat is not None:
        for a in range(dim):
            dm[a] += irfftn(g_hat[a], grid)
    yield ("dt",), np.negative(grad_div, out=grad_div)
    yield ("dt",), dm


def _sample_norms(st: StepState, scn: NonlinearScenario, stepper: Etd2Stepper) -> dict:
    """All norm constituents of the aggregate at one state; caches g(U) on st."""
    grid = st.real.grid
    if scn.nonlinear and st.g_hat is None:
        st.g_hat = nonlinearity_g_hat(st, stepper.params, stepper.mask)
    g_hat = st.g_hat if scn.nonlinear else None
    # each field is measured once for all its exponents and constituents; the sup norm only enters j0 and j1
    qs = (np.inf, scn.exponents.q1, scn.exponents.q2)
    norms = {key: [] for key in ("j0", "j1", "w3", "w2", "dt")}
    for keys, f in _sample_fields(st, stepper.params, g_hat):
        measured = lp_norms(f, grid, qs if keys[0] in ("j0", "j1") else qs[1:])
        for key in keys:
            norms[key].append(measured)

    def total(key, i):  # i counts from the end, so -2 is q1 whether or not the sup norm was taken
        return sum(n[i] for n in norms[key])

    out = {}
    for i, label in zip((-3, -2, -1), ("linf", "q1", "q2")):
        out[f"pair_{label}_j0"] = total("j0", i)
        out[f"pair_{label}_j1"] = total("j1", i)
    for i, label in zip((-2, -1), ("q1", "q2")):
        out[f"pair_w32_{label}"] = total("w3", i) + total("w2", i)
        out[f"dt_pair_w10_{label}"] = total("dt", i)
    return out


def run(scn: NonlinearScenario, initial: State | None = None) -> RunResult:
    """Integrate to t_end, sampling every constituent of the weighted aggregate.

    Partial results are retained up to the failure time if a step is
    rejected.  Initial data outside the range condition take no step: the
    run returns with a ``range_violation`` event at t = 0, no samples and
    ``admissible_throughout`` False.  Mass and mean momentum are tracked
    against their initial values; conjugate symmetry is monitored on the
    final state.
    """
    from .fields import nonlinear_initial_state
    from .spectral import conjugate_symmetry_defect

    events = []
    for msg in scn.scope_warnings():
        warnings.warn(msg + " (outside theorem scope)", NumericsWarning, stacklevel=2)
        events.append({"t": 0.0, "kind": "scope", "message": msg})

    if initial is None:
        rng = np.random.default_rng(scn.seed)
        initial, _ = nonlinear_initial_state(
            scn.grid,
            theta_amplitude=scn.amplitude,
            theta_width=scn.init.theta_width,
            m_amplitude=scn.amplitude * scn.init.m_relative_amplitude,
            m_envelope_width=scn.init.m_envelope_width,
            m_smooth_width=scn.init.m_smooth_width,
            rng=rng,
        )
    stepper = Etd2Stepper(scn.params, scn.grid, scn.dt)
    st = StepState.from_state(initial)
    origin = (slice(None),) + (0,) * scn.grid.dim  # the zero mode of every row: the means of theta and m
    mean0 = st.spectral.hat[origin].copy()

    try:
        st.real.check_range(scn.params)
        admissible = True
    except RangeViolation as exc:  # an inadmissible start is recorded, and neither sampled nor stepped
        events.append({"t": 0.0, "kind": "range_violation", "message": str(exc)})
        admissible = False
    n_steps = int(round(scn.t_end / scn.dt)) if admissible else 0
    times = [0.0] if admissible else []
    samples = [_sample_norms(st, scn, stepper)] if admissible else []
    rejected = False

    for k in range(1, n_steps + 1):
        try:
            st = stepper.step(st, nonlinear=scn.nonlinear)
        except StepRejected as exc:
            events.append({"t": exc.t, "kind": "step_rejected", "message": str(exc)})
            rejected = True
            break
        if k % scn.sample_every == 0 or k == n_steps:
            times.append(st.t)
            samples.append(_sample_norms(st, scn, stepper))
            admissible = admissible and st.real.is_admissible(scn.params)

    times = np.asarray(times)
    bundle = {
        key: NormSeries(times=times, values=np.array([s[key] for s in samples]), descriptor={"name": key})
        for key in _AGGREGATE_KEYS
    }
    e = scn.exponents
    agg_vals = np.array([aggregate_N(bundle, scn.grid.dim, e.p, e.q1, e.q2, e.tau, t) if t > 0 else 0.0 for t in times])
    aggregate = NormSeries(times=times, values=agg_vals, descriptor={"name": "aggregate_N"})

    mean1 = st.spectral.hat[origin]
    mass_scale = max(abs(mean0[0]), scn.grid.mode_count * 1e-3)
    mass_drift = abs(mean1[0] - mean0[0]) / mass_scale
    mom_drift = float(np.max(np.abs(mean1[1:] - mean0[1:]))) / max(float(np.max(np.abs(mean0[1:]))), mass_scale)
    sym = conjugate_symmetry_defect(st.spectral)

    return RunResult(
        final=st,
        bundle=bundle,
        aggregate=aggregate,
        events=events,
        mass_drift=float(mass_drift),
        momentum_drift=float(mom_drift),
        symmetry_defect=float(sym),
        rejected=rejected,
        admissible_throughout=admissible,
    )
