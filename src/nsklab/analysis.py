"""Grid norms, weighted norm aggregates, decay-exponent fitting and verification.

Fixed norm conventions (any norm-equivalent choice verifies the same rates;
these are the ones recorded in all outputs):

* vector fields enter L_q through the pointwise Euclidean magnitude, tensor
  fields through the pointwise Frobenius magnitude;
* a pair (theta, m) has norm ``||theta|| + ||m||``;
* Sobolev norms are the plain sum of the L_q norms of all partials up to the
  requested order;
* ``W^{m,l}`` of a pair is ``||theta||_{W^m} + ||m||_{W^l}``.

Semigroup decay series at q = 2 are computed by Parseval from the evolved
spectrum, with no transform: each field's spectrum is the half spectrum of
its real field (``spectral.SemigroupOrbit.halves``, the Hermitian projection
of the evolved full spectrum), whose modes count twice off the self-mirror
last-axis planes 0 and n/2, and every first-derivative multiplier is
``spectral.derivative``'s ``i xi_k``, zero on the Nyquist index of axis k
(what ``.real`` of a derivative round trip keeps), so the values equal the
real-space norms of the same fields to rounding.

A series hands its datum to a :class:`nsklab.spectral.SemigroupOrbit`, which
forms only the band it measures, on the half layout of the grid its band and
cutoff imply; the datum is freed once the orbit is built, and every sample is
read into one :class:`nsklab.spectral.Workspace`.

The trust diagnostics of a decay sample measure whichever of theta and m
peaks higher, so only they need real fields at q = 2.  m is read out a row at
a time into its magnitude, and theta is transformed only if the sum of its
spectrum's magnitudes, a bound on its peak, reaches m's peak: data whose theta
stays far below m, such as divergence-free momenta, cost dim inverse
transforms per sample, not dim + 1.  Every inverse transform of a sample lands
in the workspace, so no sample allocates a real row.

The divergence-form ablation measures :func:`theta_low_band_series` of both
members of ``fields.riesz_momentum_pair``; the runner pairs the two fits.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    MissingConstituent,
    NonPositiveSeries,
    WindowUncovered,
)
from .model import FluidParams, Grid, SpectralState
from .spectral import (
    CutoffSpec,
    SemigroupOrbit,
    Workspace,
    default_cutoff,
    derivative,
    irfftn,
    multi_indices,
)

TOL_EXP = 0.1  # absolute tolerance on fitted decay exponents


# ---------------------------------------------------------------------------
# grid norms


def _magnitude(field_arr: np.ndarray, grid: Grid) -> np.ndarray:
    """Collapse leading component axes to the pointwise Euclidean magnitude, the input untouched.

    The squares are added into one buffer in component order, the order of np.sum over the leading axis.
    """
    arr = np.asarray(field_arr)
    if arr.ndim == grid.dim:
        return np.abs(arr)
    comps = arr.reshape((-1,) + grid.shape)
    mag = np.abs(comps[0])
    np.square(mag, out=mag)
    square = np.empty_like(mag)
    for comp in comps[1:]:
        mag += np.square(np.abs(comp, out=square), out=square)
    return np.sqrt(mag, out=mag)


def lp_norm(field_arr: np.ndarray, grid: Grid, q) -> float:
    """Grid L_q norm with quadrature weight h^dim; q = inf gives the grid max."""
    return lp_norms(field_arr, grid, (q,))[0]


def lp_norms(field_arr: np.ndarray, grid: Grid, qs) -> list:
    """lp_norm at each exponent in qs, collapsing the field to its magnitude once."""
    return _lp_norms_of_magnitude(_magnitude(field_arr, grid), grid, qs)


def _lp_norms_of_magnitude(mag: np.ndarray, grid: Grid, qs) -> list:
    """lp_norms of a field given its pointwise magnitude; every mag**q is formed in one scratch buffer."""
    out = []
    power = None
    for q in qs:
        if np.isinf(q):
            out.append(float(np.max(mag)))
            continue
        q = float(q)
        if q < 1.0:
            raise ValueError("q in [1, inf] required")
        power = np.power(mag, q, out=power)
        out.append(float(np.sum(power) ** (1.0 / q) * grid.cell_volume ** (1.0 / q)))
    return out


def spectral_l2_norm(power: np.ndarray, grid: Grid, weight=None, out=None) -> float:
    """Grid L2 norm by Parseval from a power spectrum, sum over components of |f_c hat|^2.

    weight (broadcastable, e.g. xi_k^2 for the partial d_k) multiplies the
    power mode by mode, into ``out`` if given.  The DFT weight cell_volume / mode_count makes the
    result equal lp_norm(f, grid, 2) of the real field whose DFT has that power.
    """
    total = np.sum(power) if weight is None else np.sum(np.multiply(weight, power, out=out))
    return float(np.sqrt(grid.cell_volume / grid.mode_count * total))


def half_power(half: np.ndarray, grid: Grid, out=None) -> np.ndarray:
    """|half|^2 summed over any leading component axis, each mode weighted by its mirror multiplicity.

    The weight is 1 on the self-mirror last-axis planes 0 and n/2 and 2
    elsewhere, so the sum is the power of the full spectrum of the real field.
    ``out``, three half-layout real rows (made here by default), receives it
    in its first row; the other two are scratch.
    """
    total, sq_re, sq_im = np.empty((3,) + grid.half_shape) if out is None else out[:3]
    comps = half.reshape((-1,) + grid.half_shape)
    np.square(comps[0].real, out=total)
    total += np.square(comps[0].imag, out=sq_im)
    for comp in comps[1:]:
        np.square(comp.real, out=sq_re)
        sq_re += np.square(comp.imag, out=sq_im)
        total += sq_re
    total[..., 1 : grid.n // 2] *= 2.0
    return total


def mass_radius(field_arr: np.ndarray, grid: Grid) -> float:
    """Smallest periodic radius around the box center containing 99% of the |field| mass."""
    return _TrustGeometry(grid).diagnostics(_magnitude(field_arr, grid))[0]


# ---------------------------------------------------------------------------
# time series and weighted norms


@dataclass(frozen=True)
class NormSeries:
    """Samples of one norm along a run: strictly increasing times, values >= 0."""

    times: np.ndarray
    values: np.ndarray
    descriptor: dict = field(default_factory=dict)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if times.size >= 2 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ValueError("values must be finite and >= 0")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def window_slice(self, a: float, t: float):
        return (self.times >= a - 1e-12) & (self.times <= t + 1e-12)


def weighted_sup(series: NormSeries, ell: float, window: tuple[float, float]) -> float:
    """sup over samples in [a, t] of (1+s)^ell * value(s)."""
    a, t = window
    if t < a:
        raise ValueError("window must have a <= t")
    if series.times.size == 0 or series.times[0] > a + 1e-12 or series.times[-1] < t - 1e-12:
        covered = (series.times[0], series.times[-1]) if series.times.size else (np.nan, np.nan)
        raise WindowUncovered(f"series covers [{covered[0]}, {covered[1]}], window [{a}, {t}] requested")
    sel = series.window_slice(a, t)
    s = series.times[sel]
    v = series.values[sel]
    return float(np.max((1.0 + s) ** ell * v))


def lp_time_norm(series: NormSeries, p: float, window: tuple[float, float], ell: float = 0.0) -> float:
    """L_p norm in time of (1+s)^ell * value(s), composite trapezoid on the samples."""
    a, t = window
    if np.isinf(p):
        return weighted_sup(series, ell, window)
    sel = series.window_slice(a, t)
    s = series.times[sel]
    v = (1.0 + s) ** ell * series.values[sel]
    if s.size < 2:
        return 0.0
    return float(np.trapezoid(v**p, s) ** (1.0 / p))


_AGGREGATE_KEYS = (
    "pair_linf_j0",
    "pair_linf_j1",
    "pair_q1_j0",
    "pair_q1_j1",
    "pair_q2_j0",
    "pair_q2_j1",
    "pair_w32_q1",
    "pair_w32_q2",
    "dt_pair_w10_q1",
    "dt_pair_w10_q2",
)


def aggregate_N(bundle: dict, dim: int, p: float, q1: float, q2: float, tau: float, t: float) -> float:
    """The weighted-norm aggregate controlling global existence, evaluated at time t.

    The bundle must contain the sup-norm series of (theta, m) and its gradient
    in L_inf, L_q1, L_q2 and the two maximal-regularity constituents per
    integrability index (keys in _AGGREGATE_KEYS).  The double sum over the
    derivative order j and the index i is kept literal, so each group enters
    twice; acceptance uses only ratios and boundedness, which are unaffected.
    """
    missing = [k for k in _AGGREGATE_KEYS if k not in bundle]
    if missing:
        raise MissingConstituent("missing series: " + ", ".join(missing))
    window = (0.0, t)
    ells = {1: dim / (2 * q1) - tau, 2: dim / (2 * q2) + 1.0 - tau}
    total = 0.0
    for j in (0, 1):
        sup_terms = (
            weighted_sup(bundle[f"pair_linf_j{j}"], dim / q1 + j / 2.0, window)
            + weighted_sup(bundle[f"pair_q1_j{j}"], dim / (2 * q1) + j / 2.0, window)
            + weighted_sup(bundle[f"pair_q2_j{j}"], dim / (2 * q2) + 1.0 + j / 2.0, window)
        )
        for i in (1, 2):
            int_terms = lp_time_norm(bundle[f"pair_w32_q{i}"], p, window, ells[i]) + lp_time_norm(
                bundle[f"dt_pair_w10_q{i}"], p, window, ells[i]
            )
            total += sup_terms + int_terms
    return float(total)


# ---------------------------------------------------------------------------
# decay fitting


def predicted_decay_exponent(dim: int, p, q, j: int) -> float:
    """Theorem rate -N/2 (1/q - 1/p) - j/2 (1/inf = 0)."""
    ip = 0.0 if np.isinf(p) else 1.0 / p
    iq = 0.0 if np.isinf(q) else 1.0 / q
    return -0.5 * dim * (iq - ip) - 0.5 * j


def in_theorem_scope(p, q) -> bool:
    """Exponent window of the large-time (t >= 1) decay estimates."""
    if np.isinf(p) and np.isinf(q):
        return False
    return (1.0 < q <= 2.0) and (2.0 <= p or np.isinf(p)) and q <= (p if not np.isinf(p) else np.inf)


@dataclass(frozen=True)
class DecayReport:
    """Fitted vs predicted decay exponent with a pass/fail verdict."""

    fitted_exponent: float
    predicted_exponent: float
    fit_window: tuple
    residual: float
    tol_exp: float
    trust_window_ok: bool
    n_samples: int
    in_scope: bool
    descriptor: dict = field(default_factory=dict)

    @property
    def verdict(self) -> bool:
        return bool(abs(self.fitted_exponent - self.predicted_exponent) <= self.tol_exp and self.trust_window_ok)

    def to_dict(self) -> dict:
        return dict(asdict(self), fit_window=list(self.fit_window), verdict=self.verdict)


def fit_decay(
    series: NormSeries,
    window: tuple[float, float],
    *,
    dim: int,
    p,
    q,
    j: int,
    tol_exp: float = TOL_EXP,
    trust_ok: bool = True,
) -> DecayReport:
    """Least-squares slope of log(value) against log(t) over the window.

    Wrap-around trust enters as the trust_ok flag of this window (see
    :meth:`DecayMeasurement.trust_ok`); a violation is reported as
    trust_window_ok=False, which fails the verdict.
    """
    lo, hi = window
    if lo <= 0:
        raise ValueError("fit window must start at t > 0")
    sel = series.window_slice(lo, hi)
    if int(sel.sum()) < 3:
        raise WindowUncovered(f"only {int(sel.sum())} samples inside [{lo}, {hi}]")
    tvals = series.times[sel]
    vvals = series.values[sel]
    if np.any(vvals <= 0.0):
        raise NonPositiveSeries("series must be strictly positive on the fit window")
    logt = np.log(tvals)
    logv = np.log(vvals)
    slope, intercept = np.polyfit(logt, logv, 1)
    resid = float(np.sqrt(np.mean((logv - (slope * logt + intercept)) ** 2)))
    return DecayReport(
        fitted_exponent=float(slope),
        predicted_exponent=predicted_decay_exponent(dim, p, q, j),
        fit_window=(lo, hi),
        residual=resid,
        tol_exp=tol_exp,
        trust_window_ok=trust_ok,
        n_samples=int(sel.sum()),
        in_scope=in_theorem_scope(p, q),
        descriptor=dict(series.descriptor),
    )


# ---------------------------------------------------------------------------
# semigroup decay measurement


EDGE_SHELL = 0.46  # the outer shell starts at periodic distance EDGE_SHELL * L from the box center
EDGE_LEAK_TOL = 0.02
PEAK_MARGIN = 1e-9  # relative slack on a peak bound: far above the rounding of an inverse transform and of a sum


def edge_leakage(field_arr: np.ndarray, grid: Grid) -> float:
    """Max |field| on the outer shell (periodic distance > EDGE_SHELL * L) over the global max.

    Direct measure of how much of the field reaches the region where periodic
    images interact; wrap-around contamination of pointwise measurements is
    of this order.
    """
    return _TrustGeometry(grid).diagnostics(_magnitude(field_arr, grid))[1]


class _TrustGeometry:
    """The t-independent part of the trust diagnostics: radial mass bins and the outer shell.

    Distances are periodic and measured from the box center, where every
    generator of :mod:`nsklab.fields` centers its data.
    """

    def __init__(self, grid: Grid):
        r_sq = grid.periodic_r_sq()
        self.box_len = grid.box_len
        self.nbins = 4 * grid.n
        self.bins = np.minimum((np.sqrt(r_sq) / (grid.box_len / self.nbins)).astype(np.int64), self.nbins - 1).ravel()
        self.shell = r_sq > (EDGE_SHELL * grid.box_len) ** 2
        self.any_shell = bool(self.shell.any())

    def diagnostics(self, mag: np.ndarray) -> tuple[float, float]:
        """(99%-mass radius, edge leakage) of a field given its pointwise magnitude."""
        total = float(mag.sum())
        radius = 0.0
        if total != 0.0:
            mass = np.bincount(self.bins, weights=mag.ravel(), minlength=self.nbins)
            hit = int(np.searchsorted(np.cumsum(mass), 0.99 * total))
            radius = (hit + 1) * self.box_len / self.nbins
        peak = float(mag.max())
        leak = float(np.max(mag, where=self.shell, initial=0.0) / peak) if peak != 0.0 and self.any_shell else 0.0
        return radius, leak


@dataclass(frozen=True)
class DecayMeasurement:
    """Norm series plus per-sample wrap-around trust diagnostics.

    Two guards are recorded for every sample: the 99%-mass radius against
    L/4 (the default criterion, meaningful for localized packets) and the
    edge leakage (max |field| on the outer shell over the global max, the
    direct wrap-around measure for band-limited responses whose integrable
    far tails make the mass radius structurally uninformative).
    """

    series: NormSeries
    trust_radii: np.ndarray
    trust_limit: float
    edge_leaks: np.ndarray
    band_modes: int

    def trust_ok(self, window: tuple[float, float], mode: str = "mass_radius") -> bool:
        sel = self.series.window_slice(*window)
        if mode == "mass_radius":
            return bool(np.all(self.trust_radii[sel] <= self.trust_limit))
        if mode == "edge_leak":
            return bool(np.all(self.edge_leaks[sel] <= EDGE_LEAK_TOL))
        raise ValueError("trust mode must be 'mass_radius' or 'edge_leak'")


def measure_semigroup_decay(
    data: SpectralState,
    params: FluidParams,
    times,
    *,
    band: str = "low",
    cutoff: CutoffSpec | None = None,
    p=np.inf,
    j: int = 0,
    w10: bool = False,
) -> DecayMeasurement:
    """Norm series of the band-projected semigroup flow t -> S(t) Phi_band data.

    Measures the pair norm of (grad^j theta, grad^j m) in L_p (plus first
    derivatives when w10 is set, matching the W^{1,0} estimates for the high
    band).  The trust window ends at the first sample whose 99%-mass radius
    about the box center exceeds a quarter of the box.

    The datum goes to a :class:`nsklab.spectral.SemigroupOrbit`, which forms
    only the kept band, a row at a time and never on the full layout, and runs
    S(t) on the grid the band and cutoff imply: n/2 for the low band under the
    default cutoff, n for the high band.  A caller that hands the datum over
    and keeps no reference has it freed once the orbit is built, before the
    series' workspace is allocated.  Every norm is taken on the data's grid,
    of the half spectrum of the evolved real field, which
    :meth:`nsklab.spectral.SemigroupOrbit.halves` forms on the half layout,
    its mirror set included.  For p = 2 it comes by Parseval from its power
    (:func:`half_power`, summed in the workspace's coefficient rows), with the
    Nyquist-zeroed first-order multipliers of
    :func:`nsklab.spectral.derivative`; otherwise each derivative is one
    ``irfftn`` of the half spectrum times the same multiplier.  Only the trust
    diagnostics need the real fields at p = 2: dim ``irfftn`` per sample for
    m, and one more for theta only when a bound on its peak from the sum of
    its spectrum's magnitudes reaches m's peak (:func:`_decay_sample`).
    """
    grid = data.grid
    if cutoff is None:
        cutoff = default_cutoff(grid)
    if j not in (0, 1):
        raise ValueError("j in {0, 1} supported")
    orbit = SemigroupOrbit(data, params, band, cutoff)
    # CPython moves call arguments into the callee's frame: for a caller that passes its datum straight in
    # (runner._linear_decay_report) this drops the last reference, so the datum is freed before the workspace exists
    del data
    trust = _TrustGeometry(grid)
    ws = Workspace(grid)
    return _series_measurement(
        lambda t: _decay_sample(orbit, ws, t, p, j, w10, trust),
        times,
        {"p": "inf" if np.isinf(p) else p, "j": j, "band": band, "w10": w10, "cutoff_eps": cutoff.eps},
        grid,
        orbit.band_modes,
    )


def _series_measurement(sample, times, descriptor: dict, grid: Grid, band_modes: int) -> DecayMeasurement:
    """The DecayMeasurement of (value, mass radius, edge leakage) = sample(t) over the sorted times."""
    times = np.asarray(sorted(float(t) for t in times))
    rows = np.array([sample(t) for t in times]).reshape(-1, 3)
    return DecayMeasurement(
        series=NormSeries(times=times, values=rows[:, 0], descriptor=descriptor),
        trust_radii=rows[:, 1],
        trust_limit=grid.box_len / 4.0,
        edge_leaks=rows[:, 2],
        band_modes=band_modes,
    )


def _decay_sample(orbit: SemigroupOrbit, ws: Workspace, t: float, p, j: int, w10: bool, trust):
    """(norm value, mass radius, edge leakage) of the orbit's sample at t, read out into the series' workspace.

    The trust diagnostics take the field whose components peak higher: theta only if max |theta| > max_j max |m_j|.
    m is read out first, each row into ``ws.real_row`` and its square added into |m| in ``ws.m``
    (:func:`_momentum_magnitude`).
    At p = 2 theta is read out only if its peak bound (:func:`_peak_bound`, raised by ``PEAK_MARGIN``) exceeds m's
    peak, since otherwise the diagnostics cannot pick it; the value is then summed by Parseval in ``ws.coeffs``,
    whose memory |m| and |theta| share.  At any other p theta is always read out: it enters the norm.  theta is read
    out into ``ws.real_row``, so every real field of the sample lies in the workspace.
    """
    grid = orbit.grid
    hat = orbit.halves(t, ws)
    m_mag, m_max = _momentum_magnitude(hat[1:], grid, ws.m, ws.real_row)
    theta_mag = None
    if p != 2 or _peak_bound(hat[0], grid, ws.coeffs[-1]) * (1.0 + PEAK_MARGIN) > m_max:
        theta_mag = np.abs(irfftn(hat[0], grid, ws.real_row), out=ws.real_row)
    diagnostics = trust.diagnostics(theta_mag if theta_mag is not None and np.max(theta_mag) > m_max else m_mag)
    if p == 2:
        value = _pair_l2_by_parseval(hat, j, w10, grid, ws.coeffs)
    else:
        value = _pair_lp_from_halves(hat, theta_mag, m_mag, p, j, w10, grid)
    return (value, *diagnostics)


def _momentum_magnitude(rows: np.ndarray, grid: Grid, out: np.ndarray, comp: np.ndarray) -> tuple[np.ndarray, float]:
    """(|m|, max_j max |m_j|) of the real fields of m's half-spectrum ``rows``, |m| in ``out``, one real row.

    The rows are read out one at a time into ``comp``, another real row: each output's max and -min go into the
    peak, and its square into ``out``, added in component order as :func:`_magnitude` adds them, so |m| is its value
    bit for bit, m is never copied and no real row is allocated.
    """
    peak = -np.inf
    for c, row in enumerate(rows):
        irfftn(row, grid, comp)
        peak = max(peak, np.max(comp), -np.min(comp))
        if c:
            out += np.square(comp, out=comp)
        else:
            np.square(comp, out=out)
    return np.sqrt(out, out=out), peak


def _peak_bound(row: np.ndarray, grid: Grid, buf: np.ndarray) -> float:
    """An upper bound on max |irfftn(row)|: the sum of |row| over the full spectrum it stands for, over the mode count.

    A half-layout mode stands for itself and its mirror, except on the self-mirror last-axis planes 0 and n/2; the
    inverse transform is a sum of unit-modulus multiples of these values.  |row| is formed in ``buf``, a real row.
    """
    mag = np.abs(row, out=buf)
    return float(2.0 * np.sum(mag) - np.sum(mag[..., 0]) - np.sum(mag[..., grid.n // 2])) / grid.mode_count


def _pair_l2_by_parseval(hat: np.ndarray, j: int, w10: bool, grid: Grid, buf: np.ndarray) -> float:
    """L2 value of one decay sample from the half-spectrum stack of its fields, with no transform.

    Every power runs in ``buf``, four half-layout real rows: three for :func:`half_power`, one for |xi|^2.
    """
    weights = [abs(derivative(grid, e)) ** 2 for e in multi_indices(grid.dim, 1)]
    # sum_k |d_k f_hat|^2 is the power of the stacked gradient; the partial sums broadcast to a row only at the end
    xi_sq = np.add(sum(weights[:-1]), weights[-1], out=buf[3]) if j == 1 else None

    def power(rows):
        p = half_power(rows, grid, buf)
        return p if xi_sq is None else np.multiply(p, xi_sq, out=p)

    p_theta = power(hat[0])
    th_part = spectral_l2_norm(p_theta, grid)
    if w10:
        th_part += sum(spectral_l2_norm(p_theta, grid, w, out=buf[1]) for w in weights)
    return th_part + spectral_l2_norm(power(hat[1:]), grid)


def _pair_lp_from_halves(hat, theta_mag, m_mag, p, j: int, w10: bool, grid: Grid) -> float:
    """L_p value of one decay sample from its half stack and its fields' magnitudes; each derivative is one ``irfftn`` of a row."""
    grad = [derivative(grid, e) for e in multi_indices(grid.dim, 1)]
    if j == 0:
        th_hats = [hat[0]]
        th_part = _lp_norms_of_magnitude(theta_mag, grid, (p,))[0]
        m_part = _lp_norms_of_magnitude(m_mag, grid, (p,))[0]
    else:
        th_hats = [d * hat[0] for d in grad]
        th_part = lp_norm(np.stack([irfftn(h, grid) for h in th_hats]), grid, p)
        m_part = lp_norm(np.stack([irfftn(d * mh, grid) for mh in hat[1:] for d in grad]), grid, p)
    if w10:
        for d in grad:
            th_part += lp_norm(np.stack([irfftn(d * h, grid) for h in th_hats]), grid, p)
    return th_part + m_part


def theta_low_band_series(data: SpectralState, params: FluidParams, times, cutoff: CutoffSpec, p, ws=None) -> DecayMeasurement:
    """Low-band theta-component norm series of the linear flow (ablation measurand).

    The orbit forms the low band of the datum and runs S(t) on the coarsest grid that holds the cutoff (n/2 under the
    default cutoff); samples are read out on n, each into the workspace's ``real_row``.  A datum handed over is freed
    once the orbit is built.  ``ws``, a theta-only :class:`nsklab.spectral.Workspace`, lets series share buffers; by
    default it is made here.
    """
    grid = data.grid
    orbit = SemigroupOrbit(data, params, "low", cutoff)
    del data  # the last reference when the caller handed the datum over, as the runner's ablation does: freed here
    trust = _TrustGeometry(grid)
    ws = ws or Workspace(grid, theta_only=True)

    def sample(t):
        mag = np.abs(irfftn(orbit.halves(t, ws)[0], grid, ws.real_row), out=ws.real_row)
        return (_lp_norms_of_magnitude(mag, grid, (p,))[0], *trust.diagnostics(mag))

    return _series_measurement(sample, times, {"field": "theta", "band": "low", "p": "inf" if np.isinf(p) else p}, grid, orbit.band_modes)
