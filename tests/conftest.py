from types import SimpleNamespace

import numpy as np
import pytest

import nsklab.spectral as spectral_mod
from nsklab.model import SpectralState, critical_quadratic, make_params


@pytest.fixture
def fft_calls(monkeypatch):
    """Live list of the transforms made through nsklab's FFT backend, one name per transform.

    ``spectral.fftn`` (complex) and ``spectral.rfftn``/``irfftn`` (real) are
    the only transform entry points, and they reach scipy's pocketfft kernels
    (or scipy.fft, where the kernel file is absent) through ``spectral._fft``;
    the fixture swaps that for a counting wrapper for the duration of the test.  A call over a stack of fields counts one
    transform per field: the batch is the product of the leading axes that
    ``axes`` (by default the last ``len(s)`` axes, or all) leaves out.
    """
    calls = []
    backend = spectral_mod._fft

    def counted(name):
        fn = getattr(backend, name)

        def wrapper(arr, s=None, axes=None, **kwargs):
            ndim = np.ndim(arr)
            if axes is not None:
                transformed = {ax % ndim for ax in np.atleast_1d(axes)}
            else:
                transformed = set(range(ndim - len(s) if s is not None else 0, ndim))
            batch = int(np.prod([size for ax, size in enumerate(np.shape(arr)) if ax not in transformed]))
            calls.extend([name] * batch)
            return fn(arr, s=s, axes=axes, **kwargs)

        return wrapper

    names = ("fftn", "rfftn", "irfftn")
    monkeypatch.setattr(spectral_mod, "_fft", SimpleNamespace(**{name: counted(name) for name in names}))
    return calls


@pytest.fixture
def kernel_sizes(monkeypatch):
    """Live list of the argument sizes of every propagator_kernels evaluation, one per call.

    Every application of the semigroup evaluates its kernels through the name
    ``spectral.propagator_kernels``; the fixture swaps that for a recording
    wrapper for the duration of the test.
    """
    sizes = []
    kernels = spectral_mod.propagator_kernels

    def wrapper(params, xi_sq, t):
        sizes.append(int(np.size(xi_sq)))
        return kernels(params, xi_sq, t)

    monkeypatch.setattr(spectral_mod, "propagator_kernels", wrapper)
    return sizes


@pytest.fixture
def unit_params():
    """mu = nu = kappa = rho* = 1; note delta* = 0 exactly (degenerate)."""
    return make_params(1.0, 1.0, 1.0, 1.0, critical_quadratic(1.0, 1.0))


@pytest.fixture
def positive_params():
    """delta* = (3)^2/4 - 0.5 = 1.75 > 0 (real eigenvalue pair)."""
    return make_params(1.0, 2.0, 0.5, 1.0, critical_quadratic(1.0, 1.0))


@pytest.fixture
def oscillatory_params():
    """delta* = (1.5)^2/4 - 1 = -0.4375 < 0 (conjugate pair)."""
    return make_params(1.0, 0.5, 1.0, 1.0, critical_quadratic(1.0, 1.0))


def random_spectrum(grid, rng):
    """Complex spectra with no Hermitian symmetry, Nyquist planes included."""
    shape = (grid.dim + 1,) + grid.shape
    hats = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SpectralState(grid=grid, hat=hats)


def full_spectrum(state):
    """The full-layout spectrum of a real state: the complex forward transform of each row."""
    return SpectralState(grid=state.grid, hat=np.stack([spectral_mod.fftn(f) for f in state.fields]))


def volume(grid):
    """Volume L^dim of the periodic box."""
    return grid.box_len**grid.dim


def wavevector_of_index(grid, idx):
    """Wavevector of a multi-index of the full spectral grid (bijective with the mode set)."""
    k = grid.wavevectors()[0].ravel()
    return np.array([k[i] for i in idx])


def fd4(arr, axis, h):
    """Fourth-order centered first difference on the periodic grid."""
    return (-np.roll(arr, -2, axis) + 8 * np.roll(arr, -1, axis) - 8 * np.roll(arr, 1, axis) + np.roll(arr, 2, axis)) / (12 * h)


def random_params(rng: np.random.Generator, regime: str):
    """Draw admissible parameters whose discriminant falls in the given regime."""
    mu = rng.uniform(0.2, 3.0)
    nu = rng.uniform(-0.5 * mu, 3.0)
    rho = rng.uniform(0.3, 3.0)
    scale = (mu / rho + nu / rho) ** 2 / 4.0
    if regime == "positive":
        target = scale * rng.uniform(0.05, 0.95)
    elif regime == "negative":
        target = scale * rng.uniform(1.05, 6.0)
    elif regime == "degenerate":
        target = scale * (1.0 + rng.uniform(-0.9e-9, 0.9e-9))
    else:
        raise ValueError(regime)
    kappa = target / rho
    return make_params(mu, nu, kappa, rho, critical_quadratic(1.0, rho))
