"""Span tracing of nsklab's layers, wrapped from outside the package.

The tracer replaces the layer functions listed in LAYERS, and every scipy.fft
and numpy.fft transform, with wrappers that record one span per call:
(name, start, end, parent, computed bytes).  Spans stay in memory and are
written once, when the traced run ends.  No file of the package changes.

Order matters: ``install_fft`` runs before nsklab is imported, so that a
module binding a transform at import time binds the wrapper;
``install_layers`` runs after, and patches every ``nsklab.*`` module attribute
that is the same function object, because modules re-bind imported names
(``runner`` imports ``run`` from ``nonlinear``, ``spectral`` imports
``propagator_kernels`` from ``symbols``, ...).
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

import numpy as np

# Wrapped layer functions, by nsklab module.  "Class.method" names a method.
LAYERS = {
    "runner": ("run_scenario",),
    "fields": ("riesz_momentum_pair", "curl_mixture_momentum_state", "nonlinear_initial_state"),
    "symbols": ("propagator_kernels", "phi_multiplier_tables"),
    "spectral": ("apply_semigroup", "frequency_split", "to_spectral", "to_real"),
    "analysis": (
        "measure_semigroup_decay",
        "theta_low_band_series",
        "divergence_form_ablation",
        "sobolev_norm",
        "lp_norm",
        "mass_radius",
        "edge_leakage",
        "fit_decay",
        "aggregate_N",
    ),
    "nonlinear": (
        "run",
        "Etd2Stepper.step",
        "nonlinearity_g_hat",
        "nonlinearity_tensor",
        "viscous_tensor",
        "korteweg_tensor",
        "pressure_remainder",
    ),
    "svgplot": ("loglog_svg",),
}

LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# Layer functions whose result is a measured norm series (DecayMeasurement).
SERIES_PRODUCERS = ("analysis.measure_semigroup_decay", "analysis.theta_low_band_series")

FFT_MODULES = ("scipy.fft", "numpy.fft")
FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
    "hfft", "ihfft", "hfft2", "ihfft2", "hfftn", "ihfftn",
    "dct", "idct", "dst", "idst", "dctn", "idctn", "dstn", "idstn",
)


def _nbytes(x) -> int:
    nbytes = getattr(x, "nbytes", None)
    return int(nbytes) if nbytes is not None else int(np.asarray(x).nbytes)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, computed bytes]
        self._stack = []
        self._fft_names = set()
        self.missing = []
        self.measured_series = []  # (times, values) returned by SERIES_PRODUCERS

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, name, fn, keep_series=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            series = getattr(out, "series", None) if keep_series else None
            if series is not None:
                self.measured_series.append((np.array(series.times), np.array(series.values)))
            return out

        return traced

    def _wrap_fft(self, name, fn):
        @functools.wraps(fn)
        def traced(x, *args, **kwargs):
            # a transform implemented on top of another counts once
            if self._stack and self.spans[self._stack[-1]][0] in self._fft_names:
                return fn(x, *args, **kwargs)
            span = self._open(name)
            span[1] = perf_counter()
            try:
                out = fn(x, *args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            span[4] = _nbytes(x) + _nbytes(out)
            return out

        return traced

    def install_fft(self):
        """Wrap every transform entry point; call before nsklab is imported."""
        import importlib

        for modname in FFT_MODULES:
            mod = importlib.import_module(modname)
            for fn in FFT_FUNCTIONS:
                orig = getattr(mod, fn, None)
                if orig is None:
                    continue
                name = f"{modname}.{fn}"
                self._fft_names.add(name)
                setattr(mod, fn, self._wrap_fft(name, orig))

    def install_layers(self):
        """Wrap LAYERS in every nsklab module that binds them; absent names are recorded, not errors."""
        modules = [m for k, m in list(sys.modules.items()) if m is not None and (k == "nsklab" or k.startswith("nsklab."))]
        for modname, fns in LAYERS.items():
            mod = sys.modules.get(f"nsklab.{modname}")
            for fn in fns:
                name = f"{modname}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(mod, cls_name, None)
                    orig = vars(cls).get(meth) if isinstance(cls, type) else None
                    if not callable(orig):
                        self.missing.append(name)
                        continue
                    setattr(cls, meth, self._wrap(name, orig))
                    continue
                orig = getattr(mod, fn, None)
                if not callable(orig):
                    self.missing.append(name)
                    continue
                wrapped = self._wrap(name, orig, keep_series=name in SERIES_PRODUCERS)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "bytes"], "spans": self.spans}, fh, separators=(",", ":"))

    def aggregate(self) -> dict:
        """Per-layer calls, inclusive s, self_s and inclusive FFT count, plus FFT totals.

        Self time is a span's duration minus that of its direct child spans
        (FFT spans included).  Inclusive time counts only the outermost span
        of a name, so a name nested in itself is not counted twice.
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "fft_calls": 0} for name in LAYER_NAMES}
        fft = {"calls": 0, "s": 0.0, "bytes": 0}
        for i, (name, start, end, parent, nbytes) in enumerate(spans):
            ancestors = []
            p = parent
            while p >= 0:
                ancestors.append(spans[p][0])
                p = spans[p][3]
            if name in self._fft_names:
                fft["calls"] += 1
                fft["s"] += end - start
                fft["bytes"] += nbytes
                for anc in set(ancestors):
                    stats[anc]["fft_calls"] += 1
                continue
            st = stats[name]
            st["calls"] += 1
            st["self_s"] += (end - start) - child_s[i]
            if name not in ancestors:
                st["s"] += end - start
        return {"layers": stats, "fft": fft}

    def step_s_under(self, root: str, child: str) -> float:
        """Total duration of `child` spans that have a `root` span among their ancestors."""
        spans = self.spans
        total = 0.0
        for name, start, end, parent, _ in spans:
            if name != child:
                continue
            p = parent
            while p >= 0:
                if spans[p][0] == root:
                    total += end - start
                    break
                p = spans[p][3]
        return total
