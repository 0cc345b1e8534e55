"""Scenario configuration: strict JSON schema, lossless round trip.

The config format is a JSON tree with one block per concern.  Each scenario
kind has one frozen record (:class:`SymbolVerifyConfig`,
:class:`LinearDecayConfig`, :class:`AblationConfig`,
:class:`NonlinearRunConfig`), and the records are the schema: a record's
fields are the keys its kind accepts, and the fields without a default are
the keys it requires.  A field whose type is a block record is a nested
object, parsed the same way; the ``grid`` block is a :class:`nsklab.model.Grid`
and the ``params`` block builds its :class:`nsklab.model.FluidParams`, so
every value a run is built from is checked once, when the config is parsed;
a decay config checks its data and cutoff against its grid with the limits
its generator (``fields.riesz_limits``, ...) and the low band
(``spectral.low_band_empty``) enforce.  Unknown keys anywhere in the tree are
errors (no silent typos), and so are NaN and the infinities; "inf" is the
spelling of an exponent's infinity, and a finite exponent is at least 1.
parse -> serialize -> parse is the identity.
"""

# Annotations are evaluated here (no ``from __future__ import annotations``):
# `_build` decodes each value by its field's type.
import dataclasses
import functools
import json
import math
from dataclasses import asdict, dataclass
from typing import ClassVar, NewType, get_args, get_type_hints

import numpy as np

from .analysis import MIN_FIT_SAMPLES, TOL_EXP, window_mask
from .errors import ConstraintViolation, ParseError, ValidationError
from .fields import DATA_DIMS, dim_limits, ladder_limits, riesz_limits
from .model import FluidParams, Grid, critical_quadratic, make_params
from .spectral import CutoffSpec, default_cutoff, low_band_empty

DATA_KINDS = ("riesz_divergence", "riesz_generic", "scalar_riesz", "curl_mixture", "transverse_packet")

Exponent = NewType("Exponent", float)  # a Lebesgue exponent; JSON spells infinity "inf"


@dataclass(frozen=True)
class ParamsBlock:
    mu: float
    nu: float
    kappa: float
    rho_ref: float
    pressure_k: float = 1.0

    def __post_init__(self):
        if not self.rho_ref > 0.0:  # checked first: the pressure law's validity interval is built from it
            raise ConstraintViolation(f"rho_ref must be > 0, got {self.rho_ref}")
        self.fluid()

    def fluid(self) -> FluidParams:
        """The fluid constants, under the critical law pressure_k (rho - rho_ref)^2."""
        return make_params(self.mu, self.nu, self.kappa, self.rho_ref, critical_quadratic(self.pressure_k, self.rho_ref))


@dataclass(frozen=True)
class DataBlock:
    kind: str
    amplitude: float = 1.0
    gamma: float = 1.5
    support_radius: float | None = None
    gamma_potential: float = 2.5
    rho_min: float = 0.3
    rho_max: float = 7.0
    width: float = 1.5

    def __post_init__(self):
        if self.kind not in DATA_KINDS:
            raise ValidationError(f"unknown data kind '{self.kind}' (expected one of {DATA_KINDS})")


@dataclass(frozen=True)
class TimesBlock:
    t_min: float
    t_max: float
    count: int

    def __post_init__(self):
        if not (0.0 < self.t_min < self.t_max and self.count >= MIN_FIT_SAMPLES):
            raise ValidationError(f"times need 0 < t_min < t_max and count >= {MIN_FIT_SAMPLES}, got {self.t_min}, {self.t_max}, {self.count}")

    def values(self):
        return np.geomspace(self.t_min, self.t_max, self.count)


@dataclass(frozen=True)
class ExponentsBlock:
    p: Exponent = np.inf
    q: Exponent = 2.0
    j: int = 0


@dataclass(frozen=True)
class NonlinearExponentsBlock:
    p: Exponent = 4.0
    q1: Exponent = 2.5
    q2: Exponent = 15.0
    tau: float = 0.35


@dataclass(frozen=True)
class NonlinearInitBlock:
    theta_width: float = 2.0
    m_envelope_width: float = 2.0
    m_smooth_width: float = 1.0
    m_relative_amplitude: float = 1.0

    def __post_init__(self):
        for key in ("theta_width", "m_envelope_width", "m_smooth_width"):
            if not getattr(self, key) > 0.0:
                raise ConstraintViolation(f"{key} must be > 0, got {getattr(self, key)}")


@dataclass(frozen=True, kw_only=True)
class _Record:
    """The keys of every kind: the seed, which is required, and an output directory."""

    seed: int
    out_dir: str | None = None

    def __post_init__(self):
        if self.seed is None:
            raise ValidationError("seed is mandatory (determinism contract)")


@dataclass(frozen=True, kw_only=True)
class SymbolVerifyConfig(_Record):
    kind: ClassVar[str] = "symbol-verify"
    samples_per_regime: int = 1000
    xi_scale: float = 3.0
    t_max: float = 10.0
    tol_symbol: float = 1e-10

    def __post_init__(self):
        super().__post_init__()
        if self.samples_per_regime < 1 or not self.t_max > 0.0:
            raise ValidationError(f"symbol-verify needs samples_per_regime >= 1 and t_max > 0, got {self.samples_per_regime}, {self.t_max}")


@dataclass(frozen=True, kw_only=True)
class _DecayConfig(_Record):
    """The keys the two decay-fit kinds share."""

    params: ParamsBlock
    grid: Grid
    data: DataBlock
    times: TimesBlock
    exponents: ExponentsBlock
    fit_window: tuple
    cutoff_eps: float | None = None
    trust_mode: str = "mass_radius"
    tol_exp: float = TOL_EXP

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 < self.fit_window[0] < self.fit_window[1]):
            raise ValidationError(f"fit_window needs 0 < lo < hi, got {list(self.fit_window)}")
        inside = int(window_mask(self.times.values(), *self.fit_window).sum())
        if inside < MIN_FIT_SAMPLES:
            raise ValidationError(f"fit_window {list(self.fit_window)} holds {inside} of the sample times, a fit needs {MIN_FIT_SAMPLES}")
        if self.trust_mode not in ("mass_radius", "edge_leak"):
            raise ValidationError(f"trust_mode must be 'mass_radius' or 'edge_leak', got '{self.trust_mode}'")
        if self.cutoff_eps is not None and not self.cutoff_eps > 0.0:
            raise ValidationError(f"cutoff_eps must be > 0, got {self.cutoff_eps}")
        data = self.data  # held to its generator's limits on the grid
        if data.kind in DATA_DIMS:
            dim_limits(self.grid, data.kind)
        if data.kind == "curl_mixture":
            ladder_limits(data.rho_min, data.rho_max)
        elif data.kind != "transverse_packet":  # a Riesz kind
            riesz_limits(self.grid, data.gamma, self.support_radius())

    def cutoff(self) -> CutoffSpec:
        """The config's cutoff, or its grid's default cutoff where the config sets none."""
        return default_cutoff(self.grid) if self.cutoff_eps is None else CutoffSpec(eps=self.cutoff_eps)

    def support_radius(self) -> float:
        """The data's support radius, by default just under a quarter of the box."""
        radius = self.data.support_radius
        return radius if radius is not None else 0.98 * self.grid.box_len / 4.0

    def _check_low_band(self) -> None:
        """A ValidationError naming cutoff_eps where the cutoff leaves the low band empty (``EmptyLowBand`` in a run)."""
        cutoff = self.cutoff()
        if low_band_empty(self.grid, cutoff):
            raise ValidationError(
                f"cutoff_eps {cutoff.eps:g}{' (the default)' if self.cutoff_eps is None else ''} leaves the low band empty: "
                f"2 eps is under the least nonzero |xi|, 2 pi / box_len = {2.0 * math.pi / self.grid.box_len:g}"
            )


@dataclass(frozen=True, kw_only=True)
class LinearDecayConfig(_DecayConfig):
    kind: ClassVar[str] = "linear-decay"
    band: str = "low"
    w10: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.band not in ("low", "high", "full"):
            raise ValidationError(f"band must be low, high or full, got '{self.band}'")
        if self.exponents.j not in (0, 1):
            raise ValidationError(f"linear-decay measures derivative order j = 0 or 1, got {self.exponents.j}")
        if self.band != "full":  # the low band splits off the high one too
            self._check_low_band()


@dataclass(frozen=True, kw_only=True)
class AblationConfig(_DecayConfig):
    """The ablation builds its own Riesz pair, so riesz_divergence is the one data kind it takes."""

    kind: ClassVar[str] = "ablation"
    gap_threshold: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        if self.data.kind != "riesz_divergence":
            raise ValidationError(f"ablation data kind must be 'riesz_divergence', got '{self.data.kind}'")
        if self.exponents.j != 0:
            raise ValidationError(f"the ablation measures theta itself, so j must be 0, got {self.exponents.j}")
        self._check_low_band()


@dataclass(frozen=True, kw_only=True)
class NonlinearRunConfig(_Record):
    kind: ClassVar[str] = "nonlinear-run"
    params: ParamsBlock
    grid: Grid
    nonlinear_exponents: NonlinearExponentsBlock | None = None
    init: NonlinearInitBlock | None = None
    amplitude: float = 0.05
    t_end: float = 10.0
    dt: float = 0.1
    sample_every: int = 1
    nonlinear: bool = True

    def __post_init__(self):
        super().__post_init__()
        steps = self.t_end / self.dt if self.dt > 0 else 0.0
        if not (steps > 0.5 and abs(steps - np.rint(steps)) <= 1e-9):
            raise ValidationError(f"t_end={self.t_end} and dt={self.dt} do not make a positive whole number of steps")
        if not self.sample_every >= 1:
            raise ValidationError(f"sample_every = {self.sample_every} < 1")


ScenarioConfig = SymbolVerifyConfig | LinearDecayConfig | AblationConfig | NonlinearRunConfig
RECORDS = {cls.kind: cls for cls in get_args(ScenarioConfig)}
KINDS = tuple(RECORDS)


_SCALARS = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@functools.cache
def _fields(cls) -> dict:
    """cls's fields by name, each with its type; postponed (string) annotations are resolved once per class."""
    fields = dataclasses.fields(cls)
    hints = get_type_hints(cls) if any(isinstance(f.type, str) for f in fields) else {}
    return {f.name: (f, hints.get(f.name, f.type)) for f in fields}


def _decode(f: dataclasses.Field, ftype, value, key: str):
    """A JSON value as the field f of type ftype: its type checked, blocks built, exponents and fit window converted.

    null is accepted only for an optional (``| None``) field; a bool is not an int, and an int is a float
    (kept as it is, so a config serializes back to the same text).  A non-finite float, alone or in the fit
    window, is refused: NaN and the infinities that ``json.loads`` reads, a literal past the float range, or a
    value of a dict given to :func:`config_from_dict`.
    """
    args = get_args(ftype)
    if value is None:
        if type(None) in args:
            return None
        raise ValidationError(f"{key} is mandatory, got null" if f.default is dataclasses.MISSING else f"{key} must not be null")
    tp = next((a for a in args if a is not type(None)), ftype)  # an optional block is a block
    if any(isinstance(v, float) and not math.isfinite(v) for v in (value if isinstance(value, list) else [value])):
        spelling = ' (an exponent\'s infinity is spelled "inf")' if tp is Exponent else ""
        raise ValidationError(f"{key} must be finite, got {value!r}{spelling}")
    if dataclasses.is_dataclass(tp):
        return _build(tp, value, f"block '{key}'")
    if tp is Exponent:
        if value == "inf":
            return np.inf
        if not (_is_number(value) and value >= 1):
            raise ValidationError(f"exponent {key} must be a number of at least 1 or 'inf', got {value!r}")
        return float(value)
    if tp is tuple:
        if not (isinstance(value, list) and len(value) == 2 and all(map(_is_number, value))):
            raise ValidationError(f"{key} must be a [lo, hi] pair")
        return (float(value[0]), float(value[1]))
    if not (_is_number(value) if tp is float else isinstance(value, tp) and isinstance(value, bool) == (tp is bool)):
        raise ValidationError(f"{key} must be {_SCALARS[tp]}, got {value!r}")
    return value


def _build(cls, raw, label: str):
    """The record cls from a JSON object: an unknown key, then a missing one, is an error, and so is a
    ConstraintViolation of cls's constructor."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{label} must be an object")
    fields = _fields(cls)
    for key in raw:
        if key not in fields:
            raise ValidationError(f"unknown key '{key}' for {label}")
    for name, (f, _) in fields.items():
        if f.default is dataclasses.MISSING and name not in raw:
            raise ValidationError(f"{label} requires key '{name}'")
    values = {key: _decode(*fields[key], value, key) for key, value in raw.items()}
    try:
        return cls(**values)
    except ConstraintViolation as exc:
        raise ValidationError(f"{label}: {exc}") from exc


def _encode_value(v):
    if isinstance(v, float) and np.isinf(v):
        return "inf"
    if isinstance(v, tuple):
        return list(v)
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, np.integer):
        return int(v)
    return v


def config_from_dict(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ValidationError("config root must be an object")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ValidationError(f"kind must be one of {KINDS}, got {kind!r}")
    return _build(RECORDS[kind], {key: value for key, value in raw.items() if key != "kind"}, f"kind '{kind}'")


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """kind, then every option in key order; a block keeps its field order, and a None (unset) is left out."""
    out = {"kind": cfg.kind}
    for key, value in sorted(asdict(cfg).items()):
        if isinstance(value, dict):
            out[key] = {k: _encode_value(v) for k, v in value.items() if v is not None}
        elif value is not None:
            out[key] = _encode_value(value)
    return out


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario config from JSON text."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    return config_from_dict(raw)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical JSON text; parse(serialize(cfg)) == cfg."""
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=False) + "\n"


@dataclass(frozen=True)
class SweepConfig:
    """``scenarios``: (name, config) pairs in file order; an entry whose config failed validation holds its
    ValidationError in place of the config, so it becomes that scenario's error outcome and the others still run."""

    scenarios: tuple


def parse_sweep_config(text: str) -> SweepConfig:
    """Parse a sweep file; a malformed file (its root, the scenarios list or an entry's keys) is an error."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"sweep config is not valid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    if not isinstance(raw, dict):
        raise ValidationError("sweep config root must be an object")
    for key in raw:
        if key != "scenarios":
            raise ValidationError(f"unknown key '{key}' in sweep config")
    entries = raw.get("scenarios")
    if not isinstance(entries, list) or not entries:
        raise ValidationError("sweep config needs a non-empty 'scenarios' list")
    out = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "name" not in entry or "config" not in entry:
            raise ValidationError(f"scenario #{i} must be an object with 'name' and 'config'")
        for key in entry:
            if key not in ("name", "config"):
                raise ValidationError(f"unknown key '{key}' in scenario #{i}")
        try:
            cfg = config_from_dict(entry["config"])
        except ValidationError as exc:
            cfg = exc
        out.append((str(entry["name"]), cfg))
    return SweepConfig(scenarios=tuple(out))
