"""Scenario configuration: strict JSON schema, lossless round trip.

The config format is a JSON tree with one block per concern.  Each scenario
kind has one frozen record (:class:`SymbolVerifyConfig`,
:class:`LinearDecayConfig`, :class:`AblationConfig`,
:class:`NonlinearRunConfig`), and the records are the schema: a record's
fields are the keys its kind accepts, and the fields without a default are
the keys it requires.  A field whose type is a block record is a nested
object, parsed the same way.  Unknown keys anywhere in the tree are errors
(no silent typos); "inf" is the spelling of an infinite exponent.
parse -> serialize -> parse is the identity.
"""

# Annotations are evaluated here (no ``from __future__ import annotations``):
# `_build` decodes each value by its field's type.
import dataclasses
import json
from dataclasses import asdict, dataclass
from typing import ClassVar, NewType, get_args

import numpy as np

from .analysis import TOL_EXP
from .errors import ParseError, ValidationError

DATA_KINDS = ("riesz_divergence", "riesz_generic", "scalar_riesz", "curl_mixture", "transverse_packet")

Exponent = NewType("Exponent", float)  # a Lebesgue exponent; JSON spells infinity "inf"


@dataclass(frozen=True)
class ParamsBlock:
    mu: float
    nu: float
    kappa: float
    rho_ref: float
    pressure_k: float = 1.0


@dataclass(frozen=True)
class GridBlock:
    dim: int
    n: int
    box_len: float


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


@dataclass(frozen=True, kw_only=True)
class _DecayConfig(_Record):
    """The keys the two decay-fit kinds share."""

    params: ParamsBlock
    grid: GridBlock
    data: DataBlock
    times: TimesBlock
    exponents: ExponentsBlock
    fit_window: tuple
    cutoff_eps: float | None = None
    trust_mode: str = "mass_radius"
    tol_exp: float = TOL_EXP

    def __post_init__(self):
        super().__post_init__()
        if self.trust_mode not in ("mass_radius", "edge_leak"):
            raise ValidationError(f"trust_mode must be 'mass_radius' or 'edge_leak', got '{self.trust_mode}'")


@dataclass(frozen=True, kw_only=True)
class LinearDecayConfig(_DecayConfig):
    kind: ClassVar[str] = "linear-decay"
    band: str = "low"
    w10: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.band not in ("low", "high", "full"):
            raise ValidationError(f"band must be low, high or full, got '{self.band}'")


@dataclass(frozen=True, kw_only=True)
class AblationConfig(_DecayConfig):
    """The ablation builds its own Riesz pair, so riesz_divergence is the one data kind it takes."""

    kind: ClassVar[str] = "ablation"
    gap_threshold: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        if self.data.kind != "riesz_divergence":
            raise ValidationError(f"ablation data kind must be 'riesz_divergence', got '{self.data.kind}'")


@dataclass(frozen=True, kw_only=True)
class NonlinearRunConfig(_Record):
    kind: ClassVar[str] = "nonlinear-run"
    params: ParamsBlock
    grid: GridBlock
    nonlinear_exponents: NonlinearExponentsBlock | None = None
    init: NonlinearInitBlock | None = None
    amplitude: float = 0.05
    t_end: float = 10.0
    dt: float = 0.1
    sample_every: int = 1
    nonlinear: bool = True


ScenarioConfig = SymbolVerifyConfig | LinearDecayConfig | AblationConfig | NonlinearRunConfig
RECORDS = {cls.kind: cls for cls in get_args(ScenarioConfig)}
KINDS = tuple(RECORDS)


_SCALARS = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _decode(f: dataclasses.Field, value, key: str):
    """A JSON value as the field f: its type checked, blocks built, exponents and the fit window converted.

    null is accepted only for an optional (``| None``) field; a bool is not an int, and an int is a float
    (kept as it is, so a config serializes back to the same text).
    """
    args = get_args(f.type)
    if value is None:
        if type(None) in args:
            return None
        raise ValidationError(f"{key} is mandatory, got null" if f.default is dataclasses.MISSING else f"{key} must not be null")
    tp = next((a for a in args if a is not type(None)), f.type)  # an optional block is a block
    if dataclasses.is_dataclass(tp):
        return _build(tp, value, f"block '{key}'")
    if tp is Exponent:
        if value == "inf":
            return np.inf
        if not _is_number(value):
            raise ValidationError(f"exponent must be a number or 'inf', got {value!r}")
        return float(value)
    if tp is tuple:
        if not (isinstance(value, list) and len(value) == 2 and all(map(_is_number, value))):
            raise ValidationError(f"{key} must be a [lo, hi] pair")
        return (float(value[0]), float(value[1]))
    if not (_is_number(value) if tp is float else isinstance(value, tp) and isinstance(value, bool) == (tp is bool)):
        raise ValidationError(f"{key} must be {_SCALARS[tp]}, got {value!r}")
    return value


def _build(cls, raw, label: str):
    """The record cls from a JSON object: an unknown key, then a missing one, is an error."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{label} must be an object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key in raw:
        if key not in fields:
            raise ValidationError(f"unknown key '{key}' for {label}")
    for name, f in fields.items():
        if f.default is dataclasses.MISSING and name not in raw:
            raise ValidationError(f"{label} requires key '{name}'")
    return cls(**{key: _decode(fields[key], value, key) for key, value in raw.items()})


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
    scenarios: tuple


def parse_sweep_config(text: str) -> SweepConfig:
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
        out.append((str(entry["name"]), config_from_dict(entry["config"])))
    return SweepConfig(scenarios=tuple(out))
