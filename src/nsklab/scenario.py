"""Scenario configuration: strict JSON schema, lossless round trip.

The config format is a JSON tree with one block per concern.  Unknown keys
anywhere in the tree are errors (no silent typos); "inf" is the spelling of
an infinite exponent.  parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParseError, ValidationError

KINDS = ("symbol-verify", "linear-decay", "ablation", "nonlinear-run")

DATA_KINDS = (
    "riesz_divergence",
    "riesz_generic",
    "scalar_riesz",
    "curl_mixture",
    "transverse_packet",
)


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
    p: float = np.inf
    q: float = 2.0
    j: int = 0


@dataclass(frozen=True)
class NonlinearExponentsBlock:
    p: float = 4.0
    q1: float = 2.5
    q2: float = 15.0
    tau: float = 0.35


@dataclass(frozen=True)
class NonlinearInitBlock:
    theta_width: float = 2.0
    m_envelope_width: float = 2.0
    m_smooth_width: float = 1.0
    m_relative_amplitude: float = 1.0


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    seed: int | None = None
    out_dir: str | None = None
    params: ParamsBlock | None = None
    grid: GridBlock | None = None
    data: DataBlock | None = None
    times: TimesBlock | None = None
    exponents: ExponentsBlock | None = None
    nonlinear_exponents: NonlinearExponentsBlock | None = None
    init: NonlinearInitBlock | None = None
    band: str = "low"
    w10: bool = False
    cutoff_eps: float | None = None
    fit_window: tuple | None = None
    trust_mode: str = "mass_radius"
    tol_exp: float = 0.1
    gap_threshold: float = 0.5
    samples_per_regime: int = 1000
    xi_scale: float = 3.0
    t_max: float = 10.0
    tol_symbol: float = 1e-10
    amplitude: float = 0.05
    t_end: float = 10.0
    dt: float = 0.1
    sample_every: int = 1
    nonlinear: bool = True


_REQUIRED = {
    "symbol-verify": ("seed",),
    "linear-decay": ("seed", "params", "grid", "data", "times", "exponents", "fit_window"),
    "ablation": ("seed", "params", "grid", "data", "times", "exponents", "fit_window"),
    "nonlinear-run": ("seed", "params", "grid"),
}

_ALLOWED = {
    "symbol-verify": {"kind", "seed", "out_dir", "samples_per_regime", "xi_scale", "t_max", "tol_symbol"},
    "linear-decay": {
        "kind",
        "seed",
        "out_dir",
        "params",
        "grid",
        "data",
        "times",
        "exponents",
        "band",
        "w10",
        "cutoff_eps",
        "fit_window",
        "trust_mode",
        "tol_exp",
    },
    "ablation": {
        "kind",
        "seed",
        "out_dir",
        "params",
        "grid",
        "data",
        "times",
        "exponents",
        "cutoff_eps",
        "fit_window",
        "trust_mode",
        "tol_exp",
        "gap_threshold",
    },
    "nonlinear-run": {
        "kind",
        "seed",
        "out_dir",
        "params",
        "grid",
        "nonlinear_exponents",
        "init",
        "amplitude",
        "t_end",
        "dt",
        "sample_every",
        "nonlinear",
    },
}

_BLOCK_TYPES = {
    "params": ParamsBlock,
    "grid": GridBlock,
    "data": DataBlock,
    "times": TimesBlock,
    "exponents": ExponentsBlock,
    "nonlinear_exponents": NonlinearExponentsBlock,
    "init": NonlinearInitBlock,
}


def _decode_exponent(v):
    if isinstance(v, str):
        if v == "inf":
            return np.inf
        raise ValidationError(f"exponent must be a number or 'inf', got '{v}'")
    return float(v)


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


def _build_block(name: str, cls, raw: dict):
    if not isinstance(raw, dict):
        raise ValidationError(f"block '{name}' must be an object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key in raw:
        if key not in fields:
            raise ValidationError(f"unknown key '{key}' in block '{name}'")
    kwargs = {}
    for key, value in raw.items():
        if name in ("exponents", "nonlinear_exponents") and key in ("p", "q", "q1", "q2"):
            kwargs[key] = _decode_exponent(value)
        else:
            kwargs[key] = value
    missing = [
        f.name
        for f in fields.values()
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING and f.name not in kwargs
    ]
    if missing:
        raise ValidationError(f"block '{name}' is missing required keys: {', '.join(missing)}")
    return cls(**kwargs)


def config_from_dict(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ValidationError("config root must be an object")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ValidationError(f"kind must be one of {KINDS}, got {kind!r}")
    allowed = _ALLOWED[kind]
    for key in raw:
        if key not in allowed:
            raise ValidationError(f"unknown key '{key}' for kind '{kind}'")
    for req in _REQUIRED[kind]:
        if req not in raw:
            raise ValidationError(f"kind '{kind}' requires key '{req}'")
    kwargs = {"kind": kind}
    for key, value in raw.items():
        if key == "kind":
            continue
        if key in _BLOCK_TYPES:
            kwargs[key] = _build_block(key, _BLOCK_TYPES[key], value)
        elif key == "fit_window":
            if not (isinstance(value, list) and len(value) == 2):
                raise ValidationError("fit_window must be a [lo, hi] pair")
            kwargs[key] = (float(value[0]), float(value[1]))
        else:
            kwargs[key] = value
    cfg = ScenarioConfig(**kwargs)
    if cfg.trust_mode not in ("mass_radius", "edge_leak"):
        raise ValidationError(f"trust_mode must be 'mass_radius' or 'edge_leak', got '{cfg.trust_mode}'")
    if cfg.band not in ("low", "high", "full"):
        raise ValidationError(f"band must be low, high or full, got '{cfg.band}'")
    if cfg.seed is None:
        raise ValidationError("seed is mandatory (determinism contract)")
    return cfg


def config_to_dict(cfg: ScenarioConfig) -> dict:
    out = {"kind": cfg.kind}
    allowed = _ALLOWED[cfg.kind]
    d = asdict(cfg)
    defaults = {f.name: f.default for f in dataclasses.fields(ScenarioConfig)}
    for key in sorted(allowed - {"kind"}):
        value = d.get(key)
        if value is None and defaults.get(key) is None:
            continue
        if isinstance(value, dict):
            out[key] = {k: _encode_value(v) for k, v in value.items() if v is not None}
        else:
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
