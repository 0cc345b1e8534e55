import dataclasses
import json
import multiprocessing
import os
import re
import runpy
import subprocess
import sys
import tempfile
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import nsklab.runner as runner_mod
from nsklab.analysis import NormSeries, fit_decay
from nsklab.errors import NumericsWarning, ParseError, ValidationError
from nsklab.fields import DATA_DIMS
from nsklab.model import Grid
from nsklab.runner import run_scenario, run_sweep
from nsklab.scenario import (
    DATA_KINDS,
    KINDS,
    RECORDS,
    TimesBlock,
    config_from_dict,
    config_to_dict,
    parse_config,
    parse_sweep_config,
    serialize_config,
)


def minimal_linear_decay(seed=11):
    return {
        "kind": "linear-decay",
        "seed": seed,
        "params": {"mu": 1.0, "nu": 0.8, "kappa": 0.7875, "rho_ref": 1.0},
        "grid": {"dim": 2, "n": 32, "box_len": 24.0},
        "data": {"kind": "riesz_divergence", "gamma": 1.0, "amplitude": 1.0},
        "times": {"t_min": 0.5, "t_max": 8.0, "count": 10},
        "exponents": {"p": "inf", "q": 2.0, "j": 0},
        "band": "low",
        "fit_window": [1.0, 6.0],
        "trust_mode": "edge_leak",
    }


def minimal_nonlinear(seed=5):
    return {
        "kind": "nonlinear-run",
        "seed": seed,
        "params": {"mu": 1.0, "nu": 1.0, "kappa": 1.0, "rho_ref": 1.0, "pressure_k": 0.5},
        "grid": {"dim": 2, "n": 16, "box_len": 8.0},
        "amplitude": 0.02,
        "t_end": 0.5,
        "dt": 0.1,
    }


def generated_config(kind, rng):
    """A random raw config of the given kind: every required key, each optional key with probability 1/2.

    Keys come from the kind's record, the grid first, then in sorted order; a fit window is drawn after the times, over
    at least 3 of them.  Values the grid limits are drawn within them: the data kinds built in its dim, gamma under
    dim, a support radius up to half the box, and a cutoff whose low band holds the least nonzero |xi|, 2 pi / box_len.
    """

    def num(lo=0.01, hi=50.0):
        return float(rng.uniform(lo, hi))

    def exponent():  # a finite exponent is at least 1
        return "inf" if rng.random() < 0.3 else float(rng.uniform(1.0, 50.0))

    def maybe(block, **optional):
        block.update({key: value for key, value in optional.items() if rng.random() < 0.5})
        return block

    def data_kind():  # the ablation takes riesz_divergence only; the draw is made anyway, so later keys keep theirs
        drawn = str(rng.choice([k for k in DATA_KINDS if raw["grid"]["dim"] in DATA_DIMS.get(k, (raw["grid"]["dim"],))]))
        return "riesz_divergence" if kind == "ablation" else drawn

    values = {
        "seed": lambda: int(rng.integers(0, 2**31)),
        "out_dir": lambda: f"out/{int(rng.integers(1000))}",
        "params": lambda: maybe({"mu": num(), "nu": num(), "kappa": num(), "rho_ref": num()}, pressure_k=num()),
        "grid": lambda: {"dim": int(rng.integers(1, 5)), "n": int(2 ** rng.integers(2, 8)), "box_len": num()},
        "data": lambda: maybe(
            {"kind": data_kind(), "gamma": num(0.01, 0.99) * raw["grid"]["dim"]},  # the default 1.5 is over dim 1
            amplitude=num(),
            support_radius=num(0.01, 0.5) * raw["grid"]["box_len"],
            gamma_potential=num(),
            rho_min=num(0.01, 0.3),  # under the default rho_max, and rho_max over the default rho_min
            rho_max=num(7.0, 50.0),
            width=num(),
        ),
        "times": lambda: dict(zip(("t_min", "t_max"), sorted([num(), num()])), count=int(rng.integers(3, 40))),
        "exponents": lambda: maybe({}, p=exponent(), q=exponent(), j=0 if kind == "ablation" else int(rng.integers(0, 2))),
        "nonlinear_exponents": lambda: maybe({}, p=exponent(), q1=exponent(), q2=exponent(), tau=num()),
        "init": lambda: maybe({}, theta_width=num(), m_envelope_width=num(), m_smooth_width=num(), m_relative_amplitude=num()),
        "band": lambda: str(rng.choice(["low", "high", "full"])),
        "w10": lambda: bool(rng.random() < 0.5),
        "cutoff_eps": lambda: num(1.0, 50.0) * np.pi / raw["grid"]["box_len"],
        "fit_window": lambda: None,  # drawn over the times, below
        "trust_mode": lambda: str(rng.choice(["mass_radius", "edge_leak"])),
        "tol_exp": num,
        "gap_threshold": num,
        "samples_per_regime": lambda: int(rng.integers(1, 5000)),
        "xi_scale": num,
        "t_max": num,
        "tol_symbol": num,
        "amplitude": num,
        # a run takes a whole number of steps: dt divides the default t_end, and t_end is a multiple of dt
        # (drawn first, keys being in sorted order) or of the default dt
        "t_end": lambda: raw.get("dt", 0.1) * int(rng.integers(1, 1000)),
        "dt": lambda: 10.0 / int(rng.integers(1, 1000)),
        "sample_every": lambda: int(rng.integers(1, 10)),
        "nonlinear": lambda: bool(rng.random() < 0.5),
    }
    raw = {"kind": kind}
    for field in sorted(dataclasses.fields(RECORDS[kind]), key=lambda field: (field.name != "grid", field.name)):
        if field.default is dataclasses.MISSING or rng.random() < 0.5:
            raw[field.name] = values[field.name]()
    if "fit_window" in raw:
        times = TimesBlock(**raw["times"]).values()
        lo = int(rng.integers(0, times.size - 2))
        raw["fit_window"] = [float(times[lo]), float(times[rng.integers(lo + 2, times.size)])]
    return raw


# The keys each kind accepts and requires, spelled out; a change to a record's fields must show here.
SCHEMA = {
    "symbol-verify": ({"kind", "seed", "out_dir", "samples_per_regime", "xi_scale", "t_max", "tol_symbol"}, {"seed"}),
    "linear-decay": (
        {"kind", "seed", "out_dir", "params", "grid", "data", "times", "exponents", "band", "w10", "cutoff_eps"}
        | {"fit_window", "trust_mode", "tol_exp"},
        {"seed", "params", "grid", "data", "times", "exponents", "fit_window"},
    ),
    "ablation": (
        {"kind", "seed", "out_dir", "params", "grid", "data", "times", "exponents", "cutoff_eps", "fit_window"}
        | {"trust_mode", "tol_exp", "gap_threshold"},
        {"seed", "params", "grid", "data", "times", "exponents", "fit_window"},
    ),
    "nonlinear-run": (
        {"kind", "seed", "out_dir", "params", "grid", "nonlinear_exponents", "init", "amplitude", "t_end", "dt"}
        | {"sample_every", "nonlinear"},
        {"seed", "params", "grid"},
    ),
}
# A grid block's keys: Grid's fields, whose order is the block's key order in every manifest and report.
GRID_KEYS = ["dim", "n", "box_len"]


DEMO_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "demos" / "configs").glob("*.json"))
BENCHMARK_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
LINEAR_DECAY_2D = Path(__file__).resolve().parents[1] / "demos" / "configs" / "linear_decay_2d.json"


def minimal_ablation(seed=11):
    raw = dict(minimal_linear_decay(seed), kind="ablation")
    del raw["band"]
    return raw


class TestParseConfig:
    def test_demo_configs_found(self):
        assert len(DEMO_CONFIGS) >= 6

    @pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda path: path.name)
    def test_demo_config_parses_and_round_trips(self, path):
        """Every shipped config is valid, a sweep scenario by scenario, and survives serialize -> parse."""
        text = path.read_text()
        if "scenarios" in json.loads(text):
            configs = [cfg for _, cfg in parse_sweep_config(text).scenarios]
        else:
            configs = [parse_config(text)]
        for cfg in configs:
            assert parse_config(serialize_config(cfg)) == cfg
    def test_minimal_valid_with_defaults_echoed(self):
        cfg = parse_config(json.dumps(minimal_linear_decay()))
        assert cfg.kind == "linear-decay"
        assert cfg.tol_exp == 0.1  # default filled
        text = serialize_config(cfg)
        assert '"tol_exp": 0.1' in text  # defaults echoed on serialization

    def test_unknown_key_rejected(self):
        raw = minimal_linear_decay()
        raw["params"]["kapa_star"] = 1.0
        with pytest.raises(ValidationError, match="unknown key 'kapa_star'"):
            config_from_dict(raw)

    def test_unknown_top_level_key(self):
        raw = minimal_linear_decay()
        raw["bogus"] = 1
        with pytest.raises(ValidationError, match="unknown key 'bogus'"):
            config_from_dict(raw)

    def test_round_trip_identity(self):
        cfg = parse_config(json.dumps(minimal_linear_decay()))
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        cfg2 = parse_config(json.dumps(minimal_nonlinear()))
        assert parse_config(serialize_config(cfg2)) == cfg2

    @pytest.mark.parametrize("kind", KINDS)
    def test_round_trip_identity_on_generated_configs(self, kind):
        """parse(serialize(cfg)) == cfg over random configs of every scenario kind."""
        rng = np.random.default_rng(sum(map(ord, kind)))
        for _ in range(40):
            cfg = config_from_dict(generated_config(kind, rng))
            assert parse_config(serialize_config(cfg)) == cfg

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_config("{ not json }")
        assert err.value.line == 1
        assert err.value.column is not None

    def test_seed_mandatory(self):
        raw = minimal_linear_decay()
        del raw["seed"]
        with pytest.raises(ValidationError, match="seed"):
            config_from_dict(raw)

    @pytest.mark.parametrize("kind", KINDS)
    def test_null_seed_rejected(self, kind):
        raw = generated_config(kind, np.random.default_rng(3))
        raw["seed"] = None
        with pytest.raises(ValidationError, match="seed is mandatory"):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("samples_per_regime", "many", "samples_per_regime must be an integer, got 'many'"),
            ("samples_per_regime", True, "samples_per_regime must be an integer, got True"),
            ("samples_per_regime", 2.0, "samples_per_regime must be an integer, got 2.0"),
            ("xi_scale", "3", "xi_scale must be a number, got '3'"),
            ("xi_scale", False, "xi_scale must be a number, got False"),
            ("out_dir", 7, "out_dir must be a string, got 7"),
        ],
    )
    def test_wrong_scalar_type_rejected_at_parse_time(self, key, value, message):
        """A value of the wrong type is a ValidationError when the config is parsed, not a TypeError in the run."""
        with pytest.raises(ValidationError, match=message):
            config_from_dict({"kind": "symbol-verify", "seed": 1, key: value})

    def test_null_only_for_optional_fields(self):
        raw = minimal_linear_decay()
        raw["tol_exp"] = None
        with pytest.raises(ValidationError, match="tol_exp must not be null"):
            config_from_dict(raw)
        raw = minimal_linear_decay()
        raw["grid"]["n"] = None
        with pytest.raises(ValidationError, match="n is mandatory, got null"):
            config_from_dict(raw)
        raw = minimal_linear_decay()
        raw["w10"] = 1
        with pytest.raises(ValidationError, match="w10 must be true or false, got 1"):
            config_from_dict(raw)
        raw = minimal_linear_decay()
        raw["cutoff_eps"] = raw["data"]["support_radius"] = raw["out_dir"] = None
        cfg = config_from_dict(raw)
        assert cfg.cutoff_eps is None and cfg.data.support_radius is None and cfg.out_dir is None

    @pytest.mark.parametrize("make", [minimal_linear_decay, minimal_ablation])
    @pytest.mark.parametrize(
        "times",
        [
            {"t_min": 0.0, "t_max": 8.0, "count": 10},
            {"t_min": -0.5, "t_max": 8.0, "count": 10},
            {"t_min": 8.0, "t_max": 0.5, "count": 10},
            {"t_min": 0.5, "t_max": 0.5, "count": 10},
            {"t_min": 0.5, "t_max": 8.0, "count": 0},
            {"t_min": 0.5, "t_max": 8.0, "count": 2},
        ],
    )
    def test_times_checked_at_parse_time(self, make, times):
        """Sample times that could not be measured and fitted are a ValidationError when the config is parsed, not a
        numpy ValueError or a WindowUncovered once the series has run."""
        with pytest.raises(ValidationError, match=r"times need 0 < t_min < t_max and count >= 3"):
            config_from_dict(dict(make(), times=times))

    @pytest.mark.parametrize("key, value", [("samples_per_regime", 0), ("samples_per_regime", -3), ("t_max", 0.0), ("t_max", -1.0)])
    def test_symbol_verify_counts_checked_at_parse_time(self, key, value):
        """A symbol check of no samples would pass having tested nothing, and a negative count or t_max <= 0 would fail
        in numpy after the manifest is written: each is a ValidationError when the config is parsed."""
        with pytest.raises(ValidationError, match=r"samples_per_regime >= 1 and t_max > 0"):
            config_from_dict({"kind": "symbol-verify", "seed": 1, key: value})

    @pytest.mark.parametrize("make, j", [(minimal_linear_decay, 2), (minimal_linear_decay, -1), (minimal_ablation, 1), (minimal_ablation, 2)])
    def test_derivative_order_checked_at_parse_time(self, make, j):
        """A linear-decay measures j = 0 or 1 and the ablation measures theta itself (j = 0); any other j would build the
        datum before failing, or fit the ablation's theta series against the rate of a derivative."""
        raw = make()
        raw["exponents"]["j"] = j
        with pytest.raises(ValidationError, match=r"\bj\b"):
            config_from_dict(raw)
        raw["exponents"]["j"] = 0
        assert config_from_dict(raw).exponents.j == 0

    @pytest.mark.parametrize("make", [minimal_linear_decay, minimal_ablation])
    @pytest.mark.parametrize("eps", [0.0, 0, -0.5])
    def test_cutoff_eps_checked_at_parse_time(self, make, eps):
        """A cutoff_eps of 0 or below is a ValidationError, not the default cutoff run under a manifest that echoes
        it; a positive one is the cutoff the run reports."""
        with pytest.raises(ValidationError, match=r"cutoff_eps must be > 0"):
            config_from_dict(dict(make(), cutoff_eps=eps))
        cfg = config_from_dict(dict(make(), cutoff_eps=0.5))
        assert cfg.cutoff().eps == 0.5

    @pytest.mark.parametrize("make", [minimal_linear_decay, minimal_ablation])
    @pytest.mark.parametrize("window", [[0.0, 6.0], [-1.0, 6.0], [6.0, 1.0], [3.0, 3.0]])
    def test_fit_window_checked_at_parse_time(self, make, window):
        with pytest.raises(ValidationError, match=r"fit_window needs 0 < lo < hi"):
            config_from_dict(dict(make(), fit_window=window))

    @pytest.mark.parametrize("make", [minimal_linear_decay, minimal_ablation])
    @pytest.mark.parametrize("window, inside", [([9.0, 12.0], 0), ([1.0, 1.2], 0), ([6.0, 8.0], 1), ([4.4, 8.0], 2)])
    def test_fit_window_without_three_samples_refused_at_parse_time(self, make, window, inside):
        """A window past t_max, between two samples or holding fewer than the 3 samples a fit needs is a
        ValidationError when the config is parsed, not a WindowUncovered once the whole series is measured."""
        with pytest.raises(ValidationError, match=rf"fit_window \[.*\] holds {inside} of the sample times, a fit needs 3"):
            config_from_dict(dict(make(), fit_window=window))

    def test_fit_window_counts_samples_as_the_fit_does(self):
        """The parse-time count uses the fit's own window rule: a window whose ends sit within 1e-12 inside the
        first and last of 3 sample times holds all 3, as fit_decay's window does."""
        raw = minimal_linear_decay()
        times = TimesBlock(**raw["times"]).values()
        cfg = config_from_dict(dict(raw, fit_window=[times[7] + 5e-13, times[9] - 5e-13]))
        series = NormSeries(times=times, values=times**-1.0)
        assert fit_decay(series, cfg.fit_window, dim=2, p=np.inf, q=2.0, j=0).n_samples == 3
        with pytest.raises(ValidationError, match="holds 2 of the sample times"):
            config_from_dict(dict(raw, fit_window=[times[7] + 2e-12, times[9]]))

    @pytest.mark.parametrize(
        "block, key, literal, value",
        [
            ("grid", "box_len", "Infinity", "inf"),
            ("data", "amplitude", "NaN", "nan"),
            (None, "tol_exp", "NaN", "nan"),
            ("data", "amplitude", "-Infinity", "-inf"),
            (None, "tol_exp", "1e309", "inf"),
        ],
    )
    def test_non_finite_number_refused(self, block, key, literal, value):
        """json.loads reads NaN, Infinity, -Infinity and a literal past the float range as non-finite numbers; a config
        holding one is a ValidationError that names its key (a NaN tol_exp would fail every verdict without an error),
        and in a sweep it is the error of its own entry, while the other entries parse."""
        demo = LINEAR_DECAY_2D.read_text()
        raw = json.loads(demo)
        (raw[block] if block else raw)[key] = "@"
        text = json.dumps(raw).replace('"@"', literal)
        message = f"{key} must be finite, got {value}"
        with pytest.raises(ValidationError, match=message):
            parse_config(text)
        (_, bad), (_, good) = parse_sweep_config(f'{{"scenarios": [{{"name": "a", "config": {text}}}, {{"name": "b", "config": {demo}}}]}}').scenarios
        assert isinstance(bad, ValidationError) and message in str(bad)
        assert good == parse_config(demo)
        parse_config(text.replace(literal, "1.5"))  # the same config with a finite number parses

    @pytest.mark.parametrize(
        "block, key, value, message",
        [
            ("data", "amplitude", float("nan"), "amplitude must be finite, got nan"),
            (None, "tol_exp", float("inf"), "tol_exp must be finite, got inf"),
            ("exponents", "p", float("inf"), 'p must be finite, got inf (an exponent\'s infinity is spelled "inf")'),
            ("params", "mu", np.float64("-inf"), "mu must be finite, got"),
            (None, "fit_window", [5.0, float("inf")], "fit_window must be finite, got [5.0, inf]"),
        ],
    )
    def test_non_finite_value_refused_by_config_from_dict(self, block, key, value, message):
        """A dict given to config_from_dict is held to the rule JSON text is: a non-finite number, an exponent or an
        entry of the fit window included, is a ValidationError that names its key."""
        raw = json.loads(LINEAR_DECAY_2D.read_text())
        (raw[block] if block else raw)[key] = value
        with pytest.raises(ValidationError) as err:
            config_from_dict(raw)
        assert message in str(err.value)

    @pytest.mark.parametrize("key", ["theta_width", "m_envelope_width", "m_smooth_width"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_init_widths_checked_at_parse_time(self, key, value):
        """A Gaussian width of 0 or below is a ValidationError that names its key when the config is parsed, not a
        ConstraintViolation once the run builds its datum, after its manifest is written."""
        with pytest.raises(ValidationError, match=f"block 'init': {key} must be > 0, got {value}"):
            config_from_dict(dict(minimal_nonlinear(), init={key: value}))

    @pytest.mark.parametrize(
        "kind, change, message",
        [
            ("linear-decay", {"cutoff_eps": 1e-4}, "cutoff_eps 0.0001 leaves the low band empty"),
            ("ablation", {"cutoff_eps": 1e-4}, "cutoff_eps 0.0001 leaves the low band empty"),
            ("linear-decay", {"grid": {"dim": 2, "n": 2, "box_len": 96.0}}, "(the default) leaves the low band empty"),
            ("linear-decay", {"data": {"kind": "riesz_divergence", "gamma": 3.0}}, "gamma needs 0 < gamma < dim = 2, got 3.0"),
            ("linear-decay", {"data": {"kind": "scalar_riesz", "gamma": 0.0}}, "gamma needs 0 < gamma < dim = 2, got 0.0"),
            ("ablation", {"data": {"kind": "riesz_divergence", "support_radius": 60.0}}, "support_radius needs 0 < support_radius <= box_len / 2 = 48, got 60.0"),
            ("linear-decay", {"data": {"kind": "riesz_generic", "support_radius": 0.0}}, "support_radius needs 0 < support_radius <= box_len / 2 = 48, got 0.0"),
            ("linear-decay", {"data": {"kind": "curl_mixture", "rho_min": 5.0, "rho_max": 3.0}}, "need 0 < rho_min < rho_max, got 5.0 and 3.0"),
            ("linear-decay", {"grid": {"dim": 1, "n": 64, "box_len": 96.0}, "data": {"kind": "curl_mixture"}}, "curl_mixture data needs dim in (2, 3), got dim 1"),
            ("linear-decay", {"grid": {"dim": 4, "n": 4, "box_len": 96.0}, "data": {"kind": "curl_mixture"}}, "curl_mixture data needs dim in (2, 3), got dim 4"),
            ("linear-decay", {"grid": {"dim": 1, "n": 64, "box_len": 96.0}, "data": {"kind": "transverse_packet"}}, "transverse_packet data needs dim in (2, 3, 4), got dim 1"),
        ],
    )
    def test_data_and_cutoff_checked_against_the_grid_at_parse_time(self, kind, change, message):
        """A cutoff that empties the low band and data their generator refuses on the grid are a ValidationError naming
        the key when the config is parsed, not an EmptyLowBand or a generator's error once the run has written its
        manifest (and, for the cutoff, built its datum).  The checks read the generators' own limits, and the grid of
        a config that passes them caches no table: a sweep holds every entry's config, and a pool pickles it."""
        raw = dict(json.loads(LINEAR_DECAY_2D.read_text()), kind=kind, grid={"dim": 2, "n": 64, "box_len": 96.0})
        if kind == "ablation":
            del raw["band"]
        with pytest.raises(ValidationError, match=re.escape(message)):
            config_from_dict(raw | change)
        assert set(vars(config_from_dict(raw).grid)) == {"dim", "n", "box_len"}  # the checks cached no table on it

    def test_full_band_needs_no_low_band(self):
        """A linear-decay of the full band splits nothing off, so any positive cutoff_eps parses for it."""
        raw = dict(json.loads(LINEAR_DECAY_2D.read_text()), band="full", cutoff_eps=1e-4)
        assert config_from_dict(raw).cutoff().eps == 1e-4
        with pytest.raises(ValidationError, match="leaves the low band empty"):
            config_from_dict(dict(raw, band="high"))

    def test_zero_amplitude_decay_is_a_skip(self, tmp_path):
        """A linear-decay of zero initial data has no decay to fit: it is skipped with its reason, as the ablation's
        zero datum is, not a NonPositiveSeries error once the whole series is measured."""
        raw = minimal_linear_decay()
        raw["data"]["amplitude"] = 0.0
        outcome = run_scenario(config_from_dict(raw), tmp_path)
        assert outcome.status == "fail" and outcome.report["decay"] is None
        assert outcome.report["skipped"] is True
        assert outcome.report["reason"] == "no fit: series must be strictly positive on the fit window"

    @pytest.mark.parametrize("seed", [42, 1201])
    def test_benchmark_workload_configs_parse(self, seed):
        """Every workload config of the benchmark is a valid config, at its default seed and another; the workloads
        file is run from its source, so nothing is written next to it."""
        workloads = runpy.run_path(str(BENCHMARK_WORKLOADS))["WORKLOADS"]
        assert workloads
        for name, workload in workloads.items():
            assert config_from_dict(workload["config"](seed)).seed == seed, name

    def test_int_accepted_for_float_and_kept(self):
        """A JSON int in a float field parses unconverted, so the config serializes back to the same text."""
        raw = minimal_linear_decay()
        raw["params"]["mu"] = 1
        raw["fit_window"] = [1, 6]
        cfg = config_from_dict(raw)
        assert type(cfg.params.mu) is int and cfg.fit_window == (1.0, 6.0)
        assert '"mu": 1,' in serialize_config(cfg)
        assert config_from_dict(json.loads(serialize_config(cfg))) == cfg
        for window in ([1.0, "6"], [True, 6.0]):
            raw["fit_window"] = window
            with pytest.raises(ValidationError, match=r"fit_window must be a \[lo, hi\] pair"):
                config_from_dict(raw)
        raw = minimal_linear_decay()
        raw["exponents"]["q"] = None
        with pytest.raises(ValidationError, match="q must not be null"):
            config_from_dict(raw)

    @pytest.mark.parametrize("kind", KINDS)
    def test_record_fields_are_the_schema(self, kind):
        """A kind's record accepts exactly its pinned keys, and requires the fields without a default; a grid block
        holds Grid's fields, in their order."""
        accepted, required = SCHEMA[kind]
        fields = dataclasses.fields(RECORDS[kind])
        assert RECORDS[kind].kind == kind
        assert {field.name for field in fields} | {"kind"} == accepted
        assert {field.name for field in fields if field.default is dataclasses.MISSING} == required
        if "grid" in accepted:
            assert [field.name for field in dataclasses.fields(Grid)] == GRID_KEYS
            cfg = config_from_dict(generated_config(kind, np.random.default_rng(0)))
            assert isinstance(cfg.grid, Grid)
            assert list(config_to_dict(cfg)["grid"]) == GRID_KEYS

    @pytest.mark.parametrize("make", [minimal_linear_decay, minimal_ablation, minimal_nonlinear])
    @pytest.mark.parametrize(
        "grid, message",
        [
            ({"n": 12}, "n must be a power of two"),
            ({"n": 1}, "n must be a power of two"),
            ({"box_len": -1.0}, "box_len > 0"),
            ({"box_len": 0}, "box_len > 0"),
            ({"dim": 0}, "1 <= dim <= 4"),
            ({"dim": 5}, "1 <= dim <= 4"),
        ],
    )
    def test_grid_checked_at_parse_time(self, make, grid, message):
        """The grid block is a Grid: a grid it refuses is a ValidationError when the config is parsed, not an
        error of the run once its manifest is written."""
        raw = make()
        raw["grid"].update(grid)
        with pytest.raises(ValidationError, match=f"block 'grid': {message}"):
            config_from_dict(raw)

    @pytest.mark.parametrize("make", [minimal_linear_decay, minimal_ablation, minimal_nonlinear])
    @pytest.mark.parametrize(
        "params, message",
        [
            ({"mu": 0.0}, r"mu_star > 0"),
            ({"mu": -1.0}, r"mu_star > 0"),
            ({"nu": -1.0}, r"mu_star \+ nu_star > 0"),
            ({"nu": -2.0}, r"mu_star \+ nu_star > 0"),
            ({"kappa": 0.0}, r"kappa_star > 0"),
            ({"kappa": -0.5}, r"kappa_star > 0"),
            ({"rho_ref": 0.0}, r"rho_ref must be > 0, got 0.0"),
            ({"rho_ref": -1.0}, r"rho_ref must be > 0, got -1.0"),
        ],
    )
    def test_params_checked_at_parse_time(self, make, params, message):
        """The params block builds its FluidParams when it is made: constants they refuse are a ValidationError
        when the config is parsed (rho_ref <= 0 is named before the pressure law built from it is checked)."""
        raw = make()
        raw["params"].update(params)
        with pytest.raises(ValidationError, match=f"block 'params': {message}"):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "keys",
        [
            {"t_end": 1.0, "dt": 0.3},
            {"t_end": 0.25, "dt": 0.1},
            {"t_end": 0.0, "dt": 0.1},
            {"t_end": -0.2, "dt": 0.1},
            {"t_end": 0.3, "dt": 0.0},
            {"t_end": 0.3, "dt": -0.1},
        ],
    )
    def test_whole_steps_checked_at_parse_time(self, keys):
        """A nonlinear run takes a positive whole number of steps, or its config is refused when it is parsed."""
        with pytest.raises(ValidationError, match="do not make a positive whole number of steps"):
            config_from_dict(dict(minimal_nonlinear(), **keys))

    @pytest.mark.parametrize("sample_every", [0, -1])
    def test_sample_every_checked_at_parse_time(self, sample_every):
        with pytest.raises(ValidationError, match=f"sample_every = {sample_every} < 1"):
            config_from_dict(dict(minimal_nonlinear(), sample_every=sample_every))

    @pytest.mark.parametrize(
        "make, block, key, value",
        [
            (minimal_linear_decay, "exponents", "p", 0.5),
            (minimal_linear_decay, "exponents", "q", 0),
            (minimal_ablation, "exponents", "p", 0.5),
            (minimal_nonlinear, "nonlinear_exponents", "p", 0),
            (minimal_nonlinear, "nonlinear_exponents", "q1", 0),
            (minimal_nonlinear, "nonlinear_exponents", "q2", 0.99),
            (minimal_nonlinear, "nonlinear_exponents", "q1", -2.5),
        ],
    )
    def test_exponent_below_one_rejected_at_parse_time(self, make, block, key, value):
        """A Lebesgue exponent is at least 1 or "inf": one below is a ValidationError naming it when the config is
        parsed, not a ValueError naming another exponent, or a ZeroDivisionError, once the datum is built."""
        raw = make()
        raw[block] = {key: value}
        with pytest.raises(ValidationError, match=f"exponent {key} must be a number of at least 1 or 'inf', got {value}"):
            config_from_dict(raw)
        raw[block] = {key: 1}
        assert getattr(getattr(config_from_dict(raw), block), key) == 1.0

    @pytest.mark.parametrize("data_kind", [k for k in DATA_KINDS if k != "riesz_divergence"])
    def test_ablation_rejects_data_it_does_not_run(self, data_kind):
        """The ablation always builds a Riesz pair, so any other data kind is an error, not a silent substitute."""
        raw = minimal_linear_decay()
        del raw["band"]
        raw["kind"] = "ablation"
        config_from_dict(raw)
        raw["data"]["kind"] = data_kind
        with pytest.raises(ValidationError, match=f"ablation data kind must be 'riesz_divergence', got '{data_kind}'"):
            config_from_dict(raw)

    def test_infinite_exponent_round_trip(self):
        cfg = parse_config(json.dumps(minimal_linear_decay()))
        assert np.isinf(cfg.exponents.p)
        assert '"p": "inf"' in serialize_config(cfg)

    def test_missing_required_block(self):
        raw = minimal_linear_decay()
        del raw["grid"]
        with pytest.raises(ValidationError, match="requires key 'grid'"):
            config_from_dict(raw)
        raw = minimal_linear_decay()
        del raw["grid"]["n"]
        with pytest.raises(ValidationError, match="block 'grid' requires key 'n'"):
            config_from_dict(raw)

    def test_sweep_parsing(self):
        sweep = {
            "scenarios": [
                {"name": "a", "config": minimal_nonlinear(1)},
                {"name": "b", "config": minimal_nonlinear(2)},
            ]
        }
        parsed = parse_sweep_config(json.dumps(sweep))
        assert [n for n, _ in parsed.scenarios] == ["a", "b"]
        with pytest.raises(ValidationError):
            parse_sweep_config(json.dumps({"scenarios": [], "x": 1}))

    def test_sweep_entry_failing_validation_is_kept_as_its_error(self):
        """An entry whose config fails validation holds its ValidationError, so the sweep can still run the others;
        a malformed sweep file (root, scenarios list, entry keys) still fails the parse."""
        bad = minimal_linear_decay()
        bad["times"]["count"] = 2
        sweep = {"scenarios": [{"name": "a", "config": minimal_nonlinear(1)}, {"name": "bad", "config": bad}]}
        (_, good), (name, err) = parse_sweep_config(json.dumps(sweep)).scenarios
        assert good == config_from_dict(minimal_nonlinear(1))
        assert name == "bad" and isinstance(err, ValidationError) and "count >= 3" in str(err)
        for malformed in ([], {"scenarios": {}}, {"scenarios": [{"name": "a"}]}, {"scenarios": [dict(sweep["scenarios"][0], x=1)]}):
            with pytest.raises(ValidationError):
                parse_sweep_config(json.dumps(malformed))


_run_contained = runner_mod._run_contained


def toy_config(kind, rng):
    """generated_config on a toy grid (n <= 16), with at most 20 symbol samples per regime and 3 nonlinear steps."""
    raw = generated_config(kind, rng)
    if "grid" in raw:
        raw["grid"]["n"] = min(raw["grid"]["n"], 16)
    if kind == "symbol-verify":
        raw["samples_per_regime"] = min(raw.get("samples_per_regime", 1000), 20)
    if kind == "nonlinear-run":
        dt = raw.get("dt", 0.1)
        raw["t_end"] = dt * min(round(raw.get("t_end", 10.0) / dt), 3)
    return raw


# One out-of-range value per key, as (block, key) -> value from the raw config; None is the top level.
MUTATIONS = {
    (None, "seed"): lambda raw: None,
    (None, "out_dir"): lambda raw: 7,
    (None, "samples_per_regime"): lambda raw: 0,
    (None, "xi_scale"): lambda raw: float("nan"),
    (None, "t_max"): lambda raw: 0.0,
    (None, "tol_symbol"): lambda raw: float("nan"),
    ("params", "mu"): lambda raw: 0.0,
    ("params", "nu"): lambda raw: -2.0 * raw["params"]["mu"],
    ("params", "kappa"): lambda raw: 0.0,
    ("params", "rho_ref"): lambda raw: 0.0,
    ("params", "pressure_k"): lambda raw: float("inf"),
    ("grid", "dim"): lambda raw: 5,
    ("grid", "n"): lambda raw: 12,
    ("grid", "box_len"): lambda raw: 0.0,
    ("data", "kind"): lambda raw: "bogus",
    ("data", "amplitude"): lambda raw: 0.0,
    ("data", "gamma"): lambda raw: float(raw["grid"]["dim"]),
    ("data", "support_radius"): lambda raw: 0.6 * raw["grid"]["box_len"],
    ("data", "gamma_potential"): lambda raw: float("nan"),
    ("data", "rho_min"): lambda raw: 0.0,
    ("data", "rho_max"): lambda raw: 0.001,
    ("data", "width"): lambda raw: float("nan"),
    ("times", "t_min"): lambda raw: 0.0,
    ("times", "t_max"): lambda raw: -1.0,
    ("times", "count"): lambda raw: 2,
    ("exponents", "p"): lambda raw: 0.5,
    ("exponents", "q"): lambda raw: 0.5,
    ("exponents", "j"): lambda raw: 2,
    ("nonlinear_exponents", "p"): lambda raw: 0.5,
    ("nonlinear_exponents", "q1"): lambda raw: 0.5,
    ("nonlinear_exponents", "q2"): lambda raw: 0.5,
    ("nonlinear_exponents", "tau"): lambda raw: float("nan"),
    ("init", "theta_width"): lambda raw: 0.0,
    ("init", "m_envelope_width"): lambda raw: 0.0,
    ("init", "m_smooth_width"): lambda raw: 0.0,
    ("init", "m_relative_amplitude"): lambda raw: float("nan"),
    (None, "band"): lambda raw: "middle",
    (None, "w10"): lambda raw: 1,
    (None, "cutoff_eps"): lambda raw: 0.1 * np.pi / raw["grid"]["box_len"],
    (None, "fit_window"): lambda raw: [2.0 * raw["times"]["t_max"], 3.0 * raw["times"]["t_max"]],
    (None, "trust_mode"): lambda raw: "none",
    (None, "tol_exp"): lambda raw: float("nan"),
    (None, "gap_threshold"): lambda raw: float("nan"),
    (None, "amplitude"): lambda raw: 10.0,  # a nonlinear datum far outside the range condition
    (None, "t_end"): lambda raw: -1.0,
    (None, "dt"): lambda raw: 0.0,
    (None, "sample_every"): lambda raw: 0,
    (None, "nonlinear"): lambda raw: "yes",
}


def assert_runs(cfg):
    """run_scenario of cfg in a scratch directory, with its NumericsWarnings (scope notes) ignored: it returns pass or
    fail (a skip fails, with its reason), and a nonlinear run that does not succeed records why as an event."""
    with tempfile.TemporaryDirectory() as out_dir, warnings.catch_warnings():
        warnings.simplefilter("ignore", NumericsWarning)
        outcome = run_scenario(cfg, out_dir)
    assert outcome.status in ("pass", "fail")
    if outcome.report.get("skipped"):
        assert outcome.report["reason"]
    if cfg.kind == "nonlinear-run" and not outcome.report["success"]:
        assert {event["kind"] for event in outcome.report["events"]} & {"step_rejected", "range_violation"}


# The valid toy config of each kind that a key's mutation is set in.
BASE_CONFIGS = {
    "symbol-verify": lambda: {"kind": "symbol-verify", "seed": 1, "samples_per_regime": 5},
    "linear-decay": lambda: dict(minimal_linear_decay(), grid={"dim": 2, "n": 16, "box_len": 24.0}),
    "ablation": lambda: dict(minimal_ablation(), grid={"dim": 2, "n": 16, "box_len": 24.0}),
    "nonlinear-run": minimal_nonlinear,
}
# The data kind whose generator reads a key of the data block; the Riesz kinds read the others.
DATA_KIND_OF = {"rho_min": "curl_mixture", "rho_max": "curl_mixture", "gamma_potential": "curl_mixture", "width": "transverse_packet"}


class TestParseThenRun:
    """A parsed config runs (ROADMAP item 6): parse_config refuses it with a ValidationError, or run_scenario returns
    pass, fail or a skip, a nonlinear run recording a rejected step or a range violation as an event.  No other
    exception escapes a parsed config."""

    def test_every_key_has_a_mutation(self):
        """MUTATIONS covers every key of every kind's record and of each block a record nests."""
        keys = set()
        for record in RECORDS.values():
            for name, hint in typing.get_type_hints(record).items():
                tp = next((a for a in typing.get_args(hint) if a is not type(None)), hint)  # an optional block is a block
                if name != "kind":
                    keys |= {(name, f.name) for f in dataclasses.fields(tp)} if dataclasses.is_dataclass(tp) else {(None, name)}
        assert keys == set(MUTATIONS)

    @pytest.mark.parametrize(
        "kind, block, key",
        [(kind, *mutation) for kind in KINDS for mutation in MUTATIONS if (mutation[0] or mutation[1]) in SCHEMA[kind][0]],
    )
    def test_an_out_of_range_key_is_named_or_runs(self, kind, block, key):
        """One out-of-range value of a key, set in a toy config of each kind that takes the key (a linear-decay's data
        of the kind whose generator reads it), is refused by a ValidationError that names the key, or the config runs:
        a zero data amplitude is a skip, and a nonlinear datum outside the range condition a recorded event."""
        raw = BASE_CONFIGS[kind]()
        if kind == "linear-decay" and block == "data":
            raw["data"]["kind"] = DATA_KIND_OF.get(key, "riesz_divergence")
        (raw.setdefault(block, {}) if block else raw)[key] = MUTATIONS[block, key](raw)
        try:
            cfg = parse_config(json.dumps(raw))
        except ValidationError as exc:
            assert key in str(exc)
        else:
            assert_runs(cfg)

    @settings(max_examples=20, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
    @given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1))
    def test_a_generated_config_runs(self, kind, seed):
        """A config generated_config draws on a toy grid parses and runs."""
        assert_runs(parse_config(json.dumps(toy_config(kind, np.random.default_rng(seed)))))


def _dies_in_its_worker(cfg, out_dir):
    """runner._run_contained, except that the worker of the entry named 'dies' exits at once, as a crashed one does."""
    if out_dir.name == "dies":
        os._exit(1)
    return _run_contained(cfg, out_dir)


class TestRunScenario:
    @pytest.mark.parametrize("make, reason", [(minimal_linear_decay, "no fit: "), (minimal_ablation, "no fit of the divergence theta response: ")])
    def test_series_that_decays_past_the_float_range_is_a_skip(self, make, reason, tmp_path):
        """A decay whose norm underflows to 0 inside the fit window (rate (alpha* + beta*)/2 |xi|^2 on the
        least nonzero mode, about 175, over t >= 30) has nothing to fit: the run is skipped with its reason, not a
        NonPositiveSeries error, and a linear-decay keeps its series."""
        raw = dict(
            make(),
            params={"mu": 10.0, "nu": 10.0, "kappa": 200.0, "rho_ref": 1.0},
            grid={"dim": 1, "n": 16, "box_len": 1.5},
            data={"kind": "riesz_divergence", "gamma": 0.5},
            times={"t_min": 30.0, "t_max": 40.0, "count": 5},
            fit_window=[30.0, 40.0],
        )
        outcome = run_scenario(config_from_dict(raw), tmp_path)
        assert outcome.status == "fail" and outcome.report["skipped"] is True
        assert outcome.report["reason"] == reason + "series must be strictly positive on the fit window"
        if make is minimal_linear_decay:
            assert np.all(np.loadtxt(tmp_path / "series" / "pair_low.csv", delimiter=",", skiprows=1)[:, 1] == 0.0)

    def test_nonlinear_run_artifacts(self, tmp_path):
        cfg = config_from_dict(minimal_nonlinear())
        outcome = run_scenario(cfg, tmp_path / "run")
        assert (tmp_path / "run" / "manifest.json").exists()
        assert (tmp_path / "run" / "report.json").exists()
        assert (tmp_path / "run" / "series" / "aggregate_N.csv").exists()
        assert (tmp_path / "run" / "plots" / "aggregate_N.svg").exists()
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["pass"] is True
        assert report["config"]["kind"] == "nonlinear-run"
        assert report["version"]

    def test_determinism_bitwise_csv(self, tmp_path):
        cfg = config_from_dict(minimal_nonlinear())
        run_scenario(cfg, tmp_path / "a")
        run_scenario(cfg, tmp_path / "b")
        for name in ("aggregate_N.csv", "pair_linf_j0.csv"):
            a = (tmp_path / "a" / "series" / name).read_bytes()
            b = (tmp_path / "b" / "series" / name).read_bytes()
            assert a == b

    def test_default_trust_mode_is_mass_radius(self, tmp_path):
        """A config without trust_mode reports mass_radius, and its verdict follows the mass radii in the window:
        here they exceed a quarter of the box while the edge leakage stays under its tolerance."""
        raw = dict(minimal_linear_decay(), fit_window=[1.0, 4.0])
        del raw["trust_mode"]
        report = run_scenario(config_from_dict(raw), tmp_path / "default").report
        assert report["trust_mode"] == "mass_radius"
        rows = np.loadtxt(tmp_path / "default" / "series" / "trust_mass_radius.csv", delimiter=",", skiprows=1)
        in_window = (rows[:, 0] >= 1.0) & (rows[:, 0] <= 4.0)
        trusted = bool(np.all(rows[in_window, 1] <= raw["grid"]["box_len"] / 4))
        decay = report["decay"]
        assert decay["trust_window_ok"] is trusted is False
        assert abs(decay["fitted_exponent"] - decay["predicted_exponent"]) <= decay["tol_exp"]
        assert report["pass"] is False
        edge = run_scenario(config_from_dict(dict(raw, trust_mode="edge_leak")), tmp_path / "edge").report
        assert edge["decay"]["trust_window_ok"] is True
        assert edge["pass"] is True

    def test_nonlinear_warnings_recorded_as_events(self, tmp_path):
        """A dim-2 run is outside theorem scope; its NumericsWarnings land in report.json."""
        cfg = config_from_dict(minimal_nonlinear())
        run_scenario(cfg, tmp_path / "w")
        report = json.loads((tmp_path / "w" / "report.json").read_text())
        scope = [e["message"] for e in report["events"] if e["kind"] == "scope"]
        warned = [e["message"] for e in report["events"] if e["kind"] == "warning"]
        assert any("dimension N=2" in m for m in scope)
        assert any("dimension N=2" in m and "outside theorem scope" in m for m in warned)
        assert all(set(e) == {"t", "kind", "message"} for e in report["events"])

    def test_symbol_verify_report(self, tmp_path):
        cfg = config_from_dict({"kind": "symbol-verify", "seed": 9, "samples_per_regime": 40})
        outcome = run_scenario(cfg, tmp_path / "sv")
        assert outcome.all_pass
        rep = outcome.report
        assert set(rep["regimes"]) == {"positive", "negative", "degenerate"}
        for row in rep["regimes"].values():
            assert row["max_relative_deviation"] <= 1e-10

    def test_linear_decay_3d_reports_paper_exponent(self, tmp_path):
        """The report row for N=3, (p,q,j)=(inf,2,0) predicts -0.75."""
        cfg = config_from_dict(
            {
                "kind": "linear-decay",
                "seed": 2,
                "params": {"mu": 1.0, "nu": 0.8, "kappa": 0.7875, "rho_ref": 1.0},
                "grid": {"dim": 3, "n": 16, "box_len": 12.0},
                "data": {"kind": "riesz_divergence", "gamma": 1.5, "amplitude": 1.0},
                "times": {"t_min": 0.5, "t_max": 6.0, "count": 8},
                "exponents": {"p": "inf", "q": 2.0, "j": 0},
                "band": "low",
                "fit_window": [1.0, 5.0],
                "trust_mode": "edge_leak",
            }
        )
        outcome = run_scenario(cfg, tmp_path / "ld3")
        assert outcome.report["decay"]["predicted_exponent"] == pytest.approx(-0.75)
        assert (tmp_path / "ld3" / "plots" / "pair_low.svg").exists()

    def test_ablation_scenario_artifacts(self, tmp_path):
        cfg = config_from_dict(
            {
                "kind": "ablation",
                "seed": 4,
                "params": {"mu": 1.0, "nu": 0.8, "kappa": 0.7875, "rho_ref": 1.0},
                "grid": {"dim": 2, "n": 64, "box_len": 48.0},
                "data": {"kind": "riesz_divergence", "gamma": 1.0, "support_radius": 11.0, "amplitude": 1.0},
                "times": {"t_min": 0.8, "t_max": 14.0, "count": 12},
                "exponents": {"p": "inf", "q": 2.0, "j": 0},
                "fit_window": [1.5, 10.0],
                "trust_mode": "edge_leak",
                "gap_threshold": 0.2,
            }
        )
        outcome = run_scenario(cfg, tmp_path / "abl")
        rep = outcome.report
        assert rep["generic"]["fitted_exponent"] > rep["divergence"]["fitted_exponent"]
        assert (tmp_path / "abl" / "series" / "theta_low_divergence.csv").exists()
        assert (tmp_path / "abl" / "series" / "theta_low_generic.csv").exists()

    def test_ablation_series_measured_once(self, tmp_path, monkeypatch):
        """The runner writes the ablation's own two measurements: two series, same bytes as a fresh measurement."""
        import nsklab.runner as runner_mod
        from nsklab.fields import riesz_momentum_pair
        from nsklab.runner import _write_csv
        from nsklab.spectral import default_cutoff

        raw = {
            "kind": "ablation",
            "seed": 7,
            "params": {"mu": 1.0, "nu": 0.8, "kappa": 0.7875, "rho_ref": 1.0},
            "grid": {"dim": 2, "n": 32, "box_len": 48.0},
            "data": {"kind": "riesz_divergence", "gamma": 1.0, "support_radius": 11.0, "amplitude": 1.0},
            "times": {"t_min": 0.8, "t_max": 14.0, "count": 8},
            "exponents": {"p": "inf", "q": 2.0, "j": 0},
            "fit_window": [1.5, 10.0],
            "trust_mode": "edge_leak",
        }
        cfg = config_from_dict(raw)
        measured = runner_mod.theta_low_band_series
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return measured(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "theta_low_band_series", counted)
        run_scenario(cfg, tmp_path / "abl")
        assert len(calls) == 2

        grid = cfg.grid
        pair = riesz_momentum_pair(grid, 1.0, 11.0, rng=np.random.default_rng(7), amplitude=1.0)
        for tag, data in zip(("divergence", "generic"), pair):
            meas = measured(data, cfg.params.fluid(), cfg.times.values(), default_cutoff(grid), np.inf)
            _write_csv(tmp_path / f"{tag}.csv", meas.series.times, meas.series.values)
            written = (tmp_path / "abl" / "series" / f"theta_low_{tag}.csv").read_bytes()
            assert written == (tmp_path / f"{tag}.csv").read_bytes()

    def test_runs_load_no_numpy_submodule_they_do_not_use(self, tmp_path):
        """A run of each measured kind loads neither numpy.ma nor numpy.fft, and a curl_mixture linear decay, which
        draws nothing, loads no numpy.random either; each costs a fresh interpreter over 1 ms to import, numpy.ma and
        numpy.random over 10 ms.  (symbol-verify is left out: its oracle is scipy.linalg, which loads all three.)"""
        curl = dict(
            minimal_linear_decay(),
            data={"kind": "curl_mixture", "rho_min": 0.3, "rho_max": 3.0},
            band="high",
            exponents={"p": 2.0, "q": 2.0, "j": 1},
            w10=True,
        )
        script = (
            "import json, sys\n"
            "from nsklab.runner import run_scenario\n"
            "from nsklab.scenario import config_from_dict\n"
            "for i, raw in enumerate(json.loads(sys.argv[1])):\n"
            "    run_scenario(config_from_dict(raw), f'{sys.argv[2]}/{i}')\n"
            "    print(json.dumps([m for m in ('numpy.ma', 'numpy.fft', 'numpy.random') if m in sys.modules]))\n"
        )
        configs = [curl, minimal_linear_decay(), minimal_ablation(), minimal_nonlinear()]
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(configs), str(tmp_path)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = [json.loads(line) for line in proc.stdout.splitlines()]
        assert loaded == [[], ["numpy.random"], ["numpy.random"], ["numpy.random"]]

    def test_inadmissible_start_is_a_failed_verdict(self, tmp_path):
        """Initial density outside [rho*/4, 4 rho*] is recorded at t = 0 and takes no step; the CLI exits 2."""
        from nsklab import cli

        raw = minimal_nonlinear()
        raw["amplitude"] = 4.0
        outcome = run_scenario(config_from_dict(raw), tmp_path / "run")
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert outcome.status == "fail" and report == outcome.report
        assert report["pass"] is False and report["success"] is False
        assert report["admissible_throughout"] is False and report["rejected"] is False
        assert report["aggregate_final"] is None
        violations = [e for e in report["events"] if e["kind"] == "range_violation"]
        assert len(violations) == 1 and violations[0]["t"] == 0.0
        assert violations[0]["message"].startswith("density range [")
        assert (tmp_path / "run" / "series" / "aggregate_N.csv").read_text() == "t,value\n"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli.main(["nonlinear-run", "--config", str(cfg_path), "--out", str(tmp_path / "cli")]) == 2

    def test_sweep_entry_refused_at_parse_time_is_its_error(self, tmp_path):
        """Entries that once parsed and then failed in their run (a Grid, FluidParams, whole-steps or exponent check)
        are each their own ValidationError outcome, with a report.json of it, and the other entries run."""
        bad = {
            "grid": {"grid": {"dim": 2, "n": 12, "box_len": 8.0}},
            "params": {"params": {"mu": -1.0, "nu": 1.0, "kappa": 1.0, "rho_ref": 1.0}},
            "steps": {"t_end": 1.0, "dt": 0.3},
            "exponent": {"nonlinear_exponents": {"q1": 0}},
            "init": {"init": {"theta_width": 0.0}},
        }
        entries = [{"name": "ok", "config": minimal_nonlinear(1)}]
        entries += [{"name": name, "config": dict(minimal_nonlinear(2), **keys)} for name, keys in bad.items()]
        outcomes = run_sweep(parse_sweep_config(json.dumps({"scenarios": entries})), tmp_path)
        assert [o.status for o in outcomes] == ["pass"] + ["error"] * len(bad)
        for outcome in outcomes[1:]:
            report = json.loads((outcome.out_dir / "report.json").read_text())
            assert report["error"].startswith("ValidationError: ") and report["error"] == outcome.report["error"]
            assert not (outcome.out_dir / "manifest.json").exists()

    def test_serial_sweep_leaves_no_table_on_its_configs(self, tmp_path):
        """A run caches |xi|^2 tables on its grid, the config's; a serial sweep runs each entry on a copy of its
        config, as a pool worker does, so those tables do not outlive the run on the configs the sweep holds."""
        sweep = parse_sweep_config(json.dumps({"scenarios": [{"name": "a", "config": minimal_nonlinear(1)}]}))
        assert [o.status for o in run_sweep(sweep, tmp_path)] == ["pass"]
        ((_, cfg),) = sweep.scenarios
        assert not {"half_xi_sq", "radial_values", "radial_index"} & set(vars(cfg.grid))

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patched worker reaches the pool by fork")
    def test_sweep_worker_that_dies_leaves_a_report(self, tmp_path, monkeypatch):
        """Every entry a dead worker ends, in a sweep on a process pool, is an error outcome with a report.json that
        names the error."""
        monkeypatch.setattr(runner_mod, "_run_contained", _dies_in_its_worker)
        entries = [{"name": "ok", "config": minimal_nonlinear(1)}, {"name": "dies", "config": minimal_nonlinear(2)}]
        outcomes = run_sweep(parse_sweep_config(json.dumps({"scenarios": entries})), tmp_path, threads=2)
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())["scenarios"]
        assert outcomes[1].status == "error"
        for outcome, row in zip(outcomes, summary):
            report = json.loads((outcome.out_dir / "report.json").read_text())
            if outcome.status == "error":
                assert row["error"].startswith("BrokenProcessPool") and report["error"] == row["error"]
                assert report["pass"] is False and report["kind"] == "nonlinear-run"
            else:
                assert report["pass"] is True

    def test_error_writes_partial_artifacts(self, tmp_path):
        raw = minimal_nonlinear()
        raw["amplitude"], raw["init"] = 1e308, {"m_relative_amplitude": 10.0}  # m's amplitude overflows: raises once the run builds its datum
        cfg = config_from_dict(raw)
        with pytest.raises(Exception):
            run_scenario(cfg, tmp_path / "bad")
        assert (tmp_path / "bad" / "manifest.json").exists()
        rep = json.loads((tmp_path / "bad" / "report.json").read_text())
        assert rep["pass"] is False
        assert "error" in rep


class TestCli:
    def _write(self, tmp_path, payload, name="cfg.json"):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return p

    def _cli(self, *args, **kwargs):
        """``python -m nsklab *args`` in a fresh interpreter."""
        return subprocess.run([sys.executable, "-m", "nsklab", *map(str, args)], capture_output=True, text=True, **kwargs)

    def test_cli_nonlinear_run_exit_zero(self, tmp_path):
        cfg_path = self._write(tmp_path, minimal_nonlinear())
        proc = self._cli("nonlinear-run", "--config", cfg_path, "--out", tmp_path / "o")
        assert proc.returncode == 0, proc.stderr
        assert "PASS" in proc.stdout

    @pytest.mark.parametrize("make", [minimal_nonlinear, minimal_linear_decay])
    def test_cli_series_identical_across_thread_counts(self, tmp_path, make, monkeypatch):
        """cli.main with --threads 2 runs every transform on two FFT workers and writes every artifact (series
        CSVs, plots, report and manifest) byte for byte as --threads 1 does: C10 with threads."""
        import nsklab.spectral as spectral_mod
        from nsklab import cli

        monkeypatch.setattr(spectral_mod, "_FFT_WORKERS", 1)  # back to the module's value after the test
        cfg_path = self._write(tmp_path, make())
        artifacts = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            assert cli.main([make()["kind"], "--config", str(cfg_path), "--out", str(out), "--threads", threads]) in (0, 2)
            assert spectral_mod._FFT_WORKERS == int(threads)
            artifacts.append({str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
        assert {"manifest.json", "report.json"} <= set(artifacts[0])
        assert any(name.startswith("series") for name in artifacts[0])
        assert artifacts[0] == artifacts[1]

    def test_cli_kind_mismatch(self, tmp_path):
        cfg_path = self._write(tmp_path, minimal_nonlinear())
        proc = self._cli("ablation", "--config", cfg_path, "--out", tmp_path / "o")
        assert proc.returncode == 1
        assert "does not match" in proc.stderr

    def test_cli_env_out_dir(self, tmp_path, monkeypatch):
        cfg_path = self._write(tmp_path, minimal_nonlinear())
        env = dict(os.environ)
        env["NSKLAB_OUT"] = str(tmp_path / "envout")
        proc = self._cli("nonlinear-run", "--config", cfg_path, env=env)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "envout" / "report.json").exists()

    def test_cli_sweep(self, tmp_path):
        sweep = {
            "scenarios": [
                {"name": "s1", "config": minimal_nonlinear(1)},
                {"name": "s2", "config": minimal_nonlinear(2)},
            ]
        }
        cfg_path = self._write(tmp_path, sweep, "sweep.json")
        proc = self._cli("sweep", "--config", cfg_path, "--out", tmp_path / "sw", "--threads", 2)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "sw" / "s1" / "report.json").exists()
        assert (tmp_path / "sw" / "s2" / "report.json").exists()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_cli_sweep_contains_a_raising_scenario(self, tmp_path, threads):
        """The scenario that raises is an error outcome; the others still run and keep their artifacts."""
        bad = minimal_nonlinear(3)
        bad["amplitude"], bad["init"] = 1e308, {"m_relative_amplitude": 10.0}  # m's amplitude overflows: raises at run time
        sweep = {
            "scenarios": [
                {"name": "s1", "config": minimal_nonlinear(1)},
                {"name": "bad", "config": bad},
                {"name": "s2", "config": minimal_nonlinear(2)},
            ]
        }
        cfg_path = self._write(tmp_path, sweep, "sweep.json")
        out = tmp_path / "sw"
        proc = self._cli("sweep", "--config", cfg_path, "--out", out, "--threads", threads)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "[ERROR] bad" in proc.stdout
        summary = json.loads((out / "sweep_summary.json").read_text())["scenarios"]
        assert [(r["name"], r["status"]) for r in summary] == [("s1", "pass"), ("bad", "error"), ("s2", "pass")]
        assert all(r["run_s"] > 0 for r in summary)
        assert "ConstraintViolation" in summary[1]["error"]
        assert "Traceback" in summary[1]["traceback"]
        for name in ("s1", "s2"):
            assert json.loads((out / name / "report.json").read_text())["pass"] is True
        assert "error" in json.loads((out / "bad" / "report.json").read_text())

    @pytest.mark.parametrize("threads", [1, 2])
    def test_cli_sweep_contains_an_invalid_scenario(self, tmp_path, threads):
        """An entry whose config fails validation is an error outcome with a report.json of the error and its
        traceback; the others still run, the summary lists it, and the sweep exits 1."""
        bad = minimal_linear_decay()
        bad["times"]["count"] = 2
        sweep = {
            "scenarios": [
                {"name": "s1", "config": minimal_nonlinear(1)},
                {"name": "bad", "config": bad},
                {"name": "s2", "config": minimal_nonlinear(2)},
            ]
        }
        cfg_path = self._write(tmp_path, sweep, "sweep.json")
        out = tmp_path / "sw"
        proc = self._cli("sweep", "--config", cfg_path, "--out", out, "--threads", threads)
        assert proc.returncode == 1, proc.stderr
        assert "[ERROR] bad" in proc.stdout
        summary = json.loads((out / "sweep_summary.json").read_text())["scenarios"]
        assert [(r["name"], r["status"]) for r in summary] == [("s1", "pass"), ("bad", "error"), ("s2", "pass")]
        assert summary[1]["error"].startswith("ValidationError: times need")
        report = json.loads((out / "bad" / "report.json").read_text())
        assert report["pass"] is False and report["error"] == summary[1]["error"]
        assert "Traceback" in report["traceback"] and "parse_sweep_config" in report["traceback"]
        for name in ("s1", "s2"):
            assert json.loads((out / name / "report.json").read_text())["pass"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["linear-decay"],
            ["linear-decay", "--config", "c.json", "--threads", "abc"],
            ["linear-decay", "--config", "c.json", "--threads", "0"],
            ["sweep", "--config", "s.json", "--threads", "-1"],
            ["no-such-command"],
        ],
    )
    def test_cli_usage_error_exits_one(self, argv, capsys):
        """A usage error is an execution error (1), not a failed verdict (2), and reads no config; --help exits 0."""
        from nsklab import cli

        assert cli.main(argv) == 1
        assert "error:" in capsys.readouterr().err
        assert cli.main(["--help"]) == 0
        assert cli.main(["sweep", "--help"]) == 0

    def test_cli_sweep_failed_verdict_exit_two(self, tmp_path):
        failing = minimal_linear_decay()
        failing["tol_exp"] = 1e-9  # no fit lands this close to the predicted exponent
        sweep = {"scenarios": [{"name": "ok", "config": minimal_nonlinear(1)}, {"name": "fails", "config": failing}]}
        cfg_path = self._write(tmp_path, sweep, "sweep.json")
        out = tmp_path / "sw"
        proc = self._cli("sweep", "--config", cfg_path, "--out", out)
        assert proc.returncode == 2, proc.stderr
        summary = json.loads((out / "sweep_summary.json").read_text())["scenarios"]
        assert [r["status"] for r in summary] == ["pass", "fail"]

    def test_cli_sweep_rejects_seed(self, capsys):
        """--seed overrides one scenario's seed; a sweep's scenarios keep their own, so sweep does not take it."""
        from nsklab import cli

        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["sweep", "--config", "sweep.json", "--seed", "999"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert cli.build_parser().parse_args(["nonlinear-run", "--config", "c.json", "--seed", "999"]).seed == 999

    def test_cli_contains_an_unexpected_exception(self, tmp_path, monkeypatch, capsys):
        """An exception outside NsklabError and OSError exits 1 with a message, not a traceback."""
        from nsklab import cli, runner

        def boom(cfg, out_dir):
            raise RuntimeError("kernel exploded")

        monkeypatch.setitem(runner._RUNNERS, "linear-decay", boom)
        cfg_path = self._write(tmp_path, minimal_linear_decay())
        out = tmp_path / "o"
        assert cli.main(["linear-decay", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip() == "error: RuntimeError: kernel exploded"
        rep = json.loads((out / "report.json").read_text())
        assert rep["pass"] is False
        assert rep["error"] == "RuntimeError: kernel exploded"
        assert "Traceback" in rep["traceback"]

    def test_cli_bad_config_exit_one(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{ nope")
        proc = self._cli("linear-decay", "--config", p)
        assert proc.returncode == 1
