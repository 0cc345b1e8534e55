import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nsklab.errors import ParseError, ValidationError
from nsklab.runner import run_scenario
from nsklab.scenario import (
    DATA_KINDS,
    KINDS,
    RECORDS,
    config_from_dict,
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

    Keys come from the kind's record, in sorted order.
    """

    def num():
        return float(rng.uniform(0.01, 50.0))

    def exponent():
        return "inf" if rng.random() < 0.3 else num()

    def maybe(block, **optional):
        block.update({key: value for key, value in optional.items() if rng.random() < 0.5})
        return block

    def data_kind():  # the ablation takes riesz_divergence only; the draw is made anyway, so later keys keep theirs
        drawn = str(rng.choice(DATA_KINDS))
        return "riesz_divergence" if kind == "ablation" else drawn

    values = {
        "seed": lambda: int(rng.integers(0, 2**31)),
        "out_dir": lambda: f"out/{int(rng.integers(1000))}",
        "params": lambda: maybe({"mu": num(), "nu": num(), "kappa": num(), "rho_ref": num()}, pressure_k=num()),
        "grid": lambda: {"dim": int(rng.integers(1, 5)), "n": int(2 ** rng.integers(2, 8)), "box_len": num()},
        "data": lambda: maybe(
            {"kind": data_kind()},
            amplitude=num(),
            gamma=num(),
            support_radius=num(),
            gamma_potential=num(),
            rho_min=num(),
            rho_max=num(),
            width=num(),
        ),
        "times": lambda: {"t_min": num(), "t_max": num(), "count": int(rng.integers(2, 40))},
        "exponents": lambda: maybe({}, p=exponent(), q=exponent(), j=int(rng.integers(0, 3))),
        "nonlinear_exponents": lambda: maybe({}, p=exponent(), q1=exponent(), q2=exponent(), tau=num()),
        "init": lambda: maybe({}, theta_width=num(), m_envelope_width=num(), m_smooth_width=num(), m_relative_amplitude=num()),
        "band": lambda: str(rng.choice(["low", "high", "full"])),
        "w10": lambda: bool(rng.random() < 0.5),
        "cutoff_eps": num,
        "fit_window": lambda: sorted([num(), num()]),
        "trust_mode": lambda: str(rng.choice(["mass_radius", "edge_leak"])),
        "tol_exp": num,
        "gap_threshold": num,
        "samples_per_regime": lambda: int(rng.integers(1, 5000)),
        "xi_scale": num,
        "t_max": num,
        "tol_symbol": num,
        "amplitude": num,
        "t_end": num,
        "dt": num,
        "sample_every": lambda: int(rng.integers(1, 10)),
        "nonlinear": lambda: bool(rng.random() < 0.5),
    }
    raw = {"kind": kind}
    for field in sorted(dataclasses.fields(RECORDS[kind]), key=lambda field: field.name):
        if field.default is dataclasses.MISSING or rng.random() < 0.5:
            raw[field.name] = values[field.name]()
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


DEMO_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "demos" / "configs").glob("*.json"))


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
        """A kind's record accepts exactly its pinned keys, and requires the fields without a default."""
        accepted, required = SCHEMA[kind]
        fields = dataclasses.fields(RECORDS[kind])
        assert RECORDS[kind].kind == kind
        assert {field.name for field in fields} | {"kind"} == accepted
        assert {field.name for field in fields if field.default is dataclasses.MISSING} == required

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


class TestRunScenario:
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
        from nsklab.runner import _grid_from_config, _params_from_config, _write_csv
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

        grid = _grid_from_config(cfg)
        pair = riesz_momentum_pair(grid, 1.0, 11.0, rng=np.random.default_rng(7), amplitude=1.0)
        for tag, data in zip(("divergence", "generic"), pair):
            meas = measured(data, _params_from_config(cfg), cfg.times.values(), default_cutoff(grid), np.inf)
            _write_csv(tmp_path / f"{tag}.csv", meas.series.times, meas.series.values)
            written = (tmp_path / "abl" / "series" / f"theta_low_{tag}.csv").read_bytes()
            assert written == (tmp_path / f"{tag}.csv").read_bytes()

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

    def test_error_writes_partial_artifacts(self, tmp_path):
        raw = minimal_nonlinear()
        raw["grid"] = {"dim": 2, "n": 12, "box_len": 8.0}  # n not a power of two
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
        bad["grid"] = {"dim": 2, "n": 12, "box_len": 8.0}  # n not a power of two: raises at run time
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
