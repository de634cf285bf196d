"""Config validation, report round-trips, determinism, CLI surface."""

import json
import subprocess
import sys

import numpy as np
import pytest

import theta_secant.cli as cli
from theta_secant.cli import jacobian_fay_data, main, resolve_curve, run_scenario
from theta_secant.curves import build_abel_data, default_corpus
from theta_secant.errors import ConfigError
from theta_secant.reports import (PARAMETERS, SCENARIOS, CheckRecord, Report,
                                  ScenarioConfig)
from theta_secant.rng import Xoshiro256


class TestConfig:
    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"scenario": "bdhe", "bogus": 1})

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"scenario": "nope"})

    def test_tolerance_range(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="bdhe", tolerances={"psi_residual": 0.5})
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="bdhe", tolerances={"psi_residual": 1e-18})
        cfg = ScenarioConfig(scenario="bdhe", tolerances={"psi_residual": "1e-6"})
        assert cfg.tolerances["psi_residual"] == 1e-6
        assert cfg.tol("psi_residual") == 1e-6 and cfg.tol("fit_residual") == 1e-8

    @pytest.mark.parametrize("field, name", [("tolerances", "evennes"),
                                             ("window", "sampels")])
    def test_unknown_names_rejected(self, field, name):
        with pytest.raises(ConfigError, match=f"unknown {field} {name} for "
                                              "theta-selftest; accepted: "):
            ScenarioConfig(scenario="theta-selftest", **{field: {name: "5"}})

    def test_every_name_is_read_by_its_runner(self, monkeypatch):
        """The runners read exactly the names of PARAMETERS (small windows
        keep the runs short)."""
        read = {}
        for kind in ("tol", "win"):
            base = getattr(ScenarioConfig, kind)

            def spy(self, name, base=base, kind=kind):
                read.setdefault((self.scenario, kind), set()).add(name)
                return base(self, name)

            monkeypatch.setattr(ScenarioConfig, kind, spy)
        small = {"theta-selftest": {"samples": 10}, "divisor-identities":
                 {"samples": 2, "g1_pairs": 1, "probe_depth": 2},
                 "fay-trisecant": {"tuples": 1}, "controls": {"trials": 1},
                 "wave-series": {"zeros": 2}, "rs-dynamics": {"grid": 21}}
        for scenario, params in PARAMETERS.items():
            run_scenario(ScenarioConfig(scenario, window=small.get(scenario, {})))
            assert read[(scenario, "tol")] == set(params["tolerances"])
            assert read[(scenario, "win")] == set(params["window"])

    def test_window_values(self):
        cfg = ScenarioConfig(scenario="divisor-identities",
                             window={"samples": "3", "probe_depth": "0", "g1_pairs": 2})
        assert cfg.window == {"samples": 3, "probe_depth": 0, "g1_pairs": 2}
        for window in ({"samples": 0}, {"samples": "abc"}, {"samples": "2.5"},
                       {"samples": 2.0}, {"probe_depth": -1}):
            with pytest.raises(ConfigError):
                ScenarioConfig(scenario="divisor-identities", window=window)


class TestReport:
    def test_round_trip(self):
        rep = Report("bdhe", 7, [CheckRecord.le("a", 1e-9, 1e-8),
                                 CheckRecord.ge("b", 0.5, 1e-2)],
                     curve="x5m1", environment={"version": "0.1.0", "seed": 7})
        back = Report.from_dict(json.loads(rep.to_json()))
        assert back.to_json() == rep.to_json()
        assert back.passed

    def test_overall_pass_is_conjunction(self):
        rep = Report("bdhe", 7, [CheckRecord.le("a", 1.0, 1e-8)])
        assert not rep.passed


class TestDeterminism:
    def test_reports_byte_identical_modulo_timing(self):
        cfg = ScenarioConfig(scenario="theta-selftest", seed=11,
                             window={"samples": 40})
        a = run_scenario(cfg).to_dict()
        b = run_scenario(ScenarioConfig(scenario="theta-selftest", seed=11,
                                        window={"samples": 40})).to_dict()
        a.pop("timing"), b.pop("timing")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestMain:
    def test_selftest_exit_zero(self, capsys):
        rc = main(["theta-selftest", "--seed", "3", "--window", "samples=30"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and out["pass"] is True

    def test_check_alias(self, capsys):
        rc = main(["check", "theta-selftest", "--seed", "3",
                   "--window", "samples=30"])
        assert rc == 0
        capsys.readouterr()

    def test_corpus_hash_reference(self, capsys):
        rc = main(["check", "bdhe", "--curve", "corpus#x5m1", "--seed", "7",
                   "--window", "m_size=4", "--window", "n_size=4"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and out["curve"] == "x5m1"
        fit = [c for c in out["checks"] if c["name"] == "fit_residual"][0]
        assert fit["residual"] <= 1e-8

    def test_invalid_curve_validation_exit(self, capsys, tmp_path):
        corpus = tmp_path / "bad.json"
        corpus.write_text('[{"id": "flat", "kind": "genus1", "tau": [1.0, 0.0]}]')
        rc = main(["bdhe", "--curve", f"{corpus}#flat"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert out["error"] == "ValidationError"
        assert "Im tau > 0" in out["message"]

    def test_unknown_curve_exit(self, capsys):
        rc = main(["bdhe", "--curve", "nosuch"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 2 and out["error"] == "ConfigError"

    @pytest.mark.parametrize("scenario", ["theta-selftest", "rs-dynamics"])
    @pytest.mark.parametrize("option", [["--curve", "nosuch"], ["--curve", "x5m1"],
                                        ["--corpus", "corpus.json"]])
    def test_curveless_scenario_rejects_curve(self, capsys, scenario, option):
        rc = main([scenario, *option])
        out = json.loads(capsys.readouterr().out)
        assert rc == 2 and out["error"] == "ConfigError"
        assert out["message"] == f"{scenario} takes no --curve or --corpus"

    def test_bad_corpus_record_fails_only_its_lookup(self, capsys, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps([
            {"id": "x5m1", "kind": "hyperelliptic2", "poly": [-1, 0, 0, 0, 0, 1]},
            {"id": "double", "kind": "hyperelliptic2", "poly": [2, -4, 2, 1, -2, 1]},
        ]))
        rc = main(["toda", "--corpus", str(path), "--curve", "double"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 2 and out["error"] == "DegenerateCurve"
        ident, spec = resolve_curve(ScenarioConfig("toda", curve="x5m1", corpus=str(path)))
        assert ident == "x5m1" and spec.genus == 2

    @pytest.mark.parametrize("scenario", ["fay-trisecant", "divisor-identities",
                                          "toda", "bdhe", "wave-series", "controls"])
    def test_genus1_curve_config_exit(self, capsys, scenario):
        rc = main([scenario, "--curve", "g1i"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 2 and out["error"] == "ConfigError"
        assert out["message"] == f"{scenario} needs a genus-2 curve"

    def test_bad_tol_exit(self, capsys):
        rc = main(["bdhe", "--tol", "fit_residual=0.9"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 2 and out["error"] == "ConfigError"

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        rc = main(["theta-selftest", "--seed", "3", "--window", "samples=30",
                   "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        assert json.loads(out.read_text())["scenario"] == "theta-selftest"

    def test_numerical_error_exit_three(self, capsys, monkeypatch):
        # an absurdly low radius cap forces RadiusCap inside the pipeline
        monkeypatch.setenv("THETA_SECANT_CAP", "2")
        rc = main(["theta-selftest", "--seed", "3", "--window", "samples=10"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 3 and out["error"] == "RadiusCap"

    def test_arithmetic_error_exit_three(self, capsys, monkeypatch):
        # ScaledComplex.to_complex raises OverflowError for a value beyond
        # float range; the CLI reports it like any numerical failure
        def overflowing(config):
            raise OverflowError("logscale 812.5 too large for complex")

        monkeypatch.setitem(cli.RUNNERS, "toda", overflowing)
        rc = main(["toda"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 3
        assert out == {"error": "OverflowError",
                       "message": "logscale 812.5 too large for complex"}

    def test_rs_simulate_free_particle(self, tmp_path, capsys):
        csv_path = tmp_path / "traj.csv"
        rc = main(["rs", "simulate", "--n", "1", "--t-end", "1", "--h", "1e-3",
                   "--csv", str(csv_path)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["checks"][0]["name"] == "free_particle_linear"
        assert out["checks"][0]["residual"] <= 1e-12
        assert csv_path.exists()
        assert len(csv_path.read_text().splitlines()) == 1002

    @pytest.mark.parametrize("kernel", ["rational", "trig", "elliptic"])
    def test_rs_simulate_three_particles(self, capsys, kernel):
        rc = main(["rs", "simulate", "--n", "3", "--t-end", "0.2", "--h", "1e-3",
                   "--kernel", kernel])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["checks"][0]["name"] == "momentum_conservation"


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "theta_secant.cli", "theta-selftest",
         "--seed", "4", "--window", "samples=20"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


@pytest.mark.parametrize("ident,seed", [("x5m1", 897), ("x5pert", 456),
                                        ("x5pert", 481)])
def test_seeded_points_clear_of_cuts(ident, seed):
    # these seeds once drew a point within CUT_CLEARANCE of a cut, from
    # which no integration path can be routed
    data = build_abel_data(default_corpus()[ident])
    U, V, A, pts = jacobian_fay_data(data, Xoshiro256(seed))
    assert len(pts) == 4 and np.all(np.isfinite(A))


MALFORMED = [{"id": "bad", "kind": "hyperelliptic2", "poly": [[1.0, "x"], 0, 0, 0, 0, 1]}]


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("curve", sorted(default_corpus()) + ["malformed#bad"])
def test_every_scenario_and_corpus_entry_keeps_the_exit_contract(
        capsys, tmp_path, scenario, curve):
    """Each run exits 0 (pass), 1 (a check failed), 2 (bad input) or 3
    (numerical failure), and prints one JSON object: a report (indented
    over many lines) or an error."""
    if curve.startswith("malformed"):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(MALFORMED))
        curve = f"{path}#bad"
    rc = main([scenario, "--curve", curve])
    out = json.loads(capsys.readouterr().out)
    assert rc in (0, 1, 2, 3)
    assert ("error" in out) == (rc in (2, 3))


@pytest.mark.parametrize("argv", [
    ["divisor-identities", "--window", "samples=0"],
    ["divisor-identities", "--window", "samples=abc"],
    ["divisor-identities", "--window", "probe_depth=-1"],
    ["controls", "--window", "trials=0"],
    ["rs", "simulate", "--n", "0", "--t-end", "1", "--h", "1e-3"],
    ["theta-selftest", "--window", "sampels=5"],
    ["theta-selftest", "--tol", "evennes=1e-3"],
])
def test_empty_windows_and_particle_sets_are_config_errors(capsys, argv):
    """A window or particle count that leaves nothing to check, or a name
    the scenario does not read, is rejected (exit 2), not passed vacuously,
    ignored or left to crash."""
    rc = main(argv)
    out = json.loads(capsys.readouterr().out)
    assert rc == 2 and out["error"] == "ConfigError"


@pytest.mark.parametrize("argv", [
    ["rs", "simulate", "--n", "3", "--t-end", "nan", "--h", "1e-3"],
    ["rs", "simulate", "--n", "3", "--t-end", "1", "--h", "nan"],
    ["rs", "simulate", "--n", "3", "--t-end", "inf", "--h", "1e-3"],
    ["rs", "simulate", "--n", "3", "--t-end", "1e-4", "--h", "1e-3"],
    ["rs", "simulate", "--n", "3", "--t-end", "1", "--h", "1e-300"],
    ["bdhe", "--corpus", "{tmp}/missing.json"],
    ["bdhe", "--corpus", "{tmp}"],
    ["bdhe", "--corpus", "{tmp}/latin1.json"],
    ["bdhe", "--curve", "{tmp}/missing.json#x"],
    ["toda", "--csv-dir", "{tmp}/missing"],
    ["rs", "simulate", "--n", "1", "--t-end", "0.01", "--h", "1e-3",
     "--out", "{tmp}/missing/report.json"],
    ["rs", "simulate", "--n", "1", "--t-end", "0.01", "--h", "1e-3",
     "--csv", "{tmp}/missing/trajectory.csv"],
])
def test_non_finite_rs_steps_are_validation_errors(capsys, tmp_path, argv):
    """An RS run with a non-finite, empty or unbounded step count, a corpus
    that cannot be read, and an output file in a missing directory each
    exit 2 with a JSON error, not a traceback, a vacuous pass or a hang."""
    (tmp_path / "latin1.json").write_bytes('[{"id": "\xe9"}]'.encode("latin-1"))
    rc = main([a.format(tmp=tmp_path) for a in argv])
    out = json.loads(capsys.readouterr().out)
    writes = {"--out", "--csv", "--csv-dir"} & set(argv)
    assert rc == 2
    assert out["error"] == ("FileNotFoundError" if writes else "ValidationError")
