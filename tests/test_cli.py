"""Config validation, report round-trips, determinism, CLI surface."""

import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import theta_secant.cli as cli
from theta_secant.cli import (RS_KERNELS, jacobian_fay_data, main, resolve_curve,
                              run_scenario)
from theta_secant.curves import build_abel_data, default_corpus, default_corpus_path
from theta_secant.errors import ConfigError
from theta_secant.reports import (PARAMETERS, SCENARIOS, CheckRecord, Report,
                                  ScenarioConfig)
from theta_secant.rng import Xoshiro256


class TestConfig:
    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError, match="bogus"):
            ScenarioConfig(scenario="bdhe", bogus=1)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            ScenarioConfig(scenario="nope")

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
        """A scenario has one spelling, its name: `check <scenario>` is a
        usage error."""
        rc = main(["check", "theta-selftest", "--seed", "3"])
        out, err = capsys.readouterr()
        assert rc == 2 and err == "" and json.loads(out)["error"] == "ConfigError"
        assert "invalid choice: 'check'" in json.loads(out)["message"]

    @pytest.mark.parametrize("argv, message", [
        (["bdhe", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        (["bdhe", "--bogus"], "unrecognized arguments: --bogus"),
        (["rs", "simulate", "--n", "2"], "the following arguments are required"),
        ([], "a command is required"),
    ], ids=["bad-int", "unknown-option", "missing-option", "no-command"])
    def test_usage_error_is_a_json_error(self, capsys, argv, message):
        """A usage error takes the one output path of every error: a JSON
        ConfigError on stdout, exit 2, nothing on stderr."""
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 2 and err == ""
        error = json.loads(out)
        assert error["error"] == "ConfigError" and error["message"].startswith(message)

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: theta-secant")

    def test_corpus_hash_reference(self, capsys):
        """--corpus alone chooses a corpus file; --curve is an id in it, so
        the path#id and corpus#id spellings name no record."""
        rc = main(["bdhe", "--corpus", str(default_corpus_path()), "--curve", "x5m1",
                   "--seed", "7", "--window", "m_size=4", "--window", "n_size=4"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and out["curve"] == "x5m1"
        fit = [c for c in out["checks"] if c["name"] == "fit_residual"][0]
        assert fit["residual"] <= 1e-8
        for ref in ("corpus#x5m1", "#x5m1", f"{default_corpus_path()}#x5m1"):
            rc = main(["bdhe", "--curve", ref])
            out = json.loads(capsys.readouterr().out)
            assert rc == 2 and out["error"] == "ConfigError"
            assert out["message"].startswith(f"curve {ref!r} not found in corpus")

    def test_fay_trisecant_reads_the_fits_vectors(self, lattice_passes):
        """The collinearity comes from the vectors each fit returns: at
        seed 7 the scenario is its four fits, one binned pass each."""
        run_scenario(ScenarioConfig(scenario="fay-trisecant", seed=7))
        assert lattice_passes == [(3 * 16, True)] * 4

    def test_probe_depth_capped(self, capsys, lattice_passes):
        """A probe depth past divisor.MAX_PROBE_DEPTH exits 2 with a JSON
        error before any lattice pass; at the cap the scenario runs, one
        probe pass of 2K + 1 points per sample, all samples in that pass."""
        rc = main(["divisor-identities", "--window", "probe_depth=1001"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 2 and out["error"] == "ValidationError"
        assert lattice_passes == []
        rc = main(["divisor-identities", "--window", "probe_depth=1000",
                   "--window", "samples=2", "--window", "g1_pairs=1"])
        assert json.loads(capsys.readouterr().out)["scenario"] == "divisor-identities"
        assert rc in (0, 1) and lattice_passes.count((2 * 2001, False)) == 1

    def test_invalid_curve_validation_exit(self, capsys, tmp_path):
        corpus = tmp_path / "bad.json"
        corpus.write_text('[{"id": "flat", "kind": "hyperelliptic2", "poly": [-1, 0, 0, 0, 0, 2]}]')
        rc = main(["bdhe", "--corpus", str(corpus), "--curve", "flat"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert out["error"] == "ValidationError"
        assert out["message"] == "poly must be monic (leading coefficient 1)"

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
        assert ident == "x5m1" and spec.poly[0] == -1

    @pytest.mark.parametrize("scenario", ["fay-trisecant", "divisor-identities",
                                          "toda", "bdhe", "wave-series", "controls"])
    def test_genus1_curve_config_exit(self, capsys, tmp_path, scenario):
        """Curve records are genus 2: a genus-1 record in a --corpus file is
        an unknown kind."""
        path = tmp_path / "g1.json"
        path.write_text(json.dumps([OUTSIDE_CORPUS["g1i"]]))
        rc = main([scenario, "--corpus", str(path), "--curve", "g1i"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 2 and out["error"] == "ValidationError"
        assert out["message"] == "unknown curve kind 'genus1'"

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

    @pytest.mark.parametrize("cap", ["abc", "1.5", "0", "-1"])
    def test_malformed_cap_config_exit(self, capsys, monkeypatch, cap):
        # a cap that is not an integer of at least 1 is a usage error, not a
        # traceback (exit 1) or a RadiusCap on every evaluation (exit 3)
        monkeypatch.setenv("THETA_SECANT_CAP", cap)
        rc = main(["fay-trisecant", "--seed", "7"])
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert rc == 2 and out["error"] == "ConfigError"
        assert "THETA_SECANT_CAP" in out["message"] and captured.err == ""

    @pytest.mark.parametrize("argv", [
        ["rs-dynamics"], ["wave-series"],
        ["rs", "simulate", "--n", "3", "--t-end", "0.2", "--h", "1e-3",
         "--kernel", "elliptic"],
    ], ids=["rs-dynamics", "wave-series", "rs-simulate-elliptic"])
    def test_pole_dynamics_radius_cap_exit_three(self, capsys, monkeypatch, argv):
        # the tau sections, the elliptic kernel and the semi-discrete system
        # look their radius up at their first pass, where the cap applies
        monkeypatch.setenv("THETA_SECANT_CAP", "2")
        rc = main(argv)
        out = json.loads(capsys.readouterr().out)
        assert rc == 3 and out["error"] == "RadiusCap"
        assert out["message"].startswith("radius 5 exceeds cap 2")

    def test_arithmetic_error_exit_three(self, capsys, monkeypatch):
        # a value beyond float range raises OverflowError (from math.exp or
        # a float conversion); the CLI reports it like any numerical failure
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

    @pytest.mark.parametrize("kernel", list(RS_KERNELS))
    def test_rs_simulate_three_particles(self, capsys, kernel):
        rc = main(["rs", "simulate", "--n", "3", "--t-end", "0.2", "--h", "1e-3",
                   "--kernel", kernel])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["checks"][0]["name"] == "momentum_conservation"
        assert set(out["timing"]) == {"wall_s"} and out["timing"]["wall_s"] >= 0

    @pytest.mark.parametrize("scenario, headers", [
        ("toda", {"toda_fields.csv": "x,t,re_u,im_u,re_v,im_v,re_psi_mantissa,"
                                     "im_psi_mantissa,psi_logscale"}),
        ("bdhe", {"bdhe_fields.csv": "m,n,re_u,im_u,re_v,im_v,re_psi_mantissa,"
                                     "im_psi_mantissa,psi_logscale"}),
        ("rs-dynamics", {"rs_trajectory.csv": "t,i,re_x,im_x,re_xdot,im_xdot",
                         "zero_path.csv": "t,re_eta,im_eta,re_v0,im_v0"}),
    ])
    def test_csv_dir_export(self, tmp_path, capsys, scenario, headers):
        rc = main([scenario, "--seed", "7", "--csv-dir", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(headers)
        for name, head in headers.items():
            assert (tmp_path / name).read_text().splitlines()[0] == head


@pytest.mark.parametrize("scenario, curve, seed, name, key, weakest", [
    # the weakest witness read 4.85e-3 here, below the 1e-2 threshold
    ("divisor-identities", "x5m1", 85, "cm7_random_control",
     "cm7_random_control_max_of_mins", 4.85e-3),
    ("divisor-identities", "x5pert", 4, "cm7d_decomposable_control",
     "cm7d_decomposable_control_min", 1.77e-3),
    ("controls", "x5m1", 13, "decomposable_identity", "decomposable_identity_min", None),
])
def test_negative_controls_take_the_strongest_witness(capsys, scenario, curve, seed,
                                                       name, key, weakest):
    rc = main([scenario, "--curve", curve, "--seed", str(seed)])
    out = json.loads(capsys.readouterr().out)
    check = next(c for c in out["checks"] if c["name"] == name)
    assert rc == 0 and check["pass"] and check["residual"] >= 1e-2
    assert out["extra"][key] < 1e-2 <= check["residual"]
    if weakest is not None:
        assert out["extra"][key] == pytest.approx(weakest, rel=1e-2)


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "theta_secant.cli", "theta-selftest",
         "--seed", "4", "--window", "samples=20"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


@pytest.mark.parametrize("read", [0, 10])
def test_closed_stdout_exits_two_silently(read):
    """A reader that has closed stdout before the report is written makes
    the run exit 2 with nothing on stderr.  One that closes after 10 bytes
    races the write: the report fits the pipe buffer, so the run exits 0 if
    its write lands first and 2 if the close does, never 1 or with a
    traceback."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "theta_secant.cli", "theta-selftest",
         "--seed", "4", "--window", "samples=20"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() in ((0, 2) if read else (2,))
    assert err == b""


@pytest.mark.parametrize("argv,env,code,error", [
    (["bdhe", "--curve", "nope"], {}, 2, "ConfigError"),
    (["theta-selftest", "--seed", "3", "--window", "samples=10"],
     {"THETA_SECANT_CAP": "2"}, 3, "RadiusCap"),
    (["fay-trisecant", "--seed", "7"], {"THETA_SECANT_CAP": "abc"}, 2, "ConfigError"),
], ids=["unknown-curve", "radius-cap", "malformed-cap"])
def test_error_to_closed_stdout_exits_two_silently(argv, env, code, error):
    """An error takes the report's one output path: to an open stdout it is
    one JSON object with exit 2 (bad input) or 3 (numerical failure), and
    to a stdout closed before it is written it exits 2 with nothing on
    stderr, never 1 or with a traceback."""
    cmd = [sys.executable, "-m", "theta_secant.cli", *argv]
    env = {**os.environ, **env}
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert proc.returncode == code and proc.stderr == ""
    assert json.loads(proc.stdout)["error"] == error
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err == b""


def test_curve_runs_import_neither_argparse_nor_numpy_polynomial():
    """run_scenario on a curve reads the frozen quadrature rules, and only
    the command line needs argparse."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from theta_secant.cli import run_scenario\n"
         "from theta_secant.reports import ScenarioConfig\n"
         "assert run_scenario(ScenarioConfig('fay-trisecant', curve='x5m1')).passed\n"
         "print(sorted({'argparse', 'gettext', 'numpy.polynomial'} & set(sys.modules)))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_verdict_loads_only_its_scenario_module():
    """run_scenario imports the runner module of the scenario it runs and
    none of the other seven, so a verdict compiles only its own runner."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from theta_secant.cli import run_scenario\n"
         "from theta_secant.reports import ScenarioConfig\n"
         "assert run_scenario(ScenarioConfig('fay-trisecant', curve='x5m1')).passed\n"
         "print(sorted(m for m in sys.modules if m.startswith('theta_secant.scenarios.')))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['theta_secant.scenarios.fay_trisecant']"


def test_valid_curve_with_bad_periods_exits_three(capsys, tmp_path):
    """A valid quintic whose computed period matrix fails its symmetry
    check is a numerical failure (exit 3), not invalid input (exit 2):
    roots 0.02 * (random point of the unit square), seed 2."""
    rng = random.Random(2)
    poly = np.poly([0.02 * complex(rng.random(), rng.random()) for _ in range(5)])
    path = tmp_path / "small.json"
    path.write_text(json.dumps([{"id": "p2", "kind": "hyperelliptic2",
                                 "poly": [[c.real, c.imag] for c in poly[::-1]]}]))
    rc = main(["fay-trisecant", "--corpus", str(path), "--curve", "p2"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 3 and out["error"] == "BadPeriods"
    assert out["message"].startswith("period matrix asymmetric")


@pytest.mark.parametrize("ident,seed", [("x5m1", 897), ("x5pert", 456),
                                        ("x5pert", 481)])
def test_seeded_points_clear_of_cuts(ident, seed):
    # these seeds once drew a point within CUT_CLEARANCE of a cut, from
    # which no integration path can be routed
    data = build_abel_data(default_corpus()[ident])
    U, V, A, pts = jacobian_fay_data(data, Xoshiro256(seed))
    assert len(pts) == 4 and np.all(np.isfinite(A))


# records outside the package corpus, each run from a --corpus file of its
# own: the two genus-1 records the package corpus once held, and a
# malformed one
OUTSIDE_CORPUS = {
    "g1i": {"id": "g1i", "kind": "genus1", "tau": [0.0, 1.0]},
    "g1rho": {"id": "g1rho", "kind": "genus1", "tau": [0.31, 1.17]},
    "malformed#bad": {"id": "bad", "kind": "hyperelliptic2",
                      "poly": [[1.0, "x"], 0, 0, 0, 0, 1]},
}


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("curve", sorted(default_corpus()) + sorted(OUTSIDE_CORPUS))
def test_every_scenario_and_corpus_entry_keeps_the_exit_contract(
        capsys, tmp_path, scenario, curve):
    """Each run exits 0 (pass), 1 (a check failed), 2 (bad input) or 3
    (numerical failure), and prints one JSON object: a report (indented
    over many lines) or an error."""
    argv = [scenario, "--curve", curve]
    if curve in OUTSIDE_CORPUS:
        path = tmp_path / "outside.json"
        path.write_text(json.dumps([OUTSIDE_CORPUS[curve]]))
        argv = [scenario, "--corpus", str(path), "--curve", OUTSIDE_CORPUS[curve]["id"]]
    rc = main(argv)
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
    ["bdhe", "--corpus", "{tmp}/object.json"],
    ["toda", "--csv-dir", "{tmp}/missing"],
    ["rs", "simulate", "--n", "1", "--t-end", "0.01", "--h", "1e-3",
     "--out", "{tmp}/missing/report.json"],
    ["rs", "simulate", "--n", "1", "--t-end", "0.01", "--h", "1e-3",
     "--csv", "{tmp}/missing/trajectory.csv"],
    # round(1 / h) steps of 0.6 would reach t = 1.2, of 0.3 stop at t = 0.9
    ["rs", "simulate", "--n", "2", "--t-end", "1", "--h", "0.6"],
    ["rs", "simulate", "--n", "2", "--t-end", "1", "--h", "0.3"],
    # too many particles for the pair arrays and the elliptic stage's pass
    ["rs", "simulate", "--n", "100000", "--t-end", "0.002", "--h", "1e-3"],
    ["rs", "simulate", "--n", "1000", "--kernel", "elliptic", "--t-end", "0.002",
     "--h", "1e-3"],
])
def test_non_finite_rs_steps_are_validation_errors(capsys, tmp_path, argv):
    """An RS run with a non-finite, empty or unbounded step count or a step
    that does not divide --t-end, a corpus that cannot be read or is no
    JSON array, and an output file in a missing directory each exit 2 with a
    JSON error, not a traceback, a vacuous pass, a hang or a run that ends
    off --t-end."""
    (tmp_path / "latin1.json").write_bytes('[{"id": "\xe9"}]'.encode("latin-1"))
    (tmp_path / "object.json").write_text('{"x5m1": {"kind": "hyperelliptic2"}}')
    rc = main([a.format(tmp=tmp_path) for a in argv])
    out = json.loads(capsys.readouterr().out)
    writes = {"--out", "--csv", "--csv-dir"} & set(argv)
    assert rc == 2
    assert out["error"] == ("FileNotFoundError" if writes else "ValidationError")
